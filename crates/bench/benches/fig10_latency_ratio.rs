//! Figure 10: in-network latency reduction of 1-cycle routers over the
//! baseline 4-cycle routers (ratio of mean packet network latencies).

use tenoc_bench::{header, run_suites_par, Preset};

fn main() {
    let scale = header("Figure 10", "NoC latency ratio: 1-cycle routers / 4-cycle routers");
    let [base, fast]: [_; 2] =
        run_suites_par(&[Preset::BaselineTbDor, Preset::TbDor1Cycle], scale).try_into().unwrap();
    println!(
        "{:>6} {:>5} {:>10} {:>10} {:>7}",
        "bench", "class", "lat(4cyc)", "lat(1cyc)", "ratio"
    );
    let mut ratios = Vec::new();
    for (b, f) in base.iter().zip(&fast) {
        let ratio = f.metrics.avg_net_latency / b.metrics.avg_net_latency;
        println!(
            "{:>6} {:>5} {:>10.1} {:>10.1} {:>7.2}",
            b.cell.benchmark,
            b.class.label(),
            b.metrics.avg_net_latency,
            f.metrics.avg_net_latency,
            ratio
        );
        ratios.push(ratio);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("\nmean latency ratio: {mean:.2} (paper: roughly 0.5-0.9 across benchmarks,");
    println!("yet Figure 9 shows this buys almost no application speedup)");
}
