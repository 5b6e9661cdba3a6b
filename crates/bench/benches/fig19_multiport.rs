//! Figure 19: multi-port MC routers — extra injection ports, extra
//! ejection ports and both, over the double checkerboard network.

use tenoc_bench::{header, hm_of_percent, run_suites_par, speedups_percent, Preset};

fn main() {
    let scale = header("Figure 19", "multi-port MC routers over the double CP-CR network");
    let [base, inj, ej, both]: [_; 4] = run_suites_par(
        &[
            Preset::DoubleCpCr,
            Preset::DoubleCpCr2InjPorts,
            Preset::DoubleCpCr2EjPorts,
            Preset::DoubleCpCr2Both,
        ],
        scale,
    )
    .try_into()
    .unwrap();
    let ri = speedups_percent(&base, &inj);
    let re = speedups_percent(&base, &ej);
    let rb = speedups_percent(&base, &both);
    println!("{:>6} {:>5} {:>10} {:>10} {:>10}", "bench", "class", "2 inj", "2 ej", "both");
    for ((a, b), c) in ri.iter().zip(&re).zip(&rb) {
        println!("{:>6} {:>5} {:>+9.1}% {:>+9.1}% {:>+9.1}%", a.0, a.1.to_string(), a.2, b.2, c.2);
    }
    println!(
        "\nHM speedups: 2 inj {:+.1}%, 2 ej {:+.1}%, both {:+.1}%",
        hm_of_percent(&ri),
        hm_of_percent(&re),
        hm_of_percent(&rb)
    );
    println!("paper: extra injection ports help broadly (MC blocked time drops ~38.5%);");
    println!("extra ejection ports help only a few benchmarks (via DRAM row locality)");
}
