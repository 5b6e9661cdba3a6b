//! Figure 11: fraction of time the MCs' reply injection is blocked by the
//! network — the many-to-few-to-many bottleneck signal.

use tenoc_bench::{header, run_suites_par, Preset};

fn main() {
    let scale =
        header("Figure 11", "fraction of time MC reply injection is blocked (baseline mesh)");
    let base = run_suites_par(&[Preset::BaselineTbDor], scale).remove(0);
    println!("{:>6} {:>5} {:>10}", "bench", "class", "% stalled");
    let mut max = (String::new(), 0.0f64);
    for r in &base {
        let pct = r.metrics.mc_stall_fraction * 100.0;
        println!("{:>6} {:>5} {pct:>9.1}%", r.cell.benchmark, r.class.label());
        if pct > max.1 {
            max = (r.cell.benchmark.clone(), pct);
        }
    }
    println!("\nmax: {} at {:.1}% (paper: up to ~70% for some HH benchmarks)", max.0, max.1);
}
