//! Figure 9: scaling network bandwidth versus router latency — doubling
//! channel width (16 B -> 32 B) against replacing the 4-cycle routers
//! with aggressive 1-cycle routers.

use tenoc_bench::{header, hm_of_percent, run_suites_par, speedups_percent, Preset};

fn main() {
    let scale =
        header("Figure 9", "2x channel bandwidth vs 1-cycle routers (speedup over baseline)");
    let [base, bw2, r1]: [_; 3] =
        run_suites_par(&[Preset::BaselineTbDor, Preset::TbDor2xBw, Preset::TbDor1Cycle], scale)
            .try_into()
            .unwrap();
    let rows_bw = speedups_percent(&base, &bw2);
    let rows_r1 = speedups_percent(&base, &r1);
    println!("{:>6} {:>5} {:>12} {:>14}", "bench", "class", "2x bandwidth", "1-cycle router");
    for (b, l) in rows_bw.iter().zip(&rows_r1) {
        println!("{:>6} {:>5} {:>+11.1}% {:>+13.1}%", b.0, b.1.to_string(), b.2, l.2);
    }
    println!("\nHM speedup 2x bandwidth:   {:+.1}%  (paper: 27%)", hm_of_percent(&rows_bw));
    println!("HM speedup 1-cycle router: {:+.1}%  (paper: 2.3%)", hm_of_percent(&rows_r1));
    println!("paper conclusion: these workloads are bandwidth-, not latency-sensitive");
}
