//! Figure 16: overall speedup of the staggered checkerboard MC placement
//! over the baseline top-bottom placement (both DOR, 2 VCs).

use tenoc_bench::{
    header, hm_of_percent, print_speedup_rows, run_suites_par, speedups_percent, Preset,
};

fn main() {
    let scale = header("Figure 16", "checkerboard MC placement vs top-bottom placement");
    let [tb, cp]: [_; 2] =
        run_suites_par(&[Preset::BaselineTbDor, Preset::CpDor2vc], scale).try_into().unwrap();
    let rows = speedups_percent(&tb, &cp);
    print_speedup_rows(&rows);
    println!("\nHM speedup: {:+.1}% (paper: 13.2%)", hm_of_percent(&rows));
}
