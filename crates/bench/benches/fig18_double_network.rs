//! Figure 18: channel-sliced double network (two 8 B networks, one per
//! traffic class) versus the single 16 B network with 4 VCs — both with
//! checkerboard routing and placement.

use tenoc_bench::{
    header, hm_of_percent, print_speedup_rows, run_suites_par, speedups_percent, Preset,
};

fn main() {
    let scale = header("Figure 18", "double network (2 x 8B) vs single network (16B, 4VC)");
    let [single, double]: [_; 2] =
        run_suites_par(&[Preset::CpCr4vc, Preset::DoubleCpCr], scale).try_into().unwrap();
    let rows = speedups_percent(&single, &double);
    print_speedup_rows(&rows);
    println!("\nHM speedup: {:+.1}% (paper: ~+1%, i.e. no change, while the", hm_of_percent(&rows));
    println!("crossbar area shrinks quadratically — see tab06_area)");
}
