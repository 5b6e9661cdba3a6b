//! Figure 17: relative performance of DOR with 4 VCs and checkerboard
//! routing (half-routers) with 4 VCs, both against DOR with 2 VCs — all
//! with the staggered checkerboard MC placement.

use tenoc_bench::{header, hm_of_percent, run_suites_par, speedups_percent, Preset};

fn main() {
    let scale = header("Figure 17", "CP-DOR-4VC and CP-CR-4VC relative to CP-DOR-2VC");
    let [dor2, dor4, cr4]: [_; 3] =
        run_suites_par(&[Preset::CpDor2vc, Preset::CpDor4vc, Preset::CpCr4vc], scale)
            .try_into()
            .unwrap();
    let rows4 = speedups_percent(&dor2, &dor4);
    let rowsc = speedups_percent(&dor2, &cr4);
    println!("{:>6} {:>5} {:>12} {:>12}", "bench", "class", "DOR 4VC", "CR 4VC");
    for (a, c) in rows4.iter().zip(&rowsc) {
        println!("{:>6} {:>5} {:>11.1}% {:>11.1}%", a.0, a.1.to_string(), 100.0 + a.2, 100.0 + c.2);
    }
    let d4 = hm_of_percent(&rows4);
    let cr = hm_of_percent(&rowsc);
    println!("\nHM relative performance: DOR-4VC {:.1}%, CR-4VC {:.1}%", 100.0 + d4, 100.0 + cr);
    println!(
        "CR-4VC vs DOR-4VC (equal buffering): {:+.1}%",
        (100.0 + cr) / (100.0 + d4) * 100.0 - 100.0
    );
    println!("paper: checkerboard routing loses ~1.1% on average while halving");
    println!("the crossbar area of half the routers");
}
