//! Figure 7: speedup of a perfect interconnect over the baseline mesh,
//! per benchmark, with the LL/LH/HH classification.

use tenoc_bench::{
    header, hm_of_percent, hm_of_percent_class, print_speedup_rows, run_suites_par,
    speedups_percent, Preset,
};
use tenoc_workloads::TrafficClass;

fn main() {
    let scale = header("Figure 7", "speedup of a perfect network over the baseline mesh");
    let [base, perfect]: [_; 2] =
        run_suites_par(&[Preset::BaselineTbDor, Preset::Perfect], scale).try_into().unwrap();
    let rows = speedups_percent(&base, &perfect);
    print_speedup_rows(&rows);
    println!("\nHM speedup (all): {:+.1}%   (paper: 36%)", hm_of_percent(&rows));
    println!(
        "HM speedup (HH):  {:+.1}%   (paper: 87%)",
        hm_of_percent_class(&rows, TrafficClass::HH)
    );
    println!(
        "HM speedup (LL):  {:+.1}%   (paper: low, < 30% per benchmark)",
        hm_of_percent_class(&rows, TrafficClass::LL)
    );
}
