//! Figure 20: the combined throughput-effective design (checkerboard
//! placement + routing + double network + 2 injection ports at MCs)
//! versus the baseline top-bottom DOR mesh.

use tenoc_bench::{
    header, hm_of_percent, hm_of_percent_class, print_speedup_rows, run_suites_par,
    speedups_percent, Preset,
};
use tenoc_core::area::AreaModel;
use tenoc_workloads::TrafficClass;

fn main() {
    let scale = header("Figure 20", "combined throughput-effective design vs baseline");
    let [base, te, single]: [_; 3] = run_suites_par(
        &[Preset::BaselineTbDor, Preset::ThroughputEffective, Preset::CpCr2pSingle],
        scale,
    )
    .try_into()
    .unwrap();
    let rows = speedups_percent(&base, &te);
    print_speedup_rows(&rows);
    println!("\nHM speedup: {:+.1}% (paper: 17%)", hm_of_percent(&rows));
    println!("HM speedup (HH): {:+.1}%", hm_of_percent_class(&rows, TrafficClass::HH));

    // Throughput-effectiveness improvement (the 25.4% headline): the
    // paper's arithmetic is HM speedup x chip-area ratio
    // (1.17 x 576/537 = 1.254).
    let base_area = AreaModel::chip_area(&Preset::BaselineTbDor.icnt(6));
    let te_area = AreaModel::chip_area(&Preset::ThroughputEffective.icnt(6));
    let hm_ratio = 1.0 + tenoc_bench::hm_of_percent(&rows) / 100.0;
    let improvement = hm_ratio * base_area.total() / te_area.total();
    println!(
        "\nthroughput-effectiveness: HM speedup {:.3} x area ratio {:.3} = {:+.1}%",
        hm_ratio,
        base_area.total() / te_area.total(),
        (improvement - 1.0) * 100.0
    );
    println!("paper: +25.4% IPC/mm^2");

    // The same combination without channel slicing: in this simulator's
    // stricter bandwidth accounting, the 50/50 slice caps saturated reply
    // throughput below the single network (see EXPERIMENTS.md), so the
    // single-network combination better isolates the CP+CR+2P gains.
    let rows_s = speedups_percent(&base, &single);
    let s_area = AreaModel::chip_area(&Preset::CpCr2pSingle.icnt(6));
    let s_ratio = 1.0 + tenoc_bench::hm_of_percent(&rows_s) / 100.0;
    println!(
        "\nCP-CR-2P on the single 16B network: HM speedup {:+.1}%, IPC/mm^2 {:+.1}%",
        tenoc_bench::hm_of_percent(&rows_s),
        (s_ratio * base_area.total() / s_area.total() - 1.0) * 100.0
    );
}
