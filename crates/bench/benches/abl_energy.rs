//! Energy extension: throughput-effectiveness generalized to power
//! (IPC/W), using the ORION-class energy model — an extension beyond the
//! paper's area-only analysis.

use tenoc_bench::{header, jobs, Preset};
use tenoc_core::area::AreaModel;
use tenoc_core::{PowerModel, DEFAULT_SEED};
use tenoc_harness::{annotate, run_grid, SeedMode, SweepGrid};

fn main() {
    let scale =
        header("Energy extension", "NoC power of the paper's design points (IPC/W methodology)");
    let names = ["HIS", "MM", "KM", "RD"];
    let presets = [Preset::BaselineTbDor, Preset::TbDor2xBw, Preset::CpCr2pSingle];
    let grid = SweepGrid::new(presets.to_vec(), names.map(String::from).to_vec(), scale)
        .with_seed_mode(SeedMode::Fixed(DEFAULT_SEED));
    let results = run_grid(&grid, jobs());
    println!(
        "{:>6} {:>18} {:>10} {:>10} {:>10} {:>12}",
        "bench", "design", "IPC", "dyn [W]", "leak [W]", "IPC per W"
    );
    for (b, name) in names.iter().enumerate() {
        for (p, preset) in presets.iter().enumerate() {
            let record = annotate(&results[p * names.len() + b]);
            let (ipc, dynamic) = (record.metrics.ipc, record.noc_dynamic_power_w);
            let leak = PowerModel::leakage_power_w(&AreaModel::chip_area(&preset.icnt(6)));
            println!(
                "{name:>6} {:>18} {ipc:>10.1} {dynamic:>10.2} {leak:>10.2} {:>12.1}",
                record.preset,
                ipc / (dynamic + leak).max(1e-9)
            );
        }
    }
    println!("\nthe 2x-bandwidth mesh pays quadratic crossbar energy for its speedup;");
    println!("the checkerboard design improves IPC per NoC-watt as well as per mm^2");
}
