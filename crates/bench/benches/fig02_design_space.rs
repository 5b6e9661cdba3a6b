//! Figure 2: the throughput-effective design space.
//!
//! For each design point, prints average application throughput (IPC),
//! chip area, inverse area (the paper's y-axis) and throughput-
//! effectiveness (IPC/mm²), plus the improvement over the balanced
//! baseline mesh.

use tenoc_bench::{header, run_suites_par, Preset};
use tenoc_core::area::{throughput_effectiveness, AreaModel};
use tenoc_core::arithmetic_mean;

fn main() {
    let scale = header("Figure 2", "throughput-effective design space (IPC vs 1/mm^2)");
    let points = [
        ("Balanced Mesh (Sec. III)", Preset::BaselineTbDor),
        ("2x BW", Preset::TbDor2xBw),
        ("Thr. Eff. (Section IV)", Preset::ThroughputEffective),
        ("Thr. Eff. (single net)", Preset::CpCr2pSingle),
        ("Ideal NoC", Preset::Perfect),
    ];
    let presets: Vec<Preset> = points.iter().map(|(_, p)| *p).collect();
    let suites = run_suites_par(&presets, scale);
    let mut rows = Vec::new();
    for ((label, preset), results) in points.iter().zip(&suites) {
        let avg_ipc = arithmetic_mean(results.iter().map(|r| r.metrics.ipc));
        let area = AreaModel::chip_area(&preset.icnt(6));
        rows.push((*label, avg_ipc, area));
    }
    let base_te = throughput_effectiveness(rows[0].1, &rows[0].2);
    println!(
        "{:>26} {:>10} {:>12} {:>12} {:>12} {:>9}",
        "design", "avg IPC", "area [mm^2]", "1/mm^2", "IPC/mm^2", "vs base"
    );
    for (label, ipc, area) in &rows {
        let te = throughput_effectiveness(*ipc, area);
        println!(
            "{label:>26} {ipc:>10.1} {:>12.1} {:>12.6} {:>12.4} {:>+8.1}%",
            area.total(),
            1.0 / area.total(),
            te,
            (te / base_te - 1.0) * 100.0,
        );
    }
    println!("\npaper: Thr.Eff. improves IPC/mm^2 by 25.4% over the balanced mesh");
}
