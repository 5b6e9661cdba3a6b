//! Table VI: area estimates (65 nm) of every design point, from the
//! ORION-calibrated analytical model.

use tenoc_bench::{header, Preset};
use tenoc_core::area::{AreaModel, RouterArea};
use tenoc_noc::RouterKind;

fn main() {
    header("Table VI", "area estimations (mm^2), overheads relative to the GTX280 die");
    println!(
        "{:>16} {:>9} {:>8} {:>8} {:>9} {:>10} {:>9} {:>9} {:>10}",
        "config",
        "xbar",
        "buffer",
        "alloc",
        "1 router",
        "router sum",
        "link sum",
        "% NoC",
        "total chip"
    );

    let rows: Vec<(&str, Vec<RouterArea>)> = vec![
        ("Baseline", vec![RouterArea::new(RouterKind::Full, 16, 2, 8, 1, 1)]),
        ("2x-BW", vec![RouterArea::new(RouterKind::Full, 32, 2, 8, 1, 1)]),
        (
            "CP-CR",
            vec![
                RouterArea::new(RouterKind::Half, 16, 4, 8, 1, 1),
                RouterArea::new(RouterKind::Full, 16, 4, 8, 1, 1),
            ],
        ),
        (
            "Double CP-CR",
            vec![
                RouterArea::new(RouterKind::Full, 8, 2, 8, 1, 1),
                RouterArea::new(RouterKind::Half, 8, 2, 8, 1, 1),
            ],
        ),
        (
            "Double CP-CR 2P",
            vec![
                RouterArea::new(RouterKind::Full, 8, 2, 8, 1, 1),
                RouterArea::new(RouterKind::Half, 8, 2, 8, 1, 1),
                RouterArea::new(RouterKind::Half, 8, 2, 8, 2, 1),
            ],
        ),
    ];
    let presets = [
        Preset::BaselineTbDor,
        Preset::TbDor2xBw,
        Preset::CpCr4vc,
        Preset::DoubleCpCr,
        Preset::ThroughputEffective,
    ];
    for ((name, routers), preset) in rows.iter().zip(presets) {
        let chip = AreaModel::chip_area(&preset.icnt(6));
        let fmt3 = |f: fn(&RouterArea) -> f64| {
            routers.iter().map(|r| format!("{:.2}", f(r))).collect::<Vec<_>>().join("/")
        };
        println!(
            "{name:>16} {:>9} {:>8} {:>8} {:>9} {:>10.2} {:>9.2} {:>8.2}% {:>10.1}",
            fmt3(|r| r.crossbar),
            fmt3(|r| r.buffer),
            fmt3(|r| r.allocator),
            routers.iter().map(|r| format!("{:.2}", r.total())).collect::<Vec<_>>().join("/"),
            chip.routers,
            chip.links,
            chip.noc_overhead() * 100.0,
            chip.total(),
        );
    }
    println!("\npaper Table VI reference (router sum / total chip):");
    println!("  Baseline 69.00 / 576.0   2x-BW 263.0 / 790.9   CP-CR 59.20 / 566.2");
    println!("  Double CP-CR 29.74 / 536.7   Double CP-CR 2P 30.44 / 537.4");
    println!(
        "half-router / full-router area ratio: {:.2} (paper: 0.56)",
        RouterArea::new(RouterKind::Half, 16, 4, 8, 1, 1).total()
            / RouterArea::new(RouterKind::Full, 16, 4, 8, 1, 1).total()
    );
}
