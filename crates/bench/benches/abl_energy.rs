//! Energy extension: throughput-effectiveness generalized to power
//! (IPC/W), using the ORION-class energy model — an extension beyond the
//! paper's area-only analysis.

use tenoc_bench::{experiments, header, Preset};
use tenoc_core::area::AreaModel;
use tenoc_core::system::IcntConfig;
use tenoc_core::PowerModel;
use tenoc_workloads::by_name;

fn main() {
    let scale =
        header("Energy extension", "NoC power of the paper's design points (IPC/W methodology)");
    let names = ["HIS", "MM", "KM", "RD"];
    println!(
        "{:>6} {:>18} {:>10} {:>10} {:>10} {:>12}",
        "bench", "design", "IPC", "dyn [W]", "leak [W]", "IPC per W"
    );
    for name in names {
        let spec = by_name(name).unwrap();
        for preset in [Preset::BaselineTbDor, Preset::TbDor2xBw, Preset::CpCr2pSingle] {
            let m = experiments::run_benchmark(preset, &spec, scale);
            let icnt = preset.icnt(6);
            let net = icnt.net();
            let seconds = m.icnt_cycles as f64 / 602e6;
            let dynamic = PowerModel::dynamic_power_w(net, m.flit_hops, seconds);
            let leak = PowerModel::leakage_power_w(&AreaModel::chip_area(&icnt));
            let total = dynamic + leak;
            println!(
                "{name:>6} {:>18} {:>10.1} {:>10.2} {:>10.2} {:>12.1}",
                preset.label(),
                m.ipc,
                dynamic,
                leak,
                m.ipc / total.max(1e-9)
            );
            let _ = matches!(icnt, IcntConfig::Mesh(_));
        }
    }
    println!("\nthe 2x-bandwidth mesh pays quadratic crossbar energy for its speedup;");
    println!("the checkerboard design improves IPC per NoC-watt as well as per mm^2");
}
