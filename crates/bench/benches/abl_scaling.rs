//! Scaling study (the paper's motivation): transistor density grows core
//! counts faster than pins grow MC counts, deepening the many-to-few
//! imbalance. Compare 28 cores (the paper's chip) against 56-core futures
//! built two ways — concentration (2 cores per terminal on the same 6x6
//! mesh) and a bigger 8x8 mesh — all with 8 MCs.

use tenoc_bench::{header, Preset};
use tenoc_core::system::{IcntConfig, System, SystemConfig};
use tenoc_noc::{Mesh, NetworkConfig, Placement};
use tenoc_workloads::by_name;

fn eight_by_eight() -> NetworkConfig {
    let base = NetworkConfig::baseline_mesh(8);
    // Keep 8 MCs as pins stay scarce.
    let mesh = Mesh::all_full(8);
    let mc_nodes = mesh.top_bottom_mcs(8);
    NetworkConfig { mesh, mc_nodes, ..base }
}

fn checkerboard_8x8() -> NetworkConfig {
    let base = NetworkConfig::checkerboard_mesh(8);
    let mc_nodes = Mesh::checkerboard(8).mcs(Placement::Checkerboard, 8);
    NetworkConfig { mc_nodes, ..base }
}

fn main() {
    let scale = header("Scaling study", "28 vs 56 cores over 8 MCs (concentration vs bigger mesh)");
    println!(
        "{:>6} {:>26} {:>7} {:>9} {:>11} {:>9}",
        "bench", "configuration", "cores", "IPC", "IPC/core", "MC stall"
    );
    for name in ["MM", "KM", "RD"] {
        let spec = by_name(name).unwrap().scaled(scale);
        let row = |label: &str, cores: usize, cfg: SystemConfig| {
            let mut sys = System::new(cfg, &spec);
            let m = sys.run();
            println!(
                "{name:>6} {label:>26} {cores:>7} {:>9.1} {:>11.2} {:>8.0}%",
                m.ipc,
                m.ipc / cores as f64,
                m.mc_stall_fraction * 100.0
            );
        };
        row("6x6 mesh (paper)", 28, SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(6)));
        let mut conc = SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(6));
        conc.cores_per_node = 2;
        row("6x6 mesh, 2x concentrated", 56, conc);
        row("8x8 mesh", 56, SystemConfig::with_icnt(IcntConfig::Mesh(eight_by_eight())));
        row(
            "8x8 checkerboard CP-CR",
            56,
            SystemConfig::with_icnt(IcntConfig::Mesh(checkerboard_8x8())),
        );
    }
    println!("\nwith pins fixed at 8 MCs, doubling cores mostly deepens the");
    println!("many-to-few bottleneck — per-core throughput falls, and the");
    println!("checkerboard organization keeps paying for memory-bound kernels");
}
