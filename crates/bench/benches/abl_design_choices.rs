//! Ablation studies for the design choices DESIGN.md calls out, beyond
//! what the paper itself sweeps:
//!
//! 1. DRAM scheduling: FR-FCFS versus strict FCFS.
//! 2. VC buffer depth at the baseline mesh (4 / 8 / 16 flits).
//! 3. Half-router pipeline depth (3-stage, as modeled, vs. a conservative
//!    4-stage half-router) — the paper notes "the performance impact of
//!    one less stage was negligible".

use tenoc_bench::{experiments, header, Preset};
use tenoc_core::system::{IcntConfig, SystemConfig};
use tenoc_dram::SchedulingPolicy;
use tenoc_noc::NetworkConfig;
use tenoc_workloads::by_name;

fn main() {
    let scale =
        header("Ablations", "design-choice sensitivity studies (not in the paper's figures)");
    let names = ["HIS", "MM", "KM", "RD"];

    println!("\n-- DRAM scheduling policy (baseline mesh) --");
    println!("{:>6} {:>12} {:>12} {:>10}", "bench", "FR-FCFS IPC", "FCFS IPC", "FR gain");
    for name in names {
        let spec = by_name(name).unwrap();
        let frf = experiments::run_benchmark(Preset::BaselineTbDor, &spec, scale);
        let mut cfg = SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(6));
        cfg.mc.policy = SchedulingPolicy::Fcfs;
        let fcfs = experiments::run_with_system_config(cfg, &spec, scale);
        println!(
            "{name:>6} {:>12.1} {:>12.1} {:>+9.1}%",
            frf.ipc,
            fcfs.ipc,
            (frf.ipc / fcfs.ipc - 1.0) * 100.0
        );
    }

    println!("\n-- VC buffer depth (baseline mesh, flits per VC) --");
    println!("{:>6} {:>10} {:>10} {:>10}", "bench", "depth 4", "depth 8", "depth 16");
    for name in names {
        let spec = by_name(name).unwrap();
        let mut row = format!("{name:>6}");
        for depth in [4usize, 8, 16] {
            let mut net = NetworkConfig::baseline_mesh(6);
            net.vc_depth = depth;
            let cfg = SystemConfig::with_icnt(IcntConfig::Mesh(net));
            let m = experiments::run_with_system_config(cfg, &spec, scale);
            row.push_str(&format!(" {:>10.1}", m.ipc));
        }
        println!("{row}");
    }

    println!("\n-- half-router pipeline depth (CP-CR mesh) --");
    println!("{:>6} {:>12} {:>12} {:>8}", "bench", "3-stage IPC", "4-stage IPC", "delta");
    for name in names {
        let spec = by_name(name).unwrap();
        let m3 = experiments::run_benchmark(Preset::CpCr4vc, &spec, scale);
        let mut net = NetworkConfig::checkerboard_mesh(6);
        net.half_router_stages = 4;
        let cfg = SystemConfig::with_icnt(IcntConfig::Mesh(net));
        let m4 = experiments::run_with_system_config(cfg, &spec, scale);
        println!(
            "{name:>6} {:>12.1} {:>12.1} {:>+7.1}%",
            m3.ipc,
            m4.ipc,
            (m3.ipc / m4.ipc - 1.0) * 100.0
        );
    }
    println!("\npaper note: \"we found the performance impact of one less stage was negligible\"");

    println!("\n-- warp scheduler (baseline mesh) --");
    println!("{:>6} {:>10} {:>10} {:>8}", "bench", "RR IPC", "GTO IPC", "RR gain");
    for name in names {
        let spec = by_name(name).unwrap();
        let rr = experiments::run_benchmark(Preset::BaselineTbDor, &spec, scale);
        let mut cfg = SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(6));
        cfg.core.scheduler = tenoc_simt::SchedulerPolicy::GreedyThenOldest;
        let gto = experiments::run_with_system_config(cfg, &spec, scale);
        println!(
            "{name:>6} {:>10.1} {:>10.1} {:>+7.1}%",
            rr.ipc,
            gto.ipc,
            (rr.ipc / gto.ipc - 1.0) * 100.0
        );
    }
}
