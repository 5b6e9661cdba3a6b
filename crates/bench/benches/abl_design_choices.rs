//! Ablation studies for the design choices DESIGN.md calls out, beyond
//! what the paper itself sweeps:
//!
//! 1. DRAM scheduling: FR-FCFS versus strict FCFS.
//! 2. VC buffer depth at the baseline mesh (4 / 8 / 16 flits).
//! 3. Half-router pipeline depth (3-stage, as modeled, vs. a conservative
//!    4-stage half-router) — the paper notes "the performance impact of
//!    one less stage was negligible".
//! 4. Warp scheduler: round-robin versus greedy-then-oldest.

use tenoc_bench::{experiments, header, Preset};
use tenoc_core::system::{IcntConfig, SystemConfig};
use tenoc_dram::SchedulingPolicy;
use tenoc_noc::NetworkConfig;
use tenoc_workloads::by_name;

const NAMES: [&str; 4] = ["HIS", "MM", "KM", "RD"];

/// One A-versus-B section: both IPCs per benchmark and A's gain over B
/// (through `speedup_over`, so a B that retired nothing prints NaN, not
/// `inf`).
fn versus(title: &str, head: [&str; 3], scale: f64, a: &SystemConfig, b: &SystemConfig) {
    println!("\n-- {title} --");
    println!("{:>6} {:>12} {:>12} {:>10}", "bench", head[0], head[1], head[2]);
    for name in NAMES {
        let spec = by_name(name).unwrap();
        let [a, b] = [a, b].map(|c| experiments::run_with_system_config(c.clone(), &spec, scale));
        let gain = a.speedup_over(&b).map_or(f64::NAN, |ratio| (ratio - 1.0) * 100.0);
        println!("{name:>6} {:>12.1} {:>12.1} {gain:>+9.1}%", a.ipc, b.ipc);
    }
}

fn main() {
    let scale =
        header("Ablations", "design-choice sensitivity studies (not in the paper's figures)");
    let baseline = SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(6));

    let mut fcfs = baseline.clone();
    fcfs.mc.policy = SchedulingPolicy::Fcfs;
    let head = ["FR-FCFS IPC", "FCFS IPC", "FR gain"];
    versus("DRAM scheduling policy (baseline mesh)", head, scale, &baseline, &fcfs);

    println!("\n-- VC buffer depth (baseline mesh, flits per VC) --");
    println!("{:>6} {:>10} {:>10} {:>10}", "bench", "depth 4", "depth 8", "depth 16");
    for name in NAMES {
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

    let mut deep = NetworkConfig::checkerboard_mesh(6);
    deep.half_router_stages = 4;
    let deep = SystemConfig::with_icnt(IcntConfig::Mesh(deep));
    let shallow = SystemConfig::with_icnt(Preset::CpCr4vc.icnt(6));
    let head = ["3-stage IPC", "4-stage IPC", "delta"];
    versus("half-router pipeline depth (CP-CR mesh)", head, scale, &shallow, &deep);
    println!("\npaper note: \"we found the performance impact of one less stage was negligible\"");

    let mut gto = baseline.clone();
    gto.core.scheduler = tenoc_simt::SchedulerPolicy::GreedyThenOldest;
    versus(
        "warp scheduler (baseline mesh)",
        ["RR IPC", "GTO IPC", "RR gain"],
        scale,
        &baseline,
        &gto,
    );
}
