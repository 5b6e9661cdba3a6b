//! Visualize per-link utilization under many-to-few-to-many traffic: an
//! ASCII heatmap showing how the top-bottom MC placement concentrates
//! reply traffic around the edge rows — the congestion that the staggered
//! checkerboard placement dissolves.
//!
//! Run with: `cargo run --release --example link_heatmap`

use tenoc::noc::openloop::{OpenLoopConfig, OpenLoopProbe, TrafficPattern};
use tenoc::noc::{ArenaNetwork, Interconnect, Mesh, NetworkConfig, Placement};

/// Offers uniform request/reply traffic for `cycles` (no warm-up or
/// drain window) and returns the finished probe, which holds the network.
fn drive(cfg: &NetworkConfig, rate: f64, cycles: u64) -> OpenLoopProbe<ArenaNetwork> {
    let probe_cfg = OpenLoopConfig {
        warmup: 0,
        measure: cycles,
        drain: 0,
        ..OpenLoopConfig::new(cfg.clone(), rate, TrafficPattern::UniformRandom)
    };
    let mut probe = OpenLoopProbe::new(probe_cfg, ArenaNetwork::new(cfg.clone()));
    while !probe.done() {
        probe.tick();
    }
    probe
}

fn heatmap(title: &str, cfg: &NetworkConfig, net: &dyn Interconnect) {
    let k = cfg.mesh.radix();
    let cycles = net.cycle().max(1) as f64;
    println!("\n{title}");
    println!("(per-node: max utilization over its outgoing links; # > 60%, * > 30%, + > 10%, . <= 10%, M = memory controller)");
    for y in 0..k {
        let mut row = String::new();
        for x in 0..k {
            let node = y * k + x;
            let max_util = net
                .link_loads()
                .iter()
                .filter(|&&(n, _, _)| n == node)
                .map(|&(_, _, f)| f as f64 / cycles)
                .fold(0.0f64, f64::max);
            let c = if cfg.mc_nodes.contains(&node) {
                'M'
            } else if max_util > 0.6 {
                '#'
            } else if max_util > 0.3 {
                '*'
            } else if max_util > 0.1 {
                '+'
            } else {
                '.'
            };
            row.push(c);
            row.push(' ');
        }
        println!("  {row}");
    }
    // The busiest individual links.
    let mut loads = net.link_loads();
    loads.sort_by_key(|&(_, _, f)| std::cmp::Reverse(f));
    println!("  busiest links:");
    for &(node, dir, flits) in loads.iter().take(3) {
        let c = cfg.mesh.coord(node);
        println!("    {c} -> {dir}: {:.2} flits/cycle", flits as f64 / cycles);
    }
}

fn main() {
    let rate = 0.05;
    let cycles = 30_000;

    let tb = NetworkConfig::baseline_mesh(6);
    heatmap("top-bottom MC placement (paper Figure 3)", &tb, drive(&tb, rate, cycles).network());

    let cp = {
        let base = NetworkConfig::baseline_mesh(6);
        let mesh = Mesh::all_full(6);
        let mc_nodes = Mesh::checkerboard(6).mcs(Placement::Checkerboard, 8);
        NetworkConfig { mesh, mc_nodes, ..base }
    };
    let title = "staggered checkerboard MC placement (paper Figure 12)";
    heatmap(title, &cp, drive(&cp, rate, cycles).network());
}
