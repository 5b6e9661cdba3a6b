//! Open-loop latency/throughput sweep under many-to-few-to-many traffic,
//! comparing the baseline mesh with the checkerboard + multi-port design
//! (a small version of the paper's Figure 21).
//!
//! Run with: `cargo run --release --example open_loop_latency`

use tenoc::noc::openloop::{latency_curve, OpenLoopConfig, TrafficPattern};
use tenoc::noc::{ArenaNetwork, Interconnect, NetworkConfig};

fn main() {
    let mut cp_cr_2p = NetworkConfig::checkerboard_mesh(6);
    cp_cr_2p.mc_inject_ports = 2;
    let configs = [
        ("TB-DOR (baseline)", NetworkConfig::baseline_mesh(6)),
        ("CP-CR-2P (thr.-eff.)", cp_cr_2p),
    ];
    let rates: Vec<f64> = (1..=10).map(|i| i as f64 * 0.012).collect();
    // Each curve stops at its first saturated point.
    let curves: Vec<_> = configs
        .iter()
        .map(|(_, net)| {
            let cfg = OpenLoopConfig {
                warmup: 2_000,
                measure: 5_000,
                drain: 10_000,
                ..OpenLoopConfig::new(net.clone(), 0.0, TrafficPattern::UniformRandom)
            };
            let build = || -> Box<dyn Interconnect> { Box::new(ArenaNetwork::new(net.clone())) };
            latency_curve(&cfg, rates.iter().copied(), build)
        })
        .collect();
    println!("open-loop many-to-few-to-many: 1-flit requests, 4-flit replies");
    println!("{:>6} {:>22} {:>22}", "rate", configs[0].0, configs[1].0);
    for (i, rate) in rates.iter().enumerate() {
        print!("{rate:>6.3}");
        for curve in &curves {
            match curve.get(i).filter(|r| !r.saturated()) {
                Some(r) => print!(" {:>17.1} cyc", r.avg_latency),
                None => print!(" {:>22}", "saturated"),
            }
        }
        println!();
    }
    println!("\nthe throughput-effective design saturates at a higher offered load");
}
