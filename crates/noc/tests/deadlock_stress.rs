//! Deadlock-freedom stress tests: saturate the network with adversarial
//! bidirectional traffic and tiny buffers, then require complete drainage.
//! A routing- or protocol-deadlock would leave flits stuck in flight.
//! Networks come from `build_mesh` / `build_double`, so the engine under
//! stress is the one production runs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tenoc_noc::{
    build_double, build_mesh, Interconnect, NetworkConfig, Packet, RoutingKind, VcLayout,
};

/// Drives `packets` random request/reply pairs through `net` and asserts
/// every packet drains.
fn stress(mut net: Box<dyn Interconnect>, cfg: &NetworkConfig, packets: usize, seed: u64) {
    let mcs = cfg.mc_nodes.clone();
    let cores: Vec<usize> = (0..cfg.mesh.len()).filter(|n| !mcs.contains(n)).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pending: Vec<Packet> = (0..packets)
        .map(|i| {
            let core = cores[rng.gen_range(0..cores.len())];
            let mc = mcs[rng.gen_range(0..mcs.len())];
            if rng.gen_bool(0.4) {
                // Requests: mix of reads and large writes.
                let bytes = if rng.gen_bool(0.7) { 8 } else { 64 };
                Packet::request(core, mc, bytes, i as u64)
            } else {
                Packet::reply(mc, core, 64, i as u64)
            }
        })
        .collect();
    let mut delivered = 0usize;
    let mut last_progress = 0u64;
    let mut cycle = 0u64;
    while delivered < packets {
        pending.retain(|&p| net.try_inject(p.header.src, p).is_err());
        net.step();
        cycle += 1;
        for node in 0..cfg.mesh.len() {
            while net.pop(node).is_some() {
                delivered += 1;
                last_progress = cycle;
            }
        }
        assert!(
            cycle - last_progress < 50_000,
            "no progress for 50k cycles at {delivered}/{packets} delivered — deadlock"
        );
        assert!(cycle < 2_000_000, "runaway stress test");
    }
    assert_eq!(net.in_flight(), 0);
}

/// Checkerboard routing with minimal buffering must stay deadlock-free:
/// phase-disjoint VCs with the one-way YX -> XY order break all cycles.
#[test]
fn checkerboard_tiny_buffers_no_deadlock() {
    let mut cfg = NetworkConfig::checkerboard_mesh(6);
    cfg.vc_depth = 2; // minimal double-buffering
    stress(build_mesh(cfg.clone()), &cfg, 800, 11);
}

#[test]
fn dor_tiny_buffers_no_deadlock() {
    let mut cfg = NetworkConfig::baseline_mesh(6);
    cfg.vc_depth = 2;
    stress(build_mesh(cfg.clone()), &cfg, 800, 22);
}

#[test]
fn double_network_heavy_load_no_deadlock() {
    let cfg = NetworkConfig::checkerboard_mesh(6);
    stress(build_double(&cfg), &cfg, 1200, 33);
}

#[test]
fn o1turn_no_deadlock_on_full_mesh() {
    let mut cfg = NetworkConfig::baseline_mesh(6);
    cfg.routing = RoutingKind::O1Turn;
    cfg.vcs = VcLayout::new(4, 2, true);
    cfg.vc_depth = 2;
    stress(build_mesh(cfg.clone()), &cfg, 800, 44);
}

/// Multi-port MC routers under the same stress.
#[test]
fn multiport_no_deadlock() {
    let mut cfg = NetworkConfig::checkerboard_mesh(6);
    cfg.mc_inject_ports = 2;
    cfg.mc_eject_ports = 2;
    stress(build_mesh(cfg.clone()), &cfg, 1000, 66);
}

/// Aggressive single-cycle routers under stress.
#[test]
fn one_cycle_routers_no_deadlock() {
    let mut cfg = NetworkConfig::baseline_mesh(6);
    cfg.router_stages = 1;
    cfg.vc_depth = 2;
    stress(build_mesh(cfg.clone()), &cfg, 800, 77);
}
