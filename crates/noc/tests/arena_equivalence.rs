//! The arena engine must be observationally identical to the per-router
//! oracle on *every* supported configuration, not just the presets the
//! experiments use: random legal configs, random seeds, random traffic.
//! A solo [`ArenaNetwork`] is compared against a solo oracle [`Network`]
//! fed the exact same traffic — same ejection sequence, same cycle
//! count, same [`NetStats`].

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tenoc_noc::{
    AllocatorKind, ArenaNetwork, Interconnect, NetStats, Network, NetworkConfig, Packet,
};

/// One observed ejection: (cycle, node, packet id, tag).
type Ejection = (u64, usize, u64, u64);

/// A random legal configuration the arena engine supports. Covers both
/// mesh families (full-router DOR and checkerboard half-router), both
/// allocator organizations, multi-port MC routers, and the depth /
/// pipeline ranges the paper's design space sweeps.
fn legal_cfg() -> impl Strategy<Value = NetworkConfig> {
    (
        prop::sample::select(vec![4usize, 6]),
        any::<bool>(),
        prop::sample::select(vec![2usize, 4, 8]),
        prop::sample::select(vec![1u32, 4]),
        prop::sample::select(vec![AllocatorKind::InputFirst, AllocatorKind::OutputFirst]),
        prop::sample::select(vec![1usize, 2]),
        prop::sample::select(vec![1usize, 2]),
        any::<u64>(),
    )
        .prop_map(|(k, checker, depth, stages, alloc, mc_inj, mc_ej, seed)| {
            let mut cfg = if checker {
                NetworkConfig::checkerboard_mesh(k)
            } else {
                NetworkConfig::baseline_mesh(k)
            };
            cfg.vc_depth = depth;
            cfg.router_stages = stages;
            cfg.allocator = alloc;
            cfg.mc_inject_ports = mc_inj;
            cfg.mc_eject_ports = mc_ej;
            cfg.seed = seed;
            cfg
        })
}

/// Deterministic many-to-few traffic: core→MC requests and MC→core
/// replies (legal under every routing kind, including checkerboard's
/// placement restrictions). Returns this cycle's injection attempts.
fn offered(cfg: &NetworkConfig, rng: &mut SmallRng, tag: &mut u64) -> Vec<(usize, Packet)> {
    let cores: Vec<usize> = (0..cfg.mesh.len()).filter(|n| !cfg.mc_nodes.contains(n)).collect();
    let mut out = Vec::new();
    for _ in 0..2 {
        if rng.gen_bool(0.4) {
            let t = *tag;
            *tag += 1;
            let core = cores[rng.gen_range(0..cores.len())];
            let mc = cfg.mc_nodes[rng.gen_range(0..cfg.mc_nodes.len())];
            let p = if rng.gen_bool(0.5) {
                Packet::request(core, mc, 8, t)
            } else {
                Packet::reply(mc, core, 64, t)
            };
            out.push((p.header.src, p));
        }
    }
    out
}

/// Runs `cycles` of the offered traffic through one engine, recording
/// every ejection.
fn drive<N: Interconnect>(
    mut net: N,
    cfg: &NetworkConfig,
    traffic_seed: u64,
    cycles: u64,
) -> (Vec<Ejection>, NetStats) {
    let mut rng = SmallRng::seed_from_u64(traffic_seed);
    let mut tag = 0u64;
    let mut trace = Vec::new();
    for c in 0..cycles {
        for (src, p) in offered(cfg, &mut rng, &mut tag) {
            let _ = net.try_inject(src, p);
        }
        net.tick();
        for node in 0..cfg.mesh.len() {
            while let Some(e) = net.pop(node) {
                trace.push((c, node, e.header.id, e.header.tag));
            }
        }
    }
    (trace, net.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    // Random legal configs and traffic seeds: the arena ejects the same
    // packets at the same cycles with the same final statistics as the
    // oracle fed identical traffic.
    #[test]
    fn arena_matches_the_oracle(cfg in legal_cfg(), traffic_seed in any::<u64>()) {
        prop_assert!(cfg.validate().is_ok() && ArenaNetwork::supports(&cfg));
        let cycles = 100u64;
        let (oracle_trace, oracle_stats) =
            drive(Network::new(cfg.clone()), &cfg, traffic_seed, cycles);
        let (arena_trace, arena_stats) =
            drive(ArenaNetwork::new(cfg.clone()), &cfg, traffic_seed, cycles);
        prop_assert!(!oracle_trace.is_empty(), "the random traffic should exercise the fabric");
        prop_assert_eq!(arena_trace, oracle_trace, "ejection trace diverged");
        prop_assert_eq!(arena_stats.cycles, cycles);
        prop_assert_eq!(arena_stats, oracle_stats, "NetStats diverged");
    }
}
