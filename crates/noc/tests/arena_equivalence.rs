//! The arena engine must be observationally identical to the per-router
//! oracle on *every* supported configuration, not just the presets the
//! experiments use: random legal configs, random seeds, random traffic.
//! A solo [`ArenaNetwork`] is compared against a solo oracle [`Network`]
//! fed the exact same traffic — same ejection sequence, same flits in
//! flight after every tick, same cycle count, same [`NetStats`], and,
//! when telemetry is armed, the same [`TelemetryReport`] field for field.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tenoc_noc::{
    ArenaNetwork, ArmSpec, Interconnect, NetStats, Network, NetworkConfig, Packet, PacketClass,
    RoutingKind, TelemetryConfig, TelemetryReport, VcLayout,
};

/// One observed ejection: (cycle, node, packet id, tag).
type Ejection = (u64, usize, u64, u64);

/// A random legal configuration the arena engine supports. Covers every
/// fabric and routing function production simulates — full-router DOR
/// mesh, checkerboard half-router, dateline torus, concentrated mesh, and
/// O1Turn on phase-split full meshes (the tuner's `o1turn` candidates) —
/// each either whole or as one channel slice of a double network
/// (single-class VCs, doubled terminal ports), with multi-port MC
/// routers and link delays from 2 to 5 cycles: mixed full/half-router
/// pipelines put one router's flits in different delivery-wheel slots
/// than its neighbor's.
fn legal_cfg() -> impl Strategy<Value = NetworkConfig> {
    let fabric = (
        prop::sample::select(vec![4usize, 6]),
        0usize..5,
        prop::sample::select(vec![2usize, 4, 8]),
        any::<bool>(),
        prop::sample::select(vec![1usize, 2]),
        prop::sample::select(vec![1usize, 2]),
        any::<u64>(),
    );
    let timing = (1u32..=3, 1u32..=5, 1u32..=3);
    (fabric, timing).prop_map(
        |((k, family, depth, sliced, mc_inj, mc_ej, seed), (link, stages, half_stages))| {
            let mut cfg = match family {
                0 => NetworkConfig::baseline_mesh(k),
                1 => NetworkConfig::checkerboard_mesh(k),
                2 => NetworkConfig::baseline_torus(k),
                3 => NetworkConfig::concentrated_mesh(k, 2),
                _ => NetworkConfig {
                    routing: RoutingKind::O1Turn,
                    vcs: VcLayout::new(4, 2, true),
                    ..NetworkConfig::baseline_mesh(k)
                },
            };
            cfg.vc_depth = depth;
            cfg.link_latency = link;
            cfg.router_stages = stages;
            cfg.half_router_stages = half_stages;
            cfg.mc_inject_ports = mc_inj;
            cfg.mc_eject_ports = mc_ej;
            cfg.seed = seed;
            if sliced {
                cfg = cfg.slice();
            }
            cfg
        },
    )
}

/// A random telemetry arming: a flight ring small enough to overwrite
/// (or disabled, or roomy), with and without node / class filters. Node
/// ids stay below 16 so they exist on both mesh sizes.
fn telemetry_cfg() -> impl Strategy<Value = TelemetryConfig> {
    (
        prop::sample::select(vec![0usize, 8, 4096]),
        prop::option::of(0usize..16),
        prop::option::of(prop::sample::select(vec![PacketClass::Request, PacketClass::Reply])),
    )
        .prop_map(|(flight_capacity, node, class)| TelemetryConfig {
            flight_capacity,
            arm: ArmSpec { node, class },
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

/// What one engine showed over a run: every ejection, the flits in
/// flight after each tick, the final statistics and telemetry reports.
type Observed = (Vec<Ejection>, Vec<usize>, NetStats, Vec<TelemetryReport>);

/// Runs `cycles` of the offered traffic through one engine (telemetry
/// armed first if asked), recording every ejection and the in-flight
/// count after every tick.
fn drive<N: Interconnect>(
    mut net: N,
    cfg: &NetworkConfig,
    traffic_seed: u64,
    cycles: u64,
    telemetry: Option<TelemetryConfig>,
) -> Observed {
    if let Some(tcfg) = telemetry {
        net.enable_telemetry(tcfg);
    }
    let mut rng = SmallRng::seed_from_u64(traffic_seed);
    let mut tag = 0u64;
    let mut trace = Vec::new();
    let mut in_flight = Vec::with_capacity(cycles as usize);
    for c in 0..cycles {
        for (src, p) in offered(cfg, &mut rng, &mut tag) {
            let _ = net.try_inject(src, p);
        }
        net.tick();
        in_flight.push(net.in_flight());
        for node in 0..cfg.mesh.len() {
            while let Some(e) = net.pop(node) {
                trace.push((c, node, e.header.id, e.header.tag));
            }
        }
    }
    (trace, in_flight, net.stats(), net.telemetry_reports())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    // Random legal configs and traffic seeds: the arena ejects the same
    // packets at the same cycles, holds the same flits in flight after
    // every tick, and ends with the same statistics as the oracle fed
    // identical traffic — unarmed, and with telemetry armed, where the
    // two reports (histograms, per-VC link counts, heatmap, occupancies,
    // flight events in recorded order, drop count) must also be equal.
    #[test]
    fn arena_matches_the_oracle(
        cfg in legal_cfg(),
        traffic_seed in any::<u64>(),
        telemetry in prop::option::of(telemetry_cfg()),
    ) {
        prop_assert!(cfg.validate().is_ok() && ArenaNetwork::supports(&cfg));
        let cycles = 100u64;
        let (oracle_trace, oracle_in_flight, oracle_stats, oracle_reports) =
            drive(Network::new(cfg.clone()), &cfg, traffic_seed, cycles, telemetry);
        let (arena_trace, arena_in_flight, arena_stats, arena_reports) =
            drive(ArenaNetwork::new(cfg.clone()), &cfg, traffic_seed, cycles, telemetry);
        prop_assert_eq!(arena_reports.len(), usize::from(telemetry.is_some()));
        prop_assert_eq!(arena_reports, oracle_reports, "telemetry reports diverged");
        prop_assert!(!oracle_trace.is_empty(), "the random traffic should exercise the fabric");
        prop_assert_eq!(arena_trace, oracle_trace, "ejection trace diverged");
        prop_assert_eq!(arena_in_flight, oracle_in_flight, "in-flight counts diverged");
        prop_assert_eq!(arena_stats.cycles, cycles);
        prop_assert_eq!(arena_stats, oracle_stats, "NetStats diverged");
    }
}
