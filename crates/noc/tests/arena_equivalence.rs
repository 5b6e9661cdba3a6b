//! The arena engine must be observationally identical to the per-router
//! oracle on *every* supported configuration, not just the presets the
//! experiments use: random legal configs, random seeds, random traffic.
//! A solo [`ArenaNetwork`] is compared against a solo oracle [`Network`]
//! fed the exact same traffic — same ejection sequence, same flits in
//! flight after every tick, same cycle count, same [`NetStats`], and,
//! when telemetry is armed, the same [`TelemetryReport`] field for field.
//! Each run drains the network and then offers a burst into it: the
//! oracle steps every router every cycle, so any router the arena puts
//! to sleep too early, or fails to wake, shows up as a diverged trace.

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
/// placement restrictions), two attempts per cycle each made with
/// probability `rate`. Returns this cycle's injection attempts.
fn offered(
    cfg: &NetworkConfig,
    rng: &mut SmallRng,
    rate: f64,
    tag: &mut u64,
) -> Vec<(usize, Packet)> {
    let cores: Vec<usize> = (0..cfg.mesh.len()).filter(|n| !cfg.mc_nodes.contains(n)).collect();
    let mut out = Vec::new();
    for _ in 0..2 {
        if rng.gen_bool(rate) {
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

/// Cycles of offered traffic before the first drain.
const OFFERED: u64 = 100;
/// Cycles of offered traffic in the burst into the drained network.
const BURST: u64 = 8;
/// Ticks a drain may take before the run fails.
const DRAIN_CAP: u64 = 2_000;

/// One engine under test, recording what it shows after every tick.
struct Run<N> {
    net: N,
    trace: Vec<Ejection>,
    in_flight: Vec<usize>,
}

impl<N: Interconnect> Run<N> {
    fn tick(&mut self, nodes: usize) {
        self.net.tick();
        self.in_flight.push(self.net.in_flight());
        let cycle = self.net.cycle();
        for node in 0..nodes {
            while let Some(e) = self.net.pop(node) {
                self.trace.push((cycle, node, e.header.id, e.header.tag));
            }
        }
    }

    /// Ticks until nothing is buffered, streaming or on a wire.
    fn drain(&mut self, nodes: usize) {
        let start = self.net.cycle();
        while self.net.in_flight() > 0 {
            assert!(
                self.net.cycle() - start < DRAIN_CAP,
                "{} flits still in flight {DRAIN_CAP} cycles into a drain",
                self.net.in_flight()
            );
            self.tick(nodes);
        }
    }
}

/// Runs one engine (telemetry armed first if asked) through
/// phases: [`OFFERED`] cycles of traffic at `rate`, a drain, a pause of
/// `gap` idle cycles, a [`BURST`] of traffic into the drained network,
/// and a final drain. Records every ejection and the in-flight count
/// after every tick.
fn drive<N: Interconnect>(
    mut net: N,
    cfg: &NetworkConfig,
    traffic_seed: u64,
    rate: f64,
    gap: u64,
    telemetry: Option<TelemetryConfig>,
) -> Observed {
    if let Some(tcfg) = telemetry {
        net.enable_telemetry(tcfg);
    }
    let nodes = cfg.mesh.len();
    let mut rng = SmallRng::seed_from_u64(traffic_seed);
    let mut tag = 0u64;
    let mut run = Run { net, trace: Vec::new(), in_flight: Vec::new() };
    let mut offer = |run: &mut Run<N>, cycles: u64| {
        for _ in 0..cycles {
            for (src, p) in offered(cfg, &mut rng, rate, &mut tag) {
                let _ = run.net.try_inject(src, p);
            }
            run.tick(nodes);
        }
    };
    offer(&mut run, OFFERED);
    run.drain(nodes);
    for _ in 0..gap {
        run.tick(nodes);
    }
    offer(&mut run, BURST);
    run.drain(nodes);
    (run.trace, run.in_flight, run.net.stats(), run.net.telemetry_reports())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    // Random legal configs, offered rates and traffic seeds: over the
    // offered window, the drain, the burst into the drained network and
    // the final drain, the arena ejects the same packets at the same
    // cycles, holds the same flits in flight after every tick, and ends
    // with the same statistics as the oracle fed identical traffic —
    // unarmed, and with telemetry armed, where the two reports
    // (histograms, per-VC link counts, heatmap, occupancies, flight
    // events in recorded order, drop count) must also be equal.
    #[test]
    fn arena_matches_the_oracle(
        cfg in legal_cfg(),
        traffic_seed in any::<u64>(),
        rate in 0.05f64..0.6,
        gap in 0u64..16,
        telemetry in prop::option::of(telemetry_cfg()),
    ) {
        prop_assert!(cfg.validate().is_ok() && ArenaNetwork::supports(&cfg));
        let (oracle_trace, oracle_in_flight, oracle_stats, oracle_reports) =
            drive(Network::new(cfg.clone()), &cfg, traffic_seed, rate, gap, telemetry);
        let (arena_trace, arena_in_flight, arena_stats, arena_reports) =
            drive(ArenaNetwork::new(cfg.clone()), &cfg, traffic_seed, rate, gap, telemetry);
        prop_assert_eq!(arena_reports.len(), usize::from(telemetry.is_some()));
        prop_assert_eq!(arena_reports, oracle_reports, "telemetry reports diverged");
        prop_assert!(!oracle_trace.is_empty(), "the random traffic should exercise the fabric");
        prop_assert_eq!(arena_trace, oracle_trace, "ejection trace diverged");
        prop_assert_eq!(arena_in_flight, oracle_in_flight, "in-flight counts diverged");
        prop_assert_eq!(oracle_in_flight.last(), Some(&0), "both runs end drained");
        prop_assert_eq!(arena_stats, oracle_stats, "NetStats diverged");
    }
}
