//! The open-loop probe's ejection bound is sound. The tuner's bounded
//! probes (`run_open_loop_unless`) stop as soon as
//! `OpenLoopProbe::ejection_bytes_bound` is at or below the rate they
//! must beat, which changes no decision only if, at every cycle of a run,
//! the bound is at least the run's final `ejection_bytes_rate`.
//!
//! Checked here cycle by cycle on five fabrics (mesh, checkerboard,
//! torus, concentrated mesh and a double network's slice pair), at rates
//! from 0.3x to 1.5x each fabric's static many-to-few saturation rate,
//! under uniform and hotspot traffic: the bound dominates the final rate,
//! never increases, and is constant inside the measurement window; and
//! the early-stopping run returns exactly the full run's result whenever
//! it does not cut.

use tenoc::core::presets::Preset;
use tenoc::core::{audit_icnt, EngineKind};
use tenoc::noc::openloop::{
    run_open_loop_on, run_open_loop_unless, OpenLoopConfig, OpenLoopProbe, TrafficPattern,
};
use tenoc::noc::{EjectedPacket, Interconnect, NetStats, NodeId, Packet, Tick};
use tenoc::verify::load::TrafficMatrix;

/// Probe rates as multiples of the fabric's static saturation rate.
const MULTIPLIERS: [f64; 3] = [0.3, 0.9, 1.5];
const PATTERNS: [TrafficPattern; 2] =
    [TrafficPattern::UniformRandom, TrafficPattern::Hotspot { hot: 0, fraction: 0.2 }];
/// Short windows (this file also runs in debug builds), with a drain so
/// the bound is also watched after the window closes.
const WARMUP: u64 = 300;
const MEASURE: u64 = 900;
const DRAIN: u64 = 300;

/// The network `IcntConfig::build` makes, held by value as a probe holds
/// its network.
struct Built(Box<dyn Interconnect>);

impl Tick for Built {
    fn tick(&mut self) {
        self.0.tick();
    }
}

impl Interconnect for Built {
    fn try_inject(&mut self, node: NodeId, packet: Packet) -> Result<(), Packet> {
        self.0.try_inject(node, packet)
    }
    fn pop(&mut self, node: NodeId) -> Option<EjectedPacket> {
        self.0.pop(node)
    }
    fn cycle(&self) -> u64 {
        self.0.cycle()
    }
    fn stats(&self) -> NetStats {
        self.0.stats()
    }
    fn in_flight(&self) -> usize {
        self.0.in_flight()
    }
}

/// Checks the bound at every cycle of one run of `cfg` on fabrics from
/// `build`.
fn check(what: &str, cfg: &OpenLoopConfig, build: impl Fn() -> Built) {
    let full = run_open_loop_on(cfg, &mut build());
    let last = full.ejection_bytes_rate;
    let mut probe = OpenLoopProbe::new(cfg.clone(), build());
    let mut previous = f64::INFINITY;
    for cycle in 0.. {
        let bound = probe.ejection_bytes_bound();
        assert!(bound >= last, "{what}, cycle {cycle}: bound {bound} < final rate {last}");
        assert!(bound <= previous, "{what}, cycle {cycle}: bound rose {previous} -> {bound}");
        if (cfg.warmup + 1..=cfg.warmup + cfg.measure).contains(&cycle) {
            assert_eq!(bound, previous, "{what}, cycle {cycle}: bound moved inside the window");
        }
        previous = bound;
        if probe.done() {
            break;
        }
        probe.tick();
    }
    assert_eq!(format!("{:?}", probe.result()), format!("{full:?}"), "{what}");
    for beat in [0.0, last.next_down()] {
        let got = run_open_loop_unless(cfg, &mut build(), beat);
        let got = got.unwrap_or_else(|| panic!("{what}: cut below its final rate at {beat}"));
        assert_eq!(format!("{got:?}"), format!("{full:?}"), "{what}: early-stopping run");
    }
}

#[test]
fn ejection_bound_dominates_the_final_rate_at_every_cycle() {
    let presets = [
        Preset::BaselineTbDor,
        Preset::CpCr4vc,
        Preset::TorusDor,
        Preset::CMeshDor,
        Preset::ThroughputEffective,
    ];
    for preset in presets {
        let icnt = preset.icnt(6);
        let audit = audit_icnt(&preset.label(), &icnt);
        let sat = audit.matrix(TrafficMatrix::ManyToFew).expect("many-to-few").saturation_rate;
        for multiplier in MULTIPLIERS {
            for pattern in PATTERNS {
                let mut cfg = OpenLoopConfig::new(icnt.net().clone(), multiplier * sat, pattern);
                (cfg.warmup, cfg.measure, cfg.drain) = (WARMUP, MEASURE, DRAIN);
                let what = format!("{} at {multiplier}x, {pattern:?}", preset.label());
                check(&what, &cfg, || Built(icnt.build(EngineKind::Arena)));
            }
        }
    }
}
