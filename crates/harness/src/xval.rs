//! Cross-validation of the static load analyzer against the cycle-level
//! simulator.
//!
//! The static bounds in `tenoc_verify::load` are only trustworthy as a
//! free fidelity tier if the simulator can never beat them. This module
//! proves that empirically, per preset:
//!
//! * **Soundness of the throughput bound** — sweep open-loop injection
//!   rates; at every rate where the fabric *keeps up* with the offered
//!   many-to-few matrix (windowed ejection rate close to the offered flit
//!   rate), the sustained throughput must not exceed the static
//!   `accepted_bound`. Past saturation the delivered traffic mix shifts
//!   away from the matrix (flows that avoid the hot channels keep
//!   flowing), so raw ejection rates stop being matrix throughput — the
//!   keep-up filter is what makes the comparison meaningful.
//! * **Hottest-channel agreement** — the statically predicted
//!   highest-load channel set must contain the telemetry heatmap's
//!   hottest link observed in simulation.
//! * **Zero-load latency floor** — the static per-class zero-load
//!   latency must not exceed the measured mean latency at a very low
//!   injection rate.
//!
//! Measurements run on the preset's *unsliced* physical network (the
//! open-loop harness drives a single fabric), so the static side uses
//! the same single-network analysis.

use serde::{Deserialize, Serialize};
use tenoc_core::presets::Preset;
use tenoc_noc::openloop::{run_open_loop_on, OpenLoopConfig, TrafficPattern};
use tenoc_verify::load::{analyze_load, TrafficMatrix};

/// Tuning knobs for one cross-validation run.
#[derive(Clone, Debug)]
pub struct XvalConfig {
    /// Mesh radix.
    pub k: usize,
    /// Injection rates swept for the throughput-bound check
    /// (request packets/cycle/compute-node).
    pub rates: Vec<f64>,
    /// Warm-up cycles per rate point.
    pub warmup: u64,
    /// Measurement window per rate point.
    pub measure: u64,
    /// Drain allowance per rate point.
    pub drain: u64,
    /// A rate point "keeps up" when its windowed ejection rate reaches
    /// this fraction of the offered flit rate (default 0.9).
    pub keepup_threshold: f64,
    /// Slack on the bound comparison (default 1.05: transient backlog
    /// drains and finite-window noise).
    pub bound_tolerance: f64,
    /// Injection rate for the zero-load latency measurement.
    pub low_rate: f64,
    /// Slack on the latency comparison (sampling noise at low rate).
    pub latency_tolerance: f64,
    /// Relative tie-window when matching the hottest channel (static
    /// loads tying the maximum within this fraction count as hottest).
    pub hottest_eps: f64,
}

impl Default for XvalConfig {
    fn default() -> Self {
        XvalConfig {
            k: 6,
            rates: vec![0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.25, 0.4],
            warmup: 2_000,
            measure: 10_000,
            drain: 10_000,
            keepup_threshold: 0.9,
            bound_tolerance: 1.05,
            low_rate: 0.005,
            latency_tolerance: 1.05,
            hottest_eps: 0.02,
        }
    }
}

/// One swept rate point of the throughput-bound check.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RatePoint {
    /// Offered injection rate (request packets/cycle/compute-node).
    pub rate: f64,
    /// Offered load converted to flits/cycle/node (the accepted unit).
    pub offered: f64,
    /// Windowed ejection rate measured (flits/cycle/node).
    pub ejection_rate: f64,
    /// Whether the fabric kept up with the offered matrix here.
    pub keeping_up: bool,
}

/// Cross-validation verdict for one preset.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct XvalResult {
    /// Preset label.
    pub preset: String,
    /// Static many-to-few accepted-throughput bound (flits/cycle/node).
    pub accepted_bound: f64,
    /// Highest sustained (keeping-up) measured throughput in the sweep.
    pub max_sustained: f64,
    /// `max_sustained <= accepted_bound * tolerance`.
    pub bound_sound: bool,
    /// Statically predicted hottest channel(s), `"node dir"`.
    pub predicted_hottest: Vec<String>,
    /// The telemetry-observed hottest link, `"node dir"`.
    pub observed_hottest: String,
    /// Whether the observed hottest link is among the predicted set.
    pub hottest_match: bool,
    /// Static zero-load request latency (mean over the matrix).
    pub static_request_latency: f64,
    /// Static zero-load reply latency (mean over the matrix).
    pub static_reply_latency: f64,
    /// Measured mean request latency at the low rate.
    pub measured_request_latency: f64,
    /// Measured mean reply latency at the low rate.
    pub measured_reply_latency: f64,
    /// Whether both static latencies sit at or below the measured means
    /// (within tolerance).
    pub latency_floor: bool,
    /// Every swept rate point, in sweep order.
    pub points: Vec<RatePoint>,
}

impl XvalResult {
    /// `true` when every cross-check passed.
    pub fn ok(&self) -> bool {
        self.bound_sound && self.hottest_match && self.latency_floor
    }
}

/// Cross-validates one physical network configuration against the
/// static analyzer.
///
/// # Panics
///
/// Panics if the configuration has no MC nodes (the open-loop traffic
/// needs them).
pub fn cross_validate(label: &str, net: &tenoc_noc::NetworkConfig, cfg: &XvalConfig) -> XvalResult {
    let report = analyze_load(net, TrafficMatrix::ManyToFew);
    // Per-unit-rate offered load in accepted units: the report's own
    // conversion factor between injection scale and flits/cycle/node.
    let offered_per_rate = if report.saturation_rate > 0.0 {
        report.accepted_bound / report.saturation_rate
    } else {
        0.0
    };

    let mut points = Vec::new();
    let mut max_sustained = 0.0_f64;
    let mut observed_hottest = String::from("-");
    let mut loads = Vec::new();
    for &rate in &cfg.rates {
        let mut ol = OpenLoopConfig::new(net.clone(), rate, TrafficPattern::UniformRandom);
        ol.warmup = cfg.warmup;
        ol.measure = cfg.measure;
        ol.drain = cfg.drain;
        let mut network = tenoc_noc::build_mesh(net.clone());
        let r = run_open_loop_on(&ol, &mut *network);
        let offered = rate * offered_per_rate;
        let keeping_up = offered > 0.0 && r.ejection_rate >= cfg.keepup_threshold * offered;
        if keeping_up {
            max_sustained = max_sustained.max(r.ejection_rate);
            // Read the heatmap off the highest rate that still delivers
            // the matrix: past saturation the delivered mix shifts away
            // from it (hot flows clamp first), so saturated heatmaps no
            // longer reflect the matrix the prediction is about. Rates
            // ascend, so the last keeping-up point wins.
            network.link_loads_into(&mut loads);
            if let Some((node, dir, _)) =
                loads.iter().reduce(|best, c| if c.2 > best.2 { c } else { best })
            {
                observed_hottest = format!("{node} {}", tenoc_noc::telemetry::dir_label(*dir));
            }
        }
        points.push(RatePoint { rate, offered, ejection_rate: r.ejection_rate, keeping_up });
    }

    let predicted_hottest: Vec<String> = report
        .hottest_channels(cfg.hottest_eps)
        .iter()
        .map(|c| format!("{} {}", c.node, c.dir))
        .collect();
    let hottest_match = predicted_hottest.contains(&observed_hottest);

    let mut lo = OpenLoopConfig::new(net.clone(), cfg.low_rate, TrafficPattern::UniformRandom);
    lo.warmup = cfg.warmup;
    lo.measure = cfg.measure;
    lo.drain = cfg.drain;
    let low = tenoc_noc::openloop::run_open_loop(&lo);
    let zl = |class: &str| {
        report.zero_load.iter().find(|z| z.class == class).map(|z| z.mean).unwrap_or(0.0)
    };
    let static_request_latency = zl("request");
    let static_reply_latency = zl("reply");
    let latency_floor = static_request_latency <= low.avg_request_latency * cfg.latency_tolerance
        && static_reply_latency <= low.avg_reply_latency * cfg.latency_tolerance;

    XvalResult {
        preset: label.to_string(),
        accepted_bound: report.accepted_bound,
        max_sustained,
        bound_sound: max_sustained <= report.accepted_bound * cfg.bound_tolerance,
        predicted_hottest,
        observed_hottest,
        hottest_match,
        static_request_latency,
        static_reply_latency,
        measured_request_latency: low.avg_request_latency,
        measured_reply_latency: low.avg_reply_latency,
        latency_floor,
        points,
    }
}

/// Cross-validates every physical named preset (ideal networks have
/// nothing to bound). Presets sharing one unsliced physical network are
/// deduplicated — the open-loop harness drives single fabrics, so
/// distinct double-network port variants measure identically.
pub fn cross_validate_presets(cfg: &XvalConfig) -> Vec<XvalResult> {
    let mut seen: Vec<tenoc_noc::NetworkConfig> = Vec::new();
    let mut out = Vec::new();
    for p in Preset::NAMED {
        let icnt = p.icnt(cfg.k);
        if matches!(
            icnt,
            tenoc_core::system::IcntConfig::Perfect(_)
                | tenoc_core::system::IcntConfig::BwLimited(_, _)
        ) {
            continue;
        }
        let net = icnt.net().clone();
        if seen.contains(&net) {
            continue;
        }
        seen.push(net.clone());
        out.push(cross_validate(&p.label(), &net, cfg));
    }
    out
}
