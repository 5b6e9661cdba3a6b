//! Tier-1 acceptance tests for the static load analyzer (ISSUE 6): for
//! every shipped physical preset the static saturation-throughput bound
//! must dominate the open-loop measured accepted throughput, and on the
//! throughput-effective design point the statically predicted hottest
//! channel must be the telemetry heatmap's hottest link.
//!
//! The static bounds in `tenoc_verify::load` are only trustworthy as a
//! free fidelity tier if the simulator can never beat them.
//! [`cross_validate`] checks that empirically, per fabric:
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

use tenoc::core::presets::Preset;
use tenoc::noc::openloop::{run_open_loop, run_open_loop_on, OpenLoopConfig, TrafficPattern};
use tenoc::noc::NetworkConfig;
use tenoc::verify::load::{analyze_load, TrafficMatrix};

/// Injection rates swept for the throughput-bound check (request
/// packets/cycle/compute-node): below-saturation points and one past it,
/// enough to exercise both sides of the keep-up filter everywhere. The
/// 0.02 point matters on the torus, whose dateline-split VCs congest the
/// fabric below the static channel-bandwidth bound earlier than any mesh
/// preset.
const RATES: [f64; 4] = [0.02, 0.05, 0.12, 0.3];
/// Short pinned windows (this file also runs in debug builds).
const WARMUP: u64 = 800;
const MEASURE: u64 = 3_000;
const DRAIN: u64 = 5_000;
/// A rate point "keeps up" when its windowed ejection rate reaches this
/// fraction of the offered flit rate.
const KEEPUP_THRESHOLD: f64 = 0.9;
/// Slack on the bound comparison (transient backlog drains and
/// finite-window noise).
const BOUND_TOLERANCE: f64 = 1.05;
/// Injection rate for the zero-load latency measurement.
const LOW_RATE: f64 = 0.005;
/// Slack on the latency comparison (sampling noise at low rate).
const LATENCY_TOLERANCE: f64 = 1.05;
/// Relative tie-window when matching the hottest channel (static loads
/// tying the maximum within this fraction count as hottest).
const HOTTEST_EPS: f64 = 0.02;

/// Cross-validation verdict for one fabric.
struct XvalResult {
    /// Static many-to-few accepted-throughput bound (flits/cycle/node).
    accepted_bound: f64,
    /// Highest sustained (keeping-up) measured throughput in the sweep.
    max_sustained: f64,
    /// Whether any swept rate point kept up with the offered matrix.
    any_kept_up: bool,
    /// Statically predicted hottest channel(s), `"node dir"`.
    predicted_hottest: Vec<String>,
    /// The telemetry-observed hottest link, `"node dir"`.
    observed_hottest: String,
    /// Static zero-load (request, reply) latency, mean over the matrix.
    static_latency: (f64, f64),
    /// Measured mean (request, reply) latency at the low rate.
    measured_latency: (f64, f64),
}

fn open_loop(net: &NetworkConfig, rate: f64) -> OpenLoopConfig {
    let mut ol = OpenLoopConfig::new(net.clone(), rate, TrafficPattern::UniformRandom);
    ol.warmup = WARMUP;
    ol.measure = MEASURE;
    ol.drain = DRAIN;
    ol
}

/// Cross-validates one physical network configuration against the
/// static analyzer.
fn cross_validate(net: &NetworkConfig) -> XvalResult {
    let report = analyze_load(net, TrafficMatrix::ManyToFew);
    // Per-unit-rate offered load in accepted units: the report's own
    // conversion factor between injection scale and flits/cycle/node.
    let offered_per_rate = if report.saturation_rate > 0.0 {
        report.accepted_bound / report.saturation_rate
    } else {
        0.0
    };

    let mut any_kept_up = false;
    let mut max_sustained = 0.0_f64;
    let mut observed_hottest = String::from("-");
    let mut loads = Vec::new();
    for rate in RATES {
        let mut network = tenoc::noc::build_mesh(net.clone());
        let r = run_open_loop_on(&open_loop(net, rate), &mut *network);
        let offered = rate * offered_per_rate;
        if offered > 0.0 && r.ejection_rate >= KEEPUP_THRESHOLD * offered {
            any_kept_up = true;
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
                observed_hottest = format!("{node} {}", tenoc::noc::telemetry::dir_label(*dir));
            }
        }
    }

    let low = run_open_loop(&open_loop(net, LOW_RATE));
    let zl = |class: &str| {
        report.zero_load.iter().find(|z| z.class == class).map(|z| z.mean).unwrap_or(0.0)
    };
    XvalResult {
        accepted_bound: report.accepted_bound,
        max_sustained,
        any_kept_up,
        predicted_hottest: report
            .hottest_channels(HOTTEST_EPS)
            .iter()
            .map(|c| format!("{} {}", c.node, c.dir))
            .collect(),
        observed_hottest,
        static_latency: (zl("request"), zl("reply")),
        measured_latency: (low.avg_request_latency, low.avg_reply_latency),
    }
}

/// The distinct unsliced physical fabrics behind the named presets.
fn physical_nets() -> Vec<(String, NetworkConfig)> {
    let mut out: Vec<(String, NetworkConfig)> = Vec::new();
    for p in Preset::NAMED {
        let icnt = p.icnt(6);
        if matches!(
            icnt,
            tenoc::core::system::IcntConfig::Perfect(_)
                | tenoc::core::system::IcntConfig::BwLimited(_, _)
        ) {
            continue;
        }
        let net = icnt.net().clone();
        if out.iter().any(|(_, n)| *n == net) {
            continue;
        }
        out.push((p.label(), net));
    }
    out
}

#[test]
fn static_bound_and_latency_floor_hold_on_every_preset() {
    // One cross-validation per distinct fabric covers both acceptance
    // assertions (the sweep is the expensive part, so don't repeat it).
    let mut failures = Vec::new();
    for (label, net) in physical_nets() {
        let r = cross_validate(&net);
        if !r.any_kept_up {
            failures
                .push(format!("{label}: no rate point kept up; sweep cannot witness the bound"));
        }
        if r.max_sustained > r.accepted_bound * BOUND_TOLERANCE {
            failures.push(format!(
                "{label}: sustained {:.4} exceeds static bound {:.4}",
                r.max_sustained, r.accepted_bound
            ));
        }
        let (static_req, static_rep) = r.static_latency;
        let (measured_req, measured_rep) = r.measured_latency;
        if static_req > measured_req * LATENCY_TOLERANCE
            || static_rep > measured_rep * LATENCY_TOLERANCE
        {
            failures.push(format!(
                "{label}: static zero-load latency (req {static_req:.2} / rep {static_rep:.2}) \
                 exceeds measured low-rate means (req {measured_req:.2} / rep {measured_rep:.2})"
            ));
        }
    }
    assert!(failures.is_empty(), "cross-validation failures:\n  {}", failures.join("\n  "));
}

#[test]
fn predicted_hottest_channel_matches_telemetry_on_thr_eff() {
    // The thr-eff preset is a double network; the open-loop harness
    // drives its unsliced physical fabric, so the static side analyzes
    // the same single network (as everywhere in this file).
    let r = cross_validate(Preset::ThroughputEffective.icnt(6).net());
    assert!(
        r.predicted_hottest.contains(&r.observed_hottest),
        "observed hottest link {} not among statically predicted {:?}",
        r.observed_hottest,
        r.predicted_hottest
    );
}

#[test]
fn uniform_and_transpose_matrices_are_analyzable_on_every_preset() {
    // The synthetic matrices must produce finite, positive bounds on
    // every legal fabric (checkerboard meshes may skip odd-parity pairs,
    // which the report discloses instead of mispricing).
    for (label, net) in physical_nets() {
        for m in [TrafficMatrix::Uniform, TrafficMatrix::Transpose] {
            let rep = analyze_load(&net, m);
            assert!(
                rep.saturation_rate > 0.0 && rep.saturation_rate.is_finite(),
                "{label}/{}: degenerate saturation rate {}",
                m.label(),
                rep.saturation_rate
            );
            assert!(
                rep.demands_total > rep.demands_unroutable,
                "{label}/{}: no routable demand",
                m.label()
            );
        }
    }
}
