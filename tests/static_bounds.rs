//! Tier-1 acceptance tests for the static load analyzer: on every
//! distinct fabric of the named presets the static saturation-throughput
//! bound must dominate the open-loop measured throughput, and the
//! statically predicted hottest channel must be the telemetry's hottest
//! link.
//!
//! The static bounds in `tenoc_verify::load` are only trustworthy as a
//! free fidelity tier if the simulator can never beat them. [`sweep`]
//! checks that empirically, once per fabric, and the tests below share
//! the sweeps: each preset's unsliced physical network and each double
//! preset's two slices, each fabric against the one load analysis of its
//! physical networks.
//!
//! * **Soundness of the throughput bound** — sweep open-loop injection
//!   rates at multiples of the fabric's own static `saturation_rate`; at
//!   every rate the run [keeps up](OpenLoopResult::keeps_up) with, the
//!   windowed ejection rate must not exceed the static `accepted_bound`.
//!   Past saturation the delivered traffic mix shifts away from the
//!   matrix (flows that avoid the hot channels keep flowing), so raw
//!   ejection rates stop being matrix throughput. At every rate, kept up
//!   or not, no link of any slice carries more than one flit per cycle.
//! * **Hottest-channel agreement** — at the highest kept-up rate, the
//!   statically predicted highest-load channel set must contain the
//!   telemetry's hottest link: on Thr-Eff's unsliced fabric and on every
//!   double preset's reply slice.
//! * **Zero-load latency floor** — the static per-class zero-load
//!   latency must not exceed the measured mean latency at a very low
//!   injection rate.
//! * **Keep-up verdicts** — every swept point's verdict, with its margin
//!   to the keep-up line, is pinned in `tests/golden/keep_up.txt`, so a
//!   point that crosses the line shows up as a named diff rather than as
//!   a quiet change of which points the checks above compare.

use std::sync::OnceLock;
use tenoc::core::presets::Preset;
use tenoc::core::{EngineKind, IcntConfig};
use tenoc::noc::openloop::{run_open_loop_on, OpenLoopConfig, OpenLoopResult, TrafficPattern};
use tenoc::noc::{NetworkConfig, PhysicalNets, TelemetryConfig, TelemetryReport};
use tenoc::verify::load::{analyze_load, FabricLoad, TrafficMatrix};

/// Injection rates swept for the throughput-bound check, as multiples of
/// each fabric's static `saturation_rate`. Every fabric keeps up at the
/// two lowest and none at the highest; the points between approach the
/// bound (two 2P slices keep up at 1.0, at 0.997 of it).
const LOADS: [f64; 6] = [0.5, 0.6, 0.75, 0.9, 1.0, 1.1];
/// Short pinned windows (this file also runs in debug builds).
const WARMUP: u64 = 800;
const MEASURE: u64 = 3_000;
const DRAIN: u64 = 5_000;
/// Slack on the bound comparison (finite-window noise).
const BOUND_TOLERANCE: f64 = 1.05;
/// Slack on one link's flits per cycle (float rounding only).
const LINK_EPS: f64 = 1e-9;
/// Injection rate for the zero-load latency measurement.
const LOW_RATE: f64 = 0.005;
/// Slack on the latency comparison (sampling noise at low rate).
const LATENCY_TOLERANCE: f64 = 1.05;
/// Relative tie-window when matching the hottest channel (static loads
/// tying the maximum within this fraction count as hottest).
const HOTTEST_EPS: f64 = 0.02;
/// The share of the window-generated traffic a run must eject to keep up
/// ([`OpenLoopResult::keeps_up`]'s line).
const KEEP_UP_LINE: f64 = 0.98;

/// One fabric under test and the static analysis it must obey.
struct Fabric {
    label: String,
    /// `Mesh` for an unsliced physical network, `Double` for a double
    /// preset's two slices.
    icnt: IcntConfig,
    /// The many-to-few analysis of its physical networks, whose
    /// `slices` are in `telemetry_reports` order: the one network, or the
    /// request slice then the reply slice.
    load: FabricLoad,
}

impl Fabric {
    fn new(label: String, icnt: IcntConfig) -> Self {
        let load = analyze_load(&physical(&icnt), TrafficMatrix::ManyToFew);
        Fabric { label, icnt, load }
    }

    /// `true` for a double preset's two slices.
    fn sliced(&self) -> bool {
        self.load.slices.len() > 1
    }

    /// The static mean zero-load latency of one class, from the slice
    /// that carries it (0 when absent).
    fn zero_load(&self, class: &str) -> f64 {
        let mut all = self.load.slices.iter().flat_map(|r| r.zero_load.iter());
        all.find(|z| z.class == class).map_or(0.0, |z| z.mean)
    }
}

/// The distinct fabrics of the named presets: every unsliced physical
/// network, and every double preset's slices. A fabric several presets
/// share is labeled with all their names (`CP-CR-4VC / Double-CP-CR`).
fn fabrics() -> Vec<Fabric> {
    let mut out: Vec<Fabric> = Vec::new();
    for p in Preset::NAMED {
        let icnt = p.icnt(6);
        let net = icnt.net().clone();
        let mut candidates = Vec::new();
        match icnt {
            IcntConfig::Perfect(_) | IcntConfig::BwLimited(_, _) => continue,
            IcntConfig::Double(_) => {
                candidates.push((p.label(), IcntConfig::Mesh(net)));
                candidates.push((format!("{} (sliced)", p.label()), icnt));
            }
            IcntConfig::Mesh(_) => candidates.push((p.label(), icnt)),
        }
        for (label, icnt) in candidates {
            match out.iter_mut().find(|f| physical(&f.icnt) == physical(&icnt)) {
                Some(f) => f.label = format!("{} / {label}", f.label),
                None => out.push(Fabric::new(label, icnt)),
            }
        }
    }
    out
}

/// A preset fabric's physical networks.
fn physical(icnt: &IcntConfig) -> PhysicalNets<'_> {
    icnt.physical().expect("a preset's fabric slices")
}

/// One swept rate point.
struct Point {
    rate: f64,
    result: OpenLoopResult,
    /// Per physical network, its [`link_summary`].
    links: Vec<(f64, String)>,
}

/// A fabric's sweep: its rate points, ascending, and the low-rate run.
struct Sweep {
    fabric: Fabric,
    points: Vec<Point>,
    low: OpenLoopResult,
}

fn open_loop(net: &NetworkConfig, rate: f64) -> OpenLoopConfig {
    let mut ol = OpenLoopConfig::new(net.clone(), rate, TrafficPattern::UniformRandom);
    ol.warmup = WARMUP;
    ol.measure = MEASURE;
    ol.drain = DRAIN;
    ol
}

/// Runs one probe on a fresh build of `icnt` with telemetry armed (no
/// flight recorder), returning its result and per-network reports.
fn probe(icnt: &IcntConfig, rate: f64) -> (OpenLoopResult, Vec<TelemetryReport>) {
    let mut net = icnt.build(EngineKind::Arena);
    net.enable_telemetry(TelemetryConfig { flight_capacity: 0, ..TelemetryConfig::default() });
    let result = run_open_loop_on(&open_loop(icnt.net(), rate), &mut *net);
    (result, net.telemetry_reports())
}

/// A network's highest link utilization (flits/cycle) and its hottest
/// link, `"node dir"`: the first carrying the most flits, in node order.
fn link_summary(report: &TelemetryReport) -> (f64, String) {
    let max = report.links.iter().map(|l| l.utilization).fold(0.0, f64::max);
    let hot = report.links.iter().reduce(|best, l| if l.flits > best.flits { l } else { best });
    (max, hot.map_or("-".into(), |l| format!("{} {}", l.node, l.dir)))
}

fn sweep(fabric: Fabric) -> Sweep {
    let points = LOADS
        .iter()
        .map(|&load| {
            let rate = load * fabric.load.saturation_rate;
            let (result, reports) = probe(&fabric.icnt, rate);
            Point { rate, result, links: reports.iter().map(link_summary).collect() }
        })
        .collect();
    let (low, _) = probe(&fabric.icnt, LOW_RATE);
    Sweep { fabric, points, low }
}

/// Every fabric's sweep, run once for all the tests of this file.
fn sweeps() -> &'static [Sweep] {
    static SWEEPS: OnceLock<Vec<Sweep>> = OnceLock::new();
    SWEEPS.get_or_init(|| fabrics().into_iter().map(sweep).collect())
}

/// The bound failures of one sweep against `bound`: every kept-up
/// point above `bound` × [`BOUND_TOLERANCE`].
fn bound_failures(s: &Sweep, bound: f64) -> Vec<String> {
    let kept_up = s.points.iter().filter(|p| p.result.keeps_up());
    let above = kept_up.filter(|p| p.result.ejection_rate > bound * BOUND_TOLERANCE);
    above
        .map(|p| {
            format!(
                "{}: rate {:.4} kept up at {:.4} flits/cycle/node, above the static bound \
                 {bound:.4}",
                s.fabric.label, p.rate, p.result.ejection_rate
            )
        })
        .collect()
}

/// The failures of a sweep as a witness: it needs two kept-up points and
/// one that does not keep up, and at every point no link of any network
/// may carry more than one flit per cycle.
fn sweep_failures(s: &Sweep) -> Vec<String> {
    let label = &s.fabric.label;
    let mut failures = Vec::new();
    let kept_up = s.points.iter().filter(|p| p.result.keeps_up()).count();
    if kept_up < 2 || kept_up == s.points.len() {
        failures.push(format!(
            "{label}: {kept_up} of {} rates kept up; the sweep needs two that do and one \
             that does not",
            s.points.len()
        ));
    }
    for p in &s.points {
        for (network, (max, _)) in p.links.iter().enumerate() {
            if *max > 1.0 + LINK_EPS {
                failures.push(format!(
                    "{label}: rate {:.4}: a link of network {network} carried {max:.4} \
                     flits/cycle",
                    p.rate
                ));
            }
        }
    }
    failures
}

/// The failure, if any, of the zero-load floor: the static (request,
/// reply) latency must not exceed the measured low-rate means.
fn latency_floor_failure(s: &Sweep) -> Option<String> {
    let f = &s.fabric;
    let (static_req, static_rep) = (f.zero_load("request"), f.zero_load("reply"));
    let (measured_req, measured_rep) = (s.low.avg_request_latency, s.low.avg_reply_latency);
    let exceeds = static_req > measured_req * LATENCY_TOLERANCE
        || static_rep > measured_rep * LATENCY_TOLERANCE;
    exceeds.then(|| {
        format!(
            "{}: static zero-load latency (req {static_req:.2} / rep {static_rep:.2}) \
             exceeds measured low-rate means (req {measured_req:.2} / rep {measured_rep:.2})",
            f.label
        )
    })
}

/// The failure, if any, of the hottest-channel agreement on the last
/// physical network of the sweep (the reply slice of a double) at its
/// highest kept-up rate.
fn hottest_failure(s: &Sweep) -> Option<String> {
    let report = s.fabric.load.slices.last().expect("a fabric has a network");
    let predicted: Vec<String> = report
        .hottest_channels(HOTTEST_EPS)
        .iter()
        .map(|c| format!("{} {}", c.node, c.dir))
        .collect();
    let Some(point) = s.points.iter().rev().find(|p| p.result.keeps_up()) else {
        return Some(format!("{}: no rate kept up", s.fabric.label));
    };
    let observed = &point.links.last().expect("one report per network").1;
    (!predicted.contains(observed)).then(|| {
        format!(
            "{}: observed hottest link {observed} at rate {:.4} not among statically \
             predicted {predicted:?}",
            s.fabric.label, point.rate
        )
    })
}

fn assert_none(failures: Vec<String>) {
    assert!(failures.is_empty(), "cross-validation failures:\n  {}", failures.join("\n  "));
}

#[test]
fn static_bound_and_latency_floor_hold_on_every_preset() {
    let mut failures = Vec::new();
    for s in sweeps() {
        failures.extend(bound_failures(s, s.fabric.load.accepted_bound));
        failures.extend(sweep_failures(s));
        failures.extend(latency_floor_failure(s));
    }
    assert_none(failures);
}

/// A bound 10 % too tight is caught: the sweep reaches close enough to
/// the bound that the cross-validation fails.
#[test]
fn a_bound_scaled_by_0_9_fails_the_cross_validation() {
    let caught: Vec<&str> = sweeps()
        .iter()
        .filter(|s| !bound_failures(s, 0.9 * s.fabric.load.accepted_bound).is_empty())
        .map(|s| s.fabric.label.as_str())
        .collect();
    assert!(!caught.is_empty(), "no fabric fails against a bound scaled by 0.9");
}

#[test]
fn predicted_hottest_channel_matches_telemetry_on_thr_eff() {
    // Thr-Eff's unsliced physical fabric against its one network's
    // analysis, and every double preset's reply slice (Thr-Eff's
    // included) against the reply slice's.
    let thr_eff = Preset::ThroughputEffective.icnt(6);
    let checked =
        sweeps().iter().filter(|s| s.fabric.sliced() || s.fabric.icnt.net() == thr_eff.net());
    assert_none(checked.filter_map(hottest_failure).collect());
}

#[test]
fn uniform_and_transpose_matrices_are_analyzable_on_every_preset() {
    // The synthetic matrices must produce finite, positive bounds on
    // every legal fabric (checkerboard meshes may skip odd-parity pairs,
    // which the report discloses instead of mispricing).
    for f in fabrics().iter().filter(|f| !f.sliced()) {
        for m in [TrafficMatrix::Uniform, TrafficMatrix::Transpose] {
            let load = analyze_load(&physical(&f.icnt), m);
            assert!(
                load.saturation_rate > 0.0 && load.saturation_rate.is_finite(),
                "{}/{}: degenerate saturation rate {}",
                f.label,
                m.label(),
                load.saturation_rate
            );
            let rep = &load.slices[0];
            assert!(
                rep.demands_total > rep.demands_unroutable,
                "{}/{}: no routable demand",
                f.label,
                m.label()
            );
        }
    }
}

/// One line per swept point: the fabric, the load multiplier, the rate,
/// `ejection_rate / accepted`, its margin to [`KEEP_UP_LINE`] and the
/// verdict.
fn verdict_table() -> String {
    let mut table = String::new();
    for s in sweeps() {
        for (load, p) in LOADS.iter().zip(&s.points) {
            let share = p.result.ejection_rate / p.result.accepted;
            let verdict = if p.result.keeps_up() { "kept up" } else { "not kept up" };
            table += &format!(
                "{} @ {load:.2}x: rate {:.6}, ejected/accepted {share:.4}, margin {:+.4}, {verdict}\n",
                s.fabric.label,
                p.rate,
                share - KEEP_UP_LINE
            );
        }
    }
    table
}

#[test]
fn keep_up_verdicts_match_the_checked_in_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/keep_up.txt");
    let golden = std::fs::read_to_string(&path).expect("golden table present");
    let table = verdict_table();
    if table == golden {
        return;
    }
    let moved = table.lines().zip(golden.lines()).find(|(a, g)| a != g);
    let moved = moved.map_or_else(
        || {
            format!(
                "line count: computed {}, golden {}",
                table.lines().count(),
                golden.lines().count()
            )
        },
        |(a, g)| format!("computed {a}\n  golden   {g}"),
    );
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("keep_up.txt");
    std::fs::write(&out, &table).expect("write the computed table");
    panic!(
        "tests/golden/keep_up.txt drifted:\n  {moved}\nif intended, bless with\n  cp {} {}",
        out.display(),
        path.display()
    );
}
