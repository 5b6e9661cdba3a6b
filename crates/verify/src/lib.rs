//! # tenoc-verify — static verification of tenoc-noc configurations
//!
//! Proves safety properties of a [`NetworkConfig`] *without running the
//! simulator*, by exhaustively enumerating the routing function (every
//! ordered source/destination pair, protocol class and injection plan the
//! production [`plan_injection`](tenoc_noc::routing::plan_injection) can
//! produce) and analyzing the resulting channel dependency graph:
//!
//! * **Routing-deadlock freedom** — the Dally–Seitz channel dependency
//!   graph at virtual-channel granularity is acyclic (Tarjan SCC); a
//!   violation reports a shortest dependency cycle together with the
//!   concrete packets that form it.
//! * **Protocol-deadlock freedom** — request and reply classes own
//!   disjoint VC sets (two-class layouts), or the configuration is
//!   flagged as relying on physically disjoint networks (double-network
//!   slicing, [`analyze_double`]).
//! * **Turn legality and minimality** — no route turns at a half-router
//!   (checked against the router's own
//!   [`connection_allowed`](tenoc_noc::topology::connection_allowed)) and
//!   every route's hop count equals the Manhattan distance, including
//!   checkerboard case-2 routes through an intermediate.
//! * **Routability** — checkerboard pairs are unroutable *exactly* when
//!   both endpoints are full-routers at odd coordinate parity, and no
//!   configured MC placement hits an unroutable pair.
//! * **VC-partition correctness** — the (class, phase) VC sets tile the
//!   physical VCs with no overlap and no waste.
//!
//! Every check, and the [`load`] analyzer, reads one [`RouteTable`] — the
//! routes of one `(mesh, routing, VC layout)`, walked once — so callers
//! analyzing many configurations of one shape build the table once and
//! use [`analyze_with`] / [`load::analyze_load_with`]. The load analyzer
//! reads a double network as two physical networks, one per class, on the
//! table of its slice.
//!
//! The library entry point is [`analyze`]; `tenoc audit` (through
//! `tenoc_core::audit_grid`) applies it to every shipped preset. Debug-build
//! simulations self-verify: `tenoc_core::IcntConfig::build` asks
//! [`check_config`] for its fabric's memoized verdict and panics on any
//! configuration that fails verification (release builds skip this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdg;
mod checks;
pub mod load;
mod route;

pub use route::{route_key, RouteTable};
use std::sync::Mutex;
use tenoc_noc::NetworkConfig;

/// Which property a finding is about.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) enum CheckKind {
    /// `NetworkConfig::validate` preconditions.
    Config,
    /// Channel-dependency-graph acyclicity.
    RoutingDeadlock,
    /// Request/reply VC disjointness (or physical disjointness).
    ProtocolSeparation,
    /// No turns at half-routers; all hops use allowed connections.
    TurnLegality,
    /// Hop count equals the fabric's shortest-path distance (Manhattan on
    /// the mesh, wrap-aware on the torus) for every route.
    Minimality,
    /// Unroutable pairs match the specification; MC placement safe.
    Routability,
    /// (class, phase) VC sets tile the physical VCs exactly.
    VcPartition,
}

impl CheckKind {
    /// Stable lowercase identifier for reports and filtering.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckKind::Config => "config",
            CheckKind::RoutingDeadlock => "routing-deadlock",
            CheckKind::ProtocolSeparation => "protocol-separation",
            CheckKind::TurnLegality => "turn-legality",
            CheckKind::Minimality => "minimality",
            CheckKind::Routability => "routability",
            CheckKind::VcPartition => "vc-partition",
        }
    }
}

/// Whether a finding breaks the configuration or documents a proof.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Severity {
    /// A property was proven or a caveat is worth knowing; not an error.
    Info,
    /// The configuration is unsafe to simulate.
    Violation,
}

/// One structured result of one check.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The property this finding is about.
    pub(crate) check: CheckKind,
    /// Proof note or violation.
    pub(crate) severity: Severity,
    /// Human-readable detail (multi-line for cycles and tallies).
    pub message: String,
}

impl Finding {
    /// An informational (proof) finding.
    pub(crate) fn info(check: CheckKind, message: String) -> Self {
        Finding { check, severity: Severity::Info, message }
    }

    /// A violation finding.
    pub(crate) fn violation(check: CheckKind, message: String) -> Self {
        Finding { check, severity: Severity::Violation, message }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = match self.severity {
            Severity::Info => "info",
            Severity::Violation => "VIOLATION",
        };
        write!(f, "[{tag}] {}: {}", self.check.as_str(), self.message)
    }
}

/// How much of a verification a report spells out.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Detail {
    /// Every finding: each proof and each violation.
    Full,
    /// The violations alone; no proof text is formatted or copied.
    Violations,
}

/// Work accounting for a verification run.
#[derive(Clone, Debug, Default)]
pub struct VerifyStats {
    /// Ordered (src, dst) pairs examined.
    pub pairs: usize,
    /// Pairs for which the routing function returned `UnroutableError`.
    pub unroutable_pairs: usize,
    /// (pair, class, distinct plan) routes walked hop by hop.
    pub plans_traced: usize,
    /// (link, VC) resources reachable by at least one route.
    pub cdg_vertices: usize,
    /// Distinct hold -> request dependencies between those resources.
    pub cdg_edges: usize,
}

/// The result of [`analyze`]: structured findings plus work accounting.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// What the configuration being analyzed was (for report headers).
    pub subject: String,
    /// All findings, violations first.
    pub findings: Vec<Finding>,
    /// Work accounting.
    pub stats: VerifyStats,
}

impl VerifyReport {
    /// `true` when no finding is a violation.
    pub fn is_clean(&self) -> bool {
        self.violations().next().is_none()
    }

    /// The violation findings only.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Violation)
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n_viol = self.violations().count();
        writeln!(
            f,
            "verify {}: {}",
            self.subject,
            if n_viol == 0 { "CLEAN".to_string() } else { format!("{n_viol} VIOLATION(S)") }
        )?;
        writeln!(
            f,
            "  {} pairs ({} unroutable), {} routes traced, CDG {} vc-channels / {} deps",
            self.stats.pairs,
            self.stats.unroutable_pairs,
            self.stats.plans_traced,
            self.stats.cdg_vertices,
            self.stats.cdg_edges
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Describes a config for report headers: `6x6 checkerboard, Checkerboard
/// routing, 4 VCs (2 classes, phase-split)`.
fn subject_of(cfg: &NetworkConfig) -> String {
    let k = cfg.mesh.radix();
    let half = cfg.mesh.nodes().filter(|&n| cfg.mesh.is_half(n)).count();
    let fabric = match cfg.mesh.fabric() {
        tenoc_noc::Fabric::Mesh if half > 0 => "checkerboard mesh".to_string(),
        tenoc_noc::Fabric::Mesh => "full-router mesh".to_string(),
        tenoc_noc::Fabric::Torus => "torus".to_string(),
        tenoc_noc::Fabric::CMesh { conc } => format!("c-mesh (conc {conc})"),
    };
    format!(
        "{k}x{k} {fabric}, {:?} routing, {} VCs ({} class(es){}{})",
        cfg.routing,
        cfg.vcs.total,
        cfg.vcs.classes,
        if cfg.vcs.split_phases { ", phase-split" } else { "" },
        if cfg.vcs.split_dateline { ", dateline-split" } else { "" },
    )
}

/// Statically verifies one physical network configuration. See the crate
/// docs for the properties checked. Never panics on well-formed meshes;
/// structural problems surface as `CheckKind::Config` violations.
pub fn analyze(cfg: &NetworkConfig) -> VerifyReport {
    analyze_with(cfg, &RouteTable::new(cfg), Detail::Full)
}

/// [`analyze`] on routes already walked, spelling out `detail`: `table`
/// must have been built from a configuration with `cfg`'s
/// [`route_key`]. Only `validate()`, MC reachability and the subject line
/// are computed per call; the route-only verdicts are the table's,
/// computed on its first use.
///
/// # Panics
///
/// Panics if `table` routes a different `(mesh, routing, VC layout)`.
pub fn analyze_with(cfg: &NetworkConfig, table: &RouteTable, detail: Detail) -> VerifyReport {
    assert!(table.routes(cfg), "route table of another fabric shape");
    let mut findings = Vec::new();
    if let Err(e) = cfg.validate() {
        findings.push(Finding::violation(CheckKind::Config, e));
        if cfg.mc_nodes.iter().any(|&m| m >= cfg.mesh.len()) {
            // The geometry itself is unusable; nothing further can be
            // proven.
            return VerifyReport {
                subject: subject_of(cfg),
                findings,
                stats: VerifyStats::default(),
            };
        }
        // Otherwise keep going: the remaining checks demonstrate *which*
        // property the invalid configuration breaks — e.g. the dependency
        // cycle that appears when checkerboard routing lacks phase-split
        // VCs.
    }

    let proof = table.proof();
    proof.findings(cfg, table, detail, &mut findings);
    findings.sort_by_key(|f| match f.severity {
        Severity::Violation => 0,
        Severity::Info => 1,
    });
    VerifyReport { subject: subject_of(cfg), findings, stats: proof.stats.clone() }
}

/// Verifies a configuration used as a channel-sliced **double network**
/// (paper Section IV-C): each protocol class rides its own physical copy
/// of [`NetworkConfig::slice`]. The slice is analyzed like any single
/// network; protocol separation additionally holds by physical
/// disjointness, which is recorded as an info finding.
pub fn analyze_double(cfg: &NetworkConfig) -> VerifyReport {
    if !cfg.channel_bytes.is_multiple_of(2) {
        return unsliceable(cfg);
    }
    analyze_double_with(cfg, &RouteTable::new(&cfg.slice()), Detail::Full)
}

/// [`analyze_double`] on routes already walked for `cfg.slice()`,
/// spelling out `detail`.
///
/// # Panics
///
/// Panics if `table` routes a different shape than the slice.
pub fn analyze_double_with(
    cfg: &NetworkConfig,
    table: &RouteTable,
    detail: Detail,
) -> VerifyReport {
    if !cfg.channel_bytes.is_multiple_of(2) {
        return unsliceable(cfg);
    }
    let mut report = analyze_with(&cfg.slice(), table, detail);
    report.subject = format!("double network, per-slice [{}]", report.subject);
    if detail == Detail::Full {
        report.findings.push(Finding::info(
            CheckKind::ProtocolSeparation,
            "double network: requests and replies ride physically disjoint slices, so \
             protocol-deadlock freedom holds regardless of the per-slice VC layout"
                .to_string(),
        ));
    }
    report
}

fn unsliceable(cfg: &NetworkConfig) -> VerifyReport {
    VerifyReport {
        subject: format!("double network of [{}]", subject_of(cfg)),
        findings: vec![Finding::violation(
            CheckKind::Config,
            format!("cannot channel-slice an odd channel width ({} B)", cfg.channel_bytes),
        )],
        stats: VerifyStats::default(),
    }
}

/// Memoized [`analyze`] verdict: `Err` carries the report of a
/// configuration that fails verification.
///
/// `NetworkConfig` is `PartialEq` but not `Hash`, and simulations build
/// the same handful of configurations over and over, so a small linear
/// memo is both simple and sufficient.
pub fn check_config(cfg: &NetworkConfig) -> Result<(), String> {
    type Memo = Vec<(NetworkConfig, Result<(), String>)>;
    static MEMO: Mutex<Memo> = Mutex::new(Vec::new());
    let mut memo = MEMO.lock().expect("verdict memo poisoned");
    if let Some((_, cached)) = memo.iter().find(|(c, _)| c == cfg) {
        return cached.clone();
    }
    let report = analyze(cfg);
    let result = if report.is_clean() { Ok(()) } else { Err(report.to_string()) };
    if memo.len() >= 64 {
        memo.clear();
    }
    memo.push((cfg.clone(), result.clone()));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenoc_noc::{RoutingKind, VcLayout};

    fn has_violation(report: &VerifyReport, check: CheckKind) -> bool {
        report.violations().any(|f| f.check == check)
    }

    #[test]
    fn baseline_mesh_is_clean() {
        let report = analyze(&NetworkConfig::baseline_mesh(6));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.stats.pairs, 36 * 35);
        assert_eq!(report.stats.unroutable_pairs, 0);
    }

    #[test]
    fn checkerboard_mesh_is_clean() {
        let report = analyze(&NetworkConfig::checkerboard_mesh(6));
        assert!(report.is_clean(), "{report}");
        assert!(report.stats.unroutable_pairs > 0, "odd-parity pairs must exist");
    }

    #[test]
    fn checkerboard_double_network_is_clean() {
        let report = analyze_double(&NetworkConfig::checkerboard_mesh(6));
        assert!(report.is_clean(), "{report}");
    }

    /// The acceptance case: checkerboard routing with one VC per class and
    /// no phase split must be flagged with a concrete dependency cycle.
    #[test]
    fn checkerboard_without_phase_split_reports_a_cycle() {
        let mut cfg = NetworkConfig::checkerboard_mesh(6);
        cfg.vcs = VcLayout::new(2, 2, false);
        let report = analyze(&cfg);
        assert!(!report.is_clean());
        assert!(has_violation(&report, CheckKind::Config), "validate() must also complain");
        assert!(
            has_violation(&report, CheckKind::RoutingDeadlock),
            "the CDG must be cyclic: {report}"
        );
        let deadlock = report
            .violations()
            .find(|f| f.check == CheckKind::RoutingDeadlock)
            .expect("deadlock violation present");
        assert!(deadlock.message.contains("cycle of length"), "{}", deadlock.message);
        assert!(deadlock.message.contains("->"), "cycle must list its edges");
    }

    #[test]
    fn baseline_torus_is_clean() {
        let report = analyze(&NetworkConfig::baseline_torus(6));
        assert!(report.is_clean(), "{report}");
        assert!(report.subject.contains("torus"), "{}", report.subject);
        assert!(report.subject.contains("dateline-split"), "{}", report.subject);
        // Wrap links are real channels: 4k^2 of them, each carrying VCs.
        assert!(report.stats.cdg_vertices > 0);
    }

    #[test]
    fn concentrated_mesh_is_clean() {
        let report = analyze(&NetworkConfig::concentrated_mesh(6, 2));
        assert!(report.is_clean(), "{report}");
        assert!(report.subject.contains("c-mesh (conc 2)"), "{}", report.subject);
    }

    /// The torus acceptance case, mirroring the checkerboard-without-
    /// phase-split witness: DOR on a torus without dateline VCs must be
    /// flagged with a concrete CDG cycle that crosses a wraparound link.
    #[test]
    fn torus_without_dateline_reports_a_cycle_crossing_the_wrap_link() {
        let mut cfg = NetworkConfig::baseline_torus(4);
        cfg.vcs = VcLayout::new(4, 2, false); // dateline split dropped
        let report = analyze(&cfg);
        assert!(!report.is_clean());
        assert!(has_violation(&report, CheckKind::Config), "validate() must also complain");
        assert!(
            has_violation(&report, CheckKind::RoutingDeadlock),
            "the ring CDG must be cyclic: {report}"
        );
        let deadlock = report
            .violations()
            .find(|f| f.check == CheckKind::RoutingDeadlock)
            .expect("deadlock violation present");
        assert!(deadlock.message.contains("cycle of length"), "{}", deadlock.message);
        // The cycle must traverse a wraparound edge: an edge whose source
        // sits on the grid rim and whose target is on the opposite rim.
        let k = 4;
        let rim = (k - 1).to_string();
        let wrap_patterns = [
            // East wrap: (k-1, y) -> (0, y); West wrap: (0, y) -> (k-1, y);
            // South wrap: (x, k-1) -> (x, 0); North wrap: (x, 0) -> (x, k-1).
            (0..k).map(|y| format!("({rim},{y})->(0,{y})")).collect::<Vec<_>>(),
            (0..k).map(|y| format!("(0,{y})->({rim},{y})")).collect(),
            (0..k).map(|x| format!("({x},{rim})->({x},0)")).collect(),
            (0..k).map(|x| format!("({x},0)->({x},{rim})")).collect(),
        ];
        let crosses_wrap =
            wrap_patterns.iter().flatten().any(|p| deadlock.message.contains(p.as_str()));
        assert!(crosses_wrap, "cycle must cross a wraparound link:\n{}", deadlock.message);
    }

    /// A single VC class shared by everything is just as deadlocked.
    #[test]
    fn checkerboard_single_shared_class_reports_a_cycle() {
        let mut cfg = NetworkConfig::checkerboard_mesh(6);
        cfg.vcs = VcLayout::new(2, 1, false);
        let report = analyze(&cfg);
        assert!(has_violation(&report, CheckKind::RoutingDeadlock), "{report}");
    }

    /// O1Turn needs its phase split for the same reason.
    #[test]
    fn o1turn_without_phase_split_reports_a_cycle() {
        let mut cfg = NetworkConfig::baseline_mesh(6);
        cfg.routing = RoutingKind::O1Turn;
        cfg.vcs = VcLayout::new(2, 2, false);
        let report = analyze(&cfg);
        assert!(has_violation(&report, CheckKind::RoutingDeadlock), "{report}");
    }

    /// O1Turn with phase-split VCs verifies clean on full meshes.
    #[test]
    fn o1turn_with_phase_split_is_clean() {
        let mut cfg = NetworkConfig::baseline_mesh(6);
        cfg.routing = RoutingKind::O1Turn;
        cfg.vcs = VcLayout::new(4, 2, true);
        let report = analyze(&cfg);
        assert!(report.is_clean(), "{report}");
    }

    /// An MC placed on a full router of a checkerboard mesh hits
    /// unroutable odd-parity pairs and must be flagged.
    #[test]
    fn mc_on_full_router_flagged_as_unroutable_placement() {
        let mut cfg = NetworkConfig::checkerboard_mesh(6);
        let full = cfg.mesh.nodes().find(|&n| !cfg.mesh.is_half(n)).expect("full router exists");
        cfg.mc_nodes = vec![full];
        let report = analyze(&cfg);
        assert!(has_violation(&report, CheckKind::Routability), "{report}");
        assert!(report.violations().any(|f| f.message.contains("MC placement")), "{report}");
    }

    #[test]
    fn structurally_broken_config_reports_config_violation_only() {
        let mut cfg = NetworkConfig::baseline_mesh(4);
        cfg.mc_nodes = vec![999];
        let report = analyze(&cfg);
        assert!(has_violation(&report, CheckKind::Config));
        assert_eq!(report.stats.pairs, 0, "no enumeration on unusable geometry");
    }

    #[test]
    fn report_display_is_readable() {
        let report = analyze(&NetworkConfig::baseline_mesh(4));
        let text = report.to_string();
        assert!(text.contains("CLEAN"), "{text}");
        assert!(text.contains("routing-deadlock"), "{text}");
        assert!(text.contains("acyclic"), "{text}");
    }
}
