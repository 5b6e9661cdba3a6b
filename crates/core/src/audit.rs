//! Static config-space audit: verification, load bounds and area in one
//! deterministic report.
//!
//! An audit is the free fidelity tier of the autotuner's staged search
//! (DESIGN §18): every candidate configuration is first
//! *verified* (illegal configurations are rejected with the prover's
//! witnesses), then *bounded* (per-matrix saturation-throughput upper
//! bounds and zero-load latency from `tenoc-verify`'s load analyzer),
//! then *priced* (ORION-calibrated chip area), and legal candidates are
//! ranked by a static throughput-effectiveness score — all without
//! simulating a single cycle. The `tenoc audit` subcommand serializes the
//! result as deterministic JSON suitable for golden-snapshot regression.

use crate::area::AreaModel;
use crate::pool::run_indexed;
use crate::presets::Preset;
use crate::system::IcntConfig;
use serde::Serialize;
use tenoc_noc::{NetworkConfig, PhysicalNets, VcLayout};
use tenoc_verify::load::{analyze_load_with, ClassZeroLoad, FabricLoad, LoadReport, TrafficMatrix};
use tenoc_verify::{analyze_double, analyze_physical_with, route_key, Detail, RouteTable};

/// Per-matrix static metrics of one audited configuration.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct MatrixMetrics {
    /// Matrix label (`uniform` / `transpose` / `many-to-few`).
    pub matrix: String,
    /// Saturation-throughput upper bound, in packets/cycle/source-node
    /// (see `tenoc_verify::load::demands` for the normalization).
    pub saturation_rate: f64,
    /// The bound in ejected flits/cycle/node (all nodes), the open-loop
    /// harness's accepted-throughput unit.
    pub accepted_bound: f64,
    /// Largest normalized resource load at unit injection scale.
    pub max_load: f64,
    /// The binding resource (for double networks, of the binding slice).
    pub bottleneck: String,
    /// The hottest physical channel, `"node dir"` (double networks: of
    /// the binding slice), or `"-"` when no channel carries load.
    pub hottest_channel: String,
    /// Zero-load latency bounds per class present in the matrix.
    pub zero_load: Vec<ClassZeroLoad>,
    /// Demands the routing function cannot deliver (non-zero only for
    /// synthetic all-to-all matrices on checkerboard meshes).
    pub demands_unroutable: usize,
}

impl MatrixMetrics {
    /// The fabric's combined bound with the binding slice's resource
    /// picture: the last slice at the largest `max_load` (a double
    /// network's reply slice on a tie).
    fn new(m: TrafficMatrix, load: FabricLoad) -> Self {
        let binding =
            load.slices.iter().reduce(|a, b| if b.max_load >= a.max_load { b } else { a });
        let binding = binding.expect("a fabric has a physical network");
        MatrixMetrics {
            matrix: m.label().to_string(),
            saturation_rate: load.saturation_rate,
            accepted_bound: load.accepted_bound,
            max_load: binding.max_load,
            bottleneck: binding.bottleneck.clone(),
            hottest_channel: hottest_label(binding),
            demands_unroutable: load.slices.iter().map(|r| r.demands_unroutable).sum(),
            zero_load: load.slices.into_iter().flat_map(|r| r.zero_load).collect(),
        }
    }
}

fn hottest_label(r: &LoadReport) -> String {
    match r.hottest_channels(1e-9).first() {
        Some(c) => format!("{} {}", c.node, c.dir),
        None => "-".to_string(),
    }
}

/// One audited configuration.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct AuditEntry {
    /// Configuration name (preset label, or the variant's name).
    pub name: String,
    /// The verifier's one-line subject of the underlying network config.
    pub subject: String,
    /// Whether verification found no violations.
    pub legal: bool,
    /// `true` for ideal (zero-area, zero-latency) networks, which are
    /// verified trivially and carry no load analysis.
    pub ideal: bool,
    /// Violation messages (with witnesses) for illegal configurations.
    pub violations: Vec<String>,
    /// Static load metrics per traffic matrix (legal, physical configs
    /// only — there is no point bounding an illegal fabric).
    pub matrices: Vec<MatrixMetrics>,
    /// Total chip area in mm² (ORION-calibrated model).
    pub area_mm2: f64,
    /// NoC share of the chip area in mm².
    pub noc_area_mm2: f64,
    /// Static throughput-effectiveness score: the many-to-few
    /// accepted-throughput bound per mm² of chip area (×1000 for
    /// readability). A *relative ranking* proxy for the paper's IPC/mm²
    /// — saturation bandwidth stands in for application throughput, so
    /// compare scores only against other entries of the same audit.
    pub te_score: f64,
}

impl AuditEntry {
    /// The metrics of one traffic matrix, when the entry was legal and
    /// physical (illegal and ideal entries carry no load analysis).
    pub fn matrix(&self, m: TrafficMatrix) -> Option<&MatrixMetrics> {
        self.matrices.iter().find(|x| x.matrix == m.label())
    }
}

/// A full config-space audit.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct AuditReport {
    /// Mesh radix the grid was audited at.
    pub k: u64,
    /// Audited configurations: legal physical entries first (ranked by
    /// descending `te_score`), then ideal networks, then illegal ones.
    pub entries: Vec<AuditEntry>,
}

impl AuditReport {
    /// Serializes the report to pretty JSON (deterministic: entry order,
    /// map order and float formatting are all stable).
    ///
    /// # Panics
    ///
    /// Never panics: the report is plain data.
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// The legal, physical (rankable) entries, best first.
    pub fn ranked(&self) -> impl Iterator<Item = &AuditEntry> {
        self.entries.iter().filter(|e| e.legal && !e.ideal)
    }
}

/// Audits one interconnect configuration under a given name, against
/// every traffic matrix: one route table, shared by the prover and every
/// load analysis.
pub fn audit_icnt(name: &str, icnt: &IcntConfig) -> AuditEntry {
    let matrices = &TrafficMatrix::ALL;
    match icnt.physical() {
        Ok(nets) => audit_on(name, icnt, Some((&nets, &RouteTable::new(&nets.net))), matrices),
        Err(_) => audit_on(name, icnt, None, matrices),
    }
}

/// The one grouped audit: each `(name, interconnect)` of `subjects`
/// against `matrices`, grouped by the [`route_key`] of the network it
/// routes on ([`IcntConfig::physical`]).
/// Each group builds one [`RouteTable`] on the pool (`jobs` workers),
/// audits its members on it and drops it. Returns the entries in
/// `subjects` order, each [`audit_icnt`]'s restricted to `matrices`
/// (`te_score` 0 without many-to-few), and the number of tables built.
pub fn audit_grouped(
    subjects: &[(&str, &IcntConfig)],
    matrices: &[TrafficMatrix],
    jobs: usize,
) -> (Vec<AuditEntry>, usize) {
    let (mut entries, mut nets) = (Vec::new(), Vec::new());
    for (i, &(name, icnt)) in subjects.iter().enumerate() {
        match icnt.physical() {
            Ok(n) => nets.push((i, n)),
            Err(_) => entries.push((i, audit_on(name, icnt, None, matrices))),
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (j, (_, n)) in nets.iter().enumerate() {
        match groups.iter_mut().find(|g| route_key(&nets[g[0]].1.net) == route_key(&n.net)) {
            Some(group) => group.push(j),
            None => groups.push(vec![j]),
        }
    }
    let audited = run_indexed(groups.len(), jobs, |g| {
        let table = RouteTable::new(&nets[groups[g][0]].1.net);
        let audit = |&j: &usize| {
            let (i, n) = &nets[j];
            (*i, audit_on(subjects[*i].0, subjects[*i].1, Some((n, &table)), matrices))
        };
        groups[g].iter().map(audit).collect::<Vec<_>>()
    });
    entries.extend(audited.into_iter().flatten());
    entries.sort_by_key(|&(i, _)| i);
    (entries.into_iter().map(|(_, entry)| entry).collect(), groups.len())
}

/// Audits `icnt` against `matrices` on its physical networks and a table
/// that routes their shape (the prover panics on another); `None` is a
/// double network that cannot slice, which [`analyze_double`] refuses
/// before any route is read.
fn audit_on(
    name: &str,
    icnt: &IcntConfig,
    fabric: Option<(&PhysicalNets, &RouteTable)>,
    matrices: &[TrafficMatrix],
) -> AuditEntry {
    let ideal = matches!(icnt, IcntConfig::Perfect(_) | IcntConfig::BwLimited(_, _));
    let verify = match fabric {
        Some((nets, table)) => analyze_physical_with(nets, table, Detail::Violations),
        None => analyze_double(icnt.net()),
    };
    let violations: Vec<String> = verify.violations().map(|f| f.to_string()).collect();
    let legal = violations.is_empty();

    let mut metrics = Vec::new();
    if let (Some((nets, table)), true) = (fabric, legal && !ideal) {
        for &m in matrices {
            metrics.push(MatrixMetrics::new(m, analyze_load_with(nets, table, m)));
        }
    }

    let area = AreaModel::chip_area(icnt);
    let m2f = metrics.iter().find(|x| x.matrix == TrafficMatrix::ManyToFew.label());
    AuditEntry {
        name: name.to_string(),
        subject: verify.subject,
        legal,
        ideal,
        violations,
        te_score: m2f.map_or(0.0, |m| 1000.0 * m.accepted_bound / area.total()),
        matrices: metrics,
        area_mm2: area.total(),
        noc_area_mm2: area.noc(),
    }
}

/// The default grid: every named preset, then three named illegal
/// variants so the audit demonstrates rejection-with-witness alongside
/// the ranking: a checkerboard network without phase-split VCs
/// (routing-deadlock cycle), O1TURN on a checkerboard mesh (illegal turns
/// at half-routers), and a torus without dateline VCs (ring cycle across
/// the wraparound links).
fn grid_subjects(k: usize) -> Vec<(String, IcntConfig)> {
    let mut unsplit = NetworkConfig::checkerboard_mesh(k);
    unsplit.vcs = VcLayout::new(2, 2, false);
    let mut o1turn = NetworkConfig::checkerboard_mesh(k);
    o1turn.routing = tenoc_noc::RoutingKind::O1Turn;
    let mut undated = NetworkConfig::baseline_torus(k);
    undated.vcs = VcLayout::new(4, 2, false);
    let mut grid: Vec<_> = Preset::NAMED.iter().map(|p| (p.label(), p.icnt(k))).collect();
    grid.extend([
        ("CR-unsplit-VCs".to_string(), IcntConfig::Mesh(unsplit)),
        ("O1TURN-on-CR-mesh".to_string(), IcntConfig::Mesh(o1turn)),
        ("Torus-no-dateline".to_string(), IcntConfig::Mesh(undated)),
    ]);
    grid
}

/// Audits the default grid (`grid_subjects`) on a `k x k` mesh against
/// every traffic matrix. Entries are ordered legal physical (by
/// descending score, ties by name), then ideal, then illegal.
pub fn audit_grid(k: usize) -> AuditReport {
    let grid = grid_subjects(k);
    let subjects: Vec<(&str, &IcntConfig)> =
        grid.iter().map(|(n, icnt)| (n.as_str(), icnt)).collect();
    let (mut entries, _) = audit_grouped(&subjects, &TrafficMatrix::ALL, 1);
    entries.sort_by(|a, b| {
        let class = |e: &AuditEntry| match (e.legal, e.ideal) {
            (true, false) => 0u8,
            (true, true) => 1,
            _ => 2,
        };
        class(a).cmp(&class(b)).then(b.te_score.total_cmp(&a.te_score)).then(a.name.cmp(&b.name))
    });
    AuditReport { k: k as u64, entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grouped audit of `audit_grid`'s entries, the illegal variants
    /// and `Perfect` included, equals a per-entry `audit_icnt` on all three
    /// matrices, field for field, at three radices; and it walks one table
    /// per route shape: 9 for the 18 entries.
    #[test]
    fn grouped_grid_audit_equals_per_entry_audits() {
        for k in [4, 6, 8] {
            let grid = grid_subjects(k);
            for name in ["Perfect", "CR-unsplit-VCs", "O1TURN-on-CR-mesh", "Torus-no-dateline"] {
                assert!(grid.iter().any(|(n, _)| n == name), "{name} is in the grid");
            }
            let subjects: Vec<(&str, &IcntConfig)> =
                grid.iter().map(|(n, icnt)| (n.as_str(), icnt)).collect();
            let (grouped, tables) = audit_grouped(&subjects, &TrafficMatrix::ALL, 2);
            assert_eq!((grid.len(), tables), (18, 9), "k = {k}: one table per route shape");
            assert_eq!(grouped.len(), grid.len());
            for ((name, icnt), entry) in grid.iter().zip(&grouped) {
                assert_eq!(entry, &audit_icnt(name, icnt), "{name} at k = {k}");
            }
        }
    }
}
