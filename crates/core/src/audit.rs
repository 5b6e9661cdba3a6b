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
use crate::presets::Preset;
use crate::system::IcntConfig;
use serde::Serialize;
use tenoc_noc::{NetworkConfig, VcLayout};
use tenoc_verify::load::{
    analyze_load_double_with, analyze_load_with, ClassZeroLoad, LoadReport, TrafficMatrix,
};
use tenoc_verify::{analyze_double_with, analyze_with, RouteTable, VerifyReport};

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
    fn from_report(r: &LoadReport) -> Self {
        MatrixMetrics {
            matrix: r.matrix.clone(),
            saturation_rate: r.saturation_rate,
            accepted_bound: r.accepted_bound,
            max_load: r.max_load,
            bottleneck: r.bottleneck.clone(),
            hottest_channel: hottest_label(r),
            zero_load: r.zero_load.clone(),
            demands_unroutable: r.demands_unroutable,
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

/// The physical network an interconnect routes its packets on: a double
/// network's slice, otherwise the carried network. Its
/// [`route_key`](tenoc_verify::route_key) decides which interconnects can
/// share one [`RouteTable`]. (A double network whose channel cannot be
/// sliced is rejected before any route is read; it keys on its carried
/// network.)
pub fn route_net(icnt: &IcntConfig) -> NetworkConfig {
    match icnt {
        IcntConfig::Double(c) if c.channel_bytes.is_multiple_of(2) => c.slice(),
        _ => icnt.net().clone(),
    }
}

/// Audits one interconnect configuration under a given name: one route
/// table, shared by the prover and every load analysis.
pub fn audit_icnt(name: &str, icnt: &IcntConfig) -> AuditEntry {
    audit_icnt_with(name, icnt, &RouteTable::new(&route_net(icnt)))
}

/// [`audit_icnt`] on a route table built from `route_net(icnt)` (or any
/// network with its route key), so interconnects that route alike share
/// one walk of their routes.
///
/// # Panics
///
/// Panics if `table` routes a different shape than `route_net(icnt)`.
pub fn audit_icnt_with(name: &str, icnt: &IcntConfig, table: &RouteTable) -> AuditEntry {
    let net = icnt.net();
    let ideal = matches!(icnt, IcntConfig::Perfect(_) | IcntConfig::BwLimited(_, _));
    let verify: VerifyReport = match icnt {
        IcntConfig::Double(c) => analyze_double_with(c, table),
        _ => analyze_with(net, table),
    };
    let legal = verify.violations().next().is_none();
    let violations = verify.violations().map(|f| f.to_string()).collect();

    let mut matrices = Vec::new();
    if legal && !ideal {
        for m in TrafficMatrix::ALL {
            matrices.push(match icnt {
                IcntConfig::Double(c) => {
                    let d = analyze_load_double_with(c, table, m);
                    // Report the binding slice's resource picture with the
                    // combined bound.
                    let binding =
                        if d.reply.max_load >= d.request.max_load { &d.reply } else { &d.request };
                    let mut zero_load = d.request.zero_load.clone();
                    zero_load.extend(d.reply.zero_load.iter().cloned());
                    MatrixMetrics {
                        matrix: m.label().to_string(),
                        saturation_rate: d.saturation_rate,
                        accepted_bound: d.accepted_bound,
                        max_load: binding.max_load,
                        bottleneck: binding.bottleneck.clone(),
                        hottest_channel: hottest_label(binding),
                        zero_load,
                        demands_unroutable: d.request.demands_unroutable
                            + d.reply.demands_unroutable,
                    }
                }
                _ => MatrixMetrics::from_report(&analyze_load_with(net, table, m)),
            });
        }
    }

    let area = AreaModel::chip_area(icnt);
    let mut entry = AuditEntry {
        name: name.to_string(),
        subject: verify.subject.clone(),
        legal,
        ideal,
        violations,
        matrices,
        area_mm2: area.total(),
        noc_area_mm2: area.noc(),
        te_score: 0.0,
    };
    entry.te_score = entry
        .matrix(TrafficMatrix::ManyToFew)
        .map(|m| 1000.0 * m.accepted_bound / area.total())
        .unwrap_or(0.0);
    entry
}

/// Named illegal variants included in the default grid so the audit
/// demonstrates rejection-with-witness alongside the ranking: a
/// checkerboard network without phase-split VCs (routing-deadlock cycle),
/// O1TURN on a checkerboard mesh (illegal turns at half-routers), and a
/// torus without dateline VCs (ring cycle across the wraparound links).
pub(crate) fn illegal_variants(k: usize) -> Vec<(String, IcntConfig)> {
    let mut unsplit = NetworkConfig::checkerboard_mesh(k);
    unsplit.vcs = VcLayout::new(2, 2, false);
    let mut o1turn = NetworkConfig::checkerboard_mesh(k);
    o1turn.routing = tenoc_noc::RoutingKind::O1Turn;
    let mut undated = NetworkConfig::baseline_torus(k);
    undated.vcs = VcLayout::new(4, 2, false);
    vec![
        ("CR-unsplit-VCs".to_string(), IcntConfig::Mesh(unsplit)),
        ("O1TURN-on-CR-mesh".to_string(), IcntConfig::Mesh(o1turn)),
        ("Torus-no-dateline".to_string(), IcntConfig::Mesh(undated)),
    ]
}

/// Audits the default grid: every named preset plus the
/// `illegal_variants`, on a `k x k` mesh. Entries are ordered legal
/// physical (by descending score, ties by name), then ideal, then
/// illegal.
pub fn audit_grid(k: usize) -> AuditReport {
    let mut entries = Vec::new();
    for p in Preset::NAMED {
        entries.push(audit_icnt(&p.label(), &p.icnt(k)));
    }
    for (name, icnt) in illegal_variants(k) {
        entries.push(audit_icnt(&name, &icnt));
    }
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
