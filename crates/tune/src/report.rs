//! The tuner's reproducible frontier report.
//!
//! Everything the search decided — and everything it threw away — is
//! serialized here: per-stage candidate counts (no silent truncation of
//! the grid), rejection witnesses, promotion scores, the successive-
//! halving trace, the Pareto frontier with each point's resolved
//! configuration and telemetry heatmap, and where the paper's named
//! design points landed. The JSON is deterministic (stable entry order,
//! stable float formatting, no wall-clock fields), so a golden snapshot
//! pins the whole search end-to-end.

use serde::json::Value;
use serde::{Deserialize, Serialize};

/// Candidate counts per stage. The invariant `enumerated =
/// unconstructible + rejected + legal` (plus any out-of-grid pinned
/// reference points) makes grid truncation visible: every enumerated
/// point is accounted for somewhere.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridCounts {
    /// Grid points enumerated from the axes.
    pub enumerated: u64,
    /// Points no legal VC layout can express (builder witnesses).
    pub unconstructible: u64,
    /// Constructed candidates the verifier rejected (prover witnesses).
    pub rejected: u64,
    /// Verified candidates entering the stage-1 ranking.
    pub legal: u64,
    /// Pinned reference points injected from outside the grid.
    pub pinned_out_of_grid: u64,
    /// Candidates promoted to open-loop probing by static score.
    pub stage1_promoted: u64,
    /// Candidates promoted to closed-loop halving by probe score.
    pub stage2_promoted: u64,
    /// Closed-loop cells simulated (or served from cache) in stage 3.
    pub stage3_cells: u64,
    /// Candidates alive after the last halving rung.
    pub finalists: u64,
    /// Pareto-optimal finalists.
    pub frontier: u64,
}

/// One rejected grid point with its witnesses. Points sharing the exact
/// same witness set are merged (names are listed) to keep the report
/// readable without losing a single rejection.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Rejection {
    /// `unconstructible` (builder) or `verify` (prover).
    pub stage: String,
    /// The witness messages.
    pub witnesses: Vec<String>,
    /// Every grid point rejected with exactly these witnesses, in
    /// enumeration order.
    pub names: Vec<String>,
}

/// A stage-1 (static audit) ranking entry, recorded for every promoted
/// or pinned candidate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Stage1Entry {
    /// Candidate name.
    pub name: String,
    /// Preset labels resolving to the identical fabric.
    pub aliases: Vec<String>,
    /// Canonical hash of the resolved configuration.
    pub config_hash: String,
    /// Static throughput-effectiveness score (bound per mm², ×1000).
    pub te_score: f64,
    /// Many-to-few saturation bound, packets/cycle/source-node.
    pub saturation_rate: f64,
    /// The bound in ejected flits/cycle/node.
    pub accepted_bound: f64,
    /// Total chip area, mm².
    pub area_mm2: f64,
    /// NoC share of the chip area, mm².
    pub noc_area_mm2: f64,
    /// Promoted to stage 2 on score (pinned candidates ride along even
    /// when `false`).
    pub promoted: bool,
    /// Pinned reference point.
    pub pinned: bool,
}

/// A stage-2 (open-loop probe) entry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Stage2Entry {
    /// Candidate name.
    pub name: String,
    /// Fabric family (organization/routing/slicing). Promotion is
    /// stratified by family: each family's best first, then each
    /// family's second-best, and so on until the keep quota fills —
    /// open-loop saturation throughput ranks fairly *within* a family
    /// but under-prices area-lean families whose payoff is closed-loop.
    pub family: String,
    /// Probed injection rates, flits/cycle/node (multiples of the static
    /// saturation bound).
    pub rates: Vec<f64>,
    /// Measured steady-state ejection rate at each probed rate, in
    /// flits/cycle/node of the candidate's own fabric (half-width flits
    /// for double networks).
    pub ejection_rates: Vec<f64>,
    /// Measured steady-state ejection at each probed rate in payload
    /// bytes/cycle/node — width-independent, so comparable across
    /// candidates of different channel widths and slicings.
    pub ejection_bytes: Vec<f64>,
    /// Best measured ejection (bytes/cycle/node) per mm² of chip area,
    /// ×1000.
    pub probe_score: f64,
    /// Promoted to closed-loop halving on score.
    pub promoted: bool,
    /// Pinned reference point.
    pub pinned: bool,
}

/// One successive-halving rung.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Rung {
    /// Benchmark simulated at this rung.
    pub benchmark: String,
    /// Candidates entering the rung.
    pub entrants: u64,
    /// Candidates kept after re-ranking on cumulative IPC/mm² (pinned
    /// reference points always survive).
    pub survivors: Vec<String>,
}

/// Measured IPC of one finalist on one benchmark.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchIpc {
    /// Benchmark abbreviation.
    pub benchmark: String,
    /// Measured closed-loop IPC.
    pub ipc: f64,
    /// Mean network latency seen by the workload, cycles.
    pub avg_net_latency: f64,
}

/// A candidate that survived every halving rung.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Finalist {
    /// Candidate name.
    pub name: String,
    /// Preset labels resolving to the identical fabric.
    pub aliases: Vec<String>,
    /// Canonical hash of the resolved configuration.
    pub config_hash: String,
    /// Total chip area, mm².
    pub area_mm2: f64,
    /// Per-benchmark measured IPC, ladder order.
    pub per_bench: Vec<BenchIpc>,
    /// Harmonic-mean IPC over the ladder.
    pub hm_ipc: f64,
    /// The objective: harmonic-mean IPC per mm² of chip area.
    pub ipc_per_mm2: f64,
    /// Pinned reference point.
    pub pinned: bool,
}

/// A telemetry heatmap of one physical network of a frontier point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HeatmapReport {
    /// Network label (`net`, or `request`/`reply` for sliced fabrics).
    pub label: String,
    /// Benchmark the heatmap was captured on.
    pub benchmark: String,
    /// `heatmap[y][x]`: mean outgoing-link utilization of node `(x, y)`.
    pub heatmap: Vec<Vec<f64>>,
}

/// One Pareto-optimal design point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Candidate name.
    pub name: String,
    /// Preset labels resolving to the identical fabric.
    pub aliases: Vec<String>,
    /// Canonical hash of the resolved configuration — the fingerprint a
    /// re-run must reproduce.
    pub config_hash: String,
    /// Total chip area, mm².
    pub area_mm2: f64,
    /// NoC share of the chip area, mm².
    pub noc_area_mm2: f64,
    /// Harmonic-mean IPC over the ladder.
    pub hm_ipc: f64,
    /// The objective: harmonic-mean IPC per mm².
    pub ipc_per_mm2: f64,
    /// Static score the point entered the search with.
    pub te_score: f64,
    /// The resolved interconnect configuration, canonical field order.
    pub resolved: Value,
    /// Link-utilization heatmaps captured on the first ladder benchmark.
    pub heatmaps: Vec<HeatmapReport>,
}

/// Where one of the paper's named presets landed in the search.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NamedPoint {
    /// Preset label.
    pub preset: String,
    /// Grid candidate with the identical resolved configuration, or `-`
    /// when the preset lies outside the searched grid.
    pub candidate: String,
    /// How far it got: `not-in-grid`, `rejected`, `ranked`, `probed`,
    /// `halved`, or `finalist`.
    pub stage_reached: String,
    /// Whether it is one of the Pareto points.
    pub on_frontier: bool,
}

/// The full frontier report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TuneReport {
    /// Mesh radix searched.
    pub k: u64,
    /// Kernel scale of the closed-loop stage.
    pub scale: f64,
    /// Workload seed of the closed-loop stage.
    pub seed: u64,
    /// Successive-halving benchmark ladder, rung order.
    pub benchmarks: Vec<String>,
    /// Per-stage candidate accounting.
    pub counts: GridCounts,
    /// Every rejection, with witnesses.
    pub rejections: Vec<Rejection>,
    /// Static ranking of promoted and pinned candidates, best first.
    pub stage1: Vec<Stage1Entry>,
    /// Open-loop probe results, best first.
    pub stage2: Vec<Stage2Entry>,
    /// The successive-halving trace.
    pub rungs: Vec<Rung>,
    /// Candidates measured to the end of the ladder, best objective first.
    pub finalists: Vec<Finalist>,
    /// The IPC/mm² Pareto frontier, smallest area first.
    pub frontier: Vec<FrontierPoint>,
    /// Where the paper's named design points landed.
    pub named_points: Vec<NamedPoint>,
}

impl TuneReport {
    /// Serializes the report to pretty JSON (deterministic: entry order,
    /// map order and float formatting are all stable).
    ///
    /// # Panics
    ///
    /// Never panics: the report is plain data.
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Whether any frontier point resolves to the given preset label.
    pub fn frontier_has_alias(&self, label: &str) -> bool {
        self.frontier.iter().any(|p| p.aliases.iter().any(|a| a == label))
    }
}

/// Execution counters that deliberately live *outside* the report: cache
/// hits and simulated-cell counts vary with cache state, and the report
/// bytes must not.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneStats {
    /// Open-loop probes ticked.
    pub probes: usize,
    /// Open-loop probes served from the result cache instead.
    pub probe_cache_hits: usize,
    /// Closed-loop cells requested across all rungs.
    pub stage3_cells: usize,
    /// Of those, served from the result cache.
    pub stage3_cache_hits: usize,
    /// Route tables built in stage 0: one per distinct `(mesh, routing,
    /// VC layout)` the candidates route on.
    pub route_tables: usize,
    /// Frontier heatmaps captured by a traced re-run of their cell.
    pub heatmaps: usize,
    /// Frontier heatmaps served from the result cache instead.
    pub heatmap_cache_hits: usize,
}
