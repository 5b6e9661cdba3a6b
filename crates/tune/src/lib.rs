//! # tenoc-tune — staged-fidelity search of the IPC/mm² Pareto frontier
//!
//! The paper's thesis is that *throughput-effective* networks — the ones
//! that maximize application throughput per mm² of chip area — are found
//! by co-designing topology, MC placement, routing and channel
//! organization, not by maximizing any single network metric. This crate
//! turns that claim into a search: it enumerates a deterministic grid of
//! [`DesignPoint`]s, the space the presets are named points of, over every
//! axis the repository models and drives each candidate through four
//! fidelity tiers, spending simulation cycles only on candidates that
//! static analysis cannot already rule out:
//!
//! - **Stage 0 — construct + verify (free):** grid points that violate
//!   VC-layout rules are rejected by the builder with a witness; the
//!   rest are run through `tenoc-verify`'s prover, and illegal fabrics
//!   are rejected with the prover's witnesses. Every rejection is
//!   recorded in the report. Candidates that route alike share one
//!   route table, so the grid's routes are walked once per shape.
//! - **Stage 1 — static rank (cheap):** survivors are ranked by the
//!   audit's static throughput-effectiveness score (the many-to-few
//!   `accepted_bound` per mm², in ejected flits of each candidate's own
//!   width, so candidates of different flit widths do not compare
//!   alike) and the best are promoted.
//! - **Stage 2 — open-loop probes (medium):** promoted candidates are
//!   probed at a few injection rates around their static bound, each
//!   probe run to the end of its measurement window on the candidate's
//!   own fabric; the best measured steady-state ejection rate per mm²
//!   decides promotion. Probes run highest rate first, and a lower-rate
//!   probe stops as soon as a sound bound shows it cannot beat its
//!   candidate's best so far, so it could not have moved the score.
//! - **Stage 3 — closed-loop halving (expensive):** survivors race
//!   through a successive-halving ladder of full closed-loop benchmark
//!   simulations, and the finalists' measured harmonic-mean IPC per mm²
//!   defines the Pareto frontier.
//!
//! Stages 2 and 3 and the frontier's telemetry heatmaps are the work
//! that ticks a simulator, and all three go through `tenoc-harness`'s
//! content-addressed, versioned result store ([`tenoc_harness::memoize`]):
//! given a cache directory, a probe, cell or heatmap measured once is
//! never measured again until the model version moves.
//!
//! Pinned reference designs (the baseline mesh, the torus, the
//! concentrated mesh) ride through every stage regardless of rank so the
//! final report can place them against the frontier. A preset is matched
//! to its grid candidate by design point ([`Preset::point`]), never by
//! comparing resolved configs. The whole search is
//! **bit-deterministic at any worker count**: candidate enumeration is
//! ordered, every tie-break is total, probe seeds derive from the spec
//! seed and the multiplier index (every candidate shares one stream per
//! multiplier), and the report carries no wall-clock or cache-state
//! fields.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
mod space;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

pub use report::{
    BenchIpc, Finalist, FrontierPoint, GridCounts, HeatmapReport, NamedPoint, Rejection, Rung,
    Stage1Entry, Stage2Entry, StageWall, TuneReport, TuneStats,
};
pub use space::{config_hash, Candidate};
pub use tenoc_core::Org;

use serde::Serialize;
use tenoc_core::experiments::run_traced_with_system_config;
use tenoc_core::{
    audit_grouped, harmonic_mean, AuditEntry, DesignPoint, EngineKind, IcntConfig, Preset,
    TelemetryConfig,
};
use tenoc_harness::{
    canonicalize, config_cell_key, heatmap_key, memoize, probe_key, run_config_cell, CachedCell,
    ConfigCell, DiskCache, Heatmaps,
};
use tenoc_noc::openloop::{run_open_loop_on, run_open_loop_unless, OpenLoopConfig, TrafficPattern};
use tenoc_noc::RoutingKind;
use tenoc_verify::load::TrafficMatrix;

/// One organization axis of the grid: a topology/placement paired with
/// the routing functions to try on it.
#[derive(Clone, Debug)]
pub struct OrgAxis {
    /// Topology + MC placement.
    pub org: Org,
    /// Routing functions enumerated for this organization.
    pub routings: Vec<RoutingKind>,
}

/// The search specification: grid axes plus stage knobs. Everything that
/// shapes the report lives here; everything about *how fast* the search
/// runs (worker count, caching) lives in [`TuneOptions`].
#[derive(Clone, Debug)]
pub struct TuneSpec {
    /// Mesh radix.
    pub k: usize,
    /// Organization × routing axes.
    pub axes: Vec<OrgAxis>,
    /// Total VC counts to try.
    pub vc_totals: Vec<u8>,
    /// Per-VC buffer depths (flits) to try.
    pub vc_depths: Vec<usize>,
    /// Channel widths (bytes) to try.
    pub channel_bytes: Vec<u32>,
    /// Channel slicings to try: `false` = one full-width network,
    /// `true` = two half-width slices.
    pub slicings: Vec<bool>,
    /// `[inject, eject]` MC port counts to try.
    pub mc_ports: Vec<[usize; 2]>,
    /// Candidates promoted from the static ranking to open-loop probing.
    pub stage1_keep: usize,
    /// Candidates promoted from probing to closed-loop halving. The
    /// promotion is stratified by fabric family (organization/routing/
    /// slicing): each family's best candidate first, then each family's
    /// second-best, and so on, score-ordered within a depth, until the
    /// quota fills.
    pub stage2_keep: usize,
    /// Probe injection rates, as multiples of each candidate's static
    /// many-to-few saturation bound. Each must be finite and positive.
    pub probe_multipliers: Vec<f64>,
    /// Open-loop probe windows: `[warmup, measure]` cycles. A probe
    /// stops at the end of its measurement window: the tuner reads only
    /// the in-window ejection rates, which no later cycle can change.
    /// The measurement window must not be empty.
    pub probe_windows: [u64; 2],
    /// Successive-halving benchmark ladder (rung order). Must not be
    /// empty.
    pub benchmarks: Vec<String>,
    /// Kernel scale for the closed-loop stage.
    pub scale: f64,
    /// Workload seed for the closed-loop stage (shared by every cell, so
    /// tuner cells hit the same cache addresses as fixed-seed sweeps).
    pub seed: u64,
    /// Reference presets carried through every stage un-eliminated.
    pub pinned: Vec<Preset>,
}

impl TuneSpec {
    /// The default search at radix `k`: every organization the
    /// repository models, the paper's channel/VC/port axes, and the
    /// smoke-suite benchmark ladder. About 480 grid points.
    pub fn default_at(k: usize) -> Self {
        TuneSpec {
            k,
            axes: Org::ALL
                .iter()
                .map(|&org| OrgAxis { org, routings: space::default_routings(org) })
                .collect(),
            vc_totals: vec![2, 4],
            vc_depths: vec![4, 8],
            channel_bytes: vec![16, 32],
            slicings: vec![false, true],
            mc_ports: vec![[1, 1], [2, 1], [2, 2]],
            stage1_keep: 32,
            stage2_keep: 16,
            probe_multipliers: vec![0.6, 0.9, 1.3],
            probe_windows: [1_000, 4_500],
            benchmarks: vec!["HIS".to_string(), "MM".to_string(), "RD".to_string()],
            scale: 0.12,
            seed: tenoc_core::DEFAULT_SEED,
            pinned: vec![Preset::BaselineTbDor, Preset::TorusDor, Preset::CMeshDor],
        }
    }

    /// A deliberately small search for tests: two organizations, one
    /// rung, tiny probe windows — but still containing the paper's
    /// throughput-effective point. 16 grid points.
    pub fn tiny() -> Self {
        TuneSpec {
            k: 6,
            axes: vec![
                OrgAxis { org: Org::CbMeshCp, routings: vec![RoutingKind::Checkerboard] },
                OrgAxis { org: Org::MeshTb, routings: vec![RoutingKind::DorXy] },
            ],
            vc_totals: vec![2, 4],
            vc_depths: vec![8],
            channel_bytes: vec![16],
            slicings: vec![false, true],
            mc_ports: vec![[1, 1], [2, 1]],
            stage1_keep: 6,
            stage2_keep: 4,
            probe_multipliers: vec![0.5, 1.0],
            probe_windows: [200, 600],
            benchmarks: vec!["HIS".to_string()],
            scale: 0.02,
            seed: tenoc_core::DEFAULT_SEED,
            pinned: vec![Preset::BaselineTbDor],
        }
    }
}

impl TuneSpec {
    /// Every grid point, in enumeration order (organization, routing, VCs,
    /// depth, channel width, slicing, MC ports — last axis fastest).
    fn points(&self) -> Vec<DesignPoint> {
        let mut points = Vec::new();
        for axis in &self.axes {
            for &routing in &axis.routings {
                for &vc_total in &self.vc_totals {
                    for &vc_depth in &self.vc_depths {
                        for &channel_bytes in &self.channel_bytes {
                            for &double in &self.slicings {
                                for &[mc_inject, mc_eject] in &self.mc_ports {
                                    points.push(DesignPoint {
                                        org: axis.org,
                                        routing,
                                        vc_total,
                                        vc_depth,
                                        channel_bytes,
                                        double,
                                        mc_inject,
                                        mc_eject,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }
}

/// Execution knobs that must not change a single report byte: worker
/// count and result caching.
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Worker threads for every parallel stage.
    pub jobs: usize,
    /// Directory of a persistent result cache shared with `tenoc serve`
    /// (open-loop probes and closed-loop cells are keyed by canonical
    /// content address, so re-runs and preset sweeps are memoized across
    /// processes).
    pub cache_dir: Option<PathBuf>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions { jobs: 1, cache_dir: None }
    }
}

/// How far a candidate got, for the named-point placement table.
#[derive(Copy, Clone, PartialEq, Debug)]
enum Reached {
    Rejected,
    Ranked,
    Probed,
    Halved,
    Finalist,
}

impl Reached {
    fn label(self) -> &'static str {
        match self {
            Reached::Rejected => "rejected",
            Reached::Ranked => "ranked",
            Reached::Probed => "probed",
            Reached::Halved => "halved",
            Reached::Finalist => "finalist",
        }
    }
}

/// Whether `c` is preset `p`'s fabric: the candidate built from `p`'s
/// design point, or — for a preset no point expresses — `p`'s own pinned
/// candidate.
fn is_preset(c: &Candidate, p: &Preset) -> bool {
    match p.point() {
        Some(point) => c.point == Some(point),
        None => c.name == format!("pin:{}", p.label()),
    }
}

/// Appends a rejection, merging points that share the exact witness set.
fn push_rejection(
    rejections: &mut Vec<Rejection>,
    stage: &str,
    witnesses: Vec<String>,
    name: &str,
) {
    if let Some(r) = rejections.iter_mut().find(|r| r.stage == stage && r.witnesses == witnesses) {
        r.names.push(name.to_string());
        return;
    }
    rejections.push(Rejection {
        stage: stage.to_string(),
        witnesses,
        names: vec![name.to_string()],
    });
}

/// The open-loop probes of one candidate, one per probe multiplier.
///
/// A probe's traffic seed is a function of the spec seed and the
/// multiplier index alone: every candidate probed at one multiplier sees
/// the same random stream (common random numbers), so two candidates'
/// scores differ more by their fabrics and less by their draws, and no
/// probe's traffic depends on enumeration position.
fn probe_configs(cand: &Candidate, audit: &AuditEntry, spec: &TuneSpec) -> Vec<OpenLoopConfig> {
    // A probed candidate is legal and routes its memory traffic, so its
    // audit always carries the many-to-few matrix.
    let sat = audit
        .matrix(TrafficMatrix::ManyToFew)
        .unwrap_or_else(|| panic!("{}: probed without a many-to-few matrix", cand.name))
        .saturation_rate;
    let [warmup, measure] = spec.probe_windows;
    spec.probe_multipliers
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mut cfg = OpenLoopConfig::new(
                cand.icnt.net().clone(),
                m * sat,
                TrafficPattern::UniformRandom,
            );
            cfg.warmup = warmup;
            cfg.measure = measure;
            cfg.drain = 0;
            cfg.seed = tenoc_harness::cell_seed(spec.seed, i as u64);
            cfg
        })
        .collect()
}

/// Stage 0b: the grouped audit of every candidate against the one matrix
/// stage 1 and the probes read, many-to-few. Returns the audits in
/// candidate order and the number of route tables built.
fn audit_stage(cands: &[Candidate], jobs: usize) -> (Vec<AuditEntry>, usize) {
    let subjects: Vec<(&str, &IcntConfig)> =
        cands.iter().map(|c| (c.name.as_str(), &c.icnt)).collect();
    audit_grouped(&subjects, &[TrafficMatrix::ManyToFew], jobs)
}

/// The Pareto frontier of `(area ↓, hm_ipc ↑)` over the finalists:
/// smallest area first, strictly increasing harmonic-mean IPC.
fn pareto_indices(finalists: &[Finalist]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..finalists.len()).collect();
    order.sort_by(|&a, &b| {
        finalists[a]
            .area_mm2
            .total_cmp(&finalists[b].area_mm2)
            .then(finalists[b].hm_ipc.total_cmp(&finalists[a].hm_ipc))
            .then(finalists[a].name.cmp(&finalists[b].name))
    });
    let mut best = f64::NEG_INFINITY;
    let mut keep = Vec::new();
    for i in order {
        if finalists[i].hm_ipc > best {
            best = finalists[i].hm_ipc;
            keep.push(i);
        }
    }
    keep
}

/// Runs the staged search and returns the frontier report plus the
/// execution counters that deliberately stay out of it.
///
/// The report is bit-identical at any `jobs` value and with any cache
/// state (cold, warm, or absent).
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidInput`], naming the field, before
/// any stage runs if the benchmark ladder is empty or names an unknown
/// benchmark, if the probe measurement window is zero cycles, or if a
/// probe multiplier is not finite and positive; otherwise only
/// result-cache I/O failures.
///
/// # Panics
///
/// Panics if a closed-loop cell hits the safety cycle limit.
pub fn run_tune(spec: &TuneSpec, opts: &TuneOptions) -> std::io::Result<(TuneReport, TuneStats)> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
    if spec.benchmarks.is_empty() {
        return Err(invalid("benchmarks: the ladder must not be empty".to_string()));
    }
    if spec.probe_windows[1] == 0 {
        return Err(invalid("probe_windows: the measurement window must not be empty".to_string()));
    }
    if let Some(m) = spec.probe_multipliers.iter().find(|m| !(m.is_finite() && **m > 0.0)) {
        return Err(invalid(format!("probe_multipliers: {m} is not finite and positive")));
    }
    let ladder = spec
        .benchmarks
        .iter()
        .map(|b| {
            tenoc_workloads::by_name(b)
                .ok_or_else(|| invalid(format!("unknown benchmark {b}; see `tenoc list`")))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let jobs = opts.jobs.max(1);
    let mut stats = TuneStats::default();
    let mut clock = Instant::now();
    let mut lap = || std::mem::replace(&mut clock, Instant::now()).elapsed();
    let mut rejections: Vec<Rejection> = Vec::new();

    // ---- Stage 0a: enumerate and construct -------------------------------
    let mut enumerated: u64 = 0;
    let mut unconstructible: u64 = 0;
    let mut cands: Vec<Candidate> = Vec::new();
    for p in spec.points() {
        enumerated += 1;
        match Candidate::from_point(p, spec.k) {
            Ok(cand) => cands.push(cand),
            Err(witness) => {
                unconstructible += 1;
                push_rejection(&mut rejections, "unconstructible", vec![witness], &p.name());
            }
        }
    }

    // ---- Pinned reference points and preset aliases ----------------------
    let mut pinned_out_of_grid: u64 = 0;
    for p in &spec.pinned {
        match cands.iter_mut().find(|c| is_preset(c, p)) {
            Some(c) => c.pinned = true,
            None => {
                pinned_out_of_grid += 1;
                let (name, icnt) = (format!("pin:{}", p.label()), p.icnt(spec.k));
                cands.push(Candidate {
                    family: name.clone(),
                    name,
                    point: p.point(),
                    icnt,
                    aliases: Vec::new(),
                    pinned: true,
                });
            }
        }
    }
    for c in &mut cands {
        c.aliases = Preset::NAMED.iter().filter(|p| is_preset(c, p)).map(Preset::label).collect();
    }

    // ---- Stage 0b: verify; Stage 1: static rank --------------------------
    let (audits, route_tables) = audit_stage(&cands, jobs);
    stats.route_tables = route_tables;
    let mut reached: Vec<Reached> = vec![Reached::Rejected; cands.len()];
    let mut legal: Vec<usize> = Vec::new();
    for (i, a) in audits.iter().enumerate() {
        if !a.legal {
            push_rejection(&mut rejections, "verify", a.violations.clone(), &cands[i].name);
            continue;
        }
        let unroutable =
            a.matrix(TrafficMatrix::ManyToFew).map(|m| m.demands_unroutable).unwrap_or(0);
        if unroutable > 0 {
            push_rejection(
                &mut rejections,
                "unroutable",
                vec![format!(
                    "{unroutable} many-to-few demands have no legal path; the fabric \
                     cannot serve its own memory traffic"
                )],
                &cands[i].name,
            );
            continue;
        }
        reached[i] = Reached::Ranked;
        legal.push(i);
    }
    let rejected = cands.len() as u64 - legal.len() as u64;

    legal.sort_by(|&a, &b| {
        audits[b].te_score.total_cmp(&audits[a].te_score).then(cands[a].name.cmp(&cands[b].name))
    });
    let stage1_cut: Vec<usize> = legal.iter().copied().take(spec.stage1_keep).collect();
    let probe_set: Vec<usize> =
        legal.iter().copied().filter(|&i| stage1_cut.contains(&i) || cands[i].pinned).collect();
    let stage1: Vec<Stage1Entry> = probe_set
        .iter()
        .map(|&i| {
            let a = &audits[i];
            let m2f = a.matrix(TrafficMatrix::ManyToFew);
            Stage1Entry {
                name: cands[i].name.clone(),
                aliases: cands[i].aliases.clone(),
                config_hash: config_hash(&cands[i].icnt),
                te_score: a.te_score,
                saturation_rate: m2f.map(|m| m.saturation_rate).unwrap_or(0.0),
                accepted_bound: m2f.map(|m| m.accepted_bound).unwrap_or(0.0),
                area_mm2: a.area_mm2,
                noc_area_mm2: a.noc_area_mm2,
                promoted: stage1_cut.contains(&i),
                pinned: cands[i].pinned,
            }
        })
        .collect();

    stats.wall.verify_rank = lap();

    // ---- Stage 2: open-loop probes ---------------------------------------
    for &i in &probe_set {
        reached[i] = Reached::Probed;
    }
    let mut cache = match &opts.cache_dir {
        Some(dir) => Some(DiskCache::open(dir)?),
        None => None,
    };
    if let Some(warning) = cache.as_ref().and_then(DiskCache::replay_warning) {
        eprintln!("tune: {warning}");
    }
    // Probes drive the candidate's *actual* fabric: a double candidate
    // is probed on its two half-width slices, not on the unsliced base
    // (which would cap its measured ejection at the single-network
    // capacity and structurally penalize every sliced design) — and is
    // addressed by its `IcntConfig`, which tells the two apart. Fabrics
    // of different channel widths eject different flit counts for the
    // same payload, so cross-candidate comparison happens on the
    // width-independent `ejection_bytes_rate`.
    let configs: Vec<Vec<OpenLoopConfig>> =
        probe_set.iter().map(|&i| probe_configs(&cands[i], &audits[i], spec)).collect();
    // One `memoize` pass per multiplier, highest rate first. A score is
    // the best ejection over its candidate's probes, so a lower-rate probe
    // asks only whether it can beat the best of the higher-rate ones
    // (`beat`), and stops as soon as its bound says it cannot: a cut probe
    // could not have moved the score, and every probe that is not cut
    // runs exactly as an unbounded one would.
    let m = &spec.probe_multipliers;
    let mut passes: Vec<usize> = (0..m.len()).collect();
    passes.sort_by(|&a, &b| m[b].total_cmp(&m[a]).then(a.cmp(&b)));
    let mut answers = vec![vec![None; m.len()]; probe_set.len()];
    let mut beat: Vec<Option<f64>> = vec![None; probe_set.len()];
    for r in passes {
        let keys: Vec<String> = (0..probe_set.len())
            .map(|j| probe_key(&cands[probe_set[j]].icnt, &configs[j][r], beat[j]))
            .collect();
        let (answered, hits) = memoize(cache.as_mut(), &keys, jobs, |j| {
            let net = &mut *cands[probe_set[j]].icnt.build(EngineKind::Arena);
            match beat[j] {
                None => Some(run_open_loop_on(&configs[j][r], net)),
                Some(b) => run_open_loop_unless(&configs[j][r], net, b),
            }
        })?;
        stats.probes += keys.len() - hits;
        stats.probe_cache_hits += hits;
        for (j, answer) in answered.into_iter().enumerate() {
            match answer.map(|probe| probe.ejection_bytes_rate) {
                Some(rate) => beat[j] = Some(beat[j].map_or(rate, |b| b.max(rate))),
                None => stats.probes_cut += 1,
            }
            answers[j][r] = answer;
        }
    }
    let mut stage2: Vec<Stage2Entry> = probe_set
        .iter()
        .zip(&configs)
        .zip(&answers)
        .map(|((&i, cfgs), answers)| {
            let measured = answers.iter().flatten();
            let best = measured.map(|r| r.ejection_bytes_rate).fold(0.0, f64::max);
            Stage2Entry {
                name: cands[i].name.clone(),
                family: cands[i].family.clone(),
                rates: cfgs.iter().map(|cfg| cfg.injection_rate).collect(),
                ejection_rates: answers.iter().map(|a| a.map(|r| r.ejection_rate)).collect(),
                ejection_bytes: answers.iter().map(|a| a.map(|r| r.ejection_bytes_rate)).collect(),
                probe_score: 1000.0 * best / audits[i].area_mm2,
                promoted: false,
                pinned: cands[i].pinned,
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..stage2.len()).collect();
    order.sort_by(|&a, &b| {
        stage2[b]
            .probe_score
            .total_cmp(&stage2[a].probe_score)
            .then(stage2[a].name.cmp(&stage2[b].name))
    });
    // Stratified promotion: every family's best candidate first, then
    // every family's second-best, and so on (score order within each
    // depth) until `stage2_keep` slots are filled. Open-loop saturation
    // throughput prices fabric families very differently from the
    // closed-loop objective — a sliced network trades peak reply
    // bandwidth for area, which only pays off below saturation — so a
    // global top-N here would let one family flood the cut and starve
    // exactly the designs the closed-loop stage exists to measure.
    let mut family_depth: HashMap<&str, usize> = HashMap::new();
    let mut depth_pools: Vec<Vec<usize>> = Vec::new();
    for &j in &order {
        let d = family_depth.entry(stage2[j].family.as_str()).or_insert(0);
        if depth_pools.len() == *d {
            depth_pools.push(Vec::new());
        }
        depth_pools[*d].push(j);
        *d += 1;
    }
    let mut slots = spec.stage2_keep;
    'promote: for pool in &depth_pools {
        for &j in pool {
            if slots == 0 {
                break 'promote;
            }
            stage2[j].promoted = true;
            slots -= 1;
        }
    }
    let mut alive: Vec<usize> = order
        .iter()
        .filter(|&&j| stage2[j].promoted || stage2[j].pinned)
        .map(|&j| probe_set[j])
        .collect();
    let stage2_promoted = alive.len() as u64;
    stage2.sort_by(|a, b| b.probe_score.total_cmp(&a.probe_score).then(a.name.cmp(&b.name)));
    stats.wall.probes = lap();

    // ---- Stage 3: successive halving over the benchmark ladder -----------
    let mut per_bench: HashMap<usize, Vec<BenchIpc>> = HashMap::new();
    let mut rungs: Vec<Rung> = Vec::new();
    let mut stage3_cells: u64 = 0;
    for (r, bench) in spec.benchmarks.iter().enumerate() {
        for &i in &alive {
            reached[i] = Reached::Halved;
        }
        let cells: Vec<ConfigCell> = alive
            .iter()
            .map(|&i| ConfigCell {
                icnt: cands[i].icnt.clone(),
                benchmark: bench.clone(),
                scale: spec.scale,
                seed: spec.seed,
            })
            .collect();
        stage3_cells += cells.len() as u64;
        stats.stage3_cells += cells.len();
        let keys: Vec<String> = cells.iter().map(config_cell_key).collect();
        let (measured, hits) = memoize(cache.as_mut(), &keys, jobs, |j| {
            let (class, metrics) = run_config_cell(&cells[j]);
            CachedCell { class, metrics }
        })?;
        stats.stage3_cache_hits += hits;
        for (&i, cell) in alive.iter().zip(&measured) {
            per_bench.entry(i).or_default().push(BenchIpc {
                benchmark: bench.clone(),
                ipc: cell.metrics.ipc,
                avg_net_latency: cell.metrics.avg_net_latency,
            });
        }
        // Re-rank on the objective measured so far and halve the field
        // (pinned reference points always survive; the last rung keeps
        // everyone — its entrants are the finalists).
        alive.sort_by(|&a, &b| {
            let obj =
                |i: usize| harmonic_mean(per_bench[&i].iter().map(|x| x.ipc)) / audits[i].area_mm2;
            obj(b).total_cmp(&obj(a)).then(cands[a].name.cmp(&cands[b].name))
        });
        if r + 1 < spec.benchmarks.len() {
            let open = alive.iter().filter(|&&i| !cands[i].pinned).count();
            let keep = open.div_ceil(2).max(2.min(open));
            let mut kept = 0usize;
            alive.retain(|&i| {
                if cands[i].pinned {
                    return true;
                }
                kept += 1;
                kept <= keep
            });
        }
        rungs.push(Rung {
            benchmark: bench.clone(),
            entrants: cells.len() as u64,
            survivors: alive.iter().map(|&i| cands[i].name.clone()).collect(),
        });
    }

    stats.wall.cells = lap();

    // ---- Finalists and the frontier --------------------------------------
    for &i in &alive {
        reached[i] = Reached::Finalist;
    }
    let finalists: Vec<Finalist> = alive
        .iter()
        .map(|&i| {
            let per = per_bench[&i].clone();
            let hm = harmonic_mean(per.iter().map(|x| x.ipc));
            // Every finalist was probed, so stage 1 hashed it.
            let probed = probe_set.iter().position(|&p| p == i).expect("a probed candidate");
            Finalist {
                name: cands[i].name.clone(),
                aliases: cands[i].aliases.clone(),
                config_hash: stage1[probed].config_hash.clone(),
                area_mm2: audits[i].area_mm2,
                per_bench: per,
                hm_ipc: hm,
                ipc_per_mm2: hm / audits[i].area_mm2,
                pinned: cands[i].pinned,
            }
        })
        .collect();
    let frontier_idx = pareto_indices(&finalists);

    // Telemetry heatmaps for each frontier point, captured on the first
    // ladder benchmark (telemetry observes without perturbing, so this
    // re-run measures exactly the cell stage 3 scored) and memoized at
    // that cell's heatmap address.
    let (heat_bench, heat_spec) = (&spec.benchmarks[0], &ladder[0]);
    let heat_cells: Vec<ConfigCell> = frontier_idx
        .iter()
        .map(|&j| ConfigCell {
            icnt: cands[alive[j]].icnt.clone(),
            benchmark: heat_bench.clone(),
            scale: spec.scale,
            seed: spec.seed,
        })
        .collect();
    let heat_keys: Vec<String> = heat_cells.iter().map(heatmap_key).collect();
    let (heatmaps, heat_hits) = memoize(cache.as_mut(), &heat_keys, jobs, |j| {
        let cfg = heat_cells[j].system_config();
        let (_, reports) =
            run_traced_with_system_config(cfg, heat_spec, spec.scale, TelemetryConfig::default());
        Heatmaps(reports.into_iter().map(|t| (t.label, t.heatmap)).collect())
    })?;
    stats.heatmaps = heat_keys.len() - heat_hits;
    stats.heatmap_cache_hits = heat_hits;
    stats.wall.heatmaps = lap();
    let frontier: Vec<FrontierPoint> = frontier_idx
        .iter()
        .zip(heatmaps)
        .map(|(&j, Heatmaps(slices))| {
            let f = &finalists[j];
            let i = alive[j];
            let heatmaps = slices
                .into_iter()
                .map(|(label, heatmap)| HeatmapReport {
                    label,
                    benchmark: heat_bench.clone(),
                    heatmap,
                })
                .collect();
            FrontierPoint {
                name: f.name.clone(),
                aliases: f.aliases.clone(),
                config_hash: f.config_hash.clone(),
                area_mm2: f.area_mm2,
                noc_area_mm2: audits[i].noc_area_mm2,
                hm_ipc: f.hm_ipc,
                ipc_per_mm2: f.ipc_per_mm2,
                te_score: audits[i].te_score,
                resolved: canonicalize(&cands[i].icnt.to_value()),
                heatmaps,
            }
        })
        .collect();

    // ---- Named-point placement -------------------------------------------
    let named_points: Vec<NamedPoint> = Preset::NAMED
        .iter()
        .map(|p| {
            let cand = cands.iter().position(|c| is_preset(c, p));
            NamedPoint {
                preset: p.label(),
                candidate: cand.map(|i| cands[i].name.clone()).unwrap_or_else(|| "-".into()),
                stage_reached: cand
                    .map(|i| reached[i].label().to_string())
                    .unwrap_or_else(|| "not-in-grid".into()),
                on_frontier: cand.is_some_and(|i| frontier.iter().any(|f| f.name == cands[i].name)),
            }
        })
        .collect();

    let counts = GridCounts {
        enumerated,
        unconstructible,
        rejected,
        legal: legal.len() as u64,
        pinned_out_of_grid,
        stage1_promoted: probe_set.len() as u64,
        stage2_promoted,
        stage3_cells,
        finalists: finalists.len() as u64,
        frontier: frontier.len() as u64,
    };
    let report = TuneReport {
        k: spec.k as u64,
        scale: spec.scale,
        seed: spec.seed,
        benchmarks: spec.benchmarks.clone(),
        counts,
        rejections,
        stage1,
        stage2,
        rungs,
        finalists,
        frontier,
        named_points,
    };
    Ok((report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenoc_core::pool::run_indexed;

    #[test]
    fn tiny_search_is_deterministic_across_jobs_and_finds_thr_eff() {
        let spec = TuneSpec::tiny();
        let (a, _) = run_tune(&spec, &TuneOptions { jobs: 1, cache_dir: None }).unwrap();
        let (b, _) = run_tune(&spec, &TuneOptions { jobs: 4, cache_dir: None }).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "report must be byte-identical at any jobs");
        assert!(
            a.frontier.iter().any(|p| p.aliases.iter().any(|a| a == "Thr-Eff")),
            "tiny search must rediscover the throughput-effective point; frontier: {:?}",
            a.frontier.iter().map(|p| &p.name).collect::<Vec<_>>()
        );
        // Every enumerated point is accounted for.
        let c = &a.counts;
        assert_eq!(
            c.enumerated + c.pinned_out_of_grid,
            c.unconstructible + c.rejected + c.legal,
            "grid accounting must balance: {c:?}"
        );
        assert!(c.frontier >= 1 && c.frontier <= c.finalists);
    }

    /// Nothing the tuner can construct and no named preset
    /// exceeds the arena's packed layout — neither the carried network nor,
    /// for a double fabric, the slice that is actually simulated — so
    /// `NetworkConfig::validate` refusing unpackable shapes refuses nothing
    /// anyone runs, and no run can land on the oracle unasked.
    #[test]
    fn every_constructible_point_and_named_preset_fits_the_arena() {
        let mut fabrics: Vec<(String, tenoc_core::IcntConfig)> = Vec::new();
        for spec in [TuneSpec::default_at(6), TuneSpec::tiny()] {
            let built =
                spec.points().into_iter().filter_map(|p| Some((p.name(), p.build(6).ok()?)));
            fabrics.extend(built);
        }
        assert!(fabrics.len() > 300, "the default grid is ~480 points: {}", fabrics.len());
        fabrics.extend(Preset::NAMED.iter().map(|p| (p.label(), p.icnt(6))));
        for (name, icnt) in &fabrics {
            assert!(tenoc_noc::ArenaNetwork::supports(icnt.net()), "{name}");
            let routed = icnt.physical().expect("a built fabric slices").net;
            assert!(tenoc_noc::ArenaNetwork::supports(&routed), "{name} (slice)");
        }
    }

    /// The grid's constructible points as candidates, in enumeration order.
    fn grid(spec: &TuneSpec) -> Vec<Candidate> {
        spec.points().into_iter().filter_map(|p| Candidate::from_point(p, spec.k).ok()).collect()
    }

    /// The whole search hinges on its grids containing the paper's
    /// throughput-effective design point.
    #[test]
    fn both_grids_contain_the_thr_eff_point() {
        let thr_eff = Preset::ThroughputEffective.point().expect("a physical preset");
        for spec in [TuneSpec::default_at(6), TuneSpec::tiny()] {
            assert!(spec.points().contains(&thr_eff), "{}", thr_eff.name());
        }
    }

    /// Stage 0b's grouped audit equals a standalone `audit_icnt` restricted
    /// to the many-to-few matrix for every constructed candidate, field for
    /// field: sharing a route table and skipping the other matrices are
    /// invisible. Debug builds check the tiny grid, release builds (CI's
    /// `tune` job) the default k=6 grid and its 20 route tables.
    #[test]
    fn grouped_audits_equal_standalone_audits() {
        let release = !cfg!(debug_assertions);
        let spec = if release { TuneSpec::default_at(6) } else { TuneSpec::tiny() };
        let cands = grid(&spec);
        let (grouped, tables) = audit_stage(&cands, 2);
        assert_eq!(tables, if release { 20 } else { 6 }, "one table per (mesh, routing, VCs)");
        assert_eq!(grouped.len(), cands.len());
        for (cand, audit) in cands.iter().zip(&grouped) {
            let mut alone = tenoc_core::audit_icnt(&cand.name, &cand.icnt);
            alone.matrices.retain(|m| m.matrix == TrafficMatrix::ManyToFew.label());
            assert_eq!(audit, &alone, "{}", cand.name);
        }
    }

    /// Every stage-2 probe, run to the end with no bound, agrees with what
    /// the search reported: each measured entry bit for bit, each cut
    /// probe at or below its `beat` (the best of its candidate's
    /// higher-rate probes), and every `probe_score` is 1000 × the best full
    /// rate / area, bit for bit — the bound changes no decision. And a
    /// probe stops at the end of its measurement window because no later
    /// cycle can change the two rates the tuner reads: they are
    /// bit-identical with and without an 8 000-cycle drain, for every probe
    /// and for one probe at 1.3x the static bound. Debug builds check the
    /// tiny search, release builds (CI's `tune` job) the default k=6 grid.
    #[test]
    fn probe_rates_do_not_depend_on_the_drain() {
        let release = !cfg!(debug_assertions);
        let spec = if release { TuneSpec::default_at(6) } else { TuneSpec::tiny() };
        let (report, _) = run_tune(&spec, &TuneOptions { jobs: 2, cache_dir: None }).unwrap();
        let cands = grid(&spec);
        let per_cand = spec.probe_multipliers.len();
        let mut areas = Vec::new();
        let mut probes = Vec::new();
        for entry in &report.stage2 {
            let cand = cands.iter().find(|c| c.name == entry.name).expect("a grid point");
            let audit = tenoc_core::audit_icnt(&cand.name, &cand.icnt);
            let cfgs = probe_configs(cand, &audit, &spec);
            let rates: Vec<f64> = cfgs.iter().map(|c| c.injection_rate).collect();
            assert_eq!(rates, entry.rates, "{}: the report's probes", cand.name);
            if probes.is_empty() {
                let hot = TuneSpec { probe_multipliers: vec![1.3], ..spec.clone() };
                probes.extend(probe_configs(cand, &audit, &hot).into_iter().map(|c| (cand, c)));
            }
            probes.extend(cfgs.into_iter().map(|c| (cand, c)));
            areas.push(audit.area_mm2);
        }
        assert_eq!(probes.len(), 1 + report.stage2.len() * per_cand);
        let runs = run_indexed(probes.len(), 2, |p| {
            let (cand, cfg) = &probes[p];
            let run = |drain| {
                let cfg = OpenLoopConfig { drain, ..cfg.clone() };
                run_open_loop_on(&cfg, &mut *cand.icnt.build(EngineKind::Arena))
            };
            (run(0), run(8_000))
        });
        let bits = |r: &tenoc_noc::openloop::OpenLoopResult| {
            (r.ejection_rate.to_bits(), r.ejection_bytes_rate.to_bits())
        };
        for ((cand, cfg), (cut, drained)) in probes.iter().zip(&runs) {
            assert_eq!(bits(cut), bits(drained), "{} at {}", cand.name, cfg.injection_rate);
        }
        // What the drain does change, and the tuner never reads.
        assert!(runs[0].0.delivered_fraction < runs[0].1.delivered_fraction, "{:?}", runs[0].0);
        let m = &spec.probe_multipliers;
        let mut cuts = 0;
        for ((entry, full), area) in report.stage2.iter().zip(runs[1..].chunks(per_cand)).zip(areas)
        {
            let name = &entry.name;
            let bytes: Vec<f64> = full.iter().map(|(r, _)| r.ejection_bytes_rate).collect();
            for (r, (full, _)) in full.iter().enumerate() {
                match (entry.ejection_rates[r], entry.ejection_bytes[r]) {
                    (None, None) => {
                        let higher = (0..per_cand).filter(|&h| m[h] > m[r]).map(|h| bytes[h]);
                        let beat = higher.fold(f64::NEG_INFINITY, f64::max);
                        assert!(bytes[r] <= beat, "{name} x{}: cut above its beat", m[r]);
                        cuts += 1;
                    }
                    (flits, b) => {
                        let (flits, b) = (flits.map(f64::to_bits), b.map(f64::to_bits));
                        let (full_flits, full_b) = bits(full);
                        assert_eq!((flits, b), (Some(full_flits), Some(full_b)), "{name}");
                    }
                }
            }
            let best = bytes.into_iter().fold(0.0, f64::max);
            assert_eq!(entry.probe_score.to_bits(), (1000.0 * best / area).to_bits(), "{name}");
        }
        assert!(cuts > 0, "the bound cuts at least one probe");
    }

    /// A cache filled before probes could be cut holds one unbounded answer
    /// per probe. The top-rate questions are still unbounded and keep
    /// those addresses, so they are served from it; only the lower-rate
    /// questions, which now carry a `beat`, are asked again. Debug builds
    /// replay the tiny search's journal, release builds the default k=6
    /// grid's, whose report is the frontier golden.
    #[test]
    fn an_unbounded_probe_journal_still_serves_the_top_rate_probes() {
        let release = !cfg!(debug_assertions);
        let (spec, journal, top, cut) = if release {
            let journal = include_str!("../tests/fixtures/unbounded-probes-k6.jsonl");
            (TuneSpec::default_at(6), journal, 35, 52)
        } else {
            let journal = include_str!("../tests/fixtures/unbounded-probes-tiny.jsonl");
            (TuneSpec::tiny(), journal, 6, 6)
        };
        let dir = tmp_cache("unbounded");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(DiskCache::journal_path(&dir), journal).unwrap();
        let opts = TuneOptions { jobs: 2, cache_dir: Some(dir.clone()) };
        let (report, stats) = run_tune(&spec, &opts).unwrap();
        assert_eq!(
            (stats.probe_cache_hits, stats.probes, stats.probes_cut),
            (top, journal.lines().count() - top, cut),
            "{stats:?}"
        );
        let expected = if release {
            include_str!("../../../tests/golden/frontier.json").trim_end().to_string()
        } else {
            run_tune(&spec, &TuneOptions::default()).unwrap().0.to_json()
        };
        assert_eq!(report.to_json(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tmp_cache(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tenoc-tune-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cache_reuse_does_not_change_the_report() {
        let dir = tmp_cache("reuse");
        let spec = TuneSpec::tiny();
        let cold_opts = TuneOptions { jobs: 2, cache_dir: Some(dir.clone()) };
        let (cold, cold_stats) = run_tune(&spec, &cold_opts).unwrap();
        let (warm, warm_stats) = run_tune(&spec, &cold_opts).unwrap();
        assert_eq!(cold.to_json(), warm.to_json());
        assert_eq!(cold_stats.stage3_cache_hits, 0);
        assert_eq!(warm_stats.stage3_cache_hits, warm_stats.stage3_cells);
        // `probes` counts probes ticked; a warm run ticks none of them.
        assert!(cold_stats.probes > 0 && cold_stats.probe_cache_hits == 0, "{cold_stats:?}");
        assert_eq!((warm_stats.probes, warm_stats.probe_cache_hits), (0, cold_stats.probes));
        // Nor does it re-run a frontier heatmap.
        assert!(cold_stats.heatmaps > 0 && cold_stats.heatmap_cache_hits == 0, "{cold_stats:?}");
        assert_eq!((warm_stats.heatmaps, warm_stats.heatmap_cache_hits), (0, cold_stats.heatmaps));
        let (nocache, nocache_stats) = run_tune(&spec, &TuneOptions::default()).unwrap();
        assert_eq!(cold.to_json(), nocache.to_json(), "uncached, --jobs 1");
        assert_eq!(nocache_stats, cold_stats, "without a cache everything is ticked");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nothing_crosses_a_model_version_bump() {
        let dir = tmp_cache("version");
        let spec = TuneSpec::tiny();
        let opts = TuneOptions { jobs: 2, cache_dir: Some(dir.clone()) };
        let (cold, cold_stats) = run_tune(&spec, &opts).unwrap();
        // Re-stamp the whole journal as another model version's.
        let journal = DiskCache::journal_path(&dir);
        let stamp = format!("{{\"v\":{},", tenoc_harness::MODEL_VERSION);
        let text = std::fs::read_to_string(&journal).unwrap();
        let lines = text.lines().count();
        assert_eq!(lines, cold_stats.probes + cold_stats.stage3_cells + cold_stats.heatmaps);
        assert_eq!(text.matches(&stamp).count(), lines);
        std::fs::write(&journal, text.replace(&stamp, "{\"v\":0,")).unwrap();
        let (again, again_stats) = run_tune(&spec, &opts).unwrap();
        assert_eq!(again_stats, cold_stats, "every probe, cell and heatmap is measured again");
        assert_eq!(again.to_json(), cold.to_json());
        // ...and what it re-measured is served to the run after it.
        let (warm, warm_stats) = run_tune(&spec, &opts).unwrap();
        assert_eq!((warm_stats.probes, warm_stats.probe_cache_hits), (0, cold_stats.probes));
        assert_eq!(warm_stats.stage3_cache_hits, warm_stats.stage3_cells);
        assert_eq!((warm_stats.heatmaps, warm_stats.heatmap_cache_hits), (0, cold_stats.heatmaps));
        assert_eq!(warm.to_json(), cold.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pin in the grid marks its grid candidate; a pin no design point
    /// expresses (`TB-DOR-1cyc`: router depth is not an axis) rides as its
    /// own `pin:` candidate. Either way it reaches the finalists and is
    /// its preset's named point.
    #[test]
    fn pinned_points_survive_to_the_finalists_in_the_grid_or_out() {
        let spec = TuneSpec {
            pinned: vec![Preset::BaselineTbDor, Preset::TbDor1Cycle],
            ..TuneSpec::tiny()
        };
        let (report, _) = run_tune(&spec, &TuneOptions::default()).unwrap();
        assert_eq!(report.counts.pinned_out_of_grid, 1);
        for (preset, candidate) in
            [("TB-DOR", "mesh-tb/dor-xy/2v/d8/c16/sgl/i1e1"), ("TB-DOR-1cyc", "pin:TB-DOR-1cyc")]
        {
            let named = report.named_points.iter().find(|n| n.preset == preset).expect(preset);
            assert_eq!(named.candidate, candidate);
            assert_eq!(named.stage_reached, "finalist", "pinned points ride every stage");
            let finalist = report.finalists.iter().find(|f| f.name == candidate).expect(candidate);
            assert_eq!(finalist.aliases, [preset]);
        }
    }

    /// Aliases, pins and named points are resolved by design point, which
    /// says the same as resolving by resolved config only while no two
    /// points build one fabric.
    #[test]
    fn distinct_grid_points_build_distinct_fabrics() {
        for k in [4, 6, 8] {
            let cands = grid(&TuneSpec::default_at(k));
            let hashes: std::collections::HashSet<String> =
                cands.iter().map(|c| config_hash(&c.icnt)).collect();
            assert_eq!(hashes.len(), cands.len(), "k = {k}");
        }
    }

    /// Stage 2 runs on common random numbers: probe `i` of every legal
    /// candidate (a superset of the probed ones) draws its traffic from one
    /// seed, which differs across multipliers and moves with the spec
    /// seed. Debug builds check the tiny grid, release builds the default
    /// k=6 grid.
    #[test]
    fn probe_seeds_are_common_random_numbers() {
        let release = !cfg!(debug_assertions);
        let spec = if release { TuneSpec::default_at(6) } else { TuneSpec::tiny() };
        let cands = grid(&spec);
        let (audits, _) = audit_stage(&cands, 2);
        let seeds = |spec: &TuneSpec| -> Vec<(&str, Vec<u64>)> {
            let legal = cands.iter().zip(&audits).filter(|(_, a)| a.legal);
            let configs = legal.map(|(c, a)| (c.name.as_str(), probe_configs(c, a, spec)));
            configs.map(|(name, cfgs)| (name, cfgs.iter().map(|cfg| cfg.seed).collect())).collect()
        };
        let legal = seeds(&spec);
        assert!(legal.len() >= if release { 200 } else { 10 }, "{} candidates", legal.len());
        let common = &legal[0].1;
        for (name, seeds) in &legal {
            assert_eq!(seeds, common, "{name}: probe i shares every candidate's seed");
        }
        let distinct: std::collections::HashSet<&u64> = common.iter().collect();
        assert_eq!(distinct.len(), spec.probe_multipliers.len(), "{common:?}");
        let moved = seeds(&TuneSpec { seed: spec.seed + 1, ..spec.clone() });
        assert!(moved[0].1.iter().all(|s| !common.contains(s)), "{:?} vs {common:?}", moved[0].1);
    }

    /// A spec `run_tune` refuses with `InvalidInput` naming `field`.
    fn refused(spec: TuneSpec, field: &str) {
        let err = run_tune(&spec, &TuneOptions::default()).expect_err("must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains(field), "error names {field}: {err}");
    }

    #[test]
    fn unknown_ladder_benchmark_is_an_input_error_before_any_stage_runs() {
        let mut spec = TuneSpec::tiny();
        spec.benchmarks.push("NOPE".to_string());
        refused(spec, "NOPE");
    }

    #[test]
    fn empty_ladder_is_an_input_error() {
        refused(TuneSpec { benchmarks: Vec::new(), ..TuneSpec::tiny() }, "benchmarks");
    }

    /// An empty window would score every probe 0/0 = NaN, which
    /// `total_cmp` ranks above every real score.
    #[test]
    fn empty_probe_window_is_an_input_error() {
        refused(TuneSpec { probe_windows: [200, 0], ..TuneSpec::tiny() }, "probe_windows");
    }

    #[test]
    fn non_finite_or_non_positive_probe_multiplier_is_an_input_error() {
        for bad in [f64::NAN, f64::INFINITY, 0.0, -0.5] {
            let spec = TuneSpec { probe_multipliers: vec![0.5, bad], ..TuneSpec::tiny() };
            refused(spec, "probe_multipliers");
        }
    }

    /// Every candidate stage 2 probes carries a many-to-few matrix; one
    /// without it is a broken invariant, not a candidate to probe at a
    /// made-up rate.
    #[test]
    #[should_panic(expected = "probed without a many-to-few matrix")]
    fn probing_a_candidate_without_a_many_to_few_matrix_panics() {
        let spec = TuneSpec::tiny();
        let cand = &grid(&spec)[0];
        let audit = tenoc_core::audit_icnt(&cand.name, &cand.icnt);
        probe_configs(cand, &AuditEntry { matrices: Vec::new(), ..audit }, &spec);
    }
}
