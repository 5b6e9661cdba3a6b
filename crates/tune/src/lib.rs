//! # tenoc-tune — staged-fidelity search of the IPC/mm² Pareto frontier
//!
//! The paper's thesis is that *throughput-effective* networks — the ones
//! that maximize application throughput per mm² of chip area — are found
//! by co-designing topology, MC placement, routing and channel
//! organization, not by maximizing any single network metric. This crate
//! turns that claim into a search: it enumerates a deterministic design
//! grid over every axis the repository models and drives each candidate
//! through four fidelity tiers, spending simulation cycles only on
//! candidates that static analysis cannot already rule out:
//!
//! - **Stage 0 — construct + verify (free):** grid points that violate
//!   VC-layout rules are rejected by the builder with a witness; the
//!   rest are run through `tenoc-verify`'s prover, and illegal fabrics
//!   are rejected with the prover's witnesses. Every rejection is
//!   recorded in the report. Candidates that route alike share one
//!   route table, so the grid's routes are walked once per shape.
//! - **Stage 1 — static rank (cheap):** survivors are ranked by the
//!   audit's static throughput-effectiveness score (many-to-few
//!   saturation bound per mm²) and the best are promoted.
//! - **Stage 2 — open-loop probes (medium):** promoted candidates are
//!   probed at a few injection rates around their static bound, each
//!   probe run to the end of its measurement window on the candidate's
//!   own fabric; the measured steady-state ejection rate per mm² decides
//!   promotion.
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
//! final report can place them against the frontier. The whole search is
//! **bit-deterministic at any worker count**: candidate enumeration is
//! ordered, every tie-break is total, probe seeds derive from content
//! hashes, and the report carries no wall-clock or cache-state fields.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
mod space;

use std::collections::HashMap;
use std::path::PathBuf;

pub use report::{
    BenchIpc, Finalist, FrontierPoint, GridCounts, HeatmapReport, NamedPoint, Rejection, Rung,
    Stage1Entry, Stage2Entry, TuneReport, TuneStats,
};
pub use space::{config_hash, Candidate, Org};

use space::Point;

use serde::Serialize;
use tenoc_core::experiments::run_traced_with_system_config;
use tenoc_core::{
    audit_icnt_with, harmonic_mean, route_net, AuditEntry, EngineKind, Preset, TelemetryConfig,
};
use tenoc_harness::pool::run_indexed;
use tenoc_harness::{
    canonicalize, config_cell_key, heatmap_key, memoize, probe_key, run_config_cell, CachedCell,
    ConfigCell, DiskCache, Heatmaps,
};
use tenoc_noc::openloop::{run_open_loop_on, OpenLoopConfig, TrafficPattern};
use tenoc_noc::RoutingKind;
use tenoc_verify::load::TrafficMatrix;
use tenoc_verify::{route_key, RouteTable};

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
    /// many-to-few saturation bound.
    pub probe_multipliers: Vec<f64>,
    /// Open-loop probe windows: `[warmup, measure]` cycles. A probe
    /// stops at the end of its measurement window: the tuner reads only
    /// the in-window ejection rates, which no later cycle can change.
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
                .map(|&org| OrgAxis { org, routings: org.default_routings() })
                .collect(),
            vc_totals: vec![2, 4],
            vc_depths: vec![4, 8],
            channel_bytes: vec![16, 32],
            slicings: vec![false, true],
            mc_ports: vec![[1, 1], [2, 1], [2, 2]],
            stage1_keep: 32,
            stage2_keep: 16,
            probe_multipliers: vec![0.6, 0.9, 1.3],
            probe_windows: [2_000, 6_000],
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
    fn points(&self) -> Vec<Point> {
        let mut points = Vec::new();
        for axis in &self.axes {
            for &routing in &axis.routings {
                for &vc_total in &self.vc_totals {
                    for &vc_depth in &self.vc_depths {
                        for &channel_bytes in &self.channel_bytes {
                            for &double in &self.slicings {
                                for &[mc_inject, mc_eject] in &self.mc_ports {
                                    points.push(Point {
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

/// Deterministic per-probe seed: the candidate's content hash folded
/// into the spec seed, so a probe's traffic depends on *what* is probed,
/// never on enumeration position.
fn probe_seed(spec_seed: u64, config_hash: &str, rate_index: usize) -> u64 {
    let h = u64::from_str_radix(config_hash, 16).unwrap_or(0);
    tenoc_harness::cell_seed(spec_seed ^ h, rate_index as u64)
}

/// The open-loop probes of one candidate, one per probe multiplier.
fn probe_configs(cand: &Candidate, audit: &AuditEntry, spec: &TuneSpec) -> Vec<OpenLoopConfig> {
    let sat =
        audit.matrix(TrafficMatrix::ManyToFew).map(|m| m.saturation_rate).unwrap_or(0.01).max(1e-6);
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
            cfg.seed = probe_seed(spec.seed, &cand.config_hash, i);
            cfg
        })
        .collect()
}

/// Stage 0b: audits every candidate, walking each fabric shape's routes
/// once. Candidates are grouped by the [`route_key`] of the network they
/// route on (a double candidate's slice); each group builds one
/// [`RouteTable`] on the pool, audits its members on it, and drops it, so
/// at most `jobs` tables are alive. Returns the audits in candidate
/// order and the number of tables built.
fn audit_candidates(cands: &[Candidate], jobs: usize) -> (Vec<AuditEntry>, usize) {
    let nets: Vec<_> = cands.iter().map(|c| route_net(&c.icnt)).collect();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, net) in nets.iter().enumerate() {
        match groups.iter_mut().find(|g| route_key(&nets[g[0]]) == route_key(net)) {
            Some(group) => group.push(i),
            None => groups.push(vec![i]),
        }
    }
    let audited: Vec<Vec<AuditEntry>> = run_indexed(groups.len(), jobs, |g| {
        let table = RouteTable::new(&nets[groups[g][0]]);
        groups[g].iter().map(|&i| audit_icnt_with(&cands[i].name, &cands[i].icnt, &table)).collect()
    });
    let mut audits: Vec<Option<AuditEntry>> = vec![None; cands.len()];
    for (group, entries) in groups.iter().zip(audited) {
        for (&i, entry) in group.iter().zip(entries) {
            audits[i] = Some(entry);
        }
    }
    (
        audits.into_iter().map(|a| a.expect("every candidate is in one group")).collect(),
        groups.len(),
    )
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
/// Returns [`std::io::ErrorKind::InvalidInput`] before any stage runs if
/// the ladder names an unknown benchmark; otherwise only result-cache I/O
/// failures.
///
/// # Panics
///
/// Panics if the spec has an empty benchmark ladder, or if a closed-loop
/// cell hits the safety cycle limit.
pub fn run_tune(spec: &TuneSpec, opts: &TuneOptions) -> std::io::Result<(TuneReport, TuneStats)> {
    assert!(!spec.benchmarks.is_empty(), "benchmark ladder must not be empty");
    let ladder = spec
        .benchmarks
        .iter()
        .map(|b| {
            tenoc_workloads::by_name(b).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("unknown benchmark {b}; see `tenoc list`"),
                )
            })
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let jobs = opts.jobs.max(1);
    let mut stats = TuneStats::default();
    let mut rejections: Vec<Rejection> = Vec::new();

    // ---- Stage 0a: enumerate and construct -------------------------------
    let mut enumerated: u64 = 0;
    let mut unconstructible: u64 = 0;
    let mut cands: Vec<Candidate> = Vec::new();
    for p in spec.points() {
        enumerated += 1;
        match p.build(spec.k) {
            Ok(icnt) => {
                let config_hash = config_hash(&icnt);
                cands.push(Candidate {
                    name: p.name(),
                    family: p.family(),
                    icnt,
                    config_hash,
                    aliases: Vec::new(),
                    pinned: false,
                });
            }
            Err(witness) => {
                unconstructible += 1;
                push_rejection(&mut rejections, "unconstructible", vec![witness], &p.name());
            }
        }
    }

    // ---- Pinned reference points and preset aliases ----------------------
    let preset_hashes: Vec<(String, String)> =
        Preset::NAMED.iter().map(|p| (p.label(), config_hash(&p.icnt(spec.k)))).collect();
    let mut pinned_out_of_grid: u64 = 0;
    for p in &spec.pinned {
        let h = config_hash(&p.icnt(spec.k));
        match cands.iter_mut().find(|c| c.config_hash == h) {
            Some(c) => c.pinned = true,
            None => {
                pinned_out_of_grid += 1;
                cands.push(Candidate {
                    name: format!("pin:{}", p.label()),
                    family: format!("pin:{}", p.label()),
                    icnt: p.icnt(spec.k),
                    config_hash: h,
                    aliases: Vec::new(),
                    pinned: true,
                });
            }
        }
    }
    for c in &mut cands {
        c.aliases = preset_hashes
            .iter()
            .filter(|(_, h)| *h == c.config_hash)
            .map(|(label, _)| label.clone())
            .collect();
    }

    // ---- Stage 0b: verify; Stage 1: static rank --------------------------
    let (audits, route_tables) = audit_candidates(&cands, jobs);
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
                config_hash: cands[i].config_hash.clone(),
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
    let probes: Vec<(usize, OpenLoopConfig)> = probe_set
        .iter()
        .flat_map(|&i| probe_configs(&cands[i], &audits[i], spec).into_iter().map(move |c| (i, c)))
        .collect();
    let probe_keys: Vec<String> =
        probes.iter().map(|(i, cfg)| probe_key(&cands[*i].icnt, cfg)).collect();
    let (probed, probe_hits) = memoize(cache.as_mut(), &probe_keys, jobs, |p| {
        let (i, cfg) = &probes[p];
        run_open_loop_on(cfg, &mut *cands[*i].icnt.build(EngineKind::Arena))
    })?;
    stats.probes = probes.len() - probe_hits;
    stats.probe_cache_hits = probe_hits;
    let per_cand = spec.probe_multipliers.len();
    let mut stage2: Vec<Stage2Entry> = probe_set
        .iter()
        .enumerate()
        .map(|(j, &i)| {
            let span = j * per_cand..(j + 1) * per_cand;
            let results = &probed[span.clone()];
            let best = results.iter().map(|r| r.ejection_bytes_rate).fold(0.0, f64::max);
            Stage2Entry {
                name: cands[i].name.clone(),
                family: cands[i].family.clone(),
                rates: probes[span].iter().map(|(_, cfg)| cfg.injection_rate).collect(),
                ejection_rates: results.iter().map(|r| r.ejection_rate).collect(),
                ejection_bytes: results.iter().map(|r| r.ejection_bytes_rate).collect(),
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

    // ---- Finalists and the frontier --------------------------------------
    for &i in &alive {
        reached[i] = Reached::Finalist;
    }
    let finalists: Vec<Finalist> = alive
        .iter()
        .map(|&i| {
            let per = per_bench[&i].clone();
            let hm = harmonic_mean(per.iter().map(|x| x.ipc));
            Finalist {
                name: cands[i].name.clone(),
                aliases: cands[i].aliases.clone(),
                config_hash: cands[i].config_hash.clone(),
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
    let named_points: Vec<NamedPoint> = preset_hashes
        .iter()
        .map(|(label, h)| {
            let cand = cands.iter().position(|c| &c.config_hash == h);
            NamedPoint {
                preset: label.clone(),
                candidate: cand.map(|i| cands[i].name.clone()).unwrap_or_else(|| "-".into()),
                stage_reached: cand
                    .map(|i| reached[i].label().to_string())
                    .unwrap_or_else(|| "not-in-grid".into()),
                on_frontier: frontier.iter().any(|p| &p.config_hash == h),
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

    #[test]
    fn tiny_search_is_deterministic_across_jobs_and_finds_thr_eff() {
        let spec = TuneSpec::tiny();
        let (a, _) = run_tune(&spec, &TuneOptions { jobs: 1, cache_dir: None }).unwrap();
        let (b, _) = run_tune(&spec, &TuneOptions { jobs: 4, cache_dir: None }).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "report must be byte-identical at any jobs");
        assert!(
            a.frontier_has_alias("Thr-Eff"),
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

    /// ROADMAP 2c: nothing the tuner can construct and no named preset
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
            if let tenoc_core::IcntConfig::Double(single) = icnt {
                assert!(tenoc_noc::ArenaNetwork::supports(&single.slice()), "{name} (slice)");
            }
        }
    }

    /// The grid's constructible points as candidates, in enumeration order.
    fn grid(spec: &TuneSpec) -> Vec<Candidate> {
        let built = spec.points().into_iter().filter_map(|p| Some((p, p.build(spec.k).ok()?)));
        built
            .map(|(p, icnt)| Candidate {
                name: p.name(),
                family: p.family(),
                config_hash: config_hash(&icnt),
                icnt,
                aliases: Vec::new(),
                pinned: false,
            })
            .collect()
    }

    /// Stage 0b's grouped audit equals a standalone `audit_icnt` for every
    /// constructed candidate, field for field: sharing a route table is
    /// invisible. Debug builds check the tiny grid, release builds (CI's
    /// `tune` job) the default k=6 grid and its 20 route tables.
    #[test]
    fn grouped_audits_equal_standalone_audits() {
        let release = !cfg!(debug_assertions);
        let spec = if release { TuneSpec::default_at(6) } else { TuneSpec::tiny() };
        let cands = grid(&spec);
        let (grouped, tables) = audit_candidates(&cands, 2);
        assert_eq!(tables, if release { 20 } else { 6 }, "one table per (mesh, routing, VCs)");
        assert_eq!(grouped.len(), cands.len());
        for (cand, audit) in cands.iter().zip(&grouped) {
            assert_eq!(audit, &tenoc_core::audit_icnt(&cand.name, &cand.icnt), "{}", cand.name);
        }
    }

    /// A probe stops at the end of its measurement window because no later
    /// cycle can change the two rates the tuner reads: they are
    /// bit-identical with and without an 8 000-cycle drain, for every probe
    /// of the tiny search and for one probe at 1.3x the static bound.
    #[test]
    fn probe_rates_do_not_depend_on_the_drain() {
        let spec = TuneSpec::tiny();
        let (report, _) = run_tune(&spec, &TuneOptions::default()).unwrap();
        let cands = grid(&spec);
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
        }
        assert_eq!(probes.len(), 1 + report.stage2.len() * spec.probe_multipliers.len());
        for (i, (cand, cfg)) in probes.iter().enumerate() {
            let run = |drain| {
                let cfg = OpenLoopConfig { drain, ..cfg.clone() };
                run_open_loop_on(&cfg, &mut *cand.icnt.build(EngineKind::Arena))
            };
            let (cut, drained) = (run(0), run(8_000));
            let bits = |r: &tenoc_noc::openloop::OpenLoopResult| {
                (r.ejection_rate.to_bits(), r.ejection_bytes_rate.to_bits())
            };
            assert_eq!(bits(&cut), bits(&drained), "{} at {}", cand.name, cfg.injection_rate);
            if i == 0 {
                // What the drain does change, and the tuner never reads.
                assert!(cut.delivered_fraction < drained.delivered_fraction, "{cut:?}");
            }
        }
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

    #[test]
    fn pinned_baseline_survives_to_the_finalists() {
        let spec = TuneSpec::tiny();
        let (report, _) = run_tune(&spec, &TuneOptions::default()).unwrap();
        let baseline = report
            .named_points
            .iter()
            .find(|n| n.preset == "TB-DOR")
            .expect("baseline is a named point");
        assert_eq!(baseline.stage_reached, "finalist", "pinned points ride every stage");
    }

    #[test]
    fn unknown_ladder_benchmark_is_an_input_error_before_any_stage_runs() {
        let mut spec = TuneSpec::tiny();
        spec.benchmarks.push("NOPE".to_string());
        let err = run_tune(&spec, &TuneOptions::default()).expect_err("must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("NOPE"), "error names the benchmark: {err}");
    }
}
