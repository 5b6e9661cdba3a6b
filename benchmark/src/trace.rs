//! Per-layer attribution from outside: a separate in-process run that
//! links the library crates and times calls into their public
//! functions. Nothing here changes a line of the program; spans are
//! recorded by this file around the calls into each layer, kept in
//! memory, and written to `benchmark/out/trace.jsonl` when the run ends.
//!
//! README.md lists every public symbol this file calls, so a PR that
//! deletes one knows what it breaks here.

use crate::e2e::{plan, sweep_request, RunOpts};
use crate::report::{Metrics, Ops, Outcome};
use crate::spec::{Kind, Workload, JOBS, PER_LAYER};
use crate::stats::{fnv1a64, highest_tail, median, percentile, sampled, Sampled};
use crate::wire::{stats_round_trip, submit, Conn, Reply};
use serde::json::Value;
use serde::Serialize;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tenoc_core::{
    audit_grid, Clocks, Domain, EngineKind, IcntConfig, Preset, RunMetrics, System, SystemConfig,
    Tick,
};
use tenoc_harness::{cell_system_config, from_jsonl, run_grid, to_jsonl, RunRecord};
use tenoc_noc::openloop::{OpenLoopConfig, OpenLoopProbe, TrafficPattern};
use tenoc_noc::{
    ArenaDoubleNetwork, ArenaNetwork, DoubleNetwork, EjectedPacket, Interconnect, NetStats,
    Network, NodeId, Packet,
};
use tenoc_serve::{cell_key, CachedCell, DeadlineRr, DiskCache, ServerConfig, SweepRequest};
use tenoc_simt::{KernelSpec, TrafficClass};
use tenoc_tune::{run_tune, TuneOptions, TuneSpec};

/// One edge in this many is timed when a system is driven edge by edge.
const EDGE_STRIDE: u64 = 4;

/// Open-loop windows of the NoC trace (warm-up, measure, drain cycles):
/// the tuner's probe windows, long enough to reach steady state at both
/// traced rates.
const NOC_WINDOWS: [u64; 3] = [2_000, 6_000, 8_000];

// ---- spans ---------------------------------------------------------------

/// One recorded span. Calls too hot to record one by one (a clock edge,
/// a `pop`) are folded into one span per layer carrying how many calls
/// it covers and their summed busy time.
struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    calls: u64,
    busy_ns: f64,
}

/// In-memory span log of one traced run.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(workload: &'static str) -> Tracer {
        Tracer { workload, origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span now; close it with [`Tracer::close`].
    fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start: now,
            end: now,
            calls: 1,
            busy_ns: 0.0,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.busy_ns = (span.end - span.start).as_nanos() as f64;
        (span.end - span.start).as_secs_f64()
    }

    /// Times `f` as a child span of `parent`.
    fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Records a folded span: `calls` calls of summed `busy_ns` that all
    /// happened inside `parent`, whose interval it inherits.
    fn folded(&mut self, name: &str, parent: usize, calls: u64, busy_ns: f64) {
        let (start, end) = (self.spans[parent].start, self.spans[parent].end);
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start,
            end,
            calls,
            busy_ns,
        });
    }

    /// Writes the log as JSON lines: id, name, start, end, parent,
    /// workload, and the folded call count and busy time.
    fn write(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Value::Null, |p| (p as u64).to_value());
            let line = Value::Object(vec![
                ("id".to_string(), (id as u64).to_value()),
                ("parent".to_string(), parent),
                ("workload".to_string(), self.workload.to_value()),
                ("name".to_string(), s.name.to_value()),
                ("start_ns".to_string(), (s.start.as_nanos() as u64).to_value()),
                ("end_ns".to_string(), (s.end.as_nanos() as u64).to_value()),
                ("calls".to_string(), s.calls.to_value()),
                ("busy_ns".to_string(), s.busy_ns.to_value()),
            ]);
            text.push_str(&line.to_json_compact());
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// What reading the clock twice costs, nanoseconds (median of many
/// back-to-back pairs). Subtracted from every individually timed call,
/// several of which are shorter than the timer itself.
fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t).elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut samples)
}

// ---- core / simt / dram: the shadow-clock domain split --------------------

/// A system driven edge by edge through `Tick::tick`, with a second
/// `Clocks` ticking beside it to learn which domain each edge fell in.
pub struct EdgeProfile {
    /// Busy-time estimate per domain, indexed `Core`, `Icnt`, `Dram`.
    pub domains: [Sampled; 3],
    /// Wall of the whole driven run, seconds.
    pub wall_s: f64,
    /// Metrics of the driven system at its last edge.
    pub metrics: RunMetrics,
    /// The shadow clock's cycle counts at the last edge.
    pub shadow_core_cycles: u64,
    /// See `shadow_core_cycles`.
    pub shadow_icnt_cycles: u64,
}

fn domain_index(d: Domain) -> usize {
    match d {
        Domain::Core => 0,
        Domain::Icnt => 1,
        Domain::Dram => 2,
    }
}

/// Drives a fresh system until the core edge on which `System::run`
/// returned (`core_cycles` of its metrics: `run` only ever returns right
/// after a core edge), timing one edge in [`EDGE_STRIDE`].
pub fn drive_edges(
    cfg: &SystemConfig,
    spec: &KernelSpec,
    core_cycles: u64,
    overhead_ns: f64,
) -> EdgeProfile {
    let mut sys = System::new(cfg.clone(), spec);
    let mut shadow = Clocks::new(cfg.clocks);
    let mut domains = [Sampled::default(); 3];
    let start = Instant::now();
    let mut index = 0u64;
    loop {
        let domain = shadow.tick();
        let slot = &mut domains[domain_index(domain)];
        if sampled(index, EDGE_STRIDE) {
            let t = Instant::now();
            sys.tick();
            slot.add((t.elapsed().as_nanos() as f64 - overhead_ns).max(0.0));
        } else {
            sys.tick();
            slot.skip();
        }
        index += 1;
        if domain == Domain::Core && shadow.cycles(Domain::Core) >= core_cycles {
            break;
        }
    }
    EdgeProfile {
        domains,
        wall_s: start.elapsed().as_secs_f64(),
        metrics: sys.metrics(true),
        shadow_core_cycles: shadow.cycles(Domain::Core),
        shadow_icnt_cycles: shadow.cycles(Domain::Icnt),
    }
}

/// One traced cell on one engine: an untimed reference `System::run`,
/// then the edge-driven run, which must reproduce it exactly.
struct CellTrace {
    reference: RunMetrics,
    reference_s: f64,
    profile: EdgeProfile,
}

fn trace_cell(
    tracer: &mut Tracer,
    parent: usize,
    label: &str,
    cfg: &SystemConfig,
    spec: &KernelSpec,
    overhead_ns: f64,
) -> CellTrace {
    let (reference, reference_s) = tracer
        .time(&format!("core.{label}.run"), Some(parent), || System::new(cfg.clone(), spec).run());
    let span = tracer.open(&format!("core.{label}.edges"), Some(parent));
    let profile = drive_edges(cfg, spec, reference.core_cycles, overhead_ns);
    tracer.close(span);
    for (name, d) in [("simt.core_edges", 0), ("core.icnt_edges", 1), ("dram.dram_edges", 2)] {
        let s = profile.domains[d];
        tracer.folded(&format!("{name}.{label}"), span, s.events, s.total_ns());
    }
    CellTrace { reference, reference_s, profile }
}

// ---- noc: a timing decorator under the open-loop generator ----------------

/// Forwards every `Interconnect` call to `inner` and times the four the
/// system's exchange loop makes: `try_inject`, `pop`, `tick` and
/// `tick_phase`. `tick` is issued as its phases (`0..phase_count()` in
/// order is exactly one tick, by the trait's contract) so the request
/// and reply slices of a double arena network are told apart.
pub struct Timed<I> {
    inner: I,
    overhead_ns: f64,
    /// What the calls cost so far.
    pub calls: CallTimes,
}

/// Call counts and busy nanoseconds accumulated by a [`Timed`].
#[derive(Clone, Debug, Default)]
pub struct CallTimes {
    /// Busy nanoseconds of each tick phase.
    pub phase_ns: Vec<f64>,
    /// Ticks issued.
    pub ticks: u64,
    /// `try_inject` calls.
    pub injects: u64,
    /// Of those, refused.
    pub refused: u64,
    /// Busy nanoseconds in `try_inject`.
    pub inject_ns: f64,
    /// `pop` calls.
    pub pops: u64,
    /// Busy nanoseconds in `pop`.
    pub pop_ns: f64,
}

impl CallTimes {
    fn tick_ns(&self) -> f64 {
        self.phase_ns.iter().sum()
    }

    fn busy_ns(&self) -> f64 {
        self.tick_ns() + self.inject_ns + self.pop_ns
    }
}

impl<I: Interconnect> Timed<I> {
    /// Wraps `inner`; `overhead_ns` is subtracted from every timed call.
    pub fn new(inner: I, overhead_ns: f64) -> Self {
        let calls = CallTimes { phase_ns: vec![0.0; inner.phase_count()], ..CallTimes::default() };
        Timed { inner, overhead_ns, calls }
    }

    fn since(&self, t: Instant) -> f64 {
        (t.elapsed().as_nanos() as f64 - self.overhead_ns).max(0.0)
    }
}

impl<I: Interconnect> Tick for Timed<I> {
    fn tick(&mut self) {
        for phase in 0..self.calls.phase_ns.len() {
            self.tick_phase(phase);
        }
        self.calls.ticks += 1;
    }
}

impl<I: Interconnect> Interconnect for Timed<I> {
    fn try_inject(&mut self, node: NodeId, packet: Packet) -> Result<(), Packet> {
        let t = Instant::now();
        let out = self.inner.try_inject(node, packet);
        self.calls.inject_ns += self.since(t);
        self.calls.injects += 1;
        self.calls.refused += u64::from(out.is_err());
        out
    }

    fn pop(&mut self, node: NodeId) -> Option<EjectedPacket> {
        let t = Instant::now();
        let out = self.inner.pop(node);
        self.calls.pop_ns += self.since(t);
        self.calls.pops += 1;
        out
    }

    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn flit_hops(&self) -> u64 {
        self.inner.flit_hops()
    }

    fn phase_count(&self) -> usize {
        self.inner.phase_count()
    }

    fn tick_phase(&mut self, phase: usize) {
        let t = Instant::now();
        self.inner.tick_phase(phase);
        self.calls.phase_ns[phase] += self.since(t);
    }
}

/// What one engine's open-loop run cost.
struct NocTrace {
    /// `Debug` form of the `OpenLoopResult`: the two engines' must match.
    result: String,
    wall_s: f64,
    flit_hops: u64,
    calls: CallTimes,
}

fn probe<I: Interconnect>(cfg: &OpenLoopConfig, net: I, overhead_ns: f64) -> NocTrace {
    let start = Instant::now();
    let mut probe = OpenLoopProbe::new(cfg.clone(), Timed::new(net, overhead_ns));
    while !probe.done() {
        probe.tick();
    }
    NocTrace {
        result: format!("{:?}", probe.result()),
        wall_s: start.elapsed().as_secs_f64(),
        flit_hops: probe.network().flit_hops(),
        calls: probe.network().calls.clone(),
    }
}

fn openloop_config(icnt: &IcntConfig, rate: f64, windows: [u64; 3], seed: u64) -> OpenLoopConfig {
    let mut cfg = OpenLoopConfig::new(icnt.net().clone(), rate, TrafficPattern::UniformRandom);
    [cfg.warmup, cfg.measure, cfg.drain] = windows;
    cfg.seed = seed;
    cfg
}

/// Runs the repository's many-to-few-to-many generator on `icnt`'s
/// fabric, once per engine. `None` for a fabric the arena cannot pack
/// or an ideal network (nothing to time).
fn probe_engines(
    icnt: &IcntConfig,
    cfg: &OpenLoopConfig,
    overhead_ns: f64,
) -> Option<[NocTrace; 2]> {
    match icnt {
        IcntConfig::Mesh(c) if ArenaNetwork::supports(c) => Some([
            probe(cfg, Network::new(c.clone()), overhead_ns),
            probe(cfg, ArenaNetwork::new(c.clone()), overhead_ns),
        ]),
        IcntConfig::Double(c)
            if c.channel_bytes.is_multiple_of(2) && ArenaNetwork::supports(&c.slice()) =>
        {
            Some([
                probe(cfg, DoubleNetwork::from_single(c), overhead_ns),
                probe(cfg, ArenaDoubleNetwork::from_single(c), overhead_ns),
            ])
        }
        _ => None,
    }
}

// ---- the three kinds of workload ------------------------------------------

/// Everything a traced run accumulates.
struct Run<'a> {
    repo: &'a crate::proc::Repo,
    opts: &'a RunOpts,
    tracer: Tracer,
    root: usize,
    overhead_ns: f64,
    m: Metrics,
    ops: Ops,
    problems: Vec<String>,
    /// The workload's output, produced in process.
    output: Vec<u8>,
}

impl Run<'_> {
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.ops.add(1, u64::from(!ok));
        if !ok {
            self.problems.push(why());
        }
    }

    fn scratch(&self, name: &str) -> Result<PathBuf, String> {
        self.repo.fresh_dir(&format!("trace-{name}"))
    }
}

fn trace_noc(run: &mut Run, icnt: &IcntConfig, rate: f64, seed: u64) {
    let (m, tracer) = (&mut run.m, &mut run.tracer);
    let span = tracer.open("noc.openloop", Some(run.root));
    let cfg = openloop_config(icnt, rate, NOC_WINDOWS, seed);
    let traces = probe_engines(icnt, &cfg, run.overhead_ns);
    tracer.close(span);
    let Some(traces) = traces else { return };
    for (engine, t) in ["oracle", "arena"].into_iter().zip(&traces) {
        let c = &t.calls;
        m.set(&format!("noc.{engine}.tick_ns"), c.tick_ns() / c.ticks.max(1) as f64);
        m.set(&format!("noc.{engine}.inject_ns"), c.inject_ns / c.injects.max(1) as f64);
        m.set(&format!("noc.{engine}.eject_ns"), c.pop_ns / c.pops.max(1) as f64);
        m.set(&format!("noc.{engine}.ns_per_flit_hop"), c.busy_ns() / t.flit_hops.max(1) as f64);
        tracer.folded(&format!("noc.{engine}.tick"), span, c.ticks, c.tick_ns());
        tracer.folded(&format!("noc.{engine}.try_inject"), span, c.injects, c.inject_ns);
        tracer.folded(&format!("noc.{engine}.pop"), span, c.pops, c.pop_ns);
    }
    let arena = &traces[1].calls;
    let ticks = arena.ticks.max(1) as f64;
    // A double arena network ticks its request slice in phase 0 and its
    // reply slice in phase 1; a single network has only phase 0.
    m.set("noc.arena.tick_req_ns", arena.phase_ns[0] / ticks);
    m.set("noc.arena.tick_rep_ns", arena.phase_ns.get(1).copied().unwrap_or(0.0) / ticks);
    m.set("noc.inject_refused_ratio", arena.refused as f64 / arena.injects.max(1) as f64);
    // Bit-identical engines: same generator, same seed, same result.
    let same = traces[0].result == traces[1].result
        && traces[0].flit_hops == traces[1].flit_hops
        && traces[0].calls.refused == traces[1].calls.refused;
    run.check(same, || {
        format!(
            "open-loop results differ between engines:\n  oracle {} ({:.2} s)\n  arena  {} ({:.2} s)",
            traces[0].result, traces[0].wall_s, traces[1].result, traces[1].wall_s
        )
    });
}

fn set_sim(m: &mut Metrics, r: &RunMetrics) {
    m.set("sim.icnt_cycles", r.icnt_cycles as f64);
    m.set("sim.core_cycles", r.core_cycles as f64);
    m.set("sim.scalar_insts", r.scalar_insts as f64);
    m.set("sim.flit_hops", r.flit_hops as f64);
    m.set("sim.avg_net_latency", r.avg_net_latency);
    m.set("sim.mc_stall_fraction", r.mc_stall_fraction);
    m.set("sim.l2_read_hit_rate", r.l2_read_hit_rate);
    m.set("sim.dram_efficiency", r.dram_efficiency);
    m.set("sim.core_replays", r.core_replays as f64);
}

/// Median microseconds per record of `f` applied to the whole file.
fn us_per_record(records: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6 / records.max(1) as f64
        })
        .collect();
    median(&mut samples)
}

fn trace_json(run: &mut Run, text: &str) -> Vec<RunRecord> {
    let span = run.tracer.open("json", Some(run.root));
    let records = from_jsonl(text).unwrap_or_default();
    run.m.set(
        "json.parse_us_per_record",
        us_per_record(records.len(), || {
            std::hint::black_box(from_jsonl(std::hint::black_box(text)).is_ok());
        }),
    );
    run.m.set(
        "json.emit_us_per_record",
        us_per_record(records.len(), || {
            std::hint::black_box(to_jsonl(std::hint::black_box(&records)));
        }),
    );
    run.tracer.close(span);
    records
}

fn trace_cli(run: &mut Run) -> Result<(), String> {
    let span = run.tracer.open("cli.spawn", Some(run.root));
    let mut samples = Vec::new();
    for _ in 0..11 {
        let f = crate::proc::run(run.repo.tenoc(&["list".to_string()]))?;
        run.check(f.ok, || format!("tenoc list failed: {}", f.stderr));
        samples.push(f.wall.as_secs_f64() * 1e3);
    }
    run.m.set("cli.spawn_ms", median(&mut samples));
    run.tracer.close(span);
    Ok(())
}

fn trace_sweep(run: &mut Run, w: &Workload, noc_rate: Option<f64>) -> Result<(), String> {
    let grid = plan(&w.grid, run.opts.seed);
    let cell = grid.cell(0);
    let spec = tenoc_workloads::by_name(&cell.benchmark).expect("planned").scaled(cell.scale);
    let base = cell_system_config(&cell);

    // core / simt / dram: the workload's first cell, once per engine
    // (an ideal network has no engine to choose).
    let ideal = matches!(base.icnt, IcntConfig::Perfect(_) | IcntConfig::BwLimited(..));
    let engines: &[(&str, EngineKind)] = if ideal {
        &[("oracle", EngineKind::PerCell)]
    } else {
        &[("oracle", EngineKind::PerCell), ("arena", EngineKind::Arena)]
    };
    let span = run.tracer.open("core", Some(run.root));
    let mut traced_s = 0.0;
    let mut untraced_s = 0.0;
    let mut ns_per_cycle = Vec::new();
    for &(label, engine) in engines {
        let cfg = SystemConfig { engine, ..base.clone() };
        let t = trace_cell(&mut run.tracer, span, label, &cfg, &spec, run.overhead_ns);
        let p = &t.profile;
        let same = p.metrics == t.reference
            && p.shadow_core_cycles == t.reference.core_cycles
            && p.shadow_icnt_cycles == t.reference.icnt_cycles;
        run.check(same && t.reference.completed, || {
            format!(
                "{label}: the edge-driven run is not System::run's: {:?} vs {:?}",
                p.metrics, t.reference
            )
        });
        let total: f64 = p.domains.iter().map(Sampled::total_ns).sum();
        run.m.set(&format!("core.{label}.icnt_edge_ns"), p.domains[1].mean_ns());
        run.m.set(&format!("core.{label}.icnt_share"), p.domains[1].total_ns() / total.max(1.0));
        let per_cycle = t.reference_s * 1e9 / t.reference.icnt_cycles as f64;
        run.m.set(&format!("core.{label}.ns_per_icnt_cycle"), per_cycle);
        ns_per_cycle.push(per_cycle);
        // Cores and DRAM are the same code under either engine; the
        // last traced run speaks for them.
        run.m.set("simt.core_edge_ns", p.domains[0].mean_ns());
        run.m.set("dram.dram_edge_ns", p.domains[2].mean_ns());
        set_sim(&mut run.m, &t.reference);
        traced_s += p.wall_s;
        untraced_s += t.reference_s;
    }
    if let [oracle, arena] = ns_per_cycle[..] {
        // Same run, same cell: how many times faster the arena engine
        // simulates a cycle than the oracle (base: the oracle).
        run.m.set("core.arena_over_oracle", oracle / arena);
    }
    run.m.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
    run.tracer.close(span);

    if let Some(rate) = noc_rate {
        trace_noc(run, &base.icnt, rate, cell.seed);
    }

    // harness: the whole workload grid on the pool, one worker then two.
    let span = run.tracer.open("harness", Some(run.root));
    let (serial, serial_s) =
        run.tracer.time("harness.run_grid.jobs1", Some(span), || run_grid(&grid, 1));
    let (parallel, parallel_s) =
        run.tracer.time("harness.run_grid.jobs2", Some(span), || run_grid(&grid, JOBS));
    run.tracer.close(span);
    let busy_s: f64 = parallel.iter().map(|c| c.wall_nanos as f64 / 1e9).sum();
    let cycles: u64 = parallel.iter().map(|c| c.metrics.icnt_cycles).sum();
    run.m.set("harness.jobs2_speedup", serial_s / parallel_s);
    run.m.set("harness.worker_idle_share", (1.0 - busy_s / (JOBS as f64 * parallel_s)).max(0.0));
    run.m.set("harness.sim_kcycles_per_s", cycles as f64 / parallel_s / 1e3);
    let records = |cells: &[tenoc_harness::CellResult]| -> Vec<RunRecord> {
        cells.iter().map(tenoc_harness::annotate).collect()
    };
    let text = to_jsonl(&records(&parallel));
    run.check(text == to_jsonl(&records(&serial)), || "records differ between 1 and 2 jobs".into());
    trace_json(run, &text);
    run.output = text.into_bytes();
    trace_cli(run)
}

fn class_of(label: &str) -> TrafficClass {
    match label {
        "LL" => TrafficClass::LL,
        "LH" => TrafficClass::LH,
        _ => TrafficClass::HH,
    }
}

fn trace_serve(run: &mut Run, w: &Workload, resubmits: usize) -> Result<(), String> {
    let seed = run.opts.seed;
    let grid = plan(&w.grid, seed);
    let cells = grid.cells();
    // The service in process, spoken to over real sockets.
    let cache_dir = run.scratch("serve-cache")?;
    let config = || ServerConfig { workers: JOBS, ..ServerConfig::new("127.0.0.1:0", &cache_dir) };
    let span = run.tracer.open("serve", Some(run.root));
    let handle =
        tenoc_serve::start(config()).map_err(|e| format!("cannot start the service: {e}"))?;
    let addr = handle.addr();
    let tenants = ["a", "b"].map(|t| sweep_request(t, &grid, &w.grid, seed));

    // Cold: both tenants at once.
    let cold_span = run.tracer.open("serve.cold", Some(span));
    let replies: Vec<Result<Reply, String>> = std::thread::scope(|s| {
        let handles: Vec<_> =
            tenants.iter().map(|line| s.spawn(move || submit(addr, line))).collect();
        handles.into_iter().map(|h| h.join().expect("a client does not panic")).collect()
    });
    let cold_s = run.tracer.close(cold_span);
    run.m.set("serve.cold_submit_ms", cold_s * 1e3);
    let cold_bytes = replies[0].as_ref().map(|r| r.records.clone()).unwrap_or_default();
    for reply in &replies {
        let ok = matches!(reply, Ok(r) if r.records == cold_bytes && !r.records.is_empty());
        run.check(ok, || format!("cold submit: {:?}", reply.as_ref().err()));
    }
    let stats = handle.stats();
    run.m.set("serve.dedup_hits", stats.dedup_hits as f64);
    run.m.set("serve.simulated", stats.simulated as f64);

    // Cached: one closed-loop client, a connection per resubmit.
    let resubmit_ms = |reply: Result<Reply, String>| match reply {
        Ok(r) if r.records == cold_bytes && r.simulated == 0 => Some(r.latency.as_secs_f64() * 1e3),
        _ => None,
    };
    let cached_span = run.tracer.open("serve.cached", Some(span));
    let mut latencies: Vec<f64> =
        (0..resubmits).filter_map(|_| resubmit_ms(submit(addr, &tenants[0]))).collect();
    let cached_s = run.tracer.close(cached_span);
    let failed = (resubmits - latencies.len()) as u64;
    run.ops.add(resubmits as u64, failed);
    if failed > 0 {
        run.problems.push(format!("{failed} cached resubmits failed, simulated or differed"));
    }
    if !latencies.is_empty() {
        let n = latencies.len();
        run.m.set("serve.cached_p50_ms", median(&mut latencies));
        // The highest tail with ten samples beyond it; p99 at full size.
        let tail = highest_tail(n).map_or(0.5, |p| p.min(0.99));
        run.m.set("serve.cached_p99_ms", percentile(&latencies, tail));
        run.m.set("serve.cached_req_per_s", n as f64 / cached_s);
        let busy_ns = latencies.iter().sum::<f64>() * 1e6;
        run.tracer.folded("serve.cached.request", cached_span, n as u64, busy_ns);
    }

    // The same resubmit on one kept-alive connection. The first request
    // on a connection rides the kernel's quick-ACK start; later ones pay
    // whatever the server's write pattern costs under Nagle's algorithm.
    let mut conn = Conn::open(addr)?;
    let mut kept_alive: Vec<f64> =
        (0..8).filter_map(|_| resubmit_ms(conn.sweep(&tenants[0], Instant::now()))).collect();
    run.check(kept_alive.len() == 8, || "a kept-alive resubmit failed or differed".to_string());
    if kept_alive.len() > 1 {
        run.m.set("serve.keepalive_p50_ms", median(&mut kept_alive[1..]));
    }
    drop(conn);

    // Transport + parse + lock with no cell work.
    let mut rtts = Vec::new();
    for _ in 0..resubmits.max(100) {
        rtts.push(stats_round_trip(addr)?.as_secs_f64() * 1e6);
    }
    run.m.set("serve.stats_rtt_us", median(&mut rtts));

    // Restart on the populated journal: start() returns once the journal
    // is replayed and the listener is bound.
    handle.shutdown();
    let (restarted, restart_s) = run.tracer.time("serve.restart", Some(span), || {
        tenoc_serve::start(config()).and_then(|h| TcpStream::connect(h.addr()).map(|_| h))
    });
    let restarted = restarted.map_err(|e| format!("cannot restart the service: {e}"))?;
    run.m.set("serve.restart_ready_ms", restart_s * 1e3);
    let reply = submit(restarted.addr(), &tenants[0]);
    run.check(resubmit_ms(reply).is_some(), || {
        "the resubmit after a restart differs from the cold run".to_string()
    });
    let after = restarted.stats();
    run.check(after.simulated == 0, || {
        format!("the restarted service simulated {}", after.simulated)
    });
    restarted.shutdown();
    run.tracer.close(span);

    // The layers under the service, called directly on the same grid
    // and the records it produced.
    let records = trace_json(run, &cold_bytes);
    run.check(records.len() == cells.len(), || {
        format!("{} records for {} cells", records.len(), cells.len())
    });
    let span = run.tracer.open("serve.layers", Some(run.root));
    const REPS: usize = 200;
    let t = Instant::now();
    for _ in 0..REPS {
        for cell in &cells {
            std::hint::black_box(cell_key(std::hint::black_box(cell)));
        }
    }
    run.m.set(
        "serve.canon_ns_per_cell",
        t.elapsed().as_nanos() as f64 / (REPS * cells.len()) as f64,
    );

    let t = Instant::now();
    for _ in 0..REPS {
        let parsed =
            serde::json::parse(std::hint::black_box(&tenants[0])).map_err(|e| e.to_string())?;
        let grid = SweepRequest::from_value(&parsed).and_then(|r| r.grid())?;
        std::hint::black_box(grid);
    }
    run.m.set("serve.plan_us", t.elapsed().as_secs_f64() * 1e6 / REPS as f64);

    let entries: Vec<(String, CachedCell)> = cells
        .iter()
        .zip(&records)
        .map(|(c, r)| (cell_key(c), CachedCell { class: class_of(&r.class), metrics: r.metrics }))
        .collect();
    let journal_dir = run.scratch("serve-journal")?;
    let mut cache = DiskCache::open(&journal_dir).map_err(|e| e.to_string())?;
    const ROUNDS: usize = 40;
    let t = Instant::now();
    for round in 0..ROUNDS {
        for (key, cell) in &entries {
            cache.put(&format!("{key}-{round}"), *cell).map_err(|e| e.to_string())?;
        }
    }
    let puts = (ROUNDS * entries.len()) as f64;
    run.m.set("serve.cache_put_us", t.elapsed().as_secs_f64() * 1e6 / puts);
    let keys: Vec<String> = entries.iter().map(|(k, _)| format!("{k}-0")).collect();
    let t = Instant::now();
    for _ in 0..REPS {
        for key in &keys {
            std::hint::black_box(cache.get(std::hint::black_box(key)).is_some());
        }
    }
    run.m.set("serve.cache_get_ns", t.elapsed().as_nanos() as f64 / (REPS * keys.len()) as f64);
    run.check(cache.len() == puts as usize, || "the cache lost entries".to_string());
    drop(cache);
    let t = Instant::now();
    let replayed = DiskCache::open(&journal_dir).map_err(|e| e.to_string())?;
    run.m.set("serve.cache_replay_us_per_entry", t.elapsed().as_secs_f64() * 1e6 / puts);
    run.check(replayed.len() == puts as usize && replayed.skipped_lines == 0, || {
        format!("replay found {} of {puts} entries", replayed.len())
    });

    let mut sched: DeadlineRr<u64> = DeadlineRr::new();
    let n = (REPS * cells.len()) as u64;
    let t = Instant::now();
    for i in 0..n {
        sched.push(if i % 2 == 0 { "a" } else { "b" }, i);
    }
    let mut popped = 0;
    while let Some(item) = sched.pop() {
        std::hint::black_box(item);
        popped += 1;
    }
    run.m.set("serve.sched_ns_per_op", t.elapsed().as_nanos() as f64 / (2 * n) as f64);
    run.check(popped == n, || "the scheduler lost items".to_string());
    run.tracer.close(span);

    run.output = cold_bytes.into_bytes();
    trace_cli(run)
}

fn trace_tune(run: &mut Run, tiny: bool) -> Result<(), String> {
    let span = run.tracer.open("verify", Some(run.root));
    let (report, audit_s) = run.tracer.time("verify.audit_grid", Some(span), || audit_grid(6));
    run.m.set("verify.audit_grid_ms", audit_s * 1e3);
    run.check(report.entries.iter().any(|e| e.legal), || "the audit found no legal design".into());

    let (analyzed, analyze_s) = run.tracer.time("verify.analyze", Some(span), || {
        let mut analyzed = 0u32;
        let mut dirty = Vec::new();
        for preset in Preset::NAMED {
            let report = match preset.icnt(6) {
                IcntConfig::Mesh(c) => tenoc_verify::analyze(&c),
                IcntConfig::Double(c) => tenoc_verify::analyze_double(&c),
                _ => continue,
            };
            analyzed += 1;
            if !report.is_clean() {
                dirty.push(preset.label());
            }
        }
        (analyzed, dirty)
    });
    run.tracer.close(span);
    run.m.set("verify.analyze_us_per_preset", analyze_s * 1e6 / f64::from(analyzed.0.max(1)));
    run.check(analyzed.1.is_empty(), || format!("presets fail verification: {:?}", analyzed.1));

    // One default-window probe on the Thr-Eff slices, arena engine: the
    // unit of work the tuner's stage 2 is made of.
    let icnt = Preset::ThroughputEffective.icnt(6);
    let mut cfg = OpenLoopConfig::new(icnt.net().clone(), 0.04, TrafficPattern::UniformRandom);
    cfg.seed = run.opts.seed;
    if tiny {
        [cfg.warmup, cfg.measure, cfg.drain] = [200, 600, 800];
    }
    let (result, probe_s) = run.tracer.time("noc.openloop_probe", Some(run.root), || {
        let mut probe =
            OpenLoopProbe::new(cfg.clone(), ArenaDoubleNetwork::from_single(icnt.net()));
        while !probe.done() {
            probe.tick();
        }
        probe.result()
    });
    run.m.set("noc.openloop_probe_ms", probe_s * 1e3);
    run.check(result.delivered_fraction > 0.99, || format!("the probe saturated: {result:?}"));

    // The search itself, in process: cold, then warm on the same cache.
    let mut spec = if tiny { TuneSpec::tiny() } else { TuneSpec::default_at(6) };
    spec.seed = run.opts.seed;
    let opts = TuneOptions {
        jobs: JOBS,
        cache_dir: Some(run.scratch("tune-cache")?),
        ..TuneOptions::default()
    };
    let span = run.tracer.open("tune", Some(run.root));
    let (cold, cold_s) = run.tracer.time("tune.cold", Some(span), || run_tune(&spec, &opts));
    let (warm, warm_s) = run.tracer.time("tune.warm", Some(span), || run_tune(&spec, &opts));
    run.tracer.close(span);
    let (cold_report, cold_stats) = cold.map_err(|e| format!("tune cache: {e}"))?;
    let (warm_report, warm_stats) = warm.map_err(|e| format!("tune cache: {e}"))?;
    run.m.set("tune.stage012_s", warm_s);
    run.m.set("tune.stage3_s", (cold_s - warm_s).max(0.0));
    run.m.set("tune.stage3_cells", cold_stats.stage3_cells as f64);
    run.m.set("tune.stage3_cache_hits", warm_stats.stage3_cache_hits as f64);
    run.m.set("tune.probes", cold_stats.probes as f64);
    let json = cold_report.to_json();
    run.check(json == warm_report.to_json(), || "warm and cold reports differ".to_string());
    run.check(warm_stats.stage3_cache_hits == warm_stats.stage3_cells, || {
        format!("the warm search simulated cells: {warm_stats:?}")
    });
    run.check(!cold_report.frontier.is_empty(), || "the frontier is empty".to_string());
    run.output = json.into_bytes();
    trace_cli(run)
}

/// Runs one workload's traced, in-process measurement and reports every
/// per-layer metric (0 for a layer the workload bypasses).
///
/// # Errors
///
/// Returns a message when the benchmark itself could not run.
pub fn run_workload(
    repo: &crate::proc::Repo,
    w: &Workload,
    opts: &RunOpts,
    expected_digest: Option<u64>,
) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(w.name);
    let root = tracer.open(w.name, None);
    let mut run = Run {
        repo,
        opts,
        tracer,
        root,
        overhead_ns: timer_overhead_ns(),
        m: Metrics::zeroed(&PER_LAYER),
        ops: Ops::default(),
        problems: Vec::new(),
        output: Vec::new(),
    };
    match w.kind {
        Kind::Sweep { noc_rate } => trace_sweep(&mut run, w, noc_rate)?,
        Kind::Serve { resubmits } => trace_serve(&mut run, w, resubmits)?,
        Kind::Tune { tiny } => trace_tune(&mut run, tiny)?,
    }
    run.tracer.close(root);
    let digest = fnv1a64(&run.output);
    // 48 bits of the digest survive a trip through a JSON number.
    run.m.set("sim.output_digest", (digest & 0xffff_ffff_ffff) as f64);
    run.m.set("sim.digest_match", f64::from(u8::from(expected_digest == Some(digest))));
    run.tracer.write(&Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("trace.jsonl"))?;
    Ok(Outcome { ops: run.ops, problems: run.problems, metrics: run.m, digest })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GridSpec;

    /// The attribution method's own correctness: a system driven edge by
    /// edge beside a shadow clock stops on exactly the cycle counts
    /// `System::run` reports, with exactly its metrics — on both engines.
    #[test]
    fn the_edge_driven_run_is_system_run() {
        let grid = plan(&GridSpec { presets: "thr-eff", benchmarks: "HIS", scale: 0.02 }, 11);
        let cell = grid.cell(0);
        let spec = tenoc_workloads::by_name("HIS").unwrap().scaled(cell.scale);
        for engine in [EngineKind::PerCell, EngineKind::Arena] {
            let cfg = SystemConfig { engine, ..cell_system_config(&cell) };
            let reference = System::new(cfg.clone(), &spec).run();
            assert!(reference.completed);
            let p = drive_edges(&cfg, &spec, reference.core_cycles, 0.0);
            assert_eq!(p.metrics, reference, "{engine:?}");
            assert_eq!(p.shadow_core_cycles, reference.core_cycles);
            assert_eq!(p.shadow_icnt_cycles, reference.icnt_cycles);
            let edges: u64 = p.domains.iter().map(|d| d.events).sum();
            let timed: u64 = p.domains.iter().map(|d| d.timed).sum();
            assert_eq!(p.domains[0].events, reference.core_cycles);
            assert_eq!(p.domains[1].events, reference.icnt_cycles);
            assert!(timed * (EDGE_STRIDE + 1) > edges && timed * (EDGE_STRIDE - 1) < edges);
        }
    }

    /// The decorator forwards: a probe through `Timed` gets the result a
    /// bare probe gets, and the two engines agree under it.
    #[test]
    fn the_timing_decorator_does_not_perturb_the_probe() {
        let icnt = Preset::ThroughputEffective.icnt(6);
        let cfg = openloop_config(&icnt, 0.03, [100, 300, 400], 5);
        let IcntConfig::Double(c) = &icnt else { panic!("thr-eff is a double network") };
        let mut bare = OpenLoopProbe::new(cfg.clone(), ArenaDoubleNetwork::from_single(c));
        while !bare.done() {
            bare.tick();
        }
        let [oracle, arena] =
            probe_engines(&icnt, &cfg, 0.0).expect("thr-eff packs into the arena");
        assert_eq!(arena.result, format!("{:?}", bare.result()));
        assert_eq!(oracle.result, arena.result);
        assert_eq!(arena.calls.ticks, 800);
        assert_eq!(arena.calls.phase_ns.len(), 2, "request and reply slices");
        assert!(arena.flit_hops > 0 && arena.calls.pops > arena.calls.ticks);
    }

    #[test]
    fn spans_are_written_with_their_parents() {
        let mut t = Tracer::new("sweep_hh");
        let root = t.open("root", None);
        let ((), _) = t.time("child", Some(root), || ());
        t.close(root);
        t.folded("edges", root, 40, 1234.0);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("span-test.jsonl");
        t.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<Value> = text.lines().map(|l| serde::json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].field("parent").unwrap(), &Value::Null);
        assert_eq!(lines[1].field("parent").unwrap().as_u64().unwrap(), 0);
        assert_eq!(lines[2].field("calls").unwrap().as_u64().unwrap(), 40);
        assert_eq!(lines[2].field("workload").unwrap().as_str().unwrap(), "sweep_hh");
    }
}
