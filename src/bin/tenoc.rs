//! `tenoc` — command-line front end for the simulator.
//!
//! `tenoc <command> [flags]`; run `tenoc` with no arguments for every
//! subcommand's usage. The [`COMMANDS`] table is the one source for the
//! usage text and for the flags each subcommand accepts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::json::Value;
use serde::Serialize;
use std::collections::HashMap;
use std::process::ExitCode;
use tenoc::core::experiments::{is_valid_scale, run_benchmark, scale_from_env};
use tenoc::core::presets::Preset;
use tenoc::core::{EngineKind, IcntConfig, MAX_MESH_K};
use tenoc::harness::{jobs_from_env, SweepGrid};
use tenoc::noc::openloop::{latency_curve, run_open_loop_on, OpenLoopConfig, TrafficPattern};
use tenoc::serve::SweepRequest;
use tenoc::simt::KernelSpec;
use tenoc::workloads::{by_name, full_name, smoke_suite, suite};

/// What a subcommand returns: `Err` is printed as `<command>: <message>`
/// and exits 1 (usage errors exit 2 on the spot via
/// [`Command::usage_error`]).
type CmdResult = Result<(), String>;

/// One subcommand: its name, the `--flags` it accepts and their usage
/// text (continuation lines indented to sit under the first in [`usage`]).
struct Command {
    name: &'static str,
    flags: &'static [&'static str],
    usage: &'static str,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "run",
        flags: &["benchmark", "preset", "scale", "json"],
        usage: "--benchmark <ABBR> --preset <NAME> [--scale F] [--json]",
    },
    Command {
        name: "sweep",
        flags: &[
            "presets",
            "benchmarks",
            "scale",
            "seed",
            "jobs",
            "out",
            "tiny",
            "golden",
            "check",
            "bless",
        ],
        usage: "[--presets A,B|all] [--benchmarks X,Y|smoke|all] [--scale F]\n\
           \x20           [--seed N] [--jobs N] [--out FILE] [--tiny]\n\
           \x20           [--golden FILE --check|--bless]",
    },
    Command {
        name: "trace",
        flags: &["preset", "benchmark", "scale", "out", "flight-cap", "node", "class"],
        usage: "--preset <NAME> [--benchmark <ABBR>] [--scale F] [--out DIR]\n\
           \x20           [--flight-cap N] [--node N] [--class request|reply]\n\
           \x20           (telemetry artifacts: latency histograms, link heatmap,\n\
           \x20            flight recorder -> trace.json + flight.jsonl)",
    },
    Command {
        name: "audit",
        flags: &["k", "out", "json", "golden", "check", "bless"],
        usage: "[--k N] [--out FILE] [--json] [--golden FILE --check|--bless]\n\
           \x20           (static config-space audit: verify, bound, price, rank)",
    },
    Command {
        name: "tune",
        flags: &[
            "k", "tiny", "jobs", "scale", "seed", "cache", "out", "json", "golden", "check",
            "bless",
        ],
        usage: "[--k N] [--tiny] [--jobs N] [--scale F] [--seed N]\n\
           \x20           [--cache DIR] [--out FILE] [--json]\n\
           \x20           [--golden FILE --check|--bless]\n\
           \x20           (staged-fidelity search of the IPC/mm2 Pareto frontier:\n\
           \x20            verify -> static rank -> open-loop probes -> closed-loop\n\
           \x20            successive halving; --cache memoizes probes, cells and\n\
           \x20            frontier heatmaps)",
    },
    Command {
        name: "serve",
        flags: &["addr", "cache", "jobs"],
        usage: "[--addr HOST:PORT] [--cache DIR] [--jobs N]\n\
           \x20           (long-running sweep service: content-addressed cache,\n\
           \x20            in-flight dedup, tenant-fair scheduling; default addr\n\
           \x20            127.0.0.1:32268)",
    },
    Command {
        name: "submit",
        flags: &[
            "addr",
            "tenant",
            "tiny",
            "presets",
            "benchmarks",
            "scale",
            "seed",
            "out",
            "require-cached",
            "stats",
        ],
        usage: "[--addr HOST:PORT] [--tenant NAME] [--tiny]\n\
           \x20           [--presets A,B|all] [--benchmarks X,Y|smoke|all] [--scale F]\n\
           \x20           [--seed N] [--out FILE] [--require-cached]\n\
           \x20           (submit the grid `sweep` would run for the same flags to a\n\
           \x20            running service; --stats fetches the service counters\n\
           \x20            instead)",
    },
    Command {
        name: "openloop",
        flags: &["preset", "hotspot", "rate"],
        usage: "--preset <NAME> [--hotspot] [--rate F]",
    },
    Command { name: "list", flags: &[], usage: "(benchmarks and presets)" },
];

impl Command {
    /// Prints `problem` and this subcommand's usage, then exits 2.
    fn usage_error(&self, problem: &str) -> ! {
        eprintln!("{}: {problem}\nusage: tenoc {} {}", self.name, self.name, self.usage);
        std::process::exit(2)
    }

    /// The flag's value, else the environment knob's; a malformed
    /// variable is a usage error exactly like a malformed flag.
    fn or_env<T>(&self, flag: Option<T>, knob: fn() -> Result<T, String>) -> T {
        flag.unwrap_or_else(|| knob().unwrap_or_else(|e| self.usage_error(&e)))
    }
}

/// A subcommand's parsed `--flag [value]` pairs.
struct Flags {
    cmd: &'static Command,
    values: HashMap<String, String>,
}

impl Flags {
    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn contains_key(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// The value of `--key` parsed as `T` and accepted by `ok`; `None`
    /// when the flag is absent, so the caller's default applies. A value
    /// that does not parse or is out of range is a usage error — like a
    /// mistyped flag, it must not silently run the default experiment.
    fn parsed<T: std::str::FromStr>(&self, key: &str, ok: impl Fn(&T) -> bool) -> Option<T> {
        let raw = self.values.get(key)?;
        match raw.parse::<T>().ok().filter(ok) {
            Some(value) => Some(value),
            None => self.cmd.usage_error(&format!("invalid value for --{key}: {raw}")),
        }
    }

    fn scale(&self) -> Option<f64> {
        self.parsed("scale", is_valid_scale)
    }

    fn seed(&self) -> Option<u64> {
        self.parsed("seed", |_| true)
    }

    fn jobs(&self) -> Option<usize> {
        self.parsed("jobs", |j| *j >= 1)
    }

    /// Mesh radix, default 6; a 1x1 mesh has no network to study, and one
    /// above [`MAX_MESH_K`] has more cores than a packet tag can name.
    fn k(&self) -> usize {
        self.parsed("k", |k| (2..=MAX_MESH_K).contains(k)).unwrap_or(6)
    }

    /// Whether `--tiny` is set. It names a fixed experiment, so a flag in
    /// `fixed` beside it is a usage error rather than silently ignored
    /// (callers parse flag values first, so a bad value reports as one).
    fn tiny(&self, fixed: &[&str]) -> bool {
        let tiny = self.contains_key("tiny");
        if let Some(flag) = fixed.iter().find(|f| tiny && self.contains_key(f)) {
            self.cmd.usage_error(&format!("--tiny cannot be combined with --{flag}"));
        }
        tiny
    }

    /// The required `--preset`; a missing or unknown one is a usage error.
    fn preset(&self) -> Preset {
        let Some(name) = self.get("preset") else { self.cmd.usage_error("missing --preset") };
        Preset::from_flag(name).unwrap_or_else(|| {
            self.cmd.usage_error(&format!("unknown preset {name}; see `tenoc list`"))
        })
    }

    /// `--benchmark`, or `default` when the subcommand has one.
    fn benchmark(&self, default: Option<&str>) -> Result<KernelSpec, String> {
        let Some(name) = self.get("benchmark").or(default) else {
            self.cmd.usage_error("missing --benchmark")
        };
        by_name(name).ok_or_else(|| format!("unknown benchmark {name}; see `tenoc list`"))
    }
}

/// Parses `--flag [value]` pairs, rejecting anything `cmd` does not
/// accept: a mistyped flag must not silently run a different experiment.
fn parse_flags(cmd: &Command, args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return Err(format!("unexpected argument {}", args[i]));
        };
        if !cmd.flags.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let value = if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            i += 1;
            args[i].clone()
        } else {
            "true".to_owned()
        };
        out.insert(key.to_owned(), value);
        i += 1;
    }
    Ok(out)
}

/// Every named preset's canonical flag, for the usage text and `list`.
fn preset_flags() -> Vec<&'static str> {
    Preset::NAMED.iter().map(Preset::flag).collect()
}

fn usage() -> ExitCode {
    eprintln!("usage: tenoc <command> [flags]\ncommands:");
    for cmd in COMMANDS {
        eprintln!("  {:<9} {}", cmd.name, cmd.usage);
    }
    eprintln!("presets: {}", preset_flags().join(" "));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().and_then(|name| COMMANDS.iter().find(|c| c.name == name)) else {
        return usage();
    };
    let flags = match parse_flags(cmd, &args[1..]) {
        Ok(values) => Flags { cmd, values },
        Err(e) => cmd.usage_error(&e),
    };
    let scale = cmd.or_env(flags.scale(), scale_from_env);

    let result = match cmd.name {
        "run" => cmd_run(&flags, scale),
        "sweep" => cmd_sweep(&flags, scale),
        "serve" => cmd_serve(&flags),
        "submit" => cmd_submit(&flags, scale),
        "audit" => cmd_audit(&flags),
        "tune" => cmd_tune(&flags),
        "trace" => cmd_trace(&flags, scale),
        "openloop" => cmd_openloop(&flags),
        "list" => cmd_list(),
        other => unreachable!("{other} is in COMMANDS but not dispatched"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}: {e}", cmd.name);
            ExitCode::FAILURE
        }
    }
}

/// Where a subcommand's artifact goes: `--out FILE`, or stdout when the
/// flag is absent and `or_stdout` is set.
fn emit(flags: &Flags, what: &str, text: &str, or_stdout: bool) -> CmdResult {
    if let Some(path) = flags.get("out") {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("{}: wrote {what} to {path}", flags.cmd.name);
    } else if or_stdout {
        print!("{text}");
    }
    Ok(())
}

/// The one artifact gate: [`emit`], then `--golden FILE --bless`
/// overwrites the snapshot with `text`, and `--golden FILE --check` hands
/// the snapshot's text to `check`, which answers with the sentence to
/// report either way.
fn gate(
    flags: &Flags,
    what: &str,
    text: &str,
    or_stdout: bool,
    check: impl FnOnce(&str) -> Result<String, String>,
) -> CmdResult {
    emit(flags, what, text, or_stdout)?;
    let name = flags.cmd.name;
    let Some(golden) = flags.get("golden") else { return Ok(()) };
    if flags.contains_key("bless") {
        std::fs::write(golden, text).map_err(|e| format!("cannot bless {golden}: {e}"))?;
        eprintln!("{name}: blessed golden snapshot {golden}");
    } else if flags.contains_key("check") {
        let snapshot = std::fs::read_to_string(golden)
            .map_err(|e| format!("cannot read golden {golden}: {e}"))?;
        let verdict = check(&snapshot).map_err(|problem| {
            format!("{problem}\n(golden {golden}; re-run with --bless to accept the new numbers)")
        })?;
        eprintln!("{name}: {verdict}");
    } else {
        return Err("--golden needs --check or --bless".into());
    }
    Ok(())
}

/// The `check` of a report whose snapshot is its exact text.
fn same_text(text: &str) -> impl FnOnce(&str) -> Result<String, String> + '_ {
    move |snapshot| {
        if snapshot.trim() == text.trim() {
            Ok("report matches the golden snapshot".into())
        } else {
            Err("report differs from the golden snapshot".into())
        }
    }
}

fn cmd_run(flags: &Flags, scale: f64) -> CmdResult {
    let (preset, spec) = (flags.preset(), flags.benchmark(None)?);
    let m = run_benchmark(preset, &spec, scale);
    if flags.contains_key("json") {
        println!(
            "{{\"benchmark\":\"{}\",\"preset\":\"{}\",\"metrics\":{}}}",
            spec.name,
            preset.label(),
            m.to_value().to_json_compact()
        );
    } else {
        println!(
            "{} on {}: IPC {:.1}, net latency {:.1} cyc, MC stall {:.0}%, DRAM eff {:.0}%",
            spec.name,
            preset.label(),
            m.ipc,
            m.avg_net_latency,
            m.mc_stall_fraction * 100.0,
            m.dram_efficiency * 100.0
        );
    }
    Ok(())
}

/// Says on stderr what is about to run on the worker pool: the grid's
/// size and the worker count.
fn announce(cmd: &Command, grid: &SweepGrid, jobs: usize) {
    eprintln!(
        "{}: {} cells ({} presets x {} benchmarks) at scale {}, {} jobs",
        cmd.name,
        grid.len(),
        grid.presets.len(),
        grid.benchmarks.len(),
        grid.scale,
        jobs
    );
}

/// A JSON object with `fields` in the given order.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `tenoc openloop`: probe the preset's actual fabric — a sliced preset
/// on its two half-width networks — at one rate or up to saturation.
fn cmd_openloop(flags: &Flags) -> CmdResult {
    let icnt = flags.preset().icnt(6);
    if !matches!(icnt, IcntConfig::Mesh(_) | IcntConfig::Double(_)) {
        return Err("pick a physical-network preset".into());
    }
    let pattern = if flags.contains_key("hotspot") {
        TrafficPattern::Hotspot { hot: 0, fraction: 0.2 }
    } else {
        TrafficPattern::UniformRandom
    };
    let cfg = OpenLoopConfig::new(icnt.net().clone(), 0.0, pattern);
    let build = || icnt.build(EngineKind::Arena);
    // An offered rate is flits/cycle/node, and a source cannot offer more
    // than one flit a cycle: the generator would clamp it and report the
    // experiment it did not run.
    if let Some(rate) = flags.parsed("rate", |r: &f64| *r > 0.0 && *r <= 1.0) {
        let r = run_open_loop_on(&OpenLoopConfig { injection_rate: rate, ..cfg }, &mut *build());
        println!(
            "rate {rate}: latency {:.1} cyc, delivered {:.1}%{}",
            r.avg_latency,
            r.delivered_fraction * 100.0,
            if r.saturated() { " (saturated)" } else { "" }
        );
    } else {
        println!("{:>6} {:>10}", "rate", "latency");
        for r in latency_curve(&cfg, (1..=12).map(|i| i as f64 * 0.01), build) {
            if r.saturated() {
                println!("{:>6.2} {:>10}", r.offered, "saturated");
            } else {
                println!("{:>6.2} {:>10.1}", r.offered, r.avg_latency);
            }
        }
    }
    Ok(())
}

fn cmd_list() -> CmdResult {
    println!("benchmarks (Table I):");
    for spec in suite() {
        println!("  {:>4} [{}] {}", spec.name, spec.class, full_name(&spec.name).unwrap_or(""));
    }
    println!("\npresets: {}", preset_flags().join(", "));
    Ok(())
}

/// The largest `--flight-cap`: 32 MiB of ring per network slice at 32 B
/// per [`FlightEvent`](tenoc::noc::FlightEvent), allocated at arm time.
const MAX_FLIGHT_CAP: usize = 1 << 20;

/// `tenoc trace`: run one benchmark on one preset with the telemetry
/// layer armed and emit the artifacts — `trace.json` (metrics, per-class
/// latency histograms, per-link utilization with a mesh heatmap, mean
/// buffer occupancies) and `flight.jsonl` (one flight-recorder event per
/// line, tagged with its network slice).
fn cmd_trace(flags: &Flags, scale: f64) -> CmdResult {
    use tenoc::core::experiments::run_traced_with_system_config;
    use tenoc::core::SystemConfig;
    use tenoc::noc::{ArmSpec, PacketClass, TelemetryConfig};

    let (preset, spec) = (flags.preset(), flags.benchmark(Some("RD"))?);
    let class = match flags.get("class") {
        None => None,
        Some("request") => Some(PacketClass::Request),
        Some("reply") => Some(PacketClass::Reply),
        Some(other) => return Err(format!("--class must be request or reply, got {other}")),
    };
    let tcfg = TelemetryConfig {
        flight_capacity: flags
            .parsed("flight-cap", |cap| *cap <= MAX_FLIGHT_CAP)
            .unwrap_or(TelemetryConfig::default().flight_capacity),
        arm: ArmSpec {
            node: flags.parsed("node", |n| *n < preset.icnt(6).net().mesh.len()),
            class,
        },
    };

    eprintln!("trace: {} on {} at scale {scale}", spec.name, preset.label());
    let cfg = SystemConfig::with_icnt(preset.icnt(6));
    let (metrics, reports) = run_traced_with_system_config(cfg, &spec, scale, tcfg);
    if reports.is_empty() {
        return Err(format!(
            "preset {} has no physical network to observe (ideal model)",
            preset.label()
        ));
    }

    let dir = flags.get("out").unwrap_or("trace-out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;

    // trace.json: everything except the flight events (those go to the
    // JSON-lines file, which is friendlier to streaming consumers).
    let trace = object([
        ("preset", preset.label().to_value()),
        ("benchmark", spec.name.to_value()),
        ("scale", scale.to_value()),
        ("metrics", metrics.to_value()),
        ("reports", reports.to_value()),
    ]);
    let trace_path = format!("{dir}/trace.json");
    std::fs::write(&trace_path, trace.to_json_pretty())
        .map_err(|e| format!("cannot write {trace_path}: {e}"))?;

    // flight.jsonl: every slice's ring-buffer sample, one event per line,
    // tagged with the slice label.
    let mut flight = String::new();
    let mut events = 0usize;
    for r in &reports {
        for ev in &r.flight {
            let mut obj = vec![("net".to_string(), r.label.to_value())];
            if let Value::Object(fields) = ev.to_value() {
                obj.extend(fields);
            }
            flight.push_str(&Value::Object(obj).to_json_compact());
            flight.push('\n');
            events += 1;
        }
    }
    let flight_path = format!("{dir}/flight.jsonl");
    std::fs::write(&flight_path, &flight)
        .map_err(|e| format!("cannot write {flight_path}: {e}"))?;

    for r in &reports {
        let req = r.hist.network[0].count();
        let rep = r.hist.network[1].count();
        eprintln!(
            "trace: [{}] {} cycles, {} links, {} flight events ({} dropped), hist req/rep {}/{}",
            r.label,
            r.cycles,
            r.links.len(),
            r.flight.len(),
            r.flight_dropped,
            req,
            rep
        );
    }
    eprintln!("trace: wrote {trace_path} and {flight_path} ({events} events)");
    Ok(())
}

/// Default service address: port 0x7e0c, the workspace's seed constant.
const SERVE_ADDR: &str = "127.0.0.1:32268";

/// `tenoc serve`: run the sweep service until killed. Results are
/// journaled to the cache directory as they complete, so a killed server
/// restarted on the same `--cache` resumes without re-simulating.
fn cmd_serve(flags: &Flags) -> CmdResult {
    let mut cfg = tenoc::serve::ServerConfig::new(
        flags.get("addr").unwrap_or(SERVE_ADDR),
        flags.get("cache").unwrap_or("sweep-cache"),
    );
    if let Some(jobs) = flags.jobs() {
        cfg.workers = jobs;
    }
    let handle = tenoc::serve::start(cfg.clone())
        .map_err(|e| format!("cannot start on {}: {e}", cfg.addr))?;
    eprintln!(
        "serve: listening on {} ({} workers, cache {})",
        handle.addr(),
        cfg.workers,
        cfg.cache_dir.display()
    );
    // Serve until the process is killed; the journal makes that safe.
    loop {
        std::thread::park();
    }
}

/// The one flags-to-request site: `tenoc sweep` runs this request's grid
/// in-process, `tenoc submit` puts the same request on the wire, so the
/// same flags name the same cells (and bytes) through either.
fn sweep_request(flags: &Flags, scale: f64) -> SweepRequest {
    let names = |specs: Vec<KernelSpec>| specs.into_iter().map(|s| s.name).collect();
    let list = |csv: &str| csv.split(',').map(str::to_owned).collect();
    let seed = flags.seed().unwrap_or(tenoc::serve::DEFAULT_SEED);
    let tiny = flags.tiny(&["presets", "benchmarks", "scale", "seed"]);
    SweepRequest {
        tenant: flags.get("tenant").unwrap_or("cli").to_owned(),
        presets: match flags.get("presets") {
            None => vec![Preset::BaselineTbDor.flag().to_owned()],
            Some("all") => preset_flags().into_iter().map(str::to_owned).collect(),
            Some(csv) => list(csv),
        },
        benchmarks: match flags.get("benchmarks") {
            None | Some("smoke") => names(smoke_suite()),
            Some("all") => names(suite()),
            Some(csv) => list(csv),
        },
        scale,
        seed,
        tiny,
        ..SweepRequest::default()
    }
}

/// `tenoc sweep`: fan a (preset x benchmark) grid over the worker pool and
/// emit JSON-lines records, optionally checking or refreshing a golden
/// snapshot.
fn cmd_sweep(flags: &Flags, scale: f64) -> CmdResult {
    use tenoc::harness::{check_fingerprints, engine, from_jsonl};

    let grid = sweep_request(flags, scale).grid()?;
    let jobs = flags.cmd.or_env(flags.jobs(), jobs_from_env);
    announce(flags.cmd, &grid, jobs);
    let (records, jsonl) = engine::run_sweep_jsonl(&grid, jobs);
    gate(flags, &format!("{} records", records.len()), &jsonl, true, |snapshot| {
        let golden = from_jsonl(snapshot).map_err(|e| format!("malformed golden: {e}"))?;
        check_fingerprints(&records, &golden)
            .map_err(|problems| format!("golden mismatch:\n  {}", problems.join("\n  ")))?;
        Ok(format!("{} records match the golden snapshot", records.len()))
    })
}

/// `tenoc submit`: send one sweep to a running service, reassemble the
/// stream in cell order (byte-identical to `tenoc sweep` output for the
/// same flags) and report the request's cache accounting. With `--stats`,
/// fetch the service counters instead.
fn cmd_submit(flags: &Flags, scale: f64) -> CmdResult {
    let addr = flags.get("addr").unwrap_or(SERVE_ADDR);
    if flags.contains_key("stats") {
        let stats = tenoc::serve::fetch_stats(addr)
            .map_err(|e| format!("stats from {addr} failed: {e}"))?;
        return emit(flags, "service stats", &(stats.to_json_compact() + "\n"), true);
    }
    let req = sweep_request(flags, scale);
    // The server may have been spawned a moment ago (CI backgrounds
    // it); retry the connect briefly instead of failing on a race.
    let delay = std::time::Duration::from_millis(250);
    let mut stream = tenoc::serve::connect_with_retry(addr, 40, delay)
        .map_err(|e| format!("cannot reach service at {addr}: {e}"))?;
    let outcome = tenoc::serve::submit_on(&mut stream, &req).map_err(|e| e.to_string())?;
    if outcome.aborted {
        return Err(format!("server aborted the stream after {} records", outcome.lines.len()));
    }
    eprintln!(
        "submit: {} cells ({} simulated, {} cache hits, {} dedup hits)",
        outcome.planned, outcome.simulated, outcome.cache_hits, outcome.dedup_hits
    );
    emit(flags, "records", &outcome.jsonl(), true)?;
    if flags.contains_key("require-cached") && outcome.simulated != 0 {
        return Err(format!(
            "--require-cached violated: {} cells simulated instead of hitting cache",
            outcome.simulated
        ));
    }
    Ok(())
}

/// `tenoc audit`: statically verify, bound, price and rank the config
/// space (every named preset plus known-illegal variants) without
/// simulating a cycle, emitting deterministic JSON suitable for golden
/// snapshotting.
fn cmd_audit(flags: &Flags) -> CmdResult {
    let report = tenoc::core::audit_grid(flags.k());
    let json = report.to_json();

    if flags.contains_key("json") {
        println!("{json}");
    } else {
        println!(
            "{:>22} {:>8} {:>9} {:>10} {:>10} {:>9}  bottleneck (many-to-few)",
            "design", "legal", "score", "bound", "chip[mm2]", "noc[mm2]"
        );
        for e in &report.entries {
            let (score, bound, bneck) = match e.matrices.iter().find(|m| m.matrix == "many-to-few")
            {
                Some(m) => (
                    format!("{:.4}", e.te_score),
                    format!("{:.4}", m.accepted_bound),
                    m.bottleneck.clone(),
                ),
                None if e.ideal => ("-".into(), "-".into(), "(ideal network)".into()),
                None => ("-".into(), "-".into(), e.violations.join("; ")),
            };
            println!(
                "{:>22} {:>8} {:>9} {:>10} {:>10.1} {:>9.1}  {}",
                e.name,
                if e.legal { "yes" } else { "NO" },
                score,
                bound,
                e.area_mm2,
                e.noc_area_mm2,
                bneck
            );
        }
    }
    gate(flags, "report", &json, false, same_text(&json))
}

/// `tenoc tune`: staged-fidelity search of the IPC/mm² Pareto frontier.
fn cmd_tune(flags: &Flags) -> CmdResult {
    use tenoc::tune::{run_tune, TuneOptions, TuneSpec};

    let k = flags.k();
    let mut spec = if flags.tiny(&["k"]) { TuneSpec::tiny() } else { TuneSpec::default_at(k) };
    // The spec's own scale/seed are the deterministic defaults; explicit
    // flags override them (and change every content address with them).
    if let Some(s) = flags.scale() {
        spec.scale = s;
    }
    if let Some(s) = flags.seed() {
        spec.seed = s;
    }
    let opts = TuneOptions {
        jobs: flags.cmd.or_env(flags.jobs(), jobs_from_env),
        cache_dir: flags.get("cache").map(std::path::PathBuf::from),
    };
    let (report, stats) = run_tune(&spec, &opts).map_err(|e| e.to_string())?;
    let json = report.to_json();
    // Execution counters and wall times go to stderr only: the report
    // must stay byte-identical whatever the cache already held. The probe
    // and heatmap counts trail the line and avoid the words "from cache",
    // and the wall-time line names neither marker: the benchmark reads
    // the first such pair as the closed-loop one.
    eprintln!(
        "tune: {} enumerated, {} legal, {} probed, {} halved; {} closed-loop cells \
         ({} from cache), {} finalists, {} on the frontier; {} probes ticked, {} memoized, \
         {} cut by bound; {} route tables; {} heatmaps re-run, {} memoized",
        report.counts.enumerated,
        report.counts.legal,
        report.counts.stage1_promoted,
        report.counts.stage2_promoted,
        stats.stage3_cells,
        stats.stage3_cache_hits,
        report.counts.finalists,
        report.counts.frontier,
        stats.probes,
        stats.probe_cache_hits,
        stats.probes_cut,
        stats.route_tables,
        stats.heatmaps,
        stats.heatmap_cache_hits
    );
    let wall = stats.wall;
    eprintln!(
        "tune: wall time by stage: verify+rank {:.3} s, probes {:.3} s, closed-loop {:.3} s, \
         heatmaps {:.3} s",
        wall.verify_rank.as_secs_f64(),
        wall.probes.as_secs_f64(),
        wall.cells.as_secs_f64(),
        wall.heatmaps.as_secs_f64()
    );

    if flags.contains_key("json") {
        println!("{json}");
    } else {
        println!(
            "{:>28} {:>10} {:>8} {:>10} {:>9}  aliases",
            "frontier point", "chip[mm2]", "HM-IPC", "IPC/mm2", "te-score"
        );
        for p in &report.frontier {
            println!(
                "{:>28} {:>10.1} {:>8.1} {:>10.3} {:>9.4}  {}",
                p.name,
                p.area_mm2,
                p.hm_ipc,
                p.ipc_per_mm2,
                p.te_score,
                if p.aliases.is_empty() { "-".to_string() } else { p.aliases.join(", ") }
            );
        }
        println!("\nnamed design points:");
        for n in &report.named_points {
            println!(
                "{:>22} -> {:<32} {:>9}{}",
                n.preset,
                n.candidate,
                n.stage_reached,
                if n.on_frontier { "  [frontier]" } else { "" }
            );
        }
    }
    gate(flags, "report", &json, false, same_text(&json))
}
