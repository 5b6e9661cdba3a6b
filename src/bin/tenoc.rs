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
use tenoc::core::experiments::{
    is_valid_scale, run_traced_with_system_config, run_with_system_config, scale_from_env,
};
use tenoc::core::presets::Preset;
use tenoc::core::{EngineKind, IcntConfig, RunMetrics, SystemConfig, MAX_MESH_K};
use tenoc::harness::pool::run_indexed;
use tenoc::harness::{jobs_from_env, SweepGrid};
use tenoc::noc::openloop::{latency_curve, run_open_loop_on, OpenLoopConfig, TrafficPattern};
use tenoc::noc::{ArmSpec, PacketClass, TelemetryConfig, TelemetryReport};
use tenoc::serve::SweepRequest;
use tenoc::simt::KernelSpec;
use tenoc::workloads::{by_name, full_name, smoke_suite, suite};

/// What a subcommand returns: `Err` is printed as `<command>: <message>`
/// and exits 1 (usage errors exit 2 on the spot via
/// [`Command::usage_error`]).
type CmdResult = Result<(), String>;

/// One subcommand: its name, the `--flags` that take a value, the
/// `--switches` that take none, and their usage text (continuation lines
/// indented to sit under the first in [`usage`]).
struct Command {
    name: &'static str,
    flags: &'static [&'static str],
    switches: &'static [&'static str],
    usage: &'static str,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "run",
        flags: &["benchmark", "preset", "scale", "trace", "flight-cap", "node", "class"],
        switches: &["json"],
        usage: "--benchmark <ABBR> --preset <NAME> [--scale F] [--json]\n\
           \x20           [--trace DIR [--flight-cap N] [--node N] [--class request|reply]]\n\
           \x20           (--trace arms telemetry: latency histograms, link heatmap,\n\
           \x20            flight recorder -> DIR/trace.json + DIR/flight.jsonl)",
    },
    Command {
        name: "sweep",
        flags: &["presets", "benchmarks", "scale", "seed", "jobs", "out", "golden"],
        switches: &["tiny", "check", "bless"],
        usage: "[--presets A,B|all] [--benchmarks X,Y|smoke|all] [--scale F]\n\
           \x20           [--seed N] [--jobs N] [--out FILE] [--tiny]\n\
           \x20           [--golden FILE --check|--bless]",
    },
    Command {
        name: "figures",
        flags: &["scale", "jobs", "only"],
        switches: &[],
        usage: "[--scale F] [--jobs N] [--only ID]",
    },
    Command {
        name: "audit",
        flags: &["k", "out", "golden"],
        switches: &["json", "check", "bless"],
        usage: "[--k N] [--out FILE] [--json] [--golden FILE --check|--bless]\n\
           \x20           (static config-space audit: verify, bound, price, rank)",
    },
    Command {
        name: "tune",
        flags: &["k", "jobs", "scale", "seed", "cache", "out", "golden"],
        switches: &["tiny", "json", "check", "bless"],
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
        switches: &[],
        usage: "[--addr HOST:PORT] [--cache DIR] [--jobs N]\n\
           \x20           (long-running sweep service: content-addressed cache,\n\
           \x20            in-flight dedup, tenant-fair scheduling; default addr\n\
           \x20            127.0.0.1:32268)",
    },
    Command {
        name: "submit",
        flags: &["addr", "tenant", "presets", "benchmarks", "scale", "seed", "out"],
        switches: &["tiny", "require-cached", "stats"],
        usage: "[--addr HOST:PORT] [--tenant NAME] [--tiny]\n\
           \x20           [--presets A,B|all] [--benchmarks X,Y|smoke|all] [--scale F]\n\
           \x20           [--seed N] [--out FILE] [--require-cached]\n\
           \x20           (submit the grid `sweep` would run for the same flags to a\n\
           \x20            running service; --stats fetches the service counters\n\
           \x20            instead)",
    },
    Command {
        name: "openloop",
        flags: &["preset", "rate"],
        switches: &["hotspot"],
        usage: "--preset <NAME> [--hotspot] [--rate F]",
    },
    Command { name: "list", flags: &[], switches: &[], usage: "(benchmarks and presets)" },
];

impl Command {
    /// The usage text; `figures`'s names the ids of its [`SECTIONS`].
    fn help(&self) -> String {
        let mut text = self.usage.to_owned();
        if self.name == "figures" {
            let ids: Vec<_> = SECTIONS.iter().map(|s| s.id).collect();
            text += &format!("\n{:12}(every section in order, or only section ID:", "");
            text += &format!("\n{:13}{})", "", ids.join("|"));
        }
        text
    }

    /// Prints `problem` and this subcommand's usage, then exits 2.
    fn usage_error(&self, problem: &str) -> ! {
        eprintln!("{}: {problem}\nusage: tenoc {} {}", self.name, self.name, self.help());
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

    /// The required `--benchmark`; a missing or unknown one is a usage
    /// error.
    fn benchmark(&self) -> KernelSpec {
        let Some(name) = self.get("benchmark") else { self.cmd.usage_error("missing --benchmark") };
        by_name(name).unwrap_or_else(|| {
            self.cmd.usage_error(&format!("unknown benchmark {name}; see `tenoc list`"))
        })
    }
}

/// Parses `--flag [value]` pairs, rejecting anything `cmd` does not
/// accept: a mistyped flag, a value after a switch (`--json false`) or a
/// flag given twice must not silently run a different experiment, and
/// neither may a flag whose value is missing (`--out` last on the line).
fn parse_flags(cmd: &Command, args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg}"));
        };
        let switch = cmd.switches.contains(&key);
        if !switch && !cmd.flags.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let value = match args.next_if(|next| !next.starts_with("--")) {
            Some(value) if switch => return Err(format!("--{key} takes no value, got {value}")),
            Some(value) => value.clone(),
            None if switch => String::new(),
            None => return Err(format!("--{key} needs a value")),
        };
        if out.insert(key.to_owned(), value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(out)
}

/// Every named preset's canonical flag, for the usage text and `list`.
fn preset_flags() -> Vec<&'static str> {
    Preset::NAMED.iter().map(Preset::flag).collect()
}

/// The command listing, for a missing or unknown command: a usage error,
/// so it exits 2.
fn usage() -> ExitCode {
    eprintln!("usage: tenoc <command> [flags]\ncommands:");
    for cmd in COMMANDS {
        eprintln!("  {:<9} {}", cmd.name, cmd.help());
    }
    eprintln!("presets: {}", preset_flags().join(" "));
    ExitCode::from(2)
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
    // Only the commands that read `TENOC_SCALE` resolve it, so a bad
    // setting is refused by them and by nothing else.
    let scale = || cmd.or_env(flags.scale(), scale_from_env);

    let result = match cmd.name {
        "run" => cmd_run(&flags, scale()),
        "sweep" => cmd_sweep(&flags, scale()),
        "figures" => cmd_figures(&flags, scale()),
        "serve" => cmd_serve(&flags),
        "submit" => cmd_submit(&flags, scale()),
        "audit" => cmd_audit(&flags),
        "tune" => cmd_tune(&flags),
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

/// `tenoc run`: one benchmark on one preset at the system default seed,
/// the cell every figure's grid runs for that pair. `--trace DIR` arms the
/// telemetry layer and writes `DIR/trace.json` (the cell, its metrics and
/// one report per network slice: latency histograms, link heatmap, buffer
/// occupancy) and `DIR/flight.jsonl`; stdout is the same either way, since
/// observation does not perturb the run.
fn cmd_run(flags: &Flags, scale: f64) -> CmdResult {
    let (preset, spec) = (flags.preset(), flags.benchmark());
    let cfg = SystemConfig::with_icnt(preset.icnt(6));
    let m = match telemetry(flags, preset)? {
        None => run_with_system_config(cfg, &spec, scale),
        Some((dir, tcfg)) => {
            eprintln!("trace: {} on {} at scale {scale}", spec.name, preset.label());
            let (m, reports) = run_traced_with_system_config(cfg, &spec, scale, tcfg);
            let trace = Value::Object(vec![
                ("preset".into(), preset.label().to_value()),
                ("benchmark".into(), spec.name.to_value()),
                ("scale".into(), scale.to_value()),
                ("metrics".into(), m.to_value()),
                ("reports".into(), reports.to_value()),
            ]);
            write_trace(dir, &trace, &reports)?;
            m
        }
    };
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

/// The largest `--flight-cap`: 32 MiB of ring per network slice at 32 B
/// per [`FlightEvent`](tenoc::noc::FlightEvent), allocated at arm time.
const MAX_FLIGHT_CAP: usize = 1 << 20;

/// `--trace`'s directory and the telemetry it arms, or `None` for an
/// untraced run. An instrument flag without `--trace` is a usage error
/// rather than silently ignored, and a preset with no physical network is
/// refused before a cycle is simulated.
fn telemetry(flags: &Flags, preset: Preset) -> Result<Option<(&str, TelemetryConfig)>, String> {
    let Some(dir) = flags.get("trace") else {
        if let Some(flag) = ["flight-cap", "node", "class"].iter().find(|f| flags.contains_key(f)) {
            flags.cmd.usage_error(&format!("--{flag} needs --trace"));
        }
        return Ok(None);
    };
    let class = match flags.get("class") {
        None => None,
        Some("request") => Some(PacketClass::Request),
        Some("reply") => Some(PacketClass::Reply),
        Some(other) => {
            flags.cmd.usage_error(&format!("--class must be request or reply, got {other}"))
        }
    };
    let icnt = preset.icnt(6);
    let tcfg = TelemetryConfig {
        flight_capacity: flags
            .parsed("flight-cap", |cap| *cap <= MAX_FLIGHT_CAP)
            .unwrap_or(TelemetryConfig::default().flight_capacity),
        arm: ArmSpec { node: flags.parsed("node", |n| *n < icnt.net().mesh.len()), class },
    };
    if !matches!(icnt, IcntConfig::Mesh(_) | IcntConfig::Double(_)) {
        let label = preset.label();
        return Err(format!("preset {label} has no physical network to observe (ideal model)"));
    }
    Ok(Some((dir, tcfg)))
}

/// Writes a traced run's artifacts to `dir` — `trace` as `trace.json`, the
/// flight events as `flight.jsonl` (JSON lines stream better: one event a
/// line, tagged with its network slice) — and summarizes each slice on
/// stderr.
fn write_trace(dir: &str, trace: &Value, reports: &[TelemetryReport]) -> CmdResult {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let trace_path = format!("{dir}/trace.json");
    std::fs::write(&trace_path, trace.to_json_pretty())
        .map_err(|e| format!("cannot write {trace_path}: {e}"))?;

    let mut flight = String::new();
    for r in reports {
        for ev in &r.flight {
            let mut obj = vec![("net".to_string(), r.label.to_value())];
            if let Value::Object(fields) = ev.to_value() {
                obj.extend(fields);
            }
            flight.push_str(&Value::Object(obj).to_json_compact());
            flight.push('\n');
        }
    }
    let flight_path = format!("{dir}/flight.jsonl");
    std::fs::write(&flight_path, &flight)
        .map_err(|e| format!("cannot write {flight_path}: {e}"))?;

    for r in reports {
        eprintln!(
            "trace: [{}] {} cycles, {} links, {} flight events ({} dropped), hist req/rep {}/{}",
            r.label,
            r.cycles,
            r.links.len(),
            r.flight.len(),
            r.flight_dropped,
            r.hist.network[0].count(),
            r.hist.network[1].count()
        );
    }
    let events = flight.lines().count();
    eprintln!("trace: wrote {trace_path} and {flight_path} ({events} events)");
    Ok(())
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
    cfg.workers = flags.cmd.or_env(flags.jobs(), jobs_from_env);
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
    // Say on stderr what is about to run on the pool.
    eprintln!(
        "sweep: {} cells ({} presets x {} benchmarks) at scale {}, {jobs} jobs",
        grid.len(),
        grid.presets.len(),
        grid.benchmarks.len(),
        grid.scale
    );
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
    spec.scale = flags.scale().unwrap_or(spec.scale);
    spec.seed = flags.seed().unwrap_or(spec.seed);
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

/// One section of `tenoc figures`: a table or figure group of the paper,
/// printed under a 4-line header that holds its title and the scale and
/// worker count in effect.
struct Section {
    id: &'static str,
    title: &'static str,
    print: fn(scale: f64, jobs: usize),
}

const SECTIONS: &[Section] = &[
    Section {
        id: "figures",
        title: "Figures 2, 6-11, 16-20, Table I: every suite-shaped figure, one grid",
        print: print_suite_figures,
    },
    Section {
        id: "fig21_open_loop",
        title: "Figure 21: open-loop latency vs injection rate (1-flit requests, 4-flit replies)",
        print: print_fig21,
    },
    Section {
        id: "tab06_area",
        title: "Table VI: area estimations (mm^2), overheads relative to the GTX280 die",
        print: print_table_vi,
    },
    Section {
        id: "abl_design_choices",
        title: "Ablations: design-choice sensitivity studies (not in the paper's figures)",
        print: print_ablations,
    },
    Section {
        id: "abl_scaling",
        title: "Scaling study: 28 vs 56 cores over 8 MCs (concentration vs bigger mesh)",
        print: print_scaling,
    },
];

/// `tenoc figures`: regenerate the paper's evaluation, every section in
/// [`SECTIONS`] order or only `--only`'s. Kernels run scaled down (0.12
/// by default) unless `--scale 1`; every closed-loop cell pins the system
/// default seed, so it reports exactly what `tenoc run` does for the same
/// pair, and no byte below a header depends on the worker count.
fn cmd_figures(flags: &Flags, scale: f64) -> CmdResult {
    let only = flags.get("only");
    if let Some(id) = only.filter(|id| !SECTIONS.iter().any(|s| s.id == *id)) {
        flags.cmd.usage_error(&format!("unknown section {id}"));
    }
    let jobs = flags.cmd.or_env(flags.jobs(), jobs_from_env);
    let rule = "=".repeat(64);
    for section in SECTIONS.iter().filter(|s| only.is_none_or(|id| id == s.id)) {
        println!("{rule}\n{}", section.title);
        println!("(kernel scale {scale}; TENOC_SCALE=1 for full-length runs; {jobs} jobs)\n{rule}");
        (section.print)(scale, jobs);
    }
    Ok(())
}

/// Figures 2, 6-11, 16-20 and Table I: one pooled grid over every design
/// point the figures name, reduced by `tenoc_harness::figures`. Prints
/// each figure's per-benchmark table and summary rows, then the headline
/// table in EXPERIMENTS.md's shape.
fn print_suite_figures(scale: f64, jobs: usize) {
    use tenoc::harness::figures::{presets, Summary, FIGURES};

    let results = tenoc::harness::run_grid(&SweepGrid::suites(&presets(), scale), jobs);
    let reports: Vec<_> =
        FIGURES.iter().map(|figure| (figure, (figure.reduce)(&results))).collect();
    for (figure, report) in &reports {
        println!("\n--- {}: {} ---\n{report}", figure.id, figure.title);
        for Summary(row, paper, measured) in &report.summary {
            println!("{row}: {} (paper: {paper})", measured.text);
        }
    }
    println!("\n| Figure | Row | Paper | Measured |\n|---|---|---|---|");
    for (figure, report) in &reports {
        for Summary(row, paper, measured) in &report.summary {
            println!("| {} | {row} | {paper} | {} |", figure.id, measured.text);
        }
    }
}

/// Figure 21: open-loop latency versus offered load under many-to-few-
/// to-many traffic (uniform random and hotspot), for the five network
/// organizations the paper compares; `OpenLoopConfig::new`'s windows at
/// full length, shorter ones for a scaled-down run. The ten curves are
/// independent, so they run on the pool and print in panel order.
fn print_fig21(scale: f64, jobs: usize) {
    const PRESETS: [(&str, Preset); 5] = [
        ("TB-DOR", Preset::BaselineTbDor),
        ("2x-TB-DOR", Preset::TbDor2xBw),
        ("CP-DOR", Preset::CpDor2vc),
        ("CP-CR", Preset::CpCr4vc),
        ("CP-CR-2P", Preset::CpCr2pSingle),
    ];
    let panels = [
        (TrafficPattern::UniformRandom, "(a) uniform random many-to-few-to-many"),
        (
            TrafficPattern::Hotspot { hot: 0, fraction: 0.2 },
            "(b) hotspot many-to-few-to-many (20% of requests to one MC)",
        ),
    ];
    let rates: Vec<f64> = (1..=12).map(|i| i as f64 * 0.01).collect();
    let curves = run_indexed(panels.len() * PRESETS.len(), jobs, |i| {
        let icnt = PRESETS[i % PRESETS.len()].1.icnt(6);
        let mut cfg = OpenLoopConfig::new(icnt.net().clone(), 0.0, panels[i / PRESETS.len()].0);
        if scale < 1.0 {
            (cfg.warmup, cfg.measure, cfg.drain) = (2_000, 5_000, 10_000);
        }
        latency_curve(&cfg, rates.iter().copied(), || icnt.build(EngineKind::Arena))
    });
    for ((_, title), curves) in panels.iter().zip(curves.chunks(PRESETS.len())) {
        println!("\n--- {title} ---");
        let names: String = PRESETS.iter().map(|(name, _)| format!(" {name:>10}")).collect();
        println!("{:>10}{names}", "rate");
        // Each curve stops at its first saturated point; later rows print
        // it as saturated.
        for (i, rate) in rates.iter().enumerate() {
            print!("{rate:>10.2}");
            for curve in curves {
                match curve.get(i).filter(|r| !r.saturated()) {
                    Some(r) => print!(" {:>10.1}", r.avg_latency),
                    None => print!(" {:>10}", "sat"),
                }
            }
            println!();
        }
    }
    println!("\npaper: CP placement and 2P injection raise saturation throughput;");
    println!("2P helps most under hotspot traffic");
}

/// Table VI: area estimates (65 nm) of every design point, from the
/// ORION-calibrated analytical model.
fn print_table_vi(_scale: f64, _jobs: usize) {
    use tenoc::core::{AreaModel, RouterArea};
    use tenoc::noc::RouterKind::{Full, Half};

    println!(
        "{:>16} {:>9} {:>8} {:>8} {:>9} {:>10} {:>9} {:>9} {:>10}",
        "config",
        "xbar",
        "buffer",
        "alloc",
        "1 router",
        "router sum",
        "link sum",
        "% NoC",
        "total chip"
    );

    // Each design's router kinds: channel bytes, VCs and injection ports,
    // with 8-flit VCs and one ejection port throughout.
    let r = |kind, bytes, vcs, n_inj| RouterArea::new(kind, bytes, vcs, 8, n_inj, 1);
    let rows = [
        ("Baseline", Preset::BaselineTbDor, vec![r(Full, 16, 2, 1)]),
        ("2x-BW", Preset::TbDor2xBw, vec![r(Full, 32, 2, 1)]),
        ("CP-CR", Preset::CpCr4vc, vec![r(Half, 16, 4, 1), r(Full, 16, 4, 1)]),
        ("Double CP-CR", Preset::DoubleCpCr, vec![r(Full, 8, 2, 1), r(Half, 8, 2, 1)]),
        (
            "Double CP-CR 2P",
            Preset::ThroughputEffective,
            vec![r(Full, 8, 2, 1), r(Half, 8, 2, 1), r(Half, 8, 2, 2)],
        ),
    ];
    for (name, preset, routers) in &rows {
        let chip = AreaModel::chip_area(&preset.icnt(6));
        let fmt3 = |f: fn(&RouterArea) -> f64| {
            routers.iter().map(|r| format!("{:.2}", f(r))).collect::<Vec<_>>().join("/")
        };
        println!(
            "{name:>16} {:>9} {:>8} {:>8} {:>9} {:>10.2} {:>9.2} {:>8.2}% {:>10.1}",
            fmt3(|r| r.crossbar),
            fmt3(|r| r.buffer),
            fmt3(|r| r.allocator),
            fmt3(RouterArea::total),
            chip.routers,
            chip.links,
            chip.noc_overhead() * 100.0,
            chip.total(),
        );
    }
    println!("\npaper Table VI reference (router sum / total chip):");
    println!("  Baseline 69.00 / 576.0   2x-BW 263.0 / 790.9   CP-CR 59.20 / 566.2");
    println!("  Double CP-CR 29.74 / 536.7   Double CP-CR 2P 30.44 / 537.4");
    let ratio = r(Half, 16, 4, 1).total() / r(Full, 16, 4, 1).total();
    println!("half-router / full-router area ratio: {ratio:.2} (paper: 0.56)");
}

/// Runs every kernel on each configuration of each study — study by
/// study, kernel by kernel — at the system default seed on `jobs` pool
/// workers, and yields the metrics in that order. Panics on a run that
/// hits its cycle cap: a capped run's IPC is not a result.
fn run_studies(
    studies: &[&[SystemConfig]],
    kernels: &[&str],
    scale: f64,
    jobs: usize,
) -> impl Iterator<Item = RunMetrics> {
    let cells: Vec<_> = studies
        .iter()
        .flat_map(|cfgs| kernels.iter().flat_map(move |name| cfgs.iter().map(move |c| (c, *name))))
        .collect();
    run_indexed(cells.len(), jobs, |i| {
        run_with_system_config(cells[i].0.clone(), &by_name(cells[i].1).unwrap(), scale)
    })
    .into_iter()
}

/// The kernels the ablations run.
const ABLATED: [&str; 4] = ["HIS", "MM", "KM", "RD"];

/// Ablation studies for the design choices DESIGN.md calls out, beyond
/// what the paper itself sweeps:
///
/// 1. DRAM scheduling: FR-FCFS versus strict FCFS.
/// 2. VC buffer depth at the baseline mesh (4 / 8 / 16 flits).
/// 3. Half-router pipeline depth (3-stage, as modeled, vs. a conservative
///    4-stage half-router) — the paper notes "the performance impact of
///    one less stage was negligible".
/// 4. Warp scheduler: round-robin versus greedy-then-oldest.
fn print_ablations(scale: f64, jobs: usize) {
    use tenoc::noc::NetworkConfig;

    let baseline = SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(6));
    let mut fcfs = baseline.clone();
    fcfs.mc.policy = tenoc::dram::SchedulingPolicy::Fcfs;
    let depths = [4usize, 8, 16].map(|depth| {
        let mut net = NetworkConfig::baseline_mesh(6);
        net.vc_depth = depth;
        SystemConfig::with_icnt(IcntConfig::Mesh(net))
    });
    let mut deep = NetworkConfig::checkerboard_mesh(6);
    deep.half_router_stages = 4;
    let deep = SystemConfig::with_icnt(IcntConfig::Mesh(deep));
    let shallow = SystemConfig::with_icnt(Preset::CpCr4vc.icnt(6));
    let mut gto = baseline.clone();
    gto.core.scheduler = tenoc::simt::SchedulerPolicy::GreedyThenOldest;
    let studies: [&[_]; 4] =
        [&[baseline.clone(), fcfs], &depths, &[shallow, deep], &[baseline, gto]];
    let runs = &mut run_studies(&studies, &ABLATED, scale, jobs);

    versus("DRAM scheduling policy (baseline mesh)", ["FR-FCFS IPC", "FCFS IPC", "FR gain"], runs);

    println!("\n-- VC buffer depth (baseline mesh, flits per VC) --");
    println!("{:>6} {:>10} {:>10} {:>10}", "bench", "depth 4", "depth 8", "depth 16");
    for name in ABLATED {
        let ipcs: String = runs.take(3).map(|m| format!(" {:>10.1}", m.ipc)).collect();
        println!("{name:>6}{ipcs}");
    }

    let head = ["3-stage IPC", "4-stage IPC", "delta"];
    versus("half-router pipeline depth (CP-CR mesh)", head, runs);
    println!("\npaper note: \"we found the performance impact of one less stage was negligible\"");

    versus("warp scheduler (baseline mesh)", ["RR IPC", "GTO IPC", "RR gain"], runs);
}

/// One A-versus-B ablation from the next `runs`, A then B per kernel: both
/// IPCs and A's gain over B (through `speedup_over`, so a B that retired
/// nothing prints NaN, not `inf`).
fn versus(title: &str, head: [&str; 3], runs: &mut impl Iterator<Item = RunMetrics>) {
    println!("\n-- {title} --");
    println!("{:>6} {:>12} {:>12} {:>10}", "bench", head[0], head[1], head[2]);
    for name in ABLATED {
        let (a, b) = (runs.next().unwrap(), runs.next().unwrap());
        let gain = a.speedup_over(&b).map_or(f64::NAN, |ratio| (ratio - 1.0) * 100.0);
        println!("{name:>6} {:>12.1} {:>12.1} {gain:>+9.1}%", a.ipc, b.ipc);
    }
}

/// Scaling study (the paper's motivation): transistor density grows core
/// counts faster than pins grow MC counts, deepening the many-to-few
/// imbalance. Compares 28 cores (the paper's chip) against 56-core
/// futures built two ways — concentration (2 cores per terminal on the
/// same 6x6 mesh) and a bigger 8x8 mesh — all with 8 MCs.
fn print_scaling(scale: f64, jobs: usize) {
    let mut conc = SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(6));
    conc.cores_per_node = 2;
    let rows = [
        ("6x6 mesh (paper)", 28, SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(6))),
        ("6x6 mesh, 2x concentrated", 56, conc),
        // Both 8x8 fabrics keep 8 MCs, as pins stay scarce.
        ("8x8 mesh", 56, SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(8))),
        ("8x8 checkerboard CP-CR", 56, SystemConfig::with_icnt(Preset::CpCr4vc.icnt(8))),
    ];
    let configs = rows.each_ref().map(|(.., cfg)| cfg.clone());
    let kernels = ["MM", "KM", "RD"];
    let mut runs = run_studies(&[&configs], &kernels, scale, jobs);
    println!(
        "{:>6} {:>26} {:>7} {:>9} {:>11} {:>9}",
        "bench", "configuration", "cores", "IPC", "IPC/core", "MC stall"
    );
    for name in kernels {
        for ((label, cores, _), m) in rows.iter().zip(runs.by_ref()) {
            println!(
                "{name:>6} {label:>26} {cores:>7} {:>9.1} {:>11.2} {:>8.0}%",
                m.ipc,
                m.ipc / *cores as f64,
                m.mc_stall_fraction * 100.0
            );
        }
    }
    println!("\nwith pins fixed at 8 MCs, doubling cores mostly deepens the");
    println!("many-to-few bottleneck — per-core throughput falls, and the");
    println!("checkerboard organization keeps paying for memory-bound kernels");
}
