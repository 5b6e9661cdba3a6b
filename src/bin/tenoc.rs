//! `tenoc` — command-line front end for the simulator.
//!
//! `tenoc <command> [flags]`; run `tenoc` with no arguments for every
//! subcommand's usage. The [`COMMANDS`] table is the one source for the
//! usage text and for the flags each subcommand accepts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::process::ExitCode;
use tenoc::core::area::{throughput_effectiveness, AreaModel};
use tenoc::core::experiments::{run_benchmark, run_suite, scale_from_env};
use tenoc::core::presets::Preset;
use tenoc::core::SweepReport;
use tenoc::noc::openloop::{run_open_loop, OpenLoopConfig, TrafficPattern};
use tenoc::workloads::{by_name, full_name, suite};

fn preset_by_flag(s: &str) -> Option<Preset> {
    // One flag vocabulary everywhere: the CLI, the sweep service wire
    // protocol and the library all resolve through `Preset::from_flag`.
    Preset::from_flag(s)
}

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
        name: "suite",
        flags: &["preset", "scale", "json"],
        usage: "--preset <NAME> [--scale F] [--json]",
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
            "telemetry",
            "tiny",
            "golden",
            "check",
            "bless",
        ],
        usage: "[--presets A,B|all] [--benchmarks X,Y|smoke|all] [--scale F]\n\
           \x20           [--seed N] [--jobs N] [--out FILE] [--telemetry] [--tiny]\n\
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
           \x20            successive halving; --cache memoizes cells)",
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
           \x20           [--presets A,B] [--benchmarks X,Y] [--scale F] [--seed N]\n\
           \x20           [--out FILE] [--require-cached]\n\
           \x20           (submit a grid to a running service; --stats fetches the\n\
           \x20            service counters instead)",
    },
    Command {
        name: "openloop",
        flags: &["preset", "hotspot", "rate"],
        usage: "--preset <NAME> [--hotspot] [--rate F]",
    },
    Command { name: "area", flags: &[], usage: "(Table VI summary)" },
    Command {
        name: "classify",
        flags: &["scale"],
        usage: "[--scale F] (measured LL/LH/HH classes)",
    },
    Command { name: "list", flags: &[], usage: "(benchmarks and presets)" },
];

impl Command {
    /// Prints `problem` and this subcommand's usage, then exits 2.
    fn usage_error(&self, problem: &str) -> ! {
        eprintln!("{}: {problem}\nusage: tenoc {} {}", self.name, self.name, self.usage);
        std::process::exit(2)
    }
}

/// A subcommand's parsed `--flag [value]` pairs.
struct Flags {
    cmd: &'static Command,
    values: HashMap<String, String>,
}

impl Flags {
    fn get(&self, key: &str) -> Option<&String> {
        self.values.get(key)
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
        self.parsed("scale", |s: &f64| *s > 0.0 && s.is_finite())
    }

    fn seed(&self) -> Option<u64> {
        self.parsed("seed", |_| true)
    }

    fn jobs(&self) -> Option<usize> {
        self.parsed("jobs", |j| *j >= 1)
    }

    /// Mesh radix, default 6; a 1x1 mesh has no network to study.
    fn k(&self) -> usize {
        self.parsed("k", |k| *k >= 2).unwrap_or(6)
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

fn usage() -> ExitCode {
    eprintln!("usage: tenoc <command> [flags]\ncommands:");
    for cmd in COMMANDS {
        eprintln!("  {:<9} {}", cmd.name, cmd.usage);
    }
    eprintln!(
        "presets: baseline 2x-bw 1-cycle cp-dor cp-dor-4vc cp-cr double thr-eff\n\
         \x20        cp-cr-2p torus cmesh perfect"
    );
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
    let scale = flags.scale().unwrap_or_else(scale_from_env);

    match cmd.name {
        "run" => {
            let Some(bench) = flags.get("benchmark") else {
                eprintln!("run: missing --benchmark");
                return usage();
            };
            let Some(spec) = by_name(bench) else {
                eprintln!("unknown benchmark {bench}; see `tenoc list`");
                return ExitCode::FAILURE;
            };
            let Some(preset) = flags.get("preset").and_then(|p| preset_by_flag(p)) else {
                eprintln!("run: missing or unknown --preset");
                return usage();
            };
            let m = run_benchmark(preset, &spec, scale);
            if flags.contains_key("json") {
                println!("{}", serde_json_line(&spec.name, preset, &m));
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
        }
        "suite" => {
            let Some(preset) = flags.get("preset").and_then(|p| preset_by_flag(p)) else {
                eprintln!("suite: missing or unknown --preset");
                return usage();
            };
            let results = run_suite(preset, scale);
            let report = SweepReport::new(&preset.label(), scale, &results);
            if flags.contains_key("json") {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.to_markdown());
                println!("\nHM IPC: {:.1}", report.hm_ipc());
            }
        }
        "sweep" => return cmd_sweep(&flags, scale),
        "serve" => return cmd_serve(&flags),
        "submit" => return cmd_submit(&flags),
        "audit" => return cmd_audit(&flags),
        "tune" => return cmd_tune(&flags),
        "trace" => return cmd_trace(&flags, scale),
        "openloop" => {
            let Some(preset) = flags.get("preset").and_then(|p| preset_by_flag(p)) else {
                eprintln!("openloop: missing or unknown --preset");
                return usage();
            };
            let pattern = if flags.contains_key("hotspot") {
                TrafficPattern::Hotspot { hot: 0, fraction: 0.2 }
            } else {
                TrafficPattern::UniformRandom
            };
            let net = match preset.icnt(6) {
                tenoc::core::system::IcntConfig::Mesh(c) => c,
                tenoc::core::system::IcntConfig::Double(c) => c,
                _ => {
                    eprintln!("openloop: pick a physical-network preset");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(rate) = flags.parsed("rate", |r: &f64| *r > 0.0 && r.is_finite()) {
                let r = run_open_loop(&OpenLoopConfig::new(net, rate, pattern));
                println!(
                    "rate {rate}: latency {:.1} cyc, delivered {:.1}%{}",
                    r.avg_latency,
                    r.delivered_fraction * 100.0,
                    if r.saturated() { " (saturated)" } else { "" }
                );
            } else {
                println!("{:>6} {:>10}", "rate", "latency");
                for i in 1..=12 {
                    let rate = i as f64 * 0.01;
                    let r = run_open_loop(&OpenLoopConfig::new(net.clone(), rate, pattern));
                    if r.saturated() {
                        println!("{rate:>6.2} {:>10}", "saturated");
                        break;
                    }
                    println!("{rate:>6.2} {:>10.1}", r.avg_latency);
                }
            }
        }
        "area" => {
            println!("{:>22} {:>12} {:>10} {:>12}", "design", "NoC [mm^2]", "chip", "IPC/mm^2@200");
            for preset in Preset::NAMED {
                let a = AreaModel::chip_area(&preset.icnt(6));
                println!(
                    "{:>22} {:>12.1} {:>10.1} {:>12.4}",
                    preset.label(),
                    a.noc(),
                    a.total(),
                    throughput_effectiveness(200.0, &a)
                );
            }
        }
        "classify" => {
            let base = run_suite(Preset::BaselineTbDor, scale);
            let perfect = run_suite(Preset::Perfect, scale);
            println!("{:>6} {:>8} {:>9} {:>12}", "bench", "class", "speedup", "B/cyc/node");
            for (b, p) in base.iter().zip(&perfect) {
                println!(
                    "{:>6} {:>8} {:>+8.1}% {:>12.2}",
                    b.name,
                    b.class.to_string(),
                    (p.metrics.ipc / b.metrics.ipc - 1.0) * 100.0,
                    p.metrics.accepted_flits_per_node * 16.0
                );
            }
        }
        "list" => {
            println!("benchmarks (Table I):");
            for spec in suite() {
                println!(
                    "  {:>4} [{}] {}",
                    spec.name,
                    spec.class,
                    full_name(&spec.name).unwrap_or("")
                );
            }
            println!("\npresets: baseline, 2x-bw, 1-cycle, cp-dor, cp-dor-4vc, cp-cr,");
            println!("         double, thr-eff, cp-cr-2p, torus, cmesh, perfect");
        }
        other => unreachable!("{other} is in COMMANDS but not dispatched"),
    }
    ExitCode::SUCCESS
}

fn serde_json_line(name: &str, preset: Preset, m: &tenoc::core::RunMetrics) -> String {
    format!(
        "{{\"benchmark\":\"{name}\",\"preset\":\"{}\",\"metrics\":{}}}",
        preset.label(),
        serde_json::to_string(m).expect("metrics are plain data")
    )
}

/// `tenoc trace`: run one benchmark on one preset with the telemetry
/// layer armed and emit the artifacts — `trace.json` (metrics, per-class
/// latency histograms, per-link utilization with a mesh heatmap, mean
/// buffer occupancies) and `flight.jsonl` (one flight-recorder event per
/// line, tagged with its network slice).
fn cmd_trace(flags: &Flags, scale: f64) -> ExitCode {
    use serde::Serialize;
    use tenoc::core::experiments::run_traced;
    use tenoc::noc::{ArmSpec, PacketClass, TelemetryConfig};

    let Some(preset) = flags.get("preset").and_then(|p| preset_by_flag(p)) else {
        eprintln!("trace: missing or unknown --preset");
        return usage();
    };
    let bench = flags.get("benchmark").map(String::as_str).unwrap_or("RD");
    let Some(spec) = by_name(bench) else {
        eprintln!("unknown benchmark {bench}; see `tenoc list`");
        return ExitCode::FAILURE;
    };
    let class = match flags.get("class").map(String::as_str) {
        None => None,
        Some("request") => Some(PacketClass::Request),
        Some("reply") => Some(PacketClass::Reply),
        Some(other) => {
            eprintln!("trace: --class must be request or reply, got {other}");
            return ExitCode::FAILURE;
        }
    };
    let tcfg = TelemetryConfig {
        flight_capacity: flags
            .parsed("flight-cap", |_| true)
            .unwrap_or(TelemetryConfig::default().flight_capacity),
        arm: ArmSpec {
            node: flags.parsed("node", |n| *n < preset.icnt(6).net().mesh.len()),
            class,
        },
    };

    eprintln!("trace: {} on {} at scale {scale}", spec.name, preset.label());
    let (metrics, reports) = run_traced(preset, &spec, scale, tcfg);
    if reports.is_empty() {
        eprintln!(
            "trace: preset {} has no physical network to observe (ideal model)",
            preset.label()
        );
        return ExitCode::FAILURE;
    }

    let dir = flags.get("out").map(String::as_str).unwrap_or("trace-out");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("trace: cannot create {dir}: {e}");
        return ExitCode::FAILURE;
    }

    // trace.json: everything except the flight events (those go to the
    // JSON-lines file, which is friendlier to streaming consumers).
    let trace = serde::json::Value::Object(vec![
        ("preset".to_string(), preset.label().to_value()),
        ("benchmark".to_string(), spec.name.to_value()),
        ("scale".to_string(), scale.to_value()),
        ("metrics".to_string(), metrics.to_value()),
        ("reports".to_string(), reports.to_value()),
    ]);
    let trace_path = format!("{dir}/trace.json");
    if let Err(e) = std::fs::write(&trace_path, trace.to_json_pretty()) {
        eprintln!("trace: cannot write {trace_path}: {e}");
        return ExitCode::FAILURE;
    }

    // flight.jsonl: every slice's ring-buffer sample, one event per line,
    // tagged with the slice label.
    let mut flight = String::new();
    let mut events = 0usize;
    for r in &reports {
        for ev in &r.flight {
            let mut obj = vec![("net".to_string(), r.label.to_value())];
            if let serde::json::Value::Object(fields) = ev.to_value() {
                obj.extend(fields);
            }
            flight.push_str(&serde::json::Value::Object(obj).to_json_compact());
            flight.push('\n');
            events += 1;
        }
    }
    let flight_path = format!("{dir}/flight.jsonl");
    if let Err(e) = std::fs::write(&flight_path, &flight) {
        eprintln!("trace: cannot write {flight_path}: {e}");
        return ExitCode::FAILURE;
    }

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
    ExitCode::SUCCESS
}

/// Default service address: port 0x7e0c, the workspace's seed constant.
const SERVE_ADDR: &str = "127.0.0.1:32268";

/// `tenoc serve`: run the sweep service until killed. Results are
/// journaled to the cache directory as they complete, so a killed server
/// restarted on the same `--cache` resumes without re-simulating.
fn cmd_serve(flags: &Flags) -> ExitCode {
    let mut cfg = tenoc::serve::ServerConfig::new(
        flags.get("addr").map(String::as_str).unwrap_or(SERVE_ADDR),
        flags.get("cache").map(String::as_str).unwrap_or("sweep-cache"),
    );
    if let Some(jobs) = flags.jobs() {
        cfg.workers = jobs;
    }
    let handle = match tenoc::serve::start(cfg.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: cannot start on {}: {e}", cfg.addr);
            return ExitCode::FAILURE;
        }
    };
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

/// `tenoc submit`: send one sweep to a running service, reassemble the
/// stream in cell order (byte-identical to `tenoc sweep` output for the
/// same grid) and report the request's cache accounting. With `--stats`,
/// fetch the service counters instead.
fn cmd_submit(flags: &Flags) -> ExitCode {
    use std::time::Duration;
    let addr = flags.get("addr").map(String::as_str).unwrap_or(SERVE_ADDR);

    let write_out = |flags: &Flags, text: &str, what: &str| -> bool {
        if let Some(path) = flags.get("out") {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("submit: cannot write {path}: {e}");
                return false;
            }
            eprintln!("submit: wrote {what} to {path}");
        } else {
            print!("{text}");
        }
        true
    };

    if flags.contains_key("stats") {
        match tenoc::serve::fetch_stats(addr) {
            Ok(stats) => {
                let mut text = stats.to_json_compact();
                text.push('\n');
                if write_out(flags, &text, "service stats") {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("submit: stats from {addr} failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        let mut req = tenoc::serve::SweepRequest {
            tenant: flags.get("tenant").cloned().unwrap_or_else(|| "cli".to_string()),
            tiny: flags.contains_key("tiny"),
            ..Default::default()
        };
        if let Some(list) = flags.get("presets") {
            req.presets = list.split(',').map(str::to_string).collect();
        } else if !req.tiny {
            req.presets = vec!["baseline".to_string()];
        }
        if let Some(list) = flags.get("benchmarks") {
            req.benchmarks = list.split(',').map(str::to_string).collect();
        } else if !req.tiny {
            req.benchmarks =
                tenoc::workloads::smoke_suite().iter().map(|s| s.name.clone()).collect();
        }
        if let Some(s) = flags.scale() {
            req.scale = s;
        }
        if let Some(s) = flags.seed() {
            req.seed = s;
        }

        // The server may have been spawned a moment ago (CI backgrounds
        // it); retry the connect briefly instead of failing on a race.
        let mut stream =
            match tenoc::serve::connect_with_retry(addr, 40, Duration::from_millis(250)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("submit: cannot reach service at {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
        let outcome = match tenoc::serve::submit_on(&mut stream, &req) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("submit: {e}");
                return ExitCode::FAILURE;
            }
        };
        if outcome.aborted {
            eprintln!("submit: server aborted the stream after {} records", outcome.lines.len());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "submit: {} cells ({} simulated, {} cache hits, {} dedup hits)",
            outcome.planned, outcome.simulated, outcome.cache_hits, outcome.dedup_hits
        );
        if !write_out(flags, &outcome.jsonl(), "records") {
            return ExitCode::FAILURE;
        }
        if flags.contains_key("require-cached") && outcome.simulated != 0 {
            eprintln!(
                "submit: --require-cached violated: {} cells simulated instead of hitting cache",
                outcome.simulated
            );
            return ExitCode::FAILURE;
        }
        ExitCode::SUCCESS
    }
}

/// `tenoc audit`: statically verify, bound, price and rank the config
/// space (every named preset plus known-illegal variants) without
/// simulating a cycle, emitting deterministic JSON suitable for golden
/// snapshotting.
fn cmd_audit(flags: &Flags) -> ExitCode {
    let report = tenoc::core::audit_grid(flags.k());
    let json = report.to_json();

    if flags.contains_key("json") {
        println!("{json}");
    } else {
        println!(
            "{:>22} {:>8} {:>9} {:>10} {:>10}  bottleneck (many-to-few)",
            "design", "legal", "score", "bound", "chip[mm2]"
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
                "{:>22} {:>8} {:>9} {:>10} {:>10.1}  {}",
                e.name,
                if e.legal { "yes" } else { "NO" },
                score,
                bound,
                e.area_mm2,
                bneck
            );
        }
    }

    if let Some(path) = flags.get("out") {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("audit: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("audit: wrote {path}");
    }

    if let Some(golden_path) = flags.get("golden") {
        if flags.contains_key("bless") {
            if let Err(e) = std::fs::write(golden_path, &json) {
                eprintln!("audit: cannot bless {golden_path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("audit: blessed golden snapshot {golden_path}");
        } else if flags.contains_key("check") {
            let golden = match std::fs::read_to_string(golden_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("audit: cannot read golden {golden_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if golden.trim() != json.trim() {
                eprintln!(
                    "audit: report differs from golden {golden_path}; \
                     re-run with --bless to accept the new numbers"
                );
                return ExitCode::FAILURE;
            }
            eprintln!("audit: report matches the golden snapshot");
        } else {
            eprintln!("audit: --golden needs --check or --bless");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `tenoc tune`: staged-fidelity search of the IPC/mm² Pareto frontier.
fn cmd_tune(flags: &Flags) -> ExitCode {
    use tenoc::tune::{run_tune, TuneOptions, TuneSpec};

    let k = flags.k();
    let mut spec =
        if flags.contains_key("tiny") { TuneSpec::tiny() } else { TuneSpec::default_at(k) };
    // The spec's own scale/seed are the deterministic defaults; explicit
    // flags override them (and change every content address with them).
    if let Some(s) = flags.scale() {
        spec.scale = s;
    }
    if let Some(s) = flags.seed() {
        spec.seed = s;
    }
    let opts = TuneOptions {
        jobs: flags.jobs().unwrap_or_else(tenoc::harness::jobs_from_env),
        cache_dir: flags.get("cache").map(std::path::PathBuf::from),
    };
    let (report, stats) = match run_tune(&spec, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tune: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = report.to_json();
    // Execution counters go to stderr only: the report must stay
    // byte-identical whatever the cache already held.
    eprintln!(
        "tune: {} enumerated, {} legal, {} probed, {} halved; {} closed-loop cells \
         ({} from cache), {} finalists, {} on the frontier",
        report.counts.enumerated,
        report.counts.legal,
        report.counts.stage1_promoted,
        report.counts.stage2_promoted,
        stats.stage3_cells,
        stats.stage3_cache_hits,
        report.counts.finalists,
        report.counts.frontier
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

    if let Some(path) = flags.get("out") {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("tune: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("tune: wrote {path}");
    }

    if let Some(golden_path) = flags.get("golden") {
        if flags.contains_key("bless") {
            if let Err(e) = std::fs::write(golden_path, &json) {
                eprintln!("tune: cannot bless {golden_path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("tune: blessed golden snapshot {golden_path}");
        } else if flags.contains_key("check") {
            let golden = match std::fs::read_to_string(golden_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("tune: cannot read golden {golden_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if golden.trim() != json.trim() {
                eprintln!(
                    "tune: report differs from golden {golden_path}; \
                     re-run with --bless to accept the new frontier"
                );
                return ExitCode::FAILURE;
            }
            eprintln!("tune: report matches the golden snapshot");
        } else {
            eprintln!("tune: --golden needs --check or --bless");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `tenoc sweep`: fan a (preset x benchmark) grid over the worker pool and
/// emit JSON-lines records, optionally checking or refreshing a golden
/// snapshot.
fn cmd_sweep(flags: &Flags, scale: f64) -> ExitCode {
    use tenoc::harness::{check_fingerprints, engine, from_jsonl, to_jsonl, SeedMode, SweepGrid};

    // Parsed before the grid is chosen: a bad value is rejected even where
    // `--tiny` would go on to ignore it.
    let seed = flags.seed().unwrap_or(0x7e0c);
    let grid = if flags.contains_key("tiny") {
        tenoc::harness::tiny_grid()
    } else {
        let presets = match flags.get("presets").map(String::as_str) {
            None => vec![Preset::BaselineTbDor],
            Some("all") => Preset::NAMED.to_vec(),
            Some(list) => {
                let mut out = Vec::new();
                for name in list.split(',') {
                    let Some(p) = preset_by_flag(name) else {
                        eprintln!("sweep: unknown preset {name}");
                        return usage();
                    };
                    out.push(p);
                }
                out
            }
        };
        let benchmarks: Vec<String> = match flags.get("benchmarks").map(String::as_str) {
            None | Some("smoke") => {
                tenoc::workloads::smoke_suite().iter().map(|s| s.name.clone()).collect()
            }
            Some("all") => suite().iter().map(|s| s.name.clone()).collect(),
            Some(list) => {
                let mut out = Vec::new();
                for name in list.split(',') {
                    if by_name(name).is_none() {
                        eprintln!("sweep: unknown benchmark {name}; see `tenoc list`");
                        return ExitCode::FAILURE;
                    }
                    out.push(name.to_owned());
                }
                out
            }
        };
        SweepGrid::new(presets, benchmarks, scale).with_seed_mode(SeedMode::Derived(seed))
    };
    // Telemetry rides the records' non-serialized side channel, so armed
    // and unarmed sweeps emit byte-identical JSONL.
    let grid = grid.with_telemetry(flags.contains_key("telemetry"));

    let jobs = flags.jobs().unwrap_or_else(tenoc::harness::jobs_from_env);
    eprintln!(
        "sweep: {} cells ({} presets x {} benchmarks) at scale {}, {} jobs",
        grid.len(),
        grid.presets.len(),
        grid.benchmarks.len(),
        grid.scale,
        jobs
    );
    let records = engine::run_sweep(&grid, jobs);
    let jsonl = to_jsonl(&records);

    if let Some(path) = flags.get("out") {
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("sweep: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("sweep: wrote {} records to {path}", records.len());
    } else {
        print!("{jsonl}");
    }

    if let Some(golden_path) = flags.get("golden") {
        if flags.contains_key("bless") {
            if let Err(e) = std::fs::write(golden_path, &jsonl) {
                eprintln!("sweep: cannot bless {golden_path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("sweep: blessed golden snapshot {golden_path}");
        } else if flags.contains_key("check") {
            let golden_text = match std::fs::read_to_string(golden_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("sweep: cannot read golden {golden_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let golden = match from_jsonl(&golden_text) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("sweep: malformed golden {golden_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(problems) = check_fingerprints(&records, &golden) {
                eprintln!("sweep: golden mismatch against {golden_path}:");
                for p in &problems {
                    eprintln!("  {p}");
                }
                eprintln!("re-run with --bless to accept the new numbers");
                return ExitCode::FAILURE;
            }
            eprintln!("sweep: {} records match the golden snapshot", records.len());
        } else {
            eprintln!("sweep: --golden needs --check or --bless");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
