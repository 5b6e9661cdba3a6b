//! End-to-end test of the `tenoc` CLI's flag contract: a flag a
//! subcommand does not accept, or a flag value or `TENOC_SCALE` /
//! `TENOC_JOBS` setting that does not parse or is out of range, prints
//! that subcommand's usage and exits 2 (a mistyped flag, value or
//! variable must never silently run a different experiment), while
//! every invocation shape the repo benchmark makes
//! (`benchmark/src/e2e.rs`) keeps exiting 0. Also pinned here, from
//! outside: `trace` observes without perturbing, `sweep` and `submit`
//! plan the same grid from the same flags, `openloop` probes the preset's
//! real fabric, every preset name the CLI prints is one it accepts,
//! `tune`'s stderr summary keeps the closed-loop cache pair the benchmark
//! parses ahead of the probe counts, and the suite-shaped commands
//! (`suite`, `classify`) run on the worker pool without a byte of their
//! output depending on `TENOC_JOBS`.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use tenoc::core::Preset;
use tenoc::noc::openloop::{run_open_loop_on, OpenLoopConfig, TrafficPattern};

fn tenoc(args: &[&str]) -> Output {
    tenoc_env(args, &[])
}

fn tenoc_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tenoc"))
        .args(args)
        .envs(env.iter().copied())
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs")
}

/// Stdout of a successful run under `TENOC_JOBS=jobs`, which must announce
/// on stderr that its `cells` went to that many pool workers.
fn ok_on_pool(args: &[&str], jobs: &str, cells: &str) -> String {
    let out = tenoc_env(args, &[("TENOC_JOBS", jobs)]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?} at {jobs} jobs failed; stderr: {stderr}");
    let announced = format!("{}: {cells} at scale 0.02, {jobs} jobs\n", args[0]);
    assert_eq!(stderr, announced, "{args:?} did not run on a {jobs}-worker pool");
    String::from_utf8(out.stdout).expect("stdout is text")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tenoc-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn assert_rejected(args: &[&str], flag: &str) {
    assert_usage_error(args, &format!("unknown flag {flag}"));
}

fn assert_usage_error(args: &[&str], problem: &str) {
    assert_usage_error_env(args, &[], problem);
}

fn assert_usage_error_env(args: &[&str], env: &[(&str, &str)], problem: &str) {
    let out = tenoc_env(args, env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error; stderr: {stderr}");
    assert!(stderr.contains(problem), "stderr must say `{problem}`: {stderr}");
    assert!(stderr.contains(&format!("usage: tenoc {}", args[0])), "stderr shows usage: {stderr}");
    assert!(out.stdout.is_empty(), "a rejected invocation must not run anything");
}

fn assert_ok(args: &[&str]) -> String {
    let out = tenoc(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?} failed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is text")
}

#[test]
fn unknown_flags_exit_with_code_two() {
    assert_rejected(&["sweep", "--tiny", "--batch", "4"], "--batch");
    // `trace` is the telemetry entry point; sweeps have no such switch.
    assert_rejected(&["sweep", "--tiny", "--telemetry"], "--telemetry");
    assert_rejected(&["tune", "--tiny", "--bogus", "1"], "--bogus");
    // A flag another subcommand owns is still unknown here.
    assert_rejected(&["serve", "--tiny"], "--tiny");
}

#[test]
fn bad_flag_values_exit_with_code_two() {
    let bad = |args: &[&str], flag: &str, value: &str| {
        assert_usage_error(args, &format!("invalid value for --{flag}: {value}"));
    };
    bad(&["run", "--benchmark", "RD", "--preset", "baseline", "--scale", "x"], "scale", "x");
    bad(&["sweep", "--tiny", "--scale", "0"], "scale", "0");
    bad(&["sweep", "--tiny", "--jobs", "0"], "jobs", "0");
    bad(&["sweep", "--tiny", "--seed", "-1"], "seed", "-1");
    bad(&["serve", "--jobs", "two"], "jobs", "two");
    bad(&["submit", "--tiny", "--seed", "0x7e0c"], "seed", "0x7e0c");
    bad(&["tune", "--tiny", "--k", "six"], "k", "six");
    bad(&["audit", "--k", "1"], "k", "1");
    bad(&["openloop", "--preset", "baseline", "--rate", "fast"], "rate", "fast");
    bad(&["trace", "--preset", "thr-eff", "--flight-cap", "many"], "flight-cap", "many");
    bad(&["trace", "--preset", "thr-eff", "--node", "36"], "node", "36");
    // A value-taking flag with its value missing reads as `true`.
    bad(&["tune", "--tiny", "--seed"], "seed", "true");
}

/// The environment knobs obey the flags' predicates: `TENOC_SCALE=O.5`
/// used to run silently at 0.12, `=inf` was accepted, and `TENOC_JOBS=0`
/// became "all cores".
#[test]
fn bad_env_knobs_exit_with_code_two() {
    let suite: &[&str] = &["suite", "--preset", "baseline"];
    // With the scale pinned small, should a bad TENOC_JOBS ever be accepted again.
    let quick: &[&str] = &["suite", "--preset", "baseline", "--scale", "0.02"];
    for (args, var, value) in [
        (suite, "TENOC_SCALE", "x"),
        (suite, "TENOC_SCALE", "0"),
        (suite, "TENOC_SCALE", "inf"),
        (quick, "TENOC_JOBS", "0"),
        (quick, "TENOC_JOBS", "two"),
    ] {
        assert_usage_error_env(args, &[(var, value)], &format!("{var}={value} is not"));
    }
    // Valid settings still work, and a flag outranks its variable.
    let run = ["run", "--benchmark", "HIS", "--preset", "baseline", "--json"];
    let by_env = tenoc_env(&run, &[("TENOC_SCALE", "0.02")]);
    assert_eq!(by_env.status.code(), Some(0), "{}", String::from_utf8_lossy(&by_env.stderr));
    let by_flag = tenoc_env(&[&run[..], &["--scale", "0.02"]].concat(), &[("TENOC_SCALE", "x")]);
    assert_eq!(by_flag.status.code(), Some(0), "{}", String::from_utf8_lossy(&by_flag.stderr));
    assert_eq!(by_env.stdout, by_flag.stdout);
}

#[test]
fn benchmark_sweep_and_list_invocations_still_succeed() {
    let dir = scratch("sweep");
    let out = dir.join("out.jsonl");
    let out = out.to_str().unwrap();
    assert_ok(&[
        "sweep",
        "--tiny",
        "--golden",
        "tests/golden/tiny.jsonl",
        "--check",
        "--jobs",
        "2",
        "--out",
        out,
    ]);
    assert_ok(&[
        "sweep",
        "--presets",
        "thr-eff,baseline",
        "--benchmarks",
        "RD,KM",
        "--scale",
        "0.02",
        "--seed",
        "32268",
        "--jobs",
        "2",
        "--out",
        out,
    ]);
    assert_ok(&["list"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn benchmark_tune_invocations_still_succeed() {
    let dir = scratch("tune");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (out, cache, golden) = (path("frontier.json"), path("cache"), path("golden.json"));
    assert_ok(&["tune", "--tiny", "--jobs", "2", "--out", &out]);
    // The benchmark's `--k 6 … --golden … --check` shape on the tiny
    // search (`tests/tune_golden.rs` covers the full one): bless, then
    // check warm from the same cache.
    let shape = ["tune", "--k", "6", "--tiny", "--jobs", "2", "--out", &out, "--seed", "32268"];
    let with = |mode: &'static str| {
        let mut args = shape.to_vec();
        args.extend(["--cache", &cache, "--golden", &golden, mode]);
        args
    };
    assert_ok(&with("--bless"));
    assert_ok(&with("--check"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tune_summary_reports_memoized_probes_behind_the_closed_loop_pair() {
    let dir = scratch("tune-summary");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (cache, cold, warm) = (path("cache"), path("cold.json"), path("warm.json"));
    let run = |out: &str| {
        let o =
            tenoc(&["tune", "--tiny", "--jobs", "2", "--json", "--cache", &cache, "--out", out]);
        assert_eq!(o.status.code(), Some(0));
        String::from_utf8(o.stderr).expect("stderr is text")
    };
    // What `benchmark/src/e2e.rs::all_from_cache` reads: the number in
    // front of the *first* occurrence of each marker.
    let number_before = |stderr: &str, marker: &str| -> u64 {
        let head = &stderr[..stderr.find(marker).expect("marker present")];
        head.rsplit(|c: char| !c.is_ascii_digit()).next().unwrap().parse().expect("a count")
    };
    let first = run(&cold);
    assert!(first.contains("; 12 probes ticked, 0 memoized"), "{first}");
    assert_eq!(number_before(&first, " from cache"), 0, "{first}");
    let frontier = number_before(&first, " on the frontier");
    assert!(first.contains(&format!("; {frontier} heatmaps re-run, 0 memoized\n")), "{first}");
    let second = run(&warm);
    assert!(second.contains("; 0 probes ticked, 12 memoized"), "{second}");
    assert!(second.contains(&format!("; 0 heatmaps re-run, {frontier} memoized\n")), "{second}");
    let cells = number_before(&second, " closed-loop cells");
    assert_eq!((cells, number_before(&second, " from cache")), (4, 4), "{second}");
    assert_eq!(std::fs::read(&cold).unwrap(), std::fs::read(&warm).unwrap());
    assert!(!second.contains("ignored"), "a journal this binary wrote replays whole: {second}");
    // A journal line from another model version is reported, not served.
    let journal = dir.join("cache").join("cells.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::write(&journal, text.replacen("{\"v\":", "{\"v\":9", 1)).unwrap();
    let third = run(&warm);
    assert!(third.contains("tune: ignored 1 journal line(s)"), "{third}");
    assert!(third.contains("; 1 probes ticked, 11 memoized"), "{third}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_entry_points_still_succeed_with_identical_records() {
    let dir = scratch("telemetry");
    let trace = dir.join("trace");
    let cell = ["--preset", "thr-eff", "--benchmark", "RD", "--scale", "0.02"];
    let with = |head: [&str; 1], tail: &[&str]| assert_ok(&[&head, &cell[..], tail].concat());
    with(["trace"], &["--out", trace.to_str().unwrap()]);
    assert!(std::fs::metadata(trace.join("flight.jsonl")).unwrap().len() > 0);
    // Observation does not perturb: the traced run recorded exactly the
    // metrics the same cell reports untraced.
    let metrics = |text: &str| {
        let v = serde::json::parse(text).expect("valid JSON");
        v.field("metrics").expect("metrics object").to_json_compact()
    };
    let traced = std::fs::read_to_string(trace.join("trace.json")).unwrap();
    assert_eq!(metrics(&traced), metrics(&with(["run"], &["--json"])));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_and_submit_plan_the_same_grid_from_the_same_flags() {
    let dir = scratch("plan");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let server = tenoc::serve::start(tenoc::serve::ServerConfig::new("127.0.0.1:0", path("cache")))
        .expect("service starts");
    let addr = server.addr().to_string();
    // No `--scale`: both subcommands must fall back to the same default.
    let grid = ["--presets", "thr-eff,baseline", "--benchmarks", "HIS,RD", "--seed", "11"];
    let (swept, submitted) = (path("sweep.jsonl"), path("submit.jsonl"));
    let mut sweep = vec!["sweep", "--jobs", "2", "--out", &swept];
    sweep.extend(grid);
    let mut submit = vec!["submit", "--addr", &addr, "--out", &submitted];
    submit.extend(grid);
    assert_ok(&sweep);
    assert_ok(&submit);
    server.shutdown();
    let swept = std::fs::read(&swept).unwrap();
    assert_eq!(swept.iter().filter(|&&b| b == b'\n').count(), 4);
    assert_eq!(swept, std::fs::read(&submitted).unwrap(), "submit planned a different grid");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn openloop_probes_the_sliced_fabric_of_a_double_preset() {
    let line = |preset: &str| assert_ok(&["openloop", "--preset", preset, "--rate", "0.05"]);
    assert_ne!(line("double"), line("cp-cr"), "double was probed as its unsliced single network");
    // The CLI line is a library probe of the two half-width slices.
    let icnt = Preset::DoubleCpCr.icnt(6);
    let cfg = OpenLoopConfig::new(icnt.net().clone(), 0.05, TrafficPattern::UniformRandom);
    let r = run_open_loop_on(&cfg, &mut *tenoc::noc::build_double(icnt.net()));
    let saturated = if r.saturated() { " (saturated)" } else { "" };
    let expected = format!(
        "rate 0.05: latency {:.1} cyc, delivered {:.1}%{saturated}\n",
        r.avg_latency,
        r.delivered_fraction * 100.0
    );
    assert_eq!(line("double"), expected);
    // Ideal presets have no fabric to probe.
    assert_eq!(tenoc(&["openloop", "--preset", "perfect"]).status.code(), Some(1));
}

#[test]
fn every_printed_preset_name_is_accepted() {
    let listed = assert_ok(&["list"]);
    let usage = String::from_utf8(tenoc(&[]).stderr).unwrap();
    for (text, sep) in [(&listed, ", "), (&usage, " ")] {
        let names = text.lines().find_map(|l| l.strip_prefix("presets: ")).expect("presets line");
        let presets: Vec<_> = names.split(sep).map(Preset::from_flag).collect();
        assert_eq!(presets, Preset::NAMED.map(Some), "printed: {names}");
    }
}

#[test]
fn benchmark_serve_invocation_still_starts() {
    let dir = scratch("serve");
    let mut child = Command::new(env!("CARGO_BIN_EXE_tenoc"))
        .args(["serve", "--addr", "127.0.0.1:0", "--cache", dir.to_str().unwrap(), "--jobs", "2"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The server announces itself once bound and then parks forever.
    let mut line = String::new();
    let stderr = child.stderr.take().expect("piped stderr");
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stderr), &mut line).unwrap();
    let still_running = child.try_wait().expect("wait works").is_none();
    child.kill().expect("server is killable");
    let _ = child.wait();
    assert!(line.contains("serve: listening on 127.0.0.1:"), "unexpected banner: {line}");
    assert!(still_running, "serve must keep running after a clean start");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The keys of a JSON object, in serialized order.
fn keys(v: &serde::json::Value) -> Vec<&str> {
    let serde::json::Value::Object(fields) = v else { panic!("not an object: {v:?}") };
    fields.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn suite_runs_on_the_pool_with_job_count_invariant_output() {
    let suite = |jobs: &str, tail: &[&str]| {
        let args = [&["suite", "--preset", "baseline", "--scale", "0.02"], tail].concat();
        ok_on_pool(&args, jobs, "31 cells (1 presets x 31 benchmarks)")
    };
    let (text, json) = (suite("1", &[]), suite("1", &["--json"]));
    assert_eq!(text, suite("2", &[]), "suite table depends on TENOC_JOBS");
    assert_eq!(json, suite("2", &["--json"]), "suite --json depends on TENOC_JOBS");

    // The table: heading, 31 benchmark rows in suite order, the HM line.
    assert!(text.starts_with("### TB-DOR (scale 0.02)\n\n| bench | class | IPC |"), "{text}");
    let rows: Vec<&str> = text.lines().skip(4).take_while(|l| l.starts_with("| ")).collect();
    assert_eq!(rows.len(), 31, "{text}");
    assert!(rows[0].starts_with("| AES | LL | "), "{}", rows[0]);
    assert!(text.lines().last().unwrap().starts_with("HM IPC: "), "{text}");

    // The object: `design`, `scale`, then one `name`/`class`/`metrics`
    // entry per benchmark, in that order.
    let report = serde::json::parse(&json).expect("suite --json is JSON");
    assert_eq!(keys(&report), ["design", "scale", "benchmarks"]);
    assert_eq!(report.field("design").unwrap().as_str().unwrap(), "TB-DOR");
    assert_eq!(report.field("scale").unwrap().as_f64().unwrap(), 0.02);
    let benchmarks = report.field("benchmarks").unwrap().as_array().unwrap();
    assert_eq!(benchmarks.len(), 31);
    for (b, row) in benchmarks.iter().zip(&rows) {
        assert_eq!(keys(b), ["name", "class", "metrics"]);
        let cell = |key| b.field(key).unwrap().as_str().unwrap();
        assert!(row.starts_with(&format!("| {} | {} | ", cell("name"), cell("class"))), "{row}");
    }
    // A suite cell is the cell `tenoc run` runs: same seed, same metrics.
    let his = benchmarks.iter().find(|b| b.field("name").unwrap().as_str() == Ok("HIS")).unwrap();
    let run = assert_ok(&[
        "run",
        "--benchmark",
        "HIS",
        "--preset",
        "baseline",
        "--scale",
        "0.02",
        "--json",
    ]);
    let run = serde::json::parse(&run).expect("run --json is JSON");
    assert_eq!(his.field("metrics").unwrap(), run.field("metrics").unwrap());
}

#[test]
fn classify_runs_on_the_pool_with_job_count_invariant_output() {
    let classify = |jobs: &str| {
        ok_on_pool(&["classify", "--scale", "0.02"], jobs, "62 cells (2 presets x 31 benchmarks)")
    };
    let table = classify("1");
    assert_eq!(table, classify("2"), "classify depends on TENOC_JOBS");
    let mut lines = table.lines();
    assert_eq!(lines.next().unwrap().split_whitespace().next(), Some("bench"));
    let rows: Vec<Vec<&str>> = lines
        .by_ref()
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(rows.len(), 31, "{table}");
    let mut matched = 0;
    for row in rows {
        let [_bench, intended, speedup, bytes, measured, matches] = row[..] else {
            panic!("6 columns: {row:?}")
        };
        assert!(["LL", "LH", "HH"].contains(&intended), "{row:?}");
        assert!(["LL", "LH", "HL", "HH"].contains(&measured), "{row:?}");
        assert!(speedup.ends_with('%') && bytes.parse::<f64>().is_ok(), "{row:?}");
        assert_eq!(matches, if intended == measured { "yes" } else { "NO" }, "{row:?}");
        matched += (intended == measured) as usize;
    }
    assert_eq!(lines.next(), Some(&*format!("{matched}/31 land in their intended class")));
}
