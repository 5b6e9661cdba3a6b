//! End-to-end test of the `tenoc` CLI's flag contract: a flag a
//! subcommand does not accept, or a flag value that does not parse or is
//! out of range, prints that subcommand's usage and exits 2 (a mistyped
//! flag or value must never silently run a different experiment), while
//! every invocation shape the repo benchmark makes
//! (`benchmark/src/e2e.rs`) keeps exiting 0 — as do the telemetry entry
//! points, which run on the same engine as every other cell.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn tenoc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tenoc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs")
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
    let out = tenoc(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error; stderr: {stderr}");
    assert!(stderr.contains(problem), "stderr must say `{problem}`: {stderr}");
    assert!(stderr.contains(&format!("usage: tenoc {}", args[0])), "stderr shows usage: {stderr}");
    assert!(out.stdout.is_empty(), "a rejected invocation must not run anything");
}

fn assert_ok(args: &[&str]) {
    let out = tenoc(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?} failed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn unknown_flags_exit_with_code_two() {
    assert_rejected(&["sweep", "--tiny", "--batch", "4"], "--batch");
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
fn telemetry_entry_points_still_succeed_with_identical_records() {
    let dir = scratch("telemetry");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (armed, trace) = (path("armed.jsonl"), path("trace"));
    assert_ok(&["sweep", "--tiny", "--telemetry", "--jobs", "2", "--out", &armed]);
    let golden = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tiny.jsonl"));
    assert_eq!(std::fs::read(&armed).unwrap(), golden.unwrap(), "armed sweep bytes moved");
    assert_ok(&[
        "trace",
        "--preset",
        "thr-eff",
        "--benchmark",
        "RD",
        "--scale",
        "0.02",
        "--out",
        &trace,
    ]);
    assert!(std::fs::metadata(dir.join("trace/flight.jsonl")).unwrap().len() > 0);
    let _ = std::fs::remove_dir_all(&dir);
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
