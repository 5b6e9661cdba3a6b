//! `tenoc-benchmark` — the repository benchmark (see `../BENCHMARK.json`
//! and `README.md`).
//!
//! ```text
//! tenoc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one run of one workload; the last stdout line is the result object
//!     {"correct","attempted","failed","metrics"} the driver reads
//! tenoc-benchmark [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]
//!     every workload (end to end, then traced with --trace), written as a
//!     results file with a machine fingerprint; exits 1 if anything failed
//! tenoc-benchmark --compare A.json B.json
//!     per metric: both values, B/A, the bound, a verdict; exits 1 outside
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod e2e;
mod proc;
mod report;
mod spec;
mod stats;
mod trace;
mod wire;

use e2e::RunOpts;
use proc::{Repo, ScratchGuard};
use report::Outcome;
use serde::json::Value;
use serde::Serialize;
use spec::{Size, DEFAULT_SEED, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Parses the flags; an unknown flag or a bad value is an error, never a
/// silently different experiment.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => out.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                let v = value(&mut i, flag)?;
                out.seed = parse_seed(&v).ok_or_else(|| format!("--seed {v} is not a number"))?;
            }
            "--seconds" => {
                let v = value(&mut i, flag)?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {v} is not a duration"))?;
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                out.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    Some(v) if !v.starts_with("--") => {
                        return Err(format!("--trace takes 0 or 1, not {v}"))
                    }
                    _ => true,
                };
            }
            "--smoke" => out.smoke = true,
            "--out" => out.out = Some(PathBuf::from(value(&mut i, flag)?)),
            "--compare" => {
                let a = value(&mut i, flag)?;
                let b = value(&mut i, flag)?;
                out.compare = Some((PathBuf::from(a), PathBuf::from(b)));
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(out)
}

/// The recorded digest of a workload's default-seed output, if this run
/// is at the seed and size the digests were recorded at.
fn expected_digest(workload: &str, opts: &RunOpts) -> Option<u64> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected").join("digests.json");
    let v = serde::json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let at_recorded_seed = v.field("seed").and_then(Value::as_u64).ok()? == opts.seed;
    if !at_recorded_seed || opts.size != Size::Full {
        return None;
    }
    let hex = v.field("digests").ok()?.field(workload).ok()?.as_str().ok()?;
    u64::from_str_radix(hex, 16).ok()
}

/// Runs one workload in one mode and prints it for people. The digest
/// check is advisory (the goldens are the authority on correctness) but
/// loud.
fn run_one(repo: &Repo, name: &str, opts: &RunOpts, trace: bool) -> Result<Outcome, String> {
    let w = spec::workload(name, opts.size).ok_or_else(|| {
        format!("unknown workload {name}; the workloads are {}", WORKLOADS.join(", "))
    })?;
    let expected = expected_digest(name, opts);
    let outcome = if trace {
        trace::run_workload(repo, &w, opts, expected)?
    } else {
        e2e::run_workload(repo, &w, opts)?
    };
    outcome.print(name, if trace { "per layer, traced in process" } else { "end to end" });
    match expected {
        Some(want) if want != outcome.digest => eprintln!(
            "  !!! OUTPUT DIGEST {:016x} IS NOT THE RECORDED {want:016x}: the simulated results \
             changed. If the goldens were re-blessed on purpose, update \
             benchmark/expected/digests.json in a benchmark PR.",
            outcome.digest
        ),
        Some(_) => eprintln!("  output digest {:016x} matches the recorded one", outcome.digest),
        None => eprintln!(
            "  output digest {:016x} (digests are recorded for the default seed only)",
            outcome.digest
        ),
    }
    Ok(outcome)
}

fn real_main(args: &Args) -> Result<bool, String> {
    let repo = Repo::locate();
    if let Some((a, b)) = &args.compare {
        return report::compare(&repo.root, a, b);
    }
    repo.build()?;
    let _scratch = ScratchGuard(repo.out.clone());
    let size = if args.smoke { Size::Smoke } else { Size::Full };
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let opts = RunOpts { seed: args.seed, seconds, size };

    if let Some(name) = &args.workload {
        // The driver's mode: one result object as the last stdout line,
        // exit 0 even when operations failed (the object says so).
        let outcome = run_one(&repo, name, &opts, args.trace)?;
        println!("{}", outcome.to_value().to_json_compact());
        return Ok(true);
    }

    let mut runs = Vec::new();
    for name in WORKLOADS {
        runs.push((name.to_string(), "end_to_end", run_one(&repo, name, &opts, false)?));
        if args.trace || args.smoke {
            runs.push((name.to_string(), "per_layer", run_one(&repo, name, &opts, true)?));
        }
    }
    let attempted: u64 = runs.iter().map(|(_, _, o)| o.ops.attempted).sum();
    let failed: u64 = runs.iter().map(|(_, _, o)| o.ops.failed).sum();
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("results.json"));
    let file = report::results_file(report::fingerprint(&repo.root, args.seed), &runs);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.to_json_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {} ({failed} failed of {attempted} attempted operations)", path.display());
    let summary = Value::Object(vec![
        ("correct".to_string(), (failed == 0).to_value()),
        ("attempted".to_string(), attempted.to_value()),
        ("failed".to_string(), failed.to_value()),
        ("results".to_string(), path.display().to_string().to_value()),
    ]);
    println!("{}", summary.to_json_compact());
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| real_main(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tenoc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload sweep_hh --seed 17 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("sweep_hh"));
        assert_eq!((a.seed, a.seconds, a.trace), (17, 12.0, true));
        assert!(!args("--workload tune_k6 --seed 0x7e0c --seconds 5 --trace 0").unwrap().trace);
        assert_eq!(args("--seed 0x7e0c").unwrap().seed, DEFAULT_SEED);
        assert!(args("--trace --smoke").unwrap().trace);
        assert!(args("--trace").unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in
            ["--sead 1", "--seed x", "--seconds -1", "--trace 2", "--workload", "--compare a"]
        {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
