//! End-to-end workloads: every number here is taken from outside the
//! `tenoc` binary — child processes and sockets — with tracing off, so
//! flag parsing, defaults, JSONL writing and the wire protocol are all
//! inside the measurement. `--batch` is never passed: whatever engine a
//! subcommand defaults to is what its users run.

use crate::proc::{run, Finished, Repo, Server};
use crate::report::{Metrics, Ops, Outcome};
use crate::spec::{GridSpec, Kind, Size, Workload, DEFAULT_SEED, END_TO_END, JOBS, SETUP_REPS};
use crate::stats::{fnv1a64, median};
use crate::wire::{submit, Reply};
use serde::json::Value;
use serde::Serialize;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use tenoc_core::Preset;
use tenoc_harness::{from_jsonl, to_jsonl, SeedMode, SweepGrid};

/// The repository's own golden files, relative to its root. Using them
/// (rather than copies) keeps a PR that re-blesses them consistent.
const TINY_GOLDEN: &str = "tests/golden/tiny.jsonl";
const FRONTIER_GOLDEN: &str = "tests/golden/frontier.json";

/// What the command line asked for.
#[derive(Copy, Clone, Debug)]
pub struct RunOpts {
    /// Grid / tune seed handed to the program.
    pub seed: u64,
    /// How long the timed part runs.
    pub seconds: f64,
    /// Full or smoke.
    pub size: Size,
}

/// The grid `tenoc sweep` plans for these flags at this seed.
///
/// # Panics
///
/// Panics on a preset or benchmark the repository does not know: the
/// names are this package's own constants.
pub fn plan(grid: &GridSpec, seed: u64) -> SweepGrid {
    let presets = grid
        .presets
        .split(',')
        .map(|p| Preset::from_flag(p).unwrap_or_else(|| panic!("unknown preset {p}")))
        .collect();
    let benchmarks: Vec<String> = if grid.benchmarks == "all" {
        tenoc_workloads::suite().iter().map(|s| s.name.clone()).collect()
    } else {
        grid.benchmarks.split(',').map(str::to_string).collect()
    };
    for b in &benchmarks {
        assert!(tenoc_workloads::by_name(b).is_some(), "unknown benchmark {b}");
    }
    SweepGrid::new(presets, benchmarks, grid.scale).with_seed_mode(SeedMode::Derived(seed))
}

/// Everything a workload's timed part produced.
#[derive(Default)]
struct Passes {
    ops: Ops,
    problems: Vec<String>,
    /// What `wall_s` reads for each pass, seconds.
    wall_s: Vec<f64>,
    /// Each pass's from-nothing part, seconds.
    cold_s: Vec<f64>,
    /// Each repeat of already-done work, milliseconds.
    warm_ms: Vec<f64>,
    peak_rss_kb: u64,
    /// The first pass's output bytes.
    output: Vec<u8>,
}

impl Passes {
    fn fail(&mut self, n: u64, failed: u64, why: impl FnOnce() -> String) {
        self.ops.add(n, failed);
        if failed > 0 {
            self.problems.push(why());
        }
    }

    /// `true` while another pass should start: always a first one, then
    /// for as long as half of a typical pass still fits the budget.
    fn wants_pass(&self, started: Instant, seconds: f64) -> bool {
        let n = self.wall_s.len();
        if n == 0 {
            return true;
        }
        let elapsed = started.elapsed().as_secs_f64();
        elapsed + elapsed / n as f64 / 2.0 < seconds
    }
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn show_failure(what: &str, f: &Finished) -> String {
    format!("{what} exited non-zero; its stderr:\n{}", f.stderr.trim_end())
}

/// Runs one workload end to end and reports every end-to-end metric.
///
/// # Errors
///
/// Returns a message when the benchmark itself could not run (a process
/// would not spawn, a directory could not be made). A wrong or missing
/// output is not an error: it is a failed operation in the outcome.
pub fn run_workload(repo: &Repo, w: &Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let reps = if opts.size == Size::Full { SETUP_REPS } else { 1 };
    let mut setup_s = Vec::new();
    let mut timed = Passes::default();
    let mut server = None;
    for rep in 0..reps {
        server = None; // Never two servers at once.
        let start = Instant::now();
        let dir = repo.fresh_dir(&format!("{}-setup{rep}", w.name))?;
        match w.kind {
            Kind::Sweep { .. } => sweep_gate(repo, &dir, &mut timed)?,
            Kind::Tune { .. } => tune_gate(repo, &dir, &mut timed)?,
            Kind::Serve { .. } => {
                let spawned = Server::spawn(repo, &dir)?;
                serve_gate(repo, spawned.addr, &mut timed)?;
                server = Some((spawned, dir));
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let dir = repo.fresh_dir(w.name)?;
    match w.kind {
        Kind::Sweep { .. } => sweep_passes(repo, w, opts, &dir, &mut timed)?,
        Kind::Tune { tiny } => tune_passes(repo, opts, tiny, &dir, &mut timed)?,
        Kind::Serve { resubmits } => {
            let (server, cache) = server.expect("the serve set-up spawned a server");
            serve_passes(repo, w, opts, resubmits, server, &cache, &mut timed)?;
        }
    }

    // The raw samples behind the medians, for whoever doubts one.
    let show =
        |xs: &[f64]| xs.iter().take(12).map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ");
    eprintln!("  {}: setup_s [{}] pass wall_s [{}]", w.name, show(&setup_s), show(&timed.wall_s));

    let mut metrics = Metrics::zeroed(&END_TO_END);
    metrics.set("setup_s", median(&mut setup_s));
    metrics.set("wall_s", median(&mut timed.wall_s));
    metrics.set("cold_s", median(&mut timed.cold_s));
    metrics.set("warm_ms", median(&mut timed.warm_ms));
    metrics.set("peak_rss_mb", timed.peak_rss_kb as f64 / 1024.0);
    Ok(Outcome {
        ops: timed.ops,
        problems: timed.problems,
        metrics,
        digest: fnv1a64(&timed.output),
    })
}

// ---- sweep ---------------------------------------------------------------

/// The correctness gate of every sweep workload: the repository's own
/// golden tiny grid through the binary. One operation.
fn sweep_gate(repo: &Repo, dir: &Path, timed: &mut Passes) -> Result<(), String> {
    let out = dir.join("tiny.jsonl");
    let mut args = strings(&["sweep", "--tiny", "--golden", TINY_GOLDEN, "--check", "--jobs"]);
    args.extend([JOBS.to_string(), "--out".to_string(), out.display().to_string()]);
    let f = run(repo.tenoc(&args))?;
    timed.fail(1, u64::from(!f.ok), || show_failure("the tiny golden sweep", &f));
    Ok(())
}

/// Counts the cells of `text` that are not what `grid` planned: missing,
/// incomplete, mis-identified, with a fingerprint that does not
/// recompute — or all of them when the file does not round-trip byte for
/// byte through the repository's own reader and writer.
fn bad_sweep_cells(text: &str, grid: &SweepGrid) -> (u64, Option<String>) {
    let cells = grid.len() as u64;
    let records = match from_jsonl(text) {
        Ok(r) => r,
        Err(e) => return (cells, Some(format!("output does not parse: {e}"))),
    };
    if to_jsonl(&records) != text {
        return (cells, Some("output does not round-trip through from_jsonl/to_jsonl".into()));
    }
    let mut bad = cells.saturating_sub(records.len() as u64);
    let mut first = None;
    for (i, r) in records.iter().enumerate() {
        let planned = (i < grid.len()).then(|| grid.cell(i));
        let ok = planned.is_some_and(|c| {
            r.cell == i as u64
                && r.benchmark == c.benchmark
                && r.seed == c.seed
                && r.preset == c.preset.label()
        }) && r.metrics.completed
            && r.fingerprint_valid();
        if !ok {
            bad += 1;
            first.get_or_insert_with(|| format!("cell {i} ({}) is wrong or incomplete", r.key()));
        }
    }
    if bad > 0 && first.is_none() {
        first = Some(format!("{} of {cells} records are missing", cells - records.len() as u64));
    }
    (bad.min(cells), first)
}

fn sweep_passes(
    repo: &Repo,
    w: &Workload,
    opts: &RunOpts,
    dir: &Path,
    timed: &mut Passes,
) -> Result<(), String> {
    let grid = plan(&w.grid, opts.seed);
    let cells = grid.len() as u64;
    let out = dir.join("pass.jsonl");
    let mut args = strings(&["sweep", "--presets", w.grid.presets, "--benchmarks"]);
    args.extend([w.grid.benchmarks.to_string(), "--scale".to_string(), w.grid.scale.to_string()]);
    args.extend(["--seed".to_string(), opts.seed.to_string()]);
    args.extend(["--jobs".to_string(), JOBS.to_string()]);
    args.extend(["--out".to_string(), out.display().to_string()]);

    let started = Instant::now();
    while timed.wants_pass(started, opts.seconds) {
        let _ = std::fs::remove_file(&out);
        let f = run(repo.tenoc(&args))?;
        let wall = f.wall.as_secs_f64();
        timed.peak_rss_kb = timed.peak_rss_kb.max(f.peak_rss_kb);
        // `tenoc sweep` keeps no memo: every pass computes from nothing
        // (cold), and the repeats are all a second invocation gets
        // (warm). The two part ways the day sweep learns to reuse work.
        timed.cold_s.push(wall);
        if !timed.wall_s.is_empty() {
            timed.warm_ms.push(wall * 1e3);
        }
        timed.wall_s.push(wall);

        let text = std::fs::read_to_string(&out).unwrap_or_default();
        if !f.ok {
            timed.fail(cells, cells, || show_failure("tenoc sweep", &f));
        } else if !timed.output.is_empty() && timed.output != text.as_bytes() {
            timed.fail(cells, cells, || "a repeat pass wrote different bytes".to_string());
        } else {
            let (bad, why) = bad_sweep_cells(&text, &grid);
            timed.fail(cells, bad, || why.unwrap_or_default());
        }
        if timed.output.is_empty() {
            timed.output = text.into_bytes();
        }
    }
    if timed.warm_ms.is_empty() {
        timed.warm_ms.push(timed.cold_s[0] * 1e3);
    }
    Ok(())
}

// ---- serve ---------------------------------------------------------------

/// The documented wire form of a sweep request for `grid` (one line).
pub fn sweep_request(tenant: &str, grid: &SweepGrid, spec: &GridSpec, seed: u64) -> String {
    let presets: Vec<String> = spec.presets.split(',').map(str::to_string).collect();
    Value::Object(vec![
        ("op".to_string(), "sweep".to_value()),
        ("tenant".to_string(), tenant.to_value()),
        ("presets".to_string(), presets.to_value()),
        ("benchmarks".to_string(), grid.benchmarks.to_value()),
        ("scale".to_string(), spec.scale.to_value()),
        ("seed".to_string(), seed.to_value()),
    ])
    .to_json_compact()
}

/// The service's correctness gate: the golden tiny grid over the socket
/// must come back as the golden file's bytes. One operation.
fn serve_gate(repo: &Repo, addr: SocketAddr, timed: &mut Passes) -> Result<(), String> {
    let golden = std::fs::read_to_string(repo.root.join(TINY_GOLDEN))
        .map_err(|e| format!("cannot read {TINY_GOLDEN}: {e}"))?;
    match submit(addr, "{\"op\":\"sweep\",\"tenant\":\"gate\",\"tiny\":true}") {
        Ok(r) => timed.fail(1, u64::from(r.records != golden), || {
            format!("the tiny grid over the socket differs from {TINY_GOLDEN}")
        }),
        Err(e) => timed.fail(1, 1, || format!("tiny submit: {e}")),
    }
    Ok(())
}

/// Why a resubmit's reply is wrong, if it is.
fn bad_resubmit(reply: &Result<Reply, String>, cells: u64, cold: &str) -> Option<String> {
    match reply {
        Err(e) => Some(e.clone()),
        Ok(r) if r.planned != cells || r.count != cells => {
            Some(format!("{} records for {} planned cells", r.count, r.planned))
        }
        Ok(r) if r.simulated > 0 => Some(format!("a resubmit simulated {} cells", r.simulated)),
        Ok(r) if r.records != cold => Some("a resubmit's bytes differ from the cold run's".into()),
        Ok(_) => None,
    }
}

fn serve_passes(
    repo: &Repo,
    w: &Workload,
    opts: &RunOpts,
    resubmits: usize,
    mut server: Server,
    cache: &Path,
    timed: &mut Passes,
) -> Result<(), String> {
    let started = Instant::now();
    let mut pass = 0u64;
    while timed.wants_pass(started, opts.seconds) {
        // A fresh seed per pass makes every cold phase cold on the one
        // server and cache directory.
        let seed = opts.seed.wrapping_add(pass);
        let grid = plan(&w.grid, seed);
        let cells = grid.len() as u64;
        let tenants = ["a", "b"].map(|t| sweep_request(t, &grid, &w.grid, seed));
        // Cold: both tenants submit the same grid at the same instant —
        // journal writes plus in-flight dedup.
        let addr = server.addr;
        let barrier = Barrier::new(tenants.len());
        let pass_start = Instant::now();
        let cold: Vec<(Result<Reply, String>, Duration)> = std::thread::scope(|s| {
            let handles: Vec<_> = tenants
                .iter()
                .map(|req| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let sent = pass_start.elapsed();
                        (submit(addr, req), sent)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a client does not panic")).collect()
        });
        let first_sent = cold.iter().map(|(_, sent)| *sent).min().unwrap_or_default();
        let cold_s = (pass_start.elapsed() - first_sent).as_secs_f64();
        let cold_bytes = match &cold[0].0 {
            Ok(r) => r.records.clone(),
            Err(_) => String::new(),
        };
        let (bad_cells, why) = bad_sweep_cells(&cold_bytes, &grid);
        for (reply, _) in &cold {
            let wrong = match reply {
                Err(e) => Some(e.clone()),
                Ok(r) if r.records != cold_bytes => Some("tenants got different bytes".into()),
                Ok(_) if bad_cells > 0 => why.clone(),
                Ok(_) => None,
            };
            timed.fail(1, u64::from(wrong.is_some()), || format!("cold submit: {wrong:?}"));
        }

        // Cached: one closed-loop client, each resubmit on a connection of
        // its own, which is what `tenoc submit` does. One client because
        // with the server's handler that is two runnable threads on the
        // box's two cores; more would measure how the scheduler pairs
        // them, not the program (README.md § Where this departs).
        let (mut failed, mut why) = (0, None);
        for _ in 0..resubmits {
            let reply = submit(addr, &tenants[0]);
            if let Ok(r) = &reply {
                timed.warm_ms.push(r.latency.as_secs_f64() * 1e3);
            }
            if let Some(e) = bad_resubmit(&reply, cells, &cold_bytes) {
                failed += 1;
                why.get_or_insert(e);
            }
        }
        timed.fail(resubmits as u64, failed, || format!("cached resubmit: {why:?}"));

        // Restart: SIGKILL, same cache directory, one resubmit.
        let restart_start = Instant::now();
        timed.peak_rss_kb = timed.peak_rss_kb.max(server.peak_rss_kb());
        server.kill();
        server = Server::spawn(repo, cache)?;
        let reply = submit(server.addr, &tenants[0]);
        let restart_s = restart_start.elapsed().as_secs_f64();
        let wrong = bad_resubmit(&reply, cells, &cold_bytes);
        timed.fail(1, u64::from(wrong.is_some()), || format!("resubmit after SIGKILL: {wrong:?}"));

        timed.cold_s.push(cold_s);
        // Not the cached phase: its sum is its few 40 ms delayed-ACK
        // stalls (README.md, `serve.keepalive_p50_ms`), whose number per
        // pass is chance, and `warm_ms` already reads its median.
        timed.wall_s.push(cold_s + restart_s);
        if timed.output.is_empty() {
            timed.output = cold_bytes.into_bytes();
        }
        pass += 1;
    }
    timed.peak_rss_kb = timed.peak_rss_kb.max(server.peak_rss_kb());
    if timed.warm_ms.is_empty() {
        // Every cached request failed; keep the metric a number.
        timed.warm_ms.push(timed.wall_s[0] * 1e3);
    }
    Ok(())
}

// ---- tune ----------------------------------------------------------------

fn tune_args(head: &[&str], jobs: usize, out: &Path) -> Vec<String> {
    let mut args = strings(head);
    args.extend(["--jobs".to_string(), jobs.to_string()]);
    args.extend(["--out".to_string(), out.display().to_string()]);
    args
}

/// The tuner's correctness gate: the `--tiny` search through the binary
/// must write the same report at one worker and at two (the repository's
/// determinism contract; there is no tiny frontier golden). One
/// operation.
fn tune_gate(repo: &Repo, dir: &Path, timed: &mut Passes) -> Result<(), String> {
    let mut reports = Vec::new();
    for jobs in [1, JOBS] {
        let out = dir.join(format!("tiny-j{jobs}.json"));
        let f = run(repo.tenoc(&tune_args(&["tune", "--tiny"], jobs, &out)))?;
        if !f.ok {
            timed.fail(1, 1, || show_failure("tenoc tune --tiny", &f));
            return Ok(());
        }
        reports.push(std::fs::read(&out).unwrap_or_default());
    }
    let same = !reports[0].is_empty() && reports[0] == reports[1];
    timed.fail(1, u64::from(!same), || "tune --tiny differs between --jobs 1 and 2".to_string());
    Ok(())
}

fn tune_passes(
    repo: &Repo,
    opts: &RunOpts,
    tiny: bool,
    dir: &Path,
    timed: &mut Passes,
) -> Result<(), String> {
    let started = Instant::now();
    let mut pass = 0;
    while timed.wants_pass(started, opts.seconds) {
        let cache = dir.join(format!("cache{pass}"));
        let mut reports = Vec::new();
        let mut pass_wall = 0.0;
        for (phase, name) in ["cold", "warm"].into_iter().enumerate() {
            let out = dir.join(format!("{name}{pass}.json"));
            let head: &[&str] = if tiny { &["tune", "--tiny"] } else { &["tune", "--k", "6"] };
            let mut args = tune_args(head, JOBS, &out);
            args.extend(["--seed".to_string(), opts.seed.to_string()]);
            args.extend(["--cache".to_string(), cache.display().to_string()]);
            // The frontier golden pins the default search only.
            if !tiny && opts.seed == DEFAULT_SEED {
                args.extend(strings(&["--golden", FRONTIER_GOLDEN, "--check"]));
            }
            let f = run(repo.tenoc(&args))?;
            let wall = f.wall.as_secs_f64();
            pass_wall += wall;
            timed.peak_rss_kb = timed.peak_rss_kb.max(f.peak_rss_kb);
            if phase == 0 {
                timed.cold_s.push(wall);
            } else {
                timed.warm_ms.push(wall * 1e3);
            }
            let report = std::fs::read(&out).unwrap_or_default();
            let wrong = if !f.ok {
                Some(show_failure(&format!("tenoc tune ({name})"), &f))
            } else if serde::json::parse(&String::from_utf8_lossy(&report)).is_err() {
                Some(format!("the {name} report is not JSON"))
            } else if phase == 1 && report != reports[0] {
                Some("the warm report's bytes differ from the cold one's".to_string())
            } else if phase == 1 && !all_from_cache(&f.stderr) {
                Some(format!("the warm run simulated cells: {}", f.stderr.trim_end()))
            } else {
                None
            };
            timed.fail(1, u64::from(wrong.is_some()), || wrong.unwrap_or_default());
            reports.push(report);
        }
        timed.wall_s.push(pass_wall);
        if timed.output.is_empty() {
            timed.output = reports.swap_remove(0);
        }
        pass += 1;
    }
    Ok(())
}

/// `true` when `tenoc tune`'s summary line says every closed-loop cell
/// came from the cache: `... N closed-loop cells (N from cache) ...`.
fn all_from_cache(stderr: &str) -> bool {
    let number_before = |marker: &str| {
        let head = &stderr[..stderr.find(marker)?];
        let digits = head.rsplit(|c: char| !c.is_ascii_digit()).next()?;
        digits.parse::<u64>().ok()
    };
    match (number_before(" closed-loop cells"), number_before(" from cache")) {
        (Some(cells), Some(hits)) => cells == hits,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tune_summary_line_is_read_for_cache_hits() {
        let warm = "tune: 480 enumerated, 240 legal, 35 probed, 16 halved; 33 closed-loop \
                    cells (33 from cache), 7 finalists, 2 on the frontier";
        assert!(all_from_cache(warm));
        assert!(!all_from_cache(&warm.replace("(33 from", "(0 from")));
        assert!(!all_from_cache("tune: wrote f.json"));
    }

    #[test]
    fn plan_matches_the_cli_grid() {
        let spec = GridSpec { presets: "thr-eff,baseline", benchmarks: "RD,KM", scale: 0.02 };
        let grid = plan(&spec, 7);
        assert_eq!(grid.len(), 4);
        assert_eq!(grid.cell(3).benchmark, "KM");
        assert_eq!(grid.cell(3).seed, tenoc_harness::cell_seed(7, 3));
        let all = GridSpec { presets: "perfect", benchmarks: "all", scale: 1.0 };
        assert_eq!(plan(&all, 1).len(), tenoc_workloads::suite().len());
    }

    #[test]
    fn sweep_output_is_checked_cell_by_cell() {
        let spec = GridSpec { presets: "baseline", benchmarks: "HIS,MM", scale: 0.02 };
        let grid = plan(&spec, 3);
        let good = to_jsonl(&tenoc_harness::engine::run_sweep(&grid, 1));
        assert_eq!(bad_sweep_cells(&good, &grid).0, 0);
        // A record for another seed is not the planned cell.
        assert_eq!(bad_sweep_cells(&good, &plan(&spec, 4)).0, 2);
        // A missing record.
        let first_line = format!("{}\n", good.lines().next().unwrap());
        assert_eq!(bad_sweep_cells(&first_line, &grid).0, 1);
        // A tampered value no longer matches its fingerprint.
        let tampered = good.replacen("\"core_cycles\":", "\"core_cycles\":1", 1);
        assert!(bad_sweep_cells(&tampered, &grid).0 >= 1);
        // Bytes the repository's writer would not have written.
        assert_eq!(bad_sweep_cells(&good.replace("\":", "\": "), &grid).0, 2);
    }
}
