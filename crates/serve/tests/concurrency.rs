//! In-flight dedup under concurrency: N clients racing the same grid
//! must trigger exactly one simulation per distinct cell, and every
//! client must still receive the complete, byte-correct stream.
//!
//! The server starts with its worker pool **paused** so all four
//! requests are planned against an empty cache before any cell runs —
//! the maximally contended case, deterministic on any machine.

use std::time::Duration;
use tenoc_harness::{run_sweep, tiny_grid, to_jsonl};
use tenoc_serve::{client, server, SweepRequest};

fn tmp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tenoc-serve-conc-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    for _ in 0..2000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn racing_clients_simulate_each_cell_exactly_once() {
    const CLIENTS: u64 = 4;
    let grid = tiny_grid();
    let distinct = grid.len() as u64;
    let reference = to_jsonl(&run_sweep(&grid, tenoc_harness::jobs_from_env().unwrap()));

    let cache = tmp_cache("race");
    let mut cfg = server::ServerConfig::new("127.0.0.1:0", &cache);
    cfg.workers = 2;
    cfg.start_paused = true;
    let handle = server::start(cfg).expect("server starts");
    let addr = handle.addr();

    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                client::submit(addr, &SweepRequest::tiny(&format!("client-{i}")))
                    .expect("submission succeeds")
            })
        })
        .collect();

    // All four requests planned, workers still paused: exactly one
    // in-flight entry per distinct cell, the rest registered as waiters.
    wait_for(|| handle.stats().requests == CLIENTS, "all requests planned");
    let staged = handle.stats();
    assert_eq!(staged.queued, distinct, "one scheduled job per distinct cell");
    assert_eq!(staged.inflight, distinct);
    assert_eq!(staged.dedup_hits, (CLIENTS - 1) * distinct, "every duplicate deduplicates");
    assert_eq!(staged.simulated, 0, "nothing ran while paused");

    handle.resume();
    let outcomes: Vec<_> = threads.into_iter().map(|t| t.join().expect("client thread")).collect();

    // Exactly one client paid for each cell; everyone got the same bytes.
    let simulated: u64 = outcomes.iter().map(|o| o.simulated).sum();
    let deduped: u64 = outcomes.iter().map(|o| o.dedup_hits).sum();
    assert_eq!(simulated, distinct, "each distinct cell simulated exactly once");
    assert_eq!(deduped, (CLIENTS - 1) * distinct);
    for (i, o) in outcomes.iter().enumerate() {
        assert!(!o.aborted, "client {i} aborted");
        assert_eq!(o.lines.len(), grid.len(), "client {i} stream incomplete");
        assert_eq!(o.jsonl(), reference, "client {i} stream diverged from batch sweep");
    }

    let stats = handle.stats();
    assert_eq!(stats.simulated, distinct);
    assert_eq!(stats.cache_entries, distinct);
    assert_eq!(stats.inflight, 0, "in-flight table drains");
    assert_eq!(stats.queued, 0);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}
