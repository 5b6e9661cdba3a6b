//! The service's reason to exist, pinned as a differential test: for the
//! same grid, the service stream reassembles to **byte-identical** JSONL
//! as batch `tenoc sweep` — and resubmitting the grid serves every cell
//! from the persistent cache without simulating anything.

use std::path::PathBuf;
use tenoc_harness::{run_sweep, tiny_grid, to_jsonl};
use tenoc_serve::{client, server, SweepRequest};

fn tmp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tenoc-serve-diff-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn local_server(cache: &PathBuf) -> server::ServerHandle {
    let mut cfg = server::ServerConfig::new("127.0.0.1:0", cache);
    cfg.workers = 2;
    server::start(cfg).expect("server starts")
}

#[test]
fn service_stream_is_byte_identical_to_batch_sweep() {
    let grid = tiny_grid();
    let reference = to_jsonl(&run_sweep(&grid, tenoc_harness::jobs_from_env().unwrap()));

    let cache = tmp_cache("bytes");
    let handle = local_server(&cache);
    let outcome =
        client::submit(handle.addr(), &SweepRequest::tiny("diff")).expect("submission succeeds");

    assert!(!outcome.aborted);
    assert_eq!(outcome.planned as usize, grid.len());
    assert_eq!(outcome.lines.len(), grid.len());
    assert_eq!(outcome.simulated as usize, grid.len(), "cold cache simulates everything");
    assert_eq!(outcome.cache_hits, 0);
    assert_eq!(outcome.jsonl(), reference, "service must reproduce `tenoc sweep` byte-for-byte");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn service_stream_matches_the_checked_in_golden_snapshot() {
    // CARGO_MANIFEST_DIR is crates/serve; the golden file lives at the
    // workspace root.
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/tiny.jsonl");
    let golden = std::fs::read_to_string(&golden_path).expect("golden snapshot present");

    let cache = tmp_cache("golden");
    let handle = local_server(&cache);
    let outcome =
        client::submit(handle.addr(), &SweepRequest::tiny("golden")).expect("submission succeeds");
    assert_eq!(
        outcome.jsonl(),
        golden,
        "service drifted from the golden snapshot; see tests/harness_golden.rs for re-blessing"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn resubmission_is_all_cache_hits_and_zero_simulation() {
    let cache = tmp_cache("resubmit");
    let handle = local_server(&cache);

    let first =
        client::submit(handle.addr(), &SweepRequest::tiny("warm")).expect("first submission");
    let second =
        client::submit(handle.addr(), &SweepRequest::tiny("warm")).expect("second submission");

    assert_eq!(second.simulated, 0, "warm cache must not simulate");
    assert_eq!(second.cache_hits, first.planned, "every cell is a cache hit");
    assert_eq!(second.dedup_hits, 0);
    assert_eq!(second.jsonl(), first.jsonl(), "cached replay is byte-identical");

    // The stats endpoint agrees: 9 distinct cells simulated once, ever.
    let stats = client::fetch_stats(handle.addr()).expect("stats");
    let count = |name: &str| stats.field(name).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(count("simulated"), first.planned);
    assert_eq!(count("cache_hits"), first.planned);
    assert_eq!(count("cache_entries"), first.planned);
    assert_eq!(count("queued"), 0);
    assert_eq!(count("inflight"), 0);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn aliased_presets_share_cache_entries_across_requests() {
    let cache = tmp_cache("alias");
    let handle = local_server(&cache);

    let te = SweepRequest {
        tenant: "alias".into(),
        presets: vec!["thr-eff".into()],
        benchmarks: vec!["HIS".into()],
        ..SweepRequest::default()
    };
    let first = client::submit(handle.addr(), &te).expect("thr-eff submission");
    assert_eq!(first.simulated, 1);

    // The same fabric under its compositional name: pure cache hit.
    let mut alias = te.clone();
    alias.presets = vec!["2p-inj".into()];
    let hit = client::submit(handle.addr(), &alias).expect("alias submission");
    assert_eq!(hit.simulated, 0, "aliased preset must hit the shared cache entry");
    assert_eq!(hit.cache_hits, 1);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}
