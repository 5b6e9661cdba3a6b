//! Crash-resume: kill the server after K cells are journaled, restart it
//! on the same cache directory, and the sweep completes without
//! re-simulating anything the journal already holds.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use tenoc_harness::{run_sweep, tiny_grid, to_jsonl};
use tenoc_serve::{classify_line, client, server, DiskCache, SweepRequest};

fn tmp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tenoc-serve-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_server_resumes_without_resimulating_journaled_cells() {
    const K: usize = 3;
    let grid = tiny_grid();
    let total = grid.len();
    let reference = to_jsonl(&run_sweep(&grid, tenoc_harness::jobs_from_env().unwrap()));
    let cache = tmp_cache("resume");

    // First life: single worker, paused so the whole grid is queued before anything runs.
    let mut cfg = server::ServerConfig::new("127.0.0.1:0", &cache);
    cfg.workers = 1;
    cfg.start_paused = true;
    let handle = server::start(cfg.clone()).expect("server starts");

    // Raw socket: we want to observe the stream mid-flight, not drain it.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(SweepRequest::tiny("victim").to_line().as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("planned event");
    let (event, v) = classify_line(line.trim_end()).expect("parseable");
    assert_eq!(event.as_deref(), Some("planned"));
    assert_eq!(v.field("cells").unwrap().as_u64().unwrap() as usize, total);

    // Let exactly-one-at-a-time simulation proceed until K records have
    // reached us, then kill the server.
    handle.resume();
    for i in 0..K {
        line.clear();
        reader.read_line(&mut line).unwrap_or_else(|e| panic!("record {i}: {e}"));
        let (event, _) = classify_line(line.trim_end()).expect("parseable");
        assert!(event.is_none(), "expected a record line, got event {event:?}");
    }
    handle.shutdown();

    // The durability contract: everything we saw was journaled first.
    let journal = std::fs::read_to_string(DiskCache::journal_path(&cache)).expect("journal exists");
    let journaled = journal.lines().filter(|l| !l.trim().is_empty()).count();
    assert!(journaled >= K, "saw {K} records but only {journaled} journal lines");
    assert!(journaled < total, "server died with work left undone");

    // Second life: same cache directory, workers running.
    let mut cfg2 = server::ServerConfig::new("127.0.0.1:0", &cache);
    cfg2.workers = 1;
    cfg2.start_paused = false;
    let revived = server::start(cfg2).expect("server restarts");
    let outcome =
        client::submit(revived.addr(), &SweepRequest::tiny("survivor")).expect("resubmission");

    assert!(!outcome.aborted);
    assert_eq!(outcome.lines.len(), total, "resumed sweep completes the grid");
    assert_eq!(
        outcome.cache_hits as usize, journaled,
        "every journaled cell is served from cache, none re-simulated"
    );
    assert_eq!(outcome.simulated as usize, total - journaled, "only the remainder simulates");
    assert_eq!(outcome.jsonl(), reference, "resumed stream is byte-identical to batch sweep");

    revived.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}
