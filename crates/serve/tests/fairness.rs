//! Tenant fairness: a small grid submitted while a large grid is queued
//! must finish near the head of the line, not behind the large grid's
//! tail. The assertion counts *services*, never wall-clock time, so the
//! test is deterministic on any machine.
//!
//! Setup forces the worst case for FIFO: one worker, pool paused until both tenants are fully queued (large tenant first).
//! Deadline-RR then interleaves them one cell at a time, so the small
//! tenant's done event must arrive after at most `2 x small + slack`
//! services — observed here as "few large-tenant records had been
//! delivered when the small tenant finished".

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tenoc_serve::{classify_line, client, server, SweepRequest};

fn tmp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tenoc-serve-fair-{tag}-{}-{:?}",
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
fn small_tenant_is_not_starved_by_a_large_grid() {
    let large = SweepRequest {
        tenant: "large".into(),
        presets: vec!["baseline".into(), "cp-cr".into()],
        benchmarks: vec!["HIS".into(), "MM".into(), "RD".into(), "TRA".into()],
        seed: 1001, // Distinct seeds: no cross-tenant dedup muddies the count.
        ..SweepRequest::default()
    };
    let small = SweepRequest {
        tenant: "small".into(),
        presets: vec!["thr-eff".into()],
        benchmarks: vec!["HIS".into(), "RD".into()],
        seed: 2002,
        ..SweepRequest::default()
    };
    let large_cells = 8u64;
    let small_cells = 2u64;

    let cache = tmp_cache("starve");
    let mut cfg = server::ServerConfig::new("127.0.0.1:0", &cache);
    cfg.workers = 1;
    cfg.start_paused = true;
    let handle = server::start(cfg).expect("server starts");
    let addr = handle.addr();

    // The large tenant submits first and counts each record as it lands.
    let large_received = Arc::new(AtomicUsize::new(0));
    let large_thread = {
        let counter = Arc::clone(&large_received);
        let req = large.clone();
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(req.to_line().as_bytes()).expect("send");
            stream.write_all(b"\n").expect("send");
            let reader = BufReader::new(stream);
            let mut records = 0usize;
            for line in reader.lines() {
                let line = line.expect("read");
                let (event, _) = classify_line(&line).expect("parseable");
                match event.as_deref() {
                    None => {
                        records += 1;
                        counter.store(records, Ordering::SeqCst);
                    }
                    Some("done") => return records,
                    Some("aborted") => panic!("large stream aborted"),
                    _ => {}
                }
            }
            panic!("large stream ended early");
        })
    };
    wait_for(|| handle.stats().queued == large_cells, "large grid queued");

    // The small tenant arrives second, behind 8 queued cells.
    let small_thread = std::thread::spawn(move || client::submit(addr, &small).expect("small"));
    wait_for(|| handle.stats().queued == large_cells + small_cells, "small grid queued");

    handle.resume();
    let small_outcome = small_thread.join().expect("small thread");
    let large_at_small_done = large_received.load(Ordering::SeqCst);
    let large_total = large_thread.join().expect("large thread");

    assert_eq!(small_outcome.lines.len() as u64, small_cells, "small stream complete");
    assert_eq!(small_outcome.simulated, small_cells);
    assert_eq!(large_total as u64, large_cells, "large stream complete");

    // Deadline-RR guarantee: the small tenant interleaves one-for-one, so
    // at most `small_cells` large cells (plus scheduling slack for the
    // tie-break round and TCP skew) precede its completion. FIFO would
    // make this 8.
    let slack = 2;
    assert!(
        (large_at_small_done as u64) <= small_cells + slack,
        "small tenant starved: {large_at_small_done} of {large_cells} large cells \
         were delivered before the small grid finished"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}
