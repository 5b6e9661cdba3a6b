//! Tier-1 golden-snapshot regression test: the tiny sweep's measured
//! numbers must match the fingerprints checked into `tests/golden/`, and
//! must not depend on the worker count.
//!
//! When a simulator change intentionally moves the numbers, refresh the
//! snapshot with
//! `cargo run --release --bin tenoc -- sweep --tiny --golden tests/golden/tiny.jsonl --bless`
//! and review the diff like any other code change.

use tenoc::harness::{check_fingerprints, engine, from_jsonl, tiny_grid, to_jsonl};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tiny.jsonl")
}

#[test]
fn tiny_sweep_matches_checked_in_fingerprints() {
    let golden_text = std::fs::read_to_string(golden_path()).expect("golden snapshot present");
    let golden = from_jsonl(&golden_text).expect("golden snapshot parses");
    assert_eq!(golden.len(), tiny_grid().len(), "snapshot covers the whole grid");
    for g in &golden {
        assert!(g.fingerprint_valid(), "checked-in record {} is self-consistent", g.key());
    }
    let records = engine::run_sweep(&tiny_grid(), tenoc::harness::jobs_from_env().unwrap());
    if let Err(problems) = check_fingerprints(&records, &golden) {
        panic!(
            "golden sweep drifted ({} problems):\n  {}\nif intended, re-bless with \
             `cargo run --release --bin tenoc -- sweep --tiny --golden tests/golden/tiny.jsonl --bless`",
            problems.len(),
            problems.join("\n  ")
        );
    }
}

#[test]
fn tiny_sweep_is_jobs_invariant() {
    // The determinism contract at the byte level: the serialized sweep is
    // identical no matter how many workers ran it.
    let grid = tiny_grid();
    let seq = engine::run_sweep(&grid, 1);
    let par = engine::run_sweep(&grid, 4);
    assert_eq!(to_jsonl(&seq), to_jsonl(&par), "jobs=4 must reproduce jobs=1 byte-for-byte");
}

#[test]
fn golden_file_round_trips_byte_for_byte_through_the_derived_codec() {
    // A record is exactly its JSON: parsing the snapshot and writing it
    // back must reproduce the file, and every fingerprint must recompute
    // from the parsed fields alone.
    let text = std::fs::read_to_string(golden_path()).expect("golden snapshot present");
    let records = from_jsonl(&text).expect("golden snapshot parses");
    assert_eq!(to_jsonl(&records), text);
    for r in &records {
        assert_eq!(r.compute_fingerprint(), r.fingerprint, "{}", r.key());
    }
}
