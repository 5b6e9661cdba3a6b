//! Property-based tests for the cache journal lifecycle.
//!
//! A sweep service may be killed at any byte of an append — the journal
//! is the only durable state, so the replay path has to make three
//! promises regardless of where the crash lands:
//!
//! 1. a cell whose journal line was fully written is never lost,
//! 2. replay never panics on a mangled tail, and
//! 3. `skipped_lines` counts exactly the corrupted records.
//!
//! A fourth property covers the store's other value kind: an open-loop
//! probe result, whose floats can be non-finite, must come back from a
//! reopened journal bit for bit.
//!
//! The model below mirrors the journal as an ordered list of
//! `(key, line length)` entries, simulates crashes by truncating the
//! real file at an arbitrary byte, and checks the replayed cache against
//! the lines that survive the cut.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tenoc_core::RunMetrics;
use tenoc_harness::{CachedCell, DiskCache};
use tenoc_noc::openloop::OpenLoopResult;
use tenoc_simt::TrafficClass;

fn metrics_for(tag: u64) -> RunMetrics {
    RunMetrics {
        completed: true,
        core_cycles: 1000 + tag,
        icnt_cycles: 400 + tag,
        scalar_insts: 7 * tag + 13,
        ipc: 1.0 + (tag as f64) / 17.0,
        avg_net_latency: 20.5,
        mc_injection_rate: 0.25,
        core_injection_rate: 0.05,
        mc_stall_fraction: 0.4,
        dram_efficiency: 0.5,
        l2_read_hit_rate: 0.3,
        accepted_flits_per_node: 0.125,
        core_replays: tag % 5,
        flit_hops: 4096 + tag,
    }
}

fn fresh_dir() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tenoc-journal-prop-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One journaled line in the model: its key and its on-disk byte length
/// (including the trailing newline).
struct ModelLine {
    key: String,
    len: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random put / crash(truncate at an arbitrary byte) / reopen
    /// sequences never lose a fully-journaled cell, never panic, and
    /// count exactly the corrupted records in `skipped_lines`.
    #[test]
    fn journal_replay_survives_arbitrary_crashes(
        ops in prop::collection::vec((0u8..3, any::<u64>()), 1..24)
    ) {
        let dir = fresh_dir();
        let journal = DiskCache::journal_path(&dir);
        let mut cache = DiskCache::open(&dir).unwrap();
        // The model: journal lines in append order. Keys are unique here
        // because `put` dedups against the in-memory map, which always
        // holds exactly the modeled lines' keys.
        let mut lines: Vec<ModelLine> = Vec::new();

        for (code, param) in ops {
            match code {
                // Put a (possibly already-cached) cell.
                0 => {
                    let key = format!("k{:02}", param % 24);
                    let before = std::fs::metadata(&journal).unwrap().len() as usize;
                    let cell = CachedCell {
                        class: TrafficClass::HH,
                        metrics: metrics_for(param % 97),
                    };
                    cache.put(&key, cell).unwrap();
                    let after = std::fs::metadata(&journal).unwrap().len() as usize;
                    let already_cached = lines.iter().any(|l| l.key == key);
                    prop_assert_eq!(
                        after == before,
                        already_cached,
                        "journal grows exactly on first-time puts"
                    );
                    if after > before {
                        lines.push(ModelLine { key, len: after - before });
                    }
                }
                // Crash: drop the handle and truncate at an arbitrary byte.
                1 => {
                    drop(cache);
                    let total = std::fs::metadata(&journal).unwrap().len() as usize;
                    let cut = (param % (total as u64 + 1)) as usize;
                    let f = std::fs::OpenOptions::new().write(true).open(&journal).unwrap();
                    f.set_len(cut as u64).unwrap();
                    drop(f);
                    // Model the cut: complete lines inside the prefix
                    // survive; a partial tail is one corrupted record.
                    let mut survivors = Vec::new();
                    let mut offset = 0usize;
                    let mut partial = false;
                    for line in lines {
                        if offset + line.len <= cut {
                            offset += line.len;
                            survivors.push(line);
                        } else {
                            partial = offset < cut;
                            break;
                        }
                    }
                    lines = survivors;
                    cache = DiskCache::open(&dir).unwrap();
                    prop_assert_eq!(
                        cache.skipped_lines,
                        usize::from(partial),
                        "skipped_lines counts exactly the corrupted records"
                    );
                    prop_assert_eq!(cache.len(), lines.len());
                    for l in &lines {
                        prop_assert!(
                            cache.get(&l.key).is_some(),
                            "fully-journaled cell {} lost after crash at byte {cut}",
                            l.key
                        );
                    }
                    // `open` trims the partial tail, so the file is now
                    // exactly the surviving lines.
                    let total: usize = lines.iter().map(|l| l.len).sum();
                    prop_assert_eq!(std::fs::metadata(&journal).unwrap().len() as usize, total);
                }
                // Clean reopen: nothing is lost, nothing is skipped.
                _ => {
                    drop(cache);
                    cache = DiskCache::open(&dir).unwrap();
                    prop_assert_eq!(cache.skipped_lines, 0);
                    prop_assert_eq!(cache.len(), lines.len());
                    for l in &lines {
                        prop_assert!(cache.get(&l.key).is_some());
                    }
                }
            }
        }
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A probe result survives put → reopen → get with every field's bit
    /// pattern intact, whatever the pattern: infinities, NaNs with
    /// payloads, subnormals and negative zero included (a bare JSON
    /// number would turn the non-finite ones into `null`).
    #[test]
    fn probe_results_round_trip_bit_exactly(
        raw in prop::collection::vec((0u8..10, any::<u64>()), 8..9)
    ) {
        const MANTISSA: u64 = (1 << 52) - 1;
        let bits: Vec<u64> = raw
            .iter()
            .map(|&(kind, x)| match kind {
                0 => f64::INFINITY.to_bits(),
                1 => f64::NEG_INFINITY.to_bits(),
                2 => f64::NAN.to_bits() | (x & MANTISSA), // NaN, arbitrary payload
                3 => (x & MANTISSA) | (x & (1 << 63)),    // signed zero or subnormal
                4 => (-0.0f64).to_bits(),
                _ => x,
            })
            .collect();
        let f = |i: usize| f64::from_bits(bits[i]);
        let probe = OpenLoopResult {
            offered: f(0),
            accepted: f(1),
            ejection_rate: f(2),
            ejection_bytes_rate: f(3),
            avg_latency: f(4),
            avg_request_latency: f(5),
            avg_reply_latency: f(6),
            delivered_fraction: f(7),
        };
        let dir = fresh_dir();
        DiskCache::open(&dir).unwrap().store("probe", Some(probe)).unwrap();
        let cache = DiskCache::open(&dir).unwrap();
        prop_assert_eq!((cache.skipped_lines, cache.stale_lines), (0, 0));
        let back: &Option<OpenLoopResult> = cache.lookup("probe").expect("journaled probe replays");
        let back = back.as_ref().expect("a measured probe replays measured");
        let got = [
            back.offered,
            back.accepted,
            back.ejection_rate,
            back.ejection_bytes_rate,
            back.avg_latency,
            back.avg_request_latency,
            back.avg_reply_latency,
            back.delivered_fraction,
        ]
        .map(f64::to_bits);
        prop_assert_eq!(got.to_vec(), bits);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
