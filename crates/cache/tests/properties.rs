//! Property-based tests for caches and MSHRs.

use proptest::prelude::*;
use std::collections::HashSet;
use tenoc_cache::{Access, Cache, CacheConfig, LookupResult, MshrOutcome, MshrTable};

fn tiny_cache() -> Cache {
    Cache::new(CacheConfig { size_bytes: 1024, line_bytes: 64, assoc: 2 })
}

proptest! {
    /// The cache never holds more lines than its capacity, regardless of
    /// the access/fill sequence.
    #[test]
    fn capacity_never_exceeded(ops in prop::collection::vec((0u64..4096, any::<bool>()), 1..300)) {
        let mut c = tiny_cache();
        for (addr, write) in ops {
            let a = addr * 16; // denser than lines to exercise aliasing
            let acc = if write { Access::Write } else { Access::Read };
            if c.access(a, acc) == LookupResult::Miss {
                c.fill(a);
            }
            prop_assert!(c.valid_lines() <= 16, "1 KiB / 64 B = 16 lines");
        }
    }

    /// After a fill, the line is present until evicted by a conflicting
    /// fill; a hit never reports for an address that was never filled.
    #[test]
    fn hits_only_after_fills(ops in prop::collection::vec(0u64..64, 1..200)) {
        let mut c = tiny_cache();
        let mut filled: HashSet<u64> = HashSet::new();
        for addr in ops {
            let a = addr * 64;
            match c.access(a, Access::Read) {
                LookupResult::Hit => {
                    prop_assert!(filled.contains(&a), "hit for never-filled {a:#x}");
                }
                LookupResult::Miss => {
                    if let Some(ev) = c.fill(a) {
                        filled.remove(&ev.line_addr);
                    }
                    filled.insert(a);
                }
            }
        }
    }

    /// Evicted dirty lines are exactly those written since their fill.
    #[test]
    fn dirty_evictions_track_writes(ops in prop::collection::vec((0u64..48, any::<bool>()), 1..200)) {
        let mut c = tiny_cache();
        let mut dirty: HashSet<u64> = HashSet::new();
        for (addr, write) in ops {
            let a = addr * 64;
            let acc = if write { Access::Write } else { Access::Read };
            match c.access(a, acc) {
                LookupResult::Hit => {
                    if write {
                        dirty.insert(a);
                    }
                }
                LookupResult::Miss => {
                    if let Some(ev) = c.fill(a) {
                        prop_assert_eq!(
                            ev.dirty,
                            dirty.remove(&ev.line_addr),
                            "dirty flag mismatch for {:#x}", ev.line_addr
                        );
                    }
                    if write {
                        c.mark_dirty(a);
                        dirty.insert(a);
                    }
                }
            }
        }
    }

    /// MSHR bookkeeping: every allocation is eventually released with the
    /// right number of merged targets.
    #[test]
    fn mshr_targets_roundtrip(lines in prop::collection::vec(0u64..8, 1..100)) {
        let mut m = MshrTable::new(64, 64);
        let mut expect: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        for (i, line) in lines.iter().enumerate() {
            let a = line * 64;
            match m.allocate(a, i as u64) {
                MshrOutcome::Allocated | MshrOutcome::Merged => {
                    expect.entry(a).or_default().push(i as u64);
                }
                MshrOutcome::Full => {}
            }
        }
        for (a, targets) in expect {
            prop_assert_eq!(m.complete(a), targets);
        }
        prop_assert!(m.is_empty());
    }
}
