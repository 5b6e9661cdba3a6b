//! Property tests of the canonical content address: hashes must be
//! *insensitive* to representation (field order, serialization round
//! trips) and *sensitive* to meaning (any single identity field).

use proptest::prelude::*;
use serde::json::Value;
use tenoc_core::Preset;
use tenoc_harness::{cell_key, cell_value, hash_value, SeedMode, SweepCell, SweepGrid};

const PRESETS: [Preset; 8] = [
    Preset::BaselineTbDor,
    Preset::TbDor2xBw,
    Preset::CpDor2vc,
    Preset::CpCr4vc,
    Preset::DoubleCpCr,
    Preset::DoubleCpCr2InjPorts,
    Preset::ThroughputEffective,
    Preset::Perfect,
];

const BENCHMARKS: [&str; 4] = ["HIS", "MM", "RD", "TRA"];

fn arb_cell() -> impl Strategy<Value = SweepCell> {
    (
        prop::sample::select(PRESETS.to_vec()),
        prop::sample::select(BENCHMARKS.to_vec()),
        1u64..=100,
        1u64..100_000,
        prop::sample::select(vec![4usize, 6, 8]),
    )
        .prop_map(|(preset, bench, scale_pct, seed, mesh_k)| {
            let mut grid =
                SweepGrid::new(vec![preset], vec![bench.to_string()], scale_pct as f64 / 100.0)
                    .with_seed_mode(SeedMode::Derived(seed));
            grid.mesh_k = mesh_k;
            grid.cell(0)
        })
}

/// Deterministically shuffles every object's field order at every depth
/// (Fisher–Yates driven by a SplitMix64 stream).
fn shuffle_fields(v: &Value, state: &mut u64) -> Value {
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    match v {
        Value::Array(items) => {
            Value::Array(items.iter().map(|x| shuffle_fields(x, state)).collect())
        }
        Value::Object(pairs) => {
            let mut shuffled: Vec<(String, Value)> =
                pairs.iter().map(|(k, val)| (k.clone(), shuffle_fields(val, state))).collect();
            for i in (1..shuffled.len()).rev() {
                let j = (next(state) % (i as u64 + 1)) as usize;
                shuffled.swap(i, j);
            }
            Value::Object(shuffled)
        }
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reordering JSON object fields — at any depth — never changes the
    /// hash: the address depends on what a config *is*, not on how its
    /// serialization happened to be laid out.
    #[test]
    fn hash_ignores_field_order(cell in arb_cell(), shuffle_seed in 0u64..u64::MAX) {
        let v = cell_value(&cell);
        let mut state = shuffle_seed;
        let shuffled = shuffle_fields(&v, &mut state);
        prop_assert_eq!(hash_value(&v), hash_value(&shuffled));
    }

    /// Serializing to JSON text and parsing back never changes the hash:
    /// a client-marshalled config addresses the same cache entry as the
    /// server-built one.
    #[test]
    fn hash_survives_json_round_trip(cell in arb_cell()) {
        let v = cell_value(&cell);
        let text = v.to_json_compact();
        let reparsed = serde::json::parse(&text).unwrap();
        prop_assert_eq!(hash_value(&v), hash_value(&reparsed));
        // And the pretty form parses to the same address too.
        let repretty = serde::json::parse(&v.to_json_pretty()).unwrap();
        prop_assert_eq!(hash_value(&v), hash_value(&repretty));
    }

    /// Perturbing any single identity field changes the hash: no stale
    /// result can be served for a config that differs in benchmark,
    /// scale, seed or mesh radix.
    #[test]
    fn single_field_perturbations_change_the_hash(
        cell in arb_cell(),
        which in 0usize..4,
    ) {
        let base = cell_key(&cell);
        let mut other = cell.clone();
        match which {
            0 => {
                let next = BENCHMARKS
                    .iter()
                    .find(|b| **b != cell.benchmark)
                    .expect("more than one benchmark");
                other.benchmark = (*next).to_string();
            }
            1 => other.scale += 0.001,
            2 => other.seed ^= 1,
            _ => other.mesh_k = if cell.mesh_k == 6 { 8 } else { 6 },
        }
        prop_assert_ne!(base, cell_key(&other), "perturbation {} collided", which);
    }

    /// Changing the preset to one with a different fabric changes the
    /// hash (aliased presets are the deliberate exception, pinned by the
    /// unit tests in `canon`).
    #[test]
    fn distinct_fabrics_get_distinct_keys(cell in arb_cell()) {
        let alias_of = |p: Preset| match p {
            // Thr-Eff *is* Double-CP-CR-2P(inj); both map to one fabric.
            Preset::ThroughputEffective => Preset::DoubleCpCr2InjPorts,
            other => other,
        };
        let base = cell_key(&cell);
        for preset in PRESETS {
            if alias_of(preset) == alias_of(cell.preset) {
                continue;
            }
            let mut other = cell.clone();
            other.preset = preset;
            prop_assert_ne!(
                &base,
                &cell_key(&other),
                "{:?} vs {:?} collided",
                cell.preset,
                preset
            );
        }
    }
}
