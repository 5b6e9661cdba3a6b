//! Canonical content addressing for sweep cells.
//!
//! A cell is a pure function of `(config, benchmark, scale, seed)`, so a
//! stable hash of those inputs is a universal result address: any cell
//! ever simulated — by any tenant, in any sweep, on any server — can be
//! recognized and served from cache. Stability requires the hash to be
//! independent of JSON field *order* (two serializations of the same
//! configuration must collide) while remaining sensitive to every field
//! *value*; [`canonicalize`] provides the former by sorting object keys
//! recursively, and hashing the full serialized tree provides the latter.
//!
//! The hash is computed over the **resolved** interconnect configuration
//! (the concrete `NetworkConfig`, not the preset name), so two presets
//! that denote the same fabric — e.g. `thr-eff` and the
//! `Double-CP-CR-2P(inj)` point it aliases — share cache entries.

use serde::json::Value;
use serde::Serialize;
use tenoc_harness::{ConfigCell, SweepCell};

/// Recursively sorts every object's keys, making the tree independent of
/// the field order it was built or parsed with. Arrays keep their order
/// (JSON arrays are sequences; reordering them changes meaning).
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.iter().map(canonicalize).collect()),
        Value::Object(pairs) => {
            let mut sorted: Vec<(String, Value)> =
                pairs.iter().map(|(k, val)| (k.clone(), canonicalize(val))).collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(sorted)
        }
        other => other.clone(),
    }
}

/// The canonical compact-JSON form of a value: object keys sorted at
/// every depth, rendered with the same float/integer formatting the rest
/// of the workspace uses (shortest round-trip).
pub fn canonical_json(v: &Value) -> String {
    canonicalize(v).to_json_compact()
}

/// FNV-1a 64-bit over a byte string (the workspace's standard stable
/// hash, same constants as `RunRecord` fingerprints).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Lower-case-hex FNV-1a of a value's canonical JSON.
pub fn hash_value(v: &Value) -> String {
    format!("{:016x}", fnv1a64(canonical_json(v).as_bytes()))
}

/// The canonical identity of a cell as a value tree: the resolved
/// interconnect configuration plus workload name, kernel scale and seed.
///
/// Deliberately excluded:
/// - the preset *name* and the cell's grid *index* — presentation, not
///   physics; two grids can address the same cell, and a tuner candidate
///   whose resolved interconnect equals a preset's shares its entries;
/// - the execution engine and worker placement — proven
///   result-identical by the arena-equivalence tests;
/// - the safety cycle limit — can abort a run, never change its value.
///
/// The remaining `SystemConfig` parameters (core, MC, clocks, interleave
/// chunk, concentration) are fixed Table II constants under
/// [`ConfigCell::system_config`]; `chunk` and `cores_per_node` are
/// included as cheap insurance because they are plain scalars.
pub fn config_cell_value(cell: &ConfigCell) -> Value {
    let cfg = cell.system_config();
    Value::Object(vec![
        ("benchmark".to_string(), cell.benchmark.to_value()),
        ("icnt".to_string(), cfg.icnt.to_value()),
        ("scale".to_string(), cell.scale.to_value()),
        ("seed".to_string(), cell.seed.to_value()),
        ("chunk".to_string(), cfg.chunk.to_value()),
        ("cores_per_node".to_string(), cfg.cores_per_node.to_value()),
    ])
}

/// The content address of a cell: 16 lower-case hex digits.
pub fn config_cell_key(cell: &ConfigCell) -> String {
    hash_value(&config_cell_value(cell))
}

/// [`config_cell_value`] of a preset cell's resolved configuration.
pub fn cell_value(cell: &SweepCell) -> Value {
    config_cell_value(&cell.config())
}

/// [`config_cell_key`] of a preset cell's resolved configuration.
pub fn cell_key(cell: &SweepCell) -> String {
    config_cell_key(&cell.config())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenoc_core::Preset;
    use tenoc_harness::SweepGrid;

    fn cell(preset: Preset, bench: &str, scale: f64) -> SweepCell {
        SweepGrid::new(vec![preset], vec![bench.into()], scale).cell(0)
    }

    #[test]
    fn key_is_stable_across_calls() {
        let c = cell(Preset::BaselineTbDor, "HIS", 0.02);
        assert_eq!(cell_key(&c), cell_key(&c));
        assert_eq!(cell_key(&c).len(), 16);
    }

    #[test]
    fn key_ignores_field_order() {
        let v = cell_value(&cell(Preset::BaselineTbDor, "HIS", 0.02));
        let Value::Object(mut pairs) = v.clone() else { panic!("cell value is an object") };
        pairs.reverse();
        assert_eq!(hash_value(&v), hash_value(&Value::Object(pairs)));
    }

    #[test]
    fn key_survives_a_json_round_trip() {
        let v = cell_value(&cell(Preset::ThroughputEffective, "RD", 0.02));
        let reparsed = serde::json::parse(&v.to_json_compact()).unwrap();
        assert_eq!(hash_value(&v), hash_value(&reparsed));
    }

    #[test]
    fn aliased_presets_share_a_key() {
        // Thr-Eff is defined as Double-CP-CR-2P(inj): same fabric, same
        // physics, same content address.
        let a = cell_key(&cell(Preset::ThroughputEffective, "HIS", 0.02));
        let b = cell_key(&cell(Preset::DoubleCpCr2InjPorts, "HIS", 0.02));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_inputs_get_distinct_keys() {
        let base = cell(Preset::BaselineTbDor, "HIS", 0.02);
        let mut keys = vec![cell_key(&base)];
        keys.push(cell_key(&cell(Preset::BaselineTbDor, "MM", 0.02)));
        keys.push(cell_key(&cell(Preset::BaselineTbDor, "HIS", 0.05)));
        keys.push(cell_key(&cell(Preset::CpCr4vc, "HIS", 0.02)));
        let mut seeded = base.clone();
        seeded.seed ^= 1;
        keys.push(cell_key(&seeded));
        let mut radix = base;
        radix.mesh_k = 8;
        keys.push(cell_key(&radix));
        let unique: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "key collision in {keys:?}");
    }
}
