//! Canonical content addressing for sweep cells and open-loop probes.
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
//! `Double-CP-CR-2P(inj)` point it aliases — share cache entries. An
//! open-loop probe ([`probe_key`]) and a cell's heatmaps
//! ([`heatmap_key`]) are addressed the same way, each under its own
//! domain tag.

use crate::grid::{ConfigCell, SweepCell};
use crate::record::fnv1a64;
use serde::json::Value;
use serde::Serialize;
use tenoc_core::IcntConfig;
use tenoc_noc::openloop::{OpenLoopConfig, TrafficPattern};

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

/// Lower-case-hex FNV-1a of a value's canonical JSON: the address it
/// names.
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
/// `ConfigCell::system_config`; `chunk` and `cores_per_node` are
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

/// The content address of each of `cells`, in order (see [`cell_key`]).
pub fn cell_keys(cells: &[SweepCell]) -> Vec<String> {
    cells.iter().map(cell_key).collect()
}

/// The content address of one preset cell: [`config_cell_key`] of its
/// resolved configuration.
pub fn cell_key(cell: &SweepCell) -> String {
    config_cell_key(&cell.config())
}

/// The canonical identity of one open-loop probe question: the
/// interconnect the probe's fabric is built from, every traffic-generator
/// input and, for a bounded question, its `beat` — "measure this probe
/// unless it provably cannot eject more than `beat`"
/// ([`run_open_loop_unless`](tenoc_noc::openloop::run_open_loop_unless)).
/// An unbounded question hashes no `beat` field, so its address is the
/// one every probe had before bounded questions existed.
///
/// It hashes the [`IcntConfig`], not `icnt.net()`: a double candidate
/// and its unsliced base carry the same `NetworkConfig` but build
/// different fabrics and measure different results. `cfg.net` is that
/// shared `NetworkConfig` (the generator addresses its nodes), so it is
/// already inside `icnt` and is not hashed twice. The destructuring is
/// exhaustive on purpose: a new [`OpenLoopConfig`] field does not compile
/// until it is keyed here. The `"probe"` field is the domain tag — no
/// cell value has one, so a probe and a cell never share an address.
///
/// Excluded, as for cells: the engine and worker placement
/// (result-identical) and whatever names or ranks the caller gives the
/// probe.
pub(crate) fn probe_value(icnt: &IcntConfig, cfg: &OpenLoopConfig, beat: Option<f64>) -> Value {
    let OpenLoopConfig {
        net,
        injection_rate,
        pattern,
        warmup,
        measure,
        drain,
        request_bytes,
        reply_bytes,
        seed,
    } = cfg;
    debug_assert_eq!(net, icnt.net(), "a probe's generator addresses its own fabric's nodes");
    let pattern = match *pattern {
        TrafficPattern::UniformRandom => "uniform".to_value(),
        TrafficPattern::Hotspot { hot, fraction } => Value::Object(vec![
            ("hot".to_string(), hot.to_value()),
            ("fraction".to_string(), fraction.to_value()),
        ]),
    };
    let mut fields = vec![
        ("probe".to_string(), "open-loop".to_value()),
        ("icnt".to_string(), icnt.to_value()),
        ("rate".to_string(), injection_rate.to_value()),
        ("pattern".to_string(), pattern),
        ("warmup".to_string(), warmup.to_value()),
        ("measure".to_string(), measure.to_value()),
        ("drain".to_string(), drain.to_value()),
        ("request_bytes".to_string(), request_bytes.to_value()),
        ("reply_bytes".to_string(), reply_bytes.to_value()),
        ("seed".to_string(), seed.to_value()),
    ];
    fields.extend(beat.map(|b| ("beat".to_string(), b.to_value())));
    Value::Object(fields)
}

/// The content address of an open-loop probe question (see
/// [`probe_value`]): 16 lower-case hex digits.
pub fn probe_key(icnt: &IcntConfig, cfg: &OpenLoopConfig, beat: Option<f64>) -> String {
    hash_value(&probe_value(icnt, cfg, beat))
}

/// The canonical identity of a cell's link-utilization heatmaps: the
/// cell's own value under a `"heatmap"` domain tag. A heatmap is a pure
/// function of the cell — telemetry observes without perturbing, and the
/// telemetry options shape only the flight recorder — so the cell value
/// is the whole input; the tag keeps the traced result and the cell's
/// metrics at different addresses.
pub(crate) fn heatmap_value(cell: &ConfigCell) -> Value {
    Value::Object(vec![
        ("heatmap".to_string(), "link-utilization".to_value()),
        ("cell".to_string(), config_cell_value(cell)),
    ])
}

/// The content address of a cell's heatmaps: 16 lower-case hex digits.
pub fn heatmap_key(cell: &ConfigCell) -> String {
    hash_value(&heatmap_value(cell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepGrid;
    use tenoc_core::Preset;

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

    fn probe(icnt: &IcntConfig) -> OpenLoopConfig {
        OpenLoopConfig::new(icnt.net().clone(), 0.04, TrafficPattern::UniformRandom)
    }

    #[test]
    fn every_probe_input_moves_the_probe_key() {
        let icnt = Preset::DoubleCpCr.icnt(6);
        let base = probe(&icnt);
        let mut keys = vec![probe_key(&icnt, &base, None)];
        let perturbations: [fn(&mut OpenLoopConfig); 9] = [
            |c| c.injection_rate = 0.05,
            |c| c.pattern = TrafficPattern::Hotspot { hot: 0, fraction: 0.2 },
            |c| c.pattern = TrafficPattern::Hotspot { hot: 1, fraction: 0.2 },
            |c| c.warmup += 1,
            |c| c.measure += 1,
            |c| c.drain += 1,
            |c| c.request_bytes += 8,
            |c| c.reply_bytes += 8,
            |c| c.seed ^= 1,
        ];
        for perturb in perturbations {
            let mut cfg = base.clone();
            perturb(&mut cfg);
            keys.push(probe_key(&icnt, &cfg, None));
        }
        // The sliced fabric and its unsliced base share a `NetworkConfig`
        // (so the same `OpenLoopConfig`) and must not share an entry.
        let unsliced = IcntConfig::Mesh(icnt.net().clone());
        assert_eq!(unsliced.net(), icnt.net());
        keys.push(probe_key(&unsliced, &base, None));
        // A bounded question is another question, and so is another bound.
        keys.push(probe_key(&icnt, &base, Some(0.5)));
        keys.push(probe_key(&icnt, &base, Some(0.25)));
        // A different fabric altogether.
        let other = Preset::BaselineTbDor.icnt(6);
        keys.push(probe_key(&other, &probe(&other), None));
        let unique: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "probe key collision in {keys:?}");
        assert_eq!(probe_key(&icnt, &base, None), keys[0], "and the key is stable across calls");
    }

    #[test]
    fn a_probe_never_shares_an_address_with_a_cell_on_the_same_fabric() {
        for preset in [Preset::BaselineTbDor, Preset::CpCr4vc, Preset::ThroughputEffective] {
            let c = cell(preset, "HIS", 0.02);
            let icnt = preset.icnt(c.mesh_k);
            let p = probe_value(&icnt, &probe(&icnt), None);
            // The domain tag: a field every probe value has and no cell
            // value does, so the hashed texts cannot coincide.
            assert!(p.field("probe").is_ok());
            assert!(cell_value(&c).field("probe").is_err());
            assert_ne!(hash_value(&p), cell_key(&c));
        }
    }
}
