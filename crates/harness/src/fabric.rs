//! The process-wide table of resolved named fabrics.
//!
//! A record and a content address each take two things from their cell's
//! fabric alone: the canonical JSON of the resolved interconnect (the
//! kilobyte every address wraps, see [`FabricText`]) and the chip area the
//! record is priced at. Both are pure functions of `(preset, mesh_k)`, and
//! a grid is a few fabrics under many workloads, so each named preset at
//! each admitted radix is resolved once per process here and kept for the
//! process's life. A cached `tenoc serve` request then does per-cell text
//! work only.
//!
//! The table is one `OnceLock` per [`Preset::NAMED`] × `2..=`[`MAX_MESH_K`]
//! pair: bounded by construction, so nothing is ever evicted. A preset with
//! a parameter (`BwLimited`) or a radix outside the range resolves afresh on
//! every call, as every fabric did before the table.

use crate::canon::FabricText;
use std::borrow::Cow;
use std::sync::OnceLock;
use tenoc_core::{AreaModel, ChipArea, Preset, SystemConfig, MAX_MESH_K};

/// What records and addresses take from one resolved fabric.
#[derive(Clone)]
pub(crate) struct Fabric {
    /// The fabric's part of every cell address on it.
    pub(crate) text: FabricText,
    /// The chip area a record on this fabric is priced at.
    pub(crate) area: ChipArea,
}

impl Fabric {
    fn resolve(preset: Preset, mesh_k: usize) -> Self {
        let icnt = preset.icnt(mesh_k);
        let area = AreaModel::chip_area(&icnt);
        Fabric { text: FabricText::of(&SystemConfig::with_icnt(icnt)), area }
    }
}

/// Radices the table holds: `2..=MAX_MESH_K`.
const RADICES: usize = MAX_MESH_K - 1;

static TABLE: [[OnceLock<Fabric>; RADICES]; Preset::NAMED.len()] =
    [const { [const { OnceLock::new() }; RADICES] }; Preset::NAMED.len()];

/// The table's slot for `(preset, mesh_k)`, if it has one.
fn slot(preset: Preset, mesh_k: usize) -> Option<&'static OnceLock<Fabric>> {
    let row = Preset::NAMED.iter().position(|p| *p == preset)?;
    TABLE[row].get(mesh_k.checked_sub(2)?)
}

/// `preset` resolved at radix `mesh_k`: from the table for a named preset
/// at an admitted radix (resolved on first use), afresh otherwise.
pub(crate) fn fabric(preset: Preset, mesh_k: usize) -> Cow<'static, Fabric> {
    match slot(preset, mesh_k) {
        Some(slot) => Cow::Borrowed(slot.get_or_init(|| Fabric::resolve(preset, mesh_k))),
        None => Cow::Owned(Fabric::resolve(preset, mesh_k)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedCell;
    use crate::canon::{cell_keys, cell_value, hash_value};
    use crate::engine::{annotate, cached_line, CellResult};
    use crate::grid::SweepCell;
    use serde::Serialize;
    use tenoc_core::RunMetrics;

    /// Fabrics the table has resolved so far.
    fn resolved() -> usize {
        TABLE.iter().flatten().filter(|slot| slot.get().is_some()).count()
    }

    /// Every named preset at every admitted radix, twice: each address is
    /// the hashed value tree and each line the record's value tree,
    /// checked here so that release builds (where the `debug_assert`s in
    /// `cell_keys` and `seal` are gone) check them too, and the table
    /// holds exactly one entry per pair however often it is asked.
    #[test]
    fn every_named_fabric_at_every_admitted_radix_is_resolved_once_and_spells_the_value_tree() {
        let metrics = RunMetrics {
            completed: true,
            core_cycles: 1000,
            icnt_cycles: 464,
            scalar_insts: 12345,
            ipc: 12.345,
            avg_net_latency: 20.5,
            mc_injection_rate: 0.25,
            core_injection_rate: 0.05,
            mc_stall_fraction: 0.4,
            dram_efficiency: 0.5,
            l2_read_hit_rate: 0.3,
            accepted_flits_per_node: 0.125,
            core_replays: 7,
            flit_hops: 4096,
        };
        let class = tenoc_workloads::by_name("RD").expect("a Table I kernel").class;
        let bound = Preset::NAMED.len() * RADICES;
        let mut cells = Vec::new();
        for (index, preset) in Preset::NAMED.into_iter().enumerate() {
            for mesh_k in 2..=MAX_MESH_K {
                for (benchmark, scale) in [("RD", 0.05), ("a\"b\\c\u{1}é", 1e-7)] {
                    let benchmark = benchmark.to_string();
                    cells.push(SweepCell { index, preset, benchmark, scale, seed: 7, mesh_k });
                }
            }
        }
        // Outside the table: resolved afresh, never stored.
        for (preset, mesh_k) in
            [(Preset::BwLimited(0.5), 6), (Preset::BaselineTbDor, 1 + MAX_MESH_K)]
        {
            cells.push(SweepCell {
                index: 0,
                preset,
                benchmark: "RD".into(),
                scale: 0.05,
                seed: 7,
                mesh_k,
            });
        }
        let mut first = None;
        for _ in 0..2 {
            let keys = cell_keys(&cells);
            let mut lines = Vec::new();
            for (cell, key) in cells.iter().zip(&keys) {
                assert_eq!(*key, hash_value(&cell_value(cell)), "{cell:?}");
                let line = cached_line(cell, &CachedCell { class, metrics });
                let record =
                    annotate(&CellResult { cell: cell.clone(), class, metrics, wall_nanos: 0 });
                assert_eq!(line, record.to_value().to_json_compact(), "{cell:?}");
                let area = AreaModel::chip_area(&cell.preset.icnt(cell.mesh_k));
                assert_eq!((record.noc_area_mm2, record.chip_area_mm2), (area.noc(), area.total()));
                lines.push(line);
            }
            assert!(resolved() <= bound, "{} fabrics held for {bound} pairs", resolved());
            assert_eq!(*first.get_or_insert((keys.clone(), lines.clone())), (keys, lines));
        }
        assert_eq!(resolved(), bound, "every named pair is held once");
    }
}
