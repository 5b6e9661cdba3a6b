//! The sweep engine: runs every grid cell on the worker pool and turns
//! results into sealed [`RunRecord`]s.

use crate::cache::CachedCell;
use crate::grid::{ConfigCell, SweepCell, SweepGrid};
use crate::pool::run_indexed;
use crate::record::RunRecord;
use tenoc_core::area::{throughput_effectiveness, AreaModel};
use tenoc_core::experiments::run_with_system_config;
use tenoc_core::{ClockConfig, PowerModel, RunMetrics, SystemConfig};
use tenoc_simt::TrafficClass;

/// One cell's raw result, before area/power annotation.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell that was run.
    pub cell: SweepCell,
    /// Traffic class of the cell's benchmark.
    pub class: TrafficClass,
    /// Closed-loop metrics.
    pub metrics: RunMetrics,
    /// Wall-clock nanoseconds the simulation took.
    pub wall_nanos: u64,
}

/// The system configuration a preset cell simulates with: that of its
/// resolved [`ConfigCell`].
pub fn cell_system_config(cell: &SweepCell) -> SystemConfig {
    cell.config().system_config()
}

/// Runs one config cell to completion — the one cell body every run path
/// shares.
///
/// # Panics
///
/// Panics if the benchmark name is unknown or the run hits the safety
/// cycle limit (closed-loop runs must always drain).
pub fn run_config_cell(cell: &ConfigCell) -> (TrafficClass, RunMetrics) {
    let spec = tenoc_workloads::by_name(&cell.benchmark)
        .unwrap_or_else(|| panic!("unknown benchmark {}", cell.benchmark));
    (spec.class, run_with_system_config(cell.system_config(), &spec, cell.scale))
}

/// Runs one preset cell to completion: [`run_config_cell`] on the cell's
/// resolved configuration, timed.
///
/// # Panics
///
/// As [`run_config_cell`].
pub fn run_cell(cell: &SweepCell) -> CellResult {
    let start = std::time::Instant::now();
    let (class, metrics) = run_config_cell(&cell.config());
    let wall_nanos = start.elapsed().as_nanos() as u64;
    CellResult { cell: cell.clone(), class, metrics, wall_nanos }
}

/// Runs every cell of `grid` across `jobs` workers, returning raw results
/// in cell order.
///
/// # Panics
///
/// Propagates panics from [`run_cell`].
pub fn run_grid(grid: &SweepGrid, jobs: usize) -> Vec<CellResult> {
    let cells = grid.cells();
    run_indexed(cells.len(), jobs, |i| run_cell(&cells[i]))
}

/// Runs a sweep and returns sealed records in cell order. Records are
/// bit-identical for any `jobs` value on the same grid.
///
/// # Panics
///
/// Propagates panics from [`run_cell`].
pub fn run_sweep(grid: &SweepGrid, jobs: usize) -> Vec<RunRecord> {
    run_sweep_jsonl(grid, jobs).0
}

/// [`run_sweep`]'s records beside their JSON-lines text — what
/// [`to_jsonl`](crate::to_jsonl) makes of them, taken from the one
/// rendering that sealing each record already does.
///
/// # Panics
///
/// Propagates panics from [`run_cell`].
pub fn run_sweep_jsonl(grid: &SweepGrid, jobs: usize) -> (Vec<RunRecord>, String) {
    let mut text = String::new();
    let records = run_grid(grid, jobs)
        .iter()
        .map(|r| {
            let (record, line) = sealed(&r.cell, r.class, &r.metrics);
            text.push_str(&line);
            text.push('\n');
            record
        })
        .collect();
    (records, text)
}

/// A cell's record, annotated with the design point's area/power model
/// and sealed, beside its JSON line.
fn sealed(cell: &SweepCell, class: TrafficClass, metrics: &RunMetrics) -> (RunRecord, String) {
    let icnt = cell.preset.icnt(cell.mesh_k);
    let area = AreaModel::chip_area(&icnt);
    let icnt_hz = ClockConfig::gtx280().icnt_mhz * 1e6;
    let elapsed_s = metrics.icnt_cycles as f64 / icnt_hz;
    let power = PowerModel::dynamic_power_w(icnt.net(), metrics.flit_hops, elapsed_s);
    let mut record = RunRecord {
        cell: cell.index as u64,
        preset: cell.preset.label(),
        benchmark: cell.benchmark.clone(),
        class: class.label().to_owned(),
        scale: cell.scale,
        seed: cell.seed,
        metrics: *metrics,
        noc_area_mm2: area.noc(),
        chip_area_mm2: area.total(),
        ipc_per_mm2: throughput_effectiveness(metrics.ipc, &area),
        noc_dynamic_power_w: power,
        fingerprint: String::new(),
    };
    let line = record.seal();
    (record, line)
}

/// Annotates a raw result with the design point's area/power model and
/// seals the fingerprint.
pub fn annotate(result: &CellResult) -> RunRecord {
    sealed(&result.cell, result.class, &result.metrics).0
}

/// The cache hook: the record line (no newline) for `cell` from a
/// previously-measured result, without re-simulating. A record carries
/// nothing but the cell and its measured values, so these are the bytes
/// [`run_cell`] + [`annotate`] would have serialized to — which is what
/// lets a result cache substitute for simulation without perturbing
/// golden snapshots.
pub fn cached_line(cell: &SweepCell, cached: &CachedCell) -> String {
    sealed(cell, cached.class, &cached.metrics).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SeedMode;
    use tenoc_core::experiments::run_benchmark;
    use tenoc_core::{Preset, DEFAULT_SEED};

    fn tiny() -> SweepGrid {
        SweepGrid::new(
            vec![Preset::BaselineTbDor, Preset::Perfect],
            vec!["HIS".into(), "MM".into()],
            0.02,
        )
    }

    #[test]
    fn sweep_runs_every_cell_in_order() {
        let (records, jsonl) = run_sweep_jsonl(&tiny(), 2);
        assert_eq!(records.len(), 4);
        assert_eq!(jsonl, crate::record::to_jsonl(&records));
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.cell, i as u64);
            assert!(r.metrics.completed);
            assert!(r.metrics.ipc > 0.0);
            assert!(r.fingerprint_valid());
        }
        assert_eq!(records[0].preset, "TB-DOR");
        assert_eq!(records[3].preset, "Perfect");
    }

    #[test]
    fn cached_annotation_is_byte_identical_to_simulation() {
        let grid = SweepGrid::new(vec![Preset::BaselineTbDor], vec!["HIS".into()], 0.02);
        let cell = grid.cell(0);
        let result = run_cell(&cell);
        let direct = annotate(&result);
        let cached =
            cached_line(&cell, &CachedCell { class: result.class, metrics: result.metrics });
        assert_eq!(cached + "\n", crate::record::to_jsonl(std::slice::from_ref(&direct)));
    }

    #[test]
    fn ideal_networks_report_zero_noc_power() {
        let grid = SweepGrid::new(vec![Preset::Perfect], vec!["HIS".into()], 0.02);
        let r = &run_sweep(&grid, 1)[0];
        assert_eq!(r.metrics.flit_hops, 0);
        assert_eq!(r.noc_dynamic_power_w, 0.0);
    }

    #[test]
    fn fixed_seed_reproduces_the_default_system_seed() {
        // A suite grid reports, cell for cell, what the single-run
        // convenience does — including for the one parameterized preset
        // (`fig06` sends `BwLimited` through the grid), which no flag
        // names. Two of the 31 benchmarks keep the test short.
        let limited = Preset::BwLimited(0.5);
        let mut grid = SweepGrid::suites(&[Preset::BaselineTbDor, limited], 0.02);
        assert_eq!(grid.seed_mode, SeedMode::Fixed(DEFAULT_SEED));
        assert_eq!(grid.benchmarks.len(), tenoc_workloads::suite().len());
        grid.benchmarks = vec!["HIS".into(), "RD".into()];
        let results = run_grid(&grid, 2);
        assert_eq!(results.len(), 4);
        for r in &results {
            let spec = tenoc_workloads::by_name(&r.cell.benchmark).unwrap();
            assert_eq!(r.class, spec.class);
            assert_eq!(r.metrics, run_benchmark(r.cell.preset, &spec, 0.02), "{:?}", r.cell);
        }
        assert_eq!(results[3].cell.preset, limited);
        assert_eq!(annotate(&results[3]).preset, "BW-0.50");
    }
}
