//! The sweep engine: runs every grid cell on the worker pool and turns
//! results into sealed [`RunRecord`]s.

use crate::grid::{SweepCell, SweepGrid};
use crate::pool::run_indexed;
use crate::record::{RunPerf, RunRecord};
use tenoc_core::area::{throughput_effectiveness, AreaModel};
use tenoc_core::experiments::{run_traced_with_system_config, run_with_system_config};
use tenoc_core::{
    ClockConfig, IcntConfig, PowerModel, RunMetrics, SystemConfig, TelemetryConfig, TelemetryReport,
};
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
    /// Telemetry reports when the cell ran with telemetry armed (one per
    /// physical network), empty otherwise.
    pub telemetry: Vec<TelemetryReport>,
}

/// The fully-resolved system configuration a cell simulates with: the
/// preset's interconnect at the cell's mesh radix, every other parameter
/// at its Table II value, and the cell's private seed. This is the single
/// source of truth for what a cell *is* — the service layer's canonical
/// content hash is computed over it, so it must stay in lockstep with
/// [`run_cell`].
pub fn cell_system_config(cell: &SweepCell) -> SystemConfig {
    let mut cfg = SystemConfig::with_icnt(cell.preset.icnt(cell.mesh_k));
    cfg.seed = cell.seed;
    cfg
}

/// The one cell body every run path shares. A telemetry-armed cell runs
/// on the same engine as an unarmed one, with the instruments switched on.
fn simulate(
    cfg: SystemConfig,
    benchmark: &str,
    scale: f64,
    telemetry: bool,
) -> (TrafficClass, RunMetrics, Vec<TelemetryReport>) {
    let spec = tenoc_workloads::by_name(benchmark)
        .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
    let (metrics, reports) = if telemetry {
        run_traced_with_system_config(cfg, &spec, scale, TelemetryConfig::default())
    } else {
        (run_with_system_config(cfg, &spec, scale), Vec::new())
    };
    (spec.class, metrics, reports)
}

/// Runs one cell to completion.
///
/// # Panics
///
/// Panics if the benchmark name is unknown or the run hits the safety
/// cycle limit (closed-loop runs must always drain).
pub fn run_cell(cell: &SweepCell) -> CellResult {
    let start = std::time::Instant::now();
    let (class, metrics, telemetry) =
        simulate(cell_system_config(cell), &cell.benchmark, cell.scale, cell.telemetry);
    let wall_nanos = start.elapsed().as_nanos() as u64;
    CellResult { cell: cell.clone(), class, metrics, wall_nanos, telemetry }
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
    run_grid(grid, jobs).into_iter().map(|r| annotate(&r)).collect()
}

/// A closed-loop cell specified by an explicit interconnect
/// configuration rather than a named preset — the unit of work for
/// callers (e.g. the tuner's stage 3) that measure arbitrary design
/// points. Every non-interconnect parameter stays at its Table II value
/// via [`SystemConfig::with_icnt`], exactly like preset cells, so a
/// config cell whose `icnt` equals a preset's produces the same metrics
/// (and shares the same canonical content address in the result cache).
#[derive(Clone, Debug)]
pub struct ConfigCell {
    /// The fully-resolved interconnect to simulate.
    pub icnt: IcntConfig,
    /// Benchmark abbreviation (must exist in `tenoc_workloads`).
    pub benchmark: String,
    /// Workload scale factor.
    pub scale: f64,
    /// The cell's private traffic/workload seed.
    pub seed: u64,
}

/// The fully-resolved system configuration a config cell simulates with
/// (the analogue of [`cell_system_config`] for explicit-config cells).
pub fn config_cell_system_config(cell: &ConfigCell) -> SystemConfig {
    let mut cfg = SystemConfig::with_icnt(cell.icnt.clone());
    cfg.seed = cell.seed;
    cfg
}

/// Runs one config cell to completion.
///
/// # Panics
///
/// Panics if the benchmark name is unknown or the run hits the safety
/// cycle limit.
pub fn run_config_cell(cell: &ConfigCell) -> (TrafficClass, RunMetrics) {
    let (class, metrics, _) =
        simulate(config_cell_system_config(cell), &cell.benchmark, cell.scale, false);
    (class, metrics)
}

/// Runs every config cell across `jobs` workers, returning
/// `(class, metrics)` in cell order — the explicit-config analogue of
/// [`run_grid`].
///
/// # Panics
///
/// Propagates panics from [`run_config_cell`].
pub fn run_config_cells(cells: &[ConfigCell], jobs: usize) -> Vec<(TrafficClass, RunMetrics)> {
    run_indexed(cells.len(), jobs, |i| run_config_cell(&cells[i]))
}

/// Annotates a raw result with the design point's area/power model and
/// seals the fingerprint.
pub fn annotate(result: &CellResult) -> RunRecord {
    let icnt = result.cell.preset.icnt(result.cell.mesh_k);
    let area = AreaModel::chip_area(&icnt);
    let icnt_hz = ClockConfig::gtx280().icnt_mhz * 1e6;
    let elapsed_s = result.metrics.icnt_cycles as f64 / icnt_hz;
    let power = PowerModel::dynamic_power_w(icnt.net(), result.metrics.flit_hops, elapsed_s);
    let mut record = RunRecord {
        cell: result.cell.index as u64,
        preset: result.cell.preset.label(),
        benchmark: result.cell.benchmark.clone(),
        class: result.class.to_string(),
        scale: result.cell.scale,
        seed: result.cell.seed,
        metrics: result.metrics,
        noc_area_mm2: area.noc(),
        chip_area_mm2: area.total(),
        ipc_per_mm2: throughput_effectiveness(result.metrics.ipc, &area),
        noc_dynamic_power_w: power,
        fingerprint: String::new(),
        perf: RunPerf::measure(result.metrics.icnt_cycles, result.wall_nanos),
        telemetry: if result.telemetry.is_empty() { None } else { Some(result.telemetry.clone()) },
    };
    record.seal();
    record
}

/// The cache hook: seals a record for `cell` from a previously-measured
/// `(class, metrics)` pair without re-simulating. Because wall time and
/// telemetry ride the record's non-serialized side channel, the resulting
/// record is byte-identical to the one [`run_cell`] + [`annotate`] would
/// have produced for the same cell — which is what lets a result cache
/// substitute for simulation without perturbing golden snapshots.
pub fn annotate_cached(cell: &SweepCell, class: TrafficClass, metrics: RunMetrics) -> RunRecord {
    annotate(&CellResult {
        cell: cell.clone(),
        class,
        metrics,
        wall_nanos: 0,
        telemetry: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SeedMode;
    use tenoc_core::Preset;

    fn tiny() -> SweepGrid {
        SweepGrid::new(
            vec![Preset::BaselineTbDor, Preset::Perfect],
            vec!["HIS".into(), "MM".into()],
            0.02,
        )
    }

    #[test]
    fn sweep_runs_every_cell_in_order() {
        let records = run_sweep(&tiny(), 2);
        assert_eq!(records.len(), 4);
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
        let cached = annotate_cached(&cell, result.class, result.metrics);
        assert_eq!(cached, direct);
        assert_eq!(
            crate::record::to_jsonl(std::slice::from_ref(&cached)),
            crate::record::to_jsonl(std::slice::from_ref(&direct))
        );
    }

    #[test]
    fn config_cell_matches_preset_cell() {
        // A config cell resolved from a preset must measure exactly what
        // the preset cell measures — this is what lets the tuner share
        // cache entries with preset sweeps.
        let grid = SweepGrid::new(vec![Preset::BaselineTbDor], vec!["HIS".into()], 0.02);
        let cell = grid.cell(0);
        let cfg_cell = ConfigCell {
            icnt: cell.preset.icnt(cell.mesh_k),
            benchmark: cell.benchmark.clone(),
            scale: cell.scale,
            seed: cell.seed,
        };
        let preset_result = run_cell(&cell);
        let (class, metrics) = run_config_cell(&cfg_cell);
        assert_eq!(class, preset_result.class);
        assert_eq!(metrics, preset_result.metrics);

        // The pool returns config cells in input order at any job count.
        let mut b = cfg_cell.clone();
        b.benchmark = "MM".into();
        b.seed = cfg_cell.seed ^ 0x5bd1;
        let cells = vec![cfg_cell, b];
        let solo: Vec<_> = cells.iter().map(run_config_cell).collect();
        assert_eq!(solo, run_config_cells(&cells, 2));
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
        // The engine with a fixed 0x7e0c seed must agree with the plain
        // sequential runner the benches used before.
        let grid = tiny().with_seed_mode(SeedMode::Fixed(0x7e0c));
        let engine = run_grid(&grid, 2);
        let spec = tenoc_workloads::by_name("HIS").unwrap();
        let direct = run_with_system_config(
            SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(6)),
            &spec,
            0.02,
        );
        assert_eq!(engine[0].metrics, direct);
    }
}
