//! Sweep grids: the cross product of design points and workloads that a
//! sweep fans out over the worker pool.

use crate::rng::cell_seed;
use tenoc_core::presets::Preset;
use tenoc_core::{IcntConfig, SystemConfig};

/// How per-cell seeds are assigned.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum SeedMode {
    /// Every cell derives a private seed from `(grid_seed, cell index)`
    /// via [`cell_seed`] — the sweep default.
    Derived(u64),
    /// Every cell uses the same fixed seed ([`SweepGrid::suites`] pins the
    /// system default; the tuner's closed-loop stage its spec's seed).
    Fixed(u64),
}

/// One `(preset, workload, scale, seed)` unit of work.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCell {
    /// Position in the grid's row-major (preset-major) enumeration.
    pub index: usize,
    /// Design point.
    pub preset: Preset,
    /// Benchmark abbreviation (Table I).
    pub benchmark: String,
    /// Kernel-length scale factor.
    pub scale: f64,
    /// Workload seed for this cell.
    pub seed: u64,
    /// Mesh radix `k` passed to [`Preset::icnt`].
    pub mesh_k: usize,
}

/// What a cell *is*: the fully-resolved interconnect plus workload name,
/// kernel scale and private seed. Every non-interconnect parameter stays
/// at its Table II value via [`SystemConfig::with_icnt`]. Preset cells
/// resolve to one ([`SweepCell::config`]) and run, and are content-
/// addressed, as it; callers that measure arbitrary design points (the
/// tuner's stage 3) build one directly, so a candidate whose `icnt`
/// equals a preset's measures the same metrics under the same address.
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

impl ConfigCell {
    /// The system configuration the cell simulates with.
    pub fn system_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::with_icnt(self.icnt.clone());
        cfg.seed = self.seed;
        cfg
    }
}

impl SweepCell {
    /// The cell with its preset resolved at the cell's mesh radix.
    pub fn config(&self) -> ConfigCell {
        ConfigCell {
            icnt: self.preset.icnt(self.mesh_k),
            benchmark: self.benchmark.clone(),
            scale: self.scale,
            seed: self.seed,
        }
    }
}

/// A sweep: `presets x benchmarks` at one scale, with a seed policy.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepGrid {
    /// Design points (outer/slow axis).
    pub presets: Vec<Preset>,
    /// Benchmark abbreviations (inner/fast axis).
    pub benchmarks: Vec<String>,
    /// Kernel-length scale factor applied to every cell.
    pub scale: f64,
    /// Seed policy.
    pub seed_mode: SeedMode,
    /// Mesh radix `k` passed to [`Preset::icnt`] (paper: 6).
    pub mesh_k: usize,
}

impl SweepGrid {
    /// A grid over `presets x benchmarks` with the system default seed
    /// derived per cell and the paper's 6x6 mesh.
    pub fn new(presets: Vec<Preset>, benchmarks: Vec<String>, scale: f64) -> Self {
        let seed_mode = SeedMode::Derived(tenoc_core::DEFAULT_SEED);
        SweepGrid { presets, benchmarks, scale, seed_mode, mesh_k: 6 }
    }

    /// The suite-shaped grid behind `tenoc suite`, `tenoc classify` and
    /// the figure benches: every Table I benchmark on each of `presets`,
    /// every cell pinned at [`tenoc_core::DEFAULT_SEED`] — so each cell is
    /// the one `run_benchmark` (and `tenoc run`) runs for the same pair.
    pub fn suites(presets: &[Preset], scale: f64) -> Self {
        let names = tenoc_workloads::suite().into_iter().map(|s| s.name).collect();
        SweepGrid::new(presets.to_vec(), names, scale)
            .with_seed_mode(SeedMode::Fixed(tenoc_core::DEFAULT_SEED))
    }

    /// Replaces the seed policy.
    #[must_use]
    pub fn with_seed_mode(mut self, mode: SeedMode) -> Self {
        self.seed_mode = mode;
        self
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.presets.len() * self.benchmarks.len()
    }

    /// `true` when either axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell at `index` (preset-major order).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` or the benchmark axis is empty.
    pub fn cell(&self, index: usize) -> SweepCell {
        assert!(index < self.len(), "cell index {index} out of range");
        let preset = self.presets[index / self.benchmarks.len()];
        let benchmark = self.benchmarks[index % self.benchmarks.len()].clone();
        let seed = match self.seed_mode {
            SeedMode::Derived(grid_seed) => cell_seed(grid_seed, index as u64),
            SeedMode::Fixed(seed) => seed,
        };
        SweepCell { index, preset, benchmark, scale: self.scale, seed, mesh_k: self.mesh_k }
    }

    /// All cells in index order.
    pub fn cells(&self) -> Vec<SweepCell> {
        (0..self.len()).map(|i| self.cell(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SweepGrid {
        SweepGrid::new(
            vec![Preset::BaselineTbDor, Preset::Perfect],
            vec!["HIS".into(), "MM".into(), "RD".into()],
            0.05,
        )
    }

    #[test]
    fn enumeration_is_preset_major() {
        let cells = grid().cells();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].preset, Preset::BaselineTbDor);
        assert_eq!(cells[0].benchmark, "HIS");
        assert_eq!(cells[2].benchmark, "RD");
        assert_eq!(cells[3].preset, Preset::Perfect);
        assert_eq!(cells[3].benchmark, "HIS");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn derived_seeds_differ_per_cell() {
        let cells = grid().cells();
        let seeds: std::collections::HashSet<u64> = cells.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), cells.len());
    }

    #[test]
    fn fixed_seed_is_uniform() {
        let cells = grid().with_seed_mode(SeedMode::Fixed(7)).cells();
        assert!(cells.iter().all(|c| c.seed == 7));
    }

    #[test]
    fn cells_are_stable_across_calls() {
        let g = grid();
        assert_eq!(g.cells(), g.cells());
    }
}
