//! # tenoc-harness — parallel deterministic experiment engine
//!
//! Every figure and table in `EXPERIMENTS.md` is regenerated by running
//! dozens of independent `(preset, workload, scale, seed)` closed-loop
//! simulations. This crate fans such a sweep grid out over a scoped-thread
//! worker pool and emits one structured [`RunRecord`] per cell as JSON
//! lines, each carrying a stable fingerprint hash so checked-in golden
//! snapshots can assert the measured numbers in CI.
//!
//! ## Determinism contract
//!
//! Results are **bit-identical at any `--jobs` value**, including
//! `--jobs 1`:
//!
//! - every cell owns a private deterministic seed derived from
//!   `(grid_seed, cell index)` via a SplitMix64 mix ([`rng::cell_seed`]) —
//!   no RNG state is shared between cells;
//! - cells never communicate: a cell's simulation reads only its own
//!   [`SweepCell`], so the thread schedule cannot influence any result;
//! - workers claim cells from a shared atomic cursor (a
//!   work-stealing-style queue) but write each result into its own
//!   pre-allocated slot, and [`engine::run_grid`] returns records in cell
//!   order regardless of completion order.
//!
//! ## Example
//!
//! ```
//! use tenoc_harness::{engine, SeedMode, SweepGrid};
//! use tenoc_core::{presets::Preset, DEFAULT_SEED};
//!
//! let grid = SweepGrid::new(vec![Preset::BaselineTbDor], vec!["HIS".into()], 0.02)
//!     .with_seed_mode(SeedMode::Derived(DEFAULT_SEED));
//! let records = engine::run_sweep(&grid, 2);
//! assert_eq!(records.len(), 1);
//! assert!(records[0].metrics.ipc > 0.0);
//! assert_eq!(records[0].fingerprint, records[0].compute_fingerprint());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod canon;
pub mod engine;
pub mod figures;
pub mod golden;
mod grid;
mod record;
mod rng;

pub use cache::{memoize, CachedCell, DiskCache, Heatmaps, Memo, MODEL_VERSION};
pub use canon::{
    canonical_json, canonicalize, cell_key, cell_keys, cell_value, config_cell_key,
    config_cell_value, hash_value, heatmap_key, probe_key,
};
pub use engine::{
    annotate, cached_line, cell_system_config, run_cell, run_config_cell, run_grid, run_sweep,
    CellResult,
};
pub use golden::{check_fingerprints, tiny_grid};
pub use grid::{ConfigCell, SeedMode, SweepCell, SweepGrid};
pub use record::{from_jsonl, to_jsonl, RunRecord};
pub use rng::cell_seed;

/// Worker count for a sweep: `TENOC_JOBS` if set, otherwise the machine's
/// available parallelism.
///
/// # Errors
///
/// Returns a message naming `TENOC_JOBS` when it is set to anything but a
/// count of at least one (the `--jobs` flag's predicate).
pub fn jobs_from_env() -> Result<usize, String> {
    let jobs = tenoc_core::experiments::env_knob("TENOC_JOBS", "a worker count >= 1", |j| *j >= 1)?;
    Ok(jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())))
}
