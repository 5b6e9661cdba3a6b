//! # tenoc-bench — figure/table regeneration harnesses
//!
//! Each `[[bench]]` target of this crate regenerates one table or figure
//! of *Throughput-Effective On-Chip Networks for Manycore Accelerators*
//! (MICRO 2010) and prints the same rows/series the paper reports:
//!
//! | target | reproduces |
//! |---|---|
//! | `figures` | Figures 2, 6-11, 16-20 and Table I: one pooled grid through `tenoc_harness::figures` |
//! | `fig21_open_loop` | Figure 21 (open-loop latency curves) |
//! | `tab06_area` | Table VI (area model) |
//! | `abl_design_choices` | ablations beyond the paper (DRAM scheduler, VC depth, ...) |
//! | `abl_scaling` | mesh-radix scaling |
//!
//! Run all of them with `cargo bench --workspace`. By default kernels are
//! scaled down (`TENOC_SCALE`, default 0.12) so the full set finishes in
//! minutes; set `TENOC_FULL=1` for full-length runs.
//!
//! Grids fan out over `tenoc-harness`'s worker pool (one cell per
//! `(preset, benchmark)` pair): `TENOC_JOBS=N` picks the worker count,
//! defaulting to the machine's available parallelism. Results are
//! bit-identical at any job count, and every cell pins the system default
//! seed, so each reports exactly what `tenoc run` does for the same pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tenoc_core::experiments;
pub use tenoc_core::presets::Preset;

/// An environment knob's value; a malformed variable aborts the bench with
/// the message instead of regenerating a figure at the default.
fn env_or_exit<T>(knob: Result<T, String>) -> T {
    knob.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// The worker count for a bench's grid (`TENOC_JOBS`).
pub fn jobs() -> usize {
    env_or_exit(tenoc_harness::jobs_from_env())
}

/// Prints a standard figure header and returns the kernel scale in effect
/// (`TENOC_SCALE` / `TENOC_FULL`).
pub fn header(fig: &str, what: &str) -> f64 {
    let scale = env_or_exit(tenoc_core::experiments::scale_from_env());
    println!("================================================================");
    println!("{fig}: {what}");
    println!("(kernel scale {scale}; TENOC_FULL=1 for full-length runs; {} jobs)", jobs());
    println!("================================================================");
    scale
}
