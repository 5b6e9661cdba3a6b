//! # tenoc-bench — figure/table regeneration harnesses
//!
//! Each `[[bench]]` target of this crate regenerates one table or figure
//! of *Throughput-Effective On-Chip Networks for Manycore Accelerators*
//! (MICRO 2010) and prints the same rows/series the paper reports:
//!
//! | target | reproduces |
//! |---|---|
//! | `fig02_design_space` | Figure 2 (IPC vs 1/mm² scatter) |
//! | `fig06_limit_study` | Figure 6 (bandwidth limit study) |
//! | `fig07_perfect_noc` | Figure 7 (perfect-NoC speedups) |
//! | `fig08_mc_injection` | Figure 8 (speedup vs MC injection rate) |
//! | `fig09_bw_vs_latency` | Figure 9 (2x bandwidth vs 1-cycle router) |
//! | `fig10_latency_ratio` | Figure 10 (NoC latency ratio) |
//! | `fig11_mc_stall` | Figure 11 (MC reply-injection stalls) |
//! | `fig16_placement` | Figure 16 (checkerboard MC placement) |
//! | `fig17_checkerboard_routing` | Figure 17 (CR vs DOR) |
//! | `fig18_double_network` | Figure 18 (channel-sliced double network) |
//! | `fig19_multiport` | Figure 19 (multi-port MC routers) |
//! | `fig20_combined` | Figure 20 (combined throughput-effective design) |
//! | `fig21_open_loop` | Figure 21 (open-loop latency curves) |
//! | `tab06_area` | Table VI (area model) |
//! | `perf_micro` | criterion microbenchmarks of the simulator itself |
//!
//! Run all of them with `cargo bench --workspace`. By default kernels are
//! scaled down (`TENOC_SCALE`, default 0.12) so the full set finishes in
//! minutes; set `TENOC_FULL=1` for full-length runs.
//!
//! Suite sweeps fan out over `tenoc-harness`'s worker pool (one cell per
//! `(preset, benchmark)` pair): `TENOC_JOBS=N` picks the worker count,
//! defaulting to the machine's available parallelism. Results are
//! bit-identical at any job count, and every cell pins the system default
//! seed, so each reports exactly what `tenoc run` does for the same pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tenoc_harness::{run_grid, CellResult, SweepGrid};
use tenoc_workloads::TrafficClass;

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

/// Prints a standard figure header and returns the kernel scale in effect
/// (`TENOC_SCALE` / `TENOC_FULL`).
pub fn header(fig: &str, what: &str) -> f64 {
    let scale = env_or_exit(tenoc_core::experiments::scale_from_env());
    let jobs = env_or_exit(tenoc_harness::jobs_from_env());
    println!("================================================================");
    println!("{fig}: {what}");
    println!("(kernel scale {scale}; TENOC_FULL=1 for full-length runs; {jobs} jobs)");
    println!("================================================================");
    scale
}

/// Runs each preset's full 31-benchmark suite through the parallel sweep
/// engine, returning one result list per preset in suite order. All
/// `presets x benchmarks` cells share one worker pool, so the grid
/// parallelizes across `TENOC_JOBS` workers.
///
/// # Panics
///
/// Panics if any run hits the safety cycle limit (closed-loop runs must
/// always drain).
pub fn run_suites_par(presets: &[Preset], scale: f64) -> Vec<Vec<CellResult>> {
    let grid = SweepGrid::suites(presets, scale);
    let mut results = run_grid(&grid, env_or_exit(tenoc_harness::jobs_from_env())).into_iter();
    presets.iter().map(|_| results.by_ref().take(grid.benchmarks.len()).collect()).collect()
}

/// Per-benchmark speedup (percent) of `new` over `base`, matched by name.
///
/// A benchmark whose baseline retired nothing has no defined speedup
/// ([`RunMetrics::speedup_over`](tenoc_core::RunMetrics::speedup_over)
/// returns `None`); its row is **skipped with a warning** on stderr rather
/// than handing [`hm_of_percent`] an `inf` (which adds nothing to the
/// harmonic sum and silently inflates the mean) or a `NaN` (which
/// poisons it).
///
/// # Panics
///
/// Panics if the two sweeps cover different benchmarks.
pub fn speedups_percent(
    base: &[CellResult],
    new: &[CellResult],
) -> Vec<(String, TrafficClass, f64)> {
    assert_eq!(base.len(), new.len(), "mismatched sweeps");
    let row = |(b, n): (&CellResult, &CellResult)| {
        assert_eq!(b.cell.benchmark, n.cell.benchmark, "benchmark order mismatch");
        let Some(ratio) = n.metrics.speedup_over(&b.metrics) else {
            eprintln!(
                "warning: skipping {}: baseline IPC is {} (no defined speedup)",
                b.cell.benchmark, b.metrics.ipc
            );
            return None;
        };
        Some((b.cell.benchmark.clone(), b.class, (ratio - 1.0) * 100.0))
    };
    base.iter().zip(new).filter_map(row).collect()
}

/// Prints one per-benchmark percentage row set.
pub fn print_speedup_rows(rows: &[(String, TrafficClass, f64)]) {
    println!("{:>6} {:>5} {:>9}", "bench", "class", "value");
    for (name, class, v) in rows {
        println!("{name:>6} {class:>5} {v:>+8.1}%");
    }
}

/// Harmonic mean over the speedup *ratios* implied by percentage rows,
/// expressed back as a percentage.
pub fn hm_of_percent(rows: &[(String, TrafficClass, f64)]) -> f64 {
    let hm = tenoc_core::harmonic_mean(rows.iter().map(|(_, _, p)| 1.0 + p / 100.0));
    (hm - 1.0) * 100.0
}

/// Harmonic mean restricted to one class, as a percentage.
pub fn hm_of_percent_class(rows: &[(String, TrafficClass, f64)], class: TrafficClass) -> f64 {
    let hm = tenoc_core::harmonic_mean(
        rows.iter().filter(|(_, c, _)| *c == class).map(|(_, _, p)| 1.0 + p / 100.0),
    );
    (hm - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenoc_core::RunMetrics;

    #[test]
    fn speedups_are_matched_by_name() {
        // Ideal networks keep this a sub-second pair of suites.
        let [limited, perfect]: [_; 2] =
            run_suites_par(&[Preset::BwLimited(0.5), Preset::Perfect], 0.02).try_into().unwrap();
        let suite = tenoc_workloads::suite();
        assert_eq!((limited.len(), perfect.len()), (suite.len(), suite.len()));
        let rows = speedups_percent(&limited, &perfect);
        assert_eq!(rows.len(), suite.len());
        for (((name, class, pct), spec), cell) in rows.iter().zip(&suite).zip(&perfect) {
            assert_eq!((name, class), (&spec.name, &spec.class));
            assert_eq!((&cell.cell.benchmark, cell.cell.preset), (name, Preset::Perfect));
            assert!(*pct > -1.0, "{name}: removing a bandwidth cap cannot slow a kernel: {pct}");
        }
    }

    /// Satellite regression: a zero-IPC baseline benchmark is skipped
    /// (with a warning) rather than reaching the harmonic mean as an
    /// `inf` or `NaN` row.
    #[test]
    fn hm_speedup_skips_degenerate_baselines() {
        let grid = SweepGrid::new(vec![Preset::Perfect], vec!["OK".into(), "DEAD".into()], 1.0);
        let with_ipc = |index: usize, ipc: f64| CellResult {
            cell: grid.cell(index),
            class: TrafficClass::LL,
            metrics: RunMetrics {
                completed: true,
                core_cycles: 100,
                icnt_cycles: 50,
                scalar_insts: (ipc * 100.0) as u64,
                ipc,
                avg_net_latency: 0.0,
                mc_injection_rate: 0.0,
                core_injection_rate: 0.0,
                mc_stall_fraction: 0.0,
                dram_efficiency: 0.0,
                l2_read_hit_rate: 0.0,
                accepted_flits_per_node: 0.0,
                core_replays: 0,
                flit_hops: 0,
            },
            wall_nanos: 0,
        };
        let base = [with_ipc(0, 2.0), with_ipc(1, 0.0)];
        for dead_new_ipc in [1.0, 0.0] {
            // 1/0 = inf used to inflate the mean, 0/0 = NaN to poison it.
            let new = [with_ipc(0, 4.0), with_ipc(1, dead_new_ipc)];
            let rows = speedups_percent(&base, &new);
            assert_eq!(rows.len(), 1, "DEAD must be skipped: {rows:?}");
            assert_eq!(rows[0].0, "OK");
            let hm = hm_of_percent(&rows);
            assert!((hm - 100.0).abs() < 1e-9, "HM speedup is OK's +100%: {hm}");
        }
        let nothing = speedups_percent(&base[1..], &base[1..]);
        assert!(nothing.is_empty(), "nothing left after skipping");
    }
}
