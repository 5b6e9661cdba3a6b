//! Experiment runners: one closed-loop run per (design point, benchmark),
//! plus suite sweeps used by the figure-regeneration benches.

use crate::metrics::RunMetrics;
use crate::presets::Preset;
use crate::system::{IcntConfig, System, SystemConfig};
use tenoc_noc::{TelemetryConfig, TelemetryReport};
use tenoc_simt::{KernelSpec, TrafficClass};

/// One benchmark's result within a suite sweep.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// Benchmark abbreviation.
    pub name: String,
    /// Traffic class.
    pub class: TrafficClass,
    /// Closed-loop metrics.
    pub metrics: RunMetrics,
}

/// Runs one benchmark on one design point. `scale` shortens the kernel
/// (1.0 = full length; the harness default is read from the environment
/// via [`scale_from_env`]).
///
/// # Panics
///
/// Panics if the run hits the safety cycle limit without completing —
/// closed-loop runs must always drain.
pub fn run_benchmark(preset: Preset, spec: &KernelSpec, scale: f64) -> RunMetrics {
    run_with_icnt(preset.icnt(6), spec, scale)
}

/// Runs one benchmark on an explicit interconnect configuration.
///
/// # Panics
///
/// Panics if the run does not complete (deadlock or cycle-limit).
pub fn run_with_icnt(icnt: IcntConfig, spec: &KernelSpec, scale: f64) -> RunMetrics {
    run_with_system_config(SystemConfig::with_icnt(icnt), spec, scale)
}

/// Runs one benchmark on a fully explicit system configuration (used by
/// ablation studies that vary non-NoC parameters such as the DRAM
/// scheduling policy or L2 geometry).
///
/// # Panics
///
/// Panics if the run does not complete (deadlock or cycle-limit).
pub fn run_with_system_config(cfg: SystemConfig, spec: &KernelSpec, scale: f64) -> RunMetrics {
    let scaled = spec.scaled(scale);
    let mut sys = System::new(cfg, &scaled);
    let m = sys.run();
    assert!(m.completed, "{} did not complete (possible deadlock)", scaled.name);
    m
}

/// Like [`run_with_system_config`], with the interconnect's telemetry
/// armed for the whole run. Returns the metrics (identical to an
/// untraced run — telemetry observes without perturbing) plus one
/// [`TelemetryReport`] per physical network (empty for ideal networks).
///
/// # Panics
///
/// Panics if the run does not complete (deadlock or cycle-limit).
pub fn run_traced_with_system_config(
    cfg: SystemConfig,
    spec: &KernelSpec,
    scale: f64,
    tcfg: TelemetryConfig,
) -> (RunMetrics, Vec<TelemetryReport>) {
    let scaled = spec.scaled(scale);
    let mut sys = System::new(cfg, &scaled);
    sys.enable_telemetry(tcfg);
    let m = sys.run();
    assert!(m.completed, "{} did not complete (possible deadlock)", scaled.name);
    let reports = sys.telemetry_reports();
    (m, reports)
}

/// Runs one benchmark on a preset with telemetry armed (the engine
/// behind `tenoc trace`).
///
/// # Panics
///
/// Panics if the run does not complete (deadlock or cycle-limit).
pub fn run_traced(
    preset: Preset,
    spec: &KernelSpec,
    scale: f64,
    tcfg: TelemetryConfig,
) -> (RunMetrics, Vec<TelemetryReport>) {
    run_traced_with_system_config(SystemConfig::with_icnt(preset.icnt(6)), spec, scale, tcfg)
}

/// Runs a whole benchmark list on one design point.
pub fn run_list(preset: Preset, specs: &[KernelSpec], scale: f64) -> Vec<SuiteResult> {
    specs
        .iter()
        .map(|spec| SuiteResult {
            name: spec.name.clone(),
            class: spec.class,
            metrics: run_benchmark(preset, spec, scale),
        })
        .collect()
}

/// Runs the full 31-benchmark suite on one design point.
pub fn run_suite(preset: Preset, scale: f64) -> Vec<SuiteResult> {
    run_list(preset, &tenoc_workloads::suite(), scale)
}

/// Kernel-length scale factor for harness runs: `TENOC_FULL=1` selects
/// full-length kernels, `TENOC_SCALE=<f>` an explicit factor; the default
/// is 0.12 (fast, preserves every qualitative trend).
pub fn scale_from_env() -> f64 {
    if std::env::var("TENOC_FULL").map(|v| v == "1").unwrap_or(false) {
        return 1.0;
    }
    std::env::var("TENOC_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|f| *f > 0.0)
        .unwrap_or(0.12)
}

/// Per-benchmark speedup (percent) of `new` over `base`, matched by name.
///
/// # Panics
///
/// Panics if the two sweeps cover different benchmarks.
pub fn speedups_percent(
    base: &[SuiteResult],
    new: &[SuiteResult],
) -> Vec<(String, TrafficClass, f64)> {
    assert_eq!(base.len(), new.len(), "mismatched sweeps");
    base.iter()
        .zip(new)
        .map(|(b, n)| {
            assert_eq!(b.name, n.name, "benchmark order mismatch");
            (b.name.clone(), b.class, (n.metrics.ipc / b.metrics.ipc - 1.0) * 100.0)
        })
        .collect()
}

/// Harmonic-mean IPC of a sweep.
pub fn hm_ipc(results: &[SuiteResult]) -> f64 {
    crate::metrics::harmonic_mean(results.iter().map(|r| r.metrics.ipc))
}

/// Harmonic-mean IPC restricted to one class.
pub fn hm_ipc_class(results: &[SuiteResult], class: TrafficClass) -> f64 {
    crate::metrics::harmonic_mean(
        results.iter().filter(|r| r.class == class).map(|r| r.metrics.ipc),
    )
}

/// Harmonic mean of per-benchmark speedup ratios (as the paper reports
/// "harmonic mean speedup").
///
/// A benchmark whose baseline retired nothing has no defined speedup
/// ([`RunMetrics::speedup_over`] returns `None`); it is **skipped with a
/// warning** on stderr rather than contributing a silent `0.0` that would
/// collapse the whole suite's harmonic mean to zero.
pub fn hm_speedup(base: &[SuiteResult], new: &[SuiteResult]) -> f64 {
    let ratios: Vec<f64> = base
        .iter()
        .zip(new)
        .filter_map(|(b, n)| match n.metrics.speedup_over(&b.metrics) {
            Some(r) => Some(r),
            None => {
                eprintln!(
                    "warning: skipping {} in hm_speedup: baseline IPC is {} (no defined speedup)",
                    b.name, b.metrics.ipc
                );
                None
            }
        })
        .collect();
    crate::metrics::harmonic_mean(ratios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenoc_workloads::by_name;

    const SCALE: f64 = 0.05;

    #[test]
    fn baseline_run_completes_for_each_class_representative() {
        for name in ["HIS", "MM", "RD"] {
            let spec = by_name(name).unwrap();
            let m = run_benchmark(Preset::BaselineTbDor, &spec, SCALE);
            assert!(m.completed, "{name}");
            assert!(m.ipc > 0.0);
        }
    }

    #[test]
    fn perfect_network_speedup_is_larger_for_hh_than_ll() {
        let ll = by_name("AES").unwrap();
        let hh = by_name("RD").unwrap();
        let sp = |spec: &tenoc_simt::KernelSpec| {
            let base = run_benchmark(Preset::BaselineTbDor, spec, SCALE);
            let perfect = run_benchmark(Preset::Perfect, spec, SCALE);
            perfect.ipc / base.ipc
        };
        let sp_ll = sp(&ll);
        let sp_hh = sp(&hh);
        assert!(sp_hh > sp_ll, "HH speedup ({sp_hh:.2}) must exceed LL speedup ({sp_ll:.2})");
        assert!(sp_ll < 1.35, "LL must be nearly network-insensitive: {sp_ll:.2}");
    }

    #[test]
    fn scale_env_default() {
        // Not setting the env vars in tests: default applies.
        let s = scale_from_env();
        assert!(s > 0.0 && s <= 1.0);
    }

    #[test]
    fn speedups_are_matched_by_name() {
        let specs = [by_name("HIS").unwrap()];
        let a = run_list(Preset::BaselineTbDor, &specs, SCALE);
        let b = run_list(Preset::Perfect, &specs, SCALE);
        let s = speedups_percent(&a, &b);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, "HIS");
    }

    /// Satellite regression: a zero-IPC baseline benchmark is skipped
    /// (with a warning) rather than zeroing the suite harmonic mean.
    #[test]
    fn hm_speedup_skips_degenerate_baselines() {
        let with_ipc = |name: &str, ipc: f64| SuiteResult {
            name: name.into(),
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
        };
        let base = [with_ipc("OK", 2.0), with_ipc("DEAD", 0.0)];
        let new = [with_ipc("OK", 4.0), with_ipc("DEAD", 1.0)];
        let hm = hm_speedup(&base, &new);
        assert!((hm - 2.0).abs() < 1e-12, "DEAD must be skipped, not zero the mean: {hm}");
        assert_eq!(hm_speedup(&base[1..], &new[1..]), 0.0, "nothing left after skipping");
    }

    /// Acceptance: tracing the thr-eff preset emits latency histograms
    /// for both classes, a per-link utilization heatmap matching the mesh
    /// dimensions, and a non-empty flight-recorder sample — and the
    /// metrics are identical to an untraced run.
    #[test]
    fn traced_thr_eff_run_emits_full_telemetry() {
        let spec = by_name("RD").unwrap();
        let untraced = run_benchmark(Preset::ThroughputEffective, &spec, SCALE);
        let (m, reports) = run_traced(
            Preset::ThroughputEffective,
            &spec,
            SCALE,
            tenoc_noc::TelemetryConfig::default(),
        );
        assert_eq!(m, untraced, "telemetry must not perturb the simulation");
        // Double network: one report per slice, each a 6x6 mesh.
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].label, "request");
        assert_eq!(reports[1].label, "reply");
        for r in &reports {
            assert_eq!(r.radix, 6);
            assert_eq!(r.heatmap.len(), 6);
            assert!(r.heatmap.iter().all(|row| row.len() == 6));
            assert!(r.heatmap.iter().flatten().any(|&u| u > 0.0), "{}: heat", r.label);
            assert!(!r.links.is_empty());
            assert!(!r.flight.is_empty(), "{}: flight recorder sample", r.label);
            assert!(r.avg_occupancy.iter().any(|&o| o > 0.0), "{}: occupancy", r.label);
        }
        // Both classes show up across the slices' histograms.
        assert!(reports[0].hist.total[0].count() > 0, "request-class histogram");
        assert!(reports[1].hist.total[1].count() > 0, "reply-class histogram");
        assert!(reports[0].hist.network[0].count() > 0);
        assert!(reports[1].hist.network[1].count() > 0);
    }
}
