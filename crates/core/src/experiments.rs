//! The closed-loop runner: one run of one benchmark on one system
//! configuration, plain or with telemetry armed. Everything that runs
//! more than one cell — suites, sweeps, the service, the tuner, the
//! figure benches — plans a grid and hands it to `tenoc-harness`'s
//! `run_grid`, whose cell body is [`run_with_system_config`].

use crate::metrics::RunMetrics;
use crate::presets::Preset;
use crate::system::{System, SystemConfig};
use tenoc_noc::{TelemetryConfig, TelemetryReport};
use tenoc_simt::KernelSpec;

/// Runs one benchmark on one preset at the paper's 6x6 mesh and the
/// default seed. `scale` shortens the kernel (1.0 = full length; the
/// harness default is read from the environment via [`scale_from_env`]).
///
/// # Panics
///
/// Panics if the run hits the safety cycle limit without completing —
/// closed-loop runs must always drain.
pub fn run_benchmark(preset: Preset, spec: &KernelSpec, scale: f64) -> RunMetrics {
    run_with_system_config(SystemConfig::with_icnt(preset.icnt(6)), spec, scale)
}

/// Runs one benchmark on a fully explicit system configuration: any
/// interconnect via [`SystemConfig::with_icnt`], and the non-NoC
/// parameters ablation studies vary (DRAM scheduling policy, L2 geometry,
/// concentration).
///
/// # Panics
///
/// Panics if the run does not complete (deadlock or cycle-limit).
pub fn run_with_system_config(cfg: SystemConfig, spec: &KernelSpec, scale: f64) -> RunMetrics {
    run(cfg, spec, scale, None).0
}

/// Like [`run_with_system_config`], with the interconnect's telemetry
/// armed for the whole run (the engine behind `tenoc trace`). Returns the
/// metrics (identical to an untraced run — telemetry observes without
/// perturbing) plus one [`TelemetryReport`] per physical network (empty
/// for ideal networks).
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
    run(cfg, spec, scale, Some(tcfg))
}

/// The one run body: build, optionally arm telemetry, run to completion.
fn run(
    cfg: SystemConfig,
    spec: &KernelSpec,
    scale: f64,
    telemetry: Option<TelemetryConfig>,
) -> (RunMetrics, Vec<TelemetryReport>) {
    let scaled = spec.scaled(scale);
    let mut sys = System::new(cfg, &scaled);
    if let Some(tcfg) = telemetry {
        sys.enable_telemetry(tcfg);
    }
    let m = sys.run();
    assert!(m.completed, "{} did not complete (possible deadlock)", scaled.name);
    (m, sys.telemetry_reports())
}

/// Reads the environment knob `name`: `Ok(None)` when it is unset, and an
/// error naming the variable and its value when it is set to something
/// that does not parse as `T` or fails `ok` — a mistyped knob must not
/// silently run the default experiment, any more than a mistyped flag.
///
/// # Errors
///
/// Returns `NAME=value is not <expects>`.
pub fn env_knob<T: std::str::FromStr>(
    name: &str,
    expects: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<Option<T>, String> {
    let Some(raw) = std::env::var_os(name) else { return Ok(None) };
    match raw.to_str().and_then(|v| v.parse().ok()).filter(ok) {
        Some(value) => Ok(Some(value)),
        None => Err(format!("{name}={} is not {expects}", raw.to_string_lossy())),
    }
}

/// Kernel-length scale factor for harness runs: `TENOC_FULL=1` selects
/// full-length kernels, `TENOC_SCALE=<f>` an explicit factor; the default
/// is 0.12 (fast, preserves every qualitative trend).
///
/// # Errors
///
/// Returns a message naming `TENOC_SCALE` when it is set to anything but
/// a finite factor above zero (the `--scale` flag's predicate).
pub fn scale_from_env() -> Result<f64, String> {
    if std::env::var("TENOC_FULL").map(|v| v == "1").unwrap_or(false) {
        return Ok(1.0);
    }
    let scale =
        env_knob("TENOC_SCALE", "a finite scale factor > 0", |f: &f64| *f > 0.0 && f.is_finite())?;
    Ok(scale.unwrap_or(0.12))
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
        let s = scale_from_env().unwrap();
        assert!(s > 0.0 && s <= 1.0);
    }

    /// Acceptance: tracing the thr-eff preset emits latency histograms
    /// for both classes, a per-link utilization heatmap matching the mesh
    /// dimensions, and a non-empty flight-recorder sample — and the
    /// metrics are identical to an untraced run.
    #[test]
    fn traced_thr_eff_run_emits_full_telemetry() {
        let spec = by_name("RD").unwrap();
        let untraced = run_benchmark(Preset::ThroughputEffective, &spec, SCALE);
        let (m, reports) = run_traced_with_system_config(
            SystemConfig::with_icnt(Preset::ThroughputEffective.icnt(6)),
            &spec,
            SCALE,
            TelemetryConfig::default(),
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
