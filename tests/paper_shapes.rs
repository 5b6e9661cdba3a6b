//! Cross-crate integration tests asserting the *qualitative shapes* of the
//! paper's headline results on short kernels: who wins, and in what order.
//!
//! Every run here is pinned: `SCALE` is a compile-time constant (the env
//! override `TENOC_SCALE` is deliberately not consulted) and the seed is
//! the `SystemConfig` default, guarded by [`shapes_run_at_the_pinned_seed`].
//! The thresholds below are tolerance bands calibrated at exactly this
//! (seed, scale) point — change either and the bands must be re-derived.
//! The quantities they bound come from `tenoc::harness::figures`, the
//! reducers behind every printed figure; nothing is re-derived here.

use tenoc::core::experiments::{run_benchmark, run_with_system_config};
use tenoc::core::presets::Preset;
use tenoc::core::system::SystemConfig;
use tenoc::harness::figures::{figure, Report};
use tenoc::harness::{jobs_from_env, run_grid, SweepGrid};
use tenoc::workloads::by_name;

const SCALE: f64 = 0.08;

/// The seed every cell in this file runs at: `SweepGrid::suites` pins
/// the system default.
const PINNED_SEED: u64 = 0x7e0c;

/// The figure EXPERIMENTS.md calls `id`, reduced over its presets' runs
/// of `benchmarks` alone: the numbers asserted below are the ones
/// `tenoc figures --only figures` prints, on a grid small enough for tier 1.
fn reduced(id: &str, benchmarks: &[&str]) -> Report {
    let fig = figure(id);
    let mut grid = SweepGrid::suites(fig.presets, SCALE);
    grid.benchmarks = benchmarks.iter().map(|b| b.to_string()).collect();
    (fig.reduce)(&run_grid(&grid, jobs_from_env().unwrap()))
}

/// The number in column `head` of the row whose first cell reads `name`.
fn value(report: &Report, name: &str, head: &str) -> f64 {
    let col = report.head.iter().position(|h| *h == head).expect("column head");
    report.rows.iter().find(|r| r[0].text == name).expect("row name")[col].value
}

/// The number measured for summary row `row`.
fn measured(report: &Report, row: &str) -> f64 {
    report.summary.iter().find(|s| s.0 == row).expect("summary row").2.value
}

#[test]
fn shapes_run_at_the_pinned_seed() {
    // All tolerance bands in this file were calibrated at this default
    // seed. If this assertion fires, either restore the default or
    // re-derive every band in this file at the new seed.
    let cfg = SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(6));
    assert_eq!(
        (cfg.seed, tenoc::core::DEFAULT_SEED),
        (PINNED_SEED, PINNED_SEED),
        "default SystemConfig seed changed; re-calibrate the shape-test tolerance bands"
    );
}

#[test]
fn perfect_network_helps_hh_much_more_than_ll() {
    let fig7 = reduced("Fig 7", &["AES", "KM"]);
    let (s_ll, s_hh) = (value(&fig7, "AES", "speedup"), value(&fig7, "KM", "speedup"));
    assert!(s_ll < 30.0, "LL perfect-NoC speedup must be small: {s_ll:+.0}%");
    assert!(s_hh > 50.0, "HH perfect-NoC speedup must be large: {s_hh:+.0}%");
}

#[test]
fn bandwidth_beats_latency_for_hh() {
    // Figure 9's conclusion: doubling channel width helps far more than
    // 1-cycle routers.
    let fig9 = reduced("Fig 9", &["SCP"]);
    let (s_bw, s_lat) =
        (value(&fig9, "SCP", "2x bandwidth"), value(&fig9, "SCP", "1-cycle router"));
    assert!(s_bw > s_lat, "2x bandwidth ({s_bw:+.0}%) must beat 1-cycle routers ({s_lat:+.0}%)");
    assert!(s_bw > 10.0, "2x bandwidth must clearly help an HH benchmark");
}

#[test]
fn checkerboard_placement_helps_heavy_traffic() {
    let gain = value(&reduced("Fig 16", &["CFD"]), "CFD", "speedup");
    assert!(gain >= -2.0, "staggered placement must not hurt heavy traffic: {gain:+.1}%");
}

#[test]
fn checkerboard_routing_loses_little_vs_dor_at_equal_vcs() {
    // Figure 17: half-routers + CR vs full routers + DOR, both 4 VCs.
    let rel = measured(&reduced("Fig 17", &["MM"]), "CR-4VC vs DOR-4VC");
    assert!(rel > -15.0, "CR must be within ~15% of DOR at equal VCs, got {rel:+.1}%");
}

#[test]
fn multiport_injection_recovers_double_network_terminal_bandwidth() {
    // Figure 19: extra injection ports help the double network on HH.
    let fig19 = reduced("Fig 19", &["RD"]);
    let gain = value(&fig19, "RD", "2 inj");
    assert!(gain > -5.0, "2 injection ports must not hurt an HH benchmark: {gain:+.1}%");
    // The paper's strongest observable: extra ports cut the time the MC
    // is blocked on reply injection (38.5% reduction in the paper).
    let blocked = measured(&fig19, "MC blocked time, 2 inj ports");
    assert!(blocked < -10.0, "extra injection ports must reduce MC blocking: {blocked:+.1}%");
}

#[test]
fn throughput_effective_design_improves_ipc_per_area() {
    // The headline: the combined design improves IPC/mm² whenever raw IPC
    // roughly matches the baseline, because the NoC shrinks. Use a light
    // benchmark whose IPC is network-insensitive.
    let gain = measured(&reduced("Fig 20", &["HIS"]), "IPC/mm² gain");
    assert!(gain > 0.0, "throughput-effectiveness must improve: {gain:+.1}%");
}

#[test]
fn mc_stalls_track_traffic_intensity() {
    // Figure 11's shape: HH benchmarks block the MCs' reply path far more
    // than LL benchmarks.
    let fig11 = reduced("Fig 11", &["BIN", "LIB"]);
    let (ll, hh) = (value(&fig11, "BIN", "stalled"), value(&fig11, "LIB", "stalled"));
    assert!(ll < 20.0, "LL stall {ll:.0}%");
    assert!(hh > 40.0, "HH stall {hh:.0}%");
}

#[test]
fn bandwidth_limit_study_is_monotone() {
    // Figure 6's shape: more aggregate bandwidth never hurts, and the
    // curve flattens near the DRAM-balance point. IPC is read as a
    // fraction of the perfect network's.
    let fig6 = reduced("Fig 6", &["KM"]);
    let of_perfect = |x| value(&fig6, x, "norm. IPC");
    let (lo, mid, hi) = (of_perfect("0.20"), of_perfect("0.80"), of_perfect("1.60"));
    assert!(lo <= mid * 1.01);
    assert!(mid <= hi * 1.01);
    // A finite cap can slightly beat the perfect network by accident of
    // DRAM scheduling, so allow a small tolerance.
    assert!(hi <= 1.05);
    assert!(
        lo < mid * 0.7,
        "an HH benchmark must be clearly bandwidth-starved at 0.2x: {lo} vs {mid}"
    );
    assert!(hi > 0.8, "1.6x DRAM bandwidth must be close to infinite: {hi} of perfect");
}

/// Table I over the whole suite: one row per benchmark with its intended
/// class, the measured one, and a `match` column that says whether they
/// agree; the summary counts the agreeing rows.
#[test]
fn table_one_classifies_every_benchmark_and_counts_its_matches() {
    let fig = figure("Table I");
    let jobs = jobs_from_env().unwrap();
    let table = (fig.reduce)(&run_grid(&SweepGrid::suites(fig.presets, SCALE), jobs));
    assert_eq!(table.head.len(), 6);
    assert_eq!(table.rows.len(), 31);
    let mut matched = 0;
    for row in &table.rows {
        let [_bench, intended, speedup, bytes, measured, matches] = &row[..] else {
            panic!("6 columns: {}", row.len())
        };
        let (intended, measured) = (intended.text.as_str(), measured.text.as_str());
        assert!(["LL", "LH", "HH"].contains(&intended), "intended {intended}");
        assert!(["LL", "LH", "HL", "HH"].contains(&measured), "measured {measured}");
        assert!(speedup.text.ends_with('%') && bytes.text.parse::<f64>().is_ok());
        assert_eq!(matches.text, if intended == measured { "yes" } else { "NO" });
        matched += (intended == measured) as usize;
    }
    let counted = &table.summary.iter().find(|s| s.0 == "in intended class").unwrap().2;
    assert_eq!(counted.text, matched.to_string());
}

#[test]
fn runs_are_deterministic_across_processes_and_configs() {
    let spec = by_name("HIS").unwrap();
    let a = run_benchmark(Preset::CpCr4vc, &spec, SCALE);
    let b = run_benchmark(Preset::CpCr4vc, &spec, SCALE);
    assert_eq!(a.core_cycles, b.core_cycles);
    assert_eq!(a.scalar_insts, b.scalar_insts);
    assert_eq!(a.ipc, b.ipc);
}

#[test]
fn custom_icnt_configs_run_end_to_end() {
    use tenoc::core::system::IcntConfig;
    use tenoc::noc::NetworkConfig;
    let spec = by_name("HIS").unwrap();
    let run =
        |net| run_with_system_config(SystemConfig::with_icnt(IcntConfig::Mesh(net)), &spec, 0.05);
    // An 8x8 mesh with 8 MCs: the stack is not hard-coded to 6x6.
    assert!(run(NetworkConfig::baseline_mesh(8)).completed);
    assert!(run(NetworkConfig::checkerboard_mesh(8)).completed);
}
