//! Cross-crate integration tests asserting the *qualitative shapes* of the
//! paper's headline results on short kernels: who wins, and in what order.
//!
//! Every run here is pinned: `SCALE` is a compile-time constant (the env
//! override `TENOC_SCALE` is deliberately not consulted) and the seed is
//! the `SystemConfig` default, guarded by [`shapes_run_at_the_pinned_seed`].
//! The thresholds below are tolerance bands calibrated at exactly this
//! (seed, scale) point — change either and the bands must be re-derived.

use tenoc::core::area::{throughput_effectiveness, AreaModel};
use tenoc::core::experiments::{run_benchmark, run_with_system_config};
use tenoc::core::presets::Preset;
use tenoc::core::system::SystemConfig;
use tenoc::workloads::by_name;

const SCALE: f64 = 0.08;

/// The seed every `run_benchmark` call in this file implicitly uses.
const PINNED_SEED: u64 = 0x7e0c;

#[test]
fn shapes_run_at_the_pinned_seed() {
    // All tolerance bands in this file were calibrated at this default
    // seed. If this assertion fires, either restore the default or
    // re-derive every band in this file at the new seed.
    let cfg = SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(6));
    assert_eq!(
        cfg.seed, PINNED_SEED,
        "default SystemConfig seed changed; re-calibrate the shape-test tolerance bands"
    );
}

#[test]
fn perfect_network_helps_hh_much_more_than_ll() {
    let ll = by_name("AES").unwrap();
    let hh = by_name("KM").unwrap();
    let sp = |spec| {
        let b = run_benchmark(Preset::BaselineTbDor, spec, SCALE);
        let p = run_benchmark(Preset::Perfect, spec, SCALE);
        p.ipc / b.ipc
    };
    let s_ll = sp(&ll);
    let s_hh = sp(&hh);
    assert!(s_ll < 1.3, "LL perfect-NoC speedup must be small: {s_ll:.2}");
    assert!(s_hh > 1.5, "HH perfect-NoC speedup must be large: {s_hh:.2}");
}

#[test]
fn bandwidth_beats_latency_for_hh() {
    // Figure 9's conclusion: doubling channel width helps far more than
    // 1-cycle routers.
    let spec = by_name("SCP").unwrap();
    let base = run_benchmark(Preset::BaselineTbDor, &spec, SCALE);
    let bw = run_benchmark(Preset::TbDor2xBw, &spec, SCALE);
    let lat = run_benchmark(Preset::TbDor1Cycle, &spec, SCALE);
    let s_bw = bw.ipc / base.ipc;
    let s_lat = lat.ipc / base.ipc;
    assert!(s_bw > s_lat, "2x bandwidth ({s_bw:.2}) must beat 1-cycle routers ({s_lat:.2})");
    assert!(s_bw > 1.1, "2x bandwidth must clearly help an HH benchmark");
}

#[test]
fn checkerboard_placement_helps_heavy_traffic() {
    let spec = by_name("CFD").unwrap();
    let tb = run_benchmark(Preset::BaselineTbDor, &spec, SCALE);
    let cp = run_benchmark(Preset::CpDor2vc, &spec, SCALE);
    assert!(
        cp.ipc >= tb.ipc * 0.98,
        "staggered placement must not hurt heavy traffic: {} vs {}",
        cp.ipc,
        tb.ipc
    );
}

#[test]
fn checkerboard_routing_loses_little_vs_dor_at_equal_vcs() {
    // Figure 17: half-routers + CR vs full routers + DOR, both 4 VCs.
    let spec = by_name("MM").unwrap();
    let dor = run_benchmark(Preset::CpDor4vc, &spec, SCALE);
    let cr = run_benchmark(Preset::CpCr4vc, &spec, SCALE);
    let rel = cr.ipc / dor.ipc;
    assert!(rel > 0.85, "CR must be within ~15% of DOR at equal VCs, got {rel:.2}");
}

#[test]
fn multiport_injection_recovers_double_network_terminal_bandwidth() {
    // Figure 19: extra injection ports help the double network on HH.
    let spec = by_name("RD").unwrap();
    let double = run_benchmark(Preset::DoubleCpCr, &spec, SCALE);
    let multi = run_benchmark(Preset::DoubleCpCr2InjPorts, &spec, SCALE);
    assert!(
        multi.ipc > double.ipc * 0.95,
        "2 injection ports must not hurt an HH benchmark: {} vs {}",
        multi.ipc,
        double.ipc
    );
    // The paper's strongest observable: extra ports cut the time the MC
    // is blocked on reply injection (38.5% reduction in the paper).
    assert!(
        multi.mc_stall_fraction < double.mc_stall_fraction * 0.9,
        "extra injection ports must reduce MC blocking: {} vs {}",
        multi.mc_stall_fraction,
        double.mc_stall_fraction
    );
}

#[test]
fn throughput_effective_design_improves_ipc_per_area() {
    // The headline: the combined design improves IPC/mm² whenever raw IPC
    // roughly matches the baseline, because the NoC shrinks. Use a light
    // benchmark whose IPC is network-insensitive.
    let spec = by_name("HIS").unwrap();
    let base = run_benchmark(Preset::BaselineTbDor, &spec, SCALE);
    let te = run_benchmark(Preset::ThroughputEffective, &spec, SCALE);
    let a_base = AreaModel::chip_area(&Preset::BaselineTbDor.icnt(6));
    let a_te = AreaModel::chip_area(&Preset::ThroughputEffective.icnt(6));
    let te_eff = throughput_effectiveness(te.ipc, &a_te);
    let base_eff = throughput_effectiveness(base.ipc, &a_base);
    assert!(
        te_eff > base_eff,
        "throughput-effectiveness must improve: {te_eff:.4} vs {base_eff:.4}"
    );
}

#[test]
fn mc_stalls_track_traffic_intensity() {
    // Figure 11's shape: HH benchmarks block the MCs' reply path far more
    // than LL benchmarks.
    let ll = run_benchmark(Preset::BaselineTbDor, &by_name("BIN").unwrap(), SCALE);
    let hh = run_benchmark(Preset::BaselineTbDor, &by_name("LIB").unwrap(), SCALE);
    assert!(ll.mc_stall_fraction < 0.2, "LL stall {:.2}", ll.mc_stall_fraction);
    assert!(hh.mc_stall_fraction > 0.4, "HH stall {:.2}", hh.mc_stall_fraction);
}

#[test]
fn bandwidth_limit_study_is_monotone() {
    // Figure 6's shape: more aggregate bandwidth never hurts, and the
    // curve flattens near the DRAM-balance point.
    let spec = by_name("KM").unwrap();
    let lo = run_benchmark(Preset::BwLimited(0.2), &spec, SCALE);
    let mid = run_benchmark(Preset::BwLimited(0.8), &spec, SCALE);
    let hi = run_benchmark(Preset::BwLimited(1.6), &spec, SCALE);
    let perfect = run_benchmark(Preset::Perfect, &spec, SCALE);
    assert!(lo.ipc <= mid.ipc * 1.01);
    assert!(mid.ipc <= hi.ipc * 1.01);
    // A finite cap can slightly beat the perfect network by accident of
    // DRAM scheduling, so allow a small tolerance.
    assert!(hi.ipc <= perfect.ipc * 1.05);
    assert!(
        lo.ipc < mid.ipc * 0.7,
        "an HH benchmark must be clearly bandwidth-starved at 0.2x: {} vs {}",
        lo.ipc,
        mid.ipc
    );
    assert!(
        hi.ipc > perfect.ipc * 0.8,
        "1.6x DRAM bandwidth must be close to infinite: {} vs {}",
        hi.ipc,
        perfect.ipc
    );
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
