//! Which engine a cell runs on, observed from outside: every physical
//! fabric's `run_cell` (arena kernel by default) must measure exactly
//! what a [`System`] forced onto the per-router oracle measures and what
//! the same configuration measures with telemetry armed (one report per
//! physical network), and the limit-study presets must build their ideal
//! networks.

use tenoc_core::experiments::run_traced_with_system_config;
use tenoc_core::{EngineKind, IcntConfig, Preset, System, TelemetryConfig};
use tenoc_harness::{cell_system_config, run_cell, SeedMode, SweepCell, SweepGrid};

const SCALE: f64 = 0.02;

fn cell(preset: Preset, benchmark: &str) -> SweepCell {
    SweepGrid::new(vec![preset], vec![benchmark.into()], SCALE)
        .with_seed_mode(SeedMode::Derived(0x7e0c))
        .cell(0)
}

#[test]
fn every_named_fabric_matches_the_forced_oracle() {
    let spec = tenoc_workloads::by_name("RD").unwrap().scaled(SCALE);
    for preset in Preset::NAMED {
        let cell = cell(preset, "RD");
        let mut cfg = cell_system_config(&cell);
        assert_eq!(cfg.engine, EngineKind::Arena, "{}: cells default to the arena", preset.label());
        cfg.engine = EngineKind::PerCell;
        let oracle = System::new(cfg, &spec).run();
        assert!(oracle.completed, "{}: oracle run must drain", preset.label());
        assert_eq!(run_cell(&cell).metrics, oracle, "{}: engines diverged", preset.label());
    }
}

#[test]
fn every_named_fabric_is_unperturbed_by_telemetry() {
    let spec = tenoc_workloads::by_name("HIS").unwrap();
    for preset in Preset::NAMED {
        let cell = cell(preset, "HIS");
        let cfg = cell_system_config(&cell);
        let nets = match cfg.icnt {
            IcntConfig::Mesh(_) => 1,
            IcntConfig::Double(_) => 2,
            IcntConfig::Perfect(_) | IcntConfig::BwLimited(..) => 0,
        };
        let (traced, reports) =
            run_traced_with_system_config(cfg, &spec, SCALE, TelemetryConfig::default());
        assert_eq!(reports.len(), nets, "{}: one report per physical network", preset.label());
        assert_eq!(run_cell(&cell).metrics, traced, "{}: telemetry perturbed", preset.label());
    }
}

#[test]
fn limit_study_presets_build_their_ideal_networks() {
    let mesh = run_cell(&cell(Preset::BaselineTbDor, "RD")).metrics;
    let perfect = run_cell(&cell(Preset::Perfect, "RD")).metrics;
    let capped = run_cell(&cell(Preset::BwLimited(0.2), "RD")).metrics;
    // Ideal networks have no links, and the cap must bind on an HH kernel.
    assert!(mesh.flit_hops > 0);
    assert_eq!(perfect.flit_hops, 0);
    assert_eq!(capped.flit_hops, 0);
    assert!(perfect.ipc > capped.ipc, "bandwidth cap must bind: {perfect:?} vs {capped:?}");
    assert!(perfect.ipc > mesh.ipc);
}
