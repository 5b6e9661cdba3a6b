//! Which engine a cell runs on, observed from outside: every physical
//! fabric's `run_cell` (arena kernel by default) must measure exactly
//! what a [`System`] forced onto the per-router oracle measures,
//! telemetry cells must produce reports without perturbing the run, and
//! the limit-study presets must build their ideal networks.

use tenoc_core::{EngineKind, Preset, System};
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
fn telemetry_cells_report_without_perturbing() {
    for preset in [Preset::BaselineTbDor, Preset::ThroughputEffective] {
        let plain = cell(preset, "HIS");
        let mut armed = plain.clone();
        armed.telemetry = true;
        let (plain, armed) = (run_cell(&plain), run_cell(&armed));
        let nets = if preset == Preset::ThroughputEffective { 2 } else { 1 };
        assert_eq!(armed.telemetry.len(), nets, "{}: one report per network", preset.label());
        assert!(plain.telemetry.is_empty());
        assert_eq!(armed.metrics, plain.metrics, "telemetry must not perturb the run");
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
