//! Tier-1 regression tests over the tuner's checked-in frontier
//! snapshot (`tests/golden/frontier.json`).
//!
//! The snapshot is produced by the full staged search (`tenoc tune --k 6
//! --golden tests/golden/frontier.json --bless`), which is a release-
//! build job (~20 s; CI re-runs it and diffs byte-for-byte at two worker
//! counts). These tests stay cheap by *parsing* the snapshot and pinning
//! the properties the search exists to deliver: the paper's
//! throughput-effective design is rediscovered on the Pareto frontier,
//! and every enumerated grid point is accounted for in the per-stage
//! counts — no silent truncation.

use serde::Deserialize;
use tenoc::tune::TuneReport;

fn golden() -> TuneReport {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frontier.json");
    let text = std::fs::read_to_string(path).expect("tests/golden/frontier.json present");
    serde::json::parse(&text)
        .and_then(|v| TuneReport::from_value(&v))
        .expect("frontier snapshot parses as a TuneReport")
}

#[test]
fn frontier_snapshot_rediscovers_the_throughput_effective_design() {
    let report = golden();
    assert!(
        report.frontier_has_alias("Thr-Eff"),
        "the k=6 frontier must contain the paper's throughput-effective design; got: {:?}",
        report.frontier.iter().map(|p| p.name.as_str()).collect::<Vec<_>>()
    );
    // And the report must say where the other organizations landed.
    for preset in ["Torus-DOR", "CMesh-DOR", "TB-DOR"] {
        let np = report
            .named_points
            .iter()
            .find(|n| n.preset == preset)
            .unwrap_or_else(|| panic!("{preset} missing from named_points"));
        assert_eq!(np.stage_reached, "finalist", "pinned {preset} must ride to the finalists");
    }
}

#[test]
fn frontier_snapshot_accounts_for_every_grid_point() {
    let report = golden();
    let c = &report.counts;
    assert_eq!(
        c.enumerated + c.pinned_out_of_grid,
        c.unconstructible + c.rejected + c.legal,
        "per-stage counts must balance: every enumerated point is somewhere"
    );
    assert!(c.legal >= c.stage1_promoted);
    assert!(c.stage1_promoted >= c.stage2_promoted);
    assert!(c.finalists >= c.frontier && c.frontier >= 1);
    // Every rejection in the tally is backed by named witnesses.
    let rejected_names: u64 = report.rejections.iter().map(|r| r.names.len() as u64).sum();
    assert_eq!(rejected_names, c.unconstructible + c.rejected);
}

#[test]
fn frontier_points_carry_resolved_configs_and_heatmaps() {
    let report = golden();
    assert_eq!(report.k, 6);
    for p in &report.frontier {
        assert!(!p.config_hash.is_empty(), "{}: fingerprint missing", p.name);
        assert!(p.resolved.field("kind").is_ok(), "{}: resolved config missing", p.name);
        assert!(!p.heatmaps.is_empty(), "{}: telemetry heatmap missing", p.name);
        for h in &p.heatmaps {
            assert_eq!(h.heatmap.len(), 6, "{}: heatmap is k rows", p.name);
        }
    }
    // Frontier is sorted by area with strictly increasing performance.
    for w in report.frontier.windows(2) {
        assert!(w[0].area_mm2 <= w[1].area_mm2);
        assert!(w[0].hm_ipc < w[1].hm_ipc);
    }
}
