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

use serde::json::Value;

/// The snapshot as a JSON tree: the report is an output format, so the
/// test reads it the way any consumer would, without a typed decoder.
fn golden() -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frontier.json");
    let text = std::fs::read_to_string(path).expect("tests/golden/frontier.json present");
    serde::json::parse(&text).expect("frontier snapshot is JSON")
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.field(name).unwrap_or_else(|e| panic!("{e}"))
}

fn items<'a>(v: &'a Value, name: &str) -> &'a [Value] {
    field(v, name).as_array().unwrap_or_else(|e| panic!("`{name}`: {e}"))
}

fn text<'a>(v: &'a Value, name: &str) -> &'a str {
    field(v, name).as_str().unwrap_or_else(|e| panic!("`{name}`: {e}"))
}

fn num(v: &Value, name: &str) -> f64 {
    field(v, name).as_f64().unwrap_or_else(|e| panic!("`{name}`: {e}"))
}

fn count(v: &Value, name: &str) -> u64 {
    field(v, name).as_u64().unwrap_or_else(|e| panic!("`{name}`: {e}"))
}

#[test]
fn frontier_snapshot_rediscovers_the_throughput_effective_design() {
    let report = golden();
    let frontier = items(&report, "frontier");
    assert!(
        frontier
            .iter()
            .any(|p| items(p, "aliases").iter().any(|a| a == &Value::String("Thr-Eff".into()))),
        "the k=6 frontier must contain the paper's throughput-effective design; got: {:?}",
        frontier.iter().map(|p| text(p, "name")).collect::<Vec<_>>()
    );
    // And the report must say where the other organizations landed.
    for preset in ["Torus-DOR", "CMesh-DOR", "TB-DOR"] {
        let np = items(&report, "named_points")
            .iter()
            .find(|n| text(n, "preset") == preset)
            .unwrap_or_else(|| panic!("{preset} missing from named_points"));
        assert_eq!(
            text(np, "stage_reached"),
            "finalist",
            "pinned {preset} must ride to the finalists"
        );
    }
}

#[test]
fn frontier_snapshot_accounts_for_every_grid_point() {
    let report = golden();
    let c = field(&report, "counts");
    assert_eq!(
        count(c, "enumerated") + count(c, "pinned_out_of_grid"),
        count(c, "unconstructible") + count(c, "rejected") + count(c, "legal"),
        "per-stage counts must balance: every enumerated point is somewhere"
    );
    assert!(count(c, "legal") >= count(c, "stage1_promoted"));
    assert!(count(c, "stage1_promoted") >= count(c, "stage2_promoted"));
    assert!(count(c, "finalists") >= count(c, "frontier") && count(c, "frontier") >= 1);
    // Every rejection in the tally is backed by named witnesses.
    let rejected_names: u64 =
        items(&report, "rejections").iter().map(|r| items(r, "names").len() as u64).sum();
    assert_eq!(rejected_names, count(c, "unconstructible") + count(c, "rejected"));
}

#[test]
fn frontier_points_carry_resolved_configs_and_heatmaps() {
    let report = golden();
    assert_eq!(count(&report, "k"), 6);
    let frontier = items(&report, "frontier");
    for p in frontier {
        let name = text(p, "name");
        assert!(!text(p, "config_hash").is_empty(), "{name}: fingerprint missing");
        assert!(field(p, "resolved").field("kind").is_ok(), "{name}: resolved config missing");
        let heatmaps = items(p, "heatmaps");
        assert!(!heatmaps.is_empty(), "{name}: telemetry heatmap missing");
        for h in heatmaps {
            assert_eq!(items(h, "heatmap").len(), 6, "{name}: heatmap is k rows");
        }
    }
    // Frontier is sorted by area with strictly increasing performance.
    for w in frontier.windows(2) {
        assert!(num(&w[0], "area_mm2") <= num(&w[1], "area_mm2"));
        assert!(num(&w[0], "hm_ipc") < num(&w[1], "hm_ipc"));
    }
}
