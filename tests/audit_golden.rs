//! Tier-1 golden-snapshot regression test for the static config-space
//! audit: `tenoc audit` is pure arithmetic over the routing function and
//! the area model, so its JSON report must be byte-stable.
//!
//! When an intentional change moves the numbers, refresh the snapshot
//! with `cargo run --release --bin tenoc -- audit --golden
//! tests/golden/audit.json --bless` and review the diff like any other
//! code change.
//!
//! The snapshot pins k = 6; the legality facts below also hold at k = 4:
//! every named preset verifies clean, and every illegal variant is
//! rejected with the prover's witness — for the torus without dateline
//! VCs, a dependency cycle through a wraparound link.

use tenoc::core::{audit_grid, AuditEntry, AuditReport, Preset};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/audit.json")
}

#[test]
fn audit_report_matches_checked_in_snapshot() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden snapshot present");
    let current = audit_grid(6).to_json();
    assert!(
        golden.trim() == current.trim(),
        "audit report drifted from tests/golden/audit.json; if intended, re-bless with \
         `cargo run --release --bin tenoc -- audit --golden tests/golden/audit.json --bless`"
    );
}

#[test]
fn audit_ranks_legal_physical_designs_first() {
    let report = audit_grid(6);
    let ranked: Vec<&str> = report.ranked().map(|e| e.name.as_str()).collect();
    assert!(!ranked.is_empty());
    // The paper's headline ordering: the throughput-effective family
    // (channel-sliced checkerboard with multi-port MCs) beats every
    // baseline-mesh variant per mm².
    let score_of =
        |name: &str| report.entries.iter().find(|e| e.name == name).map(|e| e.te_score).unwrap();
    assert!(score_of("CP-CR-2P(single)") > score_of("CP-CR-4VC"));
    assert!(score_of("CP-CR-4VC") > score_of("CP-DOR-2VC"));
    assert!(score_of("CP-DOR-2VC") > score_of("TB-DOR"));
    assert!(score_of("TB-DOR") > score_of("2x-TB-DOR"));
    // Illegal variants are rejected with witnesses, never ranked.
    for e in &report.entries {
        if !e.legal {
            assert!(!e.violations.is_empty(), "{}: illegal without witness", e.name);
            assert!(e.matrices.is_empty(), "{}: illegal config was load-analyzed", e.name);
        }
    }
    assert!(report.entries.iter().filter(|e| !e.legal).count() >= 2);
}

fn entry<'a>(report: &'a AuditReport, name: &str) -> &'a AuditEntry {
    let found = report.entries.iter().find(|e| e.name == name);
    found.unwrap_or_else(|| panic!("k={}: no audit entry {name}", report.k))
}

/// The one violation of `kind` an entry carries (`routing-deadlock`,
/// `turn-legality`, ...).
fn witness<'a>(e: &'a AuditEntry, kind: &str) -> &'a str {
    let prefix = format!("[VIOLATION] {kind}: ");
    let found = e.violations.iter().find(|v| v.starts_with(&prefix));
    found.unwrap_or_else(|| panic!("{}: no {kind} witness in {:?}", e.name, e.violations))
}

#[test]
fn every_named_preset_is_legal_at_k4_and_k6() {
    for k in [4, 6] {
        let report = audit_grid(k);
        for preset in Preset::NAMED {
            let e = entry(&report, &preset.label());
            assert!(e.legal && e.violations.is_empty(), "k={k} {}: {:?}", e.name, e.violations);
            // A routed fabric was load-analyzed under all three matrices.
            assert_eq!(e.matrices.len(), if e.ideal { 0 } else { 3 }, "k={k} {}", e.name);
        }
        assert_eq!(report.entries.len(), Preset::NAMED.len() + 3, "k={k}");
    }
}

#[test]
fn illegal_variants_are_rejected_with_witnesses_at_k4_and_k6() {
    for k in [4, 6] {
        let report = audit_grid(k);
        // Checkerboard routing without phase-split VCs and a torus without
        // dateline VCs deadlock; O1TURN on half-routers turns illegally.
        for (name, kind) in [
            ("CR-unsplit-VCs", "routing-deadlock"),
            ("Torus-no-dateline", "routing-deadlock"),
            ("O1TURN-on-CR-mesh", "turn-legality"),
        ] {
            let e = entry(&report, name);
            assert!(!e.legal && e.matrices.is_empty(), "k={k} {name}");
            let text = witness(e, kind);
            if kind == "routing-deadlock" {
                assert!(text.contains("has a cycle of length"), "k={k} {name}: {text}");
            }
        }
    }
}

#[test]
fn torus_without_dateline_deadlocks_across_a_wraparound_link() {
    for k in [4, 6] {
        let report = audit_grid(k);
        let cycle = witness(entry(&report, "Torus-no-dateline"), "routing-deadlock");
        // A wraparound link reads (k-1,y)->(0,y), (0,y)->(k-1,y),
        // (x,k-1)->(x,0) or (x,0)->(x,k-1).
        let rim = k - 1;
        let crosses_wrap = (0..k).any(|i| {
            [
                format!("({rim},{i})->(0,{i})"),
                format!("(0,{i})->({rim},{i})"),
                format!("({i},{rim})->({i},0)"),
                format!("({i},0)->({i},{rim})"),
            ]
            .iter()
            .any(|link| cycle.contains(link.as_str()))
        });
        assert!(crosses_wrap, "k={k}: the cycle does not cross a wraparound link:\n{cycle}");
    }
}
