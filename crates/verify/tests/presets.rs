//! Conformance: every shipped tenoc-core preset verifies clean.
//!
//! The prover alone, on the presets `tenoc audit` also verifies: if any
//! paper design point permits a routing deadlock, an unroutable MC pair,
//! a half-router turn or a broken VC partition, this test names it and
//! prints the full report.

use tenoc_core::presets::Preset;
use tenoc_core::system::IcntConfig;
use tenoc_verify::{analyze, analyze_double};

#[test]
fn all_presets_verify_clean_at_paper_scale() {
    let mut verified = 0;
    for preset in Preset::NAMED {
        let label = preset.label();
        let report = match preset.icnt(6) {
            IcntConfig::Mesh(c) => analyze(&c),
            IcntConfig::Double(c) => analyze_double(&c),
            // Idealized interconnects have no routed fabric to verify.
            IcntConfig::Perfect(_) | IcntConfig::BwLimited(..) => continue,
        };
        assert!(report.is_clean(), "{label}: {report}");
        assert!(report.stats.plans_traced > 0, "{label}: nothing was traced");
        verified += 1;
    }
    assert!(verified >= 10, "most presets carry a routed network ({verified} verified)");
}

#[test]
fn presets_verify_clean_at_other_radices() {
    for k in [4, 8] {
        for preset in [Preset::BaselineTbDor, Preset::CpCr4vc, Preset::DoubleCpCr] {
            let label = preset.label();
            let report = match preset.icnt(k) {
                IcntConfig::Mesh(c) => analyze(&c),
                IcntConfig::Double(c) => analyze_double(&c),
                IcntConfig::Perfect(_) | IcntConfig::BwLimited(..) => continue,
            };
            assert!(report.is_clean(), "{label} at k={k}: {report}");
        }
    }
}
