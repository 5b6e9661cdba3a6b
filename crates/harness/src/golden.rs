//! Golden-snapshot support: the canonical tiny grid whose fingerprints
//! are checked into `tests/golden/`, and the comparison logic the
//! regression tests and `tenoc sweep --check` share.

use crate::grid::{SeedMode, SweepGrid};
use crate::record::RunRecord;
use tenoc_core::Preset;

/// Kernel-length scale of the golden grid: small enough that the whole
/// sweep finishes in seconds, large enough that every cell moves real
/// traffic through the network.
pub(crate) const TINY_SCALE: f64 = 0.02;

/// The canonical tiny golden grid: three design points that exercise the
/// mesh, the checkerboard router/routing pair and the combined
/// throughput-effective (double-network) configuration, each over the
/// three-class smoke suite (`HIS`/`MM`/`RD`), with derived per-cell seeds.
pub fn tiny_grid() -> SweepGrid {
    SweepGrid::new(
        vec![Preset::BaselineTbDor, Preset::CpCr4vc, Preset::ThroughputEffective],
        vec!["HIS".into(), "MM".into(), "RD".into()],
        TINY_SCALE,
    )
    .with_seed_mode(SeedMode::Derived(tenoc_core::DEFAULT_SEED))
}

/// Compares a fresh sweep against a golden snapshot by cell identity and
/// fingerprint.
///
/// # Errors
///
/// Returns one human-readable line per mismatch: records missing from
/// either side, identity mismatches at a cell index, and fingerprint
/// (i.e. measured-value) drift.
pub fn check_fingerprints(actual: &[RunRecord], golden: &[RunRecord]) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    if actual.len() != golden.len() {
        problems.push(format!(
            "record count: sweep has {}, golden has {}",
            actual.len(),
            golden.len()
        ));
    }
    for (a, g) in actual.iter().zip(golden) {
        if a.key() != g.key() {
            problems.push(format!("cell {}: identity {} != golden {}", a.cell, a.key(), g.key()));
            continue;
        }
        if !g.fingerprint_valid() {
            problems.push(format!(
                "cell {}: golden record is internally inconsistent (stored {}, implied {})",
                g.cell,
                g.fingerprint,
                g.compute_fingerprint()
            ));
        }
        if a.fingerprint != g.fingerprint {
            problems.push(format!(
                "cell {} ({}): fingerprint {} != golden {} — measured numbers drifted \
                 (IPC {} vs {}); re-bless only if the change is intended",
                a.cell,
                a.key(),
                a.fingerprint,
                g.fingerprint,
                a.metrics.ipc,
                g.metrics.ipc
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep;

    #[test]
    fn tiny_grid_shape() {
        let g = tiny_grid();
        assert_eq!(g.len(), 9);
        assert_eq!(g.scale, TINY_SCALE);
    }

    #[test]
    fn self_comparison_is_clean() {
        let grid = SweepGrid::new(vec![Preset::BaselineTbDor], vec!["HIS".into()], 0.02);
        let records = run_sweep(&grid, 1);
        assert!(check_fingerprints(&records, &records).is_ok());
    }

    #[test]
    fn drift_is_reported() {
        let grid = SweepGrid::new(vec![Preset::BaselineTbDor], vec!["HIS".into()], 0.02);
        let records = run_sweep(&grid, 1);
        let mut tampered = records.clone();
        tampered[0].metrics.ipc *= 1.01;
        tampered[0].seal();
        let problems = check_fingerprints(&tampered, &records).unwrap_err();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("drifted"), "{}", problems[0]);
    }

    #[test]
    fn identity_and_count_mismatches_are_reported() {
        let grid =
            SweepGrid::new(vec![Preset::BaselineTbDor], vec!["HIS".into(), "MM".into()], 0.02);
        let records = run_sweep(&grid, 1);
        let problems = check_fingerprints(&records[..1], &records).unwrap_err();
        assert!(problems[0].contains("record count"));
        let mut renamed = records.clone();
        renamed[1].benchmark = "RD".into();
        renamed[1].seal();
        let problems = check_fingerprints(&renamed, &records).unwrap_err();
        assert!(problems[0].contains("identity"));
    }
}
