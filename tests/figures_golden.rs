//! Golden snapshot of the paper's numbers: every summary row of every
//! figure in `tenoc::harness::figures`, at scale 0.02 and the default
//! seed, one JSON object per line in `tests/golden/figures.json`.
//!
//! What is recomputed follows from the build, not from a switch. A
//! release build (CI's `harness` job: `cargo test --release --test
//! figures_golden`) runs the pooled 25-suite grid and compares the whole
//! file byte for byte. A debug build (tier 1) runs only the baseline and
//! perfect suites — Fig 7, Fig 8, Fig 11, Table I — and compares those
//! figures' lines. Either way a mismatch names the first row that moved,
//! writes the file it computed under `CARGO_TARGET_TMPDIR` and prints the
//! `cp` that blesses it. The harness pins this file's hash beside
//! `MODEL_VERSION`: re-blessing after a simulator change bumps both.

use serde::json::Value;
use serde::Serialize;
use tenoc::core::presets::Preset;
use tenoc::harness::figures::{presets, Figure, Summary, FIGURES};
use tenoc::harness::{jobs_from_env, run_grid, CellResult, SweepGrid};

const SCALE: f64 = 0.02;

fn repo_file(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name)
}

/// One golden line per summary row of `figure`.
fn lines(figure: &Figure, results: &[CellResult]) -> Vec<String> {
    let line = |Summary(row, paper, measured): &Summary| {
        let fields = [
            ("figure", figure.id.to_value()),
            ("row", row.to_value()),
            ("paper", paper.to_value()),
            ("measured", measured.text.to_value()),
            ("value", measured.value.to_value()),
        ];
        Value::Object(fields.map(|(k, v)| (k.to_string(), v)).to_vec()).to_json_compact()
    };
    (figure.reduce)(results).summary.iter().map(line).collect()
}

/// The golden file for `rows`, one per line inside one JSON array.
fn render(rows: &[String]) -> String {
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// The golden file's row lines, without the array punctuation.
fn rows_of(text: &str) -> Vec<String> {
    let rows = text.lines().filter(|l| l.starts_with('{'));
    rows.map(|l| l.trim_end_matches(',').to_string()).collect()
}

fn belongs_to(line: &str, figure: &Figure) -> bool {
    line.starts_with(&format!("{{\"figure\":\"{}\",", figure.id))
}

#[test]
fn summary_rows_match_the_checked_in_golden() {
    let path = repo_file("tests/golden/figures.json");
    let golden = std::fs::read_to_string(&path).expect("golden snapshot present");
    let release = !cfg!(debug_assertions);
    let recomputed = |f: &Figure| {
        release || f.presets.iter().all(|p| [Preset::BaselineTbDor, Preset::Perfect].contains(p))
    };
    let mut needed = presets();
    needed.retain(|p| FIGURES.iter().any(|f| recomputed(f) && f.presets.contains(p)));
    let grid = SweepGrid::suites(&needed, SCALE);
    let results = run_grid(&grid, if release { 1 } else { jobs_from_env().unwrap() });
    if release {
        // The determinism contract, on the rows themselves.
        let all = |r: &[CellResult]| FIGURES.iter().flat_map(|f| lines(f, r)).collect::<Vec<_>>();
        assert_eq!(all(&results), all(&run_grid(&grid, 4)), "rows differ between 1 and 4 jobs");
    }
    // Rows of the figures not recomputed in this build are carried over
    // from the golden, so the file written on a mismatch is complete.
    let expected = rows_of(&golden);
    let mut actual = Vec::new();
    for figure in &FIGURES {
        if recomputed(figure) {
            actual.extend(lines(figure, &results));
        } else {
            actual.extend(expected.iter().filter(|l| belongs_to(l, figure)).cloned());
        }
    }
    let actual_text = render(&actual);
    if actual_text == golden {
        return;
    }
    let moved = actual.iter().zip(&expected).find(|(a, e)| a != e);
    let moved = moved.map_or_else(
        || format!("row count: computed {}, golden {}", actual.len(), expected.len()),
        |(a, e)| format!("computed {a}\n  golden   {e}"),
    );
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures.json");
    std::fs::write(&out, actual_text).expect("write the computed snapshot");
    let scope = if !release {
        "a debug build recomputes Fig 7, Fig 8, Fig 11 and Table I only; run \
         `cargo test --release --test figures_golden` for every row.\n"
    } else {
        ""
    };
    panic!(
        "tests/golden/figures.json drifted:\n  {moved}\n{scope}if intended, bless with\n  cp {} {}\n\
         then update the hash pinned in crates/harness/src/cache.rs (and MODEL_VERSION beside \
         it when simulated numbers moved) and regenerate EXPERIMENTS.md's Measured column",
        out.display(),
        path.display()
    );
}
