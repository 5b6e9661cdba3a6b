//! Figures 2, 6-11, 16-20 and Table I: one pooled grid over every design
//! point the figures name, reduced by `tenoc_harness::figures`. Prints
//! each figure's per-benchmark table and summary rows, then the headline
//! table in EXPERIMENTS.md's shape.

use tenoc_bench::{header, jobs};
use tenoc_harness::figures::{presets, Summary, FIGURES};
use tenoc_harness::{run_grid, SweepGrid};

fn main() {
    let scale = header("Figures 2, 6-11, 16-20, Table I", "every suite-shaped figure, one grid");
    let results = run_grid(&SweepGrid::suites(&presets(), scale), jobs());
    let reports: Vec<_> =
        FIGURES.iter().map(|figure| (figure, (figure.reduce)(&results))).collect();
    for (figure, report) in &reports {
        println!("\n--- {}: {} ---\n{report}", figure.id, figure.title);
        for Summary(row, paper, measured) in &report.summary {
            println!("{row}: {} (paper: {paper})", measured.text);
        }
    }
    println!("\n| Figure | Row | Paper | Measured |\n|---|---|---|---|");
    for (figure, report) in &reports {
        for Summary(row, paper, measured) in &report.summary {
            println!("| {} | {row} | {paper} | {} |", figure.id, measured.text);
        }
    }
}
