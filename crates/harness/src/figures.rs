//! The paper's evaluation — Figs 2, 6–11, 16–20 and Table I — as pure
//! functions of sweep results: the one place its numbers are computed.
//!
//! [`FIGURES`] lists each figure with the presets whose suites it reads
//! and its reducer, which returns the per-benchmark rows and the named
//! summary rows, the paper's value beside each. A reducer finds its
//! suites in `results` by preset, so one [`run_grid`](crate::run_grid)
//! over [`presets()`] feeds every figure, and a small grid feeds one.
//! `cargo bench -p tenoc-bench --bench figures` prints all of them,
//! `tests/golden/figures.json` pins the summary rows, `tests/paper_shapes.rs`
//! asserts the paper's shapes on them and `tenoc classify` prints Table I's.

use crate::engine::CellResult;
use std::fmt;
use tenoc_core::area::{throughput_effectiveness, AreaModel, COMPUTE_AREA_MM2};
use tenoc_core::presets::bw_limit_flits_per_icnt_cycle;
use tenoc_core::Preset::{self, *};
use tenoc_core::{arithmetic_mean, harmonic_mean};
use tenoc_simt::TrafficClass::{self, HH, LL};

/// One printed value.
#[derive(Clone, Debug)]
pub struct Cell {
    /// As the tables spell it: `KM`, `+24.9%`, `0.52`.
    pub text: String,
    /// The number behind it; NaN for a label.
    pub value: f64,
}

fn text(label: impl Into<String>) -> Cell {
    Cell { text: label.into(), value: f64::NAN }
}

/// A signed percentage.
fn gain(value: f64) -> Cell {
    Cell { text: format!("{value:+.1}%"), value }
}

/// An unsigned percentage.
fn percent(value: f64) -> Cell {
    Cell { text: format!("{value:.1}%"), value }
}

fn fixed(value: f64, decimals: usize) -> Cell {
    Cell { text: format!("{value:.decimals$}"), value }
}

/// One summary row of a figure: its name (unique within the figure),
/// the paper's value, ours.
pub struct Summary(pub &'static str, pub &'static str, pub Cell);

/// A figure reduced over one set of results. `Display` is the
/// per-benchmark table, right-aligned under its column heads.
pub struct Report {
    /// Column heads of `rows`; the first column names the row.
    pub head: &'static [&'static str],
    /// One row per benchmark (per design in Fig 2, per bandwidth in Fig 6).
    pub rows: Vec<Vec<Cell>>,
    /// The figure's named summary rows.
    pub summary: Vec<Summary>,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body = self.rows.iter().map(|r| r.iter().map(|c| c.text.as_str()).collect());
        let table: Vec<Vec<&str>> = std::iter::once(self.head.to_vec()).chain(body).collect();
        let width = |c: usize| table.iter().map(|r| r[c].chars().count()).max().unwrap_or(0);
        let widths: Vec<usize> = (0..self.head.len()).map(width).collect();
        for row in &table {
            let cells = row.iter().zip(&widths).map(|(cell, w)| format!("{cell:>w$}"));
            writeln!(f, "{}", cells.collect::<Vec<_>>().join("  "))?;
        }
        Ok(())
    }
}

/// One figure or table of the paper's evaluation.
pub struct Figure {
    /// How EXPERIMENTS.md's headline table names it (`Fig 7`, `Table I`).
    pub id: &'static str,
    /// What it shows.
    pub title: &'static str,
    /// The presets whose suites `reduce` reads.
    pub presets: &'static [Preset],
    /// The reducer, over any cells that include those suites, each on the
    /// same benchmarks in the same order. Panics if a suite is missing or
    /// two suites it compares cover different benchmarks.
    pub reduce: fn(&[CellResult]) -> Report,
}

/// The figure EXPERIMENTS.md calls `id`; panics if there is none.
pub fn figure(id: &str) -> &'static Figure {
    FIGURES.iter().find(|f| f.id == id).unwrap_or_else(|| panic!("no figure {id}"))
}

/// Every preset a figure needs, once, in first-use order: the pooled grid.
pub fn presets() -> Vec<Preset> {
    let mut all = Vec::new();
    for preset in FIGURES.iter().flat_map(|f| f.presets) {
        if !all.contains(preset) {
            all.push(*preset);
        }
    }
    all
}

/// The suite measured on `preset`, in result order.
fn suite(results: &[CellResult], preset: Preset) -> Vec<&CellResult> {
    let suite: Vec<_> = results.iter().filter(|r| r.cell.preset == preset).collect();
    assert!(!suite.is_empty(), "no results for preset {}", preset.label());
    suite
}

/// One benchmark on a baseline and on a new design.
struct Pair<'a> {
    base: &'a CellResult,
    new: &'a CellResult,
    /// Speedup of `new` over `base`, percent.
    gain: f64,
}

/// `new`'s suite against `base`'s, benchmark by benchmark, matched by
/// name. A benchmark whose baseline retired nothing has no defined
/// speedup ([`speedup_over`](tenoc_core::RunMetrics::speedup_over) is
/// `None`): it is skipped with a warning on stderr rather than reaching a
/// harmonic mean, a rank or a class threshold as `inf` or `NaN`.
fn speedups<'a>(results: &'a [CellResult], base: Preset, new: Preset) -> Vec<Pair<'a>> {
    let (base, new) = (suite(results, base), suite(results, new));
    assert_eq!(base.len(), new.len(), "mismatched sweeps");
    let pair = |(base, new): (&'a CellResult, &'a CellResult)| {
        assert_eq!(base.cell.benchmark, new.cell.benchmark, "benchmark order mismatch");
        let Some(ratio) = new.metrics.speedup_over(&base.metrics) else {
            eprintln!(
                "warning: skipping {}: baseline IPC is {} (no defined speedup)",
                base.cell.benchmark, base.metrics.ipc
            );
            return None;
        };
        Some(Pair { base, new, gain: (ratio - 1.0) * 100.0 })
    };
    base.into_iter().zip(new).filter_map(pair).collect()
}

/// Harmonic mean of the pairs' speedup ratios, as a percentage gain;
/// over one class when `class` names it.
fn hm_gain(pairs: &[Pair], class: Option<TrafficClass>) -> f64 {
    let of_class = pairs.iter().filter(|p| class.is_none_or(|c| p.base.class == c));
    (harmonic_mean(of_class.map(|p| 1.0 + p.gain / 100.0)) - 1.0) * 100.0
}

/// The two label cells every per-benchmark row starts with.
fn named(r: &CellResult) -> Vec<Cell> {
    vec![text(&r.cell.benchmark), text(r.class.label())]
}

/// Per-benchmark rows of one or more speedup columns over a shared
/// baseline, each value spelled by `cell`.
fn gain_rows(columns: &[&[Pair]], cell: fn(f64) -> Cell) -> Vec<Vec<Cell>> {
    let row = |i: usize| {
        let gains = columns.iter().map(|pairs| cell(pairs[i].gain));
        named(columns[0][i].base).into_iter().chain(gains).collect()
    };
    (0..columns[0].len()).map(row).collect()
}

/// Spearman's rank correlation of `(x, y)` points. Equal values rank in
/// input order, as Figure 8 always has: the suite lists LL first, so
/// its benchmarks tied at +0.0 % rank by position (sharing mean ranks
/// instead reads 0.85 where this reads 0.95 at the default scale).
fn rank_correlation(points: &[(f64, f64)]) -> f64 {
    let ranks = |key: fn(&(f64, f64)) -> f64| {
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by(|&a, &b| key(&points[a]).total_cmp(&key(&points[b])));
        let mut rank = vec![0.0; points.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r as f64;
        }
        rank
    };
    let (rx, ry) = (ranks(|p| p.0), ranks(|p| p.1));
    let (mx, my) = (arithmetic_mean(rx.iter().copied()), arithmetic_mean(ry.iter().copied()));
    let cov: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - mx) * (b - my)).sum();
    let var = |r: &[f64], m: f64| r.iter().map(|a| (a - m) * (a - m)).sum::<f64>();
    cov / (var(&rx, mx).sqrt() * var(&ry, my).sqrt())
}

/// Table I's rule: first letter `H` when the perfect-network speedup
/// exceeds 30 %, second `H` when accepted traffic on the perfect network
/// exceeds 1 byte/cycle/node.
fn two_letter_class(gain: f64, bytes_per_cycle_node: f64) -> String {
    let letter = |high| if high { 'H' } else { 'L' };
    [letter(gain > 30.0), letter(bytes_per_cycle_node > 1.0)].iter().collect()
}

/// Chip area of a preset's 6x6 design point, mm².
fn chip_mm2(preset: Preset) -> f64 {
    AreaModel::chip_area(&preset.icnt(6)).total()
}

/// IPC/mm² gain, percent, of `new` over `base` at IPC ratio `speedup`:
/// the paper's arithmetic, speedup x chip-area ratio (1.17 x 576/537 =
/// 1.254).
fn ipc_per_mm2_gain(speedup: f64, base: Preset, new: Preset) -> f64 {
    (speedup * chip_mm2(base) / chip_mm2(new) - 1.0) * 100.0
}

const BENCH_GAIN: &[&str] = &["bench", "class", "speedup"];
const FIG02: &[Preset] = &[BaselineTbDor, TbDor2xBw, ThroughputEffective, CpCr2pSingle, Perfect];

fn fig02(results: &[CellResult]) -> Report {
    let designs = ["Balanced Mesh", "2x BW", "Thr. Eff.", "Thr. Eff. (single net)", "Ideal NoC"];
    let avg_ipc = |p: Preset| arithmetic_mean(suite(results, p).iter().map(|r| r.metrics.ipc));
    let base_ipc = avg_ipc(FIG02[0]);
    let design = |(label, &preset): (&str, &Preset)| {
        let (ipc, area) = (avg_ipc(preset), AreaModel::chip_area(&preset.icnt(6)));
        vec![
            text(label),
            fixed(ipc, 1),
            fixed(area.total(), 1),
            fixed(1.0 / area.total(), 6),
            fixed(throughput_effectiveness(ipc, &area), 4),
            gain(ipc_per_mm2_gain(ipc / base_ipc, FIG02[0], preset)),
        ]
    };
    let rows: Vec<_> = designs.into_iter().zip(FIG02).map(design).collect();
    let vs_base = |name, paper, design: usize| Summary(name, paper, rows[design][5].clone());
    let summary = vec![
        vs_base("IPC/mm² vs baseline, 2x BW", "below the baseline", 1),
        vs_base("IPC/mm² vs baseline, Thr. Eff.", "+25.4% by HM IPC (Fig 20)", 2),
        vs_base("IPC/mm² vs baseline, single net", "not in the paper", 3),
        vs_base("IPC/mm² vs baseline, ideal NoC", "the upper bound", 4),
    ];
    let head = &["design", "avg IPC", "area [mm^2]", "1/mm^2", "IPC/mm^2", "vs base"];
    Report { head, rows, summary }
}

/// Perfect, then the swept fractions of peak DRAM bandwidth.
const FIG06: [Preset; 13] = {
    let x = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.4, 1.6];
    let mut presets = [Perfect; 13];
    let mut i = 0;
    while i < x.len() {
        presets[i + 1] = BwLimited(x[i]);
        i += 1;
    }
    presets
};

fn fig06(results: &[CellResult]) -> Report {
    // The baseline mesh sits at x = 0.816 of the paper's axis (12
    // bisection links x 16 B) and costs ~90 mm²; NoC area grows with the
    // square of channel bandwidth.
    let cost = |x: f64| COMPUTE_AREA_MM2 + 90.0 * (x / 0.816) * (x / 0.816);
    let hm_ipc = |p: Preset| harmonic_mean(suite(results, p).iter().map(|r| r.metrics.ipc));
    let perfect = hm_ipc(Perfect);
    let cap = |preset: &Preset| {
        let BwLimited(x) = *preset else { unreachable!("Fig 6 sweeps bandwidth caps") };
        let hm = hm_ipc(*preset);
        vec![
            fixed(x, 2),
            fixed(bw_limit_flits_per_icnt_cycle(x, 8), 2),
            fixed(hm, 1),
            fixed(hm / perfect, 3),
            fixed(hm / cost(x) / (perfect / cost(0.816)), 5),
        ]
    };
    let rows: Vec<_> = FIG06[1..].iter().map(cap).collect();
    let knee = rows.iter().fold(&rows[0], |k, r| if r[4].value > k[4].value { r } else { k });
    let summary = vec![Summary("IPC/cost peak, x", "0.7-0.8", knee[0].clone())];
    Report { head: &["x", "flits/iclk", "HM IPC", "norm. IPC", "norm. IPC/mm2"], rows, summary }
}

fn fig07(results: &[CellResult]) -> Report {
    let pairs = speedups(results, BaselineTbDor, Perfect);
    let hm = |class| gain(hm_gain(&pairs, class));
    let summary = vec![
        Summary("HM speedup", "36%", hm(None)),
        Summary("HM speedup, HH", "87%", hm(Some(HH))),
        Summary("HM speedup, LL", "low (< 30% each)", hm(Some(LL))),
    ];
    Report { head: BENCH_GAIN, rows: gain_rows(&[&pairs], gain), summary }
}

fn fig08(results: &[CellResult]) -> Report {
    let pairs = speedups(results, BaselineTbDor, Perfect);
    let rate = |p: &Pair| p.new.metrics.mc_injection_rate;
    let bench =
        |p: &Pair| named(p.base).into_iter().chain([fixed(rate(p), 3), gain(p.gain)]).collect();
    let rho = rank_correlation(&pairs.iter().map(|p| (rate(p), p.gain)).collect::<Vec<_>>());
    let summary = vec![Summary("rank correlation, rate vs speedup", "correlated", fixed(rho, 2))];
    let head = &["bench", "class", "MC inj rate", "speedup"];
    Report { head, rows: pairs.iter().map(bench).collect(), summary }
}

fn fig09(results: &[CellResult]) -> Report {
    let wide = speedups(results, BaselineTbDor, TbDor2xBw);
    let fast = speedups(results, BaselineTbDor, TbDor1Cycle);
    let summary = vec![
        Summary("HM speedup, 2x bandwidth", "27%", gain(hm_gain(&wide, None))),
        Summary("HM speedup, 1-cycle routers", "2.3%", gain(hm_gain(&fast, None))),
    ];
    let head = &["bench", "class", "2x bandwidth", "1-cycle router"];
    Report { head, rows: gain_rows(&[&wide, &fast], gain), summary }
}

fn fig10(results: &[CellResult]) -> Report {
    let pairs = speedups(results, BaselineTbDor, TbDor1Cycle);
    let latency = |r: &CellResult| r.metrics.avg_net_latency;
    let bench = |p: &Pair| {
        let cells = [fixed(latency(p.base), 1), fixed(latency(p.new), 1)];
        let ratio = fixed(latency(p.new) / latency(p.base), 2);
        named(p.base).into_iter().chain(cells).chain([ratio]).collect::<Vec<_>>()
    };
    let rows: Vec<_> = pairs.iter().map(bench).collect();
    let mean = arithmetic_mean(rows.iter().map(|r| r[4].value));
    let summary = vec![Summary("mean latency ratio", "0.5-0.9", fixed(mean, 2))];
    Report { head: &["bench", "class", "lat(4cyc)", "lat(1cyc)", "ratio"], rows, summary }
}

fn fig11(results: &[CellResult]) -> Report {
    let base = suite(results, BaselineTbDor);
    let stall = |r: &CellResult| r.metrics.mc_stall_fraction * 100.0;
    let bench = |r: &&CellResult| named(r).into_iter().chain([percent(stall(r))]).collect();
    let worst = base.iter().fold(base[0], |w, r| if stall(r) > stall(w) { r } else { w });
    let at = format!("{:.1}% ({})", stall(worst), worst.cell.benchmark);
    let summary = vec![Summary("max MC stall", "~70%", Cell { text: at, value: stall(worst) })];
    Report { head: &["bench", "class", "stalled"], rows: base.iter().map(bench).collect(), summary }
}

fn fig16(results: &[CellResult]) -> Report {
    let pairs = speedups(results, BaselineTbDor, CpDor2vc);
    let summary = vec![Summary("HM speedup", "13.2%", gain(hm_gain(&pairs, None)))];
    Report { head: BENCH_GAIN, rows: gain_rows(&[&pairs], gain), summary }
}

fn fig17(results: &[CellResult]) -> Report {
    let dor4 = speedups(results, CpDor2vc, CpDor4vc);
    let cr4 = speedups(results, CpDor2vc, CpCr4vc);
    let (dor, cr) = (100.0 + hm_gain(&dor4, None), 100.0 + hm_gain(&cr4, None));
    let summary = vec![
        Summary("DOR-4VC, of DOR-2VC", "-", percent(dor)),
        Summary("CR-4VC, of DOR-2VC", "-", percent(cr)),
        Summary("CR-4VC vs DOR-4VC", "-1.1%", gain(cr / dor * 100.0 - 100.0)),
    ];
    let rows = gain_rows(&[&dor4, &cr4], |gain| percent(100.0 + gain));
    Report { head: &["bench", "class", "DOR 4VC", "CR 4VC"], rows, summary }
}

fn fig18(results: &[CellResult]) -> Report {
    let pairs = speedups(results, CpCr4vc, DoubleCpCr);
    let summary = vec![
        Summary("HM speedup", "~+1% (-7%..+14%)", gain(hm_gain(&pairs, None))),
        Summary("HM speedup, HH", "-", gain(hm_gain(&pairs, Some(HH)))),
    ];
    Report { head: BENCH_GAIN, rows: gain_rows(&[&pairs], gain), summary }
}

const FIG19: &[Preset] = &[DoubleCpCr, DoubleCpCr2InjPorts, DoubleCpCr2EjPorts, DoubleCpCr2Both];

fn fig19(results: &[CellResult]) -> Report {
    let [inj, ej, both] = [1, 2, 3].map(|port| speedups(results, FIG19[0], FIG19[port]));
    let blocked = |side: fn(&Pair) -> f64| arithmetic_mean(inj.iter().map(side));
    let blocked = blocked(|p| p.new.metrics.mc_stall_fraction)
        / blocked(|p| p.base.metrics.mc_stall_fraction);
    let hm = |pairs| gain(hm_gain(pairs, None));
    let summary = vec![
        Summary("HM speedup, 2 inj ports", "helps broadly", hm(&inj)),
        Summary("HM speedup, 2 ej ports", "helps a few", hm(&ej)),
        Summary("HM speedup, both", "-", hm(&both)),
        Summary("MC blocked time, 2 inj ports", "-38.5%", gain((blocked - 1.0) * 100.0)),
    ];
    let head = &["bench", "class", "2 inj", "2 ej", "both"];
    Report { head, rows: gain_rows(&[&inj, &ej, &both], gain), summary }
}

fn fig20(results: &[CellResult]) -> Report {
    let sliced = speedups(results, BaselineTbDor, ThroughputEffective);
    let single = hm_gain(&speedups(results, BaselineTbDor, CpCr2pSingle), None);
    let hm = hm_gain(&sliced, None);
    let per_mm2 = |hm, design| gain(ipc_per_mm2_gain(1.0 + hm / 100.0, BaselineTbDor, design));
    let area_ratio = chip_mm2(BaselineTbDor) / chip_mm2(ThroughputEffective);
    let summary = vec![
        Summary("HM speedup", "+17%", gain(hm)),
        Summary("HM speedup, HH", "-", gain(hm_gain(&sliced, Some(HH)))),
        Summary("area ratio, baseline / Thr. Eff.", "1.072 (576/537)", fixed(area_ratio, 3)),
        Summary("IPC/mm² gain", "+25.4%", per_mm2(hm, ThroughputEffective)),
        Summary("HM speedup, single net", "not in the paper", gain(single)),
        Summary("IPC/mm² gain, single net", "not in the paper", per_mm2(single, CpCr2pSingle)),
    ];
    Report { head: BENCH_GAIN, rows: gain_rows(&[&sliced], gain), summary }
}

// Section III-B's classification re-derived from measured behaviour. NNC
// is the paper's own exception ("insufficient number of threads"): its
// perfect-network speedup is latency-driven.
fn tab01(results: &[CellResult]) -> Report {
    let bench = |p: &Pair| {
        // Accepted traffic at the interconnect clock, 16-byte flits.
        let bytes = p.new.metrics.accepted_flits_per_node * 16.0;
        let measured = two_letter_class(p.gain, bytes);
        let matches = if measured == p.base.class.label() { "yes" } else { "NO" };
        let cells = [gain(p.gain), fixed(bytes, 2), text(measured), text(matches)];
        named(p.base).into_iter().chain(cells).collect::<Vec<_>>()
    };
    let rows: Vec<_> = speedups(results, BaselineTbDor, Perfect).iter().map(bench).collect();
    let count =
        |col: usize, label| fixed(rows.iter().filter(|r| r[col].text == label).count() as f64, 0);
    let summary = vec![
        Summary("in intended class", "all 31", count(5, "yes")),
        Summary("HL occurrences", "0", count(4, "HL")),
    ];
    let head = &["bench", "intended", "speedup", "B/cyc/node", "measured", "match"];
    Report { head, rows, summary }
}

/// Every suite-shaped figure, in the paper's order.
pub static FIGURES: [Figure; 13] = [
    Figure {
        id: "Fig 2",
        title: "throughput-effective design space (average IPC vs 1/mm^2)",
        presets: FIG02,
        reduce: fig02,
    },
    Figure {
        id: "Fig 6",
        title: "bandwidth limit study, zero-latency network (x = fraction of DRAM bandwidth)",
        presets: &FIG06,
        reduce: fig06,
    },
    Figure {
        id: "Fig 7",
        title: "speedup of a perfect network over the baseline mesh",
        presets: &[BaselineTbDor, Perfect],
        reduce: fig07,
    },
    Figure {
        id: "Fig 8",
        title: "perfect-network speedup vs MC injection rate (flits/cycle/MC)",
        presets: &[BaselineTbDor, Perfect],
        reduce: fig08,
    },
    Figure {
        id: "Fig 9",
        title: "2x channel bandwidth vs 1-cycle routers (speedup over the baseline)",
        presets: &[BaselineTbDor, TbDor2xBw, TbDor1Cycle],
        reduce: fig09,
    },
    Figure {
        id: "Fig 10",
        title: "NoC latency ratio: 1-cycle routers / 4-cycle routers",
        presets: &[BaselineTbDor, TbDor1Cycle],
        reduce: fig10,
    },
    Figure {
        id: "Fig 11",
        title: "fraction of time MC reply injection is blocked (baseline mesh)",
        presets: &[BaselineTbDor],
        reduce: fig11,
    },
    Figure {
        id: "Fig 16",
        title: "checkerboard MC placement vs top-bottom placement (DOR, 2 VCs)",
        presets: &[BaselineTbDor, CpDor2vc],
        reduce: fig16,
    },
    Figure {
        id: "Fig 17",
        title: "CP-DOR-4VC and CP-CR-4VC relative to CP-DOR-2VC",
        presets: &[CpDor2vc, CpDor4vc, CpCr4vc],
        reduce: fig17,
    },
    Figure {
        id: "Fig 18",
        title: "double network (2 x 8B) vs single network (16B, 4VC)",
        presets: &[CpCr4vc, DoubleCpCr],
        reduce: fig18,
    },
    Figure {
        id: "Fig 19",
        title: "multi-port MC routers over the double CP-CR network",
        presets: FIG19,
        reduce: fig19,
    },
    Figure {
        id: "Fig 20",
        title: "combined throughput-effective design vs the baseline",
        presets: &[BaselineTbDor, ThroughputEffective, CpCr2pSingle],
        reduce: fig20,
    },
    Figure {
        id: "Table I",
        title: "measured LL/LH/HH classification (speedup > 30%; traffic > 1 B/cycle/node)",
        presets: &[BaselineTbDor, Perfect],
        reduce: tab01,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepGrid;
    use tenoc_core::RunMetrics;

    fn measured(report: &Report, row: &str) -> f64 {
        report.summary.iter().find(|s| s.0 == row).expect("summary row").2.value
    }

    /// Hand-built suites: one `(ipc, accepted flits/node, MC injection
    /// rate)` triple per benchmark on each of `presets`.
    fn suites(presets: &[Preset], names: &[&str], cells: &[&[(f64, f64, f64)]]) -> Vec<CellResult> {
        let names = names.iter().map(|n| n.to_string()).collect();
        let grid = SweepGrid::new(presets.to_vec(), names, 1.0);
        let measured = cells.iter().flat_map(|suite| suite.iter());
        let result = |(index, &(ipc, flits, rate)): (usize, &(f64, f64, f64))| CellResult {
            cell: grid.cell(index),
            class: TrafficClass::LL,
            metrics: RunMetrics {
                completed: true,
                core_cycles: 100,
                icnt_cycles: 50,
                scalar_insts: (ipc * 100.0) as u64,
                ipc,
                avg_net_latency: 0.0,
                mc_injection_rate: rate,
                core_injection_rate: 0.0,
                mc_stall_fraction: 0.0,
                dram_efficiency: 0.0,
                l2_read_hit_rate: 0.0,
                accepted_flits_per_node: flits,
                core_replays: 0,
                flit_hops: 0,
            },
            wall_nanos: 0,
        };
        measured.enumerate().map(result).collect()
    }

    /// Satellite regression, moved here from `tenoc-bench` with the
    /// arithmetic: a zero-IPC baseline benchmark is skipped (with a
    /// warning) rather than reaching the harmonic mean, the rank
    /// correlation or the class threshold as an `inf` or `NaN` row.
    #[test]
    fn hm_speedup_skips_degenerate_baselines() {
        let base: &[(f64, f64, f64)] = &[(2.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)];
        for dead_new_ipc in [1.0, 0.0] {
            // 1/0 = inf used to inflate the mean, 0/0 = NaN to poison it
            // (and to panic fig08's sort).
            let new: &[_] = &[(4.0, 0.1, 0.2), (dead_new_ipc, 0.9, 0.9), (1.0, 0.05, 0.1)];
            let results = suites(&[BaselineTbDor, Perfect], &["OK", "DEAD", "FLAT"], &[base, new]);
            let pairs = speedups(&results, BaselineTbDor, Perfect);
            let kept: Vec<&str> = pairs.iter().map(|p| &*p.base.cell.benchmark).collect();
            assert_eq!(kept, ["OK", "FLAT"], "DEAD must be skipped");
            let fig7 = fig07(&results);
            assert_eq!(fig7.rows.len(), 2);
            // HM of a 2x and a 1x speedup is 4/3.
            assert!((measured(&fig7, "HM speedup") - 100.0 / 3.0).abs() < 1e-9);
            let fig8 = fig08(&results);
            let rho = measured(&fig8, "rank correlation, rate vs speedup");
            assert!((rho - 1.0).abs() < 1e-12, "{rho}");
            let table1 = tab01(&results);
            assert_eq!(table1.rows.len(), 2, "{table1}");
            assert_eq!(table1.rows[0][4].text, "HH", "{table1}");
            assert_eq!(measured(&table1, "HL occurrences"), 0.0);
        }
        let dead = suites(&[BaselineTbDor, Perfect], &["DEAD"], &[&base[1..2], &base[1..2]]);
        assert!(speedups(&dead, BaselineTbDor, Perfect).is_empty(), "nothing left after skipping");
    }

    /// Real suites through the pairing every figure shares: all 31
    /// benchmarks, in Table I's order with Table I's classes.
    #[test]
    fn speedups_are_matched_by_name() {
        // Ideal networks keep this a sub-second pair of suites.
        let results = crate::run_grid(&SweepGrid::suites(&[BwLimited(0.5), Perfect], 0.02), 2);
        let pairs = speedups(&results, BwLimited(0.5), Perfect);
        let suite = tenoc_workloads::suite();
        assert_eq!(pairs.len(), suite.len());
        for (p, spec) in pairs.iter().zip(&suite) {
            assert_eq!((&p.base.cell.benchmark, p.base.class), (&spec.name, spec.class));
            assert_eq!((&p.new.cell.benchmark, p.new.class), (&spec.name, spec.class));
            assert_eq!((p.base.cell.preset, p.new.cell.preset), (BwLimited(0.5), Perfect));
            let (name, gain) = (&spec.name, p.gain);
            assert!(gain > -1.0, "{name}: removing a bandwidth cap cannot slow a kernel: {gain}");
        }
    }

    #[test]
    fn rank_correlation_is_spearman_with_ties_in_input_order() {
        let line = |ys: [f64; 4]| [1.0, 2.0, 3.0, 4.0].into_iter().zip(ys).collect::<Vec<_>>();
        assert!((rank_correlation(&line([10.0, 20.0, 30.0, 40.0])) - 1.0).abs() < 1e-12);
        assert!((rank_correlation(&line([-1.0, -2.0, -3.0, -4.0])) + 1.0).abs() < 1e-12);
        // y ties at 5.0 rank in input order: y ranks 0 1 3 2 against x
        // ranks 0 1 2 3, so d² sums to 2 and rho = 1 - 6*2 / (4*15) = 0.8.
        let rho = rank_correlation(&line([5.0, 5.0, 9.0, 7.0]));
        assert!((rho - 0.8).abs() < 1e-12, "{rho}");
    }

    #[test]
    fn table_one_thresholds_are_strict() {
        assert_eq!(two_letter_class(30.0, 1.0), "LL");
        assert_eq!(two_letter_class(30.0 + 1e-9, 1.0), "HL");
        assert_eq!(two_letter_class(30.0, 1.0 + 1e-9), "LH");
        assert_eq!(two_letter_class(250.0, 8.0), "HH");
    }

    #[test]
    fn pooled_presets_hold_every_figures_presets_once() {
        let pooled = presets();
        assert_eq!(pooled.len(), 25);
        for (i, preset) in pooled.iter().enumerate() {
            assert!(!pooled[..i].contains(preset), "{} twice", preset.label());
        }
        for figure in &FIGURES {
            assert!(figure.presets.iter().all(|p| pooled.contains(p)), "{}", figure.id);
            assert_eq!(figure.id, super::figure(figure.id).id);
        }
        assert_eq!(pooled[..5], *FIG02, "first-use order");
        // `presets` is exactly what `reduce` reads: no reducer survives
        // losing one, so none drags a suite it ignores into the pooled grid.
        for figure in &FIGURES {
            for dropped in figure.presets {
                let kept: Vec<_> =
                    figure.presets.iter().filter(|p| *p != dropped).copied().collect();
                let one = [(1.0, 0.0, 0.0)];
                let results = suites(&kept, &["X"], &vec![&one[..]; kept.len()]);
                let missing = std::panic::catch_unwind(|| (figure.reduce)(&results));
                let message = *missing.err().expect(figure.id).downcast::<String>().unwrap();
                let wanted = format!("no results for preset {}", dropped.label());
                assert_eq!(message, wanted, "{}", figure.id);
            }
        }
    }

    #[test]
    fn every_reducer_rejects_suites_in_mismatched_benchmark_order() {
        let two = [(1.0, 0.0, 0.0); 2];
        for figure in &FIGURES {
            if figure.presets.len() == 1 || ["Fig 2", "Fig 6"].contains(&figure.id) {
                continue; // one suite, or suites reduced to means: no pairing
            }
            let suite: Vec<&[_]> = figure.presets.iter().map(|_| &two[..]).collect();
            let mut results = suites(figure.presets, &["A", "B"], &suite);
            (figure.reduce)(&results);
            results.swap(2, 3);
            let swapped = std::panic::catch_unwind(|| (figure.reduce)(&results));
            let message = *swapped.err().expect(figure.id).downcast::<String>().unwrap();
            assert!(message.contains("benchmark order mismatch"), "{}: {message}", figure.id);
            results.swap(2, 3);
            results.remove(3);
            let short = std::panic::catch_unwind(|| (figure.reduce)(&results));
            let message = *short.err().expect(figure.id).downcast::<String>().unwrap();
            assert!(message.contains("mismatched sweeps"), "{}: {message}", figure.id);
        }
    }

    /// EXPERIMENTS.md's headline table names exactly the `(figure, row)`
    /// pairs the reducers return: none can be dropped, added or renamed
    /// without the document following. One hand-built benchmark on every
    /// pooled preset makes each reducer name its rows without simulating.
    #[test]
    fn experiments_headline_table_names_exactly_the_reducers_rows() {
        let pooled = presets();
        let one = [(1.0, 0.0, 0.0)];
        let suite: Vec<&[_]> = pooled.iter().map(|_| &one[..]).collect();
        let results = suites(&pooled, &["X"], &suite);
        let reduced = FIGURES.iter().flat_map(|f| {
            let rows = (f.reduce)(&results).summary;
            rows.into_iter().map(|s| (f.id.to_string(), s.0.to_string()))
        });
        let text = include_str!("../../../EXPERIMENTS.md");
        let section = text.split("## Headline summary").nth(1).expect("headline section");
        let table = section.lines().skip_while(|l| !l.starts_with('|'));
        let documented = table.take_while(|l| l.starts_with('|')).skip(2).map(|l| {
            let mut columns = l.split('|').skip(1).map(|c| c.trim().to_string());
            (columns.next().unwrap(), columns.next().unwrap())
        });
        assert_eq!(documented.collect::<Vec<_>>(), reduced.collect::<Vec<_>>());
    }
}
