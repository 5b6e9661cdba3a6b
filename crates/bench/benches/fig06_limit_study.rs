//! Figure 6: limit study — application throughput (and throughput per
//! estimated area) versus the aggregate bandwidth of a zero-latency
//! network, expressed as a fraction of peak off-chip DRAM bandwidth.

use tenoc_bench::{header, run_suites_par, Preset};
use tenoc_core::area::COMPUTE_AREA_MM2;
use tenoc_core::harmonic_mean;
use tenoc_core::presets::bw_limit_flits_per_icnt_cycle;

fn main() {
    let scale = header("Figure 6", "bandwidth limit study with a zero-latency network");

    // Reference: infinite bandwidth (perfect network), then one suite per
    // bandwidth cap — all thirteen on one worker pool.
    let fractions = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.4, 1.6];
    let presets: Vec<Preset> =
        std::iter::once(Preset::Perfect).chain(fractions.map(Preset::BwLimited)).collect();
    let hm_ipcs: Vec<f64> = run_suites_par(&presets, scale)
        .iter()
        .map(|suite| harmonic_mean(suite.iter().map(|r| r.metrics.ipc)))
        .collect();
    let perfect_hm = hm_ipcs[0];

    // The baseline mesh's bisection point: 12 links x 16 B at the marked
    // x = 0.816 of the paper.
    let base_frac = 0.816;
    // NoC area is proportional to the square of channel bandwidth; the
    // baseline (16 B channels at x = 0.816) costs ~90 mm².
    let base_noc_area = 90.0;

    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>14}",
        "x", "flits/iclk", "HM IPC", "norm. IPC", "norm. IPC/mm2"
    );
    let mut max_te = 0.0f64;
    let mut argmax = 0.0;
    for (pct, &hm) in fractions.into_iter().zip(&hm_ipcs[1..]) {
        let area = COMPUTE_AREA_MM2 + base_noc_area * (pct / base_frac) * (pct / base_frac);
        let te = hm / area;
        if te > max_te {
            max_te = te;
            argmax = pct;
        }
        println!(
            "{pct:>6.2} {:>12.2} {hm:>10.1} {:>12.3} {:>14.5}",
            bw_limit_flits_per_icnt_cycle(pct, 8),
            hm / perfect_hm,
            te / (perfect_hm / (COMPUTE_AREA_MM2 + base_noc_area)),
        );
    }
    println!("\nthroughput/cost peaks at x = {argmax:.2} (paper: optimum around 0.7-0.8,");
    println!("with x = 0.816 ~= a 16-byte-channel mesh reaching ~93% of infinite bandwidth)");
}
