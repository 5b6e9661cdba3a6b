//! Figure 8: perfect-network speedup versus the memory-controller
//! injection rate observed on the perfect network — the correlation that
//! identifies the read-reply path as the bottleneck.

use tenoc_bench::{header, run_suites_par, Preset};

fn main() {
    let scale = header("Figure 8", "perfect-NoC speedup vs MC injection rate (flits/cycle/MC)");
    let [base, perfect]: [_; 2] =
        run_suites_par(&[Preset::BaselineTbDor, Preset::Perfect], scale).try_into().unwrap();
    println!("{:>6} {:>5} {:>12} {:>10}", "bench", "class", "MC inj rate", "speedup");
    let mut pts = Vec::new();
    for (b, p) in base.iter().zip(&perfect) {
        let speedup = (p.metrics.ipc / b.metrics.ipc - 1.0) * 100.0;
        let rate = p.metrics.mc_injection_rate;
        println!("{:>6} {:>5} {rate:>12.3} {speedup:>+9.1}%", b.cell.benchmark, b.class.label());
        pts.push((rate, speedup));
    }
    // Rank correlation between injection rate and speedup.
    let corr = spearman(&pts);
    println!("\nSpearman rank correlation (rate vs speedup): {corr:.2}");
    println!("paper: speedups are correlated with the MC injection rate");
}

fn spearman(pts: &[(f64, f64)]) -> f64 {
    let rank = |vals: Vec<f64>| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..vals.len()).collect();
        idx.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).unwrap());
        let mut r = vec![0.0; vals.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    };
    let rx = rank(pts.iter().map(|p| p.0).collect());
    let ry = rank(pts.iter().map(|p| p.1).collect());
    let n = pts.len() as f64;
    let mx = rx.iter().sum::<f64>() / n;
    let my = ry.iter().sum::<f64>() / n;
    let cov: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - mx) * (b - my)).sum();
    let vx: f64 = rx.iter().map(|a| (a - mx) * (a - mx)).sum();
    let vy: f64 = ry.iter().map(|b| (b - my) * (b - my)).sum();
    cov / (vx.sqrt() * vy.sqrt())
}
