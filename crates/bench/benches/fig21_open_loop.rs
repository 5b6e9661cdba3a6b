//! Figure 21: open-loop latency versus offered load under many-to-few-
//! to-many traffic (uniform random and hotspot), for the five network
//! organizations the paper compares.

use tenoc_bench::{header, Preset};
use tenoc_noc::openloop::{run_open_loop, OpenLoopConfig, TrafficPattern};
use tenoc_noc::NetworkConfig;

fn configs() -> Vec<(&'static str, NetworkConfig)> {
    [
        ("TB-DOR", Preset::BaselineTbDor),
        ("2x-TB-DOR", Preset::TbDor2xBw),
        ("CP-DOR", Preset::CpDor2vc),
        ("CP-CR", Preset::CpCr4vc),
        ("CP-CR-2P", Preset::CpCr2pSingle),
    ]
    .into_iter()
    .map(|(name, preset)| (name, preset.icnt(6).net().clone()))
    .collect()
}

fn sweep(pattern: TrafficPattern, title: &str) {
    println!("\n--- {title} ---");
    let quick = std::env::var("TENOC_FULL").map(|v| v == "1").unwrap_or(false);
    let (warmup, measure, drain) =
        if quick { (10_000, 20_000, 30_000) } else { (2_000, 5_000, 10_000) };
    let rates: Vec<f64> = (1..=12).map(|i| i as f64 * 0.01).collect();
    print!("{:>10}", "rate");
    for (name, _) in configs() {
        print!(" {name:>10}");
    }
    println!();
    let mut curves: Vec<Vec<Option<f64>>> = vec![Vec::new(); configs().len()];
    for &rate in &rates {
        for (i, (_, cfg)) in configs().into_iter().enumerate() {
            // Stop extending a curve once it saturates.
            if matches!(curves[i].last(), Some(None)) {
                curves[i].push(None);
                continue;
            }
            let mut ol = OpenLoopConfig::new(cfg, rate, pattern);
            ol.warmup = warmup;
            ol.measure = measure;
            ol.drain = drain;
            let r = run_open_loop(&ol);
            curves[i].push(if r.saturated() { None } else { Some(r.avg_latency) });
        }
        print!("{rate:>10.2}");
        for c in &curves {
            match c.last().unwrap() {
                Some(l) => print!(" {l:>10.1}"),
                None => print!(" {:>10}", "sat"),
            }
        }
        println!();
    }
}

fn main() {
    header("Figure 21", "open-loop latency vs injection rate (1-flit requests, 4-flit replies)");
    sweep(TrafficPattern::UniformRandom, "(a) uniform random many-to-few-to-many");
    sweep(
        TrafficPattern::Hotspot { hot: 0, fraction: 0.2 },
        "(b) hotspot many-to-few-to-many (20% of requests to one MC)",
    );
    println!("\npaper: CP placement and 2P injection raise saturation throughput;");
    println!("2P helps most under hotspot traffic");
}
