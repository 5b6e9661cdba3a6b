//! Figure 21: open-loop latency versus offered load under many-to-few-
//! to-many traffic (uniform random and hotspot), for the five network
//! organizations the paper compares.

use tenoc_bench::{header, Preset};
use tenoc_core::EngineKind;
use tenoc_noc::openloop::{latency_curve, OpenLoopConfig, TrafficPattern};

const PRESETS: [(&str, Preset); 5] = [
    ("TB-DOR", Preset::BaselineTbDor),
    ("2x-TB-DOR", Preset::TbDor2xBw),
    ("CP-DOR", Preset::CpDor2vc),
    ("CP-CR", Preset::CpCr4vc),
    ("CP-CR-2P", Preset::CpCr2pSingle),
];

fn sweep(pattern: TrafficPattern, title: &str) {
    println!("\n--- {title} ---");
    let full = std::env::var("TENOC_FULL").map(|v| v == "1").unwrap_or(false);
    let (warmup, measure, drain) =
        if full { (10_000, 20_000, 30_000) } else { (2_000, 5_000, 10_000) };
    let rates: Vec<f64> = (1..=12).map(|i| i as f64 * 0.01).collect();
    print!("{:>10}", "rate");
    for (name, _) in PRESETS {
        print!(" {name:>10}");
    }
    println!();
    // Each curve stops at its first saturated point; later rows print it
    // as saturated.
    let curves: Vec<_> = PRESETS
        .iter()
        .map(|(_, preset)| {
            let icnt = preset.icnt(6);
            let cfg = OpenLoopConfig {
                warmup,
                measure,
                drain,
                ..OpenLoopConfig::new(icnt.net().clone(), 0.0, pattern)
            };
            latency_curve(&cfg, rates.iter().copied(), || icnt.build(EngineKind::Arena))
        })
        .collect();
    for (i, rate) in rates.iter().enumerate() {
        print!("{rate:>10.2}");
        for curve in &curves {
            match curve.get(i).filter(|r| !r.saturated()) {
                Some(r) => print!(" {:>10.1}", r.avg_latency),
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
