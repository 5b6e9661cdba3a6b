//! Define a custom synthetic kernel and evaluate how sensitive it is to
//! the on-chip network — the methodology of the paper's Section III
//! applied to your own workload.
//!
//! Run with: `cargo run --release --example custom_workload`

use tenoc::core::experiments::run_benchmark;
use tenoc::core::presets::Preset;
use tenoc::simt::{KernelSpec, TrafficClass};

fn main() {
    // A pointer-chasing-style kernel: divergent (8 lines per access),
    // streaming, with little memory-level parallelism.
    let kernel = KernelSpec::builder("my-kernel")
        .class(TrafficClass::HH)
        .warps_per_core(16)
        .insts_per_warp(120)
        .mem_fraction(0.35)
        .stream_fraction(0.9)
        .lines_per_mem(8)
        .mem_dep_distance(1)
        .build();

    println!(
        "kernel: {} ({} warps/core, {:.0}% memory instructions)",
        kernel.name,
        kernel.warps_per_core,
        kernel.mem_fraction * 100.0
    );

    let base = run_benchmark(Preset::BaselineTbDor, &kernel, 1.0);
    let perfect = run_benchmark(Preset::Perfect, &kernel, 1.0);
    let te = run_benchmark(Preset::ThroughputEffective, &kernel, 1.0);

    println!("\n{:<24} {:>8} {:>12} {:>10}", "network", "IPC", "net latency", "MC stall");
    for (name, m) in
        [("baseline mesh", base), ("perfect network", perfect), ("throughput-effective", te)]
    {
        println!(
            "{name:<24} {:>8.1} {:>9.1} cyc {:>9.0}%",
            m.ipc,
            m.avg_net_latency,
            m.mc_stall_fraction * 100.0
        );
    }
    let headroom = (perfect.ipc / base.ipc - 1.0) * 100.0;
    let captured = (te.ipc / base.ipc - 1.0) * 100.0;
    println!("\nnetwork headroom: {headroom:+.1}%; the throughput-effective design captures {captured:+.1}%");
    println!("while *shrinking* the NoC (see `tenoc figures --only tab06_area`)");
}
