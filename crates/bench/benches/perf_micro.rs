//! Criterion microbenchmarks of the simulator itself: router-pipeline
//! throughput under load, DRAM scheduling throughput and a closed-loop
//! smoke configuration. These track simulator performance regressions;
//! they do not reproduce paper data.

use criterion::{criterion_group, criterion_main, Criterion};
use tenoc_core::presets::Preset;
use tenoc_core::system::{System, SystemConfig};
use tenoc_noc::{build_mesh, NetworkConfig, Packet};
use tenoc_workloads::by_name;

fn bench_network_step(c: &mut Criterion) {
    c.bench_function("network_step_loaded_mesh", |b| {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mcs = cfg.mc_nodes.clone();
        let mut net = build_mesh(cfg);
        // Pre-load with traffic and keep re-injecting.
        let mut i = 0u64;
        b.iter(|| {
            let src = (i % 28) as usize;
            let dst = mcs[(i % 8) as usize];
            let _ = net.try_inject(src, Packet::request(src, dst, 8, i));
            net.step();
            for &mc in &mcs {
                while let Some(req) = net.pop(mc) {
                    let _ =
                        net.try_inject(mc, Packet::reply(mc, req.header.src, 64, req.header.tag));
                }
            }
            i += 1;
        });
    });
}

fn bench_dram(c: &mut Criterion) {
    use tenoc_dram::{DramConfig, DramRequest, MemoryController};
    c.bench_function("dram_frfcfs_step", |b| {
        let mut mc = MemoryController::new(DramConfig::gddr3());
        let mut now = 0u64;
        let mut i = 0u64;
        b.iter(|| {
            let _ = mc.push(DramRequest::read((i % 512) * 64, i, now));
            mc.step(now);
            while mc.pop_completed(now).is_some() {}
            now += 1;
            i += 1;
        });
    });
}

fn bench_closed_loop(c: &mut Criterion) {
    c.bench_function("closed_loop_smoke_rd", |b| {
        let spec = by_name("RD").unwrap().scaled(0.02);
        b.iter(|| {
            let cfg = SystemConfig::with_icnt(Preset::BaselineTbDor.icnt(6));
            let mut sys = System::new(cfg, &spec);
            sys.run()
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_network_step, bench_dram, bench_closed_loop
}
criterion_main!(benches);
