//! Proves the arena kernel's zero-allocation steady state: after a
//! warm-up that grows every slab, ring and packet-table row to its peak
//! occupancy, 1k cycles of the fig. 20 combined design point's double
//! network on the production engine ([`ArenaDoubleNetwork`]) perform zero
//! heap allocations — and again with telemetry armed, whose buffers are
//! all sized at arming. The per-router oracle makes no such promise: it
//! is the plain reference the arena is checked against, not a fast path.
//!
//! This file holds exactly one test: the counting global allocator is
//! process-wide, so a concurrently running test could blur the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tenoc_core::system::IcntConfig;
use tenoc_core::Preset;
use tenoc_noc::{ArenaDoubleNetwork, Interconnect, Packet, TelemetryConfig, Tick};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn arena_steady_state_allocates_nothing() {
    let IcntConfig::Double(cfg) = Preset::ThroughputEffective.icnt(6) else {
        panic!("fig. 20 combined preset must be a double network");
    };
    let mcs = cfg.mc_nodes.clone();
    let cores: Vec<usize> = (0..cfg.mesh.len()).filter(|n| !mcs.contains(n)).collect();
    let mut net = ArenaDoubleNetwork::from_single(&cfg);

    // Sustained many-to-few traffic: every cycle each class attempts a
    // couple of injections; blocked attempts are dropped (backpressure).
    let drive = |net: &mut ArenaDoubleNetwork, cycles: u64, tag0: u64| {
        for i in 0..cycles {
            for lane in 0..2u64 {
                let t = tag0 + i * 2 + lane;
                let core = cores[(t as usize * 5 + 3) % cores.len()];
                let mc = mcs[t as usize % mcs.len()];
                let _ = net.try_inject(core, Packet::request(core, mc, 8, t));
                let _ = net.try_inject(mc, Packet::reply(mc, core, 64, t));
            }
            net.tick();
            for node in 0..cfg.mesh.len() {
                while net.pop(node).is_some() {}
            }
        }
    };

    // Warm-up: reach peak queue and packet-table occupancy everywhere.
    drive(&mut net, 2_000, 0);

    let before = ALLOCS.load(Ordering::SeqCst);
    drive(&mut net, 1_000, 4_000);
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "arena kernel allocated {} times in 1k warm cycles",
        after - before
    );

    // Sanity: the run above actually moved traffic through the fabric.
    assert!(net.stats().cycles >= 3_000);
    assert!(net.flit_hops() > 10_000);

    // Armed: arming allocates every instrument once; counting link flits,
    // sampling occupancy and overwriting a full flight ring never do.
    net.enable_telemetry(TelemetryConfig::default());
    let before = ALLOCS.load(Ordering::SeqCst);
    drive(&mut net, 1_000, 6_000);
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "armed arena kernel allocated in 1k warm cycles");
    let reports = net.telemetry_reports();
    assert!(reports.iter().all(|r| r.flight_dropped > 0), "the flight rings wrapped");
}
