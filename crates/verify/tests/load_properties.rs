//! Property tests of the static load analyzer: for randomly drawn
//! *legal* configurations, each as a single network and as a double
//! network's two slices, the static saturation bound must dominate the throughput the
//! simulator actually sustains, and the static zero-load latency must be
//! a floor on the latency measured at a very low injection rate.
//!
//! Windows are short (the simulator runs in debug mode here), so the
//! throughput comparison keeps only the rates the run
//! [keeps up](OpenLoopResult::keeps_up) with, the filter of
//! `tests/static_bounds.rs` too: past saturation the delivered traffic
//! mix legitimately drifts away from the analyzed matrix, and only rates
//! the fabric keeps up with witness the bound.

use proptest::prelude::*;
use tenoc_noc::openloop::{run_open_loop_on, OpenLoopConfig, OpenLoopResult, TrafficPattern};
use tenoc_noc::{ArenaDoubleNetwork, ArenaNetwork, Interconnect, NetworkConfig, VcLayout};
use tenoc_verify::load::{analyze_load, ClassZeroLoad, TrafficMatrix};

/// A randomly drawn legal configuration: baseline full-router mesh (DOR
/// with 2 or 4 VCs) or checkerboard mesh (checkerboard routing,
/// phase-split 4 or 8 VCs), with varied MC terminal ports, buffer depth
/// and router pipeline depth.
fn draw_config(
    checkerboard: bool,
    wide_vcs: bool,
    mc_ports: usize,
    vc_depth: usize,
    fast_routers: bool,
) -> NetworkConfig {
    let mut cfg = if checkerboard {
        let mut c = NetworkConfig::checkerboard_mesh(6);
        c.vcs = VcLayout::new(if wide_vcs { 8 } else { 4 }, 2, true);
        c
    } else {
        let mut c = NetworkConfig::baseline_mesh(6);
        c.vcs = VcLayout::new(if wide_vcs { 4 } else { 2 }, 2, false);
        c
    };
    cfg.mc_inject_ports = mc_ports;
    cfg.mc_eject_ports = mc_ports;
    cfg.vc_depth = vc_depth;
    if fast_routers {
        cfg.router_stages = 1;
        cfg.half_router_stages = 1;
    }
    cfg
}

/// The many-to-few analysis of `cfg`, or with `sliced` of its two slices
/// as a double network carries them: the saturation rate, the accepted
/// bound and the per-class zero-load latencies.
fn analyze_drawn(cfg: &NetworkConfig, sliced: bool) -> (f64, f64, Vec<ClassZeroLoad>) {
    let load = analyze_load(cfg, sliced, TrafficMatrix::ManyToFew);
    let zero_load = load.slices.into_iter().flat_map(|r| r.zero_load).collect();
    (load.saturation_rate, load.accepted_bound, zero_load)
}

fn quick_run(cfg: &NetworkConfig, sliced: bool, rate: f64) -> OpenLoopResult {
    let mut ol = OpenLoopConfig::new(cfg.clone(), rate, TrafficPattern::UniformRandom);
    ol.warmup = 800;
    ol.measure = 3_000;
    ol.drain = 5_000;
    let mut net: Box<dyn Interconnect> = if sliced {
        Box::new(ArenaDoubleNetwork::from_single(cfg))
    } else {
        Box::new(ArenaNetwork::new(cfg.clone()))
    };
    run_open_loop_on(&ol, &mut *net)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    fn static_bound_dominates_sustained_throughput(
        checkerboard in any::<bool>(),
        wide_vcs in any::<bool>(),
        mc_ports in 1usize..=2,
        vc_depth in prop::sample::select(vec![4usize, 8]),
        fast_routers in any::<bool>(),
    ) {
        let cfg = draw_config(checkerboard, wide_vcs, mc_ports, vc_depth, fast_routers);
        prop_assert!(tenoc_verify::analyze(&cfg).is_clean(), "drew an illegal config");
        prop_assert!(tenoc_verify::analyze_double(&cfg).is_clean(), "drew illegal slices");
        for sliced in [false, true] {
            let (saturation_rate, bound, _) = analyze_drawn(&cfg, sliced);
            prop_assert!(saturation_rate > 0.0);
            let mut kept_up = 0;
            // Rates as multiples of the fabric's own saturation rate.
            for load in [0.5, 0.9, 1.0] {
                let rate = load * saturation_rate;
                let r = quick_run(&cfg, sliced, rate);
                if r.keeps_up() {
                    kept_up += 1;
                    prop_assert!(
                        r.ejection_rate <= bound * 1.05,
                        "sliced {sliced}, rate {rate}: sustained {:.4} exceeds static bound \
                         {bound:.4}",
                        r.ejection_rate
                    );
                }
            }
            prop_assert!(kept_up > 0, "sliced {sliced}: no rate kept up to witness the bound");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    fn static_zero_load_latency_is_a_floor(
        checkerboard in any::<bool>(),
        wide_vcs in any::<bool>(),
        mc_ports in 1usize..=2,
        vc_depth in prop::sample::select(vec![4usize, 8]),
        fast_routers in any::<bool>(),
    ) {
        let cfg = draw_config(checkerboard, wide_vcs, mc_ports, vc_depth, fast_routers);
        for sliced in [false, true] {
            let (_, _, zero_load) = analyze_drawn(&cfg, sliced);
            let r = quick_run(&cfg, sliced, 0.005);
            prop_assert!(r.keeps_up(), "sliced {sliced}: 0.005 must be deep below saturation");
            let zl = |class: &str| {
                zero_load.iter().find(|z| z.class == class).map(|z| z.mean).unwrap()
            };
            // 5% tolerance: short-window sampling noise on the measured mean.
            prop_assert!(
                zl("request") <= r.avg_request_latency * 1.05,
                "sliced {sliced}: static request zero-load {:.2} above measured mean {:.2}",
                zl("request"),
                r.avg_request_latency
            );
            prop_assert!(
                zl("reply") <= r.avg_reply_latency * 1.05,
                "sliced {sliced}: static reply zero-load {:.2} above measured mean {:.2}",
                zl("reply"),
                r.avg_reply_latency
            );
        }
    }
}

/// A double network's slices split the many-to-few matrix by class: the
/// request and reply slices' demands partition the matrix analyzed on the
/// slice fabric as a whole, every channel's load is the sum of the two,
/// and the binding slice sets the combined bound.
#[test]
fn double_network_slices_partition_the_matrix_by_class() {
    for cfg in [NetworkConfig::checkerboard_mesh(6), NetworkConfig::baseline_mesh(6)] {
        let double = analyze_load(&cfg, true, TrafficMatrix::ManyToFew);
        let whole = analyze_load(&cfg.slice(), false, TrafficMatrix::ManyToFew);
        let [request, reply] = &double.slices[..] else {
            panic!("a double network has two slices")
        };
        let whole = &whole.slices[0];
        assert_eq!(request.demands_total + reply.demands_total, whole.demands_total);
        let classes = |r: &tenoc_verify::load::LoadReport| {
            r.zero_load.iter().map(|z| z.class.clone()).collect::<Vec<_>>()
        };
        assert_eq!(
            (classes(request), classes(reply)),
            (vec!["request".into()], vec!["reply".into()])
        );
        for ((a, b), w) in
            request.channels.iter().zip(reply.channels.iter()).zip(whole.channels.iter())
        {
            assert!((a.load + b.load - w.load).abs() <= 1e-9 * w.load.max(1.0), "{w:?}");
        }
        assert_eq!(double.saturation_rate, request.saturation_rate.min(reply.saturation_rate));
    }
}
