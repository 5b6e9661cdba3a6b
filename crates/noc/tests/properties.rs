//! Property-based tests of the NoC: routing legality/minimality, and
//! end-to-end delivery with payload integrity under random traffic.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tenoc_noc::routing::{plan_injection, plan_options, trace_path};
use tenoc_noc::{
    build_mesh, Coord, Mesh, NetworkConfig, Packet, PacketClass, Phase, RoutingKind, VcLayout,
};

// Checkerboard routes between all legal endpoint pairs are minimal and
// never turn at a half-router, for several mesh sizes and RNG seeds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn checkerboard_routes_minimal_and_legal(
        k in prop::sample::select(vec![4usize, 6, 8, 10]),
        seed in any::<u64>(),
        src_i in 0usize..100,
        dst_i in 0usize..100,
    ) {
        let mesh = Mesh::checkerboard(k);
        let layout = VcLayout::new(4, 2, true);
        let src = src_i % mesh.len();
        let dst = dst_i % mesh.len();
        prop_assume!(src != dst);
        let mut rng = SmallRng::seed_from_u64(seed);
        let plan = plan_injection(RoutingKind::Checkerboard, &mesh, src, dst, &mut rng);
        if plan.is_err() {
            // Only full-to-full odd-parity pairs may be unroutable.
            prop_assert!(!mesh.is_half(src) && !mesh.is_half(dst));
            let s = mesh.coord(src);
            let d = mesh.coord(dst);
            prop_assert_eq!((s.x + s.y) % 2, 0);
            prop_assert_eq!((d.x + d.y) % 2, 0);
            return Ok(());
        }
        let path = trace_path(
            RoutingKind::Checkerboard,
            &layout,
            &mesh,
            src,
            dst,
            PacketClass::Request,
            &mut rng,
        )
        .unwrap();
        // Reaches the destination with minimal hops.
        prop_assert_eq!(*path.last().unwrap(), dst);
        prop_assert_eq!(
            path.len() as u32 - 1,
            mesh.coord(src).manhattan(mesh.coord(dst))
        );
        // Never turns at a half-router.
        for w in path.windows(3) {
            let (a, b, c) = (mesh.coord(w[0]), mesh.coord(w[1]), mesh.coord(w[2]));
            let turns = (a.y == b.y) != (b.y == c.y);
            if turns {
                prop_assert!(!mesh.is_half(w[1]), "turn at half router {:?}", b);
            }
        }
    }
}

// DOR XY routes are minimal for any pair on any full mesh.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn dor_routes_are_minimal(
        k in prop::sample::select(vec![3usize, 5, 7]),
        src_i in 0usize..60,
        dst_i in 0usize..60,
    ) {
        let mesh = Mesh::all_full(k);
        let layout = VcLayout::new(2, 2, false);
        let src = src_i % mesh.len();
        let dst = dst_i % mesh.len();
        let mut rng = SmallRng::seed_from_u64(1);
        let path = trace_path(RoutingKind::DorXy, &layout, &mesh, src, dst, PacketClass::Reply, &mut rng)
            .unwrap();
        prop_assert_eq!(*path.last().unwrap(), dst);
        prop_assert_eq!(path.len() as u32 - 1, mesh.coord(src).manhattan(mesh.coord(dst)));
    }
}

// Every packet injected into a real network is eventually delivered
// exactly once, with its tag intact, and the network drains completely.
// Runs on whatever `build_mesh` returns: the engine production runs.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_traffic_is_delivered_exactly_once(
        seed in any::<u64>(),
        n_packets in 1usize..40,
        checkerboard in any::<bool>(),
    ) {
        let cfg = if checkerboard {
            NetworkConfig::checkerboard_mesh(6)
        } else {
            NetworkConfig::baseline_mesh(6)
        };
        let mcs = cfg.mc_nodes.clone();
        let cores: Vec<usize> = (0..cfg.mesh.len()).filter(|n| !mcs.contains(n)).collect();
        let mut net = build_mesh(cfg);
        let mut rng = SmallRng::seed_from_u64(seed);

        use rand::Rng;
        // Generate random core->MC requests and MC->core replies.
        let mut pending: Vec<Packet> = (0..n_packets)
            .map(|i| {
                if rng.gen_bool(0.5) {
                    let src = cores[rng.gen_range(0..cores.len())];
                    let dst = mcs[rng.gen_range(0..mcs.len())];
                    Packet::request(src, dst, if rng.gen_bool(0.8) { 8 } else { 64 }, i as u64)
                } else {
                    let src = mcs[rng.gen_range(0..mcs.len())];
                    let dst = cores[rng.gen_range(0..cores.len())];
                    Packet::reply(src, dst, 64, i as u64)
                }
            })
            .collect();

        let mut got = std::collections::HashMap::new();
        for _ in 0..20_000 {
            pending.retain(|&p| net.try_inject(p.header.src, p).is_err());
            net.step();
            for node in 0..36 {
                while let Some(out) = net.pop(node) {
                    prop_assert_eq!(out.header.dst, node);
                    *got.entry(out.header.tag).or_insert(0u32) += 1;
                }
            }
            if pending.is_empty() && net.in_flight() == 0 {
                break;
            }
        }
        prop_assert!(pending.is_empty(), "all packets must inject");
        prop_assert_eq!(net.in_flight(), 0, "network must drain");
        prop_assert_eq!(got.len(), n_packets, "each tag delivered");
        prop_assert!(got.values().all(|&c| c == 1), "no duplicates");
    }
}

// Flit conservation: flits injected equal flits ejected after draining.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn flit_conservation(seed in any::<u64>()) {
        let cfg = NetworkConfig::checkerboard_mesh(6);
        let mcs = cfg.mc_nodes.clone();
        let cores: Vec<usize> = (0..36).filter(|n| !mcs.contains(n)).collect();
        let mut net = build_mesh(cfg);
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pending: Vec<Packet> = (0..30)
            .map(|i| {
                let src = cores[rng.gen_range(0..cores.len())];
                let dst = mcs[rng.gen_range(0..mcs.len())];
                Packet::request(src, dst, 64, i)
            })
            .collect();
        for _ in 0..20_000 {
            pending.retain(|&p| net.try_inject(p.header.src, p).is_err());
            net.step();
            for node in 0..36 {
                while net.pop(node).is_some() {}
            }
            if pending.is_empty() && net.in_flight() == 0 {
                break;
            }
        }
        let s = net.stats();
        let injected: u64 = s.injected_flits_by_node.iter().sum();
        let ejected: u64 = s.ejected_flits_by_node.iter().sum();
        prop_assert_eq!(injected, ejected);
        prop_assert_eq!(net.in_flight(), 0);
    }
}

// The case-2 intermediate of checkerboard routing is always a
// full-router inside the minimal quadrant, off the source row.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn case2_intermediate_invariants(seed in any::<u64>(), si in 0usize..36, di in 0usize..36) {
        let mesh = Mesh::checkerboard(6);
        prop_assume!(si != di);
        let mut rng = SmallRng::seed_from_u64(seed);
        if let Ok((_, Some(via))) =
            plan_injection(RoutingKind::Checkerboard, &mesh, si, di, &mut rng)
        {
            let s = mesh.coord(si);
            let d = mesh.coord(di);
            let v = mesh.coord(via);
            prop_assert!(!mesh.is_half(via));
            prop_assert!(v.x >= s.x.min(d.x) && v.x <= s.x.max(d.x));
            prop_assert!(v.y >= s.y.min(d.y) && v.y <= s.y.max(d.y));
            prop_assert_ne!(v.y, s.y);
        }
    }
}

// VC layouts partition without overlap for every (class, phase).
proptest! {
    #[test]
    fn vc_layout_partitions(total in prop::sample::select(vec![4u8, 8, 12]), split in any::<bool>()) {
        use tenoc_noc::{PacketClass, Phase};
        let layout = VcLayout::new(total, 2, split);
        let mut seen = vec![0u32; total as usize];
        for class in PacketClass::ALL {
            for phase in [Phase::Xy, Phase::Yx] {
                let set = layout.set_for(class, phase);
                for vc in set.iter() {
                    prop_assert!(vc < total);
                    seen[vc as usize] += 1;
                }
            }
        }
        // Every VC belongs to exactly one class (counted twice when phases
        // are not split because both phases map to the full class set).
        let expected = if split { 1 } else { 2 };
        prop_assert!(seen.iter().all(|&c| c == expected));
    }
}

// Checkerboard planning fails *exactly* for full-to-full pairs that share
// neither row nor column and whose XY turn node (d.x, s.y) has odd parity
// (for full endpoints the YX turn node's parity then matches, so every
// minimal turn would land on a half-router). Both directions of the iff,
// for random mesh sizes including odd radices.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn checkerboard_unroutable_iff_full_full_odd_parity(
        k in prop::sample::select(vec![4usize, 5, 6, 8, 9, 10]),
        seed in any::<u64>(),
        src_i in 0usize..100,
        dst_i in 0usize..100,
    ) {
        let mesh = Mesh::checkerboard(k);
        let src = src_i % mesh.len();
        let dst = dst_i % mesh.len();
        prop_assume!(src != dst);
        let s = mesh.coord(src);
        let d = mesh.coord(dst);
        let expect_unroutable = !mesh.is_half(src)
            && !mesh.is_half(dst)
            && s.y != d.y
            && s.x != d.x
            && (d.x + s.y) % 2 == 1;
        let mut rng = SmallRng::seed_from_u64(seed);
        let plan = plan_injection(RoutingKind::Checkerboard, &mesh, src, dst, &mut rng);
        prop_assert_eq!(
            plan.is_err(),
            expect_unroutable,
            "k={} {:?} -> {:?}: plan={:?}",
            k,
            s,
            d,
            plan
        );
    }
}

// Every case-2 plan (not just the sampled one) uses an intermediate that
// is a full-router outside the source row, inside the minimal quadrant,
// reached in the YX phase — for random mesh sizes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn case2_intermediates_full_routers_off_source_row(
        k in prop::sample::select(vec![4usize, 6, 8, 10]),
        src_i in 0usize..100,
        dst_i in 0usize..100,
    ) {
        let mesh = Mesh::checkerboard(k);
        let src = src_i % mesh.len();
        let dst = dst_i % mesh.len();
        prop_assume!(src != dst);
        if let Ok(options) = plan_options(RoutingKind::Checkerboard, &mesh, src, dst) {
            let s = mesh.coord(src);
            let d = mesh.coord(dst);
            for (phase, via) in options {
                let Some(via) = via else { continue };
                prop_assert_eq!(phase, Phase::Yx, "case 2 starts in the YX phase");
                prop_assert!(!mesh.is_half(via), "intermediate must be a full-router");
                let v = mesh.coord(via);
                prop_assert_ne!(v.y, s.y, "intermediate off the source row");
                prop_assert!(v.x >= s.x.min(d.x) && v.x <= s.x.max(d.x), "minimal quadrant");
                prop_assert!(v.y >= s.y.min(d.y) && v.y <= s.y.max(d.y), "minimal quadrant");
            }
        }
    }
}

// Credit-based flow control over one InputVc: replaying a random
// send/drain schedule against the upstream credit counter, the credit
// count always mirrors free_slots, never exceeds capacity, and every
// flit sent is eventually received in order (no loss, no reorder).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn credits_conserved_and_no_flit_loss(
        capacity in 1usize..=16,
        ops in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        use tenoc_noc::buffer::InputVc;
        use tenoc_noc::{Flit, Packet, PacketClass};

        let mut vc = InputVc::new(capacity);
        // Upstream's view of downstream space: starts at full capacity and
        // moves only on send (-1) and credit return, i.e. pop (+1).
        let mut credits = capacity;
        let mut sent: u16 = 0;
        let mut received: u16 = 0;
        for (cycle, send) in ops.iter().enumerate() {
            if *send {
                // Upstream may only send while it holds a credit; this is
                // exactly the condition that makes `push` panic-free.
                if credits > 0 {
                    let mut p = Packet::new(PacketClass::Request, 0, 1, 64, u64::from(sent));
                    p.header.flits = 1;
                    vc.push(Flit { hdr: p.header, seq: sent }, cycle as u64);
                    credits -= 1;
                    sent += 1;
                }
            } else if let Some((flit, _)) = vc.pop() {
                prop_assert_eq!(flit.seq, received, "flits must leave in arrival order");
                received += 1;
                credits += 1;
            }
            prop_assert!(credits <= capacity, "credits may never exceed capacity");
            prop_assert_eq!(credits, vc.free_slots(), "credit count must track free slots");
            prop_assert_eq!(
                usize::from(sent - received),
                vc.len(),
                "every in-flight flit is buffered: no loss, no duplication"
            );
        }
        // Drain: everything sent is received, and all credits come home.
        while let Some((flit, _)) = vc.pop() {
            prop_assert_eq!(flit.seq, received);
            received += 1;
            credits += 1;
        }
        prop_assert_eq!(sent, received, "no flit may be lost");
        prop_assert_eq!(credits, capacity, "all credits return once the VC drains");
        prop_assert!(vc.is_empty());
    }
}

// Round-robin fairness: with any static set of persistent requesters,
// every requester is granted within `n` consecutive rounds, from any
// starting pointer position.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn round_robin_grants_everyone_within_n_rounds(
        mask in prop::collection::vec(any::<bool>(), 1..9),
        warmup in 0usize..20,
    ) {
        use tenoc_noc::arbiter::RoundRobin;

        prop_assume!(mask.iter().any(|&r| r));
        let n = mask.len();
        let mut arb = RoundRobin::new(n);
        // Put the priority pointer in an arbitrary state.
        for _ in 0..warmup {
            arb.pick(|_| true);
        }
        let req = |i: usize| mask[i];
        let winners: Vec<usize> = (0..n).map(|_| arb.pick(req).unwrap()).collect();
        for (i, &wants) in mask.iter().enumerate() {
            if wants {
                prop_assert!(
                    winners.contains(&i),
                    "requester {i} starved over {n} rounds (winners: {winners:?})"
                );
            } else {
                prop_assert!(!winners.contains(&i), "non-requester {i} must never be granted");
            }
        }
        // Strict rotation: between two grants to the same requester, every
        // other persistent requester is granted exactly once.
        let active = mask.iter().filter(|&&r| r).count();
        for w in winners.windows(active) {
            let mut sorted = w.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), active, "each cycle of grants covers all requesters");
        }
    }
}

// Torus neighbor symmetry: stepping in direction d and then back in
// d.opposite() returns to the start from *every* node — including across
// the wraparound links, where the mesh would have fallen off the edge.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn torus_neighbor_is_symmetric_across_wraparound(
        k in prop::sample::select(vec![2usize, 3, 4, 6, 8]),
        node_i in 0usize..100,
    ) {
        use tenoc_noc::Direction;
        let torus = Mesh::torus(k);
        let node = node_i % torus.len();
        for d in [Direction::North, Direction::East, Direction::South, Direction::West] {
            let n = torus.neighbor(node, d);
            prop_assert!(n.is_some(), "every torus node has all four neighbors");
            let back = torus.neighbor(n.unwrap(), d.opposite());
            prop_assert_eq!(back, Some(node), "step {d:?} then back must return home");
        }
    }
}

// coord/node round-trip on every fabric: node(coord(n)) == n and
// coord(node(c)) == c for all in-range values.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn coord_node_round_trip(
        k in prop::sample::select(vec![2usize, 3, 4, 6, 8]),
        node_i in 0usize..100,
    ) {
        for mesh in [Mesh::all_full(k), Mesh::torus(k), Mesh::cmesh(k, 2)] {
            let node = node_i % mesh.len();
            prop_assert_eq!(mesh.node(mesh.coord(node)), node);
            let c = Coord::new((node % k) as u16, (node / k) as u16);
            prop_assert_eq!(mesh.coord(mesh.node(c)), c);
        }
    }
}

// Torus DOR routes are minimal under the *wrap-aware* metric: hop count
// equals the per-dimension min(d, k - d) distance, which is at most the
// mesh's Manhattan distance and strictly smaller whenever a wrap helps.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn torus_routes_match_wrap_aware_distance(
        k in prop::sample::select(vec![3usize, 4, 5, 6, 8]),
        src_i in 0usize..100,
        dst_i in 0usize..100,
    ) {
        let torus = Mesh::torus(k);
        let layout = VcLayout::new(4, 2, false).with_dateline();
        let src = src_i % torus.len();
        let dst = dst_i % torus.len();
        let mut rng = SmallRng::seed_from_u64(7);
        let path =
            trace_path(RoutingKind::DorXy, &layout, &torus, src, dst, PacketClass::Request, &mut rng)
                .unwrap();
        prop_assert_eq!(*path.last().unwrap(), dst);
        prop_assert_eq!(path.len() as u32 - 1, torus.distance(src, dst));
        let s = torus.coord(src);
        let d = torus.coord(dst);
        let wrap_aware = |a: u16, b: u16| {
            let delta = a.abs_diff(b) as usize;
            delta.min(k - delta) as u32
        };
        prop_assert_eq!(torus.distance(src, dst), wrap_aware(s.x, d.x) + wrap_aware(s.y, d.y));
        prop_assert!(torus.distance(src, dst) <= s.manhattan(d));
    }
}

// C-mesh terminal mapping is a bijection: every terminal maps to exactly
// one (router, local port) slot and every slot hosts exactly one terminal.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn cmesh_terminal_router_mapping_is_a_bijection(
        k in prop::sample::select(vec![2usize, 3, 4, 6]),
        conc in prop::sample::select(vec![2u8, 3, 4]),
    ) {
        let cmesh = Mesh::cmesh(k, conc);
        prop_assert_eq!(cmesh.terminals(), cmesh.len() * conc as usize);
        let mut seen = std::collections::HashSet::new();
        for t in 0..cmesh.terminals() {
            let slot = (cmesh.terminal_router(t), cmesh.terminal_port(t));
            prop_assert!(slot.0 < cmesh.len());
            prop_assert!(slot.1 < conc as usize);
            prop_assert!(seen.insert(slot), "terminal {t} collides on slot {slot:?}");
        }
        prop_assert_eq!(seen.len(), cmesh.terminals(), "every slot hosts one terminal");
    }
}

// Hand-check a known unroutable pair to pin the error contract.
#[test]
fn known_unroutable_pair() {
    let mesh = Mesh::checkerboard(6);
    let src = mesh.node(Coord::new(0, 0));
    let dst = mesh.node(Coord::new(3, 0));
    // Same row: always routable even between full routers.
    let mut rng = SmallRng::seed_from_u64(0);
    assert!(plan_injection(RoutingKind::Checkerboard, &mesh, src, dst, &mut rng).is_ok());
}
