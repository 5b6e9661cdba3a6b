//! The individual static checks run by [`crate::analyze`].
//!
//! All checks read one exhaustive enumeration of the routing function,
//! the [`RouteTable`]: for every ordered (src, dst) pair, every protocol
//! class and every plan in `plan_options` (the complete set of outcomes
//! `plan_injection` can produce), the route the simulator's own
//! `next_hop` takes. Because the walk reuses the production routing code,
//! the proofs cover the simulator's behavior by construction rather than
//! a re-derivation of it.
//!
//! Everything but MC reachability depends on the routes alone, so it is
//! proven once per table ([`prove`]) and shared by every configuration
//! the table routes ([`RouteProof::findings`]).

use crate::cdg::{Cdg, Witness};
use crate::route::{Hop, RouteTable, Walk};
use crate::{CheckKind, Detail, Finding, Severity, VerifyStats};
use tenoc_noc::routing::{vc_set_for, VcSet};
use tenoc_noc::topology::{connection_allowed, InPort, OutPortKind};
use tenoc_noc::{Mesh, NetworkConfig, NodeId, PacketClass, Phase, RoutingKind, VcLayout};

/// The independent routability specification for checkerboard meshes: a
/// pair is unroutable exactly when both endpoints are full-routers, they
/// share neither row nor column, and the XY turn node `(d.x, s.y)` has
/// odd parity (for full-to-full pairs the YX turn node then has odd
/// parity too, so every minimal turn lands on a half-router).
pub(crate) fn expected_unroutable(mesh: &Mesh, src: NodeId, dst: NodeId) -> bool {
    let s = mesh.coord(src);
    let d = mesh.coord(dst);
    !mesh.is_half(src)
        && !mesh.is_half(dst)
        && !s.same_row(d)
        && !s.same_col(d)
        && (d.x + s.y) % 2 == 1
}

/// Caps the number of per-pair violation messages so a systematically
/// broken configuration produces a readable report.
const MAX_DETAILS: usize = 8;

#[derive(Clone)]
struct Tally {
    violations: Vec<String>,
    total: usize,
}

impl Tally {
    fn new() -> Self {
        Tally { violations: Vec::new(), total: 0 }
    }

    /// Counts one violation; only the first `MAX_DETAILS` are spelled.
    fn push(&mut self, msg: impl FnOnce() -> String) {
        self.total += 1;
        if self.violations.len() < MAX_DETAILS {
            self.violations.push(msg());
        }
    }

    fn into_finding(self, check: CheckKind, ok_msg: String) -> Finding {
        if self.total == 0 {
            return Finding::info(check, ok_msg);
        }
        let mut msg = format!("{} violation(s):", self.total);
        for v in &self.violations {
            msg.push_str("\n    ");
            msg.push_str(v);
        }
        if self.total > self.violations.len() {
            msg.push_str(&format!("\n    ... and {} more", self.total - self.violations.len()));
        }
        Finding::violation(check, msg)
    }
}

/// What the prover concludes from a route table alone: the work counts,
/// the routability iff, and the turn-legality, minimality,
/// routing-deadlock, VC-partition and protocol-separation findings.
pub(crate) struct RouteProof {
    pub stats: VerifyStats,
    /// The unroutable-iff tally; each configuration adds its own MC
    /// placement violations before reporting it.
    routability: Tally,
    /// The routability proof, reported when no configuration adds any.
    routability_ok: String,
    /// The route-only findings, in report order.
    findings: Vec<Finding>,
}

impl RouteProof {
    /// Appends to `out` one finding per check for `cfg` (routed by
    /// `table`), info when proven, violation with details otherwise:
    /// routability, turn legality, minimality, routing deadlock, VC
    /// partition, protocol separation. [`Detail::Violations`] appends the
    /// violations alone.
    pub(crate) fn findings(
        &self,
        cfg: &NetworkConfig,
        table: &RouteTable,
        detail: Detail,
        out: &mut Vec<Finding>,
    ) {
        let mut routability = self.routability.clone();
        check_mc_reachability(cfg, table, &mut routability);
        if detail == Detail::Full || routability.total > 0 {
            let ok = self.routability_ok.clone();
            out.push(routability.into_finding(CheckKind::Routability, ok));
        }
        let kept = |f: &&Finding| detail == Detail::Full || f.severity == Severity::Violation;
        out.extend(self.findings.iter().filter(kept).cloned());
    }
}

/// Proves everything the routes alone decide, walking the table once.
pub(crate) fn prove(table: &RouteTable) -> RouteProof {
    let mesh = &table.mesh;
    let kind = table.routing;
    let mut stats = VerifyStats::default();
    let mut cdg = Cdg::new(mesh, table.vcs.total);
    let mut routability = Tally::new();
    let mut turns = Tally::new();
    let mut minimality = Tally::new();

    for src in mesh.nodes() {
        for dst in mesh.nodes() {
            if src == dst {
                continue;
            }
            stats.pairs += 1;
            let expected = kind == RoutingKind::Checkerboard && expected_unroutable(mesh, src, dst);
            if !table.routable(src, dst) {
                stats.unroutable_pairs += 1;
                if !expected {
                    routability.push(|| {
                        format!(
                            "{src} -> {dst} unroutable but not a full-to-full odd-parity \
                             checkerboard pair"
                        )
                    });
                }
                continue;
            }
            if expected {
                routability.push(|| {
                    format!(
                        "{src} -> {dst} routable but the checkerboard specification says it \
                         must not be"
                    )
                });
            }
            for plan in table.plans(src, dst) {
                for &class in table.classes() {
                    stats.plans_traced += 1;
                    let walk = table.walk(plan, class);
                    let hops = table.hops(walk);
                    check_route(mesh, walk, hops, src, dst, class, &mut turns, &mut minimality);
                    feed_cdg(&mut cdg, walk, hops, src, dst, class);
                }
            }
        }
    }

    stats.cdg_vertices = cdg.vertex_count();
    stats.cdg_edges = cdg.edge_count();

    let routable = stats.pairs - stats.unroutable_pairs;
    let routability_ok = if kind == RoutingKind::Checkerboard {
        format!(
            "{routable}/{} ordered pairs routable; all {} unroutable pairs match the \
             full-to-full odd-parity predicate exactly; every MC <-> node pair routable",
            stats.pairs, stats.unroutable_pairs
        )
    } else {
        format!("all {} ordered pairs routable", stats.pairs)
    };
    let mut findings = vec![
        turns.into_finding(
            CheckKind::TurnLegality,
            "no route turns at a half-router and every hop uses an allowed router connection"
                .to_string(),
        ),
        minimality.into_finding(
            CheckKind::Minimality,
            format!(
                "all {} traced routes are minimal (hop count == shortest-path distance)",
                stats.plans_traced
            ),
        ),
    ];

    findings.push(match cdg.shortest_cycle() {
        None => Finding::info(
            CheckKind::RoutingDeadlock,
            format!(
                "channel dependency graph is acyclic ({} vc-channels, {} dependencies): \
                 routing-deadlock-free",
                stats.cdg_vertices, stats.cdg_edges
            ),
        ),
        Some((cycle, witnesses)) => {
            let mut msg = format!(
                "channel dependency graph has a cycle of length {} (of {} vc-channels, {} \
                 dependencies); a deadlocked packet set:",
                cycle.len(),
                stats.cdg_vertices,
                stats.cdg_edges
            );
            for (i, &v) in cycle.iter().enumerate() {
                let next = cycle[(i + 1) % cycle.len()];
                msg.push_str(&format!(
                    "\n    {} -> {}  (held/requested by {})",
                    cdg.describe_vertex(v),
                    cdg.describe_vertex(next),
                    witnesses[i]
                ));
            }
            Finding::violation(CheckKind::RoutingDeadlock, msg)
        }
    });

    findings.push(check_vc_partition(kind, &table.vcs));
    findings.push(check_protocol_separation(kind, &table.vcs));
    RouteProof { stats, routability, routability_ok, findings }
}

/// Per-route checks: turn legality at every intermediate router, and
/// minimality — the walk must eject at its destination after exactly
/// Manhattan-distance hops.
#[allow(clippy::too_many_arguments)]
fn check_route(
    mesh: &Mesh,
    walk: &Walk,
    hops: &[Hop],
    src: NodeId,
    dst: NodeId,
    class: PacketClass,
    turns: &mut Tally,
    minimality: &mut Tally,
) {
    let label = || {
        let via = walk.via.map(|v| format!(" via {v}")).unwrap_or_default();
        format!("{class:?} {src} -> {dst} [{:?}{via}]", walk.phase)
    };

    if !walk.ejected {
        minimality.push(|| format!("{} never reaches an ejection decision", label()));
        return;
    }
    if walk.end != dst {
        minimality
            .push(|| format!("{} ejects at node {} instead of its destination", label(), walk.end));
        return;
    }
    let dist = mesh.distance(src, dst);
    if hops.len() as u32 != dist {
        minimality.push(|| {
            format!("{} takes {} hops, shortest-path distance is {dist}", label(), hops.len())
        });
    }

    // Hop i enters the router hop i + 1 leaves, from direction hops[i].dir
    // (so through input port hops[i].dir.opposite()); the final decision
    // at the destination is an ejection, which is always allowed.
    for pair in hops.windows(2) {
        let (inbound, outbound) = (pair[0].dir, pair[1].dir);
        let router = pair[1].node;
        let inp = InPort::Dir(inbound.opposite());
        let out = OutPortKind::Dir(outbound);
        if !connection_allowed(mesh.kind(router), inp, out) {
            turns.push(|| {
                format!(
                    "{} turns {inbound:?} -> {outbound:?} at {} router {router}",
                    label(),
                    if mesh.is_half(router) { "half" } else { "full" }
                )
            });
        }
    }
}

/// Adds the route's dependencies to the CDG: the packet may hold any
/// granted VC on link `i` while requesting the VCs granted on link
/// `i + 1`. Injection sources and ejection sinks terminate chains, so
/// they contribute no edges. Each hop's VCs are marked used once.
fn feed_cdg(
    cdg: &mut Cdg,
    walk: &Walk,
    hops: &[Hop],
    src: NodeId,
    dst: NodeId,
    class: PacketClass,
) {
    let witness = Witness { src, dst, class, phase: walk.phase, via: walk.via };
    for (i, hold) in hops.iter().enumerate() {
        cdg.mark_used(hold.node, hold.dir, hold.vcs);
        if let Some(want) = hops.get(i + 1) {
            cdg.add_dependency(
                (hold.node, hold.dir, hold.vcs),
                (want.node, want.dir, want.vcs),
                witness,
            );
        }
    }
}

/// Every configured MC must be able to exchange traffic with every other
/// node in both directions — the paper's placement rule (MCs and L2 banks
/// on half-routers) exists precisely to avoid unroutable pairs.
fn check_mc_reachability(cfg: &NetworkConfig, table: &RouteTable, routability: &mut Tally) {
    for &mc in &cfg.mc_nodes {
        for node in cfg.mesh.nodes() {
            if node == mc {
                continue;
            }
            for (a, b) in [(node, mc), (mc, node)] {
                if !table.routable(a, b) {
                    routability.push(|| {
                        format!("MC placement broken: {a} -> {b} unroutable (MC at node {mc})")
                    });
                }
            }
        }
    }
}

/// The (class, phase) VC sets the routing function hands out — further
/// split into pre-/post-dateline halves on a torus — must tile the
/// physical VCs exactly: no overlap between distinct sets (overlap
/// re-couples traffic the layout claims to isolate) and no unused VC
/// (dead buffering the area model would still pay for).
fn check_vc_partition(kind: RoutingKind, layout: &VcLayout) -> Finding {
    let classes: &[PacketClass] =
        if layout.classes == 2 { &PacketClass::ALL } else { &[PacketClass::Request] };
    let phases: &[Phase] =
        if kind.needs_phase_split() { &[Phase::Xy, Phase::Yx] } else { &[Phase::Xy] };

    let mut sets: Vec<(String, VcSet)> = Vec::new();
    for &class in classes {
        for &phase in phases {
            if layout.split_dateline {
                for crossed in [false, true] {
                    let set = layout.dateline_set(class, phase, crossed);
                    let tag = if crossed { "post-dateline" } else { "pre-dateline" };
                    if !sets.iter().any(|(_, s)| *s == set) {
                        sets.push((format!("({class:?}, {phase:?}, {tag})"), set));
                    }
                }
            } else {
                let set = vc_set_for(kind, layout, class, phase);
                if !sets.iter().any(|(_, s)| *s == set) {
                    sets.push((format!("({class:?}, {phase:?})"), set));
                }
            }
        }
    }

    let mut owners: Vec<Vec<&str>> = vec![Vec::new(); layout.total as usize];
    for (name, set) in &sets {
        for vc in set.iter() {
            if (vc as usize) < owners.len() {
                owners[vc as usize].push(name.as_str());
            } else {
                return Finding::violation(
                    CheckKind::VcPartition,
                    format!("{name} grants vc{vc}, beyond the {} physical VCs", layout.total),
                );
            }
        }
    }

    let mut problems = Vec::new();
    for (vc, who) in owners.iter().enumerate() {
        match who.len() {
            0 => problems.push(format!("vc{vc} is granted to no (class, phase) set")),
            1 => {}
            _ => problems.push(format!(
                "vc{vc} is granted to {} distinct sets: {}",
                who.len(),
                who.join(", ")
            )),
        }
    }
    if problems.is_empty() {
        Finding::info(
            CheckKind::VcPartition,
            format!(
                "{} distinct (class, phase) sets tile the {} VCs exactly",
                sets.len(),
                layout.total
            ),
        )
    } else {
        Finding::violation(CheckKind::VcPartition, problems.join("; "))
    }
}

/// Request/reply protocol deadlock: with a two-class layout the classes
/// must own disjoint VC sets on every link (two logical networks on one
/// fabric). A single-class layout provides no in-network separation —
/// that is only safe when each physical network carries one class, as the
/// channel-sliced double network does, so it is reported as info rather
/// than a violation.
fn check_protocol_separation(kind: RoutingKind, layout: &VcLayout) -> Finding {
    if layout.classes != 2 {
        return Finding::info(
            CheckKind::ProtocolSeparation,
            "single-class VC layout: request/reply isolation is not provided in-network and \
             must come from physically disjoint networks (double-network slicing)"
                .to_string(),
        );
    }
    let phases: &[Phase] =
        if kind.needs_phase_split() { &[Phase::Xy, Phase::Yx] } else { &[Phase::Xy] };
    let mut overlaps = Vec::new();
    for &pq in phases {
        for &pr in phases {
            let rq = vc_set_for(kind, layout, PacketClass::Request, pq);
            let rp = vc_set_for(kind, layout, PacketClass::Reply, pr);
            for vc in rq.iter() {
                if rp.contains(vc) {
                    overlaps
                        .push(format!("vc{vc} serves both Request ({pq:?}) and Reply ({pr:?})"));
                }
            }
        }
    }
    if overlaps.is_empty() {
        Finding::info(
            CheckKind::ProtocolSeparation,
            "request and reply classes own disjoint VC sets in every phase: \
             protocol-deadlock-free (two logical networks on one fabric)"
                .to_string(),
        )
    } else {
        overlaps.truncate(MAX_DETAILS);
        Finding::violation(CheckKind::ProtocolSeparation, overlaps.join("; "))
    }
}
