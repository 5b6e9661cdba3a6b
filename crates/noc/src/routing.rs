//! Routing algorithms: dimension-ordered XY, O1Turn and the paper's
//! **checkerboard routing** (CR).
//!
//! Checkerboard routing (paper Section IV-B) is an oblivious, minimal
//! routing algorithm for checkerboard meshes in which half of the routers
//! (odd-parity nodes) cannot turn packets. Routes are planned once at
//! injection:
//!
//! * If the XY turn node is a full-router (or no turn is needed), route XY.
//! * **Case 1** — otherwise, if the YX turn node is a full-router, route
//!   YX (the packet carries a phase bit, exactly "a single extra bit in the
//!   header" as in the paper).
//! * **Case 2** — if both turn nodes are half-routers (possible only for
//!   half-to-half pairs an even number of columns apart and not in the same
//!   row), pick a random intermediate *full*-router inside the minimal
//!   quadrant that is not in the source row and an even number of columns
//!   from the source; route YX to it, then XY to the destination. Hop
//!   count stays minimal.
//!
//! Deadlock freedom follows from phase-disjoint virtual channels with the
//! one-way phase order YX -> XY (as in O1Turn/ROMM-style two-phase
//! schemes).

use crate::config::{RoutingKind, VcLayout};
use crate::packet::{PacketClass, PacketHeader, Phase};
use crate::topology::Mesh;
use crate::types::{Coord, Direction, NodeId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A contiguous set of virtual channels `[first, first + count)`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct VcSet {
    /// First VC index in the set.
    pub first: u8,
    /// Number of VCs in the set.
    pub count: u8,
}

impl VcSet {
    /// Creates a set covering `[first, first + count)`.
    pub fn new(first: u8, count: u8) -> Self {
        VcSet { first, count }
    }

    /// `true` if `vc` belongs to the set.
    pub fn contains(&self, vc: u8) -> bool {
        vc >= self.first && vc < self.first + self.count
    }

    /// Iterates over the VCs in the set.
    pub fn iter(&self) -> impl Iterator<Item = u8> {
        self.first..self.first + self.count
    }
}

/// Where a packet leaves the current router.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum OutPort {
    /// Continue toward a neighboring router.
    Dir(Direction),
    /// The packet has reached its destination and should be ejected.
    Eject,
}

/// Route computation result for the packet at the head of an input VC.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct RouteDecision {
    /// Output direction or ejection.
    pub out: OutPort,
    /// Virtual channels the packet may be allocated at the next hop.
    pub vcs: VcSet,
}

/// Error returned when no legal route exists.
///
/// In a checkerboard mesh a packet between two *full*-routers an odd number
/// of columns (equivalently rows) apart cannot be routed, because every
/// minimal-or-not path would have to turn at a half-router (paper
/// Figure 12(a)). The paper's architecture avoids such pairs by placing
/// MCs and L2 banks at half-routers.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct UnroutableError {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

impl std::fmt::Display for UnroutableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no checkerboard route between full-routers {} and {} (odd-parity pair)",
            self.src, self.dst
        )
    }
}

impl std::error::Error for UnroutableError {}

/// One injection plan: the phase the packet starts in and, for two-phase
/// routes, the intermediate node at which it switches to XY.
type Plan = (Phase, Option<NodeId>);

/// The plans one `(algorithm, source, destination)` may be injected with,
/// as a count and an index-to-plan function — the single enumeration
/// [`plan_injection`] draws from and [`plan_options`] lists. No plan
/// appears under two indices, so each is drawn with probability
/// `1 / count`.
#[derive(Copy, Clone, Debug)]
enum PlanSet {
    /// One deterministic plan: DOR, straight lines, checkerboard cases 0/1.
    Fixed(Plan),
    /// O1Turn: XY or YX, no intermediate.
    EitherOrder,
    /// Checkerboard case 2: the `nx x ny` grid of [`case2_ranges`]
    /// intermediates, x-major.
    Case2 { s: Coord, d: Coord, nx: usize, ny: usize },
}

// `#[inline]` throughout: `plan_injection` runs on every injection, and only
// inlined does the set stay in registers (out of line, planning a DOR
// injection measured 17 ns instead of 3).
impl PlanSet {
    /// The set for one pair.
    #[inline]
    fn of(
        kind: RoutingKind,
        mesh: &Mesh,
        src: NodeId,
        dst: NodeId,
    ) -> Result<PlanSet, UnroutableError> {
        let (s, d) = match kind {
            RoutingKind::DorXy => return Ok(PlanSet::Fixed((Phase::Xy, None))),
            RoutingKind::O1Turn => return Ok(PlanSet::EitherOrder),
            RoutingKind::Checkerboard => (mesh.coord(src), mesh.coord(dst)),
        };
        if s.same_row(d) || s.same_col(d) {
            // Straight line: no turn, either phase legal; XY covers both.
            return Ok(PlanSet::Fixed((Phase::Xy, None)));
        }
        if !mesh.is_half(mesh.node(Coord::new(d.x, s.y))) {
            return Ok(PlanSet::Fixed((Phase::Xy, None)));
        }
        if !mesh.is_half(mesh.node(Coord::new(s.x, d.y))) {
            // Case 1: turn at the (full) YX turn node instead.
            return Ok(PlanSet::Fixed((Phase::Yx, None)));
        }
        // Both turn nodes are half-routers. For full-to-full pairs this is
        // the unroutable situation of Figure 12(a); for half-to-half pairs
        // it is routing case 2 and an intermediate full-router always
        // exists.
        if !mesh.is_half(src) && !mesh.is_half(dst) {
            return Err(UnroutableError { src, dst });
        }
        let (xs, ys) = case2_ranges(s, d);
        let (nx, ny) = (xs.count(), ys.count());
        assert!(
            nx > 0 && ny > 0,
            "case-2 intermediate must exist for half-to-half pairs ({s} -> {d})"
        );
        Ok(PlanSet::Case2 { s, d, nx, ny })
    }

    /// Number of plans in the set (at least 1).
    #[inline]
    fn count(&self) -> usize {
        match *self {
            PlanSet::Fixed(_) => 1,
            PlanSet::EitherOrder => 2,
            PlanSet::Case2 { nx, ny, .. } => nx * ny,
        }
    }

    /// The plan at `idx < self.count()`. Allocation-free.
    #[inline]
    fn nth(&self, mesh: &Mesh, idx: usize) -> Plan {
        match *self {
            PlanSet::Fixed(plan) => plan,
            PlanSet::EitherOrder => [(Phase::Xy, None), (Phase::Yx, None)][idx],
            PlanSet::Case2 { s, d, ny, .. } => {
                let (mut xs, mut ys) = case2_ranges(s, d);
                let x = xs.nth(idx / ny).expect("index is within the candidate grid");
                let y = ys.nth(idx % ny).expect("index is within the candidate grid");
                let via = mesh.node(Coord::new(x, y));
                debug_assert!(!mesh.is_half(via), "intermediate must be a full-router");
                (Phase::Yx, Some(via))
            }
        }
    }
}

/// Case-2 intermediate candidate coordinates, as lazy iterators:
/// full-routers inside the minimal quadrant, not in the source row, an
/// even number of columns from the source (which together guarantee that
/// both the YX turn toward the intermediate and the XY turn after it land
/// on full-routers).
fn case2_ranges(s: Coord, d: Coord) -> (impl Iterator<Item = u16>, impl Iterator<Item = u16>) {
    let (x_lo, x_hi) = (s.x.min(d.x), s.x.max(d.x));
    let (y_lo, y_hi) = (s.y.min(d.y), s.y.max(d.y));
    let xs = (x_lo..=x_hi).filter(move |x| (x % 2) == (s.x % 2));
    let ys = (y_lo..=y_hi).filter(move |&y| y != s.y && (s.x + y).is_multiple_of(2));
    (xs, ys)
}

/// Plans the routing phase (and, for checkerboard case 2, the intermediate
/// node) for a packet about to be injected: one uniform draw from the
/// pair's plan set.
///
/// Runs on every injection, so it must not heap-allocate: the set is a
/// count plus an index-to-plan function, never a list. A set of one
/// (DOR, straight lines, checkerboard cases 0/1) consumes no randomness;
/// any other consumes exactly one `gen_range(0..count)`.
///
/// # Errors
///
/// Returns [`UnroutableError`] for full-to-full checkerboard pairs with
/// odd coordinate parity (see the type's documentation).
pub fn plan_injection<R: Rng + ?Sized>(
    kind: RoutingKind,
    mesh: &Mesh,
    src: NodeId,
    dst: NodeId,
    rng: &mut R,
) -> Result<(Phase, Option<NodeId>), UnroutableError> {
    let set = PlanSet::of(kind, mesh, src, dst)?;
    let count = set.count();
    let idx = if count > 1 { rng.gen_range(0..count) } else { 0 };
    Ok(set.nth(mesh, idx))
}

/// Enumerates every `(phase, via)` plan [`plan_injection`] can produce for
/// this pair, in index order. Both functions read the same plan set, so
/// static analyses that check each entry (e.g. the channel-dependency-
/// graph verifier) cover the simulator's routing function exhaustively
/// *by construction*. The entries are distinct.
///
/// # Errors
///
/// Returns [`UnroutableError`] for full-to-full checkerboard pairs with
/// odd coordinate parity (see the type's documentation).
pub fn plan_options(
    kind: RoutingKind,
    mesh: &Mesh,
    src: NodeId,
    dst: NodeId,
) -> Result<Vec<(Phase, Option<NodeId>)>, UnroutableError> {
    let set = PlanSet::of(kind, mesh, src, dst)?;
    Ok((0..set.count()).map(|idx| set.nth(mesh, idx)).collect())
}

/// Computes the next hop for the packet whose head flit carries `hdr`,
/// positioned at router `node`. May mutate the header: arriving at the
/// case-2 intermediate clears `via` and switches the phase to XY.
///
/// The returned [`VcSet`] is the set of VCs the packet may use at the
/// *next* buffer (downstream router input or ejection buffer).
pub fn next_hop(
    kind: RoutingKind,
    layout: &VcLayout,
    mesh: &Mesh,
    node: NodeId,
    hdr: &mut PacketHeader,
) -> RouteDecision {
    if hdr.via == Some(node) {
        hdr.via = None;
        hdr.phase = Phase::Xy;
    }
    let cur = mesh.coord(node);
    let target = mesh.coord(hdr.via.unwrap_or(hdr.dst));
    let out = direction_toward(mesh, cur, target, hdr.phase);
    let vcs = match out {
        // Dateline rule (torus): the packet's VC half on each inter-router
        // channel is derived from whether its route has crossed (or is
        // crossing, on this very hop) the wraparound edge of the ring it
        // is traversing — a pure function of the current and source
        // coordinates, so the header needs no extra state.
        OutPort::Dir(d) if layout.split_dateline => {
            let crossed = dateline_crossed(mesh, cur, mesh.coord(hdr.src), d);
            layout.dateline_set(hdr.class, hdr.phase, crossed)
        }
        _ => vc_set_for(kind, layout, hdr.class, hdr.phase),
    };
    RouteDecision { out, vcs }
}

/// `true` if a packet injected at `src`, currently at `cur` and leaving in
/// direction `d`, has already wrapped around the ring it is traversing in
/// `d`'s dimension — or wraps on this very hop. Sound because minimal
/// torus routes cover at most `k / 2 < k` hops per dimension, so "the
/// coordinate moved against the direction of travel" can only mean a wrap.
/// The source coordinate of the *dimension* equals the packet's source
/// coordinate: under dimension-ordered routing the other dimension is
/// untouched until this one completes.
fn dateline_crossed(mesh: &Mesh, cur: Coord, src: Coord, d: Direction) -> bool {
    let last = (mesh.radix() - 1) as u16;
    match d {
        Direction::East => cur.x < src.x || cur.x == last,
        Direction::West => cur.x > src.x || cur.x == 0,
        Direction::South => cur.y < src.y || cur.y == last,
        Direction::North => cur.y > src.y || cur.y == 0,
    }
}

fn direction_toward(mesh: &Mesh, cur: Coord, target: Coord, phase: Phase) -> OutPort {
    let x_step = || {
        if mesh.is_torus() {
            // Shortest way around the row ring; ties break East so the
            // choice stays consistent along the route.
            let k = mesh.radix() as u16;
            let delta_e = (target.x + k - cur.x) % k;
            if delta_e <= k / 2 {
                OutPort::Dir(Direction::East)
            } else {
                OutPort::Dir(Direction::West)
            }
        } else if target.x > cur.x {
            OutPort::Dir(Direction::East)
        } else {
            OutPort::Dir(Direction::West)
        }
    };
    let y_step = || {
        if mesh.is_torus() {
            let k = mesh.radix() as u16;
            let delta_s = (target.y + k - cur.y) % k;
            if delta_s <= k / 2 {
                OutPort::Dir(Direction::South)
            } else {
                OutPort::Dir(Direction::North)
            }
        } else if target.y > cur.y {
            OutPort::Dir(Direction::South)
        } else {
            OutPort::Dir(Direction::North)
        }
    };
    match phase {
        Phase::Xy => {
            if cur.x != target.x {
                x_step()
            } else if cur.y != target.y {
                y_step()
            } else {
                OutPort::Eject
            }
        }
        Phase::Yx => {
            if cur.y != target.y {
                y_step()
            } else if cur.x != target.x {
                x_step()
            } else {
                OutPort::Eject
            }
        }
    }
}

/// VC subset for a class/phase pair under the given routing algorithm.
/// Dimension-ordered routing ignores the phase split (a DOR network does
/// not need one); checkerboard routing uses it.
pub fn vc_set_for(kind: RoutingKind, layout: &VcLayout, class: PacketClass, phase: Phase) -> VcSet {
    if kind.needs_phase_split() {
        layout.set_for(class, phase)
    } else {
        layout.class_set(class)
    }
}

/// Walks a packet's full path through `mesh` without simulating the
/// network, returning the sequence of nodes visited (including source and
/// destination). Used by tests and by analytical tools.
///
/// ```
/// use rand::SeedableRng;
/// use tenoc_noc::routing::trace_path;
/// use tenoc_noc::{Mesh, PacketClass, RoutingKind, VcLayout};
///
/// let mesh = Mesh::checkerboard(6);
/// let layout = VcLayout::new(4, 2, true);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// // Route from the full-router at (0, 0) to the half-router at (4, 5),
/// // e.g. a memory controller.
/// let path = trace_path(
///     RoutingKind::Checkerboard, &layout, &mesh, 0, 34, PacketClass::Request, &mut rng,
/// )?;
/// assert_eq!(path.len(), 10, "minimal: 9 hops");
/// # Ok::<(), tenoc_noc::routing::UnroutableError>(())
/// ```
///
/// # Errors
///
/// Propagates [`UnroutableError`] from injection planning.
pub fn trace_path<R: Rng + ?Sized>(
    kind: RoutingKind,
    layout: &VcLayout,
    mesh: &Mesh,
    src: NodeId,
    dst: NodeId,
    class: PacketClass,
    rng: &mut R,
) -> Result<Vec<NodeId>, UnroutableError> {
    let (phase, via) = plan_injection(kind, mesh, src, dst, rng)?;
    let mut hdr = crate::packet::Packet::new(class, src, dst, 8, 0).header;
    hdr.phase = phase;
    hdr.via = via;
    let mut path = vec![src];
    let mut node = src;
    let max_hops = 4 * mesh.len();
    for _ in 0..max_hops {
        let dec = next_hop(kind, layout, mesh, node, &mut hdr);
        match dec.out {
            OutPort::Eject => return Ok(path),
            OutPort::Dir(d) => {
                node = mesh.neighbor(node, d).expect("routing must never point off the mesh edge");
                path.push(node);
            }
        }
    }
    panic!("routing loop detected between {src} and {dst}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn layout() -> VcLayout {
        VcLayout::new(4, 2, true)
    }

    #[test]
    fn dor_xy_routes_x_first() {
        let mesh = Mesh::all_full(6);
        let l = VcLayout::new(2, 2, false);
        let path = trace_path(
            RoutingKind::DorXy,
            &l,
            &mesh,
            mesh.node(Coord::new(0, 0)),
            mesh.node(Coord::new(3, 2)),
            PacketClass::Request,
            &mut rng(),
        )
        .unwrap();
        let coords: Vec<Coord> = path.iter().map(|&n| mesh.coord(n)).collect();
        // X moves first: rows stay 0 until column 3 is reached.
        assert_eq!(coords[1], Coord::new(1, 0));
        assert_eq!(coords[2], Coord::new(2, 0));
        assert_eq!(coords[3], Coord::new(3, 0));
        assert_eq!(coords[4], Coord::new(3, 1));
        assert_eq!(coords[5], Coord::new(3, 2));
        assert_eq!(path.len(), 6);
    }

    #[test]
    fn paths_are_minimal_dor() {
        let mesh = Mesh::all_full(6);
        let l = VcLayout::new(2, 2, false);
        let mut r = rng();
        for src in mesh.nodes() {
            for dst in mesh.nodes() {
                if src == dst {
                    continue;
                }
                let p = trace_path(
                    RoutingKind::DorXy,
                    &l,
                    &mesh,
                    src,
                    dst,
                    PacketClass::Request,
                    &mut r,
                )
                .unwrap();
                assert_eq!(p.len() as u32 - 1, mesh.coord(src).manhattan(mesh.coord(dst)));
            }
        }
    }

    /// Checkerboard routes never turn at a half-router and are minimal.
    #[test]
    fn checkerboard_routes_legal_and_minimal() {
        let mesh = Mesh::checkerboard(6);
        let l = layout();
        let mut r = rng();
        let mut case2_seen = 0u32;
        for src in mesh.nodes() {
            for dst in mesh.nodes() {
                if src == dst {
                    continue;
                }
                // Skip the documented unroutable full-to-full odd pairs.
                let plan = plan_injection(RoutingKind::Checkerboard, &mesh, src, dst, &mut r);
                let (_, via) = match plan {
                    Ok(p) => p,
                    Err(_) => {
                        assert!(!mesh.is_half(src) && !mesh.is_half(dst));
                        continue;
                    }
                };
                if via.is_some() {
                    case2_seen += 1;
                }
                let p = trace_path(
                    RoutingKind::Checkerboard,
                    &l,
                    &mesh,
                    src,
                    dst,
                    PacketClass::Request,
                    &mut r,
                )
                .unwrap();
                // Minimal hop count.
                assert_eq!(
                    p.len() as u32 - 1,
                    mesh.coord(src).manhattan(mesh.coord(dst)),
                    "{src}->{dst}"
                );
                // No turn at a half-router.
                for w in p.windows(3) {
                    let a = mesh.coord(w[0]);
                    let b = mesh.coord(w[1]);
                    let c = mesh.coord(w[2]);
                    let in_x = a.y == b.y;
                    let out_x = b.y == c.y;
                    if in_x != out_x {
                        assert!(
                            !mesh.is_half(w[1]),
                            "illegal turn at half-router {} on path {src}->{dst}",
                            b
                        );
                    }
                }
            }
        }
        assert!(case2_seen > 0, "the 6x6 checkerboard must exercise case 2");
    }

    #[test]
    fn full_to_full_odd_pairs_unroutable() {
        let mesh = Mesh::checkerboard(6);
        // (0,0) and (1,2): both full? (0,0) parity 0 full; (1,2) parity 1 -> half.
        // Pick (0,0) -> (3,0)? same row, routable. Use (0,0) -> (1,2)?? half.
        // Full nodes have even parity; an odd-parity *pair* means odd
        // manhattan offsets in both dimensions, e.g. (0,0) -> (3,2)... x+y=5
        // odd -> half. Actually for both-full, parities are even; "odd
        // columns away and not same row" with both turn nodes half:
        // (0,0) full -> (2,2)? turn nodes (2,0) even=full: routable.
        // (0,0) -> (1,1): both ends... (1,1) parity even -> full. Turn
        // nodes (1,0) and (0,1): both odd -> half. Unroutable.
        let src = mesh.node(Coord::new(0, 0));
        let dst = mesh.node(Coord::new(1, 1));
        assert!(!mesh.is_half(src) && !mesh.is_half(dst));
        let err = plan_injection(RoutingKind::Checkerboard, &mesh, src, dst, &mut rng());
        assert_eq!(err, Err(UnroutableError { src, dst }));
    }

    #[test]
    fn case2_intermediate_is_full_and_in_quadrant() {
        let mesh = Mesh::checkerboard(6);
        let mut r = rng();
        // Half-to-half, even columns apart, not same row, both turn nodes
        // half: src (1,0) half; dst (1,4)? same col -> no. dst (3,2):
        // parity 5 -> half. turn nodes: (3,0) half, (1,2) half. Case 2.
        let src = mesh.node(Coord::new(1, 0));
        let dst = mesh.node(Coord::new(3, 2));
        for _ in 0..50 {
            let (phase, via) =
                plan_injection(RoutingKind::Checkerboard, &mesh, src, dst, &mut r).unwrap();
            assert_eq!(phase, Phase::Yx);
            let via = via.expect("case 2 must use an intermediate");
            let v = mesh.coord(via);
            assert!(!mesh.is_half(via));
            assert!(v.x >= 1 && v.x <= 3 && v.y <= 2, "inside minimal quadrant");
            assert_ne!(v.y, 0, "not in the source row");
            assert_eq!(v.x % 2, 1, "even columns from source column 1");
        }
    }

    #[test]
    fn phase_vc_sets_disjoint() {
        let l = layout();
        let rq_xy = vc_set_for(RoutingKind::Checkerboard, &l, PacketClass::Request, Phase::Xy);
        let rq_yx = vc_set_for(RoutingKind::Checkerboard, &l, PacketClass::Request, Phase::Yx);
        let rp_xy = vc_set_for(RoutingKind::Checkerboard, &l, PacketClass::Reply, Phase::Xy);
        for vc in rq_xy.iter() {
            assert!(!rq_yx.contains(vc));
            assert!(!rp_xy.contains(vc));
        }
    }

    #[test]
    fn dor_ignores_phase_split() {
        let l = VcLayout::new(2, 2, false);
        let s1 = vc_set_for(RoutingKind::DorXy, &l, PacketClass::Request, Phase::Xy);
        let s2 = vc_set_for(RoutingKind::DorXy, &l, PacketClass::Request, Phase::Yx);
        assert_eq!(s1, s2);
    }

    #[test]
    fn o1turn_picks_both_phases_and_stays_minimal() {
        let mesh = Mesh::all_full(6);
        let l = VcLayout::new(4, 2, true);
        let mut r = rng();
        let mut saw = [false; 2];
        for _ in 0..64 {
            let (phase, via) = plan_injection(RoutingKind::O1Turn, &mesh, 0, 35, &mut r).unwrap();
            assert_eq!(via, None);
            saw[phase as usize] = true;
        }
        assert!(saw[0] && saw[1], "O1Turn must use both orientations");
        for src in [0usize, 7, 13] {
            for dst in [35usize, 20, 5] {
                if src == dst {
                    continue;
                }
                let p = trace_path(
                    RoutingKind::O1Turn,
                    &l,
                    &mesh,
                    src,
                    dst,
                    PacketClass::Reply,
                    &mut r,
                )
                .unwrap();
                assert_eq!(p.len() as u32 - 1, mesh.coord(src).manhattan(mesh.coord(dst)));
            }
        }
    }

    /// The allocation-free `plan_injection` must draw exactly the entry
    /// that indexing the materialized `plan_options` list with the same
    /// RNG would, consuming the same amount of randomness — that is what
    /// keeps simulation outcomes bit-identical with the old list-based
    /// implementation.
    #[test]
    fn plan_injection_matches_indexed_plan_options() {
        use rand::RngCore;
        for (kind, mesh) in [
            (RoutingKind::DorXy, Mesh::all_full(6)),
            (RoutingKind::O1Turn, Mesh::all_full(6)),
            (RoutingKind::Checkerboard, Mesh::checkerboard(6)),
            (RoutingKind::Checkerboard, Mesh::checkerboard(8)),
        ] {
            for src in mesh.nodes() {
                for dst in mesh.nodes() {
                    if src == dst {
                        continue;
                    }
                    for seed in 0..4u64 {
                        let mut fast = SmallRng::seed_from_u64(seed);
                        let mut list = SmallRng::seed_from_u64(seed);
                        let picked = plan_injection(kind, &mesh, src, dst, &mut fast);
                        let options = plan_options(kind, &mesh, src, dst);
                        match (picked, options) {
                            (Err(a), Err(b)) => assert_eq!(a, b),
                            (Ok(p), Ok(opts)) => {
                                let want = if opts.len() == 1 {
                                    opts[0]
                                } else {
                                    opts[list.gen_range(0..opts.len())]
                                };
                                assert_eq!(p, want, "{kind:?} {src}->{dst} seed {seed}");
                                // Same randomness consumed.
                                assert_eq!(fast.next_u64(), list.next_u64());
                            }
                            (p, o) => panic!("routability disagrees: {p:?} vs {o:?}"),
                        }
                    }
                }
            }
        }
    }

    /// No plan set names one plan under two indices, for every routing
    /// kind on every fabric at every radix the repo builds — so a
    /// consumer of `plan_options` may treat each entry as one distinct
    /// plan of probability `1 / len`.
    #[test]
    fn plan_options_never_repeat_a_plan() {
        for k in [2usize, 3, 4, 5, 6, 7, 8, 10] {
            for mesh in
                [Mesh::all_full(k), Mesh::checkerboard(k), Mesh::torus(k), Mesh::cmesh(k, 2)]
            {
                for kind in [RoutingKind::DorXy, RoutingKind::O1Turn, RoutingKind::Checkerboard] {
                    for src in mesh.nodes() {
                        for dst in mesh.nodes() {
                            let Ok(plans) = plan_options(kind, &mesh, src, dst) else { continue };
                            for (i, plan) in plans.iter().enumerate() {
                                assert!(
                                    !plans[..i].contains(plan),
                                    "{kind:?} k={k} {src}->{dst} repeats {plan:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn torus_dor_routes_are_wrap_minimal() {
        let mesh = Mesh::torus(6);
        let l = VcLayout::new(4, 2, false).with_dateline();
        let mut r = rng();
        for src in mesh.nodes() {
            for dst in mesh.nodes() {
                if src == dst {
                    continue;
                }
                let p = trace_path(
                    RoutingKind::DorXy,
                    &l,
                    &mesh,
                    src,
                    dst,
                    PacketClass::Request,
                    &mut r,
                )
                .unwrap();
                assert_eq!(p.len() as u32 - 1, mesh.distance(src, dst), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn torus_wrap_route_goes_the_short_way() {
        let mesh = Mesh::torus(6);
        let l = VcLayout::new(4, 2, false).with_dateline();
        let p = trace_path(
            RoutingKind::DorXy,
            &l,
            &mesh,
            mesh.node(Coord::new(5, 0)),
            mesh.node(Coord::new(1, 0)),
            PacketClass::Request,
            &mut rng(),
        )
        .unwrap();
        let xs: Vec<u16> = p.iter().map(|&n| mesh.coord(n).x).collect();
        assert_eq!(xs, vec![5, 0, 1], "two wrap-east hops beat four mesh-west hops");
    }

    #[test]
    fn torus_dateline_vcs_switch_at_the_wrap_edge() {
        let mesh = Mesh::torus(6);
        let l = VcLayout::new(4, 2, false).with_dateline();
        let src = mesh.node(Coord::new(4, 0));
        let dst = mesh.node(Coord::new(1, 0));
        let mut hdr = crate::packet::Packet::new(PacketClass::Request, src, dst, 8, 0).header;
        let mut node = src;
        let mut sets = Vec::new();
        loop {
            let dec = next_hop(RoutingKind::DorXy, &l, &mesh, node, &mut hdr);
            match dec.out {
                OutPort::Eject => break,
                OutPort::Dir(d) => {
                    sets.push(dec.vcs);
                    node = mesh.neighbor(node, d).unwrap();
                }
            }
        }
        // x = 4 (before the dateline), 5 (the wrap hop), 0 (after): the
        // request class holds VCs 0..2, split 0 = not-crossed / 1 = crossed.
        assert_eq!(sets, vec![VcSet::new(0, 1), VcSet::new(1, 1), VcSet::new(1, 1)]);

        // A route that never wraps stays in the lower half throughout.
        let mut hdr = crate::packet::Packet::new(PacketClass::Request, 0, 3, 8, 0).header;
        let dec = next_hop(RoutingKind::DorXy, &l, &mesh, 0, &mut hdr);
        assert_eq!(dec.vcs, VcSet::new(0, 1));
    }

    #[test]
    fn vcset_contains_and_iter() {
        let s = VcSet::new(2, 2);
        assert!(!s.contains(1));
        assert!(s.contains(2));
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 3]);
    }
}
