//! Topology (mesh, torus, concentrated mesh), router kinds (full vs.
//! half) and memory-controller placements.
//!
//! The checkerboard organization (paper Section IV-A) alternates
//! conventional five-port **full-routers** with **half-routers** whose
//! crossbar cannot change a packet's dimension: the east port connects only
//! to the west port and vice versa, the north port only to the south port
//! and vice versa, while the injection port reaches every output and every
//! input reaches the ejection port.
//!
//! All fabrics share the `k x k` router grid and the four-direction
//! channel naming; they differ only in [`Topology::neighbor`] (the torus
//! wraps every row and column into a ring) and in how many terminals share
//! a router (the concentrated mesh attaches `conc >= 2` cores per router
//! through extra injection/ejection ports). Everything downstream — the
//! event-driven network, the SoA arena, the CDG deadlock prover, the
//! Dally–Towles load bounds — consumes the topology through this one type.

use crate::types::{Coord, Direction, NodeId};
use serde::json;
use serde::{Deserialize, Serialize};

/// Microarchitectural kind of a router.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum RouterKind {
    /// Conventional 2D-mesh router: any input may reach any output (other
    /// than its own port).
    Full,
    /// Reduced-connectivity router: packets may not change dimension.
    /// Crossbar degenerates to four 2x1 muxes plus an ejection mux,
    /// roughly halving router area (paper Section V-F).
    Half,
}

/// Memory-controller placement strategy.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Placement {
    /// Baseline: MCs on the top and bottom rows (paper Figure 3), like
    /// Intel's 80-core design and Tilera TILE64.
    TopBottom,
    /// Staggered placement on half-router nodes (paper Figure 12),
    /// exploiting the checkerboard organization to spread MC hot-spots.
    Checkerboard,
}

/// Fabric family of a [`Topology`]: how the `k x k` router grid is wired
/// and how many terminals share each router.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Fabric {
    /// Plain 2D mesh: rows and columns terminate at the edges.
    Mesh,
    /// 2D torus: every row and column wraps into a ring, halving the
    /// network diameter. Requires dateline virtual channels for deadlock
    /// freedom (see `VcLayout::split_dateline`).
    Torus,
    /// Concentrated mesh: `conc` terminals (cores) share each router
    /// through dedicated injection/ejection ports, shrinking the grid for
    /// the same core count at the cost of higher router radix.
    CMesh {
        /// Concentration factor — terminals per router, at least 2.
        conc: u8,
    },
}

/// A `k x k` router grid with a fabric family and a router-kind map.
///
/// Historically this type modeled only the plain mesh and was named
/// `Mesh`; the alias is kept because the identifier appears throughout
/// the workspace and reads naturally wherever the fabric happens to be a
/// mesh.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    k: usize,
    kinds: Vec<RouterKind>,
    fabric: Fabric,
}

/// Backward-compatible name for [`Topology`].
pub type Mesh = Topology;

impl Serialize for Topology {
    // Hand-written so that plain meshes keep the exact `{"k":..,"kinds":
    // [..]}` shape the derive used to emit: topology serialization feeds
    // the serve canonical content addresses, which must stay
    // byte-identical for every pre-existing mesh configuration. Non-mesh
    // fabrics append extra keys.
    fn to_value(&self) -> json::Value {
        let mut pairs =
            vec![("k".to_owned(), self.k.to_value()), ("kinds".to_owned(), self.kinds.to_value())];
        match self.fabric {
            Fabric::Mesh => {}
            Fabric::Torus => {
                pairs.push(("fabric".to_owned(), json::Value::String("torus".to_owned())));
            }
            Fabric::CMesh { conc } => {
                pairs.push(("fabric".to_owned(), json::Value::String("cmesh".to_owned())));
                pairs.push(("conc".to_owned(), conc.to_value()));
            }
        }
        json::Value::Object(pairs)
    }
}

impl Deserialize for Topology {
    fn from_value(v: &json::Value) -> Result<Self, json::Error> {
        let k = usize::from_value(v.field("k")?)?;
        let kinds = Vec::<RouterKind>::from_value(v.field("kinds")?)?;
        let fabric = match v.field("fabric") {
            Err(_) => Fabric::Mesh,
            Ok(f) => match f.as_str()? {
                "mesh" => Fabric::Mesh,
                "torus" => Fabric::Torus,
                "cmesh" => Fabric::CMesh { conc: u8::from_value(v.field("conc")?)? },
                other => {
                    return Err(json::Error::msg(format!("unknown fabric {other:?}")));
                }
            },
        };
        if kinds.len() != k * k {
            return Err(json::Error::msg(format!(
                "kind map has {} entries for a {k}x{k} grid",
                kinds.len()
            )));
        }
        Ok(Topology { k, kinds, fabric })
    }
}

impl Topology {
    /// A mesh in which every router is a full-router.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > u16::MAX as usize`.
    pub fn all_full(k: usize) -> Self {
        assert!(k > 0 && k <= u16::MAX as usize, "mesh radix out of range");
        Topology { k, kinds: vec![RouterKind::Full; k * k], fabric: Fabric::Mesh }
    }

    /// A `k x k` torus in which every router is a full-router. Every row
    /// and column wraps around, so every node has all four neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (a 1-ring's wrap link is a self-loop) or
    /// `k > u16::MAX as usize`.
    pub fn torus(k: usize) -> Self {
        assert!(k >= 2 && k <= u16::MAX as usize, "torus radix out of range");
        Topology { k, kinds: vec![RouterKind::Full; k * k], fabric: Fabric::Torus }
    }

    /// A `k x k` concentrated mesh: plain-mesh wiring, `conc` terminals
    /// per router on dedicated injection/ejection ports.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or `conc < 2` (a 1-concentrated mesh
    /// is just a mesh — construct that directly).
    pub fn cmesh(k: usize, conc: u8) -> Self {
        assert!(k > 0 && k <= u16::MAX as usize, "mesh radix out of range");
        assert!(conc >= 2, "concentration below 2 is a plain mesh");
        Topology { k, kinds: vec![RouterKind::Full; k * k], fabric: Fabric::CMesh { conc } }
    }

    /// A checkerboard mesh: node `(x, y)` is a half-router iff `x + y` is
    /// odd (the hatched routers of paper Figure 12).
    ///
    /// ```
    /// use tenoc_noc::{Coord, Mesh};
    ///
    /// let mesh = Mesh::checkerboard(6);
    /// assert!(!mesh.is_half(mesh.node(Coord::new(0, 0))));
    /// assert!(mesh.is_half(mesh.node(Coord::new(1, 0))));
    /// ```
    pub fn checkerboard(k: usize) -> Self {
        let mut mesh = Self::all_full(k);
        for id in 0..k * k {
            let c = mesh.coord(id);
            if (c.x + c.y) % 2 == 1 {
                mesh.kinds[id] = RouterKind::Half;
            }
        }
        mesh
    }

    /// Mesh radix `k` (the mesh has `k * k` nodes).
    pub fn radix(&self) -> usize {
        self.k
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.k * self.k
    }

    /// `true` if the mesh has no nodes (never true for constructed meshes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Node id at a coordinate.
    pub fn node(&self, c: Coord) -> NodeId {
        debug_assert!((c.x as usize) < self.k && (c.y as usize) < self.k);
        c.y as usize * self.k + c.x as usize
    }

    /// Coordinate of a node id.
    pub fn coord(&self, id: NodeId) -> Coord {
        debug_assert!(id < self.len());
        Coord::new((id % self.k) as u16, (id / self.k) as u16)
    }

    /// Kind of the router at `id`.
    pub fn kind(&self, id: NodeId) -> RouterKind {
        self.kinds[id]
    }

    /// `true` if the router at `id` is a half-router.
    pub fn is_half(&self, id: NodeId) -> bool {
        self.kinds[id] == RouterKind::Half
    }

    /// Fabric family of this topology.
    pub fn fabric(&self) -> Fabric {
        self.fabric
    }

    /// `true` if rows and columns wrap around (torus fabric).
    pub fn is_torus(&self) -> bool {
        self.fabric == Fabric::Torus
    }

    /// Terminals (cores) per router: 1 except for the concentrated mesh.
    pub fn concentration(&self) -> usize {
        match self.fabric {
            Fabric::CMesh { conc } => conc as usize,
            _ => 1,
        }
    }

    /// Total terminal count, `len() * concentration()`.
    pub fn terminals(&self) -> usize {
        self.len() * self.concentration()
    }

    /// Router that terminal `t` attaches to. Terminals map onto routers in
    /// blocks: terminal `t` sits on router `t / conc` at local port
    /// `t % conc`, a bijection between `0..terminals()` and
    /// `(router, port)` pairs.
    pub fn terminal_router(&self, t: usize) -> NodeId {
        debug_assert!(t < self.terminals());
        t / self.concentration()
    }

    /// Local injection/ejection port index of terminal `t` on its router.
    pub fn terminal_port(&self, t: usize) -> usize {
        debug_assert!(t < self.terminals());
        t % self.concentration()
    }

    /// Neighbor of `id` in direction `dir`. `None` at a mesh edge; on the
    /// torus every node has all four neighbors (rows and columns wrap).
    pub fn neighbor(&self, id: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord(id);
        let (x, y) = (c.x as isize, c.y as isize);
        let (nx, ny) = match dir {
            Direction::North => (x, y - 1),
            Direction::South => (x, y + 1),
            Direction::East => (x + 1, y),
            Direction::West => (x - 1, y),
        };
        let k = self.k as isize;
        if self.is_torus() {
            return Some(
                self.node(Coord::new((nx.rem_euclid(k)) as u16, (ny.rem_euclid(k)) as u16)),
            );
        }
        if nx < 0 || ny < 0 || nx >= k || ny >= k {
            None
        } else {
            Some(self.node(Coord::new(nx as u16, ny as u16)))
        }
    }

    /// Minimal hop distance between two routers under the fabric's
    /// wiring: the Manhattan distance on the mesh, the wrap-aware
    /// per-dimension `min(d, k - d)` sum on the torus.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (ca, cb) = (self.coord(a), self.coord(b));
        let per_dim = |p: u16, q: u16| -> u32 {
            let d = (p as i32 - q as i32).unsigned_abs();
            if self.is_torus() {
                d.min(self.k as u32 - d)
            } else {
                d
            }
        };
        per_dim(ca.x, cb.x) + per_dim(ca.y, cb.y)
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.len()
    }

    /// Iterator over every directed physical channel `(source node,
    /// direction)`, in node-major order — the same order
    /// [`crate::Network::link_loads`] and the telemetry link records use,
    /// so static analyses and dynamic observations index links
    /// identically.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, Direction)> + '_ {
        self.nodes().flat_map(move |node| {
            Direction::ALL
                .into_iter()
                .filter(move |&dir| self.neighbor(node, dir).is_some())
                .map(move |dir| (node, dir))
        })
    }

    /// Baseline top-bottom MC placement (paper Figure 3): `n_mc / 2` MCs
    /// centered on the top row and the rest centered on the bottom row.
    ///
    /// # Panics
    ///
    /// Panics if more MCs per row are requested than the row can hold.
    pub(crate) fn top_bottom_mcs(&self, n_mc: usize) -> Vec<NodeId> {
        let top = n_mc / 2;
        let bottom = n_mc - top;
        assert!(top <= self.k && bottom <= self.k, "too many MCs per row");
        let mut out = Vec::with_capacity(n_mc);
        let start_top = (self.k - top) / 2;
        for i in 0..top {
            out.push(self.node(Coord::new((start_top + i) as u16, 0)));
        }
        let start_bot = (self.k - bottom) / 2;
        for i in 0..bottom {
            out.push(self.node(Coord::new((start_bot + i) as u16, (self.k - 1) as u16)));
        }
        out
    }

    /// Staggered checkerboard MC placement (paper Figure 12). All returned
    /// nodes satisfy `x + y` odd, i.e. they are half-routers in a
    /// checkerboard mesh, so MC/L2 traffic never needs full-to-full routes.
    ///
    /// For the paper's 6x6/8-MC configuration this returns a hand-tuned
    /// staggered set (the paper likewise picked the best of several valid
    /// placements); for other sizes MCs are spread round-robin over rows at
    /// alternating column offsets.
    ///
    /// # Panics
    ///
    /// Panics if `n_mc` exceeds the number of half-router positions.
    pub fn checkerboard_mcs(&self, n_mc: usize) -> Vec<NodeId> {
        if self.k == 6 && n_mc == 8 {
            // Hand-tuned staggered placement: two MCs on the top and bottom
            // rows, one on each interior row, spread across columns.
            return [(1, 0), (5, 0), (4, 1), (3, 2), (0, 3), (5, 4), (0, 5), (2, 5)]
                .into_iter()
                .map(|(x, y)| self.node(Coord::new(x, y)))
                .collect();
        }
        let half_positions: Vec<NodeId> = self
            .nodes()
            .filter(|&id| {
                let c = self.coord(id);
                (c.x + c.y) % 2 == 1
            })
            .collect();
        assert!(n_mc <= half_positions.len(), "not enough half-router positions");
        // Spread by striding through the list of half positions.
        let stride = half_positions.len() / n_mc.max(1);
        (0..n_mc).map(|i| half_positions[i * stride.max(1)]).collect()
    }

    /// MC placement for a strategy.
    pub fn mcs(&self, placement: Placement, n_mc: usize) -> Vec<NodeId> {
        match placement {
            Placement::TopBottom => self.top_bottom_mcs(n_mc),
            Placement::Checkerboard => self.checkerboard_mcs(n_mc),
        }
    }
}

/// Input side of a router port.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum InPort {
    /// Flits arriving from a neighboring router in the given direction.
    Dir(Direction),
    /// Flits arriving from a local injection port (index within the
    /// router's injection ports).
    Inject(u8),
}

/// Output side of a router port.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum OutPortKind {
    /// Channel toward the neighboring router in the given direction.
    Dir(Direction),
    /// Local ejection port (index within the router's ejection ports).
    Eject(u8),
}

/// `true` if the router kind permits a flit arriving on `inp` to leave via
/// `out`.
///
/// Port-direction convention: `InPort::Dir(d)` is the input port on the
/// router's `d` side — its flits arrived *from* the neighbor in direction
/// `d` and are traveling `d.opposite()`. So continuing straight through
/// leaves via `OutPortKind::Dir(d.opposite())`, and a U-turn (reflecting
/// back out the side the flit came in on) is `out == d`. U-turns are never
/// allowed on any router kind; full-routers permit every other
/// direction-to-direction connection, while half-routers permit only
/// straight-through (their crossbar cannot change a packet's dimension).
/// Injection reaches every output and every input reaches ejection, on
/// both kinds.
pub fn connection_allowed(kind: RouterKind, inp: InPort, out: OutPortKind) -> bool {
    match (inp, out) {
        (InPort::Inject(_), _) | (InPort::Dir(_), OutPortKind::Eject(_)) => true,
        (InPort::Dir(d), OutPortKind::Dir(o)) if o == d => false, // U-turn
        (InPort::Dir(d), OutPortKind::Dir(o)) => match kind {
            RouterKind::Full => true,
            RouterKind::Half => o == d.opposite(), // straight-through only
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkerboard_parity() {
        let m = Mesh::checkerboard(6);
        assert_eq!(m.len(), 36);
        let mut halves = 0;
        for id in m.nodes() {
            let c = m.coord(id);
            let expect_half = (c.x + c.y) % 2 == 1;
            assert_eq!(m.is_half(id), expect_half, "node {c}");
            if m.is_half(id) {
                halves += 1;
            }
        }
        assert_eq!(halves, 18);
    }

    #[test]
    fn coord_node_roundtrip() {
        let m = Mesh::all_full(6);
        for id in m.nodes() {
            assert_eq!(m.node(m.coord(id)), id);
        }
    }

    #[test]
    fn neighbors_at_edges() {
        let m = Mesh::all_full(4);
        let nw = m.node(Coord::new(0, 0));
        assert_eq!(m.neighbor(nw, Direction::North), None);
        assert_eq!(m.neighbor(nw, Direction::West), None);
        assert_eq!(m.neighbor(nw, Direction::East), Some(m.node(Coord::new(1, 0))));
        assert_eq!(m.neighbor(nw, Direction::South), Some(m.node(Coord::new(0, 1))));

        let se = m.node(Coord::new(3, 3));
        assert_eq!(m.neighbor(se, Direction::South), None);
        assert_eq!(m.neighbor(se, Direction::East), None);
    }

    #[test]
    fn neighbor_is_symmetric() {
        let m = Mesh::all_full(5);
        for id in m.nodes() {
            for d in Direction::ALL {
                if let Some(n) = m.neighbor(id, d) {
                    assert_eq!(m.neighbor(n, d.opposite()), Some(id));
                }
            }
        }
    }

    #[test]
    fn top_bottom_placement() {
        let m = Mesh::all_full(6);
        let mcs = m.top_bottom_mcs(8);
        assert_eq!(mcs.len(), 8);
        for (i, &mc) in mcs.iter().enumerate() {
            let c = m.coord(mc);
            if i < 4 {
                assert_eq!(c.y, 0);
            } else {
                assert_eq!(c.y, 5);
            }
        }
        // Centered: columns 1..=4 on both rows.
        let cols: Vec<u16> = mcs.iter().map(|&n| m.coord(n).x).collect();
        assert_eq!(cols, vec![1, 2, 3, 4, 1, 2, 3, 4]);
    }

    #[test]
    fn checkerboard_placement_on_half_routers() {
        let m = Mesh::checkerboard(6);
        let mcs = m.checkerboard_mcs(8);
        assert_eq!(mcs.len(), 8);
        let unique: std::collections::HashSet<_> = mcs.iter().collect();
        assert_eq!(unique.len(), 8, "MC positions must be distinct");
        for &mc in &mcs {
            assert!(m.is_half(mc), "MC at {} must sit on a half-router", m.coord(mc));
        }
    }

    #[test]
    fn checkerboard_placement_generic_sizes() {
        for k in [4usize, 8, 10] {
            let m = Mesh::checkerboard(k);
            let n_mc = k; // e.g. 8 MCs on an 8x8
            let mcs = m.checkerboard_mcs(n_mc);
            assert_eq!(mcs.len(), n_mc);
            let unique: std::collections::HashSet<_> = mcs.iter().collect();
            assert_eq!(unique.len(), n_mc);
            for &mc in &mcs {
                assert!(m.is_half(mc));
            }
        }
    }

    #[test]
    fn full_router_connectivity() {
        use Direction::*;
        let k = RouterKind::Full;
        // Straight-through: entered from the North input (moving south),
        // leaves via South.
        assert!(connection_allowed(k, InPort::Dir(North), OutPortKind::Dir(South)));
        // Turns allowed.
        assert!(connection_allowed(k, InPort::Dir(North), OutPortKind::Dir(East)));
        // Reflection back out of the same port is not.
        assert!(!connection_allowed(k, InPort::Dir(North), OutPortKind::Dir(North)));
        assert!(connection_allowed(k, InPort::Dir(North), OutPortKind::Eject(0)));
        assert!(connection_allowed(k, InPort::Inject(0), OutPortKind::Dir(West)));
    }

    #[test]
    fn half_router_connectivity() {
        use Direction::*;
        let k = RouterKind::Half;
        // Straight-through still fine.
        assert!(connection_allowed(k, InPort::Dir(North), OutPortKind::Dir(South)));
        assert!(connection_allowed(k, InPort::Dir(East), OutPortKind::Dir(West)));
        // Dimension changes forbidden.
        assert!(!connection_allowed(k, InPort::Dir(North), OutPortKind::Dir(East)));
        assert!(!connection_allowed(k, InPort::Dir(East), OutPortKind::Dir(South)));
        // Injection and ejection fully connected.
        for d in Direction::ALL {
            assert!(connection_allowed(k, InPort::Inject(0), OutPortKind::Dir(d)));
            assert!(connection_allowed(k, InPort::Dir(d), OutPortKind::Eject(0)));
        }
    }

    /// Exhaustive (kind x inport x outport) legality table, spelled out
    /// independently of the implementation so a refactor of
    /// `connection_allowed` cannot silently change legality.
    #[test]
    fn connection_allowed_exhaustive_table() {
        use Direction::*;
        let dirs = [North, East, South, West];
        let inports: Vec<InPort> = dirs
            .iter()
            .map(|&d| InPort::Dir(d))
            .chain([InPort::Inject(0), InPort::Inject(1)])
            .collect();
        let outports: Vec<OutPortKind> = dirs
            .iter()
            .map(|&d| OutPortKind::Dir(d))
            .chain([OutPortKind::Eject(0), OutPortKind::Eject(1)])
            .collect();
        for kind in [RouterKind::Full, RouterKind::Half] {
            for &inp in &inports {
                for &out in &outports {
                    let expect = match (inp, out) {
                        // Injection reaches everything.
                        (InPort::Inject(_), _) => true,
                        // Everything reaches ejection.
                        (_, OutPortKind::Eject(_)) => true,
                        (InPort::Dir(d), OutPortKind::Dir(o)) => {
                            if o == d {
                                false // U-turn, both kinds
                            } else if o == d.opposite() {
                                true // straight-through, both kinds
                            } else {
                                kind == RouterKind::Full // turns: full only
                            }
                        }
                    };
                    assert_eq!(
                        connection_allowed(kind, inp, out),
                        expect,
                        "{kind:?} {inp:?} -> {out:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_wraps_every_edge() {
        let t = Topology::torus(4);
        assert!(t.is_torus());
        assert_eq!(t.fabric(), Fabric::Torus);
        let nw = t.node(Coord::new(0, 0));
        assert_eq!(t.neighbor(nw, Direction::North), Some(t.node(Coord::new(0, 3))));
        assert_eq!(t.neighbor(nw, Direction::West), Some(t.node(Coord::new(3, 0))));
        // Every node has all four neighbors: 4k^2 directed links.
        assert_eq!(t.links().count(), 4 * 16);
        // The mesh has only 4k(k-1).
        assert_eq!(Topology::all_full(4).links().count(), 4 * 4 * 3);
    }

    #[test]
    fn torus_distance_is_wrap_aware() {
        let t = Topology::torus(6);
        let m = Topology::all_full(6);
        let a = t.node(Coord::new(0, 0));
        let b = t.node(Coord::new(5, 5));
        assert_eq!(m.distance(a, b), 10);
        assert_eq!(t.distance(a, b), 2); // one wrap hop per dimension
        let c = t.node(Coord::new(3, 0));
        assert_eq!(t.distance(a, c), 3); // tie: d == k - d
    }

    #[test]
    fn cmesh_terminal_mapping_is_blockwise() {
        let t = Topology::cmesh(4, 2);
        assert_eq!(t.concentration(), 2);
        assert_eq!(t.terminals(), 32);
        assert_eq!(t.terminal_router(0), 0);
        assert_eq!(t.terminal_port(0), 0);
        assert_eq!(t.terminal_router(1), 0);
        assert_eq!(t.terminal_port(1), 1);
        assert_eq!(t.terminal_router(31), 15);
        // Mesh wiring is untouched by concentration.
        assert_eq!(t.neighbor(0, Direction::North), None);
        assert!(!t.is_torus());
    }

    #[test]
    fn serialization_is_backward_compatible() {
        // Plain meshes keep the historical two-key shape (fingerprint and
        // canonical-hash stability); other fabrics append keys.
        let m = Topology::checkerboard(2);
        assert_eq!(
            m.to_value().to_json_compact(),
            r#"{"k":2,"kinds":["Full","Half","Half","Full"]}"#
        );
        let fabrics = [
            Topology::all_full(3),
            Topology::checkerboard(4),
            Topology::torus(3),
            Topology::cmesh(3, 2),
        ];
        for t in fabrics {
            let back = Topology::from_value(&t.to_value()).unwrap();
            assert_eq!(back, t);
        }
        let torus = Topology::torus(2).to_value().to_json_compact();
        assert!(torus.contains(r#""fabric":"torus""#), "{torus}");
        let cm = Topology::cmesh(2, 3).to_value().to_json_compact();
        assert!(cm.contains(r#""fabric":"cmesh""#) && cm.contains(r#""conc":3"#), "{cm}");
    }
}
