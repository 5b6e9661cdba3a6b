//! Channel dependency graph (CDG) construction and cycle analysis.
//!
//! Following Dally & Seitz, the resources a wormhole network can deadlock
//! on are its *virtual channels*: one CDG vertex per (directed physical
//! link, VC) pair. A packet holding VC `a` on one link while requesting
//! any VC in the set `B` on the next link contributes the edges
//! `a -> b` for every `b in B`. If every packet eventually reaches an
//! ejection port (a sink outside the graph) and the CDG is acyclic, no
//! cyclic wait can form and the routing function is deadlock-free; if the
//! CDG has a cycle, the routing function *permits* a set of packets whose
//! buffer waits form that cycle.
//!
//! Vertices are identified as `(node * 4 + dir) * total_vcs + vc`, where
//! `dir` indexes the outgoing direction of the link at `node`
//! ([`Direction::index`]). Edges carry a [`Witness`] — the first
//! (src, dst, class, plan) whose traced route introduced the dependency —
//! so a reported cycle names concrete packets that can form it.
//!
//! The graph is small and dense-indexed (a 6×6 mesh at 8 VCs has 1 152
//! vertices), so edge membership is one bit of a `vertices²` bitset
//! (~166 kB there) and each vertex keeps its out-edges, and their
//! witnesses, in first-insertion order — the order Tarjan and the cycle
//! search visit them in, which fixes the reported cycle.

use tenoc_noc::routing::VcSet;
use tenoc_noc::{Direction, Mesh, NodeId, PacketClass, Phase};

/// The packet population that introduced a dependency edge. The first
/// witness wins; it is reported when the edge participates in a cycle.
#[derive(Copy, Clone, Debug, PartialEq)]
pub(crate) struct Witness {
    /// Source terminal of the witnessing route.
    pub src: NodeId,
    /// Destination terminal of the witnessing route.
    pub dst: NodeId,
    /// Protocol class of the witnessing packet.
    pub class: PacketClass,
    /// Injection-time routing phase of the witnessing packet.
    pub phase: Phase,
    /// Case-2 intermediate of the witnessing plan, if any.
    pub via: Option<NodeId>,
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} {} -> {}", self.class, self.src, self.dst)?;
        write!(f, " [{:?}", self.phase)?;
        if let Some(via) = self.via {
            write!(f, " via {via}")?;
        }
        write!(f, "]")
    }
}

/// A channel dependency graph at virtual-channel granularity.
pub(crate) struct Cdg {
    mesh: Mesh,
    total_vcs: usize,
    n_vertices: usize,
    /// Out-edges per vertex, in first-insertion order.
    adj: Vec<Vec<u32>>,
    /// `witnesses[v][i]` introduced the edge `v -> adj[v][i]`.
    witnesses: Vec<Vec<Witness>>,
    /// Bit `from * n_vertices + to` is set once that edge exists.
    seen: Vec<u64>,
    n_edges: usize,
    used: Vec<bool>,
}

const NONE: u32 = u32::MAX;

impl Cdg {
    /// An empty CDG sized for `mesh` with `total_vcs` VCs per link.
    pub fn new(mesh: &Mesh, total_vcs: u8) -> Self {
        let n_vertices = mesh.len() * 4 * total_vcs as usize;
        Cdg {
            mesh: mesh.clone(),
            total_vcs: total_vcs as usize,
            n_vertices,
            adj: vec![Vec::new(); n_vertices],
            witnesses: vec![Vec::new(); n_vertices],
            seen: vec![0; (n_vertices * n_vertices).div_ceil(64)],
            n_edges: 0,
            used: vec![false; n_vertices],
        }
    }

    /// The word of `seen` holding edge `from -> to`, and its bit.
    fn edge_bit(&self, from: u32, to: u32) -> (usize, u64) {
        let bit = from as usize * self.n_vertices + to as usize;
        (bit / 64, 1 << (bit % 64))
    }

    fn has_edge(&self, from: u32, to: u32) -> bool {
        let (word, mask) = self.edge_bit(from, to);
        self.seen[word] & mask != 0
    }

    fn vid(&self, node: NodeId, dir: Direction, vc: u8) -> u32 {
        debug_assert!((vc as usize) < self.total_vcs);
        ((node * 4 + dir.index()) * self.total_vcs + vc as usize) as u32
    }

    /// Marks the (link, VC) resources in `vcs` as reachable by traffic.
    /// Resources no route ever touches are excluded from the vertex count.
    pub(crate) fn mark_used(&mut self, node: NodeId, dir: Direction, vcs: VcSet) {
        for vc in vcs.iter() {
            let v = self.vid(node, dir, vc) as usize;
            self.used[v] = true;
        }
    }

    /// Adds the dependency edges from every VC a packet may hold on the
    /// link `(hold_node, hold_dir)` to every VC it may request on the next
    /// link `(want_node, want_dir)`.
    pub(crate) fn add_dependency(
        &mut self,
        hold: (NodeId, Direction, VcSet),
        want: (NodeId, Direction, VcSet),
        witness: Witness,
    ) {
        self.mark_used(hold.0, hold.1, hold.2);
        self.mark_used(want.0, want.1, want.2);
        for hvc in hold.2.iter() {
            let from = self.vid(hold.0, hold.1, hvc);
            for wvc in want.2.iter() {
                let to = self.vid(want.0, want.1, wvc);
                let (word, mask) = self.edge_bit(from, to);
                if self.seen[word] & mask == 0 {
                    self.seen[word] |= mask;
                    self.adj[from as usize].push(to);
                    self.witnesses[from as usize].push(witness);
                    self.n_edges += 1;
                }
            }
        }
    }

    /// Number of (link, VC) resources reachable by at least one route.
    pub(crate) fn vertex_count(&self) -> usize {
        self.used.iter().filter(|&&u| u).count()
    }

    /// Number of distinct dependency edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// The witness of the edge `from -> to`, which must exist.
    fn witness(&self, from: u32, to: u32) -> Witness {
        let i = self.adj[from as usize].iter().position(|&w| w == to).expect("edge exists");
        self.witnesses[from as usize][i]
    }

    /// Human-readable name of a vertex: `(x,y)->(x',y') vc<n>`. The target
    /// comes from the topology's own `neighbor` function, so a torus wrap
    /// link reads `(k-1,y)->(0,y)` rather than a phantom off-grid node.
    pub(crate) fn describe_vertex(&self, v: u32) -> String {
        let v = v as usize;
        let vc = v % self.total_vcs;
        let rest = v / self.total_vcs;
        let dir = Direction::from_index(rest % 4);
        let node = rest / 4;
        let from = self.mesh.coord(node);
        let (tx, ty) = match self.mesh.neighbor(node, dir) {
            Some(n) => {
                let c = self.mesh.coord(n);
                (c.x as i32, c.y as i32)
            }
            // Off-grid mesh edges keep the historical arithmetic naming.
            None => match dir {
                Direction::North => (from.x as i32, from.y as i32 - 1),
                Direction::East => (from.x as i32 + 1, from.y as i32),
                Direction::South => (from.x as i32, from.y as i32 + 1),
                Direction::West => (from.x as i32 - 1, from.y as i32),
            },
        };
        format!("({},{})->({tx},{ty}) vc{vc} [{dir}]", from.x, from.y)
    }

    /// Strongly connected components that contain a cycle (size > 1, or a
    /// single vertex with a self-loop). Iterative Tarjan.
    fn cyclic_sccs(&self) -> Vec<Vec<u32>> {
        const UNVISITED: u32 = u32::MAX;
        let n = self.n_vertices;
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next = 0u32;
        let mut out = Vec::new();

        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            let mut work: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&(v, i)) = work.last() {
                if i == 0 {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if i < self.adj[v].len() {
                    work.last_mut().expect("frame exists").1 += 1;
                    let w = self.adj[v][i] as usize;
                    if index[w] == UNVISITED {
                        work.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    work.pop();
                    if let Some(&(parent, _)) = work.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("Tarjan stack underflow");
                            on_stack[w] = false;
                            scc.push(w as u32);
                            if w == v {
                                break;
                            }
                        }
                        let self_loop = scc.len() == 1 && self.has_edge(v as u32, v as u32);
                        if scc.len() > 1 || self_loop {
                            out.push(scc);
                        }
                    }
                }
            }
        }
        out
    }

    /// A shortest dependency cycle, if any exists: the vertex sequence
    /// `v0 -> v1 -> ... -> vL-1 (-> v0)` plus the witness of each edge
    /// (including the closing edge). `None` proves the CDG acyclic.
    pub(crate) fn shortest_cycle(&self) -> Option<(Vec<u32>, Vec<Witness>)> {
        let mut best: Option<Vec<u32>> = None;
        let mut member = vec![false; self.n_vertices];
        let mut parent = vec![NONE; self.n_vertices];
        for scc in self.cyclic_sccs() {
            for &v in &scc {
                member[v as usize] = true;
            }
            for &start in &scc {
                if let Some(cycle) = self.bfs_cycle(start, &member, &mut parent) {
                    if best.as_ref().is_none_or(|b| cycle.len() < b.len()) {
                        best = Some(cycle);
                    }
                }
            }
            for &v in &scc {
                member[v as usize] = false;
            }
        }
        let cycle = best?;
        let witnesses = cycle
            .iter()
            .zip(cycle.iter().cycle().skip(1))
            .map(|(&a, &b)| self.witness(a, b))
            .collect();
        Some((cycle, witnesses))
    }

    /// Shortest path `start -> ... -> start` through `member` vertices
    /// (BFS). `parent` is all `NONE` on entry and on return.
    fn bfs_cycle(&self, start: u32, member: &[bool], parent: &mut [u32]) -> Option<Vec<u32>> {
        // The queue keeps every vertex it ever held, so the parents they
        // were given can be reset. `start` itself is intentionally never
        // given a parent, so the first edge back into it closes the cycle.
        let mut queue = vec![start];
        let mut head = 0;
        let mut closing = None;
        'search: while let Some(&v) = queue.get(head) {
            head += 1;
            for &w in &self.adj[v as usize] {
                if w == start {
                    closing = Some(v);
                    break 'search;
                }
                if member[w as usize] && parent[w as usize] == NONE {
                    parent[w as usize] = v;
                    queue.push(w);
                }
            }
        }
        let path = closing.map(|v| {
            let mut path = vec![v];
            let mut cur = v;
            while cur != start {
                cur = parent[cur as usize];
                path.push(cur);
            }
            path.reverse();
            path
        });
        for &v in &queue[1..] {
            parent[v as usize] = NONE;
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vcs1(first: u8) -> VcSet {
        VcSet::new(first, 1)
    }

    fn witness() -> Witness {
        Witness { src: 0, dst: 1, class: PacketClass::Request, phase: Phase::Xy, via: None }
    }

    #[test]
    fn acyclic_chain_has_no_cycle() {
        let mesh = Mesh::all_full(3);
        let mut g = Cdg::new(&mesh, 2);
        // 0 -E-> 1 -E-> 2: one straight-line dependency.
        g.add_dependency((0, Direction::East, vcs1(0)), (1, Direction::East, vcs1(0)), witness());
        assert_eq!(g.edge_count(), 1);
        assert!(g.shortest_cycle().is_none());
    }

    #[test]
    fn four_edge_ring_is_detected_minimally() {
        let mesh = Mesh::all_full(3);
        let mut g = Cdg::new(&mesh, 1);
        // A clockwise ring through nodes 0,1,4,3 plus a pendant edge that
        // must not appear in the reported cycle.
        let ring = [
            (0, Direction::East),
            (1, Direction::South),
            (4, Direction::West),
            (3, Direction::North),
        ];
        for i in 0..4 {
            g.add_dependency(
                (ring[i].0, ring[i].1, vcs1(0)),
                (ring[(i + 1) % 4].0, ring[(i + 1) % 4].1, vcs1(0)),
                witness(),
            );
        }
        g.add_dependency((6, Direction::East, vcs1(0)), (0, Direction::East, vcs1(0)), witness());
        let (cycle, wits) = g.shortest_cycle().expect("ring must be found");
        assert_eq!(cycle.len(), 4);
        assert_eq!(wits.len(), 4);
        // The pendant vertex (node 6) is not part of the cycle.
        for &v in &cycle {
            assert!(!g.describe_vertex(v).contains("(0,2)"), "{}", g.describe_vertex(v));
        }
    }

    /// When two routes induce the same edges, the cycle is reported with
    /// the first route's witnesses.
    #[test]
    fn first_route_to_induce_an_edge_is_its_witness() {
        let mesh = Mesh::all_full(3);
        let mut g = Cdg::new(&mesh, 1);
        let ring = [
            (0, Direction::East),
            (1, Direction::South),
            (4, Direction::West),
            (3, Direction::North),
        ];
        let first = witness();
        let second =
            Witness { src: 4, dst: 3, class: PacketClass::Reply, phase: Phase::Yx, via: Some(1) };
        for w in [first, second] {
            for i in 0..4 {
                let (hold, want) = (ring[i], ring[(i + 1) % 4]);
                g.add_dependency((hold.0, hold.1, vcs1(0)), (want.0, want.1, vcs1(0)), w);
            }
        }
        assert_eq!(g.edge_count(), 4, "a repeated edge is not a new edge");
        let (cycle, wits) = g.shortest_cycle().expect("ring must be found");
        assert_eq!(cycle.len(), 4);
        assert_eq!(wits, vec![first; 4]);
    }

    /// A vertex's out-edges are visited in the order they were first
    /// added, not in vertex-id order, and re-adding one does not move it.
    #[test]
    fn adjacency_keeps_first_insertion_order() {
        let mesh = Mesh::all_full(3);
        let mut g = Cdg::new(&mesh, 2);
        let hold = (4, Direction::East, vcs1(0));
        let wants = [(5, Direction::South), (1, Direction::East), (3, Direction::North)];
        for (node, dir) in wants.into_iter().chain([wants[0]]) {
            g.add_dependency(hold, (node, dir, VcSet::new(0, 2)), witness());
        }
        let from = g.vid(hold.0, hold.1, 0) as usize;
        let expected: Vec<u32> = wants
            .iter()
            .flat_map(|&(node, dir)| [g.vid(node, dir, 0), g.vid(node, dir, 1)])
            .collect();
        assert_eq!(g.adj[from], expected);
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn vertex_description_names_link_and_vc() {
        let mesh = Mesh::all_full(3);
        let mut g = Cdg::new(&mesh, 2);
        g.mark_used(4, Direction::North, vcs1(1));
        let v = g.vid(4, Direction::North, 1);
        assert_eq!(g.describe_vertex(v), "(1,1)->(1,0) vc1 [N]");
        assert_eq!(g.vertex_count(), 1);
    }
}
