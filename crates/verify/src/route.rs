//! Exhaustive route enumeration shared by the safety checks
//! ([`crate::checks`]) and the static load analyzer ([`crate::load`]).
//!
//! A [`RouteTrace`] is one plan of one `(src, dst, class)` triple walked
//! through the simulator's own [`next_hop`], so everything derived from
//! it — deadlock proofs, channel loads, latency bounds — covers the
//! production routing code by construction rather than a re-derivation.

use tenoc_noc::routing::{next_hop, OutPort, VcSet};
use tenoc_noc::{Direction, Mesh, NodeId, Packet, PacketClass, Phase, RoutingKind, VcLayout};

/// One fully walked route for one plan of one (src, dst, class) triple.
pub(crate) struct RouteTrace {
    /// The checkerboard phase the plan was injected with.
    pub phase: Phase,
    /// The case-2 intermediate node, if the plan routes through one.
    pub via: Option<NodeId>,
    /// Nodes visited, `src..=dst` (last only when `ejected`).
    pub nodes: Vec<NodeId>,
    /// `hops[i]` is the direction of the hop `nodes[i] -> nodes[i+1]`.
    pub hops: Vec<Direction>,
    /// `vcsets[i]` is the VC set granted on the link of `hops[i]`.
    pub vcsets: Vec<VcSet>,
    /// Whether the walk reached an ejection decision within the hop cap.
    pub ejected: bool,
}

/// Walks one plan through the production `next_hop`, recording every
/// link-level decision. Never panics: a walk that fails to eject within
/// `4 * mesh.len()` hops is returned truncated with `ejected == false`.
pub fn trace(
    kind: RoutingKind,
    layout: &VcLayout,
    mesh: &Mesh,
    src: NodeId,
    dst: NodeId,
    class: PacketClass,
    plan: (Phase, Option<NodeId>),
) -> RouteTrace {
    let mut hdr = Packet::new(class, src, dst, 8, 0).header;
    hdr.phase = plan.0;
    hdr.via = plan.1;
    let mut t = RouteTrace {
        phase: plan.0,
        via: plan.1,
        nodes: vec![src],
        hops: Vec::new(),
        vcsets: Vec::new(),
        ejected: false,
    };
    let mut node = src;
    for _ in 0..4 * mesh.len() {
        let dec = next_hop(kind, layout, mesh, node, &mut hdr);
        match dec.out {
            OutPort::Eject => {
                t.ejected = true;
                return t;
            }
            OutPort::Dir(d) => {
                let Some(next) = mesh.neighbor(node, d) else {
                    // Route points off the mesh edge; stop here and let
                    // the minimality check report the broken walk.
                    return t;
                };
                t.hops.push(d);
                t.vcsets.push(dec.vcs);
                node = next;
                t.nodes.push(node);
            }
        }
    }
    t
}
