//! The route table: every route of one fabric shape, walked once and
//! shared by the safety checks ([`crate::checks`]) and the static load
//! analyzer ([`crate::load`]).
//!
//! A route depends on the mesh, the routing function and the VC layout
//! and on nothing else a [`NetworkConfig`] carries — buffer depth, channel
//! width, pipeline depth and MC ports never change one — so one table
//! serves every configuration with that `(mesh, routing, VC layout)`
//! ([`route_key`]). For each ordered pair the table holds one range of
//! plan ids, one per [`plan_options`] entry (the load analyzer weights
//! each `rate / plans`), and each `(plan, class)` is walked once through
//! the simulator's own [`next_hop`], so everything derived from it — deadlock
//! proofs, channel loads, latency bounds — covers the production routing
//! code by construction rather than a re-derivation. What is derived from
//! the routes alone is derived once per table: the prover's route-only
//! verdicts, and each demand-loop accumulation the load analyzer asks for
//! (per [`LoadKey`]: configurations that differ only in port counts or
//! buffering share one).

use crate::checks::{self, RouteProof};
use crate::load::{Accumulation, LoadKey};
use std::cell::{OnceCell, RefCell};
use std::ops::Range;
use std::sync::Arc;
use tenoc_noc::routing::{next_hop, plan_options, OutPort, VcSet};
use tenoc_noc::{
    Direction, Mesh, NetworkConfig, NodeId, Packet, PacketClass, Phase, RoutingKind, VcLayout,
};

/// What a configuration's routes depend on: its mesh, routing function
/// and VC layout. Configurations with equal keys route identically and
/// can share one [`RouteTable`].
pub fn route_key(cfg: &NetworkConfig) -> (&Mesh, RoutingKind, VcLayout) {
    (&cfg.mesh, cfg.routing, cfg.vcs)
}

/// One link of a walk: the packet leaves `node` through `dir` and is
/// granted a VC of `vcs` on that link.
#[derive(Copy, Clone, Debug, PartialEq)]
pub(crate) struct Hop {
    pub node: NodeId,
    pub dir: Direction,
    pub vcs: VcSet,
}

/// One plan of one `(src, dst, class)` walked hop by hop; its links are
/// [`RouteTable::hops`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub(crate) struct Walk {
    /// The checkerboard phase the plan was injected with.
    pub phase: Phase,
    /// The case-2 intermediate node, if the plan routes through one.
    pub via: Option<NodeId>,
    /// Whether the walk reached an ejection decision within the hop cap.
    pub ejected: bool,
    /// The node the walk stopped at (its destination when it ejected
    /// there).
    pub end: NodeId,
    first_hop: u32,
    hop_count: u32,
}

/// Every route of one fabric shape: per ordered pair a range of plans,
/// per `(plan, class)` one walk, the links of all walks in one
/// flat `Vec`. Build it once per [`route_key`] and hand it to
/// [`analyze_physical_with`](crate::analyze_physical_with) and
/// [`analyze_load_with`](crate::load::analyze_load_with) for every
/// configuration of that shape; the prover's route-only verdicts and the
/// load analyzer's accumulations are computed on first use and kept with
/// the table.
pub struct RouteTable {
    pub(crate) mesh: Mesh,
    pub(crate) routing: RoutingKind,
    pub(crate) vcs: VcLayout,
    /// Per pair `p = src * n + dst`, its `plan_options` entries in order
    /// are the plan ids `plan_starts[p]..plan_starts[p + 1]` (none when
    /// unroutable).
    plan_starts: Vec<u32>,
    /// Plan `id`, class `c` is `walks[id * classes + c]`.
    walks: Vec<Walk>,
    hops: Vec<Hop>,
    proof: OnceCell<RouteProof>,
    /// Every load accumulation served so far, under what it read.
    loads: RefCell<Vec<(LoadKey, Arc<Accumulation>)>>,
}

impl RouteTable {
    /// Walks every route of `cfg`'s fabric shape: all ordered pairs
    /// (including `src == dst`), every plan, every protocol class the VC
    /// layout separates.
    pub fn new(cfg: &NetworkConfig) -> Self {
        let pairs = cfg.mesh.len() * cfg.mesh.len();
        let mut table = RouteTable {
            mesh: cfg.mesh.clone(),
            routing: cfg.routing,
            vcs: cfg.vcs,
            plan_starts: Vec::with_capacity(pairs + 1),
            walks: Vec::new(),
            hops: Vec::new(),
            proof: OnceCell::new(),
            loads: RefCell::new(Vec::new()),
        };
        table.plan_starts.push(0);
        for src in cfg.mesh.nodes() {
            for dst in cfg.mesh.nodes() {
                // An unroutable pair has no plans.
                for plan in plan_options(cfg.routing, &cfg.mesh, src, dst).into_iter().flatten() {
                    for &class in table.classes() {
                        let walk = trace(cfg, src, dst, class, plan, &mut table.hops);
                        table.walks.push(walk);
                    }
                }
                table.plan_starts.push((table.walks.len() / table.classes().len()) as u32);
            }
        }
        table
    }

    /// Whether `cfg` routes exactly like the configuration the table was
    /// built from.
    pub(crate) fn routes(&self, cfg: &NetworkConfig) -> bool {
        route_key(cfg) == (&self.mesh, self.routing, self.vcs)
    }

    /// The classes walked per plan: both for a two-class layout, else
    /// requests only — a single-class layout grants every class the same
    /// VCs, so a reply walks exactly the request's route.
    pub(crate) fn classes(&self) -> &'static [PacketClass] {
        if self.vcs.classes == 2 {
            &PacketClass::ALL
        } else {
            &[PacketClass::Request]
        }
    }

    fn pair(&self, src: NodeId, dst: NodeId) -> usize {
        src * self.mesh.len() + dst
    }

    /// Whether the routing function can plan `src -> dst` at all.
    pub(crate) fn routable(&self, src: NodeId, dst: NodeId) -> bool {
        !self.plans(src, dst).is_empty()
    }

    /// The pair's plan ids, one per `plan_options` entry in order (empty
    /// when unroutable).
    pub(crate) fn plans(&self, src: NodeId, dst: NodeId) -> Range<u32> {
        let p = self.pair(src, dst);
        self.plan_starts[p]..self.plan_starts[p + 1]
    }

    /// The walk of plan `plan` for a packet of `class`.
    pub(crate) fn walk(&self, plan: u32, class: PacketClass) -> &Walk {
        let classes = self.classes().len();
        let c = if classes == 2 { class.index() } else { 0 };
        &self.walks[plan as usize * classes + c]
    }

    /// The links of `walk`, in order.
    pub(crate) fn hops(&self, walk: &Walk) -> &[Hop] {
        &self.hops[walk.first_hop as usize..(walk.first_hop + walk.hop_count) as usize]
    }

    /// The prover's verdicts that depend on the routes alone, computed
    /// the first time any configuration of this shape is analyzed.
    pub(crate) fn proof(&self) -> &RouteProof {
        self.proof.get_or_init(|| checks::prove(self))
    }

    /// The load accumulation `key` names: `accumulate(key)` the first time
    /// any configuration of this shape asks for it, the kept one after.
    pub(crate) fn accumulation(
        &self,
        key: LoadKey,
        accumulate: impl FnOnce(&LoadKey) -> Accumulation,
    ) -> Arc<Accumulation> {
        if let Some((_, acc)) = self.loads.borrow().iter().find(|(k, _)| *k == key) {
            return Arc::clone(acc);
        }
        let acc = Arc::new(accumulate(&key));
        self.loads.borrow_mut().push((key, Arc::clone(&acc)));
        acc
    }

    /// How many distinct accumulations the table keeps.
    #[cfg(test)]
    pub(crate) fn accumulations(&self) -> usize {
        self.loads.borrow().len()
    }
}

/// Walks one plan of `cfg`'s routing function through the production
/// `next_hop`, appending each link to `hops`. Never panics: a walk that
/// fails to eject within `4 * mesh.len()` hops is returned truncated with
/// `ejected == false`.
fn trace(
    cfg: &NetworkConfig,
    src: NodeId,
    dst: NodeId,
    class: PacketClass,
    plan: (Phase, Option<NodeId>),
    hops: &mut Vec<Hop>,
) -> Walk {
    let mut hdr = Packet::new(class, src, dst, 8, 0).header;
    hdr.phase = plan.0;
    hdr.via = plan.1;
    let first_hop = hops.len() as u32;
    let mut walk =
        Walk { phase: plan.0, via: plan.1, ejected: false, end: src, first_hop, hop_count: 0 };
    let mesh = &cfg.mesh;
    let mut node = src;
    for _ in 0..4 * mesh.len() {
        let dec = next_hop(cfg.routing, &cfg.vcs, mesh, node, &mut hdr);
        match dec.out {
            OutPort::Eject => {
                walk.ejected = true;
                break;
            }
            OutPort::Dir(dir) => {
                let Some(next) = mesh.neighbor(node, dir) else {
                    // Route points off the mesh edge; stop here and let
                    // the minimality check report the broken walk.
                    break;
                };
                hops.push(Hop { node, dir, vcs: dec.vcs });
                node = next;
            }
        }
    }
    walk.end = node;
    walk.hop_count = hops.len() as u32 - first_hop;
    walk
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table is `plan_options` plus `trace`, indexed: per pair one
    /// plan id per option, per `(plan, class)` the walk a fresh `trace`
    /// produces — for every named preset's routed network at three
    /// radices, slices of double networks included.
    #[test]
    fn table_matches_plan_options_and_fresh_walks_on_every_named_preset() {
        for k in [4, 6, 8] {
            for preset in tenoc_core::Preset::NAMED {
                let cfg = preset.icnt(k).physical().expect("a preset slices").net.into_owned();
                let table = RouteTable::new(&cfg);
                let mesh = &cfg.mesh;
                let mut fresh = Vec::new();
                for src in mesh.nodes() {
                    for dst in mesh.nodes() {
                        let label = format!("{} k={k} {src}->{dst}", preset.label());
                        let Ok(options) = plan_options(cfg.routing, mesh, src, dst) else {
                            assert!(!table.routable(src, dst), "{label}");
                            continue;
                        };
                        let options: Vec<_> = options.collect();
                        assert!(table.routable(src, dst), "{label}");
                        let ids = table.plans(src, dst);
                        assert_eq!(ids.len(), options.len(), "{label}");
                        for (id, &plan) in ids.zip(&options) {
                            for class in PacketClass::ALL {
                                let walk = table.walk(id, class);
                                assert_eq!((walk.phase, walk.via), plan, "{label}");
                                fresh.clear();
                                let want = trace(&cfg, src, dst, class, plan, &mut fresh);
                                assert_eq!(table.hops(walk), &fresh[..], "{label} {class:?}");
                                assert_eq!((walk.ejected, walk.end), (want.ejected, want.end));
                            }
                        }
                    }
                }
            }
        }
    }
}
