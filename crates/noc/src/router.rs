//! The input-queued virtual-channel router.
//!
//! Canonical wormhole VC router with credit-based flow control and
//! separable (iSLIP-style) allocation, configurable as the paper's 4-stage
//! baseline, the 3-stage half-router, or the aggressive 1-cycle router:
//!
//! 1. **RC** — on reaching the front of an idle VC, a head flit's route is
//!    computed (output port + candidate downstream VC set).
//! 2. **VA** — waiting VCs request a free downstream VC; requests are
//!    resolved input-first (a round-robin cursor per input VC picks one
//!    candidate) then output-arbitrated (a round-robin arbiter per output
//!    VC picks one winner).
//! 3. **SA** — active VCs with a buffered flit and a downstream credit
//!    compete for the crossbar: one VC per input port (round-robin), then
//!    one input port per output port (round-robin). Pointers advance only
//!    for accepted grants, as in iSLIP.
//! 4. **ST + link** — granted flits are handed to the output channel; they
//!    become visible downstream after the switch-traversal and link
//!    latency.
//!
//! Half-routers use the same pipeline but a restricted crossbar: the route
//! legality of every (input port, output port) pair is asserted against
//! [`connection_allowed`], so a routing bug cannot silently use a
//! connection the hardware would not have.

use crate::arbiter::RoundRobin;
use crate::buffer::{InputUnit, VcState};
use crate::config::{RouterTiming, RoutingKind, VcLayout};
use crate::packet::Flit;
use crate::routing::{self, OutPort, VcSet};
use crate::topology::{connection_allowed, InPort, Mesh, OutPortKind, RouterKind};
use crate::types::{Direction, NodeId};

/// Read-only routing context threaded through router steps.
#[derive(Copy, Clone, Debug)]
pub(crate) struct RouteCtx<'a> {
    /// Topology (router kinds, coordinates).
    pub mesh: &'a Mesh,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// VC partition.
    pub layout: VcLayout,
}

/// Flits and credits a router emits in one cycle.
#[derive(Clone, Debug, Default)]
pub(crate) struct RouterOutputs {
    /// `(output port, downstream VC, flit)` triples granted this cycle.
    pub flits: Vec<(usize, u8, Flit)>,
    /// Credits to return upstream: `(input direction, vc)` of consumed
    /// buffer slots on direction ports.
    pub credits: Vec<(Direction, u8)>,
}

impl RouterOutputs {
    /// Clears both lists, retaining capacity.
    pub fn clear(&mut self) {
        self.flits.clear();
        self.credits.clear();
    }
}

/// Reusable per-`step` scratch space.
///
/// The allocation stages need short-lived request/grant lists every cycle;
/// keeping them here (and moving them out with [`std::mem::take`] while a
/// stage runs) makes the steady-state router step allocation-free once the
/// lists have grown to their high-water capacity.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// VA requests: `(out_port, out_vc, in_port, in_vc)`.
    va_requests: Vec<(usize, u8, usize, u8)>,
    /// Contenders for one output VC during VA output arbitration.
    va_contenders: Vec<(usize, u8)>,
    /// SA nominees, one slot per input port.
    sa_nominee: Vec<Option<(u8, usize, u8)>>,
}

/// One mesh router.
#[derive(Clone, Debug)]
pub struct Router {
    node: NodeId,
    kind: RouterKind,
    timing: RouterTiming,
    num_vcs: usize,
    n_eject: usize,
    vc_depth: usize,
    /// Input units: ports `0..4` are directions, `4..4+n_inject` local.
    inputs: Vec<InputUnit>,
    /// Downstream credits per `[out_port][vc]`; out ports `0..4` are
    /// directions, `4..4+n_eject` ejection.
    credits: Vec<Vec<u16>>,
    /// Current holder of each downstream VC, if any.
    out_vc_owner: Vec<Vec<Option<(usize, u8)>>>,
    /// VA output arbiters, one per `(out_port, vc)`, over flattened input
    /// VC index `in_port * num_vcs + vc`.
    va_arb: Vec<Vec<RoundRobin>>,
    /// SA input-side arbiters: one per input port, over its VCs.
    sa_in_arb: Vec<RoundRobin>,
    /// SA output-side arbiters: one per output port, over input ports.
    sa_out_arb: Vec<RoundRobin>,
    /// Whether a neighbor exists per direction.
    dir_exists: [bool; 4],
    /// Reusable per-cycle temporaries for the allocation stages.
    scratch: Scratch,
}

impl Router {
    /// Builds a router for `node`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node: NodeId,
        kind: RouterKind,
        timing: RouterTiming,
        num_vcs: usize,
        vc_depth: usize,
        n_inject: usize,
        n_eject: usize,
        dir_exists: [bool; 4],
    ) -> Self {
        assert!(num_vcs > 0 && num_vcs <= u8::MAX as usize);
        assert!(n_inject >= 1 && n_eject >= 1);
        let n_in = 4 + n_inject;
        let n_out = 4 + n_eject;
        Router {
            node,
            kind,
            timing,
            num_vcs,
            n_eject,
            vc_depth,
            inputs: (0..n_in).map(|_| InputUnit::new(num_vcs, vc_depth)).collect(),
            credits: (0..n_out)
                .map(|op| {
                    let present = op >= 4 || dir_exists[op];
                    vec![if present { vc_depth as u16 } else { 0 }; num_vcs]
                })
                .collect(),
            out_vc_owner: (0..n_out).map(|_| vec![None; num_vcs]).collect(),
            va_arb: (0..n_out)
                .map(|_| (0..num_vcs).map(|_| RoundRobin::new(n_in * num_vcs)).collect())
                .collect(),
            sa_in_arb: (0..n_in).map(|_| RoundRobin::new(num_vcs)).collect(),
            sa_out_arb: (0..n_out).map(|_| RoundRobin::new(n_in)).collect(),
            dir_exists,
            scratch: Scratch {
                va_requests: Vec::with_capacity(n_in * num_vcs),
                va_contenders: Vec::with_capacity(n_in * num_vcs),
                sa_nominee: vec![None; n_in],
            },
        }
    }

    /// Pipeline timing.
    pub fn timing(&self) -> RouterTiming {
        self.timing
    }

    /// Free buffer slots in injection port `port`, VC `vc`.
    pub(crate) fn inject_space(&self, port: usize, vc: u8) -> usize {
        self.inputs[4 + port].vc(vc).free_slots()
    }

    /// Total flits buffered in all input units (used by drain detection).
    pub fn occupancy(&self) -> usize {
        self.inputs.iter().map(InputUnit::occupancy).sum()
    }

    /// `true` when a `step` would be a no-op: no input VC holds a flit.
    ///
    /// With empty FIFOs every pipeline stage bails out before touching an
    /// arbiter pointer or a VC state, so an idle router's step has no
    /// observable effect and the network may skip it outright. A VC may
    /// still be mid-packet (`Active` with its body flits in flight
    /// upstream), but such a VC does nothing until the next flit arrives —
    /// and that arrival re-wakes the router.
    pub(crate) fn is_idle(&self) -> bool {
        self.occupancy() == 0
    }

    /// Delivers a flit to input `in_port`, VC `vc`, arriving at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (credit protocol violation).
    pub(crate) fn accept_flit(&mut self, in_port: usize, vc: u8, flit: Flit, now: u64) {
        self.inputs[in_port].vc_mut(vc).push(flit, now);
    }

    /// Returns a credit for `(out_port, vc)`.
    ///
    /// # Panics
    ///
    /// Panics if credits would exceed the downstream buffer depth.
    pub(crate) fn accept_credit(&mut self, out_port: usize, vc: u8) {
        let c = &mut self.credits[out_port][vc as usize];
        *c += 1;
        assert!(
            *c as usize <= self.vc_depth,
            "credit overflow on router {} out port {out_port} vc {vc}",
            self.node
        );
    }

    /// Runs one cycle of the router pipeline, appending emitted flits and
    /// credits to `out`.
    pub fn step(&mut self, now: u64, ctx: &RouteCtx<'_>, out: &mut RouterOutputs) {
        self.route_compute(now, ctx);
        self.vc_allocate(now);
        self.switch_allocate(now, out);
    }

    /// RC stage: idle VCs with a head flit at the front get a route.
    fn route_compute(&mut self, _now: u64, ctx: &RouteCtx<'_>) {
        for in_port in 0..self.inputs.len() {
            for vc in 0..self.num_vcs {
                let unit = &mut self.inputs[in_port];
                let ivc = unit.vc_mut(vc as u8);
                if ivc.state != VcState::Idle {
                    continue;
                }
                let Some((flit, arrival)) = ivc.front_mut() else { continue };
                assert!(
                    flit.is_head(),
                    "body flit at front of idle VC (packet interleaving bug) at router {}",
                    self.node
                );
                let arrival = *arrival;
                let dec =
                    routing::next_hop(ctx.routing, &ctx.layout, ctx.mesh, self.node, &mut flit.hdr);
                let out_port = match dec.out {
                    OutPort::Dir(d) => {
                        assert!(
                            self.dir_exists[d.index()],
                            "route points off the mesh edge at router {}",
                            self.node
                        );
                        d.index()
                    }
                    OutPort::Eject => 4 + (flit.hdr.id as usize % self.n_eject),
                };
                let ik = if in_port < 4 {
                    InPort::Dir(Direction::from_index(in_port))
                } else {
                    InPort::Inject((in_port - 4) as u8)
                };
                let ok = if out_port < 4 {
                    OutPortKind::Dir(Direction::from_index(out_port))
                } else {
                    OutPortKind::Eject((out_port - 4) as u8)
                };
                assert!(
                    connection_allowed(self.kind, ik, ok),
                    "routing used an illegal {:?} -> {:?} connection at {:?} router {}",
                    ik,
                    ok,
                    self.kind,
                    self.node
                );
                ivc.state = VcState::Waiting {
                    out_port,
                    vcs: dec.vcs,
                    va_eligible: arrival + self.timing.rc_delay,
                };
            }
        }
    }

    /// VA stage: input-first separable allocation of downstream VCs.
    fn vc_allocate(&mut self, now: u64) {
        // Gather one (out_port, out_vc) request per eligible waiting VC.
        // requests[i] = (out_port, out_vc, in_port, vc)
        let mut requests = std::mem::take(&mut self.scratch.va_requests);
        let mut contenders = std::mem::take(&mut self.scratch.va_contenders);
        requests.clear();
        for in_port in 0..self.inputs.len() {
            for vc in 0..self.num_vcs {
                let ivc = self.inputs[in_port].vc(vc as u8);
                let VcState::Waiting { out_port, vcs, va_eligible } = ivc.state else {
                    continue;
                };
                if va_eligible > now {
                    continue;
                }
                if let Some(cand) = self.pick_candidate_vc(in_port, vc as u8, out_port, vcs) {
                    requests.push((out_port, cand, in_port, vc as u8));
                }
            }
        }
        // Output-side arbitration per (out_port, out_vc).
        let mut i = 0;
        while i < requests.len() {
            let (op, ovc, _, _) = requests[i];
            // Collect the contenders for this output VC.
            contenders.clear();
            contenders.extend(
                requests
                    .iter()
                    .filter(|&&(o, v, _, _)| o == op && v == ovc)
                    .map(|&(_, _, ip, iv)| (ip, iv)),
            );
            let arb = &mut self.va_arb[op][ovc as usize];
            let winner_flat = arb
                .pick(|flat| {
                    let ip = flat / self.num_vcs;
                    let iv = (flat % self.num_vcs) as u8;
                    contenders.contains(&(ip, iv))
                })
                .expect("at least one contender requested this output VC");
            let (wip, wiv) = (winner_flat / self.num_vcs, (winner_flat % self.num_vcs) as u8);
            // Grant.
            self.out_vc_owner[op][ovc as usize] = Some((wip, wiv));
            let ivc = self.inputs[wip].vc_mut(wiv);
            ivc.state = VcState::Active { out_port: op, out_vc: ovc, va_cycle: now };
            ivc.vc_request_cursor = ivc.vc_request_cursor.wrapping_add(1);
            // Remove all requests for this output VC and by this input VC.
            requests.retain(|&(o, v, ip, iv)| !((o == op && v == ovc) || (ip == wip && iv == wiv)));
            // Restart scanning (simplest; request lists are tiny).
            i = 0;
        }
        self.scratch.va_requests = requests;
        self.scratch.va_contenders = contenders;
    }

    /// Picks one candidate downstream VC for a waiting input VC, rotating
    /// through the allowed set with the VC's request cursor.
    fn pick_candidate_vc(&self, in_port: usize, vc: u8, out_port: usize, vcs: VcSet) -> Option<u8> {
        let cursor = self.inputs[in_port].vc(vc).vc_request_cursor;
        let n = vcs.count as usize;
        for off in 0..n {
            let ovc = vcs.first + ((cursor as usize + off) % n) as u8;
            if self.out_vc_owner[out_port][ovc as usize].is_none() {
                return Some(ovc);
            }
        }
        None
    }

    /// Commits one switch grant: moves the flit, returns credits, updates
    /// VC state.
    fn commit_grant(&mut self, ip: usize, vc: u8, op: usize, out_vc: u8, out: &mut RouterOutputs) {
        let ivc = self.inputs[ip].vc_mut(vc);
        let (flit, _) = ivc.pop().expect("granted VC has a flit");
        if flit.is_tail() {
            self.out_vc_owner[op][out_vc as usize] = None;
            ivc.state = VcState::Idle;
        }
        let c = &mut self.credits[op][out_vc as usize];
        assert!(*c > 0, "SA granted without a credit");
        *c -= 1;
        if ip < 4 {
            out.credits.push((Direction::from_index(ip), vc));
        }
        out.flits.push((op, out_vc, flit));
    }

    /// SA stage, separable input-first (iSLIP): one flit per input port,
    /// one flit per output port.
    fn switch_allocate(&mut self, now: u64, out: &mut RouterOutputs) {
        let n_out = self.credits.len();
        // Phase 1: each input port nominates one VC (in_vc, out_port, out_vc).
        let mut nominee = std::mem::take(&mut self.scratch.sa_nominee);
        nominee.iter_mut().for_each(|slot| *slot = None);
        for (in_port, slot) in nominee.iter_mut().enumerate() {
            let pick = self.sa_in_arb[in_port].peek(|vc| self.sa_ready(in_port, vc as u8, now));
            if let Some(vc) = pick {
                if let VcState::Active { out_port, out_vc, .. } =
                    self.inputs[in_port].vc(vc as u8).state
                {
                    *slot = Some((vc as u8, out_port, out_vc));
                }
            }
        }
        // Phase 2: each output port picks one nominating input port.
        for op in 0..n_out {
            let winner =
                self.sa_out_arb[op].peek(|ip| matches!(nominee[ip], Some((_, p, _)) if p == op));
            let Some(ip) = winner else { continue };
            let (vc, _, out_vc) = nominee[ip].expect("winner nominated");
            // Accept: advance both pointers (iSLIP), move the flit.
            self.sa_out_arb[op].advance_past(ip);
            self.sa_in_arb[ip].advance_past(vc as usize);
            self.commit_grant(ip, vc, op, out_vc, out);
        }
        self.scratch.sa_nominee = nominee;
    }

    /// `true` if input VC `(in_port, vc)` may compete for the switch at
    /// `now`: active, flit buffered, downstream credit available, and (for
    /// freshly arrived head flits on multi-stage routers) VC allocation
    /// happened in an earlier cycle.
    ///
    /// Heads of packets that were already queued behind another packet get
    /// their switch grant in the VA cycle: a pipelined router overlaps
    /// their route computation and allocation with the previous packet's
    /// tail, so back-to-back packets on one VC lose only the allocation
    /// bubble, not the whole pipeline depth.
    fn sa_ready(&self, in_port: usize, vc: u8, now: u64) -> bool {
        let ivc = self.inputs[in_port].vc(vc);
        let VcState::Active { out_port, out_vc, va_cycle } = ivc.state else {
            return false;
        };
        let Some(&(flit, arrival)) = ivc.front() else { return false };
        if self.credits[out_port][out_vc as usize] == 0 {
            return false;
        }
        if flit.is_head()
            && !self.timing.same_cycle_sa
            && va_cycle >= now
            && va_cycle <= arrival + self.timing.rc_delay
        {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn ctx(mesh: &Mesh) -> RouteCtx<'_> {
        RouteCtx { mesh, routing: RoutingKind::DorXy, layout: VcLayout::new(2, 2, false) }
    }

    fn make_router(node: NodeId, mesh: &Mesh, stages: u32) -> Router {
        let dir_exists =
            std::array::from_fn(|i| mesh.neighbor(node, Direction::from_index(i)).is_some());
        Router::new(
            node,
            mesh.kind(node),
            RouterTiming::from_stages(stages),
            2,
            8,
            1,
            1,
            dir_exists,
        )
    }

    fn head_flit(src: NodeId, dst: NodeId) -> Flit {
        let mut p = Packet::request(src, dst, 8, 7);
        p.header.flits = 1;
        p.header.id = 1;
        Flit { hdr: p.header, seq: 0 }
    }

    /// A single flit crossing a 4-stage router departs exactly at
    /// arrival + 2 (RC in the arrival cycle, VA next, SA the cycle after).
    #[test]
    fn four_stage_pipeline_timing() {
        let mesh = Mesh::all_full(4);
        let node = mesh.node(crate::types::Coord::new(1, 1));
        let dst = mesh.node(crate::types::Coord::new(3, 1));
        let mut r = make_router(node, &mesh, 4);
        let c = ctx(&mesh);
        let mut out = RouterOutputs::default();
        r.accept_flit(4, 0, head_flit(node, dst), 10);
        for now in 10..=11 {
            r.step(now, &c, &mut out);
            assert!(out.flits.is_empty(), "flit must not depart at cycle {now}");
        }
        r.step(12, &c, &mut out);
        assert_eq!(out.flits.len(), 1);
        let (op, _, f) = out.flits[0];
        assert_eq!(op, Direction::East.index());
        assert_eq!(f.hdr.dst, dst);
    }

    /// A 1-cycle router forwards an injected flit in its arrival cycle.
    #[test]
    fn single_cycle_pipeline_timing() {
        let mesh = Mesh::all_full(4);
        let node = mesh.node(crate::types::Coord::new(1, 1));
        let dst = mesh.node(crate::types::Coord::new(1, 3));
        let mut r = make_router(node, &mesh, 1);
        let c = ctx(&mesh);
        let mut out = RouterOutputs::default();
        r.accept_flit(4, 0, head_flit(node, dst), 5);
        r.step(5, &c, &mut out);
        assert_eq!(out.flits.len(), 1);
        assert_eq!(out.flits[0].0, Direction::South.index());
    }

    /// Ejection at the destination goes to an eject output port.
    #[test]
    fn ejects_at_destination() {
        let mesh = Mesh::all_full(4);
        let node = mesh.node(crate::types::Coord::new(2, 2));
        let mut r = make_router(node, &mesh, 1);
        let c = ctx(&mesh);
        let mut out = RouterOutputs::default();
        r.accept_flit(0, 0, head_flit(5, node), 3);
        r.step(3, &c, &mut out);
        assert_eq!(out.flits.len(), 1);
        assert_eq!(out.flits[0].0, 4, "ejection port index");
        // A credit is returned upstream for the consumed direction-port slot.
        assert_eq!(out.credits, vec![(Direction::North, 0)]);
    }

    /// Without credits, flits stay buffered; returning a credit releases
    /// them.
    #[test]
    fn blocks_without_credits_and_resumes() {
        let mesh = Mesh::all_full(4);
        let node = mesh.node(crate::types::Coord::new(1, 1));
        let dst = mesh.node(crate::types::Coord::new(3, 1));
        let mut r = make_router(node, &mesh, 1);
        // Exhaust the credits of both East VCs (the request class uses
        // VC 0).
        r.credits[Direction::East.index()] = vec![0, 0];
        let c = ctx(&mesh);
        let mut out = RouterOutputs::default();
        r.accept_flit(4, 0, head_flit(node, dst), 1);
        for now in 1..5 {
            r.step(now, &c, &mut out);
            assert!(out.flits.is_empty());
        }
        r.accept_credit(Direction::East.index(), 0);
        r.step(5, &c, &mut out);
        assert_eq!(out.flits.len(), 1);
    }

    /// Two inputs contending for one output share it fairly over time.
    #[test]
    fn output_contention_is_fair() {
        let mesh = Mesh::all_full(4);
        let node = mesh.node(crate::types::Coord::new(1, 1));
        let dst = mesh.node(crate::types::Coord::new(3, 1)); // east of node
        let mut r = make_router(node, &mesh, 1);
        let c = ctx(&mesh);
        let mut out = RouterOutputs::default();
        // Multi-flit packets from the injection port and the west input,
        // both heading east. Give them distinct ids.
        let mk = |id: u64, flits: u16| {
            let mut p = Packet::request(0, dst, 16 * flits as u32, 0);
            p.header.flits = flits;
            p.header.id = id;
            p.header
        };
        let h1 = mk(1, 3);
        let h2 = mk(2, 3);
        for seq in 0..3u16 {
            r.accept_flit(4, 0, Flit { hdr: h1, seq }, 0);
            r.accept_flit(Direction::West.index(), 0, Flit { hdr: h2, seq }, 0);
        }
        let mut sent = Vec::new();
        for now in 0..20 {
            out.clear();
            r.step(now, &c, &mut out);
            for &(op, _, f) in &out.flits {
                assert_eq!(op, Direction::East.index());
                sent.push(f.hdr.id);
            }
        }
        assert_eq!(sent.len(), 6, "all six flits forwarded");
        // Each packet's flits stay in order.
        let p1: Vec<_> = sent.iter().filter(|&&i| i == 1).collect();
        let p2: Vec<_> = sent.iter().filter(|&&i| i == 2).collect();
        assert_eq!(p1.len(), 3);
        assert_eq!(p2.len(), 3);
    }

    /// The half-router rejects routes that would turn within it.
    #[test]
    #[should_panic(expected = "illegal")]
    fn half_router_asserts_on_illegal_turn() {
        let mesh = Mesh::checkerboard(4);
        // Node (1,0) is a half-router.
        let node = mesh.node(crate::types::Coord::new(1, 0));
        assert!(mesh.is_half(node));
        let mut r = make_router(node, &mesh, 3);
        let c = ctx(&mesh); // DOR XY — will try to turn at this half-router
        let mut out = RouterOutputs::default();
        // Flit entering from the west, destined below the router: XY says
        // turn south here, which a half-router cannot do.
        let dst = mesh.node(crate::types::Coord::new(1, 3));
        r.accept_flit(Direction::West.index(), 0, head_flit(0, dst), 0);
        r.step(0, &c, &mut out);
    }

    /// Credit accounting round-trips: after a flit departs, returning the
    /// credit restores full capacity.
    #[test]
    fn credit_roundtrip() {
        let mesh = Mesh::all_full(4);
        let node = mesh.node(crate::types::Coord::new(1, 1));
        let dst = mesh.node(crate::types::Coord::new(3, 1));
        let mut r = make_router(node, &mesh, 1);
        let c = ctx(&mesh);
        let mut out = RouterOutputs::default();
        r.accept_flit(4, 0, head_flit(node, dst), 0);
        r.step(0, &c, &mut out);
        assert_eq!(r.credits[Direction::East.index()][0], 7);
        r.accept_credit(Direction::East.index(), 0);
        assert_eq!(r.credits[Direction::East.index()][0], 8);
    }

    /// Packets with different ids spread across a router's two ejection
    /// ports round-robin (by id), doubling terminal ejection bandwidth.
    #[test]
    fn multiple_eject_ports_share_deliveries() {
        let mesh = Mesh::all_full(4);
        let node = mesh.node(crate::types::Coord::new(1, 1));
        let dir_exists =
            std::array::from_fn(|i| mesh.neighbor(node, Direction::from_index(i)).is_some());
        let mut r = Router::new(
            node,
            mesh.kind(node),
            RouterTiming::from_stages(1),
            2,
            8,
            1,
            2, // two ejection ports
            dir_exists,
        );
        let c = ctx(&mesh);
        let mut out = RouterOutputs::default();
        let mut ports_used = std::collections::HashSet::new();
        for id in 0..4u64 {
            let mut p = Packet::request(0, node, 8, 0);
            p.header.flits = 1;
            p.header.id = id;
            r.accept_flit(
                Direction::North.index(),
                (id % 2) as u8,
                Flit { hdr: p.header, seq: 0 },
                id,
            );
            out.clear();
            r.step(id, &c, &mut out);
            for &(op, _, _) in &out.flits {
                assert!(op == 4 || op == 5, "must leave via an eject port");
                ports_used.insert(op);
            }
        }
        // Drain remaining cycles.
        for now in 4..10 {
            out.clear();
            r.step(now, &c, &mut out);
            for &(op, _, _) in &out.flits {
                ports_used.insert(op);
            }
        }
        assert_eq!(ports_used.len(), 2, "both ejection ports used: {ports_used:?}");
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn credit_overflow_asserts() {
        let mesh = Mesh::all_full(4);
        let node = mesh.node(crate::types::Coord::new(1, 1));
        let mut r = make_router(node, &mesh, 1);
        r.accept_credit(Direction::East.index(), 0);
    }
}
