//! Structure-of-arrays execution engine — the production cycle kernel.
//!
//! [`ArenaNetwork`] is an alternative execution engine for the exact
//! simulation that [`Network`](crate::network::Network) defines: instead of
//! per-router `Vec<Router>` / `Vec<Vec<…>>` nesting, every piece of router
//! state — input-VC FIFOs, per-VC credit counters, `out_vc_owner`, the
//! round-robin arbiter pointers, NI slots — lives in one contiguous
//! index-addressed slab per kind of state, and the links are one delivery
//! wheel of flits filed by arrival cycle plus one next-cycle credit list
//! per network. The pipeline stages then iterate over dense arrays with a
//! per-node occupancy bitmask selecting the (input port, VC) lanes that
//! hold flits, which is what makes the inner loops cache-dense and
//! branch-uniform.
//!
//! The arena is an *engine*, not a model: it executes the oracle's event
//! schedule bit-exactly. Every arbiter pointer is sized by the router's
//! actual port counts (not the slab stride), every phase visits nodes in
//! the oracle's ascending node order, and the RNG is consumed by the
//! same calls in the same order — so statistics, ejection traces, cycle
//! counts, telemetry reports and therefore `RunRecord` fingerprints are
//! identical to the per-router kernel. `tests/arena_equivalence.rs` pins
//! this with proptests over random legal configurations. Production code
//! reaches it through `tenoc_core::IcntConfig::build`. See DESIGN.md §15.

use crate::activeset::ActiveSet;
use crate::buffer::VcState;
use crate::config::{NetworkConfig, RouterTiming};
use crate::interconnect::Interconnect;
use crate::packet::{EjectedPacket, Packet, PacketHeader, Phase};
use crate::routing::{self, OutPort};
use crate::stats::NetStats;
use crate::telemetry::{NetTelemetry, TelemetryConfig, TelemetryReport};
use crate::tick::Tick;
use crate::topology::RouterKind;
use crate::types::{Direction, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Opposite-direction port index: `North <-> South`, `East <-> West`.
const OPP: [usize; 4] = [2, 3, 0, 1];

/// First set bit of `mask` at or cyclically after `ptr`, over an `n`-bit
/// ring (`n < 32`, `mask` nonzero within the low `n` bits). This is the
/// round-robin arbiter pick: rotate the ring so `ptr` is bit 0, take the
/// lowest set bit, rotate back.
#[inline(always)]
fn circ_first(mask: u32, ptr: usize, n: usize) -> usize {
    debug_assert!(mask != 0 && ptr < n && n < 32);
    let rot = (mask >> ptr) | (mask << (n - ptr));
    let win = ptr + rot.trailing_zeros() as usize;
    if win >= n {
        win - n
    } else {
        win
    }
}

/// [`circ_first`] over a 128-bit ring (`n <= 128`). The `ptr == 0` case is
/// split out because `mask << n` would overflow the shift when `n == 128`.
#[inline(always)]
fn circ_first128(mask: u128, ptr: usize, n: usize) -> usize {
    debug_assert!(mask != 0 && ptr < n && n <= 128);
    if ptr == 0 {
        return mask.trailing_zeros() as usize;
    }
    let rot = (mask >> ptr) | (mask << (n - ptr));
    let win = ptr + rot.trailing_zeros() as usize;
    if win >= n {
        win - n
    } else {
        win
    }
}

/// A packet being streamed flit-by-flit into a router injection port.
#[derive(Copy, Clone, Debug)]
struct NiPacket {
    /// Packet-table row.
    pkt: u32,
    next_seq: u16,
    /// Total flit count, copied here so streaming a body flit does not
    /// touch the packet-table row.
    flits: u16,
    vc: Option<u8>,
}

/// A flit in flight: a reference into the packet table plus its sequence
/// number. 6 bytes instead of a ~90-byte header copy — the single biggest
/// lever on the engine's memory traffic, since every hop moves each flit
/// through a buffer pop, the delivery wheel, and a buffer push.
#[derive(Copy, Clone, Debug)]
struct LaneFlit {
    pkt: u32,
    /// Sequence within the packet (`0` = head).
    seq: u16,
}

/// A buffered flit: 12 bytes per FIFO slot. Cycle stamps are stored as
/// `u32` — simulations are bounded by `max_core_cycles`, far below 2^32.
#[derive(Copy, Clone, Debug)]
struct FifoEntry {
    pkt: u32,
    arrival: u32,
    seq: u16,
}

/// A flit on a link, filed in the delivery wheel under the cycle it
/// reaches the receiving router's input port `dir`: 12 bytes per entry.
#[derive(Copy, Clone, Debug)]
struct Arrival {
    pkt: u32,
    node: u32,
    seq: u16,
    dir: u8,
    vc: u8,
}

/// One physical mesh network, stored as flat structure-of-arrays slabs.
///
/// Drop-in replacement for [`Network`](crate::network::Network) behind the
/// [`Interconnect`] trait with bit-identical observable behavior (same
/// stats, same ejection order, same RNG stream, same telemetry reports).
pub struct ArenaNetwork {
    cfg: NetworkConfig,
    // --- shape (immutable after construction) ---
    n: usize,
    /// VCs per input port.
    nv: usize,
    /// Buffer depth per VC, in flits.
    depth: usize,
    /// Slab stride: max input ports over all nodes (4 + max inject ports).
    in_max: usize,
    /// Slab stride: max output ports over all nodes (4 + max eject ports).
    out_max: usize,
    /// Input-VC slots per node (`in_max * nv`).
    ivc_stride: usize,
    /// Output-VC slots per node (`out_max * nv`).
    ovc_stride: usize,
    /// Actual input-port count per node — arbiter modulo arithmetic uses
    /// this, never the slab stride, to match the oracle's pointer orbits.
    node_n_in: Vec<u8>,
    node_n_eject: Vec<u8>,
    node_kind: Vec<RouterKind>,
    node_timing: Vec<RouterTiming>,
    /// Per-node `st_delay + link_latency + 1` (half-routers differ).
    node_flit_delay: Vec<u64>,
    /// Neighbor per `[node][dir]`; `-1` at mesh edges.
    nbr: Vec<[i32; 4]>,
    // --- packet table ---
    /// One header per in-flight packet, indexed by [`LaneFlit::pkt`]. RC
    /// mutates a packet's routing fields here in place — bit-identical to
    /// the oracle mutating its head flit's copy, because a wormhole head
    /// visits routers strictly in sequence. Rows recycle via `pkt_free`
    /// when the tail flit ejects.
    pkts: Vec<PacketHeader>,
    /// Injection-time `(phase, via)` per row, restored into the header at
    /// ejection so the ejected packet is byte-identical to the oracle's
    /// (whose tail flit still carries the injection-time copy).
    pkt_init: Vec<(Phase, Option<NodeId>)>,
    /// Dense mirror of each row's flit count — tail detection per grant
    /// reads 2 bytes here instead of pulling the 80-byte header row.
    pkt_flits: Vec<u16>,
    /// Free packet-table rows.
    pkt_free: Vec<u32>,
    // --- input-VC slabs, indexed `node * ivc_stride + in_port * nv + vc` ---
    /// FIFO storage: slot `i` owns `fifo[i*depth .. (i+1)*depth]` as a
    /// ring of flits stamped with their arrival cycle.
    fifo: Vec<FifoEntry>,
    fifo_head: Vec<u8>,
    fifo_len: Vec<u8>,
    vc_state: Vec<VcState>,
    /// Round-robin cursor over candidate output VCs (VA request rotation).
    vc_cursor: Vec<u8>,
    /// Per-node occupancy bitmask: bit `in_port * nv + vc` set iff that
    /// VC buffers at least one flit. Drives RC/VA/SA lane selection.
    occ: Vec<u128>,
    /// Per-node mask of lanes in `VcState::Waiting` (routed, awaiting VA).
    /// Always a subset of `occ`: the routed head stays buffered until SA.
    waiting: Vec<u128>,
    /// Per-node mask of lanes in `VcState::Active` (own a downstream VC).
    /// Not a subset of `occ` — an active lane may have drained its buffer
    /// while body flits are still in flight upstream.
    active_vcs: Vec<u128>,
    /// Per-node mask of active lanes whose downstream VC has a credit.
    /// Maintained incrementally at every credit arrival/consumption and VA
    /// grant; only meaningful under `active_vcs`. Readiness for the switch
    /// is then `active & occ & credit_ok & !gate` with no table probes.
    credit_ok: Vec<u128>,
    /// Per-node mask of lanes whose head won VA this cycle and is gated
    /// out of same-cycle switch traversal (multi-cycle routers only).
    /// Rebuilt by VA each cycle before SA reads it.
    sa_gate: Vec<u128>,
    /// Buffered flits per node (drain detection).
    node_occ: Vec<u32>,
    // --- output-VC slabs, indexed `node * ovc_stride + out_port * nv + vc` ---
    credits: Vec<u16>,
    /// Holder of each downstream VC as flat `in_port * nv + vc`, `-1` free.
    owner: Vec<i16>,
    /// VA output-arbiter pointer per (out_port, vc).
    va_ptr: Vec<u16>,
    /// SA input-arbiter pointer per `[node * in_max + in_port]`, over VCs.
    sa_in_ptr: Vec<u8>,
    /// SA output-arbiter pointer per `[node * out_max + out_port]`, over
    /// the node's actual input ports.
    sa_out_ptr: Vec<u8>,
    // --- links ---
    /// Delivery wheel: slot `due & (len - 1)` holds the flits that reach
    /// their receiver at cycle `due`. `len` is the longest
    /// `node_flit_delay` rounded up to a power of two, so the dues
    /// outstanding after a cycle's slot is drained (`now + 1 ..= now +
    /// max delay`) never share a slot.
    wheel: Vec<Vec<Arrival>>,
    /// Credits that land next cycle, as `(node, output-VC slot)`: a
    /// channel credit for the upstream router or an ejection credit for
    /// the ejecting one.
    credits_next: Vec<(u32, u32)>,
    /// Flits sent per channel `node * 4 + dir`.
    ch_total: Vec<u64>,
    // --- network interfaces, indexed `node * (in_max - 4) + port` ---
    ni: Vec<Option<NiPacket>>,
    node_n_inject: Vec<u8>,
    /// Busy NI slots per node.
    ni_busy: Vec<u8>,
    ni_cursor: Vec<u32>,
    // --- cold state ---
    ejected: Vec<VecDeque<EjectedPacket>>,
    cycle: u64,
    stats: NetStats,
    rng: SmallRng,
    next_pkt_id: u64,
    /// Routers with buffered flits or a busy NI — exactly the ones with
    /// work this cycle.
    active: ActiveSet,
    // --- in-flight accounting (flits on links are the wheel's length) ---
    buffered: usize,
    ni_pending: usize,
    // --- per-cycle scratch (steady-state allocation-free) ---
    /// VA per-(out_port, out_vc) requester masks (bit `in_port * nv + vc`).
    va_req: Vec<u128>,
    /// Observability instruments, `None` unless armed — the same
    /// `Option` discipline as the oracle: an unarmed run pays one branch
    /// per switch grant and per active node, and allocates nothing.
    telemetry: Option<Box<NetTelemetry>>,
}

impl ArenaNetwork {
    /// Most input ports one router may have, because the switch
    /// allocator's per-output courting masks are `u32` rings that
    /// [`circ_first`] rotates (`n < 32`).
    const MAX_IN_PORTS: usize = 31;
    /// Most output ports, because SA's nominated-output mask is a `u32`.
    const MAX_OUT_PORTS: usize = 32;
    /// Most input-VC lanes — `(4 + injection ports) x VCs` — because the
    /// per-node state masks are 128-bit.
    const MAX_LANES: usize = 128;
    /// Most output-VC slots — `(4 + ejection ports) x VCs` — because VA's
    /// requested-slot mask is 128-bit.
    const MAX_OUT_VCS: usize = 128;
    /// Deepest VC buffer, because ring indices are 8-bit.
    const MAX_VC_DEPTH: usize = 255;

    /// `true` if this configuration's shape fits the arena's packed
    /// representation (see [`broken_limits`](Self::broken_limits)). An
    /// unsupported shape fails [`NetworkConfig::validate`], which consults
    /// this.
    pub fn supports(cfg: &NetworkConfig) -> bool {
        Self::broken_limits(cfg).next().is_none() && !cfg.mesh.is_empty()
    }

    /// Each packed-layout limit `cfg`'s shape exceeds, named with the
    /// shape's value and the limit — e.g. `33 input ports (limit 31)`.
    pub(crate) fn broken_limits(cfg: &NetworkConfig) -> impl Iterator<Item = String> {
        let nv = cfg.vcs.total as usize;
        let n_in = 4 + cfg.mc_inject_ports.max(cfg.core_inject_ports);
        let n_out = 4 + cfg.mc_eject_ports.max(cfg.core_eject_ports);
        [
            (n_in, Self::MAX_IN_PORTS, "input ports"),
            (n_out, Self::MAX_OUT_PORTS, "output ports"),
            (n_in * nv, Self::MAX_LANES, "lanes per router"),
            (n_out * nv, Self::MAX_OUT_VCS, "output-VC slots per router"),
            (cfg.vc_depth, Self::MAX_VC_DEPTH, "flits of VC depth"),
        ]
        .into_iter()
        .filter(|&(value, limit, _)| value > limit)
        .map(|(value, limit, what)| format!("{value} {what} (limit {limit})"))
    }

    /// Builds an arena engine from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: NetworkConfig) -> Self {
        cfg.validate().expect("invalid network configuration");
        let n = cfg.mesh.len();
        let nv = cfg.vcs.total as usize;
        let depth = cfg.vc_depth;
        let max_inject = cfg.mc_inject_ports.max(cfg.core_inject_ports);
        let max_eject = cfg.mc_eject_ports.max(cfg.core_eject_ports);
        let in_max = 4 + max_inject;
        let out_max = 4 + max_eject;
        let ivc_stride = in_max * nv;
        let ovc_stride = out_max * nv;

        let mut node_n_in = Vec::with_capacity(n);
        let mut node_n_eject = Vec::with_capacity(n);
        let mut node_n_inject = Vec::with_capacity(n);
        let mut node_kind = Vec::with_capacity(n);
        let mut node_timing = Vec::with_capacity(n);
        let mut node_flit_delay = Vec::with_capacity(n);
        let mut nbr = Vec::with_capacity(n);
        let mut max_delay = 0u64;
        for node in 0..n {
            let inj = cfg.inject_ports(node);
            let ej = cfg.eject_ports(node);
            node_n_in.push((4 + inj) as u8);
            node_n_eject.push(ej as u8);
            node_n_inject.push(inj as u8);
            node_kind.push(cfg.mesh.kind(node));
            let t = cfg.timing(node);
            node_timing.push(t);
            let fd = t.st_delay + cfg.link_latency as u64 + 1;
            max_delay = max_delay.max(fd);
            node_flit_delay.push(fd);
            nbr.push(std::array::from_fn(|d| {
                cfg.mesh.neighbor(node, Direction::from_index(d)).map_or(-1, |x| x as i32)
            }));
        }
        // Capacities are the per-cycle maxima — one flit per directed
        // channel; one credit per direction input port plus one per
        // ejection port — so steady state never grows a slot or the list.
        let wheel = (0..(max_delay as usize).next_power_of_two())
            .map(|_| Vec::with_capacity(n * 4))
            .collect();

        // Downstream credits start at the buffer depth for present ports
        // (all local ports; direction ports only where a neighbor exists).
        let mut credits = vec![0u16; n * ovc_stride];
        for node in 0..n {
            for op in 0..4 + node_n_eject[node] as usize {
                if op >= 4 || nbr[node][op] >= 0 {
                    for vc in 0..nv {
                        credits[node * ovc_stride + op * nv + vc] = depth as u16;
                    }
                }
            }
        }

        let dummy = FifoEntry { pkt: 0, arrival: 0, seq: 0 };
        ArenaNetwork {
            n,
            nv,
            depth,
            in_max,
            out_max,
            ivc_stride,
            ovc_stride,
            node_n_in,
            node_n_eject,
            node_kind,
            node_timing,
            node_flit_delay,
            nbr,
            pkts: Vec::with_capacity(64),
            pkt_init: Vec::with_capacity(64),
            pkt_flits: Vec::with_capacity(64),
            pkt_free: Vec::with_capacity(64),
            fifo: vec![dummy; n * ivc_stride * depth],
            fifo_head: vec![0; n * ivc_stride],
            fifo_len: vec![0; n * ivc_stride],
            vc_state: vec![VcState::Idle; n * ivc_stride],
            vc_cursor: vec![0; n * ivc_stride],
            occ: vec![0; n],
            waiting: vec![0; n],
            active_vcs: vec![0; n],
            credit_ok: vec![0; n],
            sa_gate: vec![0; n],
            node_occ: vec![0; n],
            credits,
            owner: vec![-1; n * ovc_stride],
            va_ptr: vec![0; n * ovc_stride],
            sa_in_ptr: vec![0; n * in_max],
            sa_out_ptr: vec![0; n * out_max],
            wheel,
            credits_next: Vec::with_capacity(n * out_max),
            ch_total: vec![0; n * 4],
            ni: vec![None; n * max_inject],
            node_n_inject,
            ni_busy: vec![0; n],
            ni_cursor: vec![0; n],
            ejected: (0..n).map(|_| VecDeque::new()).collect(),
            cycle: 0,
            stats: NetStats::new(n),
            rng: SmallRng::seed_from_u64(cfg.seed),
            next_pkt_id: 1,
            active: ActiveSet::empty(n),
            buffered: 0,
            ni_pending: 0,
            va_req: vec![0; out_max * nv],
            telemetry: None,
            cfg,
        }
    }

    /// The network's configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    // --- slab index helpers ---

    #[inline(always)]
    fn ivc(&self, node: usize, ip: usize, vc: usize) -> usize {
        node * self.ivc_stride + ip * self.nv + vc
    }

    #[inline(always)]
    fn ovc(&self, node: usize, op: usize, vc: usize) -> usize {
        node * self.ovc_stride + op * self.nv + vc
    }

    /// Pushes a flit into input-VC slot `idx` (ring append).
    #[inline(always)]
    fn fifo_push(&mut self, node: usize, idx: usize, flit: LaneFlit, now: u64) {
        let len = self.fifo_len[idx] as usize;
        debug_assert!(len < self.depth, "VC buffer overflow (credit protocol violated)");
        let mut pos = self.fifo_head[idx] as usize + len;
        if pos >= self.depth {
            pos -= self.depth;
        }
        debug_assert!(now <= u32::MAX as u64, "cycle stamp overflows the packed u32");
        self.fifo[idx * self.depth + pos] =
            FifoEntry { pkt: flit.pkt, arrival: now as u32, seq: flit.seq };
        self.fifo_len[idx] = (len + 1) as u8;
        self.occ[node] |= 1u128 << (idx - node * self.ivc_stride);
        self.node_occ[node] += 1;
        self.buffered += 1;
    }

    /// Pops the front flit from input-VC slot `idx`.
    #[inline(always)]
    fn fifo_pop(&mut self, node: usize, idx: usize) -> (LaneFlit, u64) {
        let len = self.fifo_len[idx] as usize;
        debug_assert!(len > 0, "granted VC has a flit");
        let head = self.fifo_head[idx] as usize;
        let e = self.fifo[idx * self.depth + head];
        let out = (LaneFlit { pkt: e.pkt, seq: e.seq }, e.arrival as u64);
        let mut nh = head + 1;
        if nh >= self.depth {
            nh = 0;
        }
        self.fifo_head[idx] = nh as u8;
        self.fifo_len[idx] = (len - 1) as u8;
        if len == 1 {
            self.occ[node] &= !(1u128 << (idx - node * self.ivc_stride));
        }
        self.node_occ[node] -= 1;
        self.buffered -= 1;
        out
    }

    /// Link delivery at the top of cycle `now`: lands the credits filed
    /// last cycle, then moves the flits due now from their wheel slot into
    /// the receivers' input FIFOs and wakes each receiver.
    fn deliver(&mut self, now: u64) {
        for &(node, o) in &self.credits_next {
            let (node, o) = (node as usize, o as usize);
            self.credits[o] += 1;
            debug_assert!(
                self.credits[o] as usize <= self.depth,
                "credit overflow at router {node}"
            );
            let holder = self.owner[o];
            if holder >= 0 {
                self.credit_ok[node] |= 1u128 << holder;
            }
        }
        self.credits_next.clear();
        let s = now as usize & (self.wheel.len() - 1);
        let mut slot = std::mem::take(&mut self.wheel[s]);
        for a in slot.drain(..) {
            let node = a.node as usize;
            let idx = self.ivc(node, a.dir as usize, a.vc as usize);
            self.fifo_push(node, idx, LaneFlit { pkt: a.pkt, seq: a.seq }, now);
            self.active.insert(node);
        }
        self.wheel[s] = slot;
    }

    /// NI phase for one node: streams one flit per busy injection port,
    /// choosing each packet's VC at head injection. Mirrors
    /// `Network::stream_ni_node` (including the max-free-space VC pick).
    fn stream_ni_node(&mut self, node: NodeId, now: u64) {
        if self.ni_busy[node] == 0 {
            return;
        }
        let base = node * (self.in_max - 4);
        for port in 0..self.node_n_inject[node] as usize {
            let Some(mut pkt) = self.ni[base + port] else { continue };
            let row = pkt.pkt as usize;
            let in_port = 4 + port;
            if pkt.vc.is_none() {
                let set = routing::vc_set_for(
                    self.cfg.routing,
                    &self.cfg.vcs,
                    self.pkts[row].class,
                    self.pkts[row].phase,
                );
                // Most free space wins; ties go to the lowest VC (the
                // oracle's `max_by_key((space, Reverse(vc)))` over an
                // ascending iterator).
                let mut best: Option<(usize, u8)> = None;
                for vc in set.iter() {
                    let space =
                        self.depth - self.fifo_len[self.ivc(node, in_port, vc as usize)] as usize;
                    if space > 0 && best.is_none_or(|(bs, _)| space > bs) {
                        best = Some((space, vc));
                    }
                }
                match best {
                    Some((_, vc)) => {
                        pkt.vc = Some(vc);
                        self.pkts[row].injected = now;
                    }
                    None => {
                        self.ni[base + port] = Some(pkt);
                        continue;
                    }
                }
            }
            let vc = pkt.vc.expect("vc chosen above");
            let idx = self.ivc(node, in_port, vc as usize);
            if (self.fifo_len[idx] as usize) < self.depth {
                let flit = LaneFlit { pkt: pkt.pkt, seq: pkt.next_seq };
                self.fifo_push(node, idx, flit, now);
                pkt.next_seq += 1;
                self.ni_pending -= 1;
            }
            if pkt.next_seq >= pkt.flits {
                self.ni[base + port] = None;
                self.ni_busy[node] -= 1;
            } else {
                self.ni[base + port] = Some(pkt);
            }
        }
    }

    /// RC stage: idle VCs with a head flit at the front get a route.
    /// Iterates candidate lanes in ascending `(in_port, vc)` order — the
    /// same order the oracle's dense double loop visits non-empty VCs.
    /// Occupied-but-not-idle lanes are masked out rather than re-checked.
    fn route_compute(&mut self, node: NodeId) {
        let mut mask = self.occ[node] & !self.waiting[node] & !self.active_vcs[node];
        let base = node * self.ivc_stride;
        while mask != 0 {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let idx = base + bit;
            debug_assert!(
                self.vc_state[idx] == VcState::Idle,
                "state masks out of sync with vc_state at router {node}"
            );
            let e = self.fifo[idx * self.depth + self.fifo_head[idx] as usize];
            let (flit, arrival) = (LaneFlit { pkt: e.pkt, seq: e.seq }, e.arrival as u64);
            debug_assert!(
                flit.seq == 0,
                "body flit at front of idle VC (packet interleaving bug) at router {node}"
            );
            let row = flit.pkt as usize;
            let dec = routing::next_hop(
                self.cfg.routing,
                &self.cfg.vcs,
                &self.cfg.mesh,
                node,
                &mut self.pkts[row],
            );
            let out_port = match dec.out {
                OutPort::Dir(d) => {
                    debug_assert!(
                        self.nbr[node][d.index()] >= 0,
                        "route points off the mesh edge at router {node}"
                    );
                    d.index()
                }
                OutPort::Eject => {
                    4 + (self.pkts[row].id as usize % self.node_n_eject[node] as usize)
                }
            };
            debug_assert!(
                {
                    let in_port = bit / self.nv;
                    let ik = if in_port < 4 {
                        crate::topology::InPort::Dir(Direction::from_index(in_port))
                    } else {
                        crate::topology::InPort::Inject((in_port - 4) as u8)
                    };
                    let ok = if out_port < 4 {
                        crate::topology::OutPortKind::Dir(Direction::from_index(out_port))
                    } else {
                        crate::topology::OutPortKind::Eject((out_port - 4) as u8)
                    };
                    crate::topology::connection_allowed(self.node_kind[node], ik, ok)
                },
                "routing used an illegal connection at router {node}"
            );
            self.vc_state[idx] = VcState::Waiting {
                out_port,
                vcs: dec.vcs,
                va_eligible: arrival + self.node_timing[node].rc_delay,
            };
            self.waiting[node] |= 1u128 << bit;
        }
    }

    /// VA stage: input-first separable allocation of downstream VCs.
    /// Ports the oracle's gather / arbitrate / retain / restart loop with
    /// a bitmask contender scan in place of the closure-driven arbiter.
    fn vc_allocate(&mut self, node: NodeId, now: u64) {
        let mut mask = self.waiting[node];
        if mask == 0 {
            // No Waiting lane means no request, and the oracle's arbiters
            // move no pointer on a requestless pass.
            return;
        }
        let base = node * self.ivc_stride;
        // Requests bucketed by flat (out_port, out_vc). Each Waiting lane
        // makes at most one request, so the buckets are disjoint lane
        // sets with independent arbiters (each output VC owns its own RR
        // pointer) — the oracle's grant / retain / restart loop resolves
        // every bucket exactly once, in any order, with the same winners.
        let mut used: u128 = 0;
        while mask != 0 {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let idx = base + bit;
            let VcState::Waiting { out_port, vcs, va_eligible } = self.vc_state[idx] else {
                unreachable!("waiting mask tracks Waiting lanes")
            };
            if va_eligible > now {
                continue;
            }
            // Rotate through the candidate set with the VC's request
            // cursor; first unowned downstream VC wins.
            let cursor = self.vc_cursor[idx];
            let count = vcs.count as usize;
            for off in 0..count {
                let ovc = vcs.first + ((cursor as usize + off) % count) as u8;
                if self.owner[self.ovc(node, out_port, ovc as usize)] < 0 {
                    let f = out_port * self.nv + ovc as usize;
                    self.va_req[f] |= 1u128 << bit;
                    used |= 1u128 << f;
                    break;
                }
            }
        }
        let range = self.node_n_in[node] as usize * self.nv;
        while used != 0 {
            let f = used.trailing_zeros() as usize;
            used &= used - 1;
            let contenders = self.va_req[f];
            self.va_req[f] = 0;
            let (op, ovc) = (f / self.nv, (f % self.nv) as u8);
            let o = self.ovc(node, op, ovc as usize);
            let ptr = self.va_ptr[o] as usize;
            let winner_flat = circ_first128(contenders, ptr, range);
            self.va_ptr[o] = ((winner_flat + 1) % range) as u16;
            self.owner[o] = winner_flat as i16;
            let widx = base + winner_flat;
            let VcState::Waiting { va_eligible, .. } = self.vc_state[widx] else {
                unreachable!("VA winners come from Waiting lanes")
            };
            self.vc_state[widx] = VcState::Active { out_port: op, out_vc: ovc, va_cycle: now };
            self.waiting[node] &= !(1u128 << winner_flat);
            self.active_vcs[node] |= 1u128 << winner_flat;
            if self.credits[o] > 0 {
                self.credit_ok[node] |= 1u128 << winner_flat;
            } else {
                self.credit_ok[node] &= !(1u128 << winner_flat);
            }
            // Fresh-head gate, resolved here instead of per SA probe: the
            // routed head is still at the front (`va_eligible` was
            // `arrival + rc_delay` for exactly that flit), VA implies
            // `now >= va_eligible`, so the oracle's
            // `va_cycle <= arrival + rc_delay` test reduces to equality.
            if !self.node_timing[node].same_cycle_sa && now == va_eligible {
                self.sa_gate[node] |= 1u128 << winner_flat;
            }
            self.vc_cursor[widx] = self.vc_cursor[widx].wrapping_add(1);
        }
    }

    /// Mask of input-VC lanes that may compete for the switch this cycle:
    /// `Active`, non-empty, downstream credit available, and past the
    /// fresh-head gate. Pure mask arithmetic — every term is maintained
    /// incrementally at the state transition that changes it, replacing
    /// the oracle's per-(port, VC) `sa_ready` probes. Readiness is fixed
    /// for the whole allocation because neither SA phase mutates state
    /// before its grants are decided.
    #[inline(always)]
    fn sa_ready_mask(&self, node: usize) -> u128 {
        self.active_vcs[node] & self.occ[node] & self.credit_ok[node] & !self.sa_gate[node]
    }

    /// Commits one switch grant: pops the flit, charges the downstream
    /// credit, files the upstream credit for next cycle, and files the
    /// flit in the delivery wheel under its arrival cycle (or ejects it,
    /// filing the ejection credit for next cycle). Filing wakes nobody:
    /// the receiver is woken when its flit lands.
    fn commit_grant(&mut self, node: usize, ip: usize, vc: u8, op: usize, out_vc: u8, now: u64) {
        let idx = self.ivc(node, ip, vc as usize);
        let (flit, _) = self.fifo_pop(node, idx);
        if let Some(t) = &mut self.telemetry {
            t.record_grant(&self.pkts[flit.pkt as usize], flit.seq, node, op, out_vc, now);
        }
        let o = self.ovc(node, op, out_vc as usize);
        let is_tail = flit.seq + 1 == self.pkt_flits[flit.pkt as usize];
        if is_tail {
            self.owner[o] = -1;
            self.vc_state[idx] = VcState::Idle;
            self.active_vcs[node] &= !(1u128 << (ip * self.nv + vc as usize));
        }
        debug_assert!(self.credits[o] > 0, "SA granted without a credit");
        self.credits[o] -= 1;
        if self.credits[o] == 0 {
            self.credit_ok[node] &= !(1u128 << (ip * self.nv + vc as usize));
        }
        if ip < 4 {
            let upstream = self.nbr[node][ip];
            debug_assert!(upstream >= 0, "credit for a direction port implies a neighbor");
            let up = upstream as usize;
            self.credits_next.push((up as u32, self.ovc(up, OPP[ip], vc as usize) as u32));
        }
        if op < 4 {
            let neighbor = self.nbr[node][op];
            debug_assert!(neighbor >= 0, "router checked the direction exists");
            let due = now + self.node_flit_delay[node];
            let s = due as usize & (self.wheel.len() - 1);
            let a = Arrival {
                pkt: flit.pkt,
                node: neighbor as u32,
                seq: flit.seq,
                dir: OPP[op] as u8,
                vc: out_vc,
            };
            self.wheel[s].push(a);
            self.ch_total[node * 4 + op] += 1;
        } else {
            self.credits_next.push((node as u32, o as u32));
            if is_tail {
                let row = flit.pkt as usize;
                let mut header = self.pkts[row];
                // The oracle's ejected header is the tail flit's copy: for
                // multi-flit packets that copy still carries the
                // injection-time routing fields (RC mutates only the head
                // flit's copy), but a single-flit packet's tail IS its
                // head, so the mutated fields are the right ones there.
                if header.flits > 1 {
                    (header.phase, header.via) = self.pkt_init[row];
                }
                let pkt = EjectedPacket { header, ejected: now };
                self.stats.record_ejection(&pkt);
                self.ejected[node].push_back(pkt);
                self.pkt_free.push(flit.pkt);
            }
        }
    }

    /// Separable input-first (iSLIP) switch allocation for one node.
    ///
    /// Both separable stages are round-robin "first requester at or after
    /// the pointer" picks, so each resolves with one rotate-and-scan over a
    /// request bitmask ([`circ_first`]) instead of a pointer-offset loop.
    fn switch_allocate(&mut self, node: NodeId, now: u64) {
        let ready = self.sa_ready_mask(node);
        if ready == 0 {
            return;
        }
        let n_in = self.node_n_in[node] as usize;
        let nv = self.nv;
        let port_mask = (1u128 << nv) - 1;
        // Phase 1: each input port nominates one ready VC (RR over VCs).
        // `nom[ip]` holds the nominee, `op_in[op]` the inputs courting
        // each output, `ops` which outputs saw any nomination at all.
        let mut nom = [(0u8, 0u8); 32];
        let mut op_in = [0u32; 32];
        let mut ops: u32 = 0;
        for (ip, nom_slot) in nom.iter_mut().enumerate().take(n_in) {
            let port_ready = (ready >> (ip * nv) & port_mask) as u32;
            if port_ready == 0 {
                continue;
            }
            let ptr = self.sa_in_ptr[node * self.in_max + ip] as usize;
            let vc = circ_first(port_ready, ptr, nv);
            let idx = self.ivc(node, ip, vc);
            let VcState::Active { out_port, out_vc, .. } = self.vc_state[idx] else {
                unreachable!("ready lanes are Active");
            };
            *nom_slot = (vc as u8, out_vc);
            op_in[out_port] |= 1 << ip;
            ops |= 1 << out_port;
        }
        // Phase 2: each nominated output picks one courting input (RR over
        // input ports); accepted grants advance both pointers. Ascending
        // bit order equals the oracle's ascending output-port loop, and
        // un-nominated outputs never advanced a pointer there either.
        while ops != 0 {
            let op = ops.trailing_zeros() as usize;
            ops &= ops - 1;
            let ptr = self.sa_out_ptr[node * self.out_max + op] as usize;
            let winner = circ_first(op_in[op], ptr, n_in);
            let (vc, out_vc) = nom[winner];
            self.sa_out_ptr[node * self.out_max + op] = ((winner + 1) % n_in) as u8;
            self.sa_in_ptr[node * self.in_max + winner] = ((vc as usize + 1) % nv) as u8;
            self.commit_grant(node, winner, vc, op, out_vc, now);
        }
    }

    /// Router phase for one node: RC, VA, SA with direct flit/credit
    /// emission. Mirrors `Network::step_router_node` + `Router::step`.
    fn step_router_node(&mut self, node: NodeId, now: u64) {
        // An awake router has buffered flits or a busy NI, and a busy NI
        // leaves a flit buffered: it pushed one, or its VCs are full.
        debug_assert!(self.node_occ[node] > 0, "awake router {node} buffers nothing");
        self.sa_gate[node] = 0;
        self.route_compute(node);
        self.vc_allocate(node, now);
        self.switch_allocate(node, now);
    }

    /// `true` when the node has no work until a flit lands or a packet is
    /// injected. Flits on the wire and credits in return wake nobody, so
    /// this probes no channel.
    fn node_idle(&self, node: NodeId) -> bool {
        self.node_occ[node] == 0 && self.ni_busy[node] == 0
    }
}

impl Tick for ArenaNetwork {
    /// One cycle: one [`deliver`](ArenaNetwork::deliver) followed by one
    /// fused sweep in which each active node runs NI, router and retire
    /// back to back. That is bit-identical to the oracle, which runs
    /// delivery, credit return, NI and router over every node, for four
    /// reasons:
    ///
    /// - every link delay is `>= 1` and every credit delay exactly 1, so
    ///   nothing filed during cycle `t` is due at `t`;
    /// - deliveries touch disjoint per-lane FIFOs and per-output-VC
    ///   counters, so their order within the cycle is immaterial;
    /// - a router's `owner` slab changes only in that router's own step,
    ///   so a credit's `credit_ok` update sees the same holder at the top
    ///   of the cycle as at the router's turn;
    /// - the nodes this sweep skips buffer no flit and stream no packet,
    ///   and the oracle's visits to such a node are ones in which every
    ///   stage returns early and no arbiter pointer moves.
    fn tick(&mut self) {
        let now = self.cycle;
        self.deliver(now);
        let mut i = 0;
        while let Some(node) = self.active.next_from(i) {
            self.stream_ni_node(node, now);
            self.step_router_node(node, now);
            // No node can change another's buffers within the cycle (flits
            // travel through the wheel), so this is the end-of-cycle
            // occupancy the oracle samples; nodes outside the active set
            // hold nothing.
            if let Some(t) = &mut self.telemetry {
                t.add_occupancy_sample(node, self.node_occ[node] as u64);
            }
            if self.node_idle(node) {
                self.active.remove(node);
            }
            i = node + 1;
        }
        if let Some(t) = &mut self.telemetry {
            t.tick_occupancy();
        }
        self.stats.cycles += 1;
        self.cycle += 1;
    }
}

impl Interconnect for ArenaNetwork {
    fn try_inject(&mut self, node: NodeId, mut packet: Packet) -> Result<(), Packet> {
        self.stats.inject_attempts_by_node[node] += 1;
        let ports = self.node_n_inject[node] as usize;
        let base = node * (self.in_max - 4);
        let start = self.ni_cursor[node] as usize;
        let free = (0..ports).map(|i| (start + i) % ports).find(|&p| self.ni[base + p].is_none());
        let Some(port) = free else {
            self.stats.inject_blocked_by_node[node] += 1;
            return Err(packet);
        };
        self.ni_cursor[node] = ((port + 1) % ports) as u32;

        let hdr = &mut packet.header;
        let (phase, via) =
            routing::plan_injection(self.cfg.routing, &self.cfg.mesh, node, hdr.dst, &mut self.rng)
                .expect("workload sent a packet between unroutable checkerboard endpoints");
        hdr.src = node;
        hdr.phase = phase;
        hdr.via = via;
        hdr.id = self.next_pkt_id;
        self.next_pkt_id += 1;
        hdr.flits = Packet { header: *hdr }.flits_at_width(self.cfg.channel_bytes);
        if hdr.created == PacketHeader::CREATED_UNSET {
            hdr.created = self.cycle;
        }
        self.stats.injected_flits_by_node[node] += hdr.flits as u64;
        let row = match self.pkt_free.pop() {
            Some(r) => {
                self.pkts[r as usize] = *hdr;
                self.pkt_init[r as usize] = (hdr.phase, hdr.via);
                self.pkt_flits[r as usize] = hdr.flits;
                r
            }
            None => {
                self.pkts.push(*hdr);
                self.pkt_init.push((hdr.phase, hdr.via));
                self.pkt_flits.push(hdr.flits);
                (self.pkts.len() - 1) as u32
            }
        };
        self.ni[base + port] = Some(NiPacket { pkt: row, next_seq: 0, flits: hdr.flits, vc: None });
        self.ni_busy[node] += 1;
        self.ni_pending += hdr.flits as usize;
        self.active.insert(node);
        Ok(())
    }

    fn pop(&mut self, node: NodeId) -> Option<EjectedPacket> {
        self.ejected[node].pop_front()
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn stats(&self) -> NetStats {
        self.stats.clone()
    }

    fn in_flight(&self) -> usize {
        self.buffered + self.wheel.iter().map(Vec::len).sum::<usize>() + self.ni_pending
    }

    fn flit_hops(&self) -> u64 {
        self.ch_total.iter().sum()
    }

    fn link_loads(&self) -> Vec<(NodeId, Direction, u64)> {
        let mut out = Vec::new();
        for node in 0..self.n {
            for dir in Direction::ALL {
                if self.nbr[node][dir.index()] >= 0 {
                    out.push((node, dir, self.ch_total[node * 4 + dir.index()]));
                }
            }
        }
        out
    }

    fn enable_telemetry(&mut self, tcfg: TelemetryConfig) {
        self.stats.enable_histograms();
        self.telemetry = Some(Box::new(NetTelemetry::new(self.n, self.nv, tcfg)));
    }

    fn telemetry_reports(&self) -> Vec<TelemetryReport> {
        let report =
            self.telemetry.as_deref().map(|t| t.report("net", &self.cfg.mesh, &self.stats));
        report.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    /// Drives the same deterministic traffic into two engines and asserts
    /// identical per-cycle observables.
    fn assert_twin(cfg: NetworkConfig, cycles: u64) {
        let n = cfg.mesh.len();
        let mut oracle = Network::new(cfg.clone());
        let mut arena = ArenaNetwork::new(cfg);
        for i in 0..cycles {
            for lane in 0..2u64 {
                let t = i * 2 + lane;
                let src = (t as usize * 7 + 1) % n;
                let dst = (t as usize * 13 + 5) % n;
                if src != dst {
                    let p = if t % 3 == 0 {
                        Packet::reply(src, dst, 64, t)
                    } else {
                        Packet::request(src, dst, 8, t)
                    };
                    let a = oracle.try_inject(src, p);
                    let b = arena.try_inject(src, p);
                    assert_eq!(a.is_ok(), b.is_ok(), "inject diverged at cycle {i}");
                }
            }
            oracle.tick();
            arena.tick();
            assert_eq!(oracle.in_flight(), arena.in_flight(), "in_flight diverged at cycle {i}");
            for node in 0..n {
                loop {
                    let a = oracle.pop(node);
                    let b = arena.pop(node);
                    assert_eq!(a, b, "ejection diverged at node {node} cycle {i}");
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
        assert_eq!(oracle.stats(), arena.stats());
        assert_eq!(oracle.flit_hops(), arena.flit_hops());
        assert_eq!(oracle.link_loads(), arena.link_loads());
    }

    #[test]
    fn arena_matches_oracle_on_baseline_mesh() {
        assert_twin(NetworkConfig::baseline_mesh(4), 300);
    }

    #[test]
    fn arena_matches_oracle_on_checkerboard() {
        assert_twin(NetworkConfig::checkerboard_mesh(6), 300);
    }

    #[test]
    fn arena_matches_oracle_multiport_sliced() {
        let cfg = NetworkConfig::checkerboard_mesh(6);
        let mut sliced = cfg.slice();
        sliced.mc_inject_ports = 4;
        assert_twin(sliced, 200);
    }

    /// The widest shapes the packed layout admits — 31 input ports, 32
    /// output ports, 8 VCs x 16 output ports = 128 output-VC slots — fit
    /// and match the oracle packet for packet; one port or slot more is
    /// refused.
    #[test]
    fn arena_matches_oracle_at_every_packing_limit() {
        let shapes: [fn(&mut NetworkConfig, usize); 3] = [
            |c, extra| c.mc_inject_ports = 27 + extra,
            |c, extra| c.mc_eject_ports = 28 + extra,
            |c, extra| {
                c.vcs = crate::config::VcLayout::new(8, 2, false);
                c.mc_eject_ports = 12 + extra;
            },
        ];
        for shape in shapes {
            let mut cfg = NetworkConfig::baseline_mesh(4);
            shape(&mut cfg, 1);
            let (inj, ej, nv) = (cfg.mc_inject_ports, cfg.mc_eject_ports, cfg.vcs.total);
            assert!(!ArenaNetwork::supports(&cfg), "{inj} inject, {ej} eject ports, {nv} VCs fit");
            shape(&mut cfg, 0);
            assert!(ArenaNetwork::supports(&cfg));
            assert_twin(cfg, 400);
        }
    }

    /// A router is awake exactly while it has work — buffered flits or a
    /// busy NI. Flits on a 3-cycle link and returning credits wake nobody,
    /// so a packet crossing a link leaves every router asleep, and a
    /// drained network has an empty active set.
    #[test]
    fn a_router_is_awake_only_when_it_has_work() {
        let mut cfg = NetworkConfig::checkerboard_mesh(6);
        cfg.link_latency = 3;
        let mcs = cfg.mc_nodes.clone();
        let cores: Vec<usize> = (0..36).filter(|n| !mcs.contains(n)).collect();
        let mut net = ArenaNetwork::new(cfg);
        let mut asleep_on_the_wire = 0;
        let mut tick = |net: &mut ArenaNetwork| {
            net.tick();
            let awake: Vec<usize> =
                (0..36).filter(|&n| net.active.next_from(n) == Some(n)).collect();
            let busy: Vec<usize> =
                (0..36).filter(|&n| net.node_occ[n] > 0 || net.ni_busy[n] > 0).collect();
            assert_eq!(awake, busy, "active set is not the busy set at cycle {}", net.cycle);
            if awake.is_empty() && net.in_flight() > 0 {
                asleep_on_the_wire += 1;
            }
            for node in 0..36 {
                while net.pop(node).is_some() {}
            }
        };
        for t in 0..400u64 {
            let core = cores[t as usize * 7 % cores.len()];
            let mc = mcs[t as usize % mcs.len()];
            let _ = net.try_inject(core, Packet::request(core, mc, 8, t));
            let _ = net.try_inject(mc, Packet::reply(mc, core, 64, t));
            tick(&mut net);
        }
        while net.in_flight() > 0 {
            tick(&mut net);
        }
        assert_eq!(net.active.next_from(0), None, "a drained network keeps no router awake");
        // A lone packet: between routers it is only on the wire.
        net.try_inject(cores[0], Packet::request(cores[0], mcs[0], 8, 400)).unwrap();
        while net.in_flight() > 0 {
            tick(&mut net);
        }
        assert_eq!(net.active.next_from(0), None);
        assert!(asleep_on_the_wire > 0, "some flit crossed a link with every router asleep");
        assert!(net.flit_hops() > 1_000);
    }

    /// Arming telemetry changes no simulated outcome on the arena either:
    /// same stats, same cycle count, same flit-hops as an unarmed twin.
    #[test]
    fn telemetry_does_not_perturb_the_simulation() {
        let run = |armed: bool| {
            let cfg = NetworkConfig::checkerboard_mesh(6);
            let mcs = cfg.mc_nodes.clone();
            let mut net = ArenaNetwork::new(cfg);
            if armed {
                net.enable_telemetry(TelemetryConfig::default());
            }
            for (i, node) in (0..36).filter(|n| !mcs.contains(n)).enumerate() {
                net.try_inject(node, Packet::request(node, mcs[i % mcs.len()], 64, i as u64))
                    .unwrap();
            }
            for _ in 0..500 {
                net.tick();
            }
            let mut s = net.stats();
            s.hist = None; // the only intended divergence
            (s, net.cycle(), net.flit_hops(), net.telemetry_reports().len())
        };
        let (unarmed, armed) = (run(false), run(true));
        assert_eq!((&unarmed.0, unarmed.1, unarmed.2), (&armed.0, armed.1, armed.2));
        assert_eq!((unarmed.3, armed.3), (0, 1), "only the armed run carries a report");
    }
}
