//! A complete single physical network (routers + channels + network
//! interfaces) on the per-router reference engine.

use crate::activeset::ActiveSet;
use crate::channel::Channel;
use crate::config::NetworkConfig;
use crate::interconnect::Interconnect;
use crate::packet::{EjectedPacket, Packet, PacketHeader};
use crate::router::{RouteCtx, Router, RouterOutputs};
use crate::routing::{self};
use crate::stats::NetStats;
use crate::telemetry::{NetTelemetry, TelemetryConfig, TelemetryReport};
use crate::tick::Tick;
use crate::types::{Direction, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// A packet being streamed flit-by-flit into a router injection port.
#[derive(Copy, Clone, Debug)]
struct NiPacket {
    hdr: PacketHeader,
    next_seq: u16,
    vc: Option<u8>,
}

/// One physical mesh network.
///
/// See the crate-level documentation for an end-to-end example.
pub struct Network {
    cfg: NetworkConfig,
    routers: Vec<Router>,
    /// Outgoing channel of `node` toward direction `d` at index
    /// `node * 4 + d.index()` (unused entries exist at mesh edges).
    channels: Vec<Channel>,
    /// Per node, per injection port: packet currently being streamed.
    ni: Vec<Vec<Option<NiPacket>>>,
    /// Round-robin cursor over injection ports per node.
    ni_cursor: Vec<usize>,
    /// Ejected packets per node.
    ejected: Vec<VecDeque<EjectedPacket>>,
    /// Ejection-buffer credits to return `(due, node, out_port, vc)`.
    eject_credits: VecDeque<(u64, NodeId, usize, u8)>,
    cycle: u64,
    stats: NetStats,
    rng: SmallRng,
    next_pkt_id: u64,
    scratch: RouterOutputs,
    /// Nodes with (possible) work this cycle. Nodes are woken by flit
    /// arrival, credit return, or NI injection, and retired when provably
    /// idle; see [`Network::node_idle`].
    active: ActiveSet,
    /// Compatibility mode: step every node every cycle (the pre-scheduler
    /// behavior) instead of only the active set.
    full_sweep: bool,
    /// Router `step` invocations since construction (scheduler telemetry).
    routers_stepped: u64,
    /// Observability instruments (link counters, occupancy integrals, the
    /// flight recorder). `None` — the default — keeps every hot path free
    /// of telemetry work: no allocations, no RNG draws, no branches beyond
    /// the `Option` check. See DESIGN.md §13.
    telemetry: Option<Box<NetTelemetry>>,
}

impl Network {
    /// Builds a network from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: NetworkConfig) -> Self {
        cfg.validate().expect("invalid network configuration");
        crate::audit::audit(&cfg);
        let n = cfg.mesh.len();
        let routers = (0..n)
            .map(|node| {
                let dir_exists = std::array::from_fn(|i| {
                    cfg.mesh.neighbor(node, Direction::from_index(i)).is_some()
                });
                Router::new(
                    node,
                    cfg.mesh.kind(node),
                    cfg.timing(node),
                    cfg.vcs.total as usize,
                    cfg.vc_depth,
                    cfg.inject_ports(node),
                    cfg.eject_ports(node),
                    dir_exists,
                )
            })
            .collect();
        let ni = (0..n).map(|node| vec![None; cfg.inject_ports(node)]).collect();
        Network {
            routers,
            channels: (0..n * 4).map(|_| Channel::new()).collect(),
            ni,
            ni_cursor: vec![0; n],
            ejected: (0..n).map(|_| VecDeque::new()).collect(),
            eject_credits: VecDeque::new(),
            cycle: 0,
            stats: NetStats::new(n),
            rng: SmallRng::seed_from_u64(cfg.seed),
            next_pkt_id: 1,
            scratch: RouterOutputs::default(),
            active: ActiveSet::all(n),
            full_sweep: false,
            routers_stepped: 0,
            telemetry: None,
            cfg,
        }
    }

    /// Forces the pre-scheduler full sweep: every node is stepped every
    /// cycle regardless of the active set. Wake events are still recorded,
    /// so the mode can be toggled mid-run without losing nodes.
    pub fn set_full_sweep(&mut self, on: bool) {
        self.full_sweep = on;
    }

    /// Number of nodes currently in the active set.
    pub fn active_routers(&self) -> usize {
        self.active.count()
    }

    /// Total router `step` invocations since construction.
    pub fn routers_stepped(&self) -> u64 {
        self.routers_stepped
    }

    /// The network's configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// NI phase for one node: streams one flit per busy injection port
    /// into the router, choosing each packet's VC at head injection.
    fn stream_ni_node(&mut self, node: NodeId, now: u64) {
        for port in 0..self.ni[node].len() {
            let Some(mut pkt) = self.ni[node][port] else { continue };
            let in_port = 4 + port;
            // Choose the VC once, at head injection.
            if pkt.vc.is_none() {
                let set = routing::vc_set_for(
                    self.cfg.routing,
                    &self.cfg.vcs,
                    pkt.hdr.class,
                    pkt.hdr.phase,
                );
                let router = &self.routers[node];
                let best = set
                    .iter()
                    .map(|vc| (router.inject_space(port, vc), vc))
                    .filter(|&(space, _)| space > 0)
                    .max_by_key(|&(space, vc)| (space, std::cmp::Reverse(vc)));
                match best {
                    Some((_, vc)) => {
                        pkt.vc = Some(vc);
                        pkt.hdr.injected = now;
                    }
                    None => {
                        self.ni[node][port] = Some(pkt);
                        continue;
                    }
                }
            }
            let vc = pkt.vc.expect("vc chosen above");
            // Stream one flit per cycle while space remains.
            if self.routers[node].inject_space(port, vc) > 0 {
                let flit = crate::packet::Flit { hdr: pkt.hdr, seq: pkt.next_seq };
                self.routers[node].accept_flit(in_port, vc, flit, now);
                pkt.next_seq += 1;
            }
            self.ni[node][port] = if pkt.next_seq >= pkt.hdr.flits { None } else { Some(pkt) };
        }
    }

    /// Delivery phase for one node, receiver-centric: pops this node's due
    /// incoming flits (from each neighbor's channel toward it) and due
    /// returning credits (from its own outgoing channels).
    ///
    /// Every channel FIFO is drained by exactly one receiver, so visiting
    /// receivers in any order yields the same post-phase state as the old
    /// sender-ordered collect-then-apply sweep.
    fn deliver_node(&mut self, node: NodeId, now: u64) {
        for dir in Direction::ALL {
            let Some(neighbor) = self.cfg.mesh.neighbor(node, dir) else { continue };
            // The neighbor toward `dir` sends to us on its outgoing
            // channel toward `dir.opposite()`.
            let inbound = neighbor * 4 + dir.opposite().index();
            while let Some((vc, flit)) = self.channels[inbound].pop_flit(now) {
                self.routers[node].accept_flit(dir.index(), vc, flit, now);
            }
            let outbound = node * 4 + dir.index();
            while let Some(vc) = self.channels[outbound].pop_credit(now) {
                self.routers[node].accept_credit(dir.index(), vc);
            }
        }
    }

    /// Returns due ejection-buffer credits to their routers. Global (not
    /// per-node): a retired router can safely absorb a credit — with no
    /// buffered flits the credit cannot enable work.
    fn return_eject_credits(&mut self, now: u64) {
        while let Some(&(due, node, out_port, vc)) = self.eject_credits.front() {
            if due > now {
                break;
            }
            self.eject_credits.pop_front();
            self.routers[node].accept_credit(out_port, vc);
        }
    }

    /// Router phase for one node: runs the pipeline and routes emitted
    /// flits/credits onto channels, waking the receiving nodes.
    fn step_router_node(&mut self, node: NodeId, now: u64) {
        self.routers_stepped += 1;
        let timing = self.routers[node].timing();
        let flit_delay = timing.st_delay + self.cfg.link_latency as u64 + 1;
        self.scratch.clear();
        {
            let ctx =
                RouteCtx { mesh: &self.cfg.mesh, routing: self.cfg.routing, layout: self.cfg.vcs };
            self.routers[node].step(now, &ctx, &mut self.scratch);
        }
        for i in 0..self.scratch.flits.len() {
            let (out_port, vc, flit) = self.scratch.flits[i];
            if let Some(t) = &mut self.telemetry {
                t.record_grant(&flit.hdr, flit.seq, node, out_port, vc, now);
            }
            if out_port < 4 {
                self.channels[node * 4 + out_port].push_flit(now + flit_delay, vc, flit);
                let neighbor = self
                    .cfg
                    .mesh
                    .neighbor(node, Direction::from_index(out_port))
                    .expect("router checked the direction exists");
                self.active.insert(neighbor);
            } else {
                // Ejection: the sink consumes immediately and returns
                // the buffer credit next cycle.
                debug_assert!(
                    self.eject_credits.back().is_none_or(|&(due, ..)| due <= now + 1),
                    "eject credit queue must stay due-ordered"
                );
                self.eject_credits.push_back((now + 1, node, out_port, vc));
                if flit.is_tail() {
                    let pkt = EjectedPacket { header: flit.hdr, ejected: now };
                    self.stats.record_ejection(&pkt);
                    self.ejected[node].push_back(pkt);
                }
            }
        }
        for i in 0..self.scratch.credits.len() {
            let (in_dir, vc) = self.scratch.credits[i];
            let upstream = self
                .cfg
                .mesh
                .neighbor(node, in_dir)
                .expect("credit for a direction port implies a neighbor");
            self.channels[upstream * 4 + in_dir.opposite().index()].push_credit(now + 1, vc);
            self.active.insert(upstream);
        }
    }

    /// `true` when the node can do nothing this cycle or any future cycle
    /// without a new wake event: its router buffers are empty, no NI
    /// stream is in flight, no flit is inbound on any incoming channel,
    /// and no credit is returning on any outgoing channel.
    fn node_idle(&self, node: NodeId) -> bool {
        if !self.routers[node].is_idle() {
            return false;
        }
        if self.ni[node].iter().any(Option::is_some) {
            return false;
        }
        for dir in Direction::ALL {
            let Some(neighbor) = self.cfg.mesh.neighbor(node, dir) else { continue };
            if self.channels[neighbor * 4 + dir.opposite().index()].flits_in_flight() > 0 {
                return false;
            }
            if self.channels[node * 4 + dir.index()].credits_in_flight() > 0 {
                return false;
            }
        }
        true
    }
}

impl Tick for Network {
    fn tick(&mut self) {
        let now = self.cycle;
        if self.full_sweep {
            for node in 0..self.cfg.mesh.len() {
                self.deliver_node(node, now);
            }
            self.return_eject_credits(now);
            for node in 0..self.cfg.mesh.len() {
                self.stream_ni_node(node, now);
            }
            for node in 0..self.cfg.mesh.len() {
                self.step_router_node(node, now);
            }
        } else {
            // Ascending active-node order: identical visit order to the
            // full sweep, minus nodes whose visit would be a no-op.
            let mut i = 0;
            while let Some(node) = self.active.next_from(i) {
                self.deliver_node(node, now);
                i = node + 1;
            }
            self.return_eject_credits(now);
            let mut i = 0;
            while let Some(node) = self.active.next_from(i) {
                self.stream_ni_node(node, now);
                i = node + 1;
            }
            let mut i = 0;
            while let Some(node) = self.active.next_from(i) {
                self.step_router_node(node, now);
                i = node + 1;
            }
            let mut i = 0;
            while let Some(node) = self.active.next_from(i) {
                if self.node_idle(node) {
                    self.active.remove(node);
                }
                i = node + 1;
            }
        }
        if self.telemetry.is_some() {
            self.sample_occupancy();
        }
        self.stats.cycles += 1;
        self.cycle += 1;
    }
}

impl Network {
    /// Telemetry: accumulates this cycle's buffered-flit count per router.
    /// Nodes outside the active set are provably idle (empty buffers, see
    /// [`Network::node_idle`]), so sampling only active nodes is exact in
    /// scheduler mode; the full sweep samples everyone.
    fn sample_occupancy(&mut self) {
        let t = self.telemetry.as_mut().expect("caller checked");
        if self.full_sweep {
            for node in 0..self.routers.len() {
                t.add_occupancy_sample(node, self.routers[node].occupancy() as u64);
            }
        } else {
            let mut i = 0;
            while let Some(node) = self.active.next_from(i) {
                t.add_occupancy_sample(node, self.routers[node].occupancy() as u64);
                i = node + 1;
            }
        }
        t.tick_occupancy();
    }
}

impl Interconnect for Network {
    fn try_inject(&mut self, node: NodeId, mut packet: Packet) -> Result<(), Packet> {
        self.stats.inject_attempts_by_node[node] += 1;
        let ports = self.ni[node].len();
        let start = self.ni_cursor[node];
        let free = (0..ports).map(|i| (start + i) % ports).find(|&p| self.ni[node][p].is_none());
        let Some(port) = free else {
            self.stats.inject_blocked_by_node[node] += 1;
            return Err(packet);
        };
        self.ni_cursor[node] = (port + 1) % ports;

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
        self.ni[node][port] = Some(NiPacket { hdr: *hdr, next_seq: 0, vc: None });
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
        let buffered: usize = self.routers.iter().map(Router::occupancy).sum();
        let flying: usize = self.channels.iter().map(Channel::flits_in_flight).sum();
        let pending: usize = self
            .ni
            .iter()
            .flatten()
            .filter_map(|p| p.map(|p| (p.hdr.flits - p.next_seq) as usize))
            .sum();
        buffered + flying + pending
    }

    fn flit_hops(&self) -> u64 {
        self.channels.iter().map(Channel::total_flits).sum()
    }

    fn link_loads_into(&self, out: &mut Vec<(NodeId, Direction, u64)>) {
        out.clear();
        for node in 0..self.cfg.mesh.len() {
            for dir in Direction::ALL {
                if self.cfg.mesh.neighbor(node, dir).is_some() {
                    out.push((node, dir, self.channels[node * 4 + dir.index()].total_flits()));
                }
            }
        }
    }

    /// All buffers are allocated here, once; the instrumented paths never
    /// allocate afterwards.
    fn enable_telemetry(&mut self, tcfg: TelemetryConfig) {
        self.stats.enable_histograms();
        self.telemetry = Some(Box::new(NetTelemetry::new(
            self.cfg.mesh.len(),
            self.cfg.vcs.total as usize,
            tcfg,
        )));
    }

    fn telemetry_reports_into(&self, out: &mut Vec<TelemetryReport>) {
        out.extend(self.telemetry.as_deref().map(|t| t.report("net", &self.cfg.mesh, &self.stats)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkConfig, VcLayout};
    use crate::types::Coord;

    fn run_until_delivered(net: &mut Network, dst: NodeId, max: u64) -> EjectedPacket {
        for _ in 0..max {
            net.step();
            if let Some(p) = net.pop(dst) {
                return p;
            }
        }
        panic!("packet not delivered within {max} cycles");
    }

    #[test]
    fn single_packet_crosses_baseline_mesh() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        let src = 0;
        let dst = 35;
        net.try_inject(src, Packet::request(src, dst, 8, 99)).unwrap();
        let out = run_until_delivered(&mut net, dst, 500);
        assert_eq!(out.header.tag, 99);
        assert_eq!(out.header.src, src);
        assert_eq!(out.header.flits, 1);
        assert_eq!(net.in_flight(), 0, "network drains after delivery");
    }

    /// Zero-load latency of a 1-flit packet over h hops with 4-stage
    /// routers and 1-cycle links is h * 5 plus injection/ejection
    /// overheads, which are constant. Verify the per-hop increment is 5.
    #[test]
    fn zero_load_per_hop_latency_is_five() {
        let mut lat = Vec::new();
        for hops in [1usize, 2, 3, 4, 5] {
            let cfg = NetworkConfig::baseline_mesh(6);
            let mut net = Network::new(cfg);
            let src = 0;
            let dst = hops; // walk east along row 0
            net.try_inject(src, Packet::request(src, dst, 8, 0)).unwrap();
            let out = run_until_delivered(&mut net, dst, 500);
            lat.push(out.network_latency());
        }
        for w in lat.windows(2) {
            assert_eq!(w[1] - w[0], 5, "per-hop latency must be 5 cycles: {lat:?}");
        }
    }

    /// With 1-cycle routers the per-hop increment drops to 2.
    #[test]
    fn one_cycle_router_per_hop_latency_is_two() {
        let mut lat = Vec::new();
        for hops in [1usize, 3, 5] {
            let mut cfg = NetworkConfig::baseline_mesh(6);
            cfg.router_stages = 1;
            let mut net = Network::new(cfg);
            net.try_inject(0, Packet::request(0, hops, 8, 0)).unwrap();
            lat.push(run_until_delivered(&mut net, hops, 500).network_latency());
        }
        assert_eq!(lat[1] - lat[0], 4);
        assert_eq!(lat[2] - lat[1], 4);
    }

    /// A 4-flit packet takes 3 extra serialization cycles end to end.
    #[test]
    fn serialization_latency() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        net.try_inject(0, Packet::request(0, 3, 8, 0)).unwrap();
        let small = run_until_delivered(&mut net, 3, 500).network_latency();

        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        net.try_inject(0, Packet::reply(0, 3, 64, 0)).unwrap();
        let large = run_until_delivered(&mut net, 3, 500).network_latency();
        assert_eq!(large - small, 3, "3 extra flits serialize at 1 flit/cycle");
    }

    /// Packets of both classes traverse the checkerboard mesh between all
    /// core-MC pairs.
    #[test]
    fn checkerboard_core_to_mc_traffic() {
        let cfg = NetworkConfig::checkerboard_mesh(6);
        let mcs = cfg.mc_nodes.clone();
        let cores: Vec<NodeId> = (0..cfg.mesh.len()).filter(|n| !mcs.contains(n)).collect();
        let mut net = Network::new(cfg);
        let mut expected = 0u64;
        for (i, &core) in cores.iter().enumerate() {
            let mc = mcs[i % mcs.len()];
            net.try_inject(core, Packet::request(core, mc, 8, core as u64)).unwrap();
            expected += 1;
        }
        let mut got = 0u64;
        for _ in 0..2000 {
            net.step();
            for &mc in &mcs {
                while let Some(p) = net.pop(mc) {
                    assert_eq!(p.header.tag, p.header.src as u64);
                    got += 1;
                }
            }
        }
        assert_eq!(got, expected);
        assert_eq!(net.in_flight(), 0);
    }

    /// MC-to-core replies on the checkerboard (half-router sources).
    #[test]
    fn checkerboard_mc_to_core_replies() {
        let cfg = NetworkConfig::checkerboard_mesh(6);
        let mcs = cfg.mc_nodes.clone();
        let cores: Vec<NodeId> = (0..cfg.mesh.len()).filter(|n| !mcs.contains(n)).collect();
        let mut net = Network::new(cfg);
        for (i, &core) in cores.iter().enumerate() {
            let mc = mcs[i % mcs.len()];
            net.try_inject(mc, Packet::reply(mc, core, 64, 7)).ok();
        }
        let mut got = 0;
        for _ in 0..3000 {
            net.step();
            for &core in &cores {
                while net.pop(core).is_some() {
                    got += 1;
                }
            }
        }
        assert!(got >= mcs.len(), "at least one reply per MC delivered, got {got}");
        assert_eq!(net.in_flight(), 0);
    }

    /// Multi-port MC injection accepts two packets in the same cycle.
    #[test]
    fn multiport_injection_doubles_acceptance() {
        let mut cfg = NetworkConfig::baseline_mesh(6);
        cfg.mc_inject_ports = 2;
        let mc = cfg.mc_nodes[0];
        let mut net = Network::new(cfg);
        assert!(net.try_inject(mc, Packet::reply(mc, 14, 64, 0)).is_ok());
        assert!(net.try_inject(mc, Packet::reply(mc, 15, 64, 1)).is_ok());
        // Third must be refused: both ports busy.
        assert!(net.try_inject(mc, Packet::reply(mc, 16, 64, 2)).is_err());
        let s = net.stats();
        assert_eq!(s.inject_attempts_by_node[mc], 3);
        assert_eq!(s.inject_blocked_by_node[mc], 1);
    }

    /// Saturating one VC must not corrupt packet ordering or contents.
    #[test]
    fn heavy_contention_preserves_integrity() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mesh = cfg.mesh.clone();
        let dst = mesh.node(Coord::new(3, 0)); // an MC-ish node on row 0
        let mut net = Network::new(cfg);
        let sources: Vec<NodeId> = (6..30).collect();
        let mut pending: Vec<Packet> =
            sources.iter().map(|&s| Packet::request(s, dst, 64, s as u64)).collect();
        let mut delivered = 0;
        for _ in 0..5000 {
            pending.retain(|&p| net.try_inject(p.header.src, p).is_err());
            net.step();
            while let Some(p) = net.pop(dst) {
                assert_eq!(p.header.tag, p.header.src as u64);
                delivered += 1;
            }
            if delivered == sources.len() && pending.is_empty() {
                break;
            }
        }
        assert_eq!(delivered, sources.len());
        assert_eq!(net.in_flight(), 0);
    }

    /// Link-load telemetry matches the path a lone packet takes.
    #[test]
    fn link_loads_track_a_single_packet() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        // 0 -> 3: three eastward hops along row 0, one flit.
        net.try_inject(0, Packet::request(0, 3, 8, 0)).unwrap();
        for _ in 0..100 {
            net.step();
        }
        net.pop(3).expect("delivered");
        let loads = net.link_loads();
        let total: u64 = loads.iter().map(|&(_, _, f)| f).sum();
        assert_eq!(total, 3, "one flit crosses exactly three links");
        for &(node, dir, f) in &loads {
            if f > 0 {
                assert_eq!(dir, Direction::East);
                assert!(node < 3, "only row-0 eastward links used, saw node {node}");
            }
        }
    }

    /// Request and reply latencies are tracked per class.
    #[test]
    fn stats_separate_classes() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        net.try_inject(0, Packet::request(0, 2, 8, 0)).unwrap();
        net.try_inject(14, Packet::reply(14, 20, 64, 0)).unwrap();
        for _ in 0..200 {
            net.step();
        }
        net.pop(2).unwrap();
        net.pop(20).unwrap();
        let s = net.stats();
        assert_eq!(s.packets, [1, 1]);
        assert_eq!(s.flits, [1, 4]);
        assert!(s.net_latency_sum.iter().all(|&sum| sum > 0), "both classes measured");
    }

    /// Two packets queued on the same VC keep their order (wormhole FIFO).
    #[test]
    fn same_vc_packets_stay_ordered() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        let mut delivered = Vec::new();
        let mut pending = vec![
            Packet::request(0, 4, 64, 1),
            Packet::request(0, 4, 64, 2),
            Packet::request(0, 4, 64, 3),
        ];
        for _ in 0..1000 {
            pending.retain(|&p| net.try_inject(0, p).is_err());
            net.step();
            while let Some(p) = net.pop(4) {
                delivered.push(p.header.tag);
            }
        }
        assert_eq!(delivered, vec![1, 2, 3], "same source/dest/class traffic is FIFO");
    }

    /// Telemetry reproduces the lone packet's path: link counters match
    /// `link_loads`, the flight recorder holds one event per hop plus the
    /// ejection, and the heatmap has mesh dimensions.
    #[test]
    fn telemetry_traces_a_single_packet() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        net.enable_telemetry(crate::telemetry::TelemetryConfig::default());
        // 0 -> 3: three eastward hops along row 0, one flit.
        net.try_inject(0, Packet::request(0, 3, 8, 0)).unwrap();
        for _ in 0..100 {
            net.step();
        }
        net.pop(3).expect("delivered");
        let report = net.telemetry_reports().pop().expect("telemetry armed");
        assert_eq!(report.label, "net");
        assert_eq!(report.radix, 6);
        assert_eq!(report.heatmap.len(), 6);
        assert!(report.heatmap.iter().all(|row| row.len() == 6));
        // Link records agree with the channel counters.
        let recorded: u64 = report.links.iter().map(|l| l.flits).sum();
        let channel_total: u64 = net.link_loads().iter().map(|&(_, _, f)| f).sum();
        assert_eq!(recorded, channel_total);
        assert_eq!(recorded, 3, "one flit crosses exactly three links");
        for l in &report.links {
            assert_eq!(l.vc_flits.iter().sum::<u64>(), l.flits, "per-VC counts sum to total");
            if l.flits > 0 {
                assert_eq!(l.dir, "E");
                assert!(l.utilization > 0.0);
            }
        }
        // Only row-0 nodes show heat.
        assert!(report.heatmap[0][0] > 0.0);
        assert_eq!(report.heatmap[5][5], 0.0);
        // Flight recorder: 3 link hops + 1 ejection, in time order.
        assert_eq!(report.flight.len(), 4);
        assert_eq!(report.flight_dropped, 0);
        let nodes: Vec<u64> = report.flight.iter().map(|e| e.node).collect();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        assert!(report.flight.windows(2).all(|w| w[0].cycle < w[1].cycle));
        assert!(report.flight.last().unwrap().out_port >= 4, "last event is the ejection");
        // Histograms saw the packet in both latency views, request class.
        assert_eq!(report.hist.total[0].count(), 1);
        assert_eq!(report.hist.network[0].count(), 1);
        assert_eq!(report.hist.total[1].count(), 0);
        // Occupancy integral is positive somewhere along the path.
        assert!(report.avg_occupancy.iter().any(|&o| o > 0.0));
    }

    /// Arming telemetry changes no simulated outcome: same stats, same
    /// cycle count, same flit-hops as an unarmed twin.
    #[test]
    fn telemetry_does_not_perturb_the_simulation() {
        let run = |armed: bool| {
            let cfg = NetworkConfig::checkerboard_mesh(6);
            let mcs = cfg.mc_nodes.clone();
            let mut net = Network::new(cfg);
            if armed {
                net.enable_telemetry(crate::telemetry::TelemetryConfig::default());
            }
            for (i, node) in (0..36).filter(|n| !mcs.contains(n)).enumerate() {
                net.try_inject(node, Packet::request(node, mcs[i % mcs.len()], 64, i as u64))
                    .unwrap();
            }
            for _ in 0..500 {
                net.step();
            }
            let mut s = net.stats();
            s.hist = None; // the only intended divergence
            (s, net.cycle(), net.flit_hops())
        };
        assert_eq!(run(false), run(true));
    }

    /// A node-armed flight recorder only captures that node's traffic.
    #[test]
    fn flight_recorder_arms_per_node() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        net.enable_telemetry(crate::telemetry::TelemetryConfig {
            flight_capacity: 64,
            arm: crate::telemetry::ArmSpec { node: Some(3), class: None },
        });
        net.try_inject(0, Packet::request(0, 3, 8, 7)).unwrap(); // matches (dst 3)
        net.try_inject(30, Packet::request(30, 35, 8, 8)).unwrap(); // unrelated
        for _ in 0..100 {
            net.step();
        }
        let report = net.telemetry_reports().pop().unwrap();
        assert!(!report.flight.is_empty());
        assert!(report.flight.iter().all(|e| e.packet == report.flight[0].packet));
    }

    /// Wider channels shrink packet flit counts.
    #[test]
    fn channel_width_affects_flitization() {
        let mut cfg = NetworkConfig::baseline_mesh(6);
        cfg.channel_bytes = 32;
        cfg.vcs = VcLayout::new(2, 2, false);
        let mut net = Network::new(cfg);
        net.try_inject(0, Packet::reply(0, 5, 64, 0)).unwrap();
        let p = run_until_delivered(&mut net, 5, 500);
        assert_eq!(p.header.flits, 2);
    }
}
