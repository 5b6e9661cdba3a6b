//! The channel-sliced double network (paper Section IV-C), written once
//! over whichever engine simulates its two slices.

use crate::arena::ArenaNetwork;
use crate::config::NetworkConfig;
use crate::interconnect::Interconnect;
use crate::network::Network;
use crate::packet::{EjectedPacket, Packet, PacketClass};
use crate::stats::NetStats;
use crate::telemetry::{TelemetryConfig, TelemetryReport};
use crate::tick::Tick;
use crate::types::{Direction, NodeId};

/// Two parallel channel-sliced networks: one dedicated to requests, one to
/// replies (paper Section IV-C).
///
/// Each subnetwork runs at half the channel width of the single network it
/// replaces, keeping total bisection bandwidth constant while shrinking
/// crossbar area quadratically. Because classes are physically separated,
/// no virtual channels are needed for protocol deadlock avoidance.
pub struct Sliced<N> {
    request: N,
    reply: N,
}

/// The double network on the per-router reference engine.
pub type DoubleNetwork = Sliced<Network>;

/// The double network on the arena engine (what
/// [`build_double`](crate::build_double) returns for packable shapes).
pub type ArenaDoubleNetwork = Sliced<ArenaNetwork>;

impl<N> Sliced<N> {
    /// Slices `cfg` in two and builds each slice on `engine`; the reply
    /// slice gets its own RNG stream.
    fn build(cfg: &NetworkConfig, engine: fn(NetworkConfig) -> N) -> Self {
        let sub_cfg = cfg.slice();
        let mut reply_cfg = sub_cfg.clone();
        reply_cfg.seed = sub_cfg.seed.wrapping_add(0x9e37_79b9);
        Sliced { request: engine(sub_cfg), reply: engine(reply_cfg) }
    }
}

impl DoubleNetwork {
    /// Derives a double network from a single-network configuration by
    /// halving the channel width and splitting the VC layout.
    ///
    /// Channel slicing shrinks the *fabric* datapath, not the terminal
    /// interface: the MC network interfaces still move the original
    /// channel width per cycle, so each slice's MC routers carry
    /// `slice factor x` the configured local ports. (The paper's
    /// Figure 18 — double network ~= single network — requires terminal
    /// bandwidth to be preserved; Table VI's area accounting likewise
    /// charges extra *16-byte-equivalent* ports only for the explicit 2P
    /// design.)
    ///
    /// # Panics
    ///
    /// Panics if the single network's channel width is not even or the
    /// sliced configuration fails validation.
    pub fn from_single(cfg: &NetworkConfig) -> Self {
        Self::build(cfg, Network::new)
    }
}

impl ArenaDoubleNetwork {
    /// [`DoubleNetwork::from_single`] on the arena engine: same slicing,
    /// same per-slice seeds.
    ///
    /// # Panics
    ///
    /// As [`DoubleNetwork::from_single`], and if the sliced shape exceeds
    /// [`ArenaNetwork::supports`].
    pub fn from_single(cfg: &NetworkConfig) -> Self {
        Self::build(cfg, ArenaNetwork::new)
    }
}

impl<N: Interconnect> Tick for Sliced<N> {
    fn tick(&mut self) {
        self.request.tick();
        self.reply.tick();
    }
}

impl<N: Interconnect> Interconnect for Sliced<N> {
    fn try_inject(&mut self, node: NodeId, packet: Packet) -> Result<(), Packet> {
        match packet.header.class {
            PacketClass::Request => self.request.try_inject(node, packet),
            PacketClass::Reply => self.reply.try_inject(node, packet),
        }
    }

    fn pop(&mut self, node: NodeId) -> Option<EjectedPacket> {
        self.request.pop(node).or_else(|| self.reply.pop(node))
    }

    fn cycle(&self) -> u64 {
        self.request.cycle()
    }

    fn stats(&self) -> NetStats {
        let (mut s, reply) = (self.request.stats(), self.reply.stats());
        // The slices tick together (see `Tick for Sliced`), so they
        // satisfy merge_parallel's same-window contract by construction;
        // the assert guards against a future skewed-clock refactor
        // silently inflating rates.
        debug_assert_eq!(s.cycles, reply.cycles, "double-network slices must share one clock");
        s.merge_parallel(&reply);
        s
    }

    fn in_flight(&self) -> usize {
        self.request.in_flight() + self.reply.in_flight()
    }

    fn flit_hops(&self) -> u64 {
        self.request.flit_hops() + self.reply.flit_hops()
    }

    /// The slices share one geometry, so their counts add link by link.
    fn link_loads_into(&self, out: &mut Vec<(NodeId, Direction, u64)>) {
        self.request.link_loads_into(out);
        for (link, (_, _, flits)) in out.iter_mut().zip(self.reply.link_loads()) {
            link.2 += flits;
        }
    }

    fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.request.enable_telemetry(cfg);
        self.reply.enable_telemetry(cfg);
    }

    fn telemetry_reports_into(&self, out: &mut Vec<TelemetryReport>) {
        for (slice, label) in [(&self.request, "request"), (&self.reply, "reply")] {
            let first = out.len();
            slice.telemetry_reports_into(out);
            for report in &mut out[first..] {
                report.label = label.to_string();
            }
        }
    }

    fn phase_count(&self) -> usize {
        self.request.phase_count() + self.reply.phase_count()
    }

    /// The request slice's phases, then the reply slice's — the slice
    /// order of [`Tick::tick`].
    fn tick_phase(&mut self, phase: usize) {
        match phase.checked_sub(self.request.phase_count()) {
            None => self.request.tick_phase(phase),
            Some(reply_phase) => self.reply.tick_phase(reply_phase),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The double network segregates classes onto separate slices.
    #[test]
    fn double_network_separates_classes() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut dn = DoubleNetwork::from_single(&cfg);
        dn.try_inject(0, Packet::request(0, 10, 8, 1)).unwrap();
        dn.try_inject(10, Packet::reply(10, 0, 64, 2)).unwrap();
        for _ in 0..300 {
            dn.step();
        }
        let req = dn.pop(10).expect("request delivered");
        assert_eq!(req.header.class, PacketClass::Request);
        // 8-byte slices: a 64-byte reply is 8 flits.
        let rep = dn.pop(0).expect("reply delivered");
        assert_eq!(rep.header.flits, 8);
        assert_eq!(dn.request.stats().packets[0], 1);
        assert_eq!(dn.reply.stats().packets[1], 1);
    }

    /// The double network yields one labeled report per slice.
    #[test]
    fn double_network_reports_both_slices() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut dn = DoubleNetwork::from_single(&cfg);
        dn.enable_telemetry(crate::telemetry::TelemetryConfig::default());
        dn.try_inject(0, Packet::request(0, 10, 8, 1)).unwrap();
        dn.try_inject(10, Packet::reply(10, 0, 64, 2)).unwrap();
        for _ in 0..300 {
            dn.step();
        }
        let reports = dn.telemetry_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].label, "request");
        assert_eq!(reports[1].label, "reply");
        assert_eq!(reports[0].hist.total[0].count(), 1, "request slice saw the request");
        assert_eq!(reports[1].hist.total[1].count(), 1, "reply slice saw the reply");
        assert!(reports.iter().all(|r| !r.flight.is_empty()));
    }

    /// Driving a double network phase by phase is ticking it, the two
    /// engines agree packet for packet, and per-link loads add up over
    /// the slices.
    #[test]
    fn phased_arena_double_matches_ticked_oracle_double() {
        let cfg = NetworkConfig::checkerboard_mesh(6);
        let (mcs, n) = (cfg.mc_nodes.clone(), cfg.mesh.len());
        let mut oracle = DoubleNetwork::from_single(&cfg);
        let mut arena = ArenaDoubleNetwork::from_single(&cfg);
        assert_eq!((oracle.phase_count(), arena.phase_count()), (2, 2));
        for i in 0..300usize {
            let (core, mc) = ((i * 7 + 1) % n, mcs[i % mcs.len()]);
            if !mcs.contains(&core) {
                for p in [Packet::request(core, mc, 8, i as u64), Packet::reply(mc, core, 64, 0)] {
                    let src = p.header.src;
                    assert_eq!(oracle.try_inject(src, p).is_ok(), arena.try_inject(src, p).is_ok());
                }
            }
            oracle.tick();
            for phase in 0..arena.phase_count() {
                arena.tick_phase(phase);
            }
            for node in 0..n {
                while let Some(p) = oracle.pop(node) {
                    assert_eq!(arena.pop(node), Some(p), "ejection diverged at cycle {i}");
                }
                assert_eq!(arena.pop(node), None);
            }
        }
        assert_eq!(oracle.stats(), arena.stats());
        assert_eq!(oracle.link_loads(), arena.link_loads());
        assert_eq!(arena.link_loads().iter().map(|l| l.2).sum::<u64>(), arena.flit_hops());
        assert!(arena.request.flit_hops() > 0 && arena.reply.flit_hops() > 0);
    }
}
