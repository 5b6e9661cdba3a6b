//! The idealized interconnect model used in the paper's limit studies.
//!
//! [`BandwidthLimitedInterconnect`] has zero latency once a flit is
//! accepted, but a cap on the total flits accepted per cycle across the
//! whole network — the limit-study network of Figure 6. Multiple sources
//! may transmit to a destination in one cycle and a source may send
//! multiple flits in one cycle; a packet is accepted provided the
//! bandwidth budget has not already been exhausted this cycle.
//!
//! The "perfect network" of Figures 7/8 and the `Ideal NoC` point of
//! Figure 2 — zero latency, infinite bandwidth — is the same model with
//! the cap at `f64::INFINITY`: the budget then stays `+inf` through every
//! replenish and every accepted packet, so nothing is ever refused.

use crate::interconnect::Interconnect;
use crate::packet::{EjectedPacket, Packet, PacketHeader};
use crate::stats::NetStats;
use crate::tick::Tick;
use crate::types::NodeId;
use std::collections::VecDeque;

/// Zero-latency network with a global aggregate-bandwidth cap.
pub struct BandwidthLimitedInterconnect {
    queues: Vec<VecDeque<EjectedPacket>>,
    cycle: u64,
    stats: NetStats,
    next_id: u64,
    flit_bytes: u32,
    /// Flits the whole network may accept per cycle.
    flits_per_cycle: f64,
    /// Remaining budget this cycle (may go slightly negative: a packet is
    /// accepted whenever the budget is still positive, as in the paper).
    budget: f64,
}

impl BandwidthLimitedInterconnect {
    /// Creates a bandwidth-limited network over `nodes` terminals accepting
    /// at most `flits_per_cycle` flits per cycle in aggregate
    /// (`f64::INFINITY` for the perfect network). `flit_bytes` sizes
    /// packets in flits, for the budget and the statistics.
    pub fn new(nodes: usize, flit_bytes: u32, flits_per_cycle: f64) -> Self {
        assert!(flits_per_cycle > 0.0, "bandwidth cap must be positive");
        BandwidthLimitedInterconnect {
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            cycle: 0,
            stats: NetStats::new(nodes),
            next_id: 1,
            flit_bytes,
            flits_per_cycle,
            budget: flits_per_cycle,
        }
    }
}

impl Tick for BandwidthLimitedInterconnect {
    fn tick(&mut self) {
        self.cycle += 1;
        self.stats.cycles += 1;
        // Unused budget does not accumulate beyond one cycle's worth, but a
        // deficit from an over-accepted packet carries over.
        self.budget = (self.budget + self.flits_per_cycle).min(self.flits_per_cycle);
    }
}

impl Interconnect for BandwidthLimitedInterconnect {
    fn try_inject(&mut self, node: NodeId, mut packet: Packet) -> Result<(), Packet> {
        self.stats.inject_attempts_by_node[node] += 1;
        if self.budget <= 0.0 {
            self.stats.inject_blocked_by_node[node] += 1;
            return Err(packet);
        }
        let flits = packet.flits_at_width(self.flit_bytes);
        let hdr = &mut packet.header;
        hdr.src = node;
        hdr.id = self.next_id;
        self.next_id += 1;
        hdr.flits = flits;
        if hdr.created == PacketHeader::CREATED_UNSET {
            hdr.created = self.cycle;
        }
        hdr.injected = self.cycle;
        self.budget -= flits as f64;
        self.stats.injected_flits_by_node[node] += hdr.flits as u64;
        let out = EjectedPacket { header: packet.header, ejected: self.cycle };
        self.stats.record_ejection(&out);
        self.queues[packet.header.dst].push_back(out);
        Ok(())
    }

    fn pop(&mut self, node: NodeId) -> Option<EjectedPacket> {
        self.queues[node].pop_front()
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn stats(&self) -> NetStats {
        self.stats.clone()
    }

    fn in_flight(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_delivers_same_cycle() {
        let mut net = BandwidthLimitedInterconnect::new(4, 16, f64::INFINITY);
        net.try_inject(0, Packet::request(0, 3, 8, 42)).unwrap();
        let p = net.pop(3).expect("delivered instantly");
        assert_eq!(p.header.tag, 42);
        assert_eq!(p.total_latency(), 0);
    }

    #[test]
    fn perfect_never_blocks() {
        let mut net = BandwidthLimitedInterconnect::new(2, 16, f64::INFINITY);
        for i in 0..1000 {
            net.try_inject(0, Packet::reply(0, 1, 64, i)).unwrap();
        }
        net.step();
        assert!(net.try_inject(0, Packet::reply(0, 1, 64, 1000)).is_ok(), "budget stays infinite");
        assert_eq!(net.stats().packets[1], 1001);
    }

    #[test]
    fn bandwidth_cap_enforced_per_cycle() {
        // Cap of 2 flits/cycle; 1-flit packets.
        let mut net = BandwidthLimitedInterconnect::new(4, 16, 2.0);
        assert!(net.try_inject(0, Packet::request(0, 1, 8, 0)).is_ok());
        assert!(net.try_inject(0, Packet::request(0, 1, 8, 1)).is_ok());
        assert!(net.try_inject(0, Packet::request(0, 1, 8, 2)).is_err(), "budget exhausted");
        net.step();
        assert!(net.try_inject(0, Packet::request(0, 1, 8, 3)).is_ok(), "budget replenished");
    }

    #[test]
    fn oversized_packet_accepted_when_budget_positive() {
        // A 4-flit packet is accepted when any budget remains (paper
        // semantics) and the deficit carries over.
        let mut net = BandwidthLimitedInterconnect::new(4, 16, 1.0);
        assert!(net.try_inject(0, Packet::reply(0, 1, 64, 0)).is_ok());
        assert!(net.try_inject(0, Packet::request(0, 1, 8, 1)).is_err());
        net.step();
        // Deficit of 3 flits + 1 replenished = -2: still blocked.
        assert!(net.try_inject(0, Packet::request(0, 1, 8, 2)).is_err());
        net.step();
        net.step();
        net.step();
        assert!(net.try_inject(0, Packet::request(0, 1, 8, 3)).is_ok());
    }

    #[test]
    fn throughput_matches_cap_under_saturation() {
        let mut net = BandwidthLimitedInterconnect::new(8, 16, 3.5);
        let cycles = 1000;
        for _ in 0..cycles {
            // Offer far more than the cap.
            for _ in 0..16 {
                let _ = net.try_inject(0, Packet::request(0, 1, 8, 0));
            }
            net.step();
        }
        let accepted = net.stats().total_flits() as f64 / cycles as f64;
        assert!((accepted - 3.5).abs() < 0.1, "accepted {accepted} flits/cycle, cap 3.5");
    }
}
