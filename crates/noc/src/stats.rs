//! Network statistics: latency, throughput and injection-blocking
//! accounting used by the paper's figures.

use crate::packet::EjectedPacket;
use crate::telemetry::LatencyHistograms;
use serde::{Deserialize, Serialize};

/// Aggregated statistics of a network (or a pair of sliced networks).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Packets ejected, per class (`[request, reply]`).
    pub packets: [u64; 2],
    /// Flits ejected, per class.
    pub flits: [u64; 2],
    /// Sum of total latencies (creation to tail ejection), per class.
    pub total_latency_sum: [u64; 2],
    /// Sum of network latencies (head injection to tail ejection), per
    /// class.
    pub net_latency_sum: [u64; 2],
    /// Flits injected into the network per source node.
    pub injected_flits_by_node: Vec<u64>,
    /// Flits ejected from the network per destination node.
    pub ejected_flits_by_node: Vec<u64>,
    /// `try_inject` calls per node.
    pub inject_attempts_by_node: Vec<u64>,
    /// `try_inject` calls per node that were refused because all injection
    /// ports were busy (the paper's "MC stalled by reply network" signal
    /// when read at MC nodes).
    pub inject_blocked_by_node: Vec<u64>,
    /// Optional log2-bucketed latency histograms (telemetry). `None` — the
    /// default — keeps `NetStats::record_ejection` free of histogram
    /// work, preserving the zero-cost-when-off telemetry contract.
    pub hist: Option<LatencyHistograms>,
}

impl NetStats {
    /// Creates zeroed statistics for `nodes` network terminals.
    pub fn new(nodes: usize) -> Self {
        NetStats {
            cycles: 0,
            packets: [0; 2],
            flits: [0; 2],
            total_latency_sum: [0; 2],
            net_latency_sum: [0; 2],
            injected_flits_by_node: vec![0; nodes],
            ejected_flits_by_node: vec![0; nodes],
            inject_attempts_by_node: vec![0; nodes],
            inject_blocked_by_node: vec![0; nodes],
            hist: None,
        }
    }

    /// Turns on latency-histogram collection. Ejections recorded before
    /// this call are not retroactively bucketed.
    pub(crate) fn enable_histograms(&mut self) {
        self.hist.get_or_insert_with(LatencyHistograms::default);
    }

    /// Records an ejected packet.
    pub(crate) fn record_ejection(&mut self, pkt: &EjectedPacket) {
        let c = pkt.header.class.index();
        self.packets[c] += 1;
        self.flits[c] += pkt.header.flits as u64;
        self.total_latency_sum[c] += pkt.total_latency();
        self.net_latency_sum[c] += pkt.network_latency();
        if let Some(e) = self.ejected_flits_by_node.get_mut(pkt.header.dst) {
            *e += pkt.header.flits as u64;
        }
        if let Some(h) = &mut self.hist {
            h.total[c].record(pkt.total_latency());
            h.network[c].record(pkt.network_latency());
        }
    }

    /// Total packets ejected across classes.
    pub(crate) fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    /// Total flits ejected across classes.
    pub(crate) fn total_flits(&self) -> u64 {
        self.flits.iter().sum()
    }

    /// Mean in-network latency (injection to ejection), across classes.
    pub fn avg_network_latency(&self) -> f64 {
        let n = self.total_packets();
        if n == 0 {
            return 0.0;
        }
        self.net_latency_sum.iter().sum::<u64>() as f64 / n as f64
    }

    /// Mean flits a node injected per cycle.
    ///
    /// Bounds-safe: an out-of-range `node` reads as zero traffic, matching
    /// how `NetStats::record_ejection` treats an unknown destination.
    pub fn injection_rate(&self, node: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        match self.injected_flits_by_node.get(node) {
            Some(&f) => f as f64 / self.cycles as f64,
            None => 0.0,
        }
    }

    /// Accepted traffic averaged over all nodes, in flits/cycle/node.
    pub fn accepted_flits_per_node_cycle(&self) -> f64 {
        let nodes = self.ejected_flits_by_node.len();
        if self.cycles == 0 || nodes == 0 {
            return 0.0;
        }
        self.total_flits() as f64 / self.cycles as f64 / nodes as f64
    }

    /// Merges statistics from another network that simulated the **same
    /// measurement window in parallel** — e.g. the second slice of a
    /// double network, which shares the clock with the first.
    ///
    /// The combined cycle count is `max(self.cycles, other.cycles)`, which
    /// is only correct under that parallel-slice contract (the slices ran
    /// *concurrently*, so wall cycles do not add). Merging *sequential*
    /// segments with this method would under-count cycles and inflate
    /// every per-cycle rate; a `debug_assert` rejects windows that differ.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ. In debug builds, panics if the
    /// cycle counts differ (the slices did not share a clock).
    pub(crate) fn merge_parallel(&mut self, other: &NetStats) {
        assert_eq!(
            self.injected_flits_by_node.len(),
            other.injected_flits_by_node.len(),
            "cannot merge stats over different node counts"
        );
        debug_assert_eq!(
            self.cycles, other.cycles,
            "merge_parallel requires slices of the same measurement window \
             (parallel-slice contract); sequential segments must not be \
             merged with max(cycles)"
        );
        self.cycles = self.cycles.max(other.cycles);
        match (&mut self.hist, &other.hist) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.hist = Some(*b),
            _ => {}
        }
        for c in 0..2 {
            self.packets[c] += other.packets[c];
            self.flits[c] += other.flits[c];
            self.total_latency_sum[c] += other.total_latency_sum[c];
            self.net_latency_sum[c] += other.net_latency_sum[c];
        }
        for i in 0..self.injected_flits_by_node.len() {
            self.injected_flits_by_node[i] += other.injected_flits_by_node[i];
            self.ejected_flits_by_node[i] += other.ejected_flits_by_node[i];
            self.inject_attempts_by_node[i] += other.inject_attempts_by_node[i];
            self.inject_blocked_by_node[i] += other.inject_blocked_by_node[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketClass};

    fn ejected(
        class: PacketClass,
        flits: u16,
        created: u64,
        injected: u64,
        out: u64,
    ) -> EjectedPacket {
        let mut p = Packet::new(class, 0, 1, 64, 0);
        p.header.flits = flits;
        p.header.created = created;
        p.header.injected = injected;
        EjectedPacket { header: p.header, ejected: out }
    }

    #[test]
    fn records_latency_sums_per_class() {
        let mut s = NetStats::new(4);
        s.record_ejection(&ejected(PacketClass::Request, 1, 0, 2, 10));
        s.record_ejection(&ejected(PacketClass::Reply, 4, 5, 6, 25));
        assert_eq!(s.packets, [1, 1]);
        assert_eq!(s.flits, [1, 4]);
        assert_eq!(s.total_latency_sum, [10, 20]);
        assert_eq!(s.net_latency_sum, [8, 19]);
        assert!((s.avg_network_latency() - 13.5).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_zero_averages() {
        let s = NetStats::new(2);
        assert_eq!(s.avg_network_latency(), 0.0);
        assert_eq!(s.injection_rate(1), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = NetStats::new(2);
        let mut b = NetStats::new(2);
        a.cycles = 100;
        b.cycles = 100;
        a.record_ejection(&ejected(PacketClass::Request, 1, 0, 0, 4));
        b.record_ejection(&ejected(PacketClass::Reply, 4, 0, 0, 8));
        b.inject_attempts_by_node[0] = 10;
        b.inject_blocked_by_node[0] = 5;
        a.merge_parallel(&b);
        assert_eq!(a.total_packets(), 2);
        assert_eq!(a.total_flits(), 5);
        assert_eq!((a.inject_attempts_by_node[0], a.inject_blocked_by_node[0]), (10, 5));
    }

    /// Satellite regression: `injection_rate` used to panic on an
    /// out-of-range node while `record_ejection` silently ignored a bad
    /// `dst`. Both are now bounds-safe and consistent.
    #[test]
    fn out_of_range_node_is_safe_and_consistent() {
        let mut s = NetStats::new(2);
        s.cycles = 10;
        s.injected_flits_by_node[0] = 5;
        // A packet whose dst is outside the node range: class counters
        // still advance, per-node ejection accounting is skipped.
        s.record_ejection(&ejected_to(PacketClass::Reply, 99));
        assert_eq!(s.total_packets(), 1);
        assert_eq!(s.ejected_flits_by_node, vec![0, 0]);
        // The rate accessor returns 0.0 instead of panicking.
        assert_eq!(s.injection_rate(99), 0.0);
        // In-range behavior is unchanged.
        assert!((s.injection_rate(0) - 0.5).abs() < 1e-9);
    }

    fn ejected_to(class: PacketClass, dst: usize) -> EjectedPacket {
        let mut p = Packet::new(class, 0, dst, 64, 0);
        p.header.flits = 4;
        p.header.created = 0;
        p.header.injected = 0;
        EjectedPacket { header: p.header, ejected: 8 }
    }

    /// Satellite regression: the parallel-slice contract of
    /// [`NetStats::merge_parallel`]. Same-window merges keep the shared
    /// cycle count; mismatched windows are rejected in debug builds.
    #[test]
    fn merge_parallel_keeps_shared_clock() {
        let mut a = NetStats::new(2);
        let mut b = NetStats::new(2);
        a.cycles = 250;
        b.cycles = 250;
        a.merge_parallel(&b);
        assert_eq!(a.cycles, 250, "parallel slices share one clock");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "parallel-slice contract")]
    fn merge_parallel_rejects_mismatched_windows() {
        let mut a = NetStats::new(2);
        let mut b = NetStats::new(2);
        a.cycles = 100;
        b.cycles = 250;
        a.merge_parallel(&b);
    }

    #[test]
    fn merge_parallel_combines_histograms() {
        let mut a = NetStats::new(2);
        let mut b = NetStats::new(2);
        b.enable_histograms();
        b.record_ejection(&ejected(PacketClass::Request, 1, 0, 2, 10));
        // None + Some adopts the other side's histograms.
        a.merge_parallel(&b);
        let h = a.hist.expect("histograms adopted from merged slice");
        assert_eq!(h.total[0].count(), 1);
        // Some + Some adds counts.
        a.merge_parallel(&b);
        assert_eq!(a.hist.unwrap().total[0].count(), 2);
    }

    #[test]
    fn histograms_record_both_latencies_when_enabled() {
        let mut s = NetStats::new(4);
        s.record_ejection(&ejected(PacketClass::Request, 1, 0, 2, 10));
        assert!(s.hist.is_none(), "histograms are off by default");
        s.enable_histograms();
        s.record_ejection(&ejected(PacketClass::Reply, 4, 5, 6, 25));
        let h = s.hist.unwrap();
        assert_eq!(h.total[0].count(), 0, "pre-enable ejections not bucketed");
        assert_eq!(h.total[1].count(), 1);
        assert_eq!(h.network[1].count(), 1);
        // total latency 20 → bucket [16,32); network latency 19 → same.
        assert_eq!(h.total[1].buckets[5], 1);
        assert_eq!(h.network[1].buckets[5], 1);
    }

    #[test]
    fn accepted_rate_normalizes_by_nodes_and_cycles() {
        let mut s = NetStats::new(2);
        s.cycles = 10;
        s.record_ejection(&ejected(PacketClass::Request, 1, 0, 0, 1));
        s.record_ejection(&ejected(PacketClass::Reply, 4, 0, 0, 2));
        // 5 flits / 10 cycles / 2 nodes
        assert!((s.accepted_flits_per_node_cycle() - 0.25).abs() < 1e-9);
    }
}
