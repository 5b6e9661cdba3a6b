//! tenoc-telemetry: the zero-cost-when-off observability layer.
//!
//! The paper's evidence is *distributional* — injection-blocking at the MC
//! routers (Fig. 11), latency–throughput saturation (Fig. 21), many-to-few
//! hotspot structure (Fig. 1/8) — but aggregate sums cannot show any of
//! those shapes. This module adds three always-available instruments:
//!
//! 1. **Latency histograms** ([`LatencyHistogram`]): log2-bucketed counts
//!    of total and in-network packet latency, kept per protocol class
//!    inside [`crate::NetStats`] when enabled.
//! 2. **Link heatmaps**: per-link, per-VC flit counters and per-router
//!    buffer-occupancy integrals sampled by the engine, exported as a
//!    mesh-shaped utilization grid.
//! 3. **Flight recorder** (`FlightRecorder`): a bounded ring buffer of
//!    per-hop flit events (packet id, node, output port, cycle), armable
//!    per node or per class via [`ArmSpec`].
//!
//! ## The zero-cost-when-off contract
//!
//! Telemetry is `Option`-gated everywhere it touches a hot path: with
//! telemetry disabled (the default) the simulator performs **no extra heap
//! allocations and no extra RNG draws**, and every simulated outcome —
//! golden sweep fingerprints, figure outputs, scheduler behavior — is
//! byte-identical to a build without this module. Enabling telemetry
//! allocates all buffers up front (`NetTelemetry::new`) and never
//! reallocates afterwards, so the allocation-free steady state of the
//! cycle kernel (DESIGN.md §12) also holds with telemetry *on*. Telemetry
//! observes the simulation; it never influences it.
//!
//! Telemetry is engine-independent: [`crate::ArenaNetwork`] and the
//! per-router oracle [`crate::Network`] own the same `NetTelemetry`,
//! feed it from the same three hook sites (switch grant, end-of-cycle
//! occupancy, ejection) and snapshot it through the one report builder,
//! `NetTelemetry::report` — so their reports are equal field for field.

use crate::packet::{PacketClass, PacketHeader};
use crate::stats::NetStats;
use crate::topology::Mesh;
use crate::types::{Direction, NodeId};
use serde::{Deserialize, Serialize};

/// Number of log2 latency buckets. Bucket 0 counts zero-cycle latencies,
/// bucket `i` (for `1 <= i < 31`) counts latencies in `[2^(i-1), 2^i)`,
/// and the last bucket absorbs everything at or above `2^30` cycles.
pub(crate) const HIST_BUCKETS: usize = 32;

/// A log2-bucketed latency histogram with a fixed, allocation-free
/// footprint.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Bucket counts; see `HIST_BUCKETS` for the bucket boundaries.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; HIST_BUCKETS] }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index a latency value falls into.
    pub(crate) fn bucket_of(latency: u64) -> usize {
        if latency == 0 {
            0
        } else {
            ((64 - latency.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: u64) {
        self.buckets[Self::bucket_of(latency)] += 1;
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds another histogram's counts into this one.
    pub(crate) fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// Latency histograms kept inside [`crate::NetStats`]: total (creation to
/// tail ejection) and network (head injection to tail ejection) latency,
/// per protocol class (`[request, reply]`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistograms {
    /// Total-latency histograms per class.
    pub total: [LatencyHistogram; 2],
    /// Network-latency histograms per class.
    pub network: [LatencyHistogram; 2],
}

impl LatencyHistograms {
    /// Adds another set of histograms into this one.
    pub(crate) fn merge(&mut self, other: &LatencyHistograms) {
        for c in 0..2 {
            self.total[c].merge(&other.total[c]);
            self.network[c].merge(&other.network[c]);
        }
    }
}

/// Which packets the flight recorder captures. `None` fields are
/// wildcards; a packet must match every set field.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ArmSpec {
    /// Record only packets whose source *or* destination is this node.
    pub node: Option<NodeId>,
    /// Record only packets of this class.
    pub class: Option<PacketClass>,
}

impl ArmSpec {
    /// `true` if a packet with this header should be recorded.
    pub fn matches(&self, hdr: &PacketHeader) -> bool {
        if let Some(n) = self.node {
            if hdr.src != n && hdr.dst != n {
                return false;
            }
        }
        if let Some(c) = self.class {
            if hdr.class != c {
                return false;
            }
        }
        true
    }
}

/// Telemetry configuration handed to
/// [`Interconnect::enable_telemetry`](crate::Interconnect::enable_telemetry).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TelemetryConfig {
    /// Capacity of the flight-recorder ring buffer (events kept; older
    /// events are overwritten once full). Zero disables the recorder.
    pub flight_capacity: usize,
    /// Which packets the flight recorder captures.
    pub arm: ArmSpec,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { flight_capacity: 4096, arm: ArmSpec::default() }
    }
}

/// One per-hop flit event captured by the flight recorder.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Packet id ([`PacketHeader::id`]).
    pub packet: u64,
    /// Class index (`0` request, `1` reply).
    pub class: u8,
    /// Flit sequence number within the packet (`0` = head).
    pub seq: u16,
    /// Router the flit departed from.
    pub node: u64,
    /// Output port taken: `0..4` are N/E/S/W links, `4+` ejection ports.
    pub out_port: u8,
    /// Cycle of the switch grant.
    pub cycle: u64,
}

/// A bounded ring buffer of [`FlightEvent`]s. The buffer is allocated
/// once at arm time; recording never allocates.
#[derive(Clone, Debug)]
pub(crate) struct FlightRecorder {
    events: Vec<FlightEvent>,
    cap: usize,
    /// Overwrite position once the ring is full.
    next: usize,
    /// Events ever offered and accepted (including overwritten ones).
    total: u64,
    arm: ArmSpec,
}

impl FlightRecorder {
    /// A recorder keeping at most `cap` events matching `arm`.
    pub fn new(cap: usize, arm: ArmSpec) -> Self {
        FlightRecorder { events: Vec::with_capacity(cap), cap, next: 0, total: 0, arm }
    }

    /// `true` if a packet with this header should be recorded.
    pub(crate) fn armed_for(&self, hdr: &PacketHeader) -> bool {
        self.cap > 0 && self.arm.matches(hdr)
    }

    /// Records an event (caller has already checked [`Self::armed_for`]).
    pub fn record(&mut self, ev: FlightEvent) {
        self.total += 1;
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.next..]);
        out.extend_from_slice(&self.events[..self.next]);
        out
    }

    /// Events that were overwritten by newer ones.
    pub fn dropped(&self) -> u64 {
        self.total - self.events.len() as u64
    }
}

/// Live telemetry state owned by a physical network (either engine)
/// when enabled: all buffers are sized at construction and never grow.
#[derive(Clone, Debug)]
pub(crate) struct NetTelemetry {
    num_vcs: usize,
    /// Flits carried per `[(node * 4 + dir) * num_vcs + vc]`.
    link_vc_flits: Vec<u64>,
    /// Per-node integral of buffered flits over sampled cycles.
    occupancy_sum: Vec<u64>,
    /// Cycles sampled (denominator for mean occupancy).
    occupancy_cycles: u64,
    /// The per-hop flit ring buffer.
    pub flight: FlightRecorder,
}

impl NetTelemetry {
    /// Allocates telemetry state for `nodes` routers with `num_vcs` VCs.
    pub fn new(nodes: usize, num_vcs: usize, cfg: TelemetryConfig) -> Self {
        NetTelemetry {
            num_vcs,
            link_vc_flits: vec![0; nodes * 4 * num_vcs],
            occupancy_sum: vec![0; nodes],
            occupancy_cycles: 0,
            flight: FlightRecorder::new(cfg.flight_capacity, cfg.arm),
        }
    }

    /// The switch-grant hook: counts a flit leaving `node` on a link
    /// (`out_port < 4`; ejection ports have no link) and offers the hop
    /// to the flight recorder.
    pub(crate) fn record_grant(
        &mut self,
        hdr: &PacketHeader,
        seq: u16,
        node: NodeId,
        out_port: usize,
        out_vc: u8,
        now: u64,
    ) {
        if out_port < 4 {
            self.count_link_flit(node, out_port, out_vc);
        }
        if self.flight.armed_for(hdr) {
            self.flight.record(FlightEvent {
                packet: hdr.id,
                class: hdr.class.index() as u8,
                seq,
                node: node as u64,
                out_port: out_port as u8,
                cycle: now,
            });
        }
    }

    /// Counts one flit leaving `node` toward `dir` on downstream VC `vc`.
    pub(crate) fn count_link_flit(&mut self, node: NodeId, dir: usize, vc: u8) {
        self.link_vc_flits[(node * 4 + dir) * self.num_vcs + vc as usize] += 1;
    }

    /// Accumulates one occupancy sample for `node`.
    pub(crate) fn add_occupancy_sample(&mut self, node: NodeId, buffered: u64) {
        self.occupancy_sum[node] += buffered;
    }

    /// Advances the occupancy sampling clock by one cycle.
    pub(crate) fn tick_occupancy(&mut self) {
        self.occupancy_cycles += 1;
    }

    /// Flits carried by the `(node, dir)` link, summed over VCs.
    pub(crate) fn link_flits(&self, node: NodeId, dir: usize) -> u64 {
        let base = (node * 4 + dir) * self.num_vcs;
        self.link_vc_flits[base..base + self.num_vcs].iter().sum()
    }

    /// Flits carried by the `(node, dir)` link on one VC.
    pub(crate) fn link_vc_flits(&self, node: NodeId, dir: usize, vc: u8) -> u64 {
        self.link_vc_flits[(node * 4 + dir) * self.num_vcs + vc as usize]
    }

    /// Mean buffered flits at `node` per sampled cycle.
    pub fn avg_occupancy(&self, node: NodeId) -> f64 {
        if self.occupancy_cycles == 0 {
            return 0.0;
        }
        self.occupancy_sum[node] as f64 / self.occupancy_cycles as f64
    }

    /// Builds the serializable snapshot of one network's telemetry,
    /// labeled `label` (`net`, `request`, `reply`). Both engines call
    /// this with their own mesh and statistics, so a report's shape and
    /// arithmetic cannot differ between them.
    pub fn report(&self, label: &str, mesh: &Mesh, stats: &NetStats) -> TelemetryReport {
        let radix = mesh.radix();
        let cycles = stats.cycles;
        let mut links = Vec::new();
        let mut heatmap = vec![vec![0.0f64; radix]; radix];
        for node in 0..mesh.len() {
            let coord = mesh.coord(node);
            let mut util_sum = 0.0;
            let mut degree = 0u32;
            for dir in Direction::ALL {
                if mesh.neighbor(node, dir).is_none() {
                    continue;
                }
                let flits = self.link_flits(node, dir.index());
                let utilization = if cycles == 0 { 0.0 } else { flits as f64 / cycles as f64 };
                util_sum += utilization;
                degree += 1;
                links.push(LinkRecord {
                    node: node as u64,
                    x: coord.x,
                    y: coord.y,
                    dir: dir_label(dir).to_string(),
                    flits,
                    vc_flits: (0..self.num_vcs as u8)
                        .map(|vc| self.link_vc_flits(node, dir.index(), vc))
                        .collect(),
                    utilization,
                });
            }
            heatmap[coord.y as usize][coord.x as usize] =
                if degree == 0 { 0.0 } else { util_sum / degree as f64 };
        }
        TelemetryReport {
            label: label.to_string(),
            radix: radix as u64,
            cycles,
            hist: stats.hist.unwrap_or_default(),
            links,
            heatmap,
            avg_occupancy: (0..mesh.len()).map(|node| self.avg_occupancy(node)).collect(),
            flight: self.flight.events(),
            flight_dropped: self.flight.dropped(),
        }
    }
}

/// One physical link's traffic in a [`TelemetryReport`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkRecord {
    /// Source node of the link.
    pub node: u64,
    /// Source column.
    pub x: u16,
    /// Source row.
    pub y: u16,
    /// Link direction (`N`/`E`/`S`/`W`).
    pub dir: String,
    /// Total flits carried.
    pub flits: u64,
    /// Flits carried per VC.
    pub vc_flits: Vec<u64>,
    /// Flits per cycle (1.0 = fully utilized).
    pub utilization: f64,
}

/// A serializable snapshot of one network's telemetry, built by
/// `NetTelemetry::report`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Which network this report describes (`net`, `request`, `reply`).
    pub label: String,
    /// Mesh radix `k`; the mesh has `k * k` nodes.
    pub radix: u64,
    /// Cycles the network simulated.
    pub cycles: u64,
    /// Latency histograms per class (total + network latency).
    pub hist: LatencyHistograms,
    /// Every physical link's traffic, in node-major order.
    pub links: Vec<LinkRecord>,
    /// Mesh-shaped utilization grid: `heatmap[y][x]` is the mean
    /// utilization of node `(x, y)`'s outgoing links.
    pub heatmap: Vec<Vec<f64>>,
    /// Mean buffered flits per node per cycle, in node order.
    pub avg_occupancy: Vec<f64>,
    /// Flight-recorder sample, oldest first.
    pub flight: Vec<FlightEvent>,
    /// Flight events overwritten because the ring filled up.
    pub flight_dropped: u64,
}

impl TelemetryReport {
    /// Serializes the report to pretty JSON.
    ///
    /// # Panics
    ///
    /// Never panics: the report is plain data.
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }
}

/// Helper for report construction: direction label used in link records.
pub fn dir_label(dir: Direction) -> &'static str {
    match dir {
        Direction::North => "N",
        Direction::East => "E",
        Direction::South => "S",
        Direction::West => "W",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Bucket i >= 1 spans [2^(i-1), 2^i).
        for i in 1..HIST_BUCKETS - 1 {
            assert_eq!(LatencyHistogram::bucket_of(1 << (i - 1)), i, "lo of bucket {i}");
            assert_eq!(LatencyHistogram::bucket_of((1 << i) - 1), i, "hi-1 of bucket {i}");
        }
    }

    #[test]
    fn histogram_records_counts_and_merges() {
        let mut h = LatencyHistogram::new();
        for lat in [0, 1, 2, 3, 100, 100] {
            h.record(lat);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[LatencyHistogram::bucket_of(100)], 2);
        let mut other = LatencyHistogram::new();
        other.record(100);
        h.merge(&other);
        assert_eq!(h.count(), 7);
        assert_eq!(h.buckets[LatencyHistogram::bucket_of(100)], 3);
    }

    #[test]
    fn flight_ring_wraps_and_preserves_order() {
        let mut fr = FlightRecorder::new(3, ArmSpec::default());
        let ev =
            |cycle| FlightEvent { packet: cycle, class: 0, seq: 0, node: 0, out_port: 0, cycle };
        for c in 0..5 {
            fr.record(ev(c));
        }
        assert_eq!(fr.dropped(), 2);
        let cycles: Vec<u64> = fr.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "ring keeps the newest, oldest first");
    }

    #[test]
    fn arm_spec_filters_by_node_and_class() {
        let req = Packet::request(3, 7, 8, 0).header;
        let rep = Packet::reply(7, 3, 64, 0).header;
        let all = ArmSpec::default();
        assert!(all.matches(&req) && all.matches(&rep));
        let node3 = ArmSpec { node: Some(3), class: None };
        assert!(node3.matches(&req), "src match");
        assert!(node3.matches(&rep), "dst match");
        assert!(!ArmSpec { node: Some(5), class: None }.matches(&req));
        let reply_only = ArmSpec { node: None, class: Some(PacketClass::Reply) };
        assert!(!reply_only.matches(&req));
        assert!(reply_only.matches(&rep));
        let both = ArmSpec { node: Some(3), class: Some(PacketClass::Request) };
        assert!(both.matches(&req));
        assert!(!both.matches(&rep), "class mismatch wins even when node matches");
    }

    #[test]
    fn zero_capacity_recorder_is_disarmed() {
        let fr = FlightRecorder::new(0, ArmSpec::default());
        assert!(!fr.armed_for(&Packet::request(0, 1, 8, 0).header));
    }

    #[test]
    fn net_telemetry_counts_links_and_occupancy() {
        let mut t = NetTelemetry::new(4, 2, TelemetryConfig::default());
        t.count_link_flit(1, 2, 0);
        t.count_link_flit(1, 2, 0);
        t.count_link_flit(1, 2, 1);
        assert_eq!(t.link_flits(1, 2), 3);
        assert_eq!(t.link_vc_flits(1, 2, 0), 2);
        assert_eq!(t.link_vc_flits(1, 2, 1), 1);
        assert_eq!(t.link_flits(0, 0), 0);
        t.tick_occupancy();
        t.add_occupancy_sample(1, 6);
        t.tick_occupancy();
        assert!((t.avg_occupancy(1) - 3.0).abs() < 1e-12);
        assert_eq!(t.avg_occupancy(0), 0.0);
    }

    #[test]
    fn report_json_roundtrip() {
        let report = TelemetryReport {
            label: "net".into(),
            radix: 2,
            cycles: 10,
            hist: LatencyHistograms::default(),
            links: vec![LinkRecord {
                node: 0,
                x: 0,
                y: 0,
                dir: "E".into(),
                flits: 5,
                vc_flits: vec![3, 2],
                utilization: 0.5,
            }],
            heatmap: vec![vec![0.5, 0.0], vec![0.0, 0.0]],
            avg_occupancy: vec![0.0; 4],
            flight: vec![FlightEvent {
                packet: 1,
                class: 1,
                seq: 0,
                node: 0,
                out_port: 1,
                cycle: 3,
            }],
            flight_dropped: 0,
        };
        let back =
            TelemetryReport::from_value(&serde::json::parse(&report.to_json()).unwrap()).unwrap();
        assert_eq!(back, report);
    }
}
