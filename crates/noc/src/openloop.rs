//! Open-loop many-to-few-to-many traffic harness (paper Figure 21).
//!
//! Compute nodes inject single-flit read requests at a configurable rate
//! toward the few MC nodes (uniform-random or hotspot selection); each MC
//! responds to every request with a four-flit read reply. Latency is
//! reported over packets *generated* during the measurement window,
//! including source queueing, so the curves exhibit the classic saturation
//! blow-up as offered load approaches network capacity.
//!
//! The harness comes in two shapes over one core: [`run_open_loop`] /
//! [`run_open_loop_on`] drive a single probe to completion, while
//! [`OpenLoopProbe`] exposes the same per-cycle loop one `tick` at a
//! time for callers that instrument the network between cycles.

use crate::config::NetworkConfig;
use crate::interconnect::{build_mesh, Interconnect};
use crate::packet::Packet;
use crate::types::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Destination selection among the MC nodes.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Each request picks an MC uniformly at random (1/m each).
    UniformRandom,
    /// A fraction of requests target one hot MC; the rest are uniform over
    /// the others. The paper uses 20% to one of eight MCs.
    Hotspot {
        /// Index (into the MC list) of the hot MC.
        hot: usize,
        /// Fraction of requests sent to the hot MC.
        fraction: f64,
    },
}

/// Open-loop experiment configuration.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Network under test. Its `mc_nodes` are the few destinations.
    pub net: NetworkConfig,
    /// Offered load per compute node, in flits/cycle (requests are one
    /// flit, so this equals packets/cycle/node).
    pub injection_rate: f64,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Warm-up cycles before measurement.
    pub warmup: u64,
    /// Measurement window in cycles.
    pub measure: u64,
    /// Extra cycles allowed for measured packets to drain.
    pub drain: u64,
    /// Request payload bytes (default 8: one flit at 16-byte channels).
    pub request_bytes: u32,
    /// Reply payload bytes (default 64: four flits at 16-byte channels).
    pub reply_bytes: u32,
    /// Traffic RNG seed.
    pub seed: u64,
}

impl OpenLoopConfig {
    /// Defaults matching Figure 21 for a given network configuration and
    /// injection rate.
    pub fn new(net: NetworkConfig, injection_rate: f64, pattern: TrafficPattern) -> Self {
        OpenLoopConfig {
            net,
            injection_rate,
            pattern,
            warmup: 10_000,
            measure: 20_000,
            drain: 30_000,
            request_bytes: 8,
            reply_bytes: 64,
            seed: 0x0f21,
        }
    }

    /// `true` when a packet generated at cycle `now` belongs to the
    /// measurement window: **inclusive** of `warmup` (the first measured
    /// cycle), **exclusive** of `warmup + measure` (the first drain
    /// cycle). The single source of truth for measurement membership —
    /// both the generation and the throughput-accounting paths of
    /// [`run_open_loop`] go through here, so the boundary semantics
    /// cannot drift apart.
    pub(crate) fn in_measurement_window(&self, now: u64) -> bool {
        (self.warmup..self.warmup + self.measure).contains(&now)
    }
}

/// Result of one open-loop run at one injection rate.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopResult {
    /// Offered load (flits/cycle/compute-node), as configured.
    pub offered: f64,
    /// Accepted throughput over the measurement window, in ejected flits
    /// per cycle per node (all nodes, both classes).
    pub accepted: f64,
    /// Flits ejected *during* the measurement window per cycle per node,
    /// regardless of when they were generated — the classic
    /// accepted-throughput metric. Unlike [`accepted`](Self::accepted)
    /// (which follows window-generated packets into the drain and can
    /// transiently exceed sustainable rates past saturation), this is a
    /// steady-state rate bounded by the fabric's physical capacity, so it
    /// is the quantity the static saturation bound (`tenoc-verify`'s
    /// `LoadReport::accepted_bound`) is validated against.
    pub ejection_rate: f64,
    /// Like [`ejection_rate`](Self::ejection_rate) but in payload *bytes*
    /// per cycle per node, summed from each ejected packet's true size
    /// rather than its flit count. Flit counts depend on the channel
    /// width of the fabric that carried the packet, so this is the
    /// throughput measure that stays comparable across fabrics of
    /// different channel widths (including the half-width slices of a
    /// double network).
    pub ejection_bytes_rate: f64,
    /// Mean latency of measured packets (generation to ejection),
    /// requests and replies combined.
    pub avg_latency: f64,
    /// Mean measured request latency.
    pub avg_request_latency: f64,
    /// Mean measured reply latency.
    pub avg_reply_latency: f64,
    /// Fraction of measured packets that drained before the deadline.
    /// Values below ~0.99 indicate the network is past saturation.
    pub delivered_fraction: f64,
}

impl OpenLoopResult {
    /// `true` when the run shows saturation (undelivered measured packets
    /// or very large mean latency).
    pub fn saturated(&self) -> bool {
        self.delivered_fraction < 0.99 || self.avg_latency > 500.0
    }
}

/// Runs one open-loop simulation on `cfg.net` as a single mesh.
///
/// # Panics
///
/// Panics if the configuration has no MC nodes or fails validation.
pub fn run_open_loop(cfg: &OpenLoopConfig) -> OpenLoopResult {
    run_open_loop_on(cfg, &mut *build_mesh(cfg.net.clone()))
}

/// Runs one open-loop simulation on a caller-provided interconnect, so
/// the caller chooses the fabric (a double network built from `cfg.net`
/// is probed on its actual slices) and can observe it afterwards — arm
/// telemetry beforehand ([`Interconnect::enable_telemetry`]) or read
/// [`Interconnect::link_loads`] after the run. The interconnect must be
/// freshly built from `cfg.net` (the traffic generator addresses
/// `cfg.net`'s compute and MC nodes).
///
/// # Panics
///
/// Panics if the configuration has no MC nodes.
pub fn run_open_loop_on(cfg: &OpenLoopConfig, net: &mut dyn Interconnect) -> OpenLoopResult {
    let mut core = ProbeCore::new(cfg);
    while !core.done() {
        core.tick(cfg, net);
    }
    core.result(cfg)
}

/// The traffic-generation and accounting state of one open-loop probe,
/// independent of which [`Interconnect`] implementation it drives. One
/// [`tick`](ProbeCore::tick) is exactly one loop iteration of
/// [`run_open_loop_on`].
struct ProbeCore {
    mcs: Vec<NodeId>,
    compute: Vec<NodeId>,
    nodes: usize,
    rng: SmallRng,
    /// Unbounded source queues (standard open-loop methodology).
    src_q: Vec<VecDeque<Packet>>,
    reply_q: Vec<VecDeque<Packet>>,
    now: u64,
    total: u64,
    meas_end: u64,
    generated_measured: u64,
    delivered_measured: u64,
    lat_sum: [u64; 2],
    lat_cnt: [u64; 2],
    ejected_flits_window: u64,
    ejected_flits_in_window: u64,
    ejected_bytes_in_window: u64,
}

impl ProbeCore {
    fn new(cfg: &OpenLoopConfig) -> Self {
        assert!(!cfg.net.mc_nodes.is_empty(), "open-loop traffic needs MC nodes");
        let mcs = cfg.net.mc_nodes.clone();
        let nodes = cfg.net.mesh.len();
        let compute: Vec<NodeId> = (0..nodes).filter(|n| !mcs.contains(n)).collect();
        ProbeCore {
            mcs,
            compute,
            nodes,
            rng: SmallRng::seed_from_u64(cfg.seed),
            src_q: vec![VecDeque::new(); nodes],
            reply_q: vec![VecDeque::new(); nodes],
            now: 0,
            total: cfg.warmup + cfg.measure + cfg.drain,
            meas_end: cfg.warmup + cfg.measure,
            generated_measured: 0,
            delivered_measured: 0,
            lat_sum: [0; 2],
            lat_cnt: [0; 2],
            ejected_flits_window: 0,
            ejected_flits_in_window: 0,
            ejected_bytes_in_window: 0,
        }
    }

    fn done(&self) -> bool {
        self.now >= self.total
    }

    /// One cycle: generate, drain source queues, service MCs, consume
    /// replies, step the network.
    fn tick(&mut self, cfg: &OpenLoopConfig, net: &mut dyn Interconnect) {
        let now = self.now;
        // Generate new requests at the compute nodes.
        if now < self.meas_end {
            for &c in &self.compute {
                if self.rng.gen_bool(cfg.injection_rate.min(1.0)) {
                    let dst = pick_mc(&self.mcs, cfg.pattern, &mut self.rng);
                    let mut p = Packet::request(c, dst, cfg.request_bytes, 0);
                    p.header.created = now;
                    self.src_q[c].push_back(p);
                    if cfg.in_measurement_window(now) {
                        self.generated_measured += 1;
                        // Mark measured packets via the tag.
                        self.src_q[c].back_mut().unwrap().header.tag = 1;
                    }
                }
            }
        }
        // Drain source queues into the network.
        for &c in &self.compute {
            while let Some(&p) = self.src_q[c].front() {
                if net.try_inject(c, p).is_ok() {
                    self.src_q[c].pop_front();
                } else {
                    break;
                }
            }
        }
        // MCs: service ejected requests, emit replies; drain reply queues.
        for &mc in &self.mcs {
            while let Some(req) = net.pop(mc) {
                let mut rep = Packet::reply(mc, req.header.src, cfg.reply_bytes, req.header.tag);
                // Stamped at the service cycle, matching the request
                // convention (created == first cycle the packet can
                // inject); stamping now+1 would credit replies one cycle
                // of latency they never paid.
                rep.header.created = now;
                self.reply_q[mc].push_back(rep);
                if cfg.in_measurement_window(now) {
                    self.ejected_flits_in_window += req.header.flits as u64;
                    self.ejected_bytes_in_window += req.header.size_bytes as u64;
                }
                if req.header.tag == 1 {
                    let l = req.total_latency();
                    self.lat_sum[0] += l;
                    self.lat_cnt[0] += 1;
                    if cfg.in_measurement_window(req.header.created) {
                        self.ejected_flits_window += req.header.flits as u64;
                    }
                }
            }
            while let Some(&p) = self.reply_q[mc].front() {
                if net.try_inject(mc, p).is_ok() {
                    self.reply_q[mc].pop_front();
                } else {
                    break;
                }
            }
        }
        // Compute nodes: consume replies.
        for &c in &self.compute {
            while let Some(rep) = net.pop(c) {
                if cfg.in_measurement_window(now) {
                    self.ejected_flits_in_window += rep.header.flits as u64;
                    self.ejected_bytes_in_window += rep.header.size_bytes as u64;
                }
                if rep.header.tag == 1 {
                    let l = rep.total_latency();
                    self.lat_sum[1] += l;
                    self.lat_cnt[1] += 1;
                    self.delivered_measured += 1;
                    self.ejected_flits_window += rep.header.flits as u64;
                }
            }
        }
        net.step();
        self.now += 1;
    }

    fn result(&self, cfg: &OpenLoopConfig) -> OpenLoopResult {
        let total_lat: u64 = self.lat_sum.iter().sum();
        let total_cnt: u64 = self.lat_cnt.iter().sum();
        OpenLoopResult {
            offered: cfg.injection_rate,
            accepted: self.ejected_flits_window as f64 / cfg.measure as f64 / self.nodes as f64,
            ejection_rate: self.ejected_flits_in_window as f64
                / cfg.measure as f64
                / self.nodes as f64,
            ejection_bytes_rate: self.ejected_bytes_in_window as f64
                / cfg.measure as f64
                / self.nodes as f64,
            avg_latency: if total_cnt == 0 {
                f64::INFINITY
            } else {
                total_lat as f64 / total_cnt as f64
            },
            avg_request_latency: if self.lat_cnt[0] == 0 {
                f64::INFINITY
            } else {
                self.lat_sum[0] as f64 / self.lat_cnt[0] as f64
            },
            avg_reply_latency: if self.lat_cnt[1] == 0 {
                f64::INFINITY
            } else {
                self.lat_sum[1] as f64 / self.lat_cnt[1] as f64
            },
            delivered_fraction: if self.generated_measured == 0 {
                1.0
            } else {
                self.delivered_measured as f64 / self.generated_measured as f64
            },
        }
    }
}

/// One open-loop probe bundled with the network it drives, advanced one
/// cycle at a time. The network must be freshly built from `cfg.net`
/// (the traffic generator addresses `cfg.net`'s compute and MC nodes).
/// Ticking a probe to completion equals [`run_open_loop_on`].
pub struct OpenLoopProbe<I> {
    cfg: OpenLoopConfig,
    core: ProbeCore,
    net: I,
}

impl<I: Interconnect> OpenLoopProbe<I> {
    /// Wraps a probe around a freshly-built network.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no MC nodes.
    pub fn new(cfg: OpenLoopConfig, net: I) -> Self {
        let core = ProbeCore::new(&cfg);
        OpenLoopProbe { cfg, core, net }
    }

    /// `true` once warmup + measurement + drain have all elapsed.
    pub fn done(&self) -> bool {
        self.core.done()
    }

    /// Advances the probe by one cycle (a no-op once done).
    pub fn tick(&mut self) {
        if !self.core.done() {
            self.core.tick(&self.cfg, &mut self.net);
        }
    }

    /// The probe's result so far (final once [`done`](Self::done)).
    pub fn result(&self) -> OpenLoopResult {
        self.core.result(&self.cfg)
    }

    /// The network under test (e.g. to read link loads after the run).
    pub fn network(&self) -> &I {
        &self.net
    }
}

fn pick_mc<R: Rng>(mcs: &[NodeId], pattern: TrafficPattern, rng: &mut R) -> NodeId {
    match pattern {
        TrafficPattern::UniformRandom => mcs[rng.gen_range(0..mcs.len())],
        TrafficPattern::Hotspot { hot, fraction } => {
            if rng.gen_bool(fraction) {
                mcs[hot]
            } else {
                let others: usize = rng.gen_range(0..mcs.len() - 1);
                let idx = if others >= hot { others + 1 } else { others };
                mcs[idx]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ArenaNetwork;
    use crate::config::NetworkConfig;
    use crate::network::Network;

    fn quick_cfg(rate: f64) -> OpenLoopConfig {
        let mut c = OpenLoopConfig::new(
            NetworkConfig::baseline_mesh(6),
            rate,
            TrafficPattern::UniformRandom,
        );
        c.warmup = 500;
        c.measure = 1500;
        c.drain = 3000;
        c
    }

    #[test]
    fn low_load_latency_near_zero_load() {
        let r = run_open_loop(&quick_cfg(0.005));
        assert!(!r.saturated(), "0.005 flits/cycle/node must be below saturation");
        // Zero-load-ish: a handful of hops at 5 cycles plus serialization.
        assert!(r.avg_latency > 10.0 && r.avg_latency < 80.0, "latency {}", r.avg_latency);
        assert!(r.delivered_fraction > 0.99);
    }

    #[test]
    fn latency_grows_with_load() {
        let lo = run_open_loop(&quick_cfg(0.005));
        let hi = run_open_loop(&quick_cfg(0.05));
        assert!(
            hi.avg_latency > lo.avg_latency,
            "latency must rise with load: {} vs {}",
            lo.avg_latency,
            hi.avg_latency
        );
    }

    #[test]
    fn extreme_load_saturates() {
        let r = run_open_loop(&quick_cfg(0.5));
        assert!(r.saturated(), "0.5 flits/cycle/node is far past many-to-few capacity");
    }

    #[test]
    fn hotspot_pick_respects_fraction() {
        let mcs: Vec<NodeId> = (0..8).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let mut hot_hits = 0;
        for _ in 0..n {
            let mc = pick_mc(&mcs, TrafficPattern::Hotspot { hot: 2, fraction: 0.2 }, &mut rng);
            if mc == 2 {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.02, "hot fraction {frac}");
    }

    /// Satellite regression: pin the measurement-window boundaries so
    /// inclusive/exclusive semantics can't drift. A packet generated
    /// exactly at `warmup` is measured; one generated exactly at
    /// `warmup + measure` is not.
    #[test]
    fn measurement_window_boundaries_are_pinned() {
        let cfg = quick_cfg(0.01); // warmup 500, measure 1500
        assert!(!cfg.in_measurement_window(cfg.warmup - 1), "last warm-up cycle is unmeasured");
        assert!(cfg.in_measurement_window(cfg.warmup), "first measured cycle is warmup itself");
        assert!(cfg.in_measurement_window(cfg.warmup + cfg.measure - 1), "last measured cycle");
        assert!(
            !cfg.in_measurement_window(cfg.warmup + cfg.measure),
            "a packet generated at warmup + measure belongs to the drain, not the window"
        );
    }

    /// The window helper is the arbiter for a degenerate zero-length
    /// window: nothing is ever measured.
    #[test]
    fn zero_length_window_measures_nothing() {
        let mut cfg = quick_cfg(0.01);
        cfg.measure = 0;
        assert!(!cfg.in_measurement_window(cfg.warmup));
    }

    fn results_eq(a: &OpenLoopResult, b: &OpenLoopResult) -> bool {
        a.offered == b.offered
            && a.accepted == b.accepted
            && a.ejection_rate == b.ejection_rate
            && a.avg_latency == b.avg_latency
            && a.avg_request_latency == b.avg_request_latency
            && a.avg_reply_latency == b.avg_reply_latency
            && a.delivered_fraction == b.delivered_fraction
    }

    /// The per-cycle probe is the same loop as the monolithic runner:
    /// ticking one probe to completion reproduces `run_open_loop`
    /// bit for bit.
    #[test]
    fn probe_matches_monolithic_runner() {
        let cfg = quick_cfg(0.02);
        let solo = run_open_loop(&cfg);
        let mut probe = OpenLoopProbe::new(cfg.clone(), Network::new(cfg.net.clone()));
        while !probe.done() {
            probe.tick();
        }
        assert!(results_eq(&solo, &probe.result()), "{solo:?} vs {:?}", probe.result());
    }

    /// The production engine equals the per-router oracle under
    /// open-loop traffic, across the saturation knee.
    #[test]
    fn arena_probe_matches_oracle_probe() {
        for rate in [0.01, 0.03, 0.06] {
            let cfg = quick_cfg(rate);
            assert!(ArenaNetwork::supports(&cfg.net), "baseline mesh is arena-eligible");
            let oracle = run_open_loop_on(&cfg, &mut Network::new(cfg.net.clone()));
            let arena = run_open_loop_on(&cfg, &mut ArenaNetwork::new(cfg.net.clone()));
            assert!(results_eq(&oracle, &arena), "arena diverged: {oracle:?} vs {arena:?}");
        }
    }
}
