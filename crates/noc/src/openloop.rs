//! Open-loop many-to-few-to-many traffic harness (paper Figure 21).
//!
//! Compute nodes inject single-flit read requests at a configurable rate
//! toward the few MC nodes (uniform-random or hotspot selection); each MC
//! responds to every request with a four-flit read reply. Latency is
//! reported over packets *generated* during the measurement window,
//! including source queueing, so the curves exhibit the classic saturation
//! blow-up as offered load approaches network capacity.
//!
//! The harness comes in four shapes over one core: [`run_open_loop_on`]
//! drives a single probe to completion on a fabric the caller built,
//! [`run_open_loop_unless`] does the same but stops as soon as a sound
//! upper bound shows the probe cannot eject more than a given rate,
//! [`latency_curve`] sweeps offered load up to the first saturated point,
//! and [`OpenLoopProbe`] exposes the same per-cycle loop one `tick` at a
//! time for callers that instrument the network between cycles.

use crate::config::NetworkConfig;
use crate::interconnect::Interconnect;
use crate::packet::Packet;
use crate::types::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::OnceCell;
use std::collections::VecDeque;

/// Destination selection among the MC nodes.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Each request picks an MC uniformly at random (1/m each).
    UniformRandom,
    /// A fraction of requests target one hot MC; the rest are uniform over
    /// the others (with a single MC, every request goes to it). The paper
    /// uses 20% to one of eight MCs.
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
    /// [`run_open_loop_on`] go through here, so the boundary semantics
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
    /// or very large mean latency): fig. 21's display rule, where
    /// [`latency_curve`] stops. It is looser than [`keeps_up`](Self::keeps_up)
    /// (a run whose backlog grows can still drain inside a long window at
    /// a moderate latency), but it is the rule `tenoc openloop` and fig.
    /// 21's rows are printed under, so moving the curves to `keeps_up`
    /// would change those rows.
    pub fn saturated(&self) -> bool {
        self.delivered_fraction < 0.99 || self.avg_latency > 500.0
    }

    /// `true` when the fabric kept up with the offered load: the flits
    /// generated in the window were also moved in the window, so no
    /// backlog built up. At least 99 % of the measured packets drained,
    /// and the in-window [`ejection_rate`](Self::ejection_rate) reached
    /// 98 % of the window-generated traffic
    /// ([`accepted`](Self::accepted)). Only such a run delivers the
    /// offered matrix, so this is the one filter before a measured
    /// throughput is held against a static bound.
    pub fn keeps_up(&self) -> bool {
        self.delivered_fraction >= 0.99 && self.ejection_rate >= 0.98 * self.accepted
    }
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
/// Panics if the configuration has no MC nodes, an `injection_rate` that
/// is negative or not finite, or a hotspot pattern out of range.
pub fn run_open_loop_on(cfg: &OpenLoopConfig, net: &mut dyn Interconnect) -> OpenLoopResult {
    let mut core = ProbeCore::new(cfg);
    while !core.done() {
        core.tick(cfg, net);
    }
    core.result(cfg)
}

/// Runs one open-loop probe like [`run_open_loop_on`] unless it provably
/// cannot eject more than `beat` bytes/cycle/node in its window: returns
/// `None` as soon as [`OpenLoopProbe::ejection_bytes_bound`]'s bound is
/// `<= beat`, otherwise exactly the result `run_open_loop_on` returns.
/// The bound is checked before every cycle up to `warmup`: it is
/// constant through the window, so a check inside it could not cut.
///
/// # Panics
///
/// As [`run_open_loop_on`].
pub fn run_open_loop_unless(
    cfg: &OpenLoopConfig,
    net: &mut dyn Interconnect,
    beat: f64,
) -> Option<OpenLoopResult> {
    let mut core = ProbeCore::new(cfg);
    let planned = core.planned_requests(cfg);
    while !core.done() {
        if core.now <= cfg.warmup && core.bytes_bound(cfg, planned) <= beat {
            return None;
        }
        core.tick(cfg, net);
    }
    Some(core.result(cfg))
}

/// A saturating latency curve: one run of `cfg` per rate of `rates`, in
/// order, each on a fresh fabric from `build`, stopping after the first
/// saturated run (which is the last entry when the curve saturates).
///
/// # Panics
///
/// Panics if the configuration has no MC nodes, an `injection_rate` that
/// is negative or not finite, or a hotspot pattern out of range.
pub fn latency_curve(
    cfg: &OpenLoopConfig,
    rates: impl IntoIterator<Item = f64>,
    mut build: impl FnMut() -> Box<dyn Interconnect>,
) -> Vec<OpenLoopResult> {
    let mut curve: Vec<OpenLoopResult> = Vec::new();
    for injection_rate in rates {
        if curve.last().is_some_and(OpenLoopResult::saturated) {
            break;
        }
        let point = OpenLoopConfig { injection_rate, ..cfg.clone() };
        curve.push(run_open_loop_on(&point, &mut *build()));
    }
    curve
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
    /// Requests generated so far.
    generated: u64,
    /// Requests ejected at MCs and replies ejected at compute nodes so
    /// far, inside the window or not.
    requests_ejected: u64,
    replies_ejected: u64,
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
        assert!(
            cfg.injection_rate.is_finite() && cfg.injection_rate >= 0.0,
            "injection_rate {} must be finite and non-negative",
            cfg.injection_rate
        );
        let mcs = cfg.net.mc_nodes.clone();
        if let TrafficPattern::Hotspot { hot, fraction } = cfg.pattern {
            assert!(
                hot < mcs.len() && (0.0..=1.0).contains(&fraction),
                "{:?} on {} MC node(s): `hot` must index an MC and `fraction` lie in [0, 1]",
                cfg.pattern,
                mcs.len()
            );
        }
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
            generated: 0,
            requests_ejected: 0,
            replies_ejected: 0,
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
    /// replies, tick the network.
    fn tick(&mut self, cfg: &OpenLoopConfig, net: &mut dyn Interconnect) {
        let now = self.now;
        if now < self.meas_end {
            // Measured packets are marked via the tag.
            let tag = u64::from(cfg.in_measurement_window(now));
            generate(cfg, &self.compute, &self.mcs, &mut self.rng, |c, dst| {
                let mut p = Packet::request(c, dst, cfg.request_bytes, tag);
                p.header.created = now;
                self.src_q[c].push_back(p);
                self.generated += 1;
                self.generated_measured += tag;
            });
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
                self.requests_ejected += 1;
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
                self.replies_ejected += 1;
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
        net.tick();
        self.now += 1;
    }

    /// A window count as a rate per cycle per node: the one expression
    /// behind every rate of [`OpenLoopResult`] and behind
    /// [`bytes_bound`](Self::bytes_bound), so that for counts `e <= u`
    /// the rates compare the same way after rounding.
    fn per_cycle_node(&self, cfg: &OpenLoopConfig, count: u64) -> f64 {
        count as f64 / cfg.measure as f64 / self.nodes as f64
    }

    /// `G`: the requests generated in `[0, warmup + measure)`, those not
    /// yet generated counted by replaying the rest of the schedule on a
    /// clone of the RNG (generation reads no network state).
    fn planned_requests(&self, cfg: &OpenLoopConfig) -> u64 {
        let mut rng = self.rng.clone();
        let mut planned = self.generated;
        for _ in self.now..self.meas_end {
            generate(cfg, &self.compute, &self.mcs, &mut rng, |_, _| planned += 1);
        }
        planned
    }

    /// An upper bound on the final `ejection_bytes_rate`, given `planned`
    /// = [`planned_requests`](Self::planned_requests). Every byte that can
    /// still eject in the window is a planned request not yet ejected at
    /// an MC or the reply of a planned request not yet ejected at its
    /// core, so the bound never increases, and it is constant through the
    /// window (each ejection there moves its bytes from the outstanding
    /// terms to the ejected one).
    fn bytes_bound(&self, cfg: &OpenLoopConfig, planned: u64) -> f64 {
        let outstanding = u64::from(cfg.request_bytes) * (planned - self.requests_ejected)
            + u64::from(cfg.reply_bytes) * (planned - self.replies_ejected);
        self.per_cycle_node(cfg, self.ejected_bytes_in_window + outstanding)
    }

    fn result(&self, cfg: &OpenLoopConfig) -> OpenLoopResult {
        let total_lat: u64 = self.lat_sum.iter().sum();
        let total_cnt: u64 = self.lat_cnt.iter().sum();
        OpenLoopResult {
            offered: cfg.injection_rate,
            accepted: self.per_cycle_node(cfg, self.ejected_flits_window),
            ejection_rate: self.per_cycle_node(cfg, self.ejected_flits_in_window),
            ejection_bytes_rate: self.per_cycle_node(cfg, self.ejected_bytes_in_window),
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
    /// [`ProbeCore::planned_requests`], replayed on first use.
    planned: OnceCell<u64>,
}

impl<I: Interconnect> OpenLoopProbe<I> {
    /// Wraps a probe around a freshly-built network.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no MC nodes, an `injection_rate` that
    /// is negative or not finite, or a hotspot pattern out of range.
    pub fn new(cfg: OpenLoopConfig, net: I) -> Self {
        let core = ProbeCore::new(&cfg);
        OpenLoopProbe { cfg, core, net, planned: OnceCell::new() }
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

    /// A sound upper bound on the final
    /// [`ejection_bytes_rate`](OpenLoopResult::ejection_bytes_rate): the
    /// bytes already ejected in the window plus, for every request the
    /// generator emits before `warmup + measure`, its bytes if it has not
    /// ejected at its MC and its reply's bytes if that has not ejected at
    /// its core. Never increases from one cycle to the next, and is
    /// constant through the window. The first call replays the
    /// generator's remaining schedule.
    pub fn ejection_bytes_bound(&self) -> f64 {
        let planned = *self.planned.get_or_init(|| self.core.planned_requests(&self.cfg));
        self.core.bytes_bound(&self.cfg, planned)
    }

    /// The network under test (e.g. to read link loads after the run).
    pub fn network(&self) -> &I {
        &self.net
    }
}

/// One cycle of request generation: each compute node, in order, emits a
/// request with probability `injection_rate`, to an MC drawn by the
/// pattern; `emit(src, dst)` receives each. The probe and the replay
/// behind its bound both generate through here.
fn generate(
    cfg: &OpenLoopConfig,
    compute: &[NodeId],
    mcs: &[NodeId],
    rng: &mut SmallRng,
    mut emit: impl FnMut(NodeId, NodeId),
) {
    for &c in compute {
        if rng.gen_bool(cfg.injection_rate.min(1.0)) {
            emit(c, pick_mc(mcs, cfg.pattern, rng));
        }
    }
}

fn pick_mc<R: Rng>(mcs: &[NodeId], pattern: TrafficPattern, rng: &mut R) -> NodeId {
    match pattern {
        TrafficPattern::UniformRandom => mcs[rng.gen_range(0..mcs.len())],
        TrafficPattern::Hotspot { hot, fraction } => {
            if rng.gen_bool(fraction) || mcs.len() == 1 {
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

    fn run(cfg: &OpenLoopConfig) -> OpenLoopResult {
        run_open_loop_on(cfg, &mut ArenaNetwork::new(cfg.net.clone()))
    }

    #[test]
    fn low_load_latency_near_zero_load() {
        let r = run(&quick_cfg(0.005));
        assert!(!r.saturated(), "0.005 flits/cycle/node must be below saturation");
        assert!(r.keeps_up(), "{r:?}");
        // Zero-load-ish: a handful of hops at 5 cycles plus serialization.
        assert!(r.avg_latency > 10.0 && r.avg_latency < 80.0, "latency {}", r.avg_latency);
        assert!(r.delivered_fraction > 0.99);
    }

    #[test]
    fn latency_grows_with_load() {
        let lo = run(&quick_cfg(0.005));
        let hi = run(&quick_cfg(0.05));
        assert!(
            hi.avg_latency > lo.avg_latency,
            "latency must rise with load: {} vs {}",
            lo.avg_latency,
            hi.avg_latency
        );
    }

    #[test]
    fn extreme_load_saturates() {
        let r = run(&quick_cfg(0.5));
        assert!(r.saturated(), "0.5 flits/cycle/node is far past many-to-few capacity");
        assert!(!r.keeps_up(), "{r:?}");
    }

    /// A run can drain every measured packet at a moderate latency and
    /// still fall behind: its window moved fewer flits than it generated,
    /// so it saturates by `keeps_up` but not by `saturated`.
    #[test]
    fn a_growing_backlog_that_drains_does_not_keep_up() {
        let mut cfg = quick_cfg(0.05);
        (cfg.warmup, cfg.measure, cfg.drain) = (800, 3_000, 5_000);
        let r = run(&cfg);
        assert_eq!(r.delivered_fraction, 1.0, "{r:?}");
        assert!(!r.saturated() && !r.keeps_up(), "{r:?}");
    }

    #[test]
    fn latency_curve_stops_after_the_first_saturated_point() {
        let cfg = quick_cfg(0.0);
        let build = || -> Box<dyn Interconnect> { Box::new(ArenaNetwork::new(cfg.net.clone())) };
        let curve = latency_curve(&cfg, [0.005, 0.5, 0.6], build);
        assert_eq!(curve.len(), 2, "the 0.6 point lies past the first saturated one");
        assert!(results_eq(&curve[0], &run(&quick_cfg(0.005))), "each point is one run");
        assert!(!curve[0].saturated() && curve[1].saturated());
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

    /// With one MC, hotspot traffic sends every request to it (the "others"
    /// it would otherwise draw from are empty), and a probe runs through.
    #[test]
    fn hotspot_with_one_mc_sends_every_request_to_it() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hotspot = TrafficPattern::Hotspot { hot: 0, fraction: 0.2 };
        assert!((0..1_000).all(|_| pick_mc(&[7], hotspot, &mut rng) == 7));
        let mut cfg = quick_cfg(0.01);
        cfg.net.mc_nodes.truncate(1);
        cfg.pattern = hotspot;
        let r = run(&cfg);
        assert!(r.delivered_fraction > 0.99, "{r:?}");
    }

    #[test]
    #[should_panic(expected = "on 8 MC node(s): `hot` must index an MC")]
    fn hotspot_index_past_the_mcs_is_refused_up_front() {
        let mut cfg = quick_cfg(0.01);
        cfg.pattern = TrafficPattern::Hotspot { hot: 8, fraction: 0.2 };
        ProbeCore::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "`fraction` lie in [0, 1]")]
    fn hotspot_fraction_outside_the_unit_interval_is_refused_up_front() {
        let mut cfg = quick_cfg(0.01);
        cfg.pattern = TrafficPattern::Hotspot { hot: 0, fraction: 1.5 };
        ProbeCore::new(&cfg);
    }

    /// `gen_bool(rate.min(1.0))` would read a NaN rate as 1.0 and panic
    /// inside `rand` on a negative one: both are refused by name first.
    #[test]
    #[should_panic(expected = "injection_rate NaN must be finite and non-negative")]
    fn nan_injection_rate_is_refused_up_front() {
        ProbeCore::new(&quick_cfg(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "injection_rate -0.01 must be finite and non-negative")]
    fn negative_injection_rate_is_refused_up_front() {
        ProbeCore::new(&quick_cfg(-0.01));
    }

    /// The early-stopping run is the full run whenever it does not cut:
    /// below the final rate it never cuts and returns the same result bit
    /// for bit; above the bound it cuts before the first cycle.
    #[test]
    fn early_stopping_run_is_the_full_run_unless_it_cuts() {
        for rate in [0.01, 0.05] {
            let cfg = quick_cfg(rate);
            let full = run(&cfg);
            for beat in [0.0, full.ejection_bytes_rate.next_down()] {
                let net = &mut ArenaNetwork::new(cfg.net.clone());
                let got = run_open_loop_unless(&cfg, net, beat).expect("beat below the final rate");
                assert_eq!(format!("{got:?}"), format!("{full:?}"), "at {rate}, beat {beat}");
            }
            let mut net = ArenaNetwork::new(cfg.net.clone());
            let probe = OpenLoopProbe::new(cfg.clone(), ArenaNetwork::new(cfg.net.clone()));
            assert!(run_open_loop_unless(&cfg, &mut net, probe.ejection_bytes_bound()).is_none());
            assert_eq!(net.cycle(), 0, "cut before its first cycle");
        }
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
    /// ticking one probe to completion reproduces `run_open_loop_on`
    /// bit for bit.
    #[test]
    fn probe_matches_monolithic_runner() {
        let cfg = quick_cfg(0.02);
        let solo = run(&cfg);
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
