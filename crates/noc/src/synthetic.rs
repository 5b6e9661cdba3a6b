//! Classic synthetic traffic patterns for open-loop network evaluation.
//!
//! These all-to-all-style patterns complement the many-to-few-to-many
//! harness of [`crate::openloop`] and are the standard way to stress a
//! routing algorithm's load balance (e.g. O1Turn and ROMM are motivated by
//! adversarial permutations such as transpose and tornado, on which
//! dimension-ordered routing performs poorly).

use crate::config::NetworkConfig;
use crate::interconnect::build_mesh;
use crate::packet::Packet;
use crate::types::{Coord, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A synthetic destination pattern over a `k x k` mesh.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SynthPattern {
    /// Uniformly random destination (excluding the source).
    Uniform,
    /// Matrix transpose: `(x, y) -> (y, x)`. Nodes on the diagonal stay
    /// silent.
    Transpose,
    /// Bit complement on coordinates: `(x, y) -> (k-1-x, k-1-y)`.
    BitComplement,
    /// Tornado: `(x, y) -> ((x + ceil(k/2) - 1) mod k, y)` — the classic
    /// adversarial pattern for rings/meshes.
    Tornado,
    /// Nearest neighbor: `(x, y) -> ((x + 1) mod k, y)`.
    Neighbor,
}

impl SynthPattern {
    /// All patterns, for sweeps.
    pub const ALL: [SynthPattern; 5] = [
        SynthPattern::Uniform,
        SynthPattern::Transpose,
        SynthPattern::BitComplement,
        SynthPattern::Tornado,
        SynthPattern::Neighbor,
    ];

    /// Destination for a source node, or `None` if the node does not send
    /// under this pattern.
    pub fn dest<R: Rng>(&self, k: usize, src: NodeId, rng: &mut R) -> Option<NodeId> {
        let n = k * k;
        let c = Coord::new((src % k) as u16, (src / k) as u16);
        let node = |x: u16, y: u16| y as usize * k + x as usize;
        match self {
            SynthPattern::Uniform => {
                let d = rng.gen_range(0..n - 1);
                Some(if d >= src { d + 1 } else { d })
            }
            SynthPattern::Transpose => {
                let d = node(c.y, c.x);
                (d != src).then_some(d)
            }
            SynthPattern::BitComplement => {
                let d = node((k as u16 - 1) - c.x, (k as u16 - 1) - c.y);
                (d != src).then_some(d)
            }
            SynthPattern::Tornado => {
                let shift = (k.div_ceil(2) - 1) as u16;
                let d = node((c.x + shift) % k as u16, c.y);
                (d != src).then_some(d)
            }
            SynthPattern::Neighbor => Some(node((c.x + 1) % k as u16, c.y)),
        }
    }
}

/// Configuration of a synthetic open-loop run.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Network under test (full-router meshes recommended; checkerboard
    /// meshes reject some node pairs).
    pub net: NetworkConfig,
    /// Offered load in packets/cycle/node.
    pub injection_rate: f64,
    /// Destination pattern.
    pub pattern: SynthPattern,
    /// Packet payload bytes.
    pub packet_bytes: u32,
    /// Warm-up cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Drain cycles.
    pub drain: u64,
    /// RNG seed.
    pub seed: u64,
}

impl SynthConfig {
    /// Defaults: single-flit packets, short windows suitable for sweeps.
    pub fn new(net: NetworkConfig, injection_rate: f64, pattern: SynthPattern) -> Self {
        SynthConfig {
            net,
            injection_rate,
            pattern,
            packet_bytes: 16,
            warmup: 2_000,
            measure: 5_000,
            drain: 10_000,
            seed: 0x5e7,
        }
    }
}

/// Result of a synthetic run.
#[derive(Copy, Clone, Debug)]
pub struct SynthResult {
    /// Offered load (packets/cycle/node).
    pub offered: f64,
    /// Mean latency of measured packets (generation to ejection).
    pub avg_latency: f64,
    /// Fraction of measured packets delivered before the deadline.
    pub delivered_fraction: f64,
}

impl SynthResult {
    /// `true` when the run shows saturation.
    pub fn saturated(&self) -> bool {
        self.delivered_fraction < 0.99 || self.avg_latency > 400.0
    }
}

/// Runs one synthetic open-loop simulation.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_synthetic(cfg: &SynthConfig) -> SynthResult {
    let k = cfg.net.mesh.radix();
    let nodes = cfg.net.mesh.len();
    let mut net = build_mesh(cfg.net.clone());
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut src_q: Vec<VecDeque<Packet>> = vec![VecDeque::new(); nodes];

    let total = cfg.warmup + cfg.measure + cfg.drain;
    let meas = cfg.warmup..cfg.warmup + cfg.measure;
    let (mut generated, mut delivered, mut lat_sum) = (0u64, 0u64, 0u64);

    for now in 0..total {
        if now < meas.end {
            #[allow(clippy::needless_range_loop)]
            for src in 0..nodes {
                if rng.gen_bool(cfg.injection_rate.min(1.0)) {
                    if let Some(dst) = cfg.pattern.dest(k, src, &mut rng) {
                        let mut p = Packet::request(src, dst, cfg.packet_bytes, 0);
                        p.header.created = now;
                        if meas.contains(&now) {
                            p.header.tag = 1;
                            generated += 1;
                        }
                        src_q[src].push_back(p);
                    }
                }
            }
        }
        for (src, q) in src_q.iter_mut().enumerate() {
            while let Some(&p) = q.front() {
                if net.try_inject(src, p).is_ok() {
                    q.pop_front();
                } else {
                    break;
                }
            }
        }
        net.step();
        for node in 0..nodes {
            while let Some(out) = net.pop(node) {
                if out.header.tag == 1 {
                    delivered += 1;
                    lat_sum += out.total_latency();
                }
            }
        }
    }
    SynthResult {
        offered: cfg.injection_rate,
        avg_latency: if delivered == 0 { f64::INFINITY } else { lat_sum as f64 / delivered as f64 },
        delivered_fraction: if generated == 0 { 1.0 } else { delivered as f64 / generated as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RoutingKind, VcLayout};

    fn full_mesh(routing: RoutingKind) -> NetworkConfig {
        let mut c = NetworkConfig::baseline_mesh(6);
        c.routing = routing;
        if routing.needs_phase_split() {
            c.vcs = VcLayout::new(4, 2, true);
        }
        c
    }

    #[test]
    fn patterns_produce_valid_destinations() {
        let mut rng = SmallRng::seed_from_u64(1);
        for pattern in SynthPattern::ALL {
            for src in 0..36 {
                if let Some(d) = pattern.dest(6, src, &mut rng) {
                    assert!(d < 36);
                    assert_ne!(d, src, "{pattern:?} self-send from {src}");
                }
            }
        }
    }

    #[test]
    fn transpose_is_an_involution() {
        let mut rng = SmallRng::seed_from_u64(1);
        for src in 0..36 {
            if let Some(d) = SynthPattern::Transpose.dest(6, src, &mut rng) {
                assert_eq!(SynthPattern::Transpose.dest(6, d, &mut rng), Some(src));
            }
        }
    }

    #[test]
    fn neighbor_traffic_has_low_latency_and_high_capacity() {
        let cfg = SynthConfig::new(full_mesh(RoutingKind::DorXy), 0.3, SynthPattern::Neighbor);
        let r = run_synthetic(&cfg);
        assert!(!r.saturated(), "single-hop neighbor traffic sustains high load");
        assert!(r.avg_latency < 30.0, "latency {}", r.avg_latency);
    }

    #[test]
    fn uniform_low_load_is_unsaturated() {
        let cfg = SynthConfig::new(full_mesh(RoutingKind::DorXy), 0.02, SynthPattern::Uniform);
        let r = run_synthetic(&cfg);
        assert!(!r.saturated());
    }

    /// O1Turn's motivation: it sustains more transpose traffic than DOR.
    #[test]
    fn o1turn_beats_dor_on_transpose() {
        let sat = |routing| {
            let mut last_ok = 0.0;
            for i in 1..=12 {
                let rate = i as f64 * 0.05;
                let cfg = SynthConfig::new(full_mesh(routing), rate, SynthPattern::Transpose);
                if run_synthetic(&cfg).saturated() {
                    break;
                }
                last_ok = rate;
            }
            last_ok
        };
        let dor = sat(RoutingKind::DorXy);
        let o1 = sat(RoutingKind::O1Turn);
        assert!(o1 >= dor, "O1Turn transpose saturation ({o1}) must be at least DOR's ({dor})");
    }

    #[test]
    fn romm_delivers_under_tornado() {
        let cfg = SynthConfig::new(full_mesh(RoutingKind::Romm), 0.05, SynthPattern::Tornado);
        let r = run_synthetic(&cfg);
        assert!(!r.saturated());
        assert!(r.delivered_fraction > 0.99);
    }
}
