//! Static channel-load and throughput-bound analysis.
//!
//! For a [`NetworkConfig`] plus a [`TrafficMatrix`], this module reads
//! the same [`RouteTable`] the safety checks do — every plan
//! `plan_options` lists, walked with the simulator's own
//! `next_hop` — and turns the walks into *performance* facts:
//!
//! * expected per-channel (and per-VC) load under the matrix, in
//!   flits/cycle at unit injection;
//! * the Dally–Towles saturation-throughput upper bound
//!   `theta_sat <= capacity / max_resource_load`, where the resources are
//!   the physical channels (capacity 1 flit/cycle) *and* the terminal
//!   injection/ejection ports (capacity `ports` flits/cycle) — in this
//!   fabric the few MC ejection ports, not the bisection, are usually
//!   the binding resource, which is the paper's central observation;
//! * a zero-load latency lower bound per packet class.
//!
//! Because oblivious routing spreads each packet over its plan set with
//! known probabilities, the expected loads are exact (not sampled), and
//! the bound is sound: no schedule can sustain more than capacity on the
//! busiest resource. The bound is loose exactly where real networks lose
//! throughput to coupling — finite VC buffering, switch-allocation
//! conflicts and protocol coupling between requests and replies — so
//! measured accepted throughput always sits at or below it.

use crate::RouteTable;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tenoc_noc::telemetry::dir_label;
use tenoc_noc::{Coord, NetworkConfig, NodeId, Packet, PacketClass};

/// The traffic matrices the analyzer understands.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum TrafficMatrix {
    /// Every node sends single-flit packets to every other node with
    /// equal probability (total unit rate per source).
    Uniform,
    /// Node `(x, y)` sends single-flit packets to node `(y, x)` at unit
    /// rate (self-pairs on the diagonal send nothing).
    Transpose,
    /// The paper's many-to-few-to-many pattern derived from the
    /// configured MC placement: each compute node sends 8-byte read
    /// requests at unit rate to a uniformly random MC, and each request
    /// produces a 64-byte read reply — the same traffic
    /// `tenoc_noc::openloop` generates, so the bound is directly
    /// comparable to [`tenoc_noc::openloop::OpenLoopResult::accepted`].
    ManyToFew,
}

impl TrafficMatrix {
    /// All matrices, in declaration order.
    pub const ALL: [TrafficMatrix; 3] =
        [TrafficMatrix::Uniform, TrafficMatrix::Transpose, TrafficMatrix::ManyToFew];

    /// Stable lowercase label used in reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficMatrix::Uniform => "uniform",
            TrafficMatrix::Transpose => "transpose",
            TrafficMatrix::ManyToFew => "many-to-few",
        }
    }
}

/// One source→destination flow of the traffic matrix: `rate` packets per
/// cycle of `size_bytes` payload at unit injection scale.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Demand {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Protocol class the flow rides.
    pub class: PacketClass,
    /// Packets per cycle at unit injection scale.
    pub rate: f64,
    /// Payload size; flit count follows from the channel width.
    pub size_bytes: u32,
}

/// Expands a matrix into its demand list for a configuration. Rates are
/// normalized so one unit of injection scale means one packet per cycle
/// per source node ([`TrafficMatrix::ManyToFew`]: per *compute* node, the
/// open-loop harness's `injection_rate` convention).
pub(crate) fn demands(matrix: TrafficMatrix, cfg: &NetworkConfig) -> Vec<Demand> {
    let mesh = &cfg.mesh;
    let one_flit = cfg.channel_bytes;
    let mut out = Vec::new();
    match matrix {
        TrafficMatrix::Uniform => {
            let others = (mesh.len() - 1).max(1) as f64;
            for src in mesh.nodes() {
                for dst in mesh.nodes() {
                    if src != dst {
                        out.push(Demand {
                            src,
                            dst,
                            class: PacketClass::Request,
                            rate: 1.0 / others,
                            size_bytes: one_flit,
                        });
                    }
                }
            }
        }
        TrafficMatrix::Transpose => {
            for src in mesh.nodes() {
                let c = mesh.coord(src);
                let dst = mesh.node(Coord::new(c.y, c.x));
                if src != dst {
                    out.push(Demand {
                        src,
                        dst,
                        class: PacketClass::Request,
                        rate: 1.0,
                        size_bytes: one_flit,
                    });
                }
            }
        }
        TrafficMatrix::ManyToFew => {
            let mcs = &cfg.mc_nodes;
            let share = 1.0 / mcs.len().max(1) as f64;
            for src in cfg.compute_nodes() {
                for &mc in mcs {
                    out.push(Demand {
                        src,
                        dst: mc,
                        class: PacketClass::Request,
                        rate: share,
                        size_bytes: 8,
                    });
                    out.push(Demand {
                        src: mc,
                        dst: src,
                        class: PacketClass::Reply,
                        rate: share,
                        size_bytes: 64,
                    });
                }
            }
        }
    }
    out
}

/// Expected traffic on one directed physical channel.
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelLoad {
    /// Source node of the channel.
    pub node: u64,
    /// Source column.
    pub x: u16,
    /// Source row.
    pub y: u16,
    /// Channel direction (`N`/`E`/`S`/`W`), matching
    /// [`tenoc_noc::telemetry::LinkRecord::dir`].
    pub dir: String,
    /// Expected flits/cycle at unit injection scale.
    pub load: f64,
    /// Expected flits/cycle per VC (plans spread uniformly over the VC
    /// set granted on the link).
    pub vc_loads: Vec<f64>,
}

/// Zero-load latency bounds for one packet class.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClassZeroLoad {
    /// Class label (`request` / `reply`).
    pub class: String,
    /// Rate-weighted mean over the matrix's demands of the per-demand
    /// best-plan latency.
    pub mean: f64,
    /// Minimum over demands — the fastest any packet of the class can
    /// traverse the fabric.
    pub min: f64,
}

/// The static load analysis of one physical network under one matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadReport {
    /// Human-readable configuration summary (same as the verify report).
    pub subject: String,
    /// Matrix label (`uniform` / `transpose` / `many-to-few`).
    pub matrix: String,
    /// Every directed channel's expected load, in node-major order —
    /// index-compatible with [`tenoc_noc::Network::link_loads`] and the
    /// telemetry link records. Port counts never move a channel's load,
    /// so every analysis of one accumulation shares one list.
    pub channels: Arc<[ChannelLoad]>,
    /// Per-node injection-terminal load, normalized by the node's
    /// injection port count (1.0 = terminal saturated), node order.
    pub inject_loads: Vec<f64>,
    /// Per-node ejection-terminal load, normalized likewise.
    pub eject_loads: Vec<f64>,
    /// The largest normalized resource load at unit injection scale.
    pub max_load: f64,
    /// Which resource is binding, e.g. `channel 14 W` or
    /// `eject terminal at node 28`.
    pub bottleneck: String,
    /// Saturation-throughput upper bound: the injection scale (packets
    /// per cycle per source node, see `demands`) at which the binding
    /// resource reaches capacity. `0.0` for an empty matrix.
    pub saturation_rate: f64,
    /// The bound converted to the open-loop harness's unit: ejected
    /// flits per cycle per node (all nodes, both classes) at
    /// `saturation_rate` — directly comparable to
    /// [`tenoc_noc::openloop::OpenLoopResult::accepted`].
    pub accepted_bound: f64,
    /// Zero-load latency bounds per class present in the matrix.
    pub zero_load: Vec<ClassZeroLoad>,
    /// Flows in the matrix.
    pub demands_total: usize,
    /// Flows skipped because the routing function cannot deliver them
    /// (checkerboard full-to-full odd-parity pairs under [`Uniform`];
    /// zero for any matrix a legal configuration is actually run with).
    ///
    /// [`Uniform`]: TrafficMatrix::Uniform
    pub demands_unroutable: usize,
}

impl LoadReport {
    /// The channels whose load ties the maximum channel load within
    /// `eps` (relative), hottest argmax set for comparison against a
    /// telemetry heatmap. Empty only when the report has no channels.
    pub fn hottest_channels(&self, eps: f64) -> Vec<&ChannelLoad> {
        let max = self.channels.iter().map(|c| c.load).fold(0.0_f64, f64::max);
        if max <= 0.0 {
            return Vec::new();
        }
        self.channels.iter().filter(|c| c.load >= max * (1.0 - eps)).collect()
    }
}

/// Router pipeline depth of `node` under `cfg` (half-routers are
/// shallower).
fn stages(cfg: &NetworkConfig, node: NodeId) -> u64 {
    if cfg.mesh.is_half(node) {
        u64::from(cfg.half_router_stages)
    } else {
        u64::from(cfg.router_stages)
    }
}

/// Analyzes one physical network under one traffic matrix.
///
/// The enumeration never panics on unroutable pairs — they are counted
/// in [`LoadReport::demands_unroutable`] and excluded from the loads —
/// but the configuration's geometry must be usable (MC nodes inside the
/// mesh), which [`crate::analyze`] checks first.
pub fn analyze_load(cfg: &NetworkConfig, matrix: TrafficMatrix) -> LoadReport {
    analyze_load_with(cfg, &RouteTable::new(cfg), matrix)
}

/// [`analyze_load`] on routes already walked: `table` must have been
/// built from a configuration with `cfg`'s [`route_key`](crate::route_key).
///
/// # Panics
///
/// Panics if `table` routes a different `(mesh, routing, VC layout)`.
pub fn analyze_load_with(
    cfg: &NetworkConfig,
    table: &RouteTable,
    matrix: TrafficMatrix,
) -> LoadReport {
    analyze_load_keyed(cfg, table, LoadKey::of(cfg, matrix, None), crate::subject_of(cfg))
}

/// What one load accumulation reads besides the route table: the demand
/// list (the matrix, and the class a double network's slice keeps) and
/// every configuration field the demand loop prices a walk with.
/// Configurations of one shape that differ only in port counts or
/// buffering — tuner candidates, most of them — share one key, and with it
/// the one [`Accumulation`] their table keeps.
#[derive(PartialEq)]
pub(crate) struct LoadKey {
    matrix: TrafficMatrix,
    class: Option<PacketClass>,
    channel_bytes: u32,
    mc_nodes: Vec<NodeId>,
    link_latency: u32,
    router_stages: u32,
    half_router_stages: u32,
}

impl LoadKey {
    fn of(cfg: &NetworkConfig, matrix: TrafficMatrix, class: Option<PacketClass>) -> Self {
        // Exhaustive on purpose: a new `NetworkConfig` field does not
        // compile until it is keyed here or named as one the demand loop
        // never reads. (`route_key` omits `mc_nodes`, which the demand
        // list is built from: mesh-tb and mesh-cp candidates share tables.)
        let NetworkConfig {
            // The route table's own key.
            mesh: _,
            routing: _,
            vcs: _,
            // Read per configuration, after the accumulation.
            mc_inject_ports: _,
            mc_eject_ports: _,
            core_inject_ports: _,
            core_eject_ports: _,
            // Read by no static analysis.
            vc_depth: _,
            allocator: _,
            seed: _,
            channel_bytes,
            mc_nodes,
            link_latency,
            router_stages,
            half_router_stages,
        } = cfg;
        LoadKey {
            matrix,
            class,
            channel_bytes: *channel_bytes,
            mc_nodes: mc_nodes.clone(),
            link_latency: *link_latency,
            router_stages: *router_stages,
            half_router_stages: *half_router_stages,
        }
    }

    /// The report's matrix label.
    fn label(&self) -> String {
        match self.class {
            None => self.matrix.label().to_string(),
            Some(class) => format!("{} ({} slice)", self.matrix.label(), class_label(class)),
        }
    }
}

/// The port-independent part of a load analysis: every sum the demand
/// loop adds up, kept by the route table under its [`LoadKey`].
pub(crate) struct Accumulation {
    /// Every directed channel's load, node-major, with its per-VC split.
    channels: Arc<[ChannelLoad]>,
    /// Per-node injected and ejected flit rates, before normalization by
    /// the node's port count.
    inject: Vec<f64>,
    eject: Vec<f64>,
    flit_rate_total: f64,
    zero_load: Vec<ClassZeroLoad>,
    demands_total: usize,
    unroutable: usize,
}

/// Walks `key`'s demand list over `table`: the loads, flit rate, zero-load
/// latencies and unroutable count every configuration with that key
/// shares. Reads nothing of `cfg` that `key` and the table's route key do
/// not hold.
fn accumulate(cfg: &NetworkConfig, table: &RouteTable, key: &LoadKey) -> Accumulation {
    let mut flows = demands(key.matrix, cfg);
    if let Some(class) = key.class {
        flows.retain(|d| d.class == class);
    }
    let mesh = &cfg.mesh;
    let n = mesh.len();
    let total_vcs = cfg.vcs.total as usize;

    // Dense per-(node, dir) accumulators; only real channels are emitted.
    let mut chan = vec![0.0_f64; n * 4];
    let mut vc_chan = vec![0.0_f64; n * 4 * total_vcs];
    let mut inject = vec![0.0_f64; n];
    let mut eject = vec![0.0_f64; n];

    let mut unroutable = 0usize;
    let mut flit_rate_total = 0.0_f64;
    // Per class: (weighted latency sum, rate sum, min latency).
    let mut lat: [(f64, f64, f64); 2] = [(0.0, 0.0, f64::INFINITY); 2];

    for d in &flows {
        let flits = f64::from(
            Packet::new(d.class, d.src, d.dst, d.size_bytes, 0).flits_at_width(cfg.channel_bytes),
        );
        if !table.routable(d.src, d.dst) {
            unroutable += 1;
            continue;
        }
        // The routing function draws each plan with equal probability.
        let plans = table.plans(d.src, d.dst);
        let share = d.rate / plans.len() as f64;
        let mut best_lat = u64::MAX;
        let mut delivered = false;
        for plan in plans {
            let walk = table.walk(plan, d.class);
            if !walk.ejected {
                continue;
            }
            let hops = table.hops(walk);
            delivered = true;
            // Full pipeline plus link traversal at every router the
            // packet *leaves*; at the destination only route computation
            // and switch traversal precede ejection (VC/switch
            // allocation are pre-ejection stages the eject path skips);
            // plus head-to-tail serialization of a multi-flit packet.
            // Calibrated cycle-exact against single-packet simulations
            // on 1-, 3- and 4-stage routers.
            let mut l: u64 = hops.len() as u64 * u64::from(cfg.link_latency);
            for hop in hops {
                l += stages(cfg, hop.node);
            }
            let dst_t = cfg.timing(d.dst);
            l += dst_t.rc_delay + dst_t.st_delay;
            l += flits as u64 - 1;
            best_lat = best_lat.min(l);
            for hop in hops {
                let slot = hop.node * 4 + hop.dir as usize;
                chan[slot] += share * flits;
                let per_vc = share * flits / f64::from(hop.vcs.count.max(1));
                for vc in hop.vcs.iter() {
                    vc_chan[slot * total_vcs + vc as usize] += per_vc;
                }
            }
        }
        if !delivered {
            unroutable += 1;
            continue;
        }
        inject[d.src] += d.rate * flits;
        eject[d.dst] += d.rate * flits;
        flit_rate_total += d.rate * flits;
        let c = d.class as usize;
        let bl = best_lat as f64;
        lat[c].0 += d.rate * bl;
        lat[c].1 += d.rate;
        lat[c].2 = lat[c].2.min(bl);
    }

    let channels = mesh
        .links()
        .map(|(node, dir)| {
            let slot = node * 4 + dir as usize;
            let c = mesh.coord(node);
            ChannelLoad {
                node: node as u64,
                x: c.x,
                y: c.y,
                dir: dir_label(dir).to_string(),
                load: chan[slot],
                vc_loads: vc_chan[slot * total_vcs..(slot + 1) * total_vcs].to_vec(),
            }
        })
        .collect();

    let mut zero_load = Vec::new();
    for class in [PacketClass::Request, PacketClass::Reply] {
        let (sum, rate, min) = lat[class as usize];
        if rate > 0.0 {
            zero_load.push(ClassZeroLoad {
                class: class_label(class).to_string(),
                mean: sum / rate,
                min,
            });
        }
    }

    Accumulation {
        channels,
        inject,
        eject,
        flit_rate_total,
        zero_load,
        demands_total: flows.len(),
        unroutable,
    }
}

/// One load analysis: the table's accumulation for `key` (walked on
/// first use), normalized by `cfg`'s port counts and scanned for its
/// binding resource.
fn analyze_load_keyed(
    cfg: &NetworkConfig,
    table: &RouteTable,
    key: LoadKey,
    subject: String,
) -> LoadReport {
    assert!(table.routes(cfg), "route table of another fabric shape");
    let matrix = key.label();
    let acc = table.accumulation(key, |key| accumulate(cfg, table, key));
    let n = cfg.mesh.len();

    let ports = |node: NodeId, counts: (usize, usize)| -> f64 {
        if cfg.mc_nodes.contains(&node) {
            counts.0 as f64
        } else {
            counts.1 as f64
        }
    };

    let mut max_load = 0.0_f64;
    let mut bottleneck = String::from("none");
    for c in acc.channels.iter() {
        if c.load > max_load {
            max_load = c.load;
            bottleneck = format!("channel {} {}", c.node, c.dir);
        }
    }
    let mut inject_loads = Vec::with_capacity(n);
    let mut eject_loads = Vec::with_capacity(n);
    for node in cfg.mesh.nodes() {
        let inj = acc.inject[node] / ports(node, (cfg.mc_inject_ports, cfg.core_inject_ports));
        let ej = acc.eject[node] / ports(node, (cfg.mc_eject_ports, cfg.core_eject_ports));
        if inj > max_load {
            max_load = inj;
            bottleneck = format!("inject terminal at node {node}");
        }
        if ej > max_load {
            max_load = ej;
            bottleneck = format!("eject terminal at node {node}");
        }
        inject_loads.push(inj);
        eject_loads.push(ej);
    }

    let saturation_rate = if max_load > 0.0 { 1.0 / max_load } else { 0.0 };
    let accepted_bound = saturation_rate * acc.flit_rate_total / n as f64;

    LoadReport {
        subject,
        matrix,
        channels: Arc::clone(&acc.channels),
        inject_loads,
        eject_loads,
        max_load,
        bottleneck,
        saturation_rate,
        accepted_bound,
        zero_load: acc.zero_load.clone(),
        demands_total: acc.demands_total,
        demands_unroutable: acc.unroutable,
    }
}

/// The static load analysis of a channel-sliced double network: requests
/// ride one half-width slice, replies the other.
#[derive(Clone, Debug, PartialEq)]
pub struct DoubleLoadReport {
    /// Analysis of the request slice (request demands only).
    pub request: LoadReport,
    /// Analysis of the reply slice (reply demands only).
    pub reply: LoadReport,
    /// Combined saturation bound: the injection scale at which the first
    /// of the two slices saturates.
    pub saturation_rate: f64,
    /// Combined accepted-throughput bound in ejected flits per cycle per
    /// node, summing both slices at the combined saturation scale.
    pub accepted_bound: f64,
}

/// Analyzes a double (channel-sliced) network under one matrix. Each
/// slice is analyzed as its own half-width physical network carrying only
/// its class's demands; matrices with one class leave the reply slice
/// idle.
///
/// # Panics
///
/// Panics if `cfg.channel_bytes` is odd (cannot be sliced); gate on
/// [`crate::analyze_double`] first.
pub fn analyze_load_double(cfg: &NetworkConfig, matrix: TrafficMatrix) -> DoubleLoadReport {
    analyze_load_double_with(cfg, &RouteTable::new(&cfg.slice()), matrix)
}

/// [`analyze_load_double`] on routes already walked for `cfg.slice()`.
///
/// # Panics
///
/// Panics if `cfg.channel_bytes` is odd, or if `table` routes a different
/// shape than the slice.
pub fn analyze_load_double_with(
    cfg: &NetworkConfig,
    table: &RouteTable,
    matrix: TrafficMatrix,
) -> DoubleLoadReport {
    let sliced = cfg.slice();
    let request = analyze_class_slice(&sliced, table, cfg, matrix, PacketClass::Request);
    let reply = analyze_class_slice(&sliced, table, cfg, matrix, PacketClass::Reply);
    let mut saturation_rate = f64::INFINITY;
    for slice in [&request, &reply] {
        if slice.max_load > 0.0 {
            saturation_rate = saturation_rate.min(slice.saturation_rate);
        }
    }
    if saturation_rate == f64::INFINITY {
        saturation_rate = 0.0;
    }
    let n = cfg.mesh.len() as f64;
    // Recover each slice's total flit rate from its own bound, then
    // re-scale both to the combined saturation point.
    let flit_rate = |r: &LoadReport| {
        if r.saturation_rate > 0.0 {
            r.accepted_bound * n / r.saturation_rate
        } else {
            0.0
        }
    };
    let accepted_bound = saturation_rate * (flit_rate(&request) + flit_rate(&reply)) / n;
    DoubleLoadReport { request, reply, saturation_rate, accepted_bound }
}

/// Analyzes one class's slice of a double network: the sliced physical
/// config carries only `class`'s share of `matrix`'s demands. (The
/// demand expansion depends only on mesh and MC placement, which the
/// slice shares with the original.)
fn analyze_class_slice(
    sliced: &NetworkConfig,
    table: &RouteTable,
    orig: &NetworkConfig,
    matrix: TrafficMatrix,
    class: PacketClass,
) -> LoadReport {
    let subject = format!("{} slice of [{}]", class_label(class), crate::subject_of(orig));
    analyze_load_keyed(sliced, table, LoadKey::of(sliced, matrix, Some(class)), subject)
}

fn class_label(class: PacketClass) -> &'static str {
    match class {
        PacketClass::Request => "request",
        PacketClass::Reply => "reply",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Configurations of one shape that differ only in MC ports and VC
    /// depth share one accumulation per demand list on their route table,
    /// and each still gets exactly the report a standalone analysis gives
    /// it; a different MC placement is a different demand list.
    #[test]
    fn port_and_depth_variants_share_one_accumulation() {
        let m = TrafficMatrix::ManyToFew;
        let a = NetworkConfig::baseline_mesh(6);
        let b = NetworkConfig { mc_inject_ports: 2, mc_eject_ports: 2, vc_depth: 4, ..a.clone() };
        let table = RouteTable::new(&a);
        let (shared_a, shared_b) =
            (analyze_load_with(&a, &table, m), analyze_load_with(&b, &table, m));
        assert_eq!(table.accumulations(), 1);
        assert_eq!(shared_a, analyze_load(&a, m));
        assert_eq!(shared_b, analyze_load(&b, m));
        assert_ne!(shared_a.eject_loads, shared_b.eject_loads, "the ports are each config's own");
        let c = NetworkConfig { mc_nodes: a.mesh.checkerboard_mcs(8), ..a.clone() };
        assert_eq!(analyze_load_with(&c, &table, m), analyze_load(&c, m));
        assert_eq!(table.accumulations(), 2, "mc_nodes is in the key");

        // A double network: one accumulation per class slice.
        let slices = RouteTable::new(&a.slice());
        for cfg in [&a, &b] {
            assert_eq!(analyze_load_double_with(cfg, &slices, m), analyze_load_double(cfg, m));
        }
        assert_eq!(slices.accumulations(), 2);
    }
}
