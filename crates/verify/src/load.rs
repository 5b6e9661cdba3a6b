//! Static channel-load and throughput-bound analysis.
//!
//! For a [`NetworkConfig`] plus a [`TrafficMatrix`], this module reads
//! the same [`RouteTable`] the safety checks do — every plan
//! `plan_options` lists, walked with the simulator's own
//! `next_hop` — and turns the walks into *performance* facts about each
//! physical network of the fabric ([`NetworkConfig::physical`]), each
//! carrying its class over one table ([`analyze_load`], [`FabricLoad`]):
//!
//! * expected per-channel load under the matrix, in flits/cycle at unit
//!   injection;
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
//! measured accepted throughput always sits at or below it. A fabric
//! saturates with its busiest slice, and its bound sums the flits of
//! every slice at that scale.

use crate::RouteTable;
use serde::Serialize;
use std::sync::Arc;
use tenoc_noc::telemetry::dir_label;
use tenoc_noc::{Coord, NetworkConfig, NodeId, Packet, PacketClass, PhysicalNets};

/// The traffic matrices the analyzer understands.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
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
    /// `tenoc_noc::openloop` generates, so the bound is comparable to
    /// [`tenoc_noc::openloop::OpenLoopResult::ejection_rate`].
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
    let demand = |src, dst, class, rate, size_bytes| Demand { src, dst, class, rate, size_bytes };
    let mut out = Vec::new();
    match matrix {
        TrafficMatrix::Uniform => {
            let others = (mesh.len() - 1).max(1) as f64;
            for src in mesh.nodes() {
                for dst in mesh.nodes().filter(|&dst| dst != src) {
                    out.push(demand(src, dst, PacketClass::Request, 1.0 / others, one_flit));
                }
            }
        }
        TrafficMatrix::Transpose => {
            for src in mesh.nodes() {
                let c = mesh.coord(src);
                let dst = mesh.node(Coord::new(c.y, c.x));
                if src != dst {
                    out.push(demand(src, dst, PacketClass::Request, 1.0, one_flit));
                }
            }
        }
        TrafficMatrix::ManyToFew => {
            let mcs = &cfg.mc_nodes;
            let share = 1.0 / mcs.len().max(1) as f64;
            for src in cfg.compute_nodes() {
                for &mc in mcs {
                    out.push(demand(src, mc, PacketClass::Request, share, 8));
                    out.push(demand(mc, src, PacketClass::Reply, share, 64));
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
    pub dir: &'static str,
    /// Expected flits/cycle at unit injection scale.
    pub load: f64,
}

/// Zero-load latency bounds for one packet class.
#[derive(Clone, Debug, PartialEq, Serialize)]
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
    /// Every directed channel's expected load, in node-major order —
    /// index-compatible with [`tenoc_noc::Network::link_loads`] and the
    /// telemetry link records. Port counts never move a channel's load,
    /// so every analysis of one accumulation shares one list.
    pub channels: Arc<[ChannelLoad]>,
    /// The largest resource load at unit injection scale: a channel's, or
    /// a terminal's normalized by its port count (1.0 = saturated).
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
    /// `saturation_rate` — comparable to
    /// [`tenoc_noc::openloop::OpenLoopResult::ejection_rate`] of a run
    /// that [keeps up](tenoc_noc::openloop::OpenLoopResult::keeps_up).
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

/// The static load analysis of one fabric under one matrix: each of its
/// physical networks analyzed with the class it carries, and the bound of
/// the fabric as a whole.
#[derive(Clone, Debug, PartialEq)]
pub struct FabricLoad {
    /// One report per physical network: a single network's one, carrying
    /// both classes, or a double network's request slice then reply slice
    /// (a matrix with one class leaves the reply slice idle).
    pub slices: Vec<LoadReport>,
    /// The injection scale at which the busiest slice saturates; `0.0`
    /// when no slice carries load.
    pub saturation_rate: f64,
    /// Ejected flits per cycle per node (all nodes, both classes, every
    /// slice) at `saturation_rate`.
    pub accepted_bound: f64,
}

/// Analyzes a fabric, given as its physical networks
/// ([`NetworkConfig::physical`]), under one traffic matrix: each copy of
/// the routed network carries the class it is given.
///
/// The enumeration never panics on unroutable pairs — they are counted
/// in [`LoadReport::demands_unroutable`] and excluded from the loads —
/// but the configuration's geometry must be usable (MC nodes inside the
/// mesh), which [`crate::analyze`] checks first.
pub fn analyze_load(nets: &PhysicalNets, matrix: TrafficMatrix) -> FabricLoad {
    analyze_load_with(nets, &RouteTable::new(&nets.net), matrix)
}

/// [`analyze_load`] on routes already walked: `table` must have been
/// built from a configuration with the [`route_key`](crate::route_key)
/// of `nets.net`.
///
/// # Panics
///
/// Panics if `table` routes a different `(mesh, routing, VC layout)`.
pub fn analyze_load_with(
    nets: &PhysicalNets,
    table: &RouteTable,
    matrix: TrafficMatrix,
) -> FabricLoad {
    let (net, mut flit_rate) = (&nets.net, 0.0_f64);
    let slices: Vec<LoadReport> = nets
        .classes
        .iter()
        .map(|&class| {
            let (report, flits) = analyze_slice(net, table, LoadKey::of(net, matrix, class));
            flit_rate += flits;
            report
        })
        .collect();
    // The busiest slice saturates first: `1 / max_load` is the smallest
    // of the slices' own rates, to the bit.
    let max_load = slices.iter().map(|r| r.max_load).fold(0.0_f64, f64::max);
    let saturation_rate = if max_load > 0.0 { 1.0 / max_load } else { 0.0 };
    let accepted_bound = saturation_rate * flit_rate / net.mesh.len() as f64;
    FabricLoad { slices, saturation_rate, accepted_bound }
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
}

/// The port-independent part of a load analysis: every sum the demand
/// loop adds up, kept by the route table under its [`LoadKey`].
pub(crate) struct Accumulation {
    /// Every directed channel's load, node-major.
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

    // Dense per-(node, dir) accumulators; only real channels are emitted.
    let mut chan = vec![0.0_f64; n * 4];
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
                chan[hop.node * 4 + hop.dir as usize] += share * flits;
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
            let c = mesh.coord(node);
            ChannelLoad {
                node: node as u64,
                x: c.x,
                y: c.y,
                dir: dir_label(dir),
                load: chan[node * 4 + dir as usize],
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

/// One physical network's analysis: the table's accumulation for `key`
/// (walked on first use), normalized by `cfg`'s port counts and scanned
/// for its binding resource, and the accumulation's total flit rate.
fn analyze_slice(cfg: &NetworkConfig, table: &RouteTable, key: LoadKey) -> (LoadReport, f64) {
    assert!(table.routes(cfg), "route table of another fabric shape");
    let acc = table.accumulation(key, |key| accumulate(cfg, table, key));
    let n = cfg.mesh.len();

    let ports = |node: NodeId, counts: (usize, usize)| -> f64 {
        if cfg.mc_nodes.contains(&node) {
            counts.0 as f64
        } else {
            counts.1 as f64
        }
    };

    // The binding resource: the first channel at the maximum load, unless
    // a terminal's load exceeds it. Spelled once, below.
    let mut max_load = 0.0_f64;
    let mut channel = None;
    for c in acc.channels.iter() {
        if c.load > max_load {
            max_load = c.load;
            channel = Some(c);
        }
    }
    let mut terminal = None;
    for node in cfg.mesh.nodes() {
        let inj = acc.inject[node] / ports(node, (cfg.mc_inject_ports, cfg.core_inject_ports));
        let ej = acc.eject[node] / ports(node, (cfg.mc_eject_ports, cfg.core_eject_ports));
        if inj > max_load {
            max_load = inj;
            terminal = Some(("inject", node));
        }
        if ej > max_load {
            max_load = ej;
            terminal = Some(("eject", node));
        }
    }

    let bottleneck = match (terminal, channel) {
        (Some((kind, node)), _) => format!("{kind} terminal at node {node}"),
        (None, Some(c)) => format!("channel {} {}", c.node, c.dir),
        (None, None) => "none".to_string(),
    };
    let saturation_rate = if max_load > 0.0 { 1.0 / max_load } else { 0.0 };
    let accepted_bound = saturation_rate * acc.flit_rate_total / n as f64;

    let report = LoadReport {
        channels: Arc::clone(&acc.channels),
        max_load,
        bottleneck,
        saturation_rate,
        accepted_bound,
        zero_load: acc.zero_load.clone(),
        demands_total: acc.demands_total,
        demands_unroutable: acc.unroutable,
    };
    (report, acc.flit_rate_total)
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

    fn single(cfg: &NetworkConfig) -> PhysicalNets<'_> {
        cfg.physical(false).expect("one network")
    }

    fn double(cfg: &NetworkConfig) -> PhysicalNets<'_> {
        cfg.physical(true).expect("an even channel width")
    }

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
            (analyze_load_with(&single(&a), &table, m), analyze_load_with(&single(&b), &table, m));
        assert_eq!(table.accumulations(), 1);
        assert_eq!(shared_a, analyze_load(&single(&a), m));
        assert_eq!(shared_b, analyze_load(&single(&b), m));
        let c = tenoc_core::Org::MeshCp.base(6); // a staggered placement of the same 8 MCs
        assert_eq!(analyze_load_with(&single(&c), &table, m), analyze_load(&single(&c), m));
        assert_eq!(table.accumulations(), 2, "mc_nodes is in the key");

        // A double network: one accumulation per class slice.
        let slices = RouteTable::new(&double(&a).net);
        for cfg in [&a, &b] {
            assert_eq!(analyze_load_with(&double(cfg), &slices, m), analyze_load(&double(cfg), m));
        }
        assert_eq!(slices.accumulations(), 2);

        // The ports are each configuration's own: on the checkerboard mesh
        // one MC injection port binds, and with two a channel does.
        let one = NetworkConfig::checkerboard_mesh(6);
        let two = NetworkConfig { mc_inject_ports: 2, ..one.clone() };
        let table = RouteTable::new(&one);
        let (shared_one, shared_two) = (
            analyze_load_with(&single(&one), &table, m),
            analyze_load_with(&single(&two), &table, m),
        );
        assert_eq!(table.accumulations(), 1);
        assert_eq!(
            (shared_one.clone(), shared_two.clone()),
            (analyze_load(&single(&one), m), analyze_load(&single(&two), m))
        );
        let (one, two) = (&shared_one.slices[0], &shared_two.slices[0]);
        assert!(one.bottleneck.starts_with("inject terminal"), "{}", one.bottleneck);
        assert!(two.bottleneck.starts_with("channel"), "{}", two.bottleneck);
        assert!(two.max_load < one.max_load);
    }
}
