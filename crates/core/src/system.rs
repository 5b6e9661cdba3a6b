//! The closed-loop accelerator system: compute cores, interconnect, L2
//! banks and DRAM channels stepped in their own clock domains.

use crate::audit::physical;
use crate::clock::{ClockConfig, Clocks, Domain};
use crate::mc::{McConfig, McNode, McRequest};
use crate::metrics::RunMetrics;
use tenoc_noc::{
    ArenaDoubleNetwork, ArenaNetwork, BandwidthLimitedInterconnect, DoubleNetwork, Interconnect,
    Network, NetworkConfig, NodeId, Packet, Tick,
};
use tenoc_simt::{CoreConfig, KernelSpec, MemRequest, ShaderCore};

/// Tag bit marking write requests inside a network packet.
const WRITE_BIT: u64 = 1 << 63;
/// Tag bits 48..63 carry the requesting core's index (for concentrated
/// configurations where several cores share one network terminal).
const CORE_SHIFT: u32 = 48;
/// The core-index field: the 15 bits between the address and
/// [`WRITE_BIT`]. An index that needed a 16th would set `WRITE_BIT`.
const CORE_MASK: u64 = (WRITE_BIT >> CORE_SHIFT) - 1;
const ADDR_MASK: u64 = (1 << CORE_SHIFT) - 1;

/// Which interconnect implementation the system uses.
///
/// All variants carry a full [`NetworkConfig`]: even the ideal models need
/// the node geometry and MC placement.
#[derive(Clone, Debug)]
pub enum IcntConfig {
    /// A single physical mesh.
    Mesh(NetworkConfig),
    /// Two channel-sliced meshes (requests / replies); the carried config
    /// describes the *single-network equivalent* and is sliced via
    /// [`DoubleNetwork::from_single`].
    Double(NetworkConfig),
    /// Zero-latency, infinite-bandwidth network (limit studies).
    Perfect(NetworkConfig),
    /// Zero-latency network with an aggregate cap in flits/interconnect
    /// cycle (Figure 6 limit study).
    BwLimited(NetworkConfig, f64),
}

impl serde::Serialize for IcntConfig {
    fn to_value(&self) -> serde::json::Value {
        // A tagged object: the variant name plus the carried network
        // configuration (and the bandwidth cap where present). This is the
        // canonical identity of an interconnect for content addressing —
        // two `IcntConfig`s with equal serializations build simulators
        // that produce identical results for identical workloads.
        let kind = match self {
            IcntConfig::Mesh(_) => "mesh",
            IcntConfig::Double(_) => "double",
            IcntConfig::Perfect(_) => "perfect",
            IcntConfig::BwLimited(..) => "bw-limited",
        };
        let mut fields =
            vec![("kind".to_string(), kind.to_value()), ("net".to_string(), self.net().to_value())];
        if let IcntConfig::BwLimited(_, flits) = self {
            fields.push(("cap_flits_per_cycle".to_string(), flits.to_value()));
        }
        serde::json::Value::Object(fields)
    }
}

impl IcntConfig {
    /// The geometry-bearing network configuration.
    pub fn net(&self) -> &NetworkConfig {
        match self {
            IcntConfig::Mesh(c)
            | IcntConfig::Double(c)
            | IcntConfig::Perfect(c)
            | IcntConfig::BwLimited(c, _) => c,
        }
    }

    /// Builds the interconnect this configuration describes on `engine`:
    /// the one place production code builds a network.
    /// [`EngineKind::PerCell`] is the one way to reach the per-router
    /// reference instead of the arena.
    ///
    /// Debug builds then prove the routed fabric (a double network's
    /// slice) deadlock-free with `tenoc-verify`'s memoized
    /// [`check_config`](tenoc_verify::check_config); release builds skip
    /// the check.
    ///
    /// # Panics
    ///
    /// Panics if the network configuration is invalid, and in debug builds
    /// if it fails static verification.
    pub fn build(&self, engine: EngineKind) -> Box<dyn Interconnect> {
        let net: Box<dyn Interconnect> = match (self, engine) {
            (IcntConfig::Mesh(c), EngineKind::Arena) => Box::new(ArenaNetwork::new(c.clone())),
            (IcntConfig::Mesh(c), EngineKind::PerCell) => Box::new(Network::new(c.clone())),
            (IcntConfig::Double(c), EngineKind::Arena) => {
                Box::new(ArenaDoubleNetwork::from_single(c))
            }
            (IcntConfig::Double(c), EngineKind::PerCell) => Box::new(DoubleNetwork::from_single(c)),
            // The perfect network is the limit-study network with no cap.
            (IcntConfig::Perfect(c), _) => Box::new(BandwidthLimitedInterconnect::new(
                c.mesh.len(),
                c.channel_bytes,
                f64::INFINITY,
            )),
            (IcntConfig::BwLimited(c, flits), _) => {
                Box::new(BandwidthLimitedInterconnect::new(c.mesh.len(), c.channel_bytes, *flits))
            }
        };
        if cfg!(debug_assertions) && matches!(self, IcntConfig::Mesh(_) | IcntConfig::Double(_)) {
            if let Err(report) = tenoc_verify::check_config(&physical(self).0) {
                panic!("network configuration failed static verification:\n{report}");
            }
        }
        net
    }
}

/// Which network execution engine a system simulates with. Both engines
/// produce bit-identical results, telemetry included (the arena is
/// equivalence-tested against the per-router oracle); they differ only in
/// memory layout and speed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The per-router oracle kernel ([`Network`] / [`DoubleNetwork`]),
    /// forced by name: the reference side of equivalence tests and
    /// same-run engine comparisons.
    PerCell,
    /// The production engine: the flat structure-of-arrays kernel ([`tenoc_noc::ArenaNetwork`] /
    /// [`tenoc_noc::ArenaDoubleNetwork`]), several times faster than the
    /// oracle. Every valid configuration fits it.
    Arena,
}

/// Full system configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Interconnect selection.
    pub icnt: IcntConfig,
    /// Compute-core microarchitecture.
    pub core: CoreConfig,
    /// MC node (L2 + DRAM) configuration.
    pub mc: McConfig,
    /// Clock frequencies.
    pub clocks: ClockConfig,
    /// Address-interleave chunk across MCs in bytes (paper: 256).
    pub chunk: u64,
    /// Compute cores sharing each compute-node router (concentration).
    /// The paper's configuration is 1; GPUs historically concentrated
    /// several cores per network port, and future designs scale core
    /// counts faster than mesh radix.
    pub cores_per_node: usize,
    /// Workload seed.
    pub seed: u64,
    /// Safety limit on core cycles.
    pub max_core_cycles: u64,
    /// Network execution engine (identical results either way).
    pub engine: EngineKind,
}

impl SystemConfig {
    /// A system around the given interconnect with all other parameters at
    /// their Table II values, on the arena engine. Concentrated fabrics
    /// imply their own concentration (cores per compute router); every
    /// other topology keeps the paper's 1:1 core-to-router mapping.
    pub fn with_icnt(icnt: IcntConfig) -> Self {
        let cores_per_node = icnt.net().mesh.concentration();
        SystemConfig {
            icnt,
            core: CoreConfig::gtx280_like(),
            mc: McConfig::gtx280_like(),
            clocks: ClockConfig::gtx280(),
            chunk: 256,
            cores_per_node,
            seed: crate::DEFAULT_SEED,
            max_core_cycles: 50_000_000,
            engine: EngineKind::Arena,
        }
    }
}

/// The closed-loop simulator.
pub struct System {
    cfg: SystemConfig,
    icnt: Box<dyn Interconnect>,
    cores: Vec<ShaderCore>,
    core_nodes: Vec<NodeId>,
    /// `core_nodes` deduplicated (one entry per compute-node terminal),
    /// precomputed so the reply-draining loop needs no per-tick set.
    unique_core_nodes: Vec<NodeId>,
    mc_nodes: Vec<NodeId>,
    mcs: Vec<McNode>,
    clocks: Clocks,
    /// One staged outgoing packet per core (requests refused by the NI
    /// wait here rather than being lost).
    staged: Vec<Option<Packet>>,
    /// Requests ejected at an MC but refused by its input queue.
    staged_mc: Vec<Option<McRequest>>,
}

impl System {
    /// Builds a system running `spec` on every compute core.
    ///
    /// # Panics
    ///
    /// Panics if the network configuration is invalid or the kernel spec
    /// is out of range.
    pub fn new(cfg: SystemConfig, spec: &KernelSpec) -> Self {
        Self::new_mixed(cfg, std::slice::from_ref(spec))
    }

    /// Builds a system running a *mix* of kernels: core `i` runs
    /// `specs[i % specs.len()]`. Models multi-tenant accelerators or
    /// concurrent kernel execution.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, the network configuration is invalid,
    /// any kernel spec is out of range or the fabric hosts more cores than
    /// a packet tag can name (2^15).
    pub fn new_mixed(cfg: SystemConfig, specs: &[KernelSpec]) -> Self {
        assert!(!specs.is_empty(), "at least one kernel spec required");
        assert!(cfg.cores_per_node >= 1, "concentration must be at least 1");
        let net = cfg.icnt.net().clone();
        let mc_nodes = net.mc_nodes.clone();
        let node_list: Vec<NodeId> =
            (0..net.mesh.len()).filter(|n| !mc_nodes.contains(n)).collect();
        // With concentration c, node_list entry i hosts cores
        // i*c .. (i+1)*c; `core_nodes[j]` is core j's terminal.
        let core_nodes: Vec<NodeId> =
            node_list.iter().flat_map(|&n| std::iter::repeat_n(n, cfg.cores_per_node)).collect();
        assert!(
            core_nodes.len() as u64 <= CORE_MASK + 1,
            "{} cores: a core index must fit the {} tag bits below the write bit",
            core_nodes.len(),
            CORE_MASK.count_ones()
        );
        let cores = core_nodes
            .iter()
            .enumerate()
            .map(|(i, _)| ShaderCore::new(i, cfg.core.clone(), &specs[i % specs.len()], cfg.seed))
            .collect();
        let mcs = mc_nodes
            .iter()
            .map(|_| McNode::new(cfg.mc.clone(), mc_nodes.len(), cfg.chunk))
            .collect();
        System {
            icnt: cfg.icnt.build(cfg.engine),
            staged: vec![None; core_nodes.len()],
            staged_mc: vec![None; mc_nodes.len()],
            cores,
            core_nodes,
            unique_core_nodes: node_list,
            mc_nodes,
            mcs,
            clocks: Clocks::new(cfg.clocks),
            cfg,
        }
    }

    fn mc_index_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.chunk) % self.mc_nodes.len() as u64) as usize
    }

    fn all_done(&self) -> bool {
        self.cores
            .iter()
            .all(|c| c.done() && c.pending_requests() == 0 && c.outstanding_fetches() == 0)
            && self.staged.iter().all(Option::is_none)
            && self.staged_mc.iter().all(Option::is_none)
            && self.icnt.in_flight() == 0
            && self.mcs.iter().all(McNode::idle)
    }

    /// Advances one domain by one cycle of its own clock. The per-domain
    /// bodies and the interconnect's own [`Tick`] all hang off this single
    /// dispatch point, so every clocked component in the system moves
    /// through the same trait.
    fn tick_domain(&mut self, domain: Domain) {
        match domain {
            Domain::Core => self.step_core_domain(),
            Domain::Icnt => self.step_icnt_domain(),
            Domain::Dram => self.step_dram_domain(),
        }
    }

    fn step_core_domain(&mut self) {
        let now = self.clocks.cycles(Domain::Core) - 1;
        for core in &mut self.cores {
            core.step(now);
        }
    }

    fn step_icnt_domain(&mut self) {
        self.icnt_exchange();
        self.icnt.tick();
    }

    /// The terminal-side half of an interconnect cycle: drain replies to
    /// cores, inject core requests, and run the MC side (eject requests,
    /// service L2, inject replies). The network's own [`Tick`] follows.
    fn icnt_exchange(&mut self) {
        let now = self.clocks.cycles(Domain::Icnt) - 1;
        let dram_now = self.clocks.cycles(Domain::Dram);
        // Replies to cores. With concentration > 1 several cores share a
        // terminal, so the destination core is read from the tag.
        for i in 0..self.unique_core_nodes.len() {
            let node = self.unique_core_nodes[i];
            while let Some(p) = self.icnt.pop(node) {
                debug_assert_eq!(p.header.tag & WRITE_BIT, 0, "cores only receive read replies");
                let core = ((p.header.tag >> CORE_SHIFT) & CORE_MASK) as usize;
                self.cores[core].push_fill(p.header.tag & ADDR_MASK);
            }
        }
        // Core requests into the network.
        for (i, &node) in self.core_nodes.iter().enumerate() {
            loop {
                if self.staged[i].is_none() {
                    let Some(MemRequest { line_addr, is_write, size_bytes }) =
                        self.cores[i].pop_request()
                    else {
                        break;
                    };
                    let mc = self.mc_nodes[self.mc_index_of(line_addr)];
                    debug_assert_eq!(
                        line_addr >> CORE_SHIFT,
                        0,
                        "address fits below the core-id bits"
                    );
                    let mut tag = line_addr | ((i as u64) << CORE_SHIFT);
                    if is_write {
                        tag |= WRITE_BIT;
                    }
                    self.staged[i] = Some(Packet::request(node, mc, size_bytes, tag));
                }
                let pkt = self.staged[i].take().expect("staged above");
                match self.icnt.try_inject(node, pkt) {
                    Ok(()) => {}
                    Err(back) => {
                        self.staged[i] = Some(back);
                        break;
                    }
                }
            }
        }
        // MC side: eject requests, service L2, inject replies.
        for (m, &node) in self.mc_nodes.iter().enumerate() {
            // Retry a previously refused request first.
            if let Some(req) = self.staged_mc[m].take() {
                if let Err(back) = self.mcs[m].enqueue(req) {
                    self.staged_mc[m] = Some(back);
                }
            }
            while self.staged_mc[m].is_none() {
                let Some(p) = self.icnt.pop(node) else { break };
                let req = McRequest {
                    src: p.header.src,
                    line_addr: p.header.tag & !WRITE_BIT,
                    is_write: p.header.tag & WRITE_BIT != 0,
                };
                if let Err(back) = self.mcs[m].enqueue(req) {
                    self.staged_mc[m] = Some(back);
                }
            }
            self.mcs[m].step_l2(now, dram_now);
            let mut stalled = false;
            while let Some(reply) = self.mcs[m].peek_reply() {
                // reply.tag carries line address + core-id bits intact.
                let pkt = Packet::reply(node, reply.dst, 64, reply.tag);
                match self.icnt.try_inject(node, pkt) {
                    Ok(()) => {
                        self.mcs[m].pop_reply();
                    }
                    Err(_) => {
                        stalled = true;
                        break;
                    }
                }
            }
            if stalled {
                self.mcs[m].note_inject_stall();
            }
        }
    }

    fn step_dram_domain(&mut self) {
        let now = self.clocks.cycles(Domain::Dram) - 1;
        for mc in &mut self.mcs {
            mc.step_dram(now);
        }
    }

    /// Runs the system until the kernel completes and all queues drain.
    ///
    /// Returns the collected metrics; `completed` is `false` if the safety
    /// cycle limit was hit first (indicating deadlock or an impossibly
    /// long configuration).
    pub fn run(&mut self) -> RunMetrics {
        let mut check = 0u32;
        loop {
            let domain = self.clocks.tick();
            self.tick_domain(domain);
            if domain == Domain::Core {
                check += 1;
                if check >= 512 {
                    check = 0;
                    if self.all_done() {
                        return self.metrics(true);
                    }
                    if self.clocks.cycles(Domain::Core) > self.cfg.max_core_cycles {
                        return self.metrics(false);
                    }
                }
            }
        }
    }

    /// Arms the interconnect's observability layer (latency histograms,
    /// link/VC counters, occupancy sampling, flight recorder). Call
    /// before [`System::run`]; a no-op on ideal networks, which have
    /// nothing to observe. Telemetry never changes simulated outcomes.
    pub fn enable_telemetry(&mut self, cfg: tenoc_noc::TelemetryConfig) {
        self.icnt.enable_telemetry(cfg);
    }

    /// Snapshots of the interconnect's telemetry: one report per physical
    /// network (two for a double network), empty when telemetry was never
    /// enabled or the network is ideal.
    pub fn telemetry_reports(&self) -> Vec<tenoc_noc::TelemetryReport> {
        self.icnt.telemetry_reports()
    }

    /// Collects metrics at the current instant.
    pub fn metrics(&self, completed: bool) -> RunMetrics {
        let core_cycles = self.clocks.cycles(Domain::Core).max(1);
        let icnt_cycles = self.clocks.cycles(Domain::Icnt).max(1);
        let scalar: u64 = self.cores.iter().map(|c| c.retired_scalar_insts()).sum();
        let net = self.icnt.stats();
        let mc_inject_flits: u64 =
            self.mc_nodes.iter().map(|&n| net.injected_flits_by_node[n]).sum();
        let core_inject_flits: u64 =
            self.core_nodes.iter().map(|&n| net.injected_flits_by_node[n]).sum();
        let stall =
            self.mcs.iter().map(|m| m.stall_fraction()).sum::<f64>() / self.mcs.len().max(1) as f64;
        let dram_eff = self.mcs.iter().map(|m| m.dram_stats().efficiency()).sum::<f64>()
            / self.mcs.len().max(1) as f64;
        let l2_hits: u64 = self.mcs.iter().map(|m| m.l2_stats().read_hits).sum();
        let l2_misses: u64 = self.mcs.iter().map(|m| m.l2_stats().read_misses).sum();
        let replays: u64 = self.cores.iter().map(|c| c.stats().replays).sum();
        RunMetrics {
            completed,
            core_cycles,
            icnt_cycles,
            scalar_insts: scalar,
            ipc: scalar as f64 / core_cycles as f64,
            avg_net_latency: net.avg_network_latency(),
            mc_injection_rate: mc_inject_flits as f64
                / icnt_cycles as f64
                / self.mc_nodes.len().max(1) as f64,
            core_injection_rate: core_inject_flits as f64
                / icnt_cycles as f64
                / self.core_nodes.len().max(1) as f64,
            mc_stall_fraction: stall,
            dram_efficiency: dram_eff,
            l2_read_hit_rate: if l2_hits + l2_misses == 0 {
                0.0
            } else {
                l2_hits as f64 / (l2_hits + l2_misses) as f64
            },
            accepted_flits_per_node: net.accepted_flits_per_node_cycle(),
            core_replays: replays,
            flit_hops: self.icnt.flit_hops(),
        }
    }
}

impl Tick for System {
    /// One edge of the earliest-pending clock domain (ties break Core,
    /// Icnt, Dram order). [`System::run`] is a drain-detection loop around
    /// this; external harnesses can drive the system edge by edge instead.
    fn tick(&mut self) {
        let domain = self.clocks.tick();
        self.tick_domain(domain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenoc_noc::{ArmSpec, PacketClass, TelemetryConfig, TelemetryReport};
    use tenoc_simt::KernelSpec;

    fn tiny_spec(mem: f64) -> KernelSpec {
        KernelSpec::builder("tiny")
            .warps_per_core(4)
            .insts_per_warp(60)
            .mem_fraction(mem)
            .stream_fraction(0.5)
            .build()
    }

    /// Every named preset builds on both engines, so each passes the
    /// debug-build static check (twice: the second build hits the memo).
    #[test]
    fn every_named_preset_builds_on_both_engines() {
        for p in crate::presets::Preset::NAMED {
            for engine in [EngineKind::Arena, EngineKind::PerCell] {
                let net = p.icnt(6).build(engine);
                assert_eq!(net.in_flight(), 0, "{}", p.label());
            }
        }
    }

    /// A config that passes `validate()` but fails verification (an MC on
    /// a full router hits unroutable pairs) is refused by the build in
    /// debug builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "failed static verification")]
    fn build_refuses_a_valid_but_unverifiable_config() {
        let mut cfg = NetworkConfig::checkerboard_mesh(6);
        let full = cfg.mesh.nodes().find(|&n| !cfg.mesh.is_half(n)).expect("full router");
        cfg.mc_nodes = vec![full];
        assert!(cfg.validate().is_ok(), "must reach the static check, not validate()");
        let _ = IcntConfig::Mesh(cfg).build(EngineKind::Arena);
    }

    #[test]
    fn compute_only_kernel_completes_on_mesh() {
        let cfg = SystemConfig::with_icnt(IcntConfig::Mesh(NetworkConfig::baseline_mesh(6)));
        let mut sys = System::new(cfg, &tiny_spec(0.0));
        let m = sys.run();
        assert!(m.completed);
        assert_eq!(m.scalar_insts, 28 * 4 * 60 * 32);
        assert!(m.ipc > 0.0);
    }

    #[test]
    fn memory_kernel_completes_on_mesh() {
        let cfg = SystemConfig::with_icnt(IcntConfig::Mesh(NetworkConfig::baseline_mesh(6)));
        let mut sys = System::new(cfg, &tiny_spec(0.3));
        let m = sys.run();
        assert!(m.completed, "closed loop must drain: {m:?}");
        assert!(m.mc_injection_rate > 0.0, "replies flowed through MC routers");
        assert!(m.dram_efficiency > 0.0);
    }

    #[test]
    fn memory_kernel_completes_on_checkerboard() {
        let cfg = SystemConfig::with_icnt(IcntConfig::Mesh(NetworkConfig::checkerboard_mesh(6)));
        let mut sys = System::new(cfg, &tiny_spec(0.3));
        let m = sys.run();
        assert!(m.completed);
    }

    #[test]
    fn memory_kernel_completes_on_double_network() {
        let mut net = NetworkConfig::checkerboard_mesh(6);
        net.mc_inject_ports = 2;
        let cfg = SystemConfig::with_icnt(IcntConfig::Double(net));
        let mut sys = System::new(cfg, &tiny_spec(0.3));
        let m = sys.run();
        assert!(m.completed);
    }

    #[test]
    fn perfect_network_is_at_least_as_fast() {
        let spec = KernelSpec::builder("mem")
            .warps_per_core(8)
            .insts_per_warp(80)
            .mem_fraction(0.5)
            .stream_fraction(0.9)
            .lines_per_mem(2)
            .build();
        let mesh = {
            let cfg = SystemConfig::with_icnt(IcntConfig::Mesh(NetworkConfig::baseline_mesh(6)));
            System::new(cfg, &spec).run()
        };
        let perfect = {
            let cfg = SystemConfig::with_icnt(IcntConfig::Perfect(NetworkConfig::baseline_mesh(6)));
            System::new(cfg, &spec).run()
        };
        assert!(mesh.completed && perfect.completed);
        assert!(perfect.ipc >= mesh.ipc, "perfect {} must beat mesh {}", perfect.ipc, mesh.ipc);
    }

    #[test]
    fn mixed_kernels_run_to_completion() {
        let light = tiny_spec(0.0);
        let heavy = KernelSpec::builder("heavy")
            .warps_per_core(8)
            .insts_per_warp(40)
            .mem_fraction(0.4)
            .stream_fraction(0.9)
            .build();
        let cfg = SystemConfig::with_icnt(IcntConfig::Mesh(NetworkConfig::baseline_mesh(6)));
        let mut sys = System::new_mixed(cfg, &[light.clone(), heavy.clone()]);
        let m = sys.run();
        assert!(m.completed);
        // 14 cores run each spec.
        let expect = 14 * (light.total_warp_insts() + heavy.total_warp_insts()) * 32;
        assert_eq!(m.scalar_insts, expect);
    }

    #[test]
    fn concentration_doubles_core_count_and_completes() {
        let mut cfg = SystemConfig::with_icnt(IcntConfig::Mesh(NetworkConfig::baseline_mesh(6)));
        cfg.cores_per_node = 2;
        let spec = tiny_spec(0.2);
        let mut sys = System::new(cfg, &spec);
        assert_eq!(sys.cores.len(), 56);
        let m = sys.run();
        assert!(m.completed);
        assert_eq!(m.scalar_insts, 56 * spec.total_warp_insts() * 32);
    }

    #[test]
    fn concentration_increases_pressure_on_the_network() {
        let spec = KernelSpec::builder("mem")
            .warps_per_core(8)
            .insts_per_warp(60)
            .mem_fraction(0.3)
            .stream_fraction(0.9)
            .build();
        let base = {
            let cfg = SystemConfig::with_icnt(IcntConfig::Mesh(NetworkConfig::baseline_mesh(6)));
            System::new(cfg, &spec).run()
        };
        let conc = {
            let mut cfg =
                SystemConfig::with_icnt(IcntConfig::Mesh(NetworkConfig::baseline_mesh(6)));
            cfg.cores_per_node = 2;
            System::new(cfg, &spec).run()
        };
        assert!(conc.completed);
        // Twice the demand on the same network: per-core throughput drops.
        let per_core_base = base.ipc / 28.0;
        let per_core_conc = conc.ipc / 56.0;
        assert!(
            per_core_conc < per_core_base,
            "concentration must increase contention: {per_core_conc} vs {per_core_base}"
        );
        assert!(conc.mc_stall_fraction >= base.mc_stall_fraction * 0.9);
    }

    /// Driving the system through `Tick` advances all three clock domains
    /// at their configured ratios, same as `run`'s internal loop.
    #[test]
    fn system_ticks_edge_by_edge() {
        let cfg = SystemConfig::with_icnt(IcntConfig::Mesh(NetworkConfig::baseline_mesh(6)));
        let mut sys = System::new(cfg, &tiny_spec(0.2));
        for _ in 0..30_000 {
            sys.tick();
        }
        let m = sys.metrics(false);
        let ratio = m.core_cycles as f64 / m.icnt_cycles as f64;
        assert!((ratio - 1296.0 / 602.0).abs() < 0.05, "core/icnt ratio {ratio}");
    }

    fn run_on(
        engine: EngineKind,
        icnt: IcntConfig,
        telemetry: Option<TelemetryConfig>,
    ) -> (RunMetrics, Vec<TelemetryReport>) {
        let mut cfg = SystemConfig::with_icnt(icnt);
        cfg.seed = 7;
        cfg.engine = engine;
        cfg.max_core_cycles = 400_000;
        let mut sys = System::new(cfg, &tiny_spec(0.3));
        if let Some(tcfg) = telemetry {
            sys.enable_telemetry(tcfg);
        }
        (sys.run(), sys.telemetry_reports())
    }

    /// Both sides must drain: equality of two runs that hit the cycle cap
    /// would hold vacuously. Returns the (equal) telemetry reports.
    fn assert_arena_matches_oracle(
        icnt: IcntConfig,
        telemetry: Option<TelemetryConfig>,
    ) -> Vec<TelemetryReport> {
        let (oracle, oracle_reports) = run_on(EngineKind::PerCell, icnt.clone(), telemetry);
        let (arena, arena_reports) = run_on(EngineKind::Arena, icnt, telemetry);
        assert!(oracle.completed, "oracle run hit the cycle cap: {oracle:?}");
        assert!(arena.completed, "arena run hit the cycle cap: {arena:?}");
        assert_eq!(oracle, arena, "arena engine must be bit-identical to the oracle");
        assert_eq!(oracle_reports, arena_reports, "telemetry must be engine-independent");
        arena_reports
    }

    #[test]
    fn arena_engine_matches_oracle_engine() {
        assert_arena_matches_oracle(IcntConfig::Mesh(NetworkConfig::baseline_mesh(6)), None);
    }

    /// The paper's design point, unarmed and armed: the two engines'
    /// reports are equal field for field (histograms, per-VC link counts,
    /// heatmap, occupancies, flight events in recorded order, drops), both
    /// unfiltered and through a node + class filter into a ring small
    /// enough to overwrite.
    #[test]
    fn arena_matches_oracle_on_paper_preset() {
        let icnt = crate::presets::Preset::ThroughputEffective.icnt(6);
        assert!(assert_arena_matches_oracle(icnt.clone(), None).is_empty());
        let full = assert_arena_matches_oracle(icnt.clone(), Some(TelemetryConfig::default()));
        assert_eq!(full.len(), 2, "one report per slice");
        assert!(full.iter().all(|r| !r.flight.is_empty() && !r.links.is_empty()));
        let narrow = TelemetryConfig {
            flight_capacity: 16,
            arm: ArmSpec { node: Some(icnt.net().mc_nodes[0]), class: Some(PacketClass::Reply) },
        };
        let filtered = assert_arena_matches_oracle(icnt, Some(narrow));
        assert!(filtered[0].flight.is_empty(), "no reply crosses the request slice");
        assert_eq!(filtered[1].flight.len(), 16);
        assert!(filtered[1].flight_dropped > 0, "the small ring must have wrapped");
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = SystemConfig::with_icnt(IcntConfig::Mesh(NetworkConfig::baseline_mesh(6)));
        let a = System::new(cfg.clone(), &tiny_spec(0.25)).run();
        let b = System::new(cfg, &tiny_spec(0.25)).run();
        assert_eq!(a.core_cycles, b.core_cycles);
        assert_eq!(a.scalar_insts, b.scalar_insts);
    }
}
