//! Network configuration: channel widths, virtual-channel layout, router
//! pipeline timing and routing selection.

use crate::arena::ArenaNetwork;
use crate::packet::{PacketClass, Phase};
use crate::routing::VcSet;
use crate::topology::{Fabric, Mesh, Placement};
use crate::types::NodeId;
use serde::json;
use serde::{Deserialize, Serialize};

/// Switch-allocator organization. Both engines implement exactly one.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AllocatorKind {
    /// Separable input-first (iSLIP-style, Table III's allocator): each
    /// input port nominates one VC, then each output port picks one
    /// nominating input. Pointers advance on accepted grants.
    InputFirst,
}

/// Routing algorithm selection.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum RoutingKind {
    /// Dimension-ordered routing, X first.
    DorXy,
    /// Checkerboard routing (paper Section IV-B): per-packet XY or YX
    /// selection that respects half-router turn restrictions, with a
    /// random intermediate full-router for half-to-half case-2 routes.
    Checkerboard,
    /// O1Turn (Seo et al., ISCA 2005): each packet picks XY or YX
    /// uniformly at random, achieving near-optimal worst-case throughput
    /// on full-router meshes. Requires phase-split VCs.
    O1Turn,
}

impl RoutingKind {
    /// `true` if this algorithm requires the virtual channels of each
    /// protocol class to be split into XY/YX phase subsets.
    pub fn needs_phase_split(self) -> bool {
        matches!(self, RoutingKind::Checkerboard | RoutingKind::O1Turn)
    }
}

/// How the virtual channels of one physical network are partitioned among
/// protocol classes and routing phases.
///
/// With `classes == 2` the lower half of the VCs carries requests and the
/// upper half carries replies (two logical networks on one physical
/// network, avoiding protocol deadlock). With `split_phases` each class's
/// VCs are further split into an XY subset and a YX subset, which
/// checkerboard routing requires for routing-deadlock freedom.
///
/// With `split_dateline` (torus fabrics) each class/phase subset is
/// further halved into a *before-dateline* and an *after-dateline* set: a
/// packet starts in the lower half and moves to the upper half once its
/// route wraps around (or departs the wrap link of) a ring, which breaks
/// the cyclic channel dependency every torus ring otherwise carries.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct VcLayout {
    /// Total virtual channels per input port.
    pub total: u8,
    /// Number of protocol classes multiplexed onto this network (1 or 2).
    pub classes: u8,
    /// Whether each class's VCs are split into XY/YX phase subsets.
    pub split_phases: bool,
    /// Whether each class/phase subset is split into dateline halves
    /// (required for deadlock freedom on torus fabrics).
    pub split_dateline: bool,
}

impl Serialize for VcLayout {
    // Hand-written: `split_dateline` is emitted only when set, so every
    // pre-existing mesh layout serializes to the exact bytes the derive
    // produced (shape fingerprints and canonical hashes must not move).
    fn to_value(&self) -> json::Value {
        let mut pairs = vec![
            ("total".to_owned(), self.total.to_value()),
            ("classes".to_owned(), self.classes.to_value()),
            ("split_phases".to_owned(), self.split_phases.to_value()),
        ];
        if self.split_dateline {
            pairs.push(("split_dateline".to_owned(), self.split_dateline.to_value()));
        }
        json::Value::Object(pairs)
    }
}

impl Deserialize for VcLayout {
    fn from_value(v: &json::Value) -> Result<Self, json::Error> {
        Ok(VcLayout {
            total: u8::from_value(v.field("total")?)?,
            classes: u8::from_value(v.field("classes")?)?,
            split_phases: bool::from_value(v.field("split_phases")?)?,
            split_dateline: match v.field("split_dateline") {
                Err(_) => false,
                Ok(b) => bool::from_value(b)?,
            },
        })
    }
}

impl VcLayout {
    /// Creates a layout, validating the partition.
    ///
    /// # Panics
    ///
    /// Panics if the VCs cannot be evenly partitioned (`total` not
    /// divisible by `classes`, or fewer than 2 VCs per class when
    /// `split_phases` is set).
    pub fn new(total: u8, classes: u8, split_phases: bool) -> Self {
        assert!(classes == 1 || classes == 2, "classes must be 1 or 2");
        assert!(
            total >= classes && total.is_multiple_of(classes),
            "VCs must divide evenly by class"
        );
        if split_phases {
            let per_class = total / classes;
            assert!(
                per_class >= 2 && per_class.is_multiple_of(2),
                "phase splitting needs an even number (>= 2) of VCs per class"
            );
        }
        VcLayout { total, classes, split_phases, split_dateline: false }
    }

    /// Adds a dateline split to this layout (torus deadlock avoidance).
    ///
    /// # Panics
    ///
    /// Panics if any class/phase subset cannot be halved (fewer than 2 VCs
    /// or an odd count).
    pub fn with_dateline(mut self) -> Self {
        for class in [PacketClass::Request, PacketClass::Reply] {
            for phase in [Phase::Xy, Phase::Yx] {
                let s = self.set_for(class, phase);
                assert!(
                    s.count >= 2 && s.count.is_multiple_of(2),
                    "dateline splitting needs an even number (>= 2) of VCs per class/phase"
                );
            }
        }
        self.split_dateline = true;
        self
    }

    /// The VC subset available to a protocol class (ignoring phase).
    pub(crate) fn class_set(&self, class: PacketClass) -> VcSet {
        if self.classes == 1 {
            VcSet::new(0, self.total)
        } else {
            let per = self.total / 2;
            VcSet::new(class.index() as u8 * per, per)
        }
    }

    /// The VC subset available to a packet of the given class in the given
    /// routing phase.
    pub fn set_for(&self, class: PacketClass, phase: Phase) -> VcSet {
        let cs = self.class_set(class);
        if !self.split_phases {
            return cs;
        }
        let per = cs.count / 2;
        match phase {
            Phase::Xy => VcSet::new(cs.first, per),
            Phase::Yx => VcSet::new(cs.first + per, per),
        }
    }

    /// The VC subset for a packet of the given class and phase that has
    /// (`crossed == true`) or has not yet (`crossed == false`) crossed the
    /// dateline of the ring it is currently traversing. Without a dateline
    /// split this is just [`VcLayout::set_for`]; with one, the lower half
    /// of the class/phase subset carries not-yet-crossed packets and the
    /// upper half carries crossed packets.
    pub fn dateline_set(&self, class: PacketClass, phase: Phase, crossed: bool) -> VcSet {
        let s = self.set_for(class, phase);
        if !self.split_dateline {
            return s;
        }
        let per = s.count / 2;
        if crossed {
            VcSet::new(s.first + per, per)
        } else {
            VcSet::new(s.first, per)
        }
    }
}

/// Router pipeline timing, derived from a pipeline-stage count.
///
/// The baseline router is a 4-stage pipeline (route computation, VC
/// allocation, switch allocation, switch traversal) plus a 1-cycle channel:
/// 5 cycles per hop at zero load. Half-routers use 3 stages, and the
/// "aggressive" router of the latency study uses a single stage (2 cycles
/// per hop including the channel).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct RouterTiming {
    /// Cycles between head-flit arrival and VC-allocation eligibility
    /// (models route-computation stages).
    pub rc_delay: u64,
    /// If `true`, switch allocation may occur in the same cycle as VC
    /// allocation (single-cycle routers).
    pub same_cycle_sa: bool,
    /// Cycles of switch traversal between the switch-allocation grant and
    /// the flit entering the output channel.
    pub st_delay: u64,
}

impl RouterTiming {
    /// Timing for a router with `stages` pipeline stages.
    ///
    /// Zero-load per-hop latency is `stages + link_latency`.
    ///
    /// # Panics
    ///
    /// Panics if `stages == 0`.
    pub(crate) fn from_stages(stages: u32) -> Self {
        assert!(stages >= 1, "router needs at least one pipeline stage");
        match stages {
            1 => RouterTiming { rc_delay: 0, same_cycle_sa: true, st_delay: 0 },
            2 => RouterTiming { rc_delay: 0, same_cycle_sa: true, st_delay: 1 },
            3 => RouterTiming { rc_delay: 0, same_cycle_sa: false, st_delay: 1 },
            n => RouterTiming { rc_delay: (n - 3) as u64, same_cycle_sa: false, st_delay: 1 },
        }
    }
}

/// Full configuration of one physical network.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Topology and router kinds.
    pub mesh: Mesh,
    /// Channel (and flit) width in bytes. The paper's balanced baseline
    /// uses 16 B; the double network slices this to 8 B per subnetwork.
    pub channel_bytes: u32,
    /// Virtual-channel layout.
    pub vcs: VcLayout,
    /// Buffer depth per virtual channel, in flits (baseline: 8).
    pub vc_depth: usize,
    /// Pipeline stages of full-routers (baseline: 4; aggressive: 1).
    pub router_stages: u32,
    /// Pipeline stages of half-routers (paper: 3).
    pub half_router_stages: u32,
    /// Channel traversal latency in cycles (baseline: 1).
    pub link_latency: u32,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// Switch-allocator organization. Single-valued, but kept: the derived
    /// serialization of this struct is the content address of every
    /// journaled cell and probe, so the field leaves only with the next
    /// `MODEL_VERSION` bump.
    pub allocator: AllocatorKind,
    /// Nodes hosting memory controllers (used for multi-port router
    /// placement and by the open-loop traffic patterns).
    pub mc_nodes: Vec<NodeId>,
    /// Injection ports at MC routers (baseline 1; the multi-port design
    /// uses 2). Terminal bandwidth only — channels are unchanged.
    pub mc_inject_ports: usize,
    /// Ejection ports at MC routers (baseline 1).
    pub mc_eject_ports: usize,
    /// Injection ports at compute-node routers (baseline 1; channel
    /// slicing scales this to preserve terminal interface width).
    pub core_inject_ports: usize,
    /// Ejection ports at compute-node routers (baseline 1).
    pub core_eject_ports: usize,
    /// RNG seed for oblivious routing decisions (checkerboard case-2
    /// intermediate selection).
    pub seed: u64,
}

impl NetworkConfig {
    /// The paper's balanced baseline: `k x k` full-router mesh, 16-byte
    /// channels, 2 VCs (one per protocol class) of depth 8, 4-stage
    /// routers, 1-cycle links, XY dimension-ordered routing, MCs placed
    /// top-bottom.
    pub fn baseline_mesh(k: usize) -> Self {
        let mesh = Mesh::all_full(k);
        let n_mc = if k == 6 { 8 } else { k.max(2) };
        let mc_nodes = mesh.top_bottom_mcs(n_mc);
        NetworkConfig {
            mesh,
            channel_bytes: 16,
            vcs: VcLayout::new(2, 2, false),
            vc_depth: 8,
            router_stages: 4,
            half_router_stages: 3,
            link_latency: 1,
            routing: RoutingKind::DorXy,
            allocator: AllocatorKind::InputFirst,
            mc_nodes,
            mc_inject_ports: 1,
            mc_eject_ports: 1,
            core_inject_ports: 1,
            core_eject_ports: 1,
            seed: 0x7e0c,
        }
    }

    /// Torus counterpart of the balanced baseline: the same `k x k` grid
    /// with every row and column wrapped, XY dimension-ordered routing,
    /// and 4 VCs — request/reply classes each split into dateline halves,
    /// which DOR on a torus requires for deadlock freedom.
    pub fn baseline_torus(k: usize) -> Self {
        let mesh = Mesh::torus(k);
        let n_mc = if k == 6 { 8 } else { k.max(2) };
        let mc_nodes = mesh.top_bottom_mcs(n_mc);
        NetworkConfig {
            mesh,
            vcs: VcLayout::new(4, 2, false).with_dateline(),
            mc_nodes,
            ..Self::baseline_mesh(k)
        }
    }

    /// Concentrated-mesh counterpart of the balanced baseline: `conc`
    /// cores share each compute router through `conc` dedicated
    /// injection/ejection ports (higher router radix, smaller grid per
    /// core). Channels, VCs and routing match the baseline mesh.
    pub fn concentrated_mesh(k: usize, conc: u8) -> Self {
        let mesh = Mesh::cmesh(k, conc);
        let n_mc = if k == 6 { 8 } else { k.max(2) };
        let mc_nodes = mesh.top_bottom_mcs(n_mc);
        NetworkConfig {
            mesh,
            mc_nodes,
            core_inject_ports: conc as usize,
            core_eject_ports: conc as usize,
            ..Self::baseline_mesh(k)
        }
    }

    /// Checkerboard network: half-routers on odd-parity nodes, staggered
    /// MC placement on half-routers, checkerboard routing with 4 VCs
    /// (request XY/YX + reply XY/YX).
    pub fn checkerboard_mesh(k: usize) -> Self {
        let mesh = Mesh::checkerboard(k);
        let n_mc = if k == 6 { 8 } else { k.max(2) };
        let mc_nodes = mesh.checkerboard_mcs(n_mc);
        NetworkConfig {
            mesh,
            vcs: VcLayout::new(4, 2, true),
            routing: RoutingKind::Checkerboard,
            mc_nodes,
            ..Self::baseline_mesh(k)
        }
    }

    /// Number of injection ports at `node`.
    pub(crate) fn inject_ports(&self, node: NodeId) -> usize {
        if self.mc_nodes.contains(&node) {
            self.mc_inject_ports
        } else {
            self.core_inject_ports
        }
    }

    /// Number of ejection ports at `node`.
    pub(crate) fn eject_ports(&self, node: NodeId) -> usize {
        if self.mc_nodes.contains(&node) {
            self.mc_eject_ports
        } else {
            self.core_eject_ports
        }
    }

    /// The compute (non-MC) nodes of the mesh, in node order — the "many"
    /// side of the paper's many-to-few traffic. The complement of
    /// `mc_nodes`.
    pub fn compute_nodes(&self) -> Vec<NodeId> {
        self.mesh.nodes().filter(|n| !self.mc_nodes.contains(n)).collect()
    }

    /// Router timing for `node` (half-routers may have a shorter pipeline).
    pub fn timing(&self, node: NodeId) -> RouterTiming {
        match self.mesh.kind(node) {
            crate::topology::RouterKind::Full => RouterTiming::from_stages(self.router_stages),
            crate::topology::RouterKind::Half => RouterTiming::from_stages(self.half_router_stages),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message if the routing algorithm, VC
    /// layout, router kinds and MC placement are inconsistent (e.g.
    /// checkerboard routing without phase-split VCs, or an MC on a node id
    /// outside the mesh), or if the shape exceeds what the simulation
    /// kernel packs ([`ArenaNetwork::supports`]) — the message names the
    /// limit.
    pub fn validate(&self) -> Result<(), String> {
        if self.channel_bytes == 0 {
            return Err("channel width must be positive".into());
        }
        if self.vc_depth == 0 {
            return Err("VC depth must be positive".into());
        }
        if self.routing.needs_phase_split() && !self.vcs.split_phases {
            return Err(format!("{:?} routing requires a phase-split VC layout", self.routing));
        }
        if self.routing == RoutingKind::O1Turn && self.mesh.nodes().any(|n| self.mesh.is_half(n)) {
            return Err(format!("{:?} routing supports full-router meshes only", self.routing));
        }
        if self.mesh.is_torus() {
            if self.routing != RoutingKind::DorXy {
                return Err(format!("{:?} routing is not defined on the torus", self.routing));
            }
            if self.mesh.nodes().any(|n| self.mesh.is_half(n)) {
                return Err("half-routers are a mesh (checkerboard) organization".into());
            }
            if !self.vcs.split_dateline {
                return Err("torus routing requires dateline-split VCs for deadlock freedom".into());
            }
        }
        if self.vcs.split_dateline {
            if !self.mesh.is_torus() {
                return Err("dateline VC splitting is only meaningful on a torus".into());
            }
            for class in [PacketClass::Request, PacketClass::Reply] {
                for phase in [Phase::Xy, Phase::Yx] {
                    let s = self.vcs.set_for(class, phase);
                    if s.count < 2 || !s.count.is_multiple_of(2) {
                        return Err("dateline splitting needs an even number (>= 2) of VCs per \
                             class/phase"
                            .into());
                    }
                }
            }
        }
        if let Fabric::CMesh { conc } = self.mesh.fabric() {
            let conc = conc as usize;
            if !self.core_inject_ports.is_multiple_of(conc)
                || !self.core_eject_ports.is_multiple_of(conc)
            {
                return Err(format!(
                    "concentrated mesh needs a terminal port pair per core: core ports must \
                     be a multiple of the concentration factor {conc}"
                ));
            }
        }
        if self.mc_inject_ports == 0 || self.mc_eject_ports == 0 {
            return Err("MC routers need at least one injection and ejection port".into());
        }
        if self.core_inject_ports == 0 || self.core_eject_ports == 0 {
            return Err("core routers need at least one injection and ejection port".into());
        }
        for &mc in &self.mc_nodes {
            if mc >= self.mesh.len() {
                return Err(format!("MC node {mc} outside mesh"));
            }
        }
        if !ArenaNetwork::supports(self) {
            let broken: Vec<String> = ArenaNetwork::broken_limits(self).collect();
            return Err(format!(
                "shape exceeds the simulation kernel's packed layout: {}",
                broken.join(", ")
            ));
        }
        Ok(())
    }

    /// The per-subnetwork configuration obtained by channel-slicing this
    /// network in two (paper Section IV-C): half the channel width, doubled
    /// terminal ports (preserving terminal interface bandwidth), and a
    /// single-class VC layout — each slice carries one protocol class, so
    /// request/reply separation comes from physical disjointness instead of
    /// VC partitioning.
    ///
    /// # Panics
    ///
    /// Panics if `channel_bytes` is odd.
    pub fn slice(&self) -> NetworkConfig {
        assert!(self.channel_bytes.is_multiple_of(2), "cannot slice an odd channel width");
        let mut sub = self.clone();
        sub.channel_bytes = self.channel_bytes / 2;
        let factor = (self.channel_bytes / sub.channel_bytes) as usize;
        sub.mc_inject_ports = self.mc_inject_ports * factor;
        sub.mc_eject_ports = self.mc_eject_ports * factor;
        sub.core_inject_ports = self.core_inject_ports * factor;
        sub.core_eject_ports = self.core_eject_ports * factor;
        // Each slice keeps the full VC complement of the single network it
        // replaces. Halving the per-slice VC count (the strictest reading
        // of the paper's constant-total-buffering description) costs
        // another ~8% of saturated reply throughput in this fabric; the
        // sensitivity is quantified by the `abl_design_choices` bench.
        let per_class = self.vcs.total.max(if self.vcs.split_phases { 2 } else { 1 });
        sub.vcs = VcLayout::new(per_class, 1, self.vcs.split_phases);
        if self.vcs.split_dateline {
            sub.vcs = sub.vcs.with_dateline();
        }
        sub
    }

    /// Convenience: the MC placement strategy corresponding to the current
    /// `mc_nodes`, if it matches a named one.
    pub fn placement(&self) -> Option<Placement> {
        let n = self.mc_nodes.len();
        if self.mc_nodes == self.mesh.top_bottom_mcs(n) {
            Some(Placement::TopBottom)
        } else if self.mc_nodes == self.mesh.checkerboard_mcs(n) {
            Some(Placement::Checkerboard)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_single_class() {
        let l = VcLayout::new(2, 1, false);
        let s = l.class_set(PacketClass::Request);
        assert_eq!((s.first, s.count), (0, 2));
        assert_eq!(l.set_for(PacketClass::Reply, Phase::Yx), s);
    }

    #[test]
    fn layout_two_classes() {
        let l = VcLayout::new(2, 2, false);
        assert_eq!(l.class_set(PacketClass::Request), VcSet::new(0, 1));
        assert_eq!(l.class_set(PacketClass::Reply), VcSet::new(1, 1));
    }

    #[test]
    fn layout_phase_split() {
        let l = VcLayout::new(4, 2, true);
        assert_eq!(l.set_for(PacketClass::Request, Phase::Xy), VcSet::new(0, 1));
        assert_eq!(l.set_for(PacketClass::Request, Phase::Yx), VcSet::new(1, 1));
        assert_eq!(l.set_for(PacketClass::Reply, Phase::Xy), VcSet::new(2, 1));
        assert_eq!(l.set_for(PacketClass::Reply, Phase::Yx), VcSet::new(3, 1));
    }

    #[test]
    #[should_panic(expected = "phase splitting")]
    fn layout_rejects_undersized_phase_split() {
        let _ = VcLayout::new(2, 2, true);
    }

    #[test]
    fn timing_from_stages() {
        let t4 = RouterTiming::from_stages(4);
        assert_eq!((t4.rc_delay, t4.same_cycle_sa, t4.st_delay), (1, false, 1));
        let t3 = RouterTiming::from_stages(3);
        assert_eq!((t3.rc_delay, t3.same_cycle_sa, t3.st_delay), (0, false, 1));
        let t1 = RouterTiming::from_stages(1);
        assert_eq!((t1.rc_delay, t1.same_cycle_sa, t1.st_delay), (0, true, 0));
    }

    #[test]
    fn baseline_config_is_valid() {
        let c = NetworkConfig::baseline_mesh(6);
        c.validate().unwrap();
        assert_eq!(c.mc_nodes.len(), 8);
        assert_eq!(c.placement(), Some(Placement::TopBottom));
    }

    #[test]
    fn checkerboard_config_is_valid() {
        let c = NetworkConfig::checkerboard_mesh(6);
        c.validate().unwrap();
        assert_eq!(c.placement(), Some(Placement::Checkerboard));
        for &mc in &c.mc_nodes {
            assert!(c.mesh.is_half(mc));
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = NetworkConfig::baseline_mesh(6);
        c.routing = RoutingKind::Checkerboard;
        assert!(c.validate().is_err(), "CR without phase split must be rejected");

        let mut c = NetworkConfig::baseline_mesh(6);
        c.mc_nodes.push(999);
        assert!(c.validate().is_err());
    }

    #[test]
    fn shapes_the_kernel_cannot_pack_are_rejected_with_the_limit() {
        let rejects = |shape: fn(&mut NetworkConfig), limit: &str| {
            let mut c = NetworkConfig::baseline_mesh(4);
            shape(&mut c);
            let err = c.validate().unwrap_err();
            assert!(err.contains(limit), "{err}");
        };
        // (4 mesh + 1 injection) input ports x 40 VCs = 200 lanes.
        rejects(|c| c.vcs = VcLayout::new(40, 2, false), "200 lanes per router (limit 128)");
        rejects(|c| c.vc_depth = 256, "256 flits of VC depth (limit 255)");
        rejects(|c| c.mc_inject_ports = 28, "32 input ports (limit 31)");
        rejects(|c| c.mc_inject_ports = 29, "33 input ports (limit 31)");
        rejects(|c| c.mc_eject_ports = 29, "33 output ports (limit 32)");
        // (4 mesh + 13 ejection) output ports x 8 VCs.
        rejects(
            |c| {
                c.vcs = VcLayout::new(8, 2, false);
                c.mc_eject_ports = 13;
            },
            "136 output-VC slots per router (limit 128)",
        );
        let mut c = NetworkConfig::baseline_mesh(4);
        c.vc_depth = 255;
        c.validate().unwrap();
    }

    #[test]
    fn layout_dateline_split() {
        let l = VcLayout::new(4, 2, false).with_dateline();
        assert_eq!(l.set_for(PacketClass::Request, Phase::Xy), VcSet::new(0, 2));
        assert_eq!(l.dateline_set(PacketClass::Request, Phase::Xy, false), VcSet::new(0, 1));
        assert_eq!(l.dateline_set(PacketClass::Request, Phase::Xy, true), VcSet::new(1, 1));
        assert_eq!(l.dateline_set(PacketClass::Reply, Phase::Yx, false), VcSet::new(2, 1));
        assert_eq!(l.dateline_set(PacketClass::Reply, Phase::Yx, true), VcSet::new(3, 1));
        // Without the split, dateline_set degenerates to set_for.
        let plain = VcLayout::new(2, 2, false);
        assert_eq!(
            plain.dateline_set(PacketClass::Reply, Phase::Xy, true),
            plain.set_for(PacketClass::Reply, Phase::Xy)
        );
    }

    #[test]
    #[should_panic(expected = "dateline splitting")]
    fn layout_rejects_undersized_dateline_split() {
        let _ = VcLayout::new(2, 2, false).with_dateline();
    }

    #[test]
    fn torus_config_is_valid_and_dateline_is_required() {
        let c = NetworkConfig::baseline_torus(6);
        c.validate().unwrap();
        assert!(c.mesh.is_torus());
        assert!(c.vcs.split_dateline);
        assert_eq!(c.placement(), Some(Placement::TopBottom));

        let mut broken = c.clone();
        broken.vcs = VcLayout::new(4, 2, false);
        let err = broken.validate().unwrap_err();
        assert!(err.contains("dateline"), "{err}");

        let mut cb = c.clone();
        cb.routing = RoutingKind::Checkerboard;
        cb.vcs = VcLayout::new(4, 2, true);
        assert!(cb.validate().is_err(), "checkerboard routing undefined on torus");
    }

    #[test]
    fn dateline_without_torus_rejected() {
        let mut c = NetworkConfig::baseline_mesh(6);
        c.vcs = VcLayout::new(4, 2, false).with_dateline();
        let err = c.validate().unwrap_err();
        assert!(err.contains("torus"), "{err}");
    }

    #[test]
    fn cmesh_config_is_valid_and_ports_track_concentration() {
        let c = NetworkConfig::concentrated_mesh(6, 2);
        c.validate().unwrap();
        assert_eq!(c.mesh.concentration(), 2);
        assert_eq!(c.core_inject_ports, 2);
        assert_eq!(c.core_eject_ports, 2);

        let mut broken = c.clone();
        broken.core_inject_ports = 3;
        assert!(broken.validate().is_err());
    }

    #[test]
    fn sliced_torus_keeps_dateline_split() {
        let sub = NetworkConfig::baseline_torus(6).slice();
        assert!(sub.vcs.split_dateline);
        sub.validate().unwrap();
    }

    #[test]
    fn multiport_only_at_mcs() {
        let mut c = NetworkConfig::baseline_mesh(6);
        c.mc_inject_ports = 2;
        let mc = c.mc_nodes[0];
        let core = (0..c.mesh.len()).find(|n| !c.mc_nodes.contains(n)).unwrap();
        assert_eq!(c.inject_ports(mc), 2);
        assert_eq!(c.inject_ports(core), 1);
    }
}
