//! Named configurations for every design point the paper evaluates, and
//! the design space they are points of: a [`DesignPoint`] picks one value
//! per axis, and [`DesignPoint::build`] is the one builder that resolves
//! it — for the presets ([`Preset::point`]) and for every point the
//! autotuner (`tenoc-tune`) enumerates.

use crate::system::IcntConfig;
use tenoc_noc::{NetworkConfig, RoutingKind, VcLayout};

/// The largest mesh radix `k` an entry point accepts: `tenoc tune --k`,
/// `tenoc audit --k` and a `tenoc serve` request's `mesh_k` all refuse a
/// radix outside `2..=MAX_MESH_K` before resolving any fabric. It keeps
/// every preset's core count (at most two cores per router, on the
/// concentrated mesh) inside the 15 tag bits a packet carries its core
/// index in. The paper's mesh is 6 × 6; the tests and the scaling
/// ablation use 4, 6 and 8.
pub const MAX_MESH_K: usize = 16;

/// The design points of the paper's evaluation (Section V; abbreviations
/// from Table V). All but three are named [`DesignPoint`]s of the space
/// the autotuner searches ([`point`](Self::point)), built by the one
/// builder [`DesignPoint::build`].
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Preset {
    /// Balanced baseline: 6x6 full-router mesh, 16 B channels, 2 VCs,
    /// DOR, MCs top-bottom (TB-DOR).
    BaselineTbDor,
    /// Baseline with 32 B channels (the "2x BW" point).
    TbDor2xBw,
    /// Baseline with aggressive 1-cycle routers.
    TbDor1Cycle,
    /// Checkerboard *placement* only: staggered MCs, full routers, DOR,
    /// 2 VCs (CP-DOR).
    CpDor2vc,
    /// CP-DOR with 4 VCs (buffer-equalized comparison for Figure 17).
    CpDor4vc,
    /// Checkerboard mesh (half-routers) with checkerboard routing and
    /// 4 VCs (CP-CR).
    CpCr4vc,
    /// CP-CR sliced into two 8 B networks (request/reply).
    DoubleCpCr,
    /// Double CP-CR with 2 injection ports at MC routers.
    DoubleCpCr2InjPorts,
    /// Double CP-CR with 2 ejection ports at MC routers.
    DoubleCpCr2EjPorts,
    /// Double CP-CR with 2 injection and 2 ejection ports.
    DoubleCpCr2Both,
    /// The combined throughput-effective design the paper ships: CP + CR
    /// + double network + 2 injection ports (Figure 20).
    ThroughputEffective,
    /// CP + CR + 2 injection ports on the *single* 16 B network (no
    /// channel slicing). Not a paper design point: reported alongside the
    /// paper's combination because in this simulator's stricter bandwidth
    /// accounting the 50/50 slice caps reply throughput below the single
    /// network's for saturated benchmarks (see EXPERIMENTS.md).
    CpCr2pSingle,
    /// Torus fabric with DOR and dateline VCs: the baseline grid with
    /// every row and column wrapped (the first non-mesh fabric, DESIGN
    /// §17; halves the network diameter for extra link area).
    TorusDor,
    /// Concentrated mesh: two cores share every compute router through
    /// dedicated terminal ports (7-port radix, same grid and links).
    CMeshDor,
    /// Zero-latency infinite-bandwidth network (perfect NoC).
    Perfect,
    /// Zero-latency network capped at `fraction` of peak off-chip DRAM
    /// bandwidth (the Figure 6 limit-study network).
    BwLimited(f64),
}

impl Preset {
    /// All closed-loop presets with fixed parameters (excludes
    /// `BwLimited`, which is swept).
    pub const NAMED: [Preset; 15] = [
        Preset::BaselineTbDor,
        Preset::TbDor2xBw,
        Preset::TbDor1Cycle,
        Preset::CpDor2vc,
        Preset::CpDor4vc,
        Preset::CpCr4vc,
        Preset::DoubleCpCr,
        Preset::DoubleCpCr2InjPorts,
        Preset::DoubleCpCr2EjPorts,
        Preset::DoubleCpCr2Both,
        Preset::ThroughputEffective,
        Preset::CpCr2pSingle,
        Preset::TorusDor,
        Preset::CMeshDor,
        Preset::Perfect,
    ];

    /// The preset's canonical flag name: what `tenoc list` and the usage
    /// text print and [`from_flag`](Self::from_flag) resolves back to it.
    /// `BwLimited` carries a parameter, so no flag names it.
    pub fn flag(&self) -> &'static str {
        match self {
            Preset::BaselineTbDor => "baseline",
            Preset::TbDor2xBw => "2x-bw",
            Preset::TbDor1Cycle => "1-cycle",
            Preset::CpDor2vc => "cp-dor",
            Preset::CpDor4vc => "cp-dor-4vc",
            Preset::CpCr4vc => "cp-cr",
            Preset::DoubleCpCr => "double",
            Preset::DoubleCpCr2InjPorts => "2p-inj",
            Preset::DoubleCpCr2EjPorts => "2p-ej",
            Preset::DoubleCpCr2Both => "2p-both",
            Preset::ThroughputEffective => "thr-eff",
            Preset::CpCr2pSingle => "cp-cr-2p",
            Preset::TorusDor => "torus",
            Preset::CMeshDor => "cmesh",
            Preset::Perfect => "perfect",
            Preset::BwLimited(_) => "bw-limited",
        }
    }

    /// Resolves a CLI/service flag name (e.g. `baseline`, `thr-eff`,
    /// `cp-cr`) to a preset: a [`NAMED`](Self::NAMED) preset's
    /// [`flag`](Self::flag) or one of the aliases below. Case-insensitive.
    /// `tenoc sweep`, `tenoc serve` requests and the usage text all share
    /// these names.
    pub fn from_flag(s: &str) -> Option<Preset> {
        let s = s.to_ascii_lowercase();
        let alias = || match s.as_str() {
            "tb-dor" => Some(Preset::BaselineTbDor),
            "2x" => Some(Preset::TbDor2xBw),
            "1cycle" => Some(Preset::TbDor1Cycle),
            "double-2p-inj" => Some(Preset::DoubleCpCr2InjPorts),
            "double-2p-ej" => Some(Preset::DoubleCpCr2EjPorts),
            "double-2p-both" => Some(Preset::DoubleCpCr2Both),
            "te" => Some(Preset::ThroughputEffective),
            "te-single" => Some(Preset::CpCr2pSingle),
            "torus-dor" => Some(Preset::TorusDor),
            "cmesh-dor" => Some(Preset::CMeshDor),
            "ideal" => Some(Preset::Perfect),
            _ => None,
        };
        Preset::NAMED.into_iter().find(|p| p.flag() == s).or_else(alias)
    }

    /// Short label used in printed tables.
    pub fn label(&self) -> String {
        match self {
            Preset::BaselineTbDor => "TB-DOR".into(),
            Preset::TbDor2xBw => "2x-TB-DOR".into(),
            Preset::TbDor1Cycle => "TB-DOR-1cyc".into(),
            Preset::CpDor2vc => "CP-DOR-2VC".into(),
            Preset::CpDor4vc => "CP-DOR-4VC".into(),
            Preset::CpCr4vc => "CP-CR-4VC".into(),
            Preset::DoubleCpCr => "Double-CP-CR".into(),
            Preset::DoubleCpCr2InjPorts => "Double-CP-CR-2P(inj)".into(),
            Preset::DoubleCpCr2EjPorts => "Double-CP-CR-2P(ej)".into(),
            Preset::DoubleCpCr2Both => "Double-CP-CR-2P(both)".into(),
            Preset::ThroughputEffective => "Thr-Eff".into(),
            Preset::CpCr2pSingle => "CP-CR-2P(single)".into(),
            Preset::TorusDor => "Torus-DOR".into(),
            Preset::CMeshDor => "CMesh-DOR".into(),
            Preset::Perfect => "Perfect".into(),
            Preset::BwLimited(f) => format!("BW-{f:.2}"),
        }
    }

    /// The preset's point in the design space, or `None` for the three
    /// presets no point expresses: `TB-DOR-1cyc` (router pipeline depth is
    /// not an axis) and the two ideal networks. `Thr-Eff` and
    /// `Double-CP-CR-2P(inj)` are the same point.
    pub fn point(&self) -> Option<DesignPoint> {
        // Every preset routes DOR, or checkerboard routing on the
        // checkerboard mesh, with the baseline's 8-flit VC buffers.
        let (org, vc_total, channel_bytes, double, [mc_inject, mc_eject]) = match self {
            Preset::BaselineTbDor => (Org::MeshTb, 2, 16, false, [1, 1]),
            Preset::TbDor2xBw => (Org::MeshTb, 2, 32, false, [1, 1]),
            Preset::CpDor2vc => (Org::MeshCp, 2, 16, false, [1, 1]),
            Preset::CpDor4vc => (Org::MeshCp, 4, 16, false, [1, 1]),
            Preset::CpCr4vc => (Org::CbMeshCp, 4, 16, false, [1, 1]),
            Preset::DoubleCpCr => (Org::CbMeshCp, 4, 16, true, [1, 1]),
            Preset::DoubleCpCr2InjPorts | Preset::ThroughputEffective => {
                (Org::CbMeshCp, 4, 16, true, [2, 1])
            }
            Preset::DoubleCpCr2EjPorts => (Org::CbMeshCp, 4, 16, true, [1, 2]),
            Preset::DoubleCpCr2Both => (Org::CbMeshCp, 4, 16, true, [2, 2]),
            Preset::CpCr2pSingle => (Org::CbMeshCp, 4, 16, false, [2, 1]),
            Preset::TorusDor => (Org::TorusTb, 4, 16, false, [1, 1]),
            Preset::CMeshDor => (Org::CMeshTb, 2, 16, false, [1, 1]),
            Preset::TbDor1Cycle | Preset::Perfect | Preset::BwLimited(_) => return None,
        };
        let routing =
            if org == Org::CbMeshCp { RoutingKind::Checkerboard } else { RoutingKind::DorXy };
        Some(DesignPoint {
            org,
            routing,
            vc_total,
            vc_depth: 8,
            channel_bytes,
            double,
            mc_inject,
            mc_eject,
        })
    }

    /// Builds the interconnect configuration for a `k x k` mesh: the
    /// preset's [`point`](Self::point) built at `k`, or one of the three
    /// configurations no point expresses.
    pub fn icnt(&self, k: usize) -> IcntConfig {
        if let Some(point) = self.point() {
            return point.build(k).unwrap_or_else(|e| panic!("{}: {e}", self.label()));
        }
        let base = NetworkConfig::baseline_mesh(k);
        match self {
            Preset::TbDor1Cycle => IcntConfig::Mesh(NetworkConfig { router_stages: 1, ..base }),
            Preset::Perfect => IcntConfig::Perfect(base),
            Preset::BwLimited(fraction) => {
                let flits = bw_limit_flits_per_icnt_cycle(*fraction, base.mc_nodes.len());
                IcntConfig::BwLimited(base, flits)
            }
            _ => unreachable!("{} has a design point", self.label()),
        }
    }
}

/// Network organization: topology plus memory-controller placement, the
/// coarse axis of the paper's design space (Section V).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Org {
    /// Full-router mesh, MCs on the top/bottom rows (the baseline).
    MeshTb,
    /// Full-router mesh, checkerboard-staggered MC placement.
    MeshCp,
    /// Checkerboard mesh (alternating half routers), staggered MCs.
    CbMeshCp,
    /// Torus with wraparound links, MCs on the top/bottom rows.
    TorusTb,
    /// Concentrated mesh (2 cores per router), MCs on the top/bottom rows.
    CMeshTb,
}

impl Org {
    /// Every organization, in enumeration order.
    pub const ALL: [Org; 5] = [Org::MeshTb, Org::MeshCp, Org::CbMeshCp, Org::TorusTb, Org::CMeshTb];

    /// Short label used in design-point names.
    pub fn label(self) -> &'static str {
        match self {
            Org::MeshTb => "mesh-tb",
            Org::MeshCp => "mesh-cp",
            Org::CbMeshCp => "cbmesh-cp",
            Org::TorusTb => "torus-tb",
            Org::CMeshTb => "cmesh-tb",
        }
    }

    /// The organization's base configuration at radix `k` — topology, MC
    /// placement and Table III defaults. A [`DesignPoint`] overrides its
    /// axes (routing, VCs, buffers, channel width, ports) on top.
    pub fn base(self, k: usize) -> NetworkConfig {
        match self {
            Org::MeshTb => NetworkConfig::baseline_mesh(k),
            Org::MeshCp => {
                // The checkerboard mesh's staggered MC nodes on full routers.
                let mut cfg = NetworkConfig::baseline_mesh(k);
                cfg.mc_nodes = cfg.mesh.checkerboard_mcs(cfg.mc_nodes.len());
                cfg
            }
            Org::CbMeshCp => NetworkConfig::checkerboard_mesh(k),
            Org::TorusTb => NetworkConfig::baseline_torus(k),
            Org::CMeshTb => NetworkConfig::concentrated_mesh(k, 2),
        }
    }
}

/// Short label for a routing function, used in design-point names.
fn routing_label(r: RoutingKind) -> &'static str {
    match r {
        RoutingKind::DorXy => "dor-xy",
        RoutingKind::Checkerboard => "cr",
        RoutingKind::O1Turn => "o1turn",
    }
}

/// One point of the design space: organization × routing × VCs × buffer
/// depth × channel width × slicing × MC ports. Every physical preset is
/// one ([`Preset::point`]), and the autotuner enumerates a grid of them.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DesignPoint {
    /// Topology + MC placement.
    pub org: Org,
    /// Routing function.
    pub routing: RoutingKind,
    /// Total virtual channels (split across the 2 protocol classes).
    pub vc_total: u8,
    /// Buffer depth per VC, in flits.
    pub vc_depth: usize,
    /// Channel width in bytes.
    pub channel_bytes: u32,
    /// `true` slices the fabric into two half-width physical networks.
    pub double: bool,
    /// MC injection ports.
    pub mc_inject: usize,
    /// MC ejection ports.
    pub mc_eject: usize,
}

impl DesignPoint {
    /// The point's deterministic name, e.g. `cbmesh-cp/cr/4v/d8/c16/dbl/i2e1`.
    pub fn name(&self) -> String {
        format!(
            "{}/{}/{}v/d{}/c{}/{}/i{}e{}",
            self.org.label(),
            routing_label(self.routing),
            self.vc_total,
            self.vc_depth,
            self.channel_bytes,
            if self.double { "dbl" } else { "sgl" },
            self.mc_inject,
            self.mc_eject
        )
    }

    /// The point's fabric *family*: organization, routing and slicing —
    /// the axes that change what kind of fabric it is, as opposed to the
    /// tuning knobs (VCs, depth, width, ports) that vary within a kind.
    pub fn family(&self) -> String {
        format!(
            "{}/{}/{}",
            self.org.label(),
            routing_label(self.routing),
            if self.double { "dbl" } else { "sgl" }
        )
    }

    /// Resolves the point to a concrete interconnect configuration, or an
    /// unconstructible-witness explaining which VC-layout rule the axis
    /// combination cannot satisfy. The checks mirror the `VcLayout`
    /// constructor panics exactly, so a constructed point can never panic
    /// downstream.
    pub fn build(&self, k: usize) -> Result<IcntConfig, String> {
        let split = self.routing.needs_phase_split();
        // Wraparound links need dateline VCs.
        let torus = self.org == Org::TorusTb;
        let total = self.vc_total;
        if total < 2 || !total.is_multiple_of(2) {
            return Err(format!("{total} VCs cannot split evenly across 2 protocol classes"));
        }
        if split && !(total / 2).is_multiple_of(2) {
            return Err(format!(
                "{} routing needs phase-split VCs: {total} total leaves {} per class, \
                 which cannot halve into XY/YX phases",
                routing_label(self.routing),
                total / 2
            ));
        }
        if torus {
            let subset = if split { total / 4 } else { total / 2 };
            if subset < 2 || !subset.is_multiple_of(2) {
                return Err(format!(
                    "torus dateline needs an even number (>= 2) of VCs per class/phase \
                     subset, got {subset}"
                ));
            }
        }
        let mut cfg = self.org.base(k);
        cfg.routing = self.routing;
        cfg.vc_depth = self.vc_depth;
        cfg.channel_bytes = self.channel_bytes;
        cfg.mc_inject_ports = self.mc_inject;
        cfg.mc_eject_ports = self.mc_eject;
        let mut vcs = VcLayout::new(total, 2, split);
        if torus {
            vcs = vcs.with_dateline();
        }
        cfg.vcs = vcs;
        let icnt = if self.double { IcntConfig::Double(cfg) } else { IcntConfig::Mesh(cfg) };
        icnt.physical().map_err(|e| e.to_string())?;
        Ok(icnt)
    }
}

/// Converts a fraction of peak off-chip DRAM bandwidth into an aggregate
/// flit budget per interconnect cycle (the x-axis conversion under the
/// paper's Figure 6: `x = N * 16B * 602MHz / (1107MHz * n_mc * 16B)`).
pub fn bw_limit_flits_per_icnt_cycle(fraction: f64, n_mc: usize) -> f64 {
    fraction * 1107.0 * n_mc as f64 * 16.0 / (602.0 * 16.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenoc_noc::RouterKind;

    /// Every preset at the largest admitted radix has fewer cores than the
    /// 15-bit core field of a packet tag can name, so no core's reads are
    /// mistaken for writes (`System::new_mixed` asserts the same limit).
    #[test]
    fn every_preset_fits_its_core_indices_in_the_tag_at_the_largest_radix() {
        for p in Preset::NAMED {
            let cfg = crate::SystemConfig::with_icnt(p.icnt(MAX_MESH_K));
            let net = cfg.icnt.net();
            let cores = (net.mesh.len() - net.mc_nodes.len()) * cfg.cores_per_node;
            assert!(cores <= 1 << 15, "{}: {cores} cores at k = {MAX_MESH_K}", p.label());
        }
    }

    #[test]
    fn all_named_presets_build_valid_configs() {
        for p in Preset::NAMED {
            let icnt = p.icnt(6);
            icnt.net().validate().unwrap_or_else(|e| panic!("{}: {e}", p.label()));
            // What a preset simulates is its physical networks.
            let nets = icnt.physical().unwrap_or_else(|e| panic!("{}: {e}", p.label()));
            nets.net.validate().unwrap_or_else(|e| panic!("{} physical: {e}", p.label()));
        }
    }

    #[test]
    fn baseline_matches_table_iii() {
        let IcntConfig::Mesh(c) = Preset::BaselineTbDor.icnt(6) else { panic!() };
        assert_eq!(c.channel_bytes, 16);
        assert_eq!(c.vcs.total, 2);
        assert_eq!(c.vc_depth, 8);
        assert_eq!(c.router_stages, 4);
        assert_eq!(c.link_latency, 1);
        assert_eq!(c.routing, RoutingKind::DorXy);
        assert_eq!(c.mc_nodes.len(), 8);
    }

    #[test]
    fn cp_dor_staggers_mcs_on_full_mesh() {
        let IcntConfig::Mesh(c) = Preset::CpDor2vc.icnt(6) else { panic!() };
        assert!(c.mesh.nodes().all(|n| c.mesh.kind(n) == RouterKind::Full));
        // Not all MCs on the top/bottom rows.
        let interior = c
            .mc_nodes
            .iter()
            .filter(|&&n| {
                let y = c.mesh.coord(n).y;
                y != 0 && y != 5
            })
            .count();
        assert!(interior > 0, "staggered placement must use interior rows");
    }

    #[test]
    fn cp_cr_uses_half_routers_and_phase_vcs() {
        let IcntConfig::Mesh(c) = Preset::CpCr4vc.icnt(6) else { panic!() };
        assert_eq!(c.routing, RoutingKind::Checkerboard);
        assert!(c.vcs.split_phases);
        assert_eq!(c.vcs.total, 4);
        let halves = c.mesh.nodes().filter(|&n| c.mesh.is_half(n)).count();
        assert_eq!(halves, 18);
    }

    #[test]
    fn throughput_effective_is_double_with_two_inject_ports() {
        let IcntConfig::Double(c) = Preset::ThroughputEffective.icnt(6) else { panic!() };
        assert_eq!(c.mc_inject_ports, 2);
        assert_eq!(c.mc_eject_ports, 1);
        assert_eq!(c.routing, RoutingKind::Checkerboard);
    }

    #[test]
    fn torus_preset_wraps_and_splits_dateline_vcs() {
        let IcntConfig::Mesh(c) = Preset::TorusDor.icnt(6) else { panic!() };
        assert!(c.mesh.is_torus());
        assert!(c.vcs.split_dateline);
        assert_eq!(c.routing, RoutingKind::DorXy);
        c.validate().unwrap();
        // Every edge router wraps to the opposite side.
        assert_eq!(c.mesh.neighbor(5, tenoc_noc::Direction::East), Some(0));
    }

    #[test]
    fn cmesh_preset_concentrates_two_cores_per_router() {
        let IcntConfig::Mesh(c) = Preset::CMeshDor.icnt(6) else { panic!() };
        assert_eq!(c.mesh.concentration(), 2);
        assert_eq!(c.core_inject_ports, 2);
        assert_eq!(c.core_eject_ports, 2);
        assert_eq!(c.mesh.terminals(), 72);
        c.validate().unwrap();
    }

    #[test]
    fn every_named_flag_round_trips_and_aliases_resolve() {
        for p in Preset::NAMED {
            assert_eq!(Preset::from_flag(p.flag()), Some(p), "{}", p.flag());
        }
        assert_eq!(Preset::from_flag("CMesh-DOR"), Some(Preset::CMeshDor));
        assert_eq!(Preset::from_flag("te"), Some(Preset::ThroughputEffective));
        assert_eq!(Preset::from_flag(Preset::BwLimited(0.5).flag()), None);
    }

    #[test]
    fn thirteen_presets_are_twelve_design_points() {
        let points: Vec<DesignPoint> = Preset::NAMED.iter().filter_map(Preset::point).collect();
        assert_eq!(points.len(), 13, "all but TB-DOR-1cyc and Perfect");
        let names: std::collections::HashSet<String> = points.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 12, "Thr-Eff is Double-CP-CR-2P(inj)");
        assert_eq!(Preset::ThroughputEffective.point(), Preset::DoubleCpCr2InjPorts.point());
        assert_eq!(Preset::BwLimited(0.5).point(), None);
    }

    #[test]
    fn unconstructible_points_return_witnesses_not_panics() {
        let cr = Preset::CpCr4vc.point().unwrap();
        let torus = Preset::TorusDor.point().unwrap();
        let cases = [
            // Checkerboard routing with 2 VCs: no room for phase halves.
            DesignPoint { vc_total: 2, ..cr },
            // Torus with 2 VCs: one VC per class cannot hold a dateline.
            DesignPoint { vc_total: 2, ..torus },
            // Torus + checkerboard at 4 VCs: 1 VC per class/phase subset.
            DesignPoint { routing: RoutingKind::Checkerboard, ..torus },
            // An odd channel cannot slice into two half-width networks.
            DesignPoint { channel_bytes: 15, double: true, ..cr },
        ];
        for p in cases {
            let err = p.build(6).expect_err(&p.name());
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn bw_limit_matches_paper_formula() {
        // The paper marks x = 0.816 at N = 12 flits/iclk for 8 MCs.
        let n = bw_limit_flits_per_icnt_cycle(0.816, 8);
        assert!((n - 12.0).abs() < 0.01, "N = {n}");
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<String> =
            Preset::NAMED.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Preset::NAMED.len());
    }
}
