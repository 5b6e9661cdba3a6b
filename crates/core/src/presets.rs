//! Named configurations for every design point the paper evaluates.

use crate::system::IcntConfig;
use tenoc_noc::{Mesh, NetworkConfig, Placement, VcLayout};

/// The design points of the paper's evaluation (Section V; abbreviations
/// from Table V).
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
    /// every row and column wrapped (ROADMAP item 4's first non-mesh
    /// fabric; halves the network diameter for extra link area).
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

    /// Builds the interconnect configuration for a `k x k` mesh.
    pub fn icnt(&self, k: usize) -> IcntConfig {
        let base = NetworkConfig::baseline_mesh(k);
        match self {
            Preset::BaselineTbDor => IcntConfig::Mesh(base),
            Preset::TbDor2xBw => IcntConfig::Mesh(NetworkConfig { channel_bytes: 32, ..base }),
            Preset::TbDor1Cycle => IcntConfig::Mesh(NetworkConfig { router_stages: 1, ..base }),
            Preset::CpDor2vc => {
                // Staggered MC placement on a full-router mesh.
                let mesh = Mesh::all_full(k);
                let mc_nodes =
                    Mesh::checkerboard(k).mcs(Placement::Checkerboard, base.mc_nodes.len());
                IcntConfig::Mesh(NetworkConfig { mesh, mc_nodes, ..base })
            }
            Preset::CpDor4vc => {
                let IcntConfig::Mesh(cp) = Preset::CpDor2vc.icnt(k) else { unreachable!() };
                IcntConfig::Mesh(NetworkConfig { vcs: VcLayout::new(4, 2, false), ..cp })
            }
            Preset::CpCr4vc => IcntConfig::Mesh(NetworkConfig::checkerboard_mesh(k)),
            Preset::DoubleCpCr => IcntConfig::Double(NetworkConfig::checkerboard_mesh(k)),
            Preset::DoubleCpCr2InjPorts => {
                let mut c = NetworkConfig::checkerboard_mesh(k);
                c.mc_inject_ports = 2;
                IcntConfig::Double(c)
            }
            Preset::DoubleCpCr2EjPorts => {
                let mut c = NetworkConfig::checkerboard_mesh(k);
                c.mc_eject_ports = 2;
                IcntConfig::Double(c)
            }
            Preset::DoubleCpCr2Both => {
                let mut c = NetworkConfig::checkerboard_mesh(k);
                c.mc_inject_ports = 2;
                c.mc_eject_ports = 2;
                IcntConfig::Double(c)
            }
            Preset::ThroughputEffective => Preset::DoubleCpCr2InjPorts.icnt(k),
            Preset::CpCr2pSingle => {
                let mut c = NetworkConfig::checkerboard_mesh(k);
                c.mc_inject_ports = 2;
                IcntConfig::Mesh(c)
            }
            Preset::TorusDor => IcntConfig::Mesh(NetworkConfig::baseline_torus(k)),
            Preset::CMeshDor => IcntConfig::Mesh(NetworkConfig::concentrated_mesh(k, 2)),
            Preset::Perfect => IcntConfig::Perfect(base),
            Preset::BwLimited(fraction) => {
                let flits = bw_limit_flits_per_icnt_cycle(*fraction, base.mc_nodes.len());
                IcntConfig::BwLimited(base, flits)
            }
        }
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
    use tenoc_noc::{RouterKind, RoutingKind};

    #[test]
    fn all_named_presets_build_valid_configs() {
        for p in Preset::NAMED {
            let icnt = p.icnt(6);
            icnt.net().validate().unwrap_or_else(|e| panic!("{}: {e}", p.label()));
            if let IcntConfig::Double(single) = &icnt {
                // What a double preset simulates is its two slices.
                single.slice().validate().unwrap_or_else(|e| panic!("{} slice: {e}", p.label()));
            }
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
