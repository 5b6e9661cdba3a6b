//! ORION-2.0-calibrated analytical area model (65 nm), reproducing the
//! paper's Table VI.
//!
//! The model follows ORION's structure — crossbar area quadratic in
//! channel width and proportional to crosspoint count, buffer area linear
//! in total storage, allocator area quadratic in (ports x VCs) — with
//! constants calibrated against the paper's published numbers:
//!
//! * full-router crossbar, 16 B channels: 1.73 mm²  (4x5 crossbar)
//! * half-router crossbar, 16 B: 0.83 mm²  (four 2x1 muxes + ejection mux)
//! * baseline buffers (5 ports x 2 VCs x 8 flits x 16 B): 0.17 mm²
//! * baseline allocator: 0.004 mm²; 4-VC full-router allocator: 0.015 mm²
//! * link (16 B): 0.175 mm²; a 6x6 mesh has 120 links (21.0 mm²)
//!
//! The GTX280 die is 576 mm²; subtracting the baseline NoC leaves
//! 486 mm² of compute area, held constant across design points.

use crate::system::IcntConfig;
use serde::{Deserialize, Serialize};
use tenoc_noc::{NetworkConfig, RouterKind};

/// mm² per crosspoint per byte² of channel width.
const XBAR_C: f64 = 1.73 / (20.0 * 256.0);
/// mm² per byte of buffer storage.
const BUF_C: f64 = 0.17 / (5.0 * 2.0 * 8.0 * 16.0);
/// mm² per (effective port x VC)² of allocation logic.
const ALLOC_C: f64 = 0.004 / (5.0f64 * 2.0 * 5.0 * 2.0);
/// mm² per 16-byte link.
const LINK_16B: f64 = 0.175;
/// Effective crosspoints of a 1-injection/1-ejection half-router
/// (calibrated to the paper's 0.83/1.73 area ratio).
const HALF_XP: f64 = 9.6;
/// Crosspoints added per extra local port on a half-router.
const HALF_XP_PER_PORT: f64 = 3.35;
/// Compute area of the accelerator (GTX280 die minus baseline NoC).
pub const COMPUTE_AREA_MM2: f64 = 486.0;
/// GTX280 total die area at 65 nm.
pub const GTX280_AREA_MM2: f64 = 576.0;

/// Per-router area breakdown in mm².
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouterArea {
    /// Crossbar (or mux network for half-routers).
    pub crossbar: f64,
    /// Input buffers.
    pub buffer: f64,
    /// VC + switch allocators.
    pub allocator: f64,
}

impl RouterArea {
    /// Total router area.
    pub fn total(&self) -> f64 {
        self.crossbar + self.buffer + self.allocator
    }

    /// Area of one router with the given geometry.
    pub fn new(
        kind: RouterKind,
        channel_bytes: u32,
        vcs: u8,
        depth: usize,
        n_inj: usize,
        n_ej: usize,
    ) -> Self {
        let w = channel_bytes as f64;
        let crosspoints = match kind {
            RouterKind::Full => ((4 + n_inj) * (3 + n_ej)) as f64,
            RouterKind::Half => HALF_XP + HALF_XP_PER_PORT * ((n_inj - 1) + (n_ej - 1)) as f64,
        };
        let p_eff = match kind {
            RouterKind::Full => 4.0 + n_inj as f64,
            RouterKind::Half => 1.5 + n_inj as f64 + (n_ej - 1) as f64,
        };
        RouterArea {
            crossbar: XBAR_C * crosspoints * w * w,
            buffer: BUF_C * (4 + n_inj) as f64 * vcs as f64 * depth as f64 * w,
            allocator: ALLOC_C * (p_eff * vcs as f64).powi(2),
        }
    }
}

/// Chip-level area summary in mm².
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChipArea {
    /// Sum of all router areas (over all physical networks).
    pub routers: f64,
    /// Sum of all link areas.
    pub links: f64,
    /// Compute area (constant).
    pub compute: f64,
}

impl ChipArea {
    /// Total NoC area.
    pub fn noc(&self) -> f64 {
        self.routers + self.links
    }

    /// Total chip area.
    pub fn total(&self) -> f64 {
        self.compute + self.noc()
    }

    /// NoC overhead as a fraction of the GTX280 die.
    pub fn noc_overhead(&self) -> f64 {
        self.noc() / GTX280_AREA_MM2
    }
}

/// The area model over interconnect configurations.
///
/// ```
/// use tenoc_core::area::AreaModel;
/// use tenoc_core::presets::Preset;
///
/// let baseline = AreaModel::chip_area(&Preset::BaselineTbDor.icnt(6));
/// let te = AreaModel::chip_area(&Preset::ThroughputEffective.icnt(6));
/// assert!(te.noc() < baseline.noc() * 0.6, "the combined design shrinks the NoC");
/// ```
#[derive(Copy, Clone, Debug, Default)]
pub struct AreaModel;

impl AreaModel {
    /// Area of one physical network. `mc_extra_inject`/`mc_extra_eject`
    /// select whether this network's MC routers carry the configured
    /// extra ports (in a dedicated double network, extra injection ports
    /// matter on the reply slice and extra ejection ports on the request
    /// slice).
    pub(crate) fn network_area(
        cfg: &NetworkConfig,
        mc_extra_inject: bool,
        mc_extra_eject: bool,
    ) -> ChipArea {
        // Link count comes from the topology itself (4k(k-1) on the mesh,
        // 4k² on the torus). A folded torus keeps every physical hop
        // on-chip but doubles each link's wire length, hence the length
        // factor on its per-link area.
        let length_factor = if cfg.mesh.is_torus() { 2.0 } else { 1.0 };
        let links =
            cfg.mesh.links().count() as f64 * length_factor * LINK_16B * cfg.channel_bytes as f64
                / 16.0;
        let mut routers = 0.0;
        for node in cfg.mesh.nodes() {
            let is_mc = cfg.mc_nodes.contains(&node);
            // Core routers carry the configured terminal ports (1 on the
            // mesh, `conc` on a concentrated mesh — a 5-to-7-port radix
            // range); MC routers charge their extra ports only where the
            // network actually wires them.
            let n_inj = if is_mc {
                if mc_extra_inject {
                    cfg.mc_inject_ports
                } else {
                    1
                }
            } else {
                cfg.core_inject_ports
            };
            let n_ej = if is_mc {
                if mc_extra_eject {
                    cfg.mc_eject_ports
                } else {
                    1
                }
            } else {
                cfg.core_eject_ports
            };
            routers += RouterArea::new(
                cfg.mesh.kind(node),
                cfg.channel_bytes,
                cfg.vcs.total,
                cfg.vc_depth,
                n_inj,
                n_ej,
            )
            .total();
        }
        ChipArea { routers, links, compute: COMPUTE_AREA_MM2 }
    }

    /// Chip area for a system interconnect configuration. Ideal networks
    /// (perfect / bandwidth-limited) are modeled with zero NoC area, as in
    /// the paper's "Ideal NoC" design point.
    pub fn chip_area(icnt: &IcntConfig) -> ChipArea {
        match icnt {
            IcntConfig::Mesh(c) => Self::network_area(c, true, true),
            IcntConfig::Double(c) => {
                let sub = Self::slice(c);
                let request = Self::network_area(&sub, false, true);
                let reply = Self::network_area(&sub, true, false);
                ChipArea {
                    routers: request.routers + reply.routers,
                    links: request.links + reply.links,
                    compute: COMPUTE_AREA_MM2,
                }
            }
            IcntConfig::Perfect(_) | IcntConfig::BwLimited(_, _) => {
                ChipArea { routers: 0.0, links: 0.0, compute: COMPUTE_AREA_MM2 }
            }
        }
    }

    /// The per-slice configuration of a double network for *area*
    /// accounting. Unlike `DoubleNetwork::from_single`, the MC port counts
    /// are kept at their 16-byte-equivalent values: slicing preserves the
    /// terminal interface width, and the paper's Table VI charges extra
    /// ports only for the explicit 2P design.
    pub fn slice(cfg: &NetworkConfig) -> NetworkConfig {
        let mut sub = cfg.clone();
        sub.channel_bytes = cfg.channel_bytes / 2;
        let per_class =
            (cfg.vcs.total / cfg.vcs.classes).max(if cfg.vcs.split_phases { 2 } else { 1 });
        sub.vcs = tenoc_noc::VcLayout::new(per_class, 1, cfg.vcs.split_phases);
        sub
    }
}

/// Throughput-effectiveness: application throughput per unit chip area
/// (IPC/mm²), the paper's figure of merit.
pub fn throughput_effectiveness(ipc: f64, area: &ChipArea) -> f64 {
    ipc / area.total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::Preset;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn full_router_16b_matches_table_vi() {
        let r = RouterArea::new(RouterKind::Full, 16, 2, 8, 1, 1);
        assert!(close(r.crossbar, 1.73, 0.01), "{}", r.crossbar);
        assert!(close(r.buffer, 0.17, 0.005), "{}", r.buffer);
        assert!(close(r.allocator, 0.004, 0.001), "{}", r.allocator);
        assert!(close(r.total(), 1.916, 0.02), "{}", r.total());
    }

    #[test]
    fn doubling_width_quadruples_crossbar() {
        let r16 = RouterArea::new(RouterKind::Full, 16, 2, 8, 1, 1);
        let r32 = RouterArea::new(RouterKind::Full, 32, 2, 8, 1, 1);
        assert!(close(r32.crossbar / r16.crossbar, 4.0, 1e-9));
        assert!(close(r32.crossbar, 6.95, 0.05), "{}", r32.crossbar);
        assert!(close(r32.buffer, 0.34, 0.01));
    }

    #[test]
    fn half_router_is_roughly_half_a_full_router() {
        let full = RouterArea::new(RouterKind::Full, 16, 4, 8, 1, 1);
        let half = RouterArea::new(RouterKind::Half, 16, 4, 8, 1, 1);
        assert!(close(half.crossbar, 0.83, 0.01), "{}", half.crossbar);
        assert!(close(half.total(), 1.18, 0.02), "{}", half.total());
        assert!(close(full.total(), 2.10, 0.03), "{}", full.total());
        let ratio = half.total() / full.total();
        assert!(ratio < 0.6, "paper: half-router is ~56% of a full router, got {ratio}");
    }

    #[test]
    fn double_network_slice_routers_match_table_vi() {
        let full8 = RouterArea::new(RouterKind::Full, 8, 2, 8, 1, 1);
        let half8 = RouterArea::new(RouterKind::Half, 8, 2, 8, 1, 1);
        assert!(close(full8.total(), 0.522, 0.01), "{}", full8.total());
        assert!(close(half8.total(), 0.30, 0.01), "{}", half8.total());
        let half8_2p = RouterArea::new(RouterKind::Half, 8, 2, 8, 2, 1);
        assert!(close(half8_2p.total(), 0.38, 0.01), "{}", half8_2p.total());
    }

    #[test]
    fn baseline_chip_area_matches_gtx280() {
        let a = AreaModel::chip_area(&Preset::BaselineTbDor.icnt(6));
        assert!(close(a.links, 21.0, 0.1), "{}", a.links);
        assert!(close(a.routers, 69.0, 1.0), "{}", a.routers);
        assert!(close(a.total(), 576.0, 1.5), "{}", a.total());
    }

    #[test]
    fn two_x_bandwidth_area_matches_table_vi() {
        let a = AreaModel::chip_area(&Preset::TbDor2xBw.icnt(6));
        assert!(close(a.routers, 263.0, 3.0), "{}", a.routers);
        assert!(close(a.links, 42.0, 0.1));
        assert!(close(a.total(), 790.9, 4.0), "{}", a.total());
    }

    #[test]
    fn cp_cr_reduces_router_area_over_baseline() {
        let a = AreaModel::chip_area(&Preset::CpCr4vc.icnt(6));
        assert!(close(a.routers, 59.2, 1.0), "{}", a.routers);
        assert!(close(a.total(), 566.2, 2.0), "{}", a.total());
    }

    #[test]
    fn double_network_area_matches_table_vi() {
        let a = AreaModel::chip_area(&Preset::DoubleCpCr.icnt(6));
        assert!(close(a.routers, 29.74, 0.6), "{}", a.routers);
        assert!(close(a.links, 21.0, 0.1));
        assert!(close(a.total(), 536.74, 1.5), "{}", a.total());
    }

    #[test]
    fn multiport_adds_about_one_percent_router_area() {
        let base = AreaModel::chip_area(&Preset::DoubleCpCr.icnt(6));
        let mp = AreaModel::chip_area(&Preset::ThroughputEffective.icnt(6));
        let delta = mp.routers - base.routers;
        assert!(delta > 0.0 && delta < 1.0, "extra injection ports cost {delta} mm²");
        assert!(close(mp.total(), 537.44, 1.5), "{}", mp.total());
    }

    #[test]
    fn torus_pays_for_wrap_links() {
        let mesh = AreaModel::chip_area(&Preset::BaselineTbDor.icnt(6));
        let torus = AreaModel::chip_area(&Preset::TorusDor.icnt(6));
        // 4k² links at twice the folded wire length vs 4k(k-1) links:
        // 144 * 2 / 120 = 2.4x the link area.
        assert!(close(torus.links / mesh.links, 2.4, 1e-9), "{}", torus.links / mesh.links);
        // Router area grows only by the wider VC complement (4 vs 2).
        assert!(torus.routers > mesh.routers, "{} vs {}", torus.routers, mesh.routers);
    }

    #[test]
    fn cmesh_charges_concentrated_terminal_ports() {
        let mesh = AreaModel::chip_area(&Preset::BaselineTbDor.icnt(6));
        let cmesh = AreaModel::chip_area(&Preset::CMeshDor.icnt(6));
        // Same grid and links; compute routers grow to 7-port radix.
        assert!(close(cmesh.links, mesh.links, 1e-9));
        assert!(cmesh.routers > mesh.routers, "{} vs {}", cmesh.routers, mesh.routers);
        // Spot-check one concentrated router against the port model.
        let r1 = RouterArea::new(RouterKind::Full, 16, 2, 8, 1, 1);
        let r2 = RouterArea::new(RouterKind::Full, 16, 2, 8, 2, 2);
        assert!(r2.crossbar > r1.crossbar && r2.buffer > r1.buffer);
    }

    #[test]
    fn ideal_network_has_zero_noc_area() {
        let a = AreaModel::chip_area(&Preset::Perfect.icnt(6));
        assert_eq!(a.noc(), 0.0);
        assert!(close(a.total(), COMPUTE_AREA_MM2, 1e-9));
    }

    #[test]
    fn throughput_effectiveness_orders_designs() {
        let base = AreaModel::chip_area(&Preset::BaselineTbDor.icnt(6));
        let te = AreaModel::chip_area(&Preset::ThroughputEffective.icnt(6));
        // Same IPC at lower area => higher throughput-effectiveness.
        assert!(throughput_effectiveness(200.0, &te) > throughput_effectiveness(200.0, &base));
    }
}
