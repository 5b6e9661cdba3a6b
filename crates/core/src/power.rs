//! ORION-class NoC energy model (65 nm) — an *extension* beyond the
//! paper, which optimizes area only. The same throughput-effective
//! methodology extends naturally to IPC/W; this module provides
//! order-of-magnitude dynamic and leakage estimates so the benches can
//! report energy-per-bit alongside area.
//!
//! Modeling choices (documented, deliberately simple):
//!
//! * **Buffer energy** — one write + one read per flit per hop, linear in
//!   flit bytes.
//! * **Crossbar energy** — per-flit traversal cost grows with flit width
//!   and with the crossbar's crosspoint count (longer internal wires), so
//!   half-routers and narrower slices pay less per flit.
//! * **Link energy** — linear in bytes, per traversed link (~1.9 mm tile
//!   pitch, paper Figure 14).
//! * **Allocator energy** — small per-flit constant.
//! * **Leakage** — proportional to NoC area.
//!
//! Constants are calibrated to ORION-2.0-era 65 nm reports (~0.5–1 pJ/bit
//! per hop overall); absolute watts are indicative, ratios between designs
//! are the point.

use crate::area::ChipArea;
use serde::{Deserialize, Serialize};
use tenoc_noc::{NetworkConfig, RouterKind};

/// pJ per byte for one buffer write + read.
const E_BUF_PJ_PER_B: f64 = 1.10;
/// pJ per byte per unit crosspoint-scale for one crossbar traversal of a
/// 16-byte-wide crossbar (wire length grows with datapath width, so the
/// per-byte cost scales with `w / 16` on top of this).
const E_XBAR_PJ_PER_B: f64 = 0.55;
/// pJ per byte for one ~1.9 mm link traversal.
const E_LINK_PJ_PER_B: f64 = 1.30;
/// pJ per flit for allocation logic.
const E_ALLOC_PJ: f64 = 0.35;
/// Leakage power density of NoC logic, W per mm² at 65 nm.
const LEAKAGE_W_PER_MM2: f64 = 0.012;
/// Crosspoint count the crossbar constant is normalized to (the baseline
/// 4x5 full-router crossbar).
const XP_NORM: f64 = 20.0;

/// Energy breakdown for one flit traversing one router + its outgoing
/// link, in pJ.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct HopEnergy {
    /// Buffer write + read.
    pub buffer_pj: f64,
    /// Crossbar traversal.
    pub crossbar_pj: f64,
    /// Link traversal.
    pub link_pj: f64,
    /// VC + switch allocation.
    pub allocator_pj: f64,
}

impl HopEnergy {
    /// Total energy per flit-hop.
    pub(crate) fn total_pj(&self) -> f64 {
        self.buffer_pj + self.crossbar_pj + self.link_pj + self.allocator_pj
    }
}

/// The NoC power model.
///
/// ```
/// use tenoc_core::PowerModel;
/// use tenoc_noc::NetworkConfig;
///
/// // A million flit-hops in a millisecond on the baseline mesh.
/// let watts = PowerModel::dynamic_power_w(&NetworkConfig::baseline_mesh(6), 1_000_000, 1e-3);
/// assert!(watts > 0.0 && watts < 1.0);
/// ```
#[derive(Copy, Clone, Debug, Default)]
pub struct PowerModel;

impl PowerModel {
    /// Per-flit-hop energy for a router of `kind` in a network with the
    /// given channel width.
    pub(crate) fn hop_energy(kind: RouterKind, channel_bytes: u32) -> HopEnergy {
        let w = channel_bytes as f64;
        let crosspoints = match kind {
            RouterKind::Full => 20.0,
            RouterKind::Half => 9.6,
        };
        HopEnergy {
            buffer_pj: E_BUF_PJ_PER_B * w,
            // Quadratic in width: wider datapaths mean longer crossbar
            // wires per bit (the same scaling that makes crossbar *area*
            // quadratic in Table VI).
            crossbar_pj: E_XBAR_PJ_PER_B * w * (w / 16.0) * (crosspoints / XP_NORM),
            link_pj: E_LINK_PJ_PER_B * w,
            allocator_pj: E_ALLOC_PJ,
        }
    }

    /// Mean per-flit-hop energy over a network's router mix.
    pub(crate) fn mean_hop_energy(cfg: &NetworkConfig) -> HopEnergy {
        let mut full = 0usize;
        let mut half = 0usize;
        for n in cfg.mesh.nodes() {
            match cfg.mesh.kind(n) {
                RouterKind::Full => full += 1,
                RouterKind::Half => half += 1,
            }
        }
        let (ef, eh) = (
            Self::hop_energy(RouterKind::Full, cfg.channel_bytes),
            Self::hop_energy(RouterKind::Half, cfg.channel_bytes),
        );
        let t = (full + half) as f64;
        let mix = |a: f64, b: f64| (a * full as f64 + b * half as f64) / t;
        HopEnergy {
            buffer_pj: mix(ef.buffer_pj, eh.buffer_pj),
            crossbar_pj: mix(ef.crossbar_pj, eh.crossbar_pj),
            link_pj: mix(ef.link_pj, eh.link_pj),
            allocator_pj: mix(ef.allocator_pj, eh.allocator_pj),
        }
    }

    /// Dynamic power in watts given total flit-hops over an elapsed time.
    pub fn dynamic_power_w(cfg: &NetworkConfig, flit_hops: u64, elapsed_s: f64) -> f64 {
        assert!(elapsed_s > 0.0);
        Self::mean_hop_energy(cfg).total_pj() * flit_hops as f64 * 1e-12 / elapsed_s
    }

    /// Leakage power of the NoC portion of a chip, in watts.
    pub fn leakage_power_w(area: &ChipArea) -> f64 {
        area.noc() * LEAKAGE_W_PER_MM2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::Preset;
    use crate::system::IcntConfig;
    use tenoc_noc::NetworkConfig;

    #[test]
    fn hop_energy_in_orion_ballpark() {
        // ~0.3-0.8 pJ/bit/hop at 65 nm for a 16-byte datapath.
        let e = PowerModel::hop_energy(RouterKind::Full, 16);
        let per_bit = e.total_pj() / (16.0 * 8.0);
        assert!((0.2..1.0).contains(&per_bit), "{per_bit} pJ/bit");
    }

    #[test]
    fn half_router_saves_crossbar_energy() {
        let f = PowerModel::hop_energy(RouterKind::Full, 16);
        let h = PowerModel::hop_energy(RouterKind::Half, 16);
        assert!(h.crossbar_pj < f.crossbar_pj * 0.6);
        assert_eq!(h.buffer_pj, f.buffer_pj);
        assert!(h.total_pj() < f.total_pj());
    }

    #[test]
    fn energy_scaling_with_width() {
        let e16 = PowerModel::hop_energy(RouterKind::Full, 16);
        let e32 = PowerModel::hop_energy(RouterKind::Full, 32);
        // Buffers and links are linear in width; the crossbar is
        // quadratic (like its area).
        assert!((e32.buffer_pj / e16.buffer_pj - 2.0).abs() < 1e-9);
        assert!((e32.link_pj / e16.link_pj - 2.0).abs() < 1e-9);
        assert!((e32.crossbar_pj / e16.crossbar_pj - 4.0).abs() < 1e-9);
    }

    #[test]
    fn checkerboard_mesh_has_lower_mean_hop_energy() {
        let full = NetworkConfig::baseline_mesh(6);
        let cb = NetworkConfig::checkerboard_mesh(6);
        assert!(
            PowerModel::mean_hop_energy(&cb).total_pj()
                < PowerModel::mean_hop_energy(&full).total_pj()
        );
    }

    #[test]
    fn leakage_tracks_noc_area() {
        let base = crate::area::AreaModel::chip_area(&Preset::BaselineTbDor.icnt(6));
        let te = crate::area::AreaModel::chip_area(&Preset::ThroughputEffective.icnt(6));
        assert!(PowerModel::leakage_power_w(&te) < PowerModel::leakage_power_w(&base));
        let IcntConfig::Mesh(_) = Preset::BaselineTbDor.icnt(6) else { panic!() };
    }

    #[test]
    fn dynamic_power_sane_magnitude() {
        // A saturated baseline mesh: ~120 links x 0.5 flits/cycle at
        // 602 MHz — expect single-digit watts.
        let cfg = NetworkConfig::baseline_mesh(6);
        let flit_hops = (120.0 * 0.5 * 602e6) as u64; // one second's worth
        let p = PowerModel::dynamic_power_w(&cfg, flit_hops, 1.0);
        assert!((0.5..20.0).contains(&p), "{p} W");
    }
}
