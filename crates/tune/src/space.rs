//! The tuner's design space: organization axes, the fallible candidate
//! builder, and deterministic naming.
//!
//! A *candidate* is one point of the search grid resolved to a concrete
//! [`IcntConfig`]. Construction is fallible by design: VC-layout rules
//! (phase splitting, torus datelines) make some axis combinations
//! impossible to even express, and the builder turns each such point
//! into a human-readable *unconstructible* witness instead of a panic —
//! the free tier-zero rejection of the staged search.

use serde::Serialize;
use tenoc_core::IcntConfig;
use tenoc_noc::{Mesh, NetworkConfig, Placement, RoutingKind, VcLayout};

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

    /// Short label used in candidate names.
    pub fn label(self) -> &'static str {
        match self {
            Org::MeshTb => "mesh-tb",
            Org::MeshCp => "mesh-cp",
            Org::CbMeshCp => "cbmesh-cp",
            Org::TorusTb => "torus-tb",
            Org::CMeshTb => "cmesh-tb",
        }
    }

    /// Whether the organization has wraparound links (and therefore needs
    /// dateline VCs).
    pub fn is_torus(self) -> bool {
        self == Org::TorusTb
    }

    /// The organization's base configuration at radix `k` — topology, MC
    /// placement and Table III defaults. Per-candidate axes (routing,
    /// VCs, buffers, channel width, ports) are overridden on top.
    pub fn base(self, k: usize) -> NetworkConfig {
        match self {
            Org::MeshTb => NetworkConfig::baseline_mesh(k),
            Org::MeshCp => {
                // Staggered MC placement on a full-router mesh, exactly as
                // `Preset::CpDor2vc` builds it.
                let base = NetworkConfig::baseline_mesh(k);
                let mesh = Mesh::all_full(k);
                let mc_nodes =
                    Mesh::checkerboard(k).mcs(Placement::Checkerboard, base.mc_nodes.len());
                NetworkConfig { mesh, mc_nodes, ..base }
            }
            Org::CbMeshCp => NetworkConfig::checkerboard_mesh(k),
            Org::TorusTb => NetworkConfig::baseline_torus(k),
            Org::CMeshTb => NetworkConfig::concentrated_mesh(k, 2),
        }
    }

    /// The routing functions worth pairing with this organization in the
    /// default grid (others are either redundant by symmetry or known
    /// illegal for every axis combination).
    pub(crate) fn default_routings(self) -> Vec<RoutingKind> {
        match self {
            Org::MeshTb | Org::MeshCp => vec![RoutingKind::DorXy, RoutingKind::O1Turn],
            Org::CbMeshCp => {
                vec![RoutingKind::Checkerboard, RoutingKind::DorXy, RoutingKind::O1Turn]
            }
            // Torus-with-checkerboard is deliberately kept: it is
            // unconstructible at every grid VC count and demonstrates the
            // builder's rejection witnesses.
            Org::TorusTb => vec![RoutingKind::DorXy, RoutingKind::Checkerboard],
            Org::CMeshTb => vec![RoutingKind::DorXy],
        }
    }
}

/// Short label for a routing function, used in candidate names.
pub(crate) fn routing_label(r: RoutingKind) -> &'static str {
    match r {
        RoutingKind::DorXy => "dor-xy",
        RoutingKind::Checkerboard => "cr",
        RoutingKind::O1Turn => "o1turn",
    }
}

/// One point of the search grid, before construction.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Point {
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

impl Point {
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
    /// Stage-2 promotion is stratified by family so that open-loop
    /// saturation throughput (which prices families very differently
    /// from closed-loop IPC) ranks candidates within a family without
    /// letting one family flood the cut.
    pub(crate) fn family(&self) -> String {
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
    /// constructor panics exactly, so a constructed candidate can never
    /// panic downstream.
    pub fn build(&self, k: usize) -> Result<IcntConfig, String> {
        let split = self.routing.needs_phase_split();
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
        if self.org.is_torus() {
            let subset = if split { total / 4 } else { total / 2 };
            if subset < 2 || !subset.is_multiple_of(2) {
                return Err(format!(
                    "torus dateline needs an even number (>= 2) of VCs per class/phase \
                     subset, got {subset}"
                ));
            }
        }
        if self.double && !self.channel_bytes.is_multiple_of(2) {
            return Err(format!(
                "a {}-byte channel cannot slice into two half-width networks",
                self.channel_bytes
            ));
        }
        let mut cfg = self.org.base(k);
        cfg.routing = self.routing;
        cfg.vc_depth = self.vc_depth;
        cfg.channel_bytes = self.channel_bytes;
        cfg.mc_inject_ports = self.mc_inject;
        cfg.mc_eject_ports = self.mc_eject;
        let mut vcs = VcLayout::new(total, 2, split);
        if self.org.is_torus() {
            vcs = vcs.with_dateline();
        }
        cfg.vcs = vcs;
        Ok(if self.double { IcntConfig::Double(cfg) } else { IcntConfig::Mesh(cfg) })
    }
}

/// A constructible candidate: a named point resolved to its interconnect
/// configuration and canonical content hash.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Deterministic grid name (see `Point::name`), or `pin:<label>`
    /// for a pinned reference preset absent from the grid.
    pub name: String,
    /// Fabric family (`Point::family`) used for stratified stage-2
    /// promotion; pinned out-of-grid candidates are each their own
    /// family.
    pub family: String,
    /// The resolved interconnect.
    pub icnt: IcntConfig,
    /// Canonical hash of the resolved configuration ([`config_hash`]).
    pub config_hash: String,
    /// Preset labels whose resolved configuration is identical.
    pub aliases: Vec<String>,
    /// Pinned reference points ride through every stage un-eliminated so
    /// the final report can place them against the frontier.
    pub pinned: bool,
}

/// Canonical content hash of a resolved interconnect configuration — the
/// same canonical form the result store keys cells and probes by, so two
/// candidates (or a candidate and a preset) with equal hashes are the
/// same fabric.
pub fn config_hash(icnt: &IcntConfig) -> String {
    tenoc_harness::hash_value(&icnt.to_value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenoc_core::Preset;

    #[test]
    fn grid_point_reproduces_thr_eff_exactly() {
        // The whole search hinges on the grid containing the paper's
        // throughput-effective design: same point, same canonical hash.
        let p = Point {
            org: Org::CbMeshCp,
            routing: RoutingKind::Checkerboard,
            vc_total: 4,
            vc_depth: 8,
            channel_bytes: 16,
            double: true,
            mc_inject: 2,
            mc_eject: 1,
        };
        let icnt = p.build(6).expect("thr-eff point is constructible");
        assert_eq!(config_hash(&icnt), config_hash(&Preset::ThroughputEffective.icnt(6)));
    }

    #[test]
    fn baseline_torus_and_cmesh_points_match_their_presets() {
        for (org, vc, preset) in [
            (Org::MeshTb, 2, Preset::BaselineTbDor),
            (Org::TorusTb, 4, Preset::TorusDor),
            (Org::CMeshTb, 2, Preset::CMeshDor),
        ] {
            let p = Point {
                org,
                routing: RoutingKind::DorXy,
                vc_total: vc,
                vc_depth: 8,
                channel_bytes: 16,
                double: false,
                mc_inject: 1,
                mc_eject: 1,
            };
            let icnt = p.build(6).unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            assert_eq!(
                config_hash(&icnt),
                config_hash(&preset.icnt(6)),
                "{} != {}",
                p.name(),
                preset.label()
            );
        }
    }

    #[test]
    fn unconstructible_points_return_witnesses_not_panics() {
        let cases = [
            // Checkerboard routing with 2 VCs: no room for phase halves.
            Point {
                org: Org::CbMeshCp,
                routing: RoutingKind::Checkerboard,
                vc_total: 2,
                vc_depth: 8,
                channel_bytes: 16,
                double: false,
                mc_inject: 1,
                mc_eject: 1,
            },
            // Torus with 2 VCs: one VC per class cannot hold a dateline.
            Point {
                org: Org::TorusTb,
                routing: RoutingKind::DorXy,
                vc_total: 2,
                vc_depth: 8,
                channel_bytes: 16,
                double: false,
                mc_inject: 1,
                mc_eject: 1,
            },
            // Torus + checkerboard at 4 VCs: 1 VC per class/phase subset.
            Point {
                org: Org::TorusTb,
                routing: RoutingKind::Checkerboard,
                vc_total: 4,
                vc_depth: 8,
                channel_bytes: 16,
                double: false,
                mc_inject: 1,
                mc_eject: 1,
            },
        ];
        for p in cases {
            let err = p.build(6).expect_err(&p.name());
            assert!(!err.is_empty());
        }
    }
}
