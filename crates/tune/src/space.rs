//! The tuner's search policy and candidates. The design space itself —
//! [`Org`], [`DesignPoint`] and its fallible builder — lives in
//! `tenoc-core` beside the presets, which are named points of it; a point
//! the builder cannot construct is an *unconstructible* witness, the free
//! tier-zero rejection of the staged search.

use serde::Serialize;
use tenoc_core::{DesignPoint, IcntConfig, Org};
use tenoc_noc::RoutingKind;

/// The routing functions worth pairing with `org` in the default grid
/// (others are either redundant by symmetry or known illegal for every
/// axis combination).
pub(crate) fn default_routings(org: Org) -> Vec<RoutingKind> {
    match org {
        Org::MeshTb | Org::MeshCp => vec![RoutingKind::DorXy, RoutingKind::O1Turn],
        Org::CbMeshCp => vec![RoutingKind::Checkerboard, RoutingKind::DorXy, RoutingKind::O1Turn],
        // Torus-with-checkerboard is deliberately kept: it is
        // unconstructible at every grid VC count and demonstrates the
        // builder's rejection witnesses.
        Org::TorusTb => vec![RoutingKind::DorXy, RoutingKind::Checkerboard],
        Org::CMeshTb => vec![RoutingKind::DorXy],
    }
}

/// A constructible candidate: a named point resolved to its interconnect
/// configuration.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Deterministic grid name ([`DesignPoint::name`]), or `pin:<label>`
    /// for a pinned reference preset absent from the grid.
    pub name: String,
    /// Fabric family ([`DesignPoint::family`]) used for stratified stage-2
    /// promotion; pinned out-of-grid candidates are each their own
    /// family.
    pub family: String,
    /// The design point the candidate was built from; `None` only for a
    /// pinned preset that no point expresses.
    pub point: Option<DesignPoint>,
    /// The resolved interconnect.
    pub icnt: IcntConfig,
    /// Labels of the presets this candidate is (see `is_preset`).
    pub aliases: Vec<String>,
    /// Pinned reference points ride through every stage un-eliminated so
    /// the final report can place them against the frontier.
    pub pinned: bool,
}

impl Candidate {
    /// The candidate built from grid point `point`, or the builder's
    /// unconstructible witness.
    pub(crate) fn from_point(point: DesignPoint, k: usize) -> Result<Candidate, String> {
        let icnt = point.build(k)?;
        Ok(Candidate {
            name: point.name(),
            family: point.family(),
            point: Some(point),
            icnt,
            aliases: Vec::new(),
            pinned: false,
        })
    }
}

/// Canonical content hash of a resolved interconnect configuration — the
/// same canonical form the result store keys cells and probes by. The
/// report names each stage-1 entry, finalist and frontier point by it;
/// which candidate is which preset is decided by design point, not by
/// this hash.
pub fn config_hash(icnt: &IcntConfig) -> String {
    tenoc_harness::hash_value(&icnt.to_value())
}
