//! The interface between the compute/memory system and any interconnect
//! implementation (real mesh, double network, or the idealized model),
//! and the one constructor pair production code builds physical networks
//! with ([`build_mesh`] / [`build_double`]).

use crate::arena::ArenaNetwork;
use crate::config::NetworkConfig;
use crate::double::ArenaDoubleNetwork;
use crate::packet::{EjectedPacket, Packet};
use crate::stats::NetStats;
use crate::telemetry::{TelemetryConfig, TelemetryReport};
use crate::tick::Tick;
use crate::types::{Direction, NodeId};

/// Builds the production engine — the arena kernel — for one physical
/// mesh. Every configuration that passes [`NetworkConfig::validate`] fits
/// the arena's packed representation (validation consults
/// [`ArenaNetwork::supports`]), so there is no other engine to fall back
/// to; the per-router reference is reached only by naming it.
///
/// # Panics
///
/// Panics if `cfg.validate()` fails.
pub fn build_mesh(cfg: NetworkConfig) -> Box<dyn Interconnect> {
    Box::new(ArenaNetwork::new(cfg))
}

/// Builds the production engine for the channel-sliced double network
/// derived from the single-network configuration `cfg` (see
/// [`NetworkConfig::slice`]): two arena kernels, one per slice.
///
/// # Panics
///
/// Panics if `cfg.channel_bytes` is odd or the sliced configuration fails
/// validation.
pub fn build_double(cfg: &NetworkConfig) -> Box<dyn Interconnect> {
    Box::new(ArenaDoubleNetwork::from_single(cfg))
}

/// A network as seen from its terminals.
///
/// Implementations: [`crate::ArenaNetwork`] / [`crate::ArenaDoubleNetwork`]
/// (single mesh / two channel-sliced meshes on the production engine),
/// [`crate::Network`] / [`crate::DoubleNetwork`] (the same two on the
/// per-router reference engine) and
/// [`crate::BandwidthLimitedInterconnect`] (zero latency, capped aggregate
/// bandwidth — infinite for the perfect network). Callers build physical
/// networks through [`build_mesh`] / [`build_double`] rather than naming
/// an engine.
///
/// Cycle advancement comes from the [`Tick`] supertrait: every
/// implementation's clock edge is `Tick::tick`, and [`Interconnect::step`]
/// is a provided alias kept for terminal-side callers.
pub trait Interconnect: Tick {
    /// Offers a packet for injection at `node`.
    ///
    /// # Errors
    ///
    /// Returns the packet back if the node's network interface cannot
    /// accept it this cycle (all injection ports busy). Callers should
    /// retry on a later cycle; the refusal is recorded in the statistics
    /// (this is the MC-stall signal of the paper's Figure 11).
    fn try_inject(&mut self, node: NodeId, packet: Packet) -> Result<(), Packet>;

    /// Removes the next packet ejected at `node`, if any.
    fn pop(&mut self, node: NodeId) -> Option<EjectedPacket>;

    /// Advances the interconnect by one cycle (alias for [`Tick::tick`]).
    fn step(&mut self) {
        self.tick();
    }

    /// Current cycle (number of `step` calls so far).
    fn cycle(&self) -> u64;

    /// Snapshot of aggregate statistics.
    fn stats(&self) -> NetStats;

    /// Total flits currently buffered or in flight (zero when fully
    /// drained).
    fn in_flight(&self) -> usize;

    /// Total link traversals (flit-hops) since construction. Ideal
    /// networks report zero — they have no links.
    fn flit_hops(&self) -> u64 {
        0
    }

    /// Writes per-link traffic into a caller-provided buffer (cleared
    /// first): `(source node, direction, flits carried)` for every
    /// physical channel, in node order. Divide by [`Interconnect::cycle`]
    /// for utilization (1.0 = fully utilized link). A double network
    /// reports the sum over its slices; ideal networks have no links and
    /// leave the buffer empty.
    fn link_loads_into(&self, out: &mut Vec<(NodeId, Direction, u64)>) {
        out.clear();
    }

    /// Convenience wrapper over [`Interconnect::link_loads_into`] that
    /// allocates a fresh `Vec`.
    fn link_loads(&self) -> Vec<(NodeId, Direction, u64)> {
        let mut out = Vec::new();
        self.link_loads_into(&mut out);
        out
    }

    /// Arms the observability layer (latency histograms, link/VC
    /// counters, occupancy sampling, flight recorder). The default is a
    /// no-op: ideal networks have no links or buffers to observe.
    /// Telemetry never changes simulated outcomes — with or without it,
    /// every packet takes the same path at the same cycle.
    fn enable_telemetry(&mut self, _cfg: TelemetryConfig) {}

    /// Appends snapshots of every physical network's telemetry into a
    /// caller-provided buffer: one report for a single mesh, two
    /// (request + reply) for a double network, none for ideal networks
    /// or when telemetry was never enabled. The buffer is *not* cleared,
    /// so callers can reuse one `Vec` across reads without reallocating.
    fn telemetry_reports_into(&self, _out: &mut Vec<TelemetryReport>) {}

    /// Convenience wrapper over [`Interconnect::telemetry_reports_into`]
    /// that allocates a fresh `Vec`. Hot paths should reuse a buffer via
    /// the `_into` form instead.
    fn telemetry_reports(&self) -> Vec<TelemetryReport> {
        let mut out = Vec::new();
        self.telemetry_reports_into(&mut out);
        out
    }

    /// Number of sub-phases one [`Tick::tick`] splits into. Engines whose
    /// cycle has separable parts (the arena double network: request
    /// slice, then reply slice) report their phase count; monolithic
    /// engines report 1.
    fn phase_count(&self) -> usize {
        1
    }

    /// Runs one sub-phase of a cycle. Calling phases `0..phase_count()`
    /// in order is exactly one [`Tick::tick`]; a caller that attributes
    /// time per phase (the repo benchmark's traced run) drives them one
    /// by one. The default maps phase 0 to a whole tick so monolithic
    /// engines work under a phase-driving caller unchanged.
    fn tick_phase(&mut self, phase: usize) {
        if phase == 0 {
            self.tick();
        }
    }
}
