//! # tenoc-noc — cycle-level on-chip network simulator
//!
//! A from-scratch, deterministic, cycle-level simulator for 2D-mesh
//! networks-on-chip with virtual-channel wormhole flow control, built to
//! reproduce the network microarchitecture evaluated in *Throughput-Effective
//! On-Chip Networks for Manycore Accelerators* (Bakhoda, Kim, Aamodt,
//! MICRO 2010).
//!
//! The crate provides:
//!
//! * A canonical input-queued virtual-channel router (`router::Router`)
//!   with a configurable pipeline depth (4-stage baseline, 3-stage
//!   half-routers, aggressive 1-cycle routers), credit-based flow control
//!   and iSLIP-style separable switch allocation.
//! * The paper's **checkerboard** network organization: alternating
//!   full-routers and *half-routers* with restricted connectivity
//!   ([`topology::RouterKind`]), plus the **checkerboard routing** (CR)
//!   oblivious routing algorithm ([`routing`]).
//! * Multi-port (extra injection/ejection) routers for memory-controller
//!   nodes, and channel-sliced **double networks** ([`double::DoubleNetwork`]).
//! * The idealized interconnect model used in the paper's limit studies:
//!   a zero-latency network with an aggregate bandwidth cap, which at an
//!   infinite cap is the perfect network (`ideal`).
//! * An open-loop traffic harness for latency/throughput curves under
//!   many-to-few-to-many traffic ([`openloop`]), reproducing Figure 21.
//! * Two bit-identical execution engines for the physical networks — the
//!   flat structure-of-arrays kernel that every production run uses
//!   ([`ArenaNetwork`] / [`ArenaDoubleNetwork`]), and the per-router
//!   kernel kept as the differential reference ([`Network`] /
//!   [`DoubleNetwork`]). The arena sleeps idle routers and allocates
//!   nothing in steady state; the reference does neither — it steps
//!   every router every cycle. Production code builds both through
//!   `tenoc_core::IcntConfig::build`, which in debug builds first proves
//!   the fabric deadlock-free with `tenoc-verify`. A shape the arena cannot pack is a
//!   [`NetworkConfig::validate`] error, never a silent change of engine.
//!   Telemetry ([`telemetry`]) works on both.
//!
//! # Example
//!
//! Send a packet across a 6x6 baseline mesh and observe its latency:
//!
//! ```
//! use tenoc_noc::{ArenaNetwork, Interconnect, NetworkConfig, Packet, Tick};
//!
//! let cfg = NetworkConfig::baseline_mesh(6);
//! let mut net = ArenaNetwork::new(cfg);
//! let pkt = Packet::request(0, 35, 8, 42); // src, dst, bytes, tag
//! net.try_inject(0, pkt).expect("empty network accepts injection");
//! for _ in 0..200 {
//!     net.tick();
//! }
//! let out = net.pop(35).expect("packet delivered");
//! assert_eq!(out.header.tag, 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activeset;
pub mod arbiter;
mod arena;
pub mod buffer;
mod channel;
pub mod config;
mod double;
mod ideal;
mod interconnect;
mod network;
pub mod openloop;
mod packet;
mod router;
pub mod routing;
mod stats;
pub mod telemetry;
mod tick;
pub mod topology;
mod types;

pub use arena::ArenaNetwork;
pub use config::{AllocatorKind, NetworkConfig, PhysicalNets, RoutingKind, Unsliceable, VcLayout};
pub use double::{ArenaDoubleNetwork, DoubleNetwork};
pub use ideal::BandwidthLimitedInterconnect;
pub use interconnect::Interconnect;
pub use network::Network;
pub use packet::{EjectedPacket, Flit, Packet, PacketClass, PacketHeader, Phase};
pub use routing::{OutPort, VcSet};
pub use stats::NetStats;
pub use telemetry::{
    ArmSpec, FlightEvent, LatencyHistogram, LinkRecord, TelemetryConfig, TelemetryReport,
};
pub use tick::Tick;
pub use topology::{Fabric, Mesh, Placement, RouterKind, Topology};
pub use types::{Coord, Direction, NodeId};
