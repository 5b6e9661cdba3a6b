//! # tenoc-core — throughput-effective NoC design and closed-loop system
//!
//! The top of the stack: a closed-loop simulator of the paper's manycore
//! accelerator (28 SIMT cores, a 6x6 mesh NoC, 8 memory controllers with
//! 128 KB L2 banks and GDDR3 channels, three clock domains), plus the
//! throughput-effectiveness methodology:
//!
//! * [`system`] — the closed-loop [`System`] tying `tenoc-simt` cores to
//!   `tenoc-noc` interconnects and `tenoc-dram`/`tenoc-cache` MC nodes.
//! * [`presets`] — one named configuration per paper design point
//!   (baseline TB-DOR, 2x bandwidth, 1-cycle routers, checkerboard
//!   placement/routing, double network, multi-port MC routers, the
//!   combined throughput-effective design, and the ideal networks).
//! * [`area`] — an ORION-2.0-calibrated analytical area model reproducing
//!   the paper's Table VI.
//! * [`experiments`] — the one closed-loop run body (plain and traced);
//!   anything that runs more than one cell goes through `tenoc-harness`'s
//!   `run_grid`.
//!
//! # Example
//!
//! ```no_run
//! use tenoc_core::presets::Preset;
//! use tenoc_core::experiments::run_benchmark;
//! use tenoc_workloads::by_name;
//!
//! let spec = by_name("RD").unwrap();
//! let base = run_benchmark(Preset::BaselineTbDor, &spec, 0.2);
//! let te = run_benchmark(Preset::ThroughputEffective, &spec, 0.2);
//! println!("RD speedup: {:.1}%", (te.ipc / base.ipc - 1.0) * 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
mod audit;
mod clock;
pub mod experiments;
mod mc;
mod metrics;
mod power;
pub mod presets;
pub mod system;

pub use area::{AreaModel, ChipArea, RouterArea};
pub use audit::{
    audit_grid, audit_icnt, audit_icnt_with, route_net, AuditEntry, AuditReport, MatrixMetrics,
};
pub use clock::{ClockConfig, Clocks, Domain};
pub use mc::McConfig;
pub use metrics::{arithmetic_mean, harmonic_mean, RunMetrics};
pub use power::PowerModel;
pub use presets::Preset;
pub use system::{EngineKind, IcntConfig, System, SystemConfig};
pub use tenoc_noc::Tick;

/// The workspace's default workload seed: what [`SystemConfig::with_icnt`]
/// simulates with, the base `tenoc sweep` / `serve` / `tune` derive or fix
/// per-cell seeds from, and the seed every paper-shape tolerance band and
/// figure bench is pinned at.
pub const DEFAULT_SEED: u64 = 0x7e0c;
pub use tenoc_noc::{ArmSpec, FlightEvent, LatencyHistogram, TelemetryConfig, TelemetryReport};
