//! # tenoc — throughput-effective on-chip networks for manycore accelerators
//!
//! Facade crate re-exporting the whole workspace: a full reproduction of
//! *Throughput-Effective On-Chip Networks for Manycore Accelerators*
//! (Bakhoda, Kim, Aamodt, MICRO 2010) as a family of Rust libraries.
//!
//! * [`noc`] — cycle-level NoC simulator (mesh, checkerboard half-routers,
//!   checkerboard routing, multi-port MC routers, double networks).
//! * [`dram`] — GDDR3 timing model with an FR-FCFS memory controller.
//! * [`cache`] — set-associative caches and MSHRs.
//! * [`simt`] — SIMT shader-core timing model with synthetic kernels.
//! * [`workloads`] — the 31-benchmark synthetic suite mirroring Table I.
//! * [`core`] — the closed-loop accelerator system simulator, configuration
//!   presets for every paper design point, the ORION-calibrated area model
//!   and the throughput-effectiveness analysis.
//! * [`harness`] — the parallel deterministic experiment engine: sweep
//!   grids over a worker pool, JSON-lines [`harness::RunRecord`]s with
//!   stable fingerprints, and golden-snapshot regression checks.
//!
//! * [`verify`] — the static analyzer: configuration legality proofs
//!   (CDG acyclicity, reachability, VC isolation) and the load/latency
//!   bound engine behind `tenoc audit`.
//! * [`serve`] — the long-running sweep service behind `tenoc serve`:
//!   JSON lines over TCP, a content-addressed persistent result cache,
//!   in-flight dedup and tenant-fair deadline-RR scheduling, streaming
//!   byte-identical records to batch `tenoc sweep`.
//! * [`tune`] — the throughput-effectiveness autotuner behind
//!   `tenoc tune`: a staged-fidelity search (verify, static rank,
//!   open-loop probes, closed-loop successive halving) of the IPC/mm²
//!   Pareto frontier over the interconnect design space.
//!
//! See `README.md` for a quickstart and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure and table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tenoc_cache as cache;
pub use tenoc_core as core;
pub use tenoc_dram as dram;
pub use tenoc_harness as harness;
pub use tenoc_noc as noc;
pub use tenoc_serve as serve;
pub use tenoc_simt as simt;
pub use tenoc_tune as tune;
pub use tenoc_verify as verify;
pub use tenoc_workloads as workloads;
