//! `tenoc-serve`: the long-running sweep service.
//!
//! `tenoc sweep` is a batch command: plan a grid, simulate every cell,
//! write a JSONL file. This crate turns that pipeline into a shared,
//! memoized service — JSON lines over TCP — built from four pieces:
//!
//! - [`canon`]: a canonical content address for each cell, stable across
//!   field order and serialization round-trips, computed over the
//!   *resolved* configuration so aliased presets share results;
//! - [`DiskCache`]: a persistent result cache whose append-only journal
//!   doubles as the crash-resume log (both live in `tenoc-harness`, below
//!   every crate that memoizes, and are re-exported here);
//! - [`DeadlineRr`]: deadline-round-robin fair queuing across tenants;
//! - [`server`]/[`client`]: the TCP service and its blocking client,
//!   with an in-flight dedup table so concurrent requests for the same
//!   cell trigger exactly one simulation.
//!
//! The contract throughout: the service's reassembled stream is
//! **byte-identical** to `tenoc sweep` output for the same grid, whether
//! a cell was simulated, deduplicated, or served from cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod proto;
mod sched;
pub mod server;

pub use client::{connect_with_retry, fetch_stats, submit, submit_on, SubmitOutcome};
pub use proto::{classify_line, SweepRequest, DEFAULT_SEED};
pub use sched::DeadlineRr;
pub use server::{start, ServerConfig, ServerHandle, StatsSnapshot};
pub use tenoc_harness::canon;
pub use tenoc_harness::{
    canonical_json, canonicalize, cell_key, cell_value, config_cell_key, config_cell_value,
    hash_value, CachedCell, DiskCache,
};
