//! # tenoc-dram — GDDR3 DRAM timing model with an FR-FCFS controller
//!
//! Bank-state DRAM timing model matching the paper's Table II memory
//! system: GDDR3 timing parameters (`tCL=9, tRP=13, tRC=34, tRAS=21,
//! tRCD=12, tRRD=8` in DRAM clocks), a 32-entry request queue per memory
//! controller, and out-of-order first-ready first-come-first-served
//! (FR-FCFS) scheduling. A strict in-order FCFS policy is provided for
//! ablation.
//!
//! Peak transfer rate is [`DramConfig::bytes_per_cycle`] bytes per DRAM
//! clock (16 B for the paper's configuration), and the model reports
//! **DRAM efficiency** — the fraction of time the data pins transfer data
//! while requests are pending — which the paper uses to explain the
//! multi-port ejection results (Section V-E).
//!
//! # Example
//!
//! ```
//! use tenoc_dram::{DramConfig, DramRequest, MemoryController};
//!
//! let mut mc = MemoryController::new(DramConfig::gddr3());
//! mc.push(DramRequest::read(0x1000, 1, 0)).unwrap();
//! let mut done = None;
//! for now in 0..200 {
//!     mc.step(now);
//!     if let Some(c) = mc.pop_completed(now) {
//!         done = Some(c);
//!         break;
//!     }
//! }
//! let done = done.expect("request completes");
//! assert_eq!(done.request.tag, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod controller;
mod timing;

pub use controller::{Completion, DramRequest, DramStats, MemoryController, SchedulingPolicy};
pub use timing::{DramConfig, GddrTimings};
