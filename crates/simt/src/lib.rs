//! # tenoc-simt — SIMT shader-core timing model
//!
//! A closed-loop timing model of the paper's compute node (Figure 4):
//! an 8-wide SIMD pipeline executing 32-thread warps over four cycles, a
//! dispatch queue of up to 32 ready warps, round-robin warp scheduling,
//! memory-access coalescing, a 16 KB write-back L1 data cache and 64
//! MSHRs.
//!
//! Because the original CUDA binaries cannot be executed here, cores run
//! **synthetic kernels** ([`KernelSpec`]): statistical instruction streams
//! whose memory intensity, coalescing degree, locality, read/write mix and
//! occupancy are tuned per benchmark (see `tenoc-workloads`). The streams
//! are generated from per-warp deterministic RNGs, so every simulation is
//! exactly reproducible.
//!
//! The core exposes a simple memory-system boundary: it emits
//! [`MemRequest`]s (line fetches and write-throughs) and consumes read
//! fills via [`ShaderCore::push_fill`]. The system simulator in
//! `tenoc-core` moves these across the NoC to the L2/DRAM nodes.
//!
//! # Example
//!
//! Run one core against an ideal (instantly-answering) memory:
//!
//! ```
//! use tenoc_simt::{CoreConfig, KernelSpec, ShaderCore};
//!
//! let spec = KernelSpec::builder("demo")
//!     .warps_per_core(8)
//!     .insts_per_warp(100)
//!     .mem_fraction(0.1)
//!     .build();
//! let mut core = ShaderCore::new(0, CoreConfig::gtx280_like(), &spec, 1);
//! let mut cycle = 0;
//! while !core.done() && cycle < 1_000_000 {
//!     core.step(cycle);
//!     while let Some(req) = core.pop_request() {
//!         if !req.is_write {
//!             core.push_fill(req.line_addr); // zero-latency memory
//!         }
//!     }
//!     cycle += 1;
//! }
//! assert!(core.done());
//! assert_eq!(core.retired_warp_insts(), 8 * 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
mod kernel;
mod warp;

pub use crate::core::{CoreConfig, CoreStats, MemRequest, SchedulerPolicy, ShaderCore};
pub use kernel::{KernelSpec, KernelSpecBuilder, TrafficClass};
