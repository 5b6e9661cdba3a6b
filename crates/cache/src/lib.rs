//! # tenoc-cache — caches and MSHRs
//!
//! The cache hierarchy substrate for the accelerator model:
//!
//! * [`Cache`] — a set-associative, LRU, write-back cache, probed and
//!   filled explicitly so the timing simulator controls when misses return.
//! * [`MshrTable`] — miss status holding registers with same-line merging
//!   (64 per core in the paper's Table II).
//!
//! # Example
//!
//! ```
//! use tenoc_cache::{Cache, CacheConfig, Access, LookupResult};
//!
//! let mut l1 = Cache::new(CacheConfig::l1_16k());
//! match l1.access(0x80, Access::Read) {
//!     LookupResult::Miss => {
//!         // fetch from memory, then:
//!         let evicted = l1.fill(0x80);
//!         assert!(evicted.is_none());
//!     }
//!     LookupResult::Hit => unreachable!("cold cache"),
//! }
//! assert_eq!(l1.access(0x80, Access::Read), LookupResult::Hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod mshr;

pub use cache::{Access, Cache, CacheConfig, CacheStats, Eviction, LookupResult};
pub use mshr::{MshrOutcome, MshrTable};
