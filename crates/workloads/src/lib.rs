//! # tenoc-workloads — the synthetic Table I benchmark suite
//!
//! The paper evaluates 31 CUDA benchmarks (Table I) spanning three traffic
//! classes (Section III-B): **LL** (light traffic, low perfect-NoC
//! speedup), **LH** (heavy traffic but not network-bound) and **HH**
//! (heavy traffic, network-bound). The original binaries cannot run here,
//! so each benchmark is modeled as a [`KernelSpec`] — a statistical
//! instruction stream whose memory intensity, coalescing degree, locality,
//! read/write mix and occupancy were tuned so that the benchmark lands in
//! its paper class on the closed-loop simulator (see `DESIGN.md` for the
//! substitution rationale and `EXPERIMENTS.md` for the resulting
//! paper-vs-measured comparison).
//!
//! # Example
//!
//! ```
//! use tenoc_workloads::{suite, by_name, TrafficClass};
//!
//! assert_eq!(suite().len(), 31);
//! let rd = by_name("RD").expect("parallel reduction is in the suite");
//! assert_eq!(rd.class, TrafficClass::HH);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tenoc_simt::TrafficClass;
use tenoc_simt::{KernelSpec, KernelSpecBuilder};

/// Full benchmark names keyed by abbreviation (paper Table I).
pub(crate) const FULL_NAMES: [(&str, &str); 31] = [
    ("AES", "AES Cryptography"),
    ("BIN", "Binomial Option Pricing"),
    ("HSP", "HotSpot"),
    ("NE", "Neural Network Digit Recognition"),
    ("NDL", "Needleman-Wunsch"),
    ("HW", "Heart Wall Tracking"),
    ("LE", "Leukocyte"),
    ("HIS", "64-bin Histogram"),
    ("LU", "LU Decomposition"),
    ("SLA", "Scan of Large Arrays"),
    ("BP", "Back Propagation"),
    ("CON", "Separable Convolution"),
    ("NNC", "Nearest Neighbor"),
    ("BLK", "Black-Scholes Option Pricing"),
    ("MM", "Matrix Multiplication"),
    ("LPS", "3D Laplace Solver"),
    ("RAY", "Ray Tracing"),
    ("DG", "gpuDG"),
    ("SS", "Similarity Score"),
    ("TRA", "Matrix Transpose"),
    ("SR", "Speckle Reducing Anisotropic Diffusion"),
    ("WP", "Weather Prediction"),
    ("MUM", "MUMmerGPU"),
    ("LIB", "LIBOR Monte Carlo"),
    ("FWT", "Fast Walsh Transform"),
    ("SCP", "Scalar Product"),
    ("STC", "Streamcluster"),
    ("KM", "Kmeans"),
    ("CFD", "CFD Solver"),
    ("BFS", "BFS Graph Traversal"),
    ("RD", "Parallel Reduction"),
];

fn ll(name: &str) -> KernelSpecBuilder {
    KernelSpec::builder(name).class(TrafficClass::LL)
}

fn lh(name: &str) -> KernelSpecBuilder {
    KernelSpec::builder(name).class(TrafficClass::LH)
}

fn hh(name: &str) -> KernelSpecBuilder {
    KernelSpec::builder(name).class(TrafficClass::HH)
}

/// The full 31-benchmark suite in the paper's Table/figure order
/// (LL group, then LH, then HH).
pub fn suite() -> Vec<KernelSpec> {
    vec![
        // ---- LL: locality-optimized, light traffic, low speedup ----
        // Heavy use of scratchpad/L1; tiny working sets; little streaming.
        ll("AES")
            .warps_per_core(32)
            .insts_per_warp(900)
            .mem_fraction(0.02)
            .stream_fraction(0.02)
            .working_set(4 << 10)
            .lines_per_mem(1)
            .build(),
        ll("BIN")
            .warps_per_core(32)
            .insts_per_warp(1000)
            .mem_fraction(0.02)
            .stream_fraction(0.05)
            .working_set(8 << 10)
            .lines_per_mem(1)
            .build(),
        ll("HSP")
            .warps_per_core(24)
            .insts_per_warp(800)
            .mem_fraction(0.04)
            .stream_fraction(0.10)
            .working_set(8 << 10)
            .lines_per_mem(1)
            .mem_dep_distance(2)
            .build(),
        ll("NE")
            .warps_per_core(24)
            .insts_per_warp(900)
            .mem_fraction(0.03)
            .stream_fraction(0.05)
            .working_set(8 << 10)
            .lines_per_mem(1)
            .build(),
        ll("NDL")
            .warps_per_core(16)
            .insts_per_warp(800)
            .mem_fraction(0.028)
            .stream_fraction(0.12)
            .working_set(12 << 10)
            .lines_per_mem(1)
            .mem_dep_distance(1)
            .build(),
        ll("HW")
            .warps_per_core(24)
            .insts_per_warp(1000)
            .mem_fraction(0.03)
            .stream_fraction(0.08)
            .working_set(8 << 10)
            .lines_per_mem(1)
            .build(),
        ll("LE")
            .warps_per_core(32)
            .insts_per_warp(1100)
            .mem_fraction(0.04)
            .stream_fraction(0.08)
            .working_set(8 << 10)
            .lines_per_mem(1)
            .build(),
        ll("HIS")
            .warps_per_core(32)
            .insts_per_warp(700)
            .mem_fraction(0.034)
            .stream_fraction(0.08)
            .working_set(8 << 10)
            .lines_per_mem(1)
            .build(),
        ll("LU")
            .warps_per_core(24)
            .insts_per_warp(900)
            .mem_fraction(0.034)
            .stream_fraction(0.15)
            .working_set(16 << 10)
            .lines_per_mem(1)
            .mem_dep_distance(1)
            .build(),
        ll("SLA")
            .warps_per_core(14)
            .insts_per_warp(700)
            .mem_fraction(0.038)
            .stream_fraction(0.25)
            .working_set(16 << 10)
            .lines_per_mem(1)
            .mem_dep_distance(1)
            .build(),
        ll("BP")
            .warps_per_core(14)
            .insts_per_warp(700)
            .mem_fraction(0.032)
            .stream_fraction(0.30)
            .working_set(16 << 10)
            .lines_per_mem(1)
            .mem_dep_distance(1)
            .build(),
        // ---- LH: heavy traffic but latency-tolerant / below saturation ----
        // Moderate streaming with deep memory-level parallelism.
        lh("CON")
            .warps_per_core(32)
            .insts_per_warp(600)
            .mem_fraction(0.040)
            .stream_fraction(0.35)
            .working_set(96 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(6)
            .build(),
        // NNC: too few threads to hide latency or saturate memory.
        lh("NNC")
            .warps_per_core(2)
            .insts_per_warp(600)
            .mem_fraction(0.30)
            .stream_fraction(0.60)
            .working_set(64 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(2)
            .build(),
        lh("BLK")
            .warps_per_core(32)
            .insts_per_warp(600)
            .mem_fraction(0.036)
            .stream_fraction(0.45)
            .working_set(128 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(6)
            .build(),
        lh("MM")
            .warps_per_core(32)
            .insts_per_warp(700)
            .mem_fraction(0.044)
            .stream_fraction(0.30)
            .working_set(192 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(6)
            .build(),
        lh("LPS")
            .warps_per_core(24)
            .insts_per_warp(600)
            .mem_fraction(0.044)
            .stream_fraction(0.35)
            .working_set(128 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(6)
            .build(),
        lh("RAY")
            .warps_per_core(24)
            .insts_per_warp(700)
            .mem_fraction(0.024)
            .stream_fraction(0.30)
            .working_set(256 << 10)
            .lines_per_mem(4)
            .mem_dep_distance(6)
            .active_lane_fraction(0.8)
            .build(),
        lh("DG")
            .warps_per_core(32)
            .insts_per_warp(700)
            .mem_fraction(0.040)
            .stream_fraction(0.40)
            .working_set(192 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(6)
            .build(),
        lh("SS")
            .warps_per_core(32)
            .insts_per_warp(600)
            .mem_fraction(0.044)
            .stream_fraction(0.40)
            .working_set(128 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(6)
            .build(),
        lh("TRA")
            .warps_per_core(32)
            .insts_per_warp(500)
            .mem_fraction(0.040)
            .stream_fraction(0.45)
            .working_set(256 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(8)
            .build(),
        lh("SR")
            .warps_per_core(24)
            .insts_per_warp(600)
            .mem_fraction(0.044)
            .stream_fraction(0.40)
            .working_set(128 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(6)
            .build(),
        lh("WP")
            .warps_per_core(16)
            .insts_per_warp(700)
            .mem_fraction(0.048)
            .stream_fraction(0.45)
            .working_set(192 << 10)
            .lines_per_mem(2)
            .write_fraction(0.25)
            .mem_dep_distance(4)
            .build(),
        // ---- HH: streaming, memory-bound, network-bound ----
        hh("MUM")
            .warps_per_core(24)
            .insts_per_warp(400)
            .mem_fraction(0.12)
            .stream_fraction(0.80)
            .working_set(512 << 10)
            .lines_per_mem(4)
            .mem_dep_distance(3)
            .active_lane_fraction(0.7)
            .build(),
        hh("LIB")
            .warps_per_core(32)
            .insts_per_warp(450)
            .mem_fraction(0.20)
            .stream_fraction(0.90)
            .working_set(256 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(4)
            .build(),
        hh("FWT")
            .warps_per_core(32)
            .insts_per_warp(400)
            .mem_fraction(0.18)
            .stream_fraction(0.85)
            .working_set(512 << 10)
            .lines_per_mem(2)
            .write_fraction(0.30)
            .mem_dep_distance(4)
            .build(),
        hh("SCP")
            .warps_per_core(32)
            .insts_per_warp(350)
            .mem_fraction(0.24)
            .stream_fraction(0.95)
            .working_set(256 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(4)
            .build(),
        hh("STC")
            .warps_per_core(32)
            .insts_per_warp(400)
            .mem_fraction(0.22)
            .stream_fraction(0.85)
            .working_set(512 << 10)
            .lines_per_mem(2)
            .write_fraction(0.20)
            .mem_dep_distance(4)
            .build(),
        hh("KM")
            .warps_per_core(32)
            .insts_per_warp(400)
            .mem_fraction(0.28)
            .stream_fraction(0.90)
            .working_set(256 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(4)
            .build(),
        hh("CFD")
            .warps_per_core(32)
            .insts_per_warp(350)
            .mem_fraction(0.32)
            .stream_fraction(0.92)
            .working_set(512 << 10)
            .lines_per_mem(4)
            .mem_dep_distance(3)
            .build(),
        hh("BFS")
            .warps_per_core(24)
            .insts_per_warp(400)
            .mem_fraction(0.25)
            .stream_fraction(0.85)
            .working_set(1 << 20)
            .lines_per_mem(8)
            .mem_dep_distance(2)
            .active_lane_fraction(0.55)
            .build(),
        hh("RD")
            .warps_per_core(32)
            .insts_per_warp(300)
            .mem_fraction(0.45)
            .stream_fraction(0.98)
            .working_set(256 << 10)
            .lines_per_mem(2)
            .mem_dep_distance(4)
            .build(),
    ]
}

/// Looks up a benchmark by its abbreviation.
pub fn by_name(name: &str) -> Option<KernelSpec> {
    suite().into_iter().find(|s| s.name == name)
}

/// A reduced smoke suite (one benchmark per class) for fast tests.
pub fn smoke_suite() -> Vec<KernelSpec> {
    ["HIS", "MM", "RD"].iter().map(|n| by_name(n).expect("known benchmark")).collect()
}

/// The full name of a benchmark abbreviation, if known.
pub fn full_name(abbr: &str) -> Option<&'static str> {
    FULL_NAMES.iter().find(|(a, _)| *a == abbr).map(|(_, f)| *f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_class(class: TrafficClass) -> Vec<KernelSpec> {
        suite().into_iter().filter(|s| s.class == class).collect()
    }

    #[test]
    fn suite_has_31_valid_benchmarks() {
        let s = suite();
        assert_eq!(s.len(), 31);
        for spec in &s {
            spec.validate().unwrap();
        }
    }

    #[test]
    fn class_sizes_match_paper_grouping() {
        assert_eq!(by_class(TrafficClass::LL).len(), 11);
        assert_eq!(by_class(TrafficClass::LH).len(), 11);
        assert_eq!(by_class(TrafficClass::HH).len(), 9);
    }

    #[test]
    fn names_are_unique_and_named() {
        let s = suite();
        let names: std::collections::HashSet<_> = s.iter().map(|k| k.name.clone()).collect();
        assert_eq!(names.len(), 31);
        for spec in &s {
            assert!(full_name(&spec.name).is_some(), "{} needs a full name", spec.name);
        }
    }

    #[test]
    fn classes_are_ordered_ll_lh_hh() {
        let s = suite();
        let order: Vec<TrafficClass> = s.iter().map(|k| k.class).collect();
        let boundary1 = order.iter().position(|&c| c == TrafficClass::LH).unwrap();
        let boundary2 = order.iter().position(|&c| c == TrafficClass::HH).unwrap();
        assert!(order[..boundary1].iter().all(|&c| c == TrafficClass::LL));
        assert!(order[boundary1..boundary2].iter().all(|&c| c == TrafficClass::LH));
        assert!(order[boundary2..].iter().all(|&c| c == TrafficClass::HH));
    }

    #[test]
    fn hh_benchmarks_are_more_memory_intense_than_ll() {
        let ll_max = by_class(TrafficClass::LL)
            .iter()
            .map(|k| k.mem_fraction * k.lines_per_mem as f64)
            .fold(0.0, f64::max);
        let hh_min = by_class(TrafficClass::HH)
            .iter()
            .map(|k| k.mem_fraction * k.lines_per_mem as f64)
            .fold(f64::INFINITY, f64::min);
        assert!(hh_min > ll_max, "HH ({hh_min}) must out-demand LL ({ll_max})");
    }

    #[test]
    fn nnc_has_too_few_warps() {
        assert!(by_name("NNC").unwrap().warps_per_core <= 4);
    }

    #[test]
    fn lookup_is_case_sensitive_exact() {
        assert!(by_name("RD").is_some());
        assert!(by_name("rd").is_none());
        assert!(by_name("XYZ").is_none());
    }

    #[test]
    fn smoke_suite_covers_all_classes() {
        let s = smoke_suite();
        let classes: std::collections::HashSet<_> =
            s.iter().map(|k| format!("{}", k.class)).collect();
        assert_eq!(classes.len(), 3);
    }
}
