//! Synthetic kernel specifications: the statistical workload model that
//! stands in for the paper's CUDA benchmarks.

use serde::{Deserialize, Serialize};

/// Traffic class of a benchmark, following the paper's two-letter scheme
/// (Section III-B): the first letter is the speedup with a perfect NoC
/// (high/low), the second is the traffic intensity (heavy/light).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Low speedup, light traffic: locality-optimized kernels.
    LL,
    /// Low speedup, heavy traffic: bandwidth-hungry but latency-tolerant
    /// (or otherwise not network-bound).
    LH,
    /// High speedup, heavy traffic: network-bound kernels.
    HH,
}

impl TrafficClass {
    /// The class's two-letter label — the one spelling every table, record
    /// and journal line uses; [`FromStr`](std::str::FromStr) reads it back.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::LL => "LL",
            TrafficClass::LH => "LH",
            TrafficClass::HH => "HH",
        }
    }
}

impl std::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for TrafficClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [TrafficClass::LL, TrafficClass::LH, TrafficClass::HH]
            .into_iter()
            .find(|c| c.label() == s)
            .ok_or_else(|| format!("unknown traffic class {s}"))
    }
}

/// A synthetic kernel: per-benchmark statistical parameters from which
/// per-warp instruction streams are generated deterministically.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelSpec {
    /// Benchmark name (abbreviation from the paper's Table I).
    pub name: String,
    /// Traffic class (for reporting and class-level assertions).
    pub class: TrafficClass,
    /// Concurrent warps per core (occupancy; at most the dispatch-queue
    /// capacity of 32).
    pub warps_per_core: usize,
    /// Warp-instructions each warp executes before retiring.
    pub insts_per_warp: u64,
    /// Probability that an instruction is a global memory operation.
    pub mem_fraction: f64,
    /// Probability that a memory operation is a store.
    pub write_fraction: f64,
    /// Probability that a memory operation streams (touches fresh lines,
    /// never reused) rather than hitting the core's local working set.
    pub stream_fraction: f64,
    /// Size of the core-local working set in bytes (locality of the
    /// non-streaming accesses; below the 16 KB L1 it mostly hits).
    pub working_set: u64,
    /// Distinct cache lines touched per memory instruction after
    /// coalescing (1 = perfectly coalesced, 32 = fully divergent).
    pub lines_per_mem: u32,
    /// Result-dependency latency of arithmetic chains, in core cycles.
    pub alu_latency: u64,
    /// Independent memory instructions a warp may have in flight before it
    /// blocks (memory-level parallelism; models a scoreboard that stalls
    /// only on first use of a loaded value).
    pub mem_dep_distance: u32,
    /// Mean fraction of a warp's 32 lanes that are active (SIMT branch
    /// divergence under immediate-post-dominator reconvergence). Scales
    /// retired *scalar* instructions; the timing model is unaffected
    /// because a warp occupies the pipeline regardless of its mask.
    pub active_lane_fraction: f64,
}

impl KernelSpec {
    /// Starts building a kernel spec with conservative defaults
    /// (locality-friendly, light traffic).
    pub fn builder(name: &str) -> KernelSpecBuilder {
        KernelSpecBuilder {
            spec: KernelSpec {
                name: name.to_owned(),
                class: TrafficClass::LL,
                warps_per_core: 32,
                insts_per_warp: 500,
                mem_fraction: 0.05,
                write_fraction: 0.1,
                stream_fraction: 0.2,
                working_set: 8 * 1024,
                lines_per_mem: 1,
                alu_latency: 8,
                mem_dep_distance: 2,
                active_lane_fraction: 1.0,
            },
        }
    }

    /// Total warp-instructions per core.
    pub fn total_warp_insts(&self) -> u64 {
        self.warps_per_core as u64 * self.insts_per_warp
    }

    /// Scales the kernel length by `factor` (used to shorten benchmark
    /// harness runs), keeping at least 16 instructions per warp.
    pub fn scaled(&self, factor: f64) -> KernelSpec {
        let mut s = self.clone();
        s.insts_per_warp = ((s.insts_per_warp as f64 * factor) as u64).max(16);
        s
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.warps_per_core == 0 || self.warps_per_core > 32 {
            return Err(format!("{}: warps_per_core must be 1..=32", self.name));
        }
        for (name, p) in [
            ("mem_fraction", self.mem_fraction),
            ("write_fraction", self.write_fraction),
            ("stream_fraction", self.stream_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{}: {name} must be a probability", self.name));
            }
        }
        if self.lines_per_mem == 0 || self.lines_per_mem > 32 {
            return Err(format!("{}: lines_per_mem must be 1..=32", self.name));
        }
        if self.insts_per_warp == 0 {
            return Err(format!("{}: insts_per_warp must be positive", self.name));
        }
        if self.mem_dep_distance == 0 {
            return Err(format!("{}: mem_dep_distance must be positive", self.name));
        }
        if !(self.active_lane_fraction > 0.0 && self.active_lane_fraction <= 1.0) {
            return Err(format!("{}: active_lane_fraction must be in (0, 1]", self.name));
        }
        Ok(())
    }
}

/// Builder for [`KernelSpec`] (see [`KernelSpec::builder`]).
#[derive(Clone, Debug)]
pub struct KernelSpecBuilder {
    spec: KernelSpec,
}

impl KernelSpecBuilder {
    /// Sets the traffic class label.
    pub fn class(mut self, c: TrafficClass) -> Self {
        self.spec.class = c;
        self
    }

    /// Sets concurrent warps per core.
    pub fn warps_per_core(mut self, w: usize) -> Self {
        self.spec.warps_per_core = w;
        self
    }

    /// Sets warp-instructions per warp.
    pub fn insts_per_warp(mut self, n: u64) -> Self {
        self.spec.insts_per_warp = n;
        self
    }

    /// Sets the fraction of instructions that access global memory.
    pub fn mem_fraction(mut self, f: f64) -> Self {
        self.spec.mem_fraction = f;
        self
    }

    /// Sets the fraction of memory operations that are stores.
    pub fn write_fraction(mut self, f: f64) -> Self {
        self.spec.write_fraction = f;
        self
    }

    /// Sets the fraction of memory operations that stream fresh lines.
    pub fn stream_fraction(mut self, f: f64) -> Self {
        self.spec.stream_fraction = f;
        self
    }

    /// Sets the core-local working-set size in bytes.
    pub fn working_set(mut self, b: u64) -> Self {
        self.spec.working_set = b;
        self
    }

    /// Sets distinct lines touched per memory instruction.
    pub fn lines_per_mem(mut self, l: u32) -> Self {
        self.spec.lines_per_mem = l;
        self
    }

    /// Sets the number of independent memory instructions in flight per
    /// warp before it blocks.
    pub fn mem_dep_distance(mut self, d: u32) -> Self {
        self.spec.mem_dep_distance = d;
        self
    }

    /// Sets the mean fraction of active lanes per warp (branch
    /// divergence).
    pub fn active_lane_fraction(mut self, f: f64) -> Self {
        self.spec.active_lane_fraction = f;
        self
    }

    /// Finalizes the spec.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range.
    pub fn build(self) -> KernelSpec {
        self.spec.validate().expect("invalid kernel spec");
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_spec() {
        let s = KernelSpec::builder("x")
            .class(TrafficClass::HH)
            .warps_per_core(16)
            .insts_per_warp(100)
            .mem_fraction(0.3)
            .build();
        assert_eq!(s.total_warp_insts(), 1600);
        assert_eq!(s.class, TrafficClass::HH);
    }

    #[test]
    fn class_labels_round_trip() {
        for class in [TrafficClass::LL, TrafficClass::LH, TrafficClass::HH] {
            assert_eq!(class.label().parse(), Ok(class));
            assert_eq!(class.to_string(), class.label());
        }
        assert!("HL".parse::<TrafficClass>().is_err());
    }

    #[test]
    #[should_panic(expected = "warps_per_core")]
    fn rejects_zero_warps() {
        let _ = KernelSpec::builder("x").warps_per_core(0).build();
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_fraction() {
        let _ = KernelSpec::builder("x").mem_fraction(1.5).build();
    }

    #[test]
    fn scaling_preserves_minimum() {
        let s = KernelSpec::builder("x").insts_per_warp(1000).build();
        assert_eq!(s.scaled(0.1).insts_per_warp, 100);
        assert_eq!(s.scaled(0.000001).insts_per_warp, 16);
    }

    #[test]
    fn class_display() {
        assert_eq!(TrafficClass::LL.to_string(), "LL");
        assert_eq!(TrafficClass::HH.to_string(), "HH");
    }
}
