//! Metrics collected from closed-loop runs.

use serde::{Deserialize, Serialize};

/// Results of one closed-loop simulation.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// `true` if the kernel ran to completion and all queues drained.
    pub completed: bool,
    /// Core-clock cycles elapsed.
    pub core_cycles: u64,
    /// Interconnect-clock cycles elapsed.
    pub icnt_cycles: u64,
    /// Scalar instructions retired across all cores.
    pub scalar_insts: u64,
    /// Application-level throughput in scalar instructions per core
    /// cycle — the paper's headline metric.
    pub ipc: f64,
    /// Mean in-network packet latency (interconnect cycles).
    pub avg_net_latency: f64,
    /// Mean flits injected per MC node per interconnect cycle (the "MC
    /// output bandwidth" of Figure 1/8).
    pub mc_injection_rate: f64,
    /// Mean flits injected per compute node per interconnect cycle.
    pub core_injection_rate: f64,
    /// Mean fraction of time the MCs' reply injection was blocked
    /// (Figure 11).
    pub mc_stall_fraction: f64,
    /// Mean DRAM efficiency across channels (Section V-E definition).
    pub dram_efficiency: f64,
    /// L2 read hit rate across banks.
    pub l2_read_hit_rate: f64,
    /// Accepted traffic averaged over all nodes (flits/cycle/node).
    pub accepted_flits_per_node: f64,
    /// Memory instructions replayed at the cores (resource pressure).
    pub core_replays: u64,
    /// Total link traversals (flit-hops) in the interconnect; zero for
    /// ideal networks.
    pub flit_hops: u64,
}

impl RunMetrics {
    /// Speedup of `self` over a baseline run (ratio of IPCs), or `None`
    /// when the baseline retired nothing (`ipc <= 0`) and no meaningful
    /// ratio exists.
    ///
    /// Returning `0.0` for that case — as an earlier version did —
    /// silently collapsed any downstream [`harmonic_mean`] of speedups to
    /// zero, turning one broken baseline run into a whole-suite zero.
    /// Callers must now decide explicitly (the figure benches skip the
    /// benchmark with a warning).
    pub fn speedup_over(&self, baseline: &RunMetrics) -> Option<f64> {
        if baseline.ipc <= 0.0 {
            return None;
        }
        Some(self.ipc / baseline.ipc)
    }
}

/// Harmonic mean of a sequence of positive throughputs — the mean the
/// paper uses for IPC across benchmarks.
///
/// Returns 0.0 on an empty input or if any element is non-positive.
pub fn harmonic_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut n = 0usize;
    let mut inv = 0.0f64;
    for v in values {
        if v <= 0.0 {
            return 0.0;
        }
        inv += 1.0 / v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        n as f64 / inv
    }
}

/// Arithmetic mean (used for Figure 2's average throughput axis).
pub fn arithmetic_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut n = 0usize;
    let mut sum = 0.0;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_of_equal_values() {
        assert!((harmonic_mean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_weights_slow_benchmarks() {
        let hm = harmonic_mean([1.0, 100.0]);
        assert!(hm < 2.0, "harmonic mean must be dominated by the slow value: {hm}");
    }

    #[test]
    fn harmonic_mean_edge_cases() {
        assert_eq!(harmonic_mean(std::iter::empty()), 0.0);
        assert_eq!(harmonic_mean([1.0, 0.0]), 0.0);
    }

    #[test]
    fn arithmetic_mean_basic() {
        assert!((arithmetic_mean([1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(arithmetic_mean(std::iter::empty()), 0.0);
    }

    #[test]
    fn speedup_ratio() {
        let mut a = RunMetrics {
            completed: true,
            core_cycles: 100,
            icnt_cycles: 50,
            scalar_insts: 1000,
            ipc: 10.0,
            avg_net_latency: 0.0,
            mc_injection_rate: 0.0,
            core_injection_rate: 0.0,
            mc_stall_fraction: 0.0,
            dram_efficiency: 0.0,
            l2_read_hit_rate: 0.0,
            accepted_flits_per_node: 0.5,
            core_replays: 0,
            flit_hops: 0,
        };
        let b = RunMetrics { ipc: 5.0, ..a };
        a.ipc = 10.0;
        assert!((a.speedup_over(&b).unwrap() - 2.0).abs() < 1e-12);
    }

    /// Satellite regression: a zero-IPC (or pathological negative-IPC)
    /// baseline must yield `None`, not a silent `0.0` that collapses a
    /// harmonic mean of speedups across a suite.
    #[test]
    fn speedup_over_degenerate_baseline_is_none() {
        let mut a = RunMetrics {
            completed: true,
            core_cycles: 100,
            icnt_cycles: 50,
            scalar_insts: 1000,
            ipc: 10.0,
            avg_net_latency: 0.0,
            mc_injection_rate: 0.0,
            core_injection_rate: 0.0,
            mc_stall_fraction: 0.0,
            dram_efficiency: 0.0,
            l2_read_hit_rate: 0.0,
            accepted_flits_per_node: 0.5,
            core_replays: 0,
            flit_hops: 0,
        };
        let zero = RunMetrics { ipc: 0.0, ..a };
        assert_eq!(a.speedup_over(&zero), None);
        a.ipc = 0.0;
        assert_eq!(a.speedup_over(&zero), None, "0/0 is undefined, not 0");
        // The failure mode this guards: one None-worthy baseline used to
        // contribute 0.0 and zero the suite harmonic mean.
        let good = [2.0, 3.0];
        assert!(harmonic_mean(good) > 0.0);
        assert_eq!(harmonic_mean(good.into_iter().chain([0.0])), 0.0);
    }
}
