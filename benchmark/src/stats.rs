//! Order statistics and the sampled-span estimator.

/// The percentile at `p` in `0.0..=1.0` of `sorted` (nearest rank).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the two middle values for an even
/// count), leaving the slice sorted.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// The tail percentiles a report may quote, highest first, each with
/// the share of samples beyond it as "one in".
const TAILS: [(f64, usize); 4] = [(0.9999, 10_000), (0.999, 1_000), (0.99, 100), (0.9, 10)];

/// The highest tail percentile that still has at least ten samples
/// beyond it among `n` samples, or `None` when even p90 has fewer (a
/// tail read off a handful of samples is an anecdote, not a percentile).
pub fn highest_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&(_, one_in)| n / one_in >= 10).map(|(p, _)| p)
}

/// Busy-time estimator for one class of events of which only some were
/// timed: `timed_ns` over `timed` events scales up to all `events`.
/// Unbiased when the timed events are a representative subset, which is
/// what [`sampled`]'s rotating offset is for.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Sampled {
    /// Events of this class seen.
    pub events: u64,
    /// Of those, how many were timed.
    pub timed: u64,
    /// Summed duration of the timed ones, nanoseconds.
    pub timed_ns: f64,
}

impl Sampled {
    /// Counts one untimed event.
    pub fn skip(&mut self) {
        self.events += 1;
    }

    /// Counts one timed event of `ns` nanoseconds.
    pub fn add(&mut self, ns: f64) {
        self.events += 1;
        self.timed += 1;
        self.timed_ns += ns;
    }

    /// Mean nanoseconds per event (0 when nothing was timed).
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns / self.timed as f64
        }
    }

    /// Estimated busy nanoseconds over all events of the class.
    pub fn total_ns(&self) -> f64 {
        self.mean_ns() * self.events as f64
    }
}

/// One event in every `stride` is timed, and the position of the timed
/// event inside each block of `stride` rotates from block to block, so a
/// stream whose cost is periodic in the event index (three clock domains
/// interleave in a near-fixed pattern) cannot alias with the sampler.
pub fn sampled(index: u64, stride: u64) -> bool {
    index % stride == (index / stride) % stride
}

/// 64-bit FNV-1a, the repository's fingerprint hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn highest_tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_tail(99), None);
        assert_eq!(highest_tail(100), Some(0.9));
        assert_eq!(highest_tail(999), Some(0.9));
        assert_eq!(highest_tail(1_000), Some(0.99));
        assert_eq!(highest_tail(9_999), Some(0.99));
        assert_eq!(highest_tail(16_000), Some(0.999));
        assert_eq!(highest_tail(100_000), Some(0.9999));
    }

    /// A synthetic edge stream in which the cost of an event depends on
    /// its class and on its position in a short period — the shape that
    /// would fool a fixed-offset sampler. The rotating sampler's scaled
    /// estimate must land on the true per-class totals.
    #[test]
    fn sampled_scale_up_is_unbiased_on_a_periodic_stream() {
        let stride = 4;
        let mut truth = [0.0f64; 3];
        let mut est = [Sampled::default(); 3];
        for i in 0..240_000u64 {
            // Class pattern of period 7, cost modulated with period 4
            // (the sampler's own stride: the worst case for aliasing).
            let class = [0, 2, 0, 1, 2, 0, 2][(i % 7) as usize];
            let cost = [100.0, 3000.0, 250.0][class] * (1.0 + (i % 4) as f64);
            truth[class] += cost;
            if sampled(i, stride) {
                est[class].add(cost);
            } else {
                est[class].skip();
            }
        }
        for class in 0..3 {
            let rel = (est[class].total_ns() - truth[class]).abs() / truth[class];
            assert!(rel < 0.01, "class {class}: estimate off by {rel}");
            assert!(est[class].timed * 3 < est[class].events, "about a quarter is timed");
        }
    }

    #[test]
    fn fixed_offset_sampling_would_have_been_biased() {
        // The control for the test above: same stream, sampler without
        // the rotation, and the estimate is visibly wrong.
        let mut truth = 0.0;
        let mut est = Sampled::default();
        for i in 0..240_000u64 {
            let cost = 100.0 * (1.0 + (i % 4) as f64);
            truth += cost;
            if i % 4 == 0 {
                est.add(cost);
            } else {
                est.skip();
            }
        }
        assert!((est.total_ns() - truth).abs() / truth > 0.5);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
