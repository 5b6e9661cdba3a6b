//! Per-warp execution state.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Scheduling state of a warp.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum WarpState {
    /// Eligible for issue.
    Ready,
    /// Blocked on a result dependency until the given core cycle.
    WaitingDep(u64),
    /// Blocked on outstanding load transactions (count tracked in the
    /// warp).
    WaitingMem,
    /// All instructions retired.
    Done,
}

/// A generated (but possibly not yet issued) warp instruction.
///
/// Instructions are drawn from the warp's RNG exactly once and held here
/// until the core can issue them, so that replays (resource stalls) never
/// change the generated instruction stream — the workload is identical
/// across network configurations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PendingInst {
    /// `true` for a global memory operation.
    pub is_mem: bool,
    /// `true` if the memory operation is a store.
    pub is_write: bool,
    /// Distinct line addresses the operation touches after coalescing
    /// (empty for ALU instructions).
    pub lines: Vec<u64>,
    /// `(mem_epoch, new_fetches, out_needed)` of the last resource check; a
    /// replay in the same epoch of its core reuses it (epoch 0: never checked).
    pub demand: (u64, usize, usize),
}

/// One warp of 32 scalar threads.
#[derive(Clone, Debug)]
pub(crate) struct Warp {
    /// Warp index within its core.
    pub id: usize,
    /// Instructions retired so far.
    pub retired: u64,
    /// Instructions this warp will execute in total.
    pub total: u64,
    /// Scheduling state.
    pub state: WarpState,
    /// Outstanding load transactions (warp resumes when it reaches zero).
    pub outstanding_loads: u32,
    /// Cursor for streaming accesses (advances by one fresh region per
    /// streaming memory instruction).
    pub stream_cursor: u64,
    /// Deterministic instruction-stream generator.
    pub rng: SmallRng,
    /// Instruction drawn but not yet successfully issued (kept across
    /// replays).
    pub pending_inst: Option<PendingInst>,
}

impl Warp {
    /// Creates a warp with a deterministic RNG derived from
    /// `(seed, core, warp)`.
    pub fn new(core_id: usize, id: usize, total: u64, seed: u64) -> Self {
        let mix = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((core_id as u64) << 32)
            .wrapping_add(id as u64 + 1);
        let mut rng = SmallRng::seed_from_u64(mix);
        // Start streaming at a random position within the warp's region so
        // the memory-controller interleave sees spread traffic from cycle
        // one (real kernels' warps process different segments of a large
        // array; starting every warp at its region base would alias all
        // initial accesses onto one MC).
        let stream_cursor = rng.gen_range(0..1 << 18);
        Warp {
            id,
            retired: 0,
            total,
            state: if total == 0 { WarpState::Done } else { WarpState::Ready },
            outstanding_loads: 0,
            stream_cursor,
            rng,
            pending_inst: None,
        }
    }

    /// `true` if the warp may issue at `now`.
    pub fn ready(&self, now: u64) -> bool {
        match self.state {
            WarpState::Ready => true,
            WarpState::WaitingDep(until) => now >= until,
            _ => false,
        }
    }

    /// Retires one instruction; transitions to `Done` at the end of the
    /// stream.
    pub(crate) fn retire_one(&mut self) {
        self.retired += 1;
        if self.retired >= self.total {
            self.state = WarpState::Done;
        }
    }

    /// Records `n` more outstanding load transactions, blocking the warp
    /// once `limit` transactions are in flight (the memory-level
    /// parallelism allowance).
    pub(crate) fn add_outstanding(&mut self, n: u32, limit: u32) {
        if n > 0 {
            self.outstanding_loads += n;
            if self.state != WarpState::Done && self.outstanding_loads >= limit {
                self.state = WarpState::WaitingMem;
            }
        }
    }

    /// Completes one outstanding load; unblocks when the in-flight count
    /// drops below `limit`.
    ///
    /// # Panics
    ///
    /// Panics if no load was outstanding (simulator bug).
    pub(crate) fn complete_load(&mut self, limit: u32) {
        assert!(self.outstanding_loads > 0, "load completion without outstanding load");
        self.outstanding_loads -= 1;
        if self.outstanding_loads < limit && self.state == WarpState::WaitingMem {
            self.state = WarpState::Ready;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_ready_to_done() {
        let mut w = Warp::new(0, 0, 2, 1);
        assert!(w.ready(0));
        w.retire_one();
        assert_eq!(w.state, WarpState::Ready);
        w.retire_one();
        assert_eq!(w.state, WarpState::Done);
        assert!(!w.ready(100));
    }

    #[test]
    fn memory_blocking_and_release() {
        let mut w = Warp::new(0, 0, 10, 1);
        w.add_outstanding(2, 1);
        assert_eq!(w.state, WarpState::WaitingMem);
        assert!(!w.ready(0));
        w.complete_load(1);
        assert!(!w.ready(0), "still one load outstanding (limit 1)");
        w.complete_load(1);
        assert!(w.ready(0));
    }

    #[test]
    fn mlp_allowance_delays_blocking() {
        let mut w = Warp::new(0, 0, 10, 1);
        w.add_outstanding(2, 4);
        assert_eq!(w.state, WarpState::Ready, "2 in flight < limit 4");
        w.add_outstanding(2, 4);
        assert_eq!(w.state, WarpState::WaitingMem, "4 in flight hits limit 4");
        w.complete_load(4);
        assert_eq!(w.state, WarpState::Ready, "3 in flight < limit 4");
    }

    #[test]
    fn dependency_stall_expires() {
        let mut w = Warp::new(0, 0, 10, 1);
        w.state = WarpState::WaitingDep(10);
        assert!(!w.ready(9));
        assert!(w.ready(10));
    }

    #[test]
    fn rngs_differ_across_warps_and_cores() {
        use rand::Rng;
        let mut a = Warp::new(0, 0, 1, 7);
        let mut b = Warp::new(0, 1, 1, 7);
        let mut c = Warp::new(1, 0, 1, 7);
        let (x, y, z): (u64, u64, u64) = (a.rng.gen(), b.rng.gen(), c.rng.gen());
        assert_ne!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn rng_is_deterministic() {
        use rand::Rng;
        let mut a = Warp::new(3, 5, 1, 42);
        let mut b = Warp::new(3, 5, 1, 42);
        let (x, y): (u64, u64) = (a.rng.gen(), b.rng.gen());
        assert_eq!(x, y);
    }

    #[test]
    #[should_panic(expected = "without outstanding")]
    fn spurious_completion_panics() {
        let mut w = Warp::new(0, 0, 1, 1);
        w.complete_load(1);
    }

    #[test]
    fn zero_length_warp_is_done_immediately() {
        let w = Warp::new(0, 0, 0, 1);
        assert_eq!(w.state, WarpState::Done);
    }
}
