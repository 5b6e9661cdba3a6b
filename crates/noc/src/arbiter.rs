//! Round-robin arbiters used by the VC and switch allocators.
//!
//! iSLIP-style allocation updates an arbiter's priority pointer only when a
//! grant is *accepted*, so the arbiter exposes both a non-destructive
//! `RoundRobin::peek` and an explicit `RoundRobin::advance_past`.

use serde::{Deserialize, Serialize};

/// A round-robin arbiter over `n` requesters.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRobin {
    n: usize,
    ptr: usize,
}

impl RoundRobin {
    /// Creates an arbiter over `n` requesters with priority starting at 0.
    pub fn new(n: usize) -> Self {
        RoundRobin { n, ptr: 0 }
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the arbiter has no requesters.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Returns the highest-priority requester `i` for which `req(i)` is
    /// true, without updating the priority pointer.
    pub(crate) fn peek(&self, mut req: impl FnMut(usize) -> bool) -> Option<usize> {
        for off in 0..self.n {
            let i = (self.ptr + off) % self.n;
            if req(i) {
                return Some(i);
            }
        }
        None
    }

    /// Grants to the highest-priority requester and advances the pointer
    /// past the winner (combined `peek` +
    /// `advance_past`).
    pub fn pick(&mut self, req: impl FnMut(usize) -> bool) -> Option<usize> {
        let winner = self.peek(req)?;
        self.advance_past(winner);
        Some(winner)
    }

    /// Moves the priority pointer one past `winner`, making it the
    /// lowest-priority requester next time.
    pub(crate) fn advance_past(&mut self, winner: usize) {
        debug_assert!(winner < self.n);
        self.ptr = (winner + 1) % self.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_rotate_fairly() {
        let mut a = RoundRobin::new(4);
        let all = |_: usize| true;
        let order: Vec<usize> = (0..8).map(|_| a.pick(all).unwrap()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_non_requesters() {
        let mut a = RoundRobin::new(4);
        let odd = |i: usize| i % 2 == 1;
        assert_eq!(a.pick(odd), Some(1));
        assert_eq!(a.pick(odd), Some(3));
        assert_eq!(a.pick(odd), Some(1));
    }

    #[test]
    fn no_requesters_yields_none() {
        let mut a = RoundRobin::new(3);
        assert_eq!(a.pick(|_| false), None);
        // Pointer unchanged: next grant still starts at 0.
        assert_eq!(a.pick(|_| true), Some(0));
    }

    #[test]
    fn peek_does_not_advance() {
        let a = RoundRobin::new(3);
        assert_eq!(a.peek(|_| true), Some(0));
        assert_eq!(a.peek(|_| true), Some(0));
    }

    #[test]
    fn fairness_under_contention() {
        // Two always-requesting inputs must alternate.
        let mut a = RoundRobin::new(2);
        let seq: Vec<usize> = (0..6).map(|_| a.pick(|_| true).unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 0, 1, 0, 1]);
    }
}
