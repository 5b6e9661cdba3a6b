//! Dense bitset over node indices: the arena's active-router worklist.
//!
//! The arena wakes a node on any event that could give it work (a flit
//! landing in its buffers, an NI injection) and retires it once provably
//! idle, so the per-cycle sweep only visits nodes that can make progress.
//! Iteration is in ascending node order — the order of the per-router
//! reference's full `0..n` sweep — which keeps the event schedule
//! bit-identical to the unconditional loop.

/// A fixed-capacity set of node indices, stored one bit per node.
#[derive(Clone, Debug)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
    n: usize,
}

impl ActiveSet {
    /// An empty set with capacity for nodes `0..n`.
    pub fn empty(n: usize) -> Self {
        ActiveSet { words: vec![0; n.div_ceil(64)], n }
    }

    /// Marks node `i` active. Idempotent.
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.n);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Marks node `i` inactive. Idempotent.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.n);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// The smallest active node index `>= from`, if any.
    ///
    /// The sweep loop is `while let Some(i) = set.next_from(cursor)`, which
    /// tolerates insertions behind or ahead of the cursor mid-sweep (wakes
    /// triggered by the nodes being visited).
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        if from >= self.n {
            return None;
        }
        let mut w = from / 64;
        let mut word = self.words[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                return (i < self.n).then_some(i);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            word = self.words[w];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(s: &ActiveSet) -> Vec<usize> {
        let mut out = Vec::new();
        let mut i = 0;
        while let Some(node) = s.next_from(i) {
            out.push(node);
            i = node + 1;
        }
        out
    }

    #[test]
    fn insert_remove_membership() {
        let mut s = ActiveSet::empty(100);
        assert!(collect(&s).is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert_eq!(collect(&s), vec![0, 63, 64, 99]);
        s.remove(63);
        assert_eq!(collect(&s), vec![0, 64, 99]);
        s.remove(63); // idempotent
        assert_eq!(collect(&s), vec![0, 64, 99]);
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let mut s = ActiveSet::empty(200);
        for &i in &[5usize, 0, 199, 64, 128, 63] {
            s.insert(i);
        }
        assert_eq!(collect(&s), vec![0, 5, 63, 64, 128, 199]);
    }

    #[test]
    fn next_from_past_the_end() {
        let mut s = ActiveSet::empty(36);
        for i in 0..36 {
            s.insert(i);
        }
        assert_eq!(collect(&s), (0..36).collect::<Vec<_>>());
        assert_eq!(s.next_from(35), Some(35));
        assert_eq!(s.next_from(36), None);
        assert_eq!(s.next_from(1000), None);
    }
}
