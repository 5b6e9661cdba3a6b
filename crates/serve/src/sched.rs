//! Round-robin scheduling over the tenants that have work.
//!
//! The service funnels many tenants into few simulation workers, so the
//! order in which queued cells reach a worker decides fairness: FIFO
//! would let one tenant's 10k-cell grid starve another's 10-cell probe
//! for its entire duration. [`DeadlineRr`] is the a653rs-router
//! exemplar's `DeadlineRrScheduler` with every item costing one slot:
//! under unit costs its earliest-deadline pick is just the next tenant
//! in turn, so the queue keeps a ring of the tenants that have work.
//! Each pop serves the front tenant and sends it to the back; a tenant
//! whose queue empties leaves the ring and is forgotten, and one that
//! arrives joins at the back. Active tenants therefore interleave one
//! cell at a time regardless of queue depth, which bounds any tenant's
//! wait for its `n`-th cell by `n x (active tenants)` service slots.

use std::collections::{HashMap, VecDeque};

/// A round-robin fair queue over named tenants.
pub struct DeadlineRr<T> {
    /// The queue of every tenant that has work; none is empty.
    queues: HashMap<String, VecDeque<T>>,
    /// The keys of `queues`, in the order they will be served.
    ring: VecDeque<String>,
    /// Items queued across all tenants.
    len: usize,
}

impl<T> Default for DeadlineRr<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DeadlineRr<T> {
    /// An empty scheduler.
    pub fn new() -> Self {
        DeadlineRr { queues: HashMap::new(), ring: VecDeque::new(), len: 0 }
    }

    /// Total queued items across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every queued item (used on shutdown).
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// Enqueues an item for a tenant. A tenant with no work queued joins
    /// the back of the ring: it is served within one round but earns no
    /// credit for the time it had nothing queued.
    pub fn push(&mut self, tenant: &str, item: T) {
        match self.queues.get_mut(tenant) {
            Some(queue) => queue.push_back(item),
            None => {
                self.queues.insert(tenant.to_string(), VecDeque::from([item]));
                self.ring.push_back(tenant.to_string());
            }
        }
        self.len += 1;
    }

    /// Serves one item from the tenant at the front of the ring.
    pub fn pop(&mut self) -> Option<(String, T)> {
        let tenant = self.ring.pop_front()?;
        let queue = self.queues.get_mut(&tenant).expect("every ring tenant has a queue");
        let item = queue.pop_front().expect("every queue in the ring has work");
        if queue.is_empty() {
            self.queues.remove(&tenant);
        } else {
            self.ring.push_back(tenant.clone());
        }
        self.len -= 1;
        Some((tenant, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tenant_is_fifo() {
        let mut s = DeadlineRr::new();
        for i in 0..5 {
            s.push("a", i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, x)| x)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn active_tenants_interleave_regardless_of_depth() {
        let mut s = DeadlineRr::new();
        for i in 0..100 {
            s.push("big", i);
        }
        for i in 0..10 {
            s.push("small", i);
        }
        // The round-robin guarantee: the small tenant's last item is
        // served within 2x its queue depth (+1 of slack for the order
        // inside a round), not after the big tenant's 100-cell tail.
        let mut pops_until_small_done = 0;
        let mut small_served = 0;
        while small_served < 10 {
            let (who, _) = s.pop().expect("work remains");
            pops_until_small_done += 1;
            if who == "small" {
                small_served += 1;
            }
        }
        assert!(
            pops_until_small_done <= 2 * 10 + 1,
            "small tenant waited {pops_until_small_done} pops"
        );
    }

    #[test]
    fn late_joiner_gets_no_backdated_credit() {
        let mut s = DeadlineRr::new();
        for i in 0..50 {
            s.push("a", i);
        }
        // Serve a long prefix, then a second tenant joins.
        for _ in 0..40 {
            s.pop();
        }
        for i in 0..5 {
            s.push("b", i);
        }
        // b interleaves from now on but cannot claim the 40 slots it
        // slept through: a still gets every other slot.
        let mut a_served = 0;
        for _ in 0..10 {
            let (who, _) = s.pop().unwrap();
            if who == "a" {
                a_served += 1;
            }
        }
        assert_eq!(a_served, 5, "a must keep half the slots after b joins");
    }

    #[test]
    fn idle_tenant_reentry_is_prompt() {
        let mut s = DeadlineRr::new();
        for i in 0..100 {
            s.push("big", i);
        }
        for _ in 0..50 {
            s.pop();
        }
        s.push("probe", 0);
        // The probe is served within the next two pops (the incumbent,
        // ahead of it in the ring, may take one more slot first).
        let first_two: Vec<String> = (0..2).map(|_| s.pop().unwrap().0).collect();
        assert!(first_two.iter().any(|w| w == "probe"), "{first_two:?}");
    }

    #[test]
    fn drained_tenants_are_forgotten() {
        let mut s = DeadlineRr::new();
        for i in 0..10_000 {
            let tenant = format!("conn-{i}");
            s.push(&tenant, i);
            assert_eq!(s.pop(), Some((tenant, i)));
        }
        assert_eq!((s.queues.len(), s.ring.len(), s.len()), (0, 0, 0));
    }

    /// SplitMix64: a seeded stream of pseudo-random words.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn random_interleavings_match_a_round_robin_model() {
        const TENANTS: usize = 8;
        for seed in 0..64 {
            let mut rng = seed;
            let mut s = DeadlineRr::new();
            // The model: each tenant's FIFO and the turn order of those
            // with work.
            let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); TENANTS];
            let mut ring: VecDeque<usize> = VecDeque::new();
            let mut pushed = 0u64;
            let mut popped: Vec<bool> = Vec::new();
            // For each tenant served and still backlogged, how often each
            // other tenant has been served since.
            let mut since: Vec<Option<[u32; TENANTS]>> = vec![None; TENANTS];
            for step in 0..600 {
                let draining = step >= 400;
                let roll = splitmix(&mut rng);
                if !draining && roll % 8 < 5 {
                    let t = (roll >> 8) as usize % TENANTS;
                    s.push(&format!("t{t}"), pushed);
                    if queues[t].is_empty() {
                        ring.push_back(t);
                    }
                    queues[t].push_back(pushed);
                    popped.push(false);
                    pushed += 1;
                } else if let Some(t) = ring.pop_front() {
                    let want = queues[t].pop_front().expect("ring tenants have work");
                    if !queues[t].is_empty() {
                        ring.push_back(t);
                    }
                    let (who, item) = s.pop().expect("the model has work");
                    // The model's tenant in turn, and its oldest item.
                    assert_eq!((who, item), (format!("t{t}"), want), "seed {seed} step {step}");
                    assert!(!popped[item as usize], "item {item} popped twice");
                    popped[item as usize] = true;
                    for (other, counts) in since.iter_mut().enumerate() {
                        if let Some(counts) = counts.as_mut().filter(|_| other != t) {
                            counts[t] += 1;
                            assert!(
                                counts[t] <= 1,
                                "seed {seed}: t{t} served twice while t{other} waited"
                            );
                        }
                    }
                    since[t] = (!queues[t].is_empty()).then_some([0; TENANTS]);
                } else {
                    assert!(s.pop().is_none(), "seed {seed}: a pop from an empty model");
                }
                let model_len: usize = queues.iter().map(VecDeque::len).sum();
                assert_eq!((s.len(), s.is_empty()), (model_len, model_len == 0), "seed {seed}");
            }
            assert!(s.is_empty() && popped.iter().all(|&p| p), "seed {seed}: items lost");
        }
    }
}
