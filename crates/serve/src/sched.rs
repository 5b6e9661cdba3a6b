//! Deadline-round-robin scheduling over per-tenant queues.
//!
//! The service funnels many tenants into few simulation workers, so the
//! order in which queued cells reach a worker decides fairness: FIFO
//! would let one tenant's 10k-cell grid starve another's 10-cell probe
//! for its entire duration. [`DeadlineRr`] is a virtual-time fair queue
//! in the shape of the a653rs-router exemplar's `DeadlineRrScheduler`
//! (statically-known tenants, per-queue deadlines, earliest-deadline
//! pick): every tenant carries a *finish tag*; each pop serves the
//! non-empty tenant with the smallest tag and advances that tag by the
//! work taken. Active tenants therefore interleave one cell at a time
//! regardless of queue depth, which bounds any tenant's wait for its
//! `n`-th cell by `n x (active tenants)` service slots.

use std::collections::{HashMap, VecDeque};

/// One tenant's queue and scheduling state.
struct Tenant<T> {
    name: String,
    /// Virtual finish tag: the deadline of this tenant's next service.
    finish: u64,
    queue: VecDeque<T>,
}

/// A deadline-round-robin fair queue over named tenants.
pub struct DeadlineRr<T> {
    tenants: Vec<Tenant<T>>,
    by_name: HashMap<String, usize>,
    /// The deadline of the most recent service: new arrivals may not
    /// claim deadlines in the past (no credit for sleeping).
    virtual_time: u64,
}

impl<T> Default for DeadlineRr<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DeadlineRr<T> {
    /// An empty scheduler.
    pub fn new() -> Self {
        DeadlineRr { tenants: Vec::new(), by_name: HashMap::new(), virtual_time: 0 }
    }

    /// Total queued items across all tenants.
    pub fn len(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.tenants.iter().all(|t| t.queue.is_empty())
    }

    /// Drops every queued item (used on shutdown).
    pub fn clear(&mut self) {
        for t in &mut self.tenants {
            t.queue.clear();
        }
    }

    fn slot(&mut self, tenant: &str) -> usize {
        if let Some(&i) = self.by_name.get(tenant) {
            return i;
        }
        let i = self.tenants.len();
        self.tenants.push(Tenant {
            name: tenant.to_string(),
            finish: self.virtual_time,
            queue: VecDeque::new(),
        });
        self.by_name.insert(tenant.to_string(), i);
        i
    }

    /// Enqueues an item for a tenant. A tenant that went idle re-enters
    /// at the current virtual time: it is served promptly but earns no
    /// back-dated credit for the period it had nothing queued.
    pub fn push(&mut self, tenant: &str, item: T) {
        let vt = self.virtual_time;
        let i = self.slot(tenant);
        let t = &mut self.tenants[i];
        if t.queue.is_empty() {
            t.finish = t.finish.max(vt);
        }
        t.queue.push_back(item);
    }

    /// Index of the non-empty tenant with the earliest deadline (ties
    /// break by tenant arrival order, so the pick is deterministic).
    fn earliest(&self) -> Option<usize> {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.queue.is_empty())
            .min_by_key(|(i, t)| (t.finish, *i))
            .map(|(i, _)| i)
    }

    /// Serves one item from the earliest-deadline tenant.
    pub fn pop(&mut self) -> Option<(String, T)> {
        let i = self.earliest()?;
        let t = &mut self.tenants[i];
        let item = t.queue.pop_front().expect("earliest tenant is non-empty");
        t.finish += 1;
        self.virtual_time = t.finish;
        Some((t.name.clone(), item))
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
        // The deadline-RR guarantee: the small tenant's last item is
        // served within 2x its queue depth (+1 for the tie-break round),
        // not after the big tenant's 100-cell tail.
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
        // The probe is served within the next two pops (tie-break may
        // give the incumbent one more slot first).
        let first_two: Vec<String> = (0..2).map(|_| s.pop().unwrap().0).collect();
        assert!(first_two.iter().any(|w| w == "probe"), "{first_two:?}");
    }
}
