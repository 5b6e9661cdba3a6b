//! The shared cycle-kernel trait.
//!
//! Everything that advances in lockstep with some clock — a single
//! [`Network`](crate::network::Network), the channel-sliced
//! [`DoubleNetwork`](crate::double::DoubleNetwork), the ideal
//! interconnect models, and the system's per-domain clock slices —
//! implements [`Tick`]. One `tick` is exactly one cycle of the
//! component's own clock; callers that multiplex several clock domains
//! (see `tenoc-core`'s `Clocks`) decide *when* to tick, the component
//! decides *what* a cycle means.

/// A component advanced one cycle at a time.
pub trait Tick {
    /// Advances the component by exactly one cycle of its own clock.
    fn tick(&mut self);

    /// Advances the component by `n` cycles.
    fn tick_n(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl Tick for Counter {
        fn tick(&mut self) {
            self.0 += 1;
        }
    }

    #[test]
    fn tick_n_ticks_n_times() {
        let mut c = Counter(0);
        c.tick_n(17);
        assert_eq!(c.0, 17);
        c.tick();
        assert_eq!(c.0, 18);
    }

    #[test]
    fn trait_objects_tick() {
        let mut c: Box<dyn Tick> = Box::new(Counter(3));
        c.tick_n(2);
    }
}
