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
}
