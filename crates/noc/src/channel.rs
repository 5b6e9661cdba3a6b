//! Inter-router channels: flit delay lines plus reverse credit delay lines.

use crate::packet::Flit;
use std::collections::VecDeque;

/// A unidirectional channel between two routers.
///
/// Flits travel forward with a configurable delay (switch traversal + link
/// latency); credits travel backward with a one-cycle delay. Entries are
/// stamped with the cycle at which they become visible to the receiver.
#[derive(Clone, Debug, Default)]
pub struct Channel {
    flits: VecDeque<(u64, u8, Flit)>,
    credits: VecDeque<(u64, u8)>,
    total_flits: u64,
}

impl Channel {
    /// Creates an empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a flit (already assigned to downstream VC `vc`) to arrive
    /// at cycle `due`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `due` is not monotonically non-decreasing
    /// (channels are FIFO).
    pub(crate) fn push_flit(&mut self, due: u64, vc: u8, flit: Flit) {
        debug_assert!(self.flits.back().map(|&(d, _, _)| d <= due).unwrap_or(true));
        self.total_flits += 1;
        self.flits.push_back((due, vc, flit));
    }

    /// Schedules a credit for VC `vc` to arrive back upstream at `due`.
    pub(crate) fn push_credit(&mut self, due: u64, vc: u8) {
        self.credits.push_back((due, vc));
    }

    /// Removes and returns the next flit if it is due at or before `now`.
    pub(crate) fn pop_flit(&mut self, now: u64) -> Option<(u8, Flit)> {
        match self.flits.front() {
            Some(&(due, vc, flit)) if due <= now => {
                self.flits.pop_front();
                Some((vc, flit))
            }
            _ => None,
        }
    }

    /// Removes and returns the next credit if due at or before `now`.
    pub(crate) fn pop_credit(&mut self, now: u64) -> Option<u8> {
        match self.credits.front() {
            Some(&(due, vc)) if due <= now => {
                self.credits.pop_front();
                Some(vc)
            }
            _ => None,
        }
    }

    /// Flits currently in flight.
    pub(crate) fn flits_in_flight(&self) -> usize {
        self.flits.len()
    }

    /// Total flits ever pushed onto this channel (for link-utilization
    /// reports).
    pub(crate) fn total_flits(&self) -> u64 {
        self.total_flits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketClass};

    fn flit() -> Flit {
        let mut p = Packet::new(PacketClass::Request, 0, 1, 8, 0);
        p.header.flits = 1;
        Flit { hdr: p.header, seq: 0 }
    }

    #[test]
    fn flits_delivered_at_due_cycle() {
        let mut ch = Channel::new();
        ch.push_flit(5, 0, flit());
        assert_eq!(ch.pop_flit(4), None);
        let (vc, _) = ch.pop_flit(5).unwrap();
        assert_eq!(vc, 0);
        assert_eq!(ch.pop_flit(6), None);
    }

    #[test]
    fn credits_delivered_at_due_cycle() {
        let mut ch = Channel::new();
        ch.push_credit(3, 1);
        assert_eq!(ch.pop_credit(2), None);
        assert_eq!(ch.pop_credit(3), Some(1));
        assert_eq!(ch.pop_credit(3), None);
    }

    #[test]
    fn fifo_order() {
        let mut ch = Channel::new();
        ch.push_flit(1, 0, flit());
        ch.push_flit(1, 1, flit());
        assert_eq!(ch.pop_flit(1).unwrap().0, 0);
        assert_eq!(ch.pop_flit(1).unwrap().0, 1);
    }

    #[test]
    fn in_flight_counter() {
        let mut ch = Channel::new();
        ch.push_flit(1, 0, flit());
        ch.push_credit(1, 0);
        assert_eq!(ch.flits_in_flight(), 1);
        ch.pop_flit(1);
        assert_eq!(ch.flits_in_flight(), 0);
    }
}
