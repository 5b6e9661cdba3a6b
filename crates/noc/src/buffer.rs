//! Input-side virtual-channel buffers and their allocation state machine.

use crate::packet::Flit;
use crate::routing::VcSet;
use std::collections::VecDeque;

/// Allocation state of one input virtual channel.
///
/// The state refers to the packet whose flit is at the front of the FIFO;
/// multiple packets may be queued back-to-back in one VC buffer, each
/// processed in order.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum VcState {
    /// No packet is currently being routed through this VC.
    Idle,
    /// A head flit is at the front; its route has been computed and it is
    /// waiting for a downstream VC.
    Waiting {
        /// Resolved output port index (0..4 = directions, 4.. = ejection).
        out_port: usize,
        /// Candidate downstream VCs.
        vcs: VcSet,
        /// First cycle at which VC allocation may be attempted (models the
        /// route-computation pipeline stages).
        va_eligible: u64,
    },
    /// Downstream VC allocated; flits may compete for the switch.
    Active {
        /// Resolved output port index.
        out_port: usize,
        /// Allocated VC at the downstream buffer.
        out_vc: u8,
        /// Cycle in which VC allocation was granted. Switch allocation is
        /// gated to strictly later cycles unless the router is
        /// single-cycle.
        va_cycle: u64,
    },
}

/// One input virtual channel: a FIFO of flits (with arrival cycles) plus
/// allocation state.
#[derive(Clone, Debug)]
pub struct InputVc {
    fifo: VecDeque<(Flit, u64)>,
    capacity: usize,
    /// Allocation state of the packet at the front of the FIFO.
    pub state: VcState,
    /// Round-robin cursor over candidate output VCs for VC allocation.
    pub vc_request_cursor: u8,
}

impl InputVc {
    /// Creates an empty VC with buffer space for `capacity` flits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "VC buffers must hold at least one flit");
        InputVc {
            fifo: VecDeque::with_capacity(capacity),
            capacity,
            state: VcState::Idle,
            vc_request_cursor: 0,
        }
    }

    /// Buffered flit count.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// `true` when no flit is buffered.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Remaining buffer slots.
    pub fn free_slots(&self) -> usize {
        self.capacity - self.fifo.len()
    }

    /// Buffer capacity in flits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues an arriving flit.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — credit-based flow control must make
    /// that impossible, so an overflow indicates a simulator bug.
    pub fn push(&mut self, flit: Flit, now: u64) {
        assert!(self.fifo.len() < self.capacity, "VC buffer overflow (credit protocol violated)");
        self.fifo.push_back((flit, now));
    }

    /// The flit at the front, with its arrival cycle.
    pub fn front(&self) -> Option<&(Flit, u64)> {
        self.fifo.front()
    }

    /// Mutable access to the front flit (route computation mutates head
    /// flit headers in place, e.g. clearing the checkerboard `via` node).
    pub(crate) fn front_mut(&mut self) -> Option<&mut (Flit, u64)> {
        self.fifo.front_mut()
    }

    /// Removes and returns the front flit.
    pub fn pop(&mut self) -> Option<(Flit, u64)> {
        self.fifo.pop_front()
    }
}

/// All virtual channels of one input port.
#[derive(Clone, Debug)]
pub(crate) struct InputUnit {
    vcs: Vec<InputVc>,
}

impl InputUnit {
    /// Creates `vcs` virtual channels of `depth` flits each.
    pub fn new(vcs: usize, depth: usize) -> Self {
        InputUnit { vcs: (0..vcs).map(|_| InputVc::new(depth)).collect() }
    }

    /// Immutable access to VC `vc`.
    pub fn vc(&self, vc: u8) -> &InputVc {
        &self.vcs[vc as usize]
    }

    /// Mutable access to VC `vc`.
    pub(crate) fn vc_mut(&mut self, vc: u8) -> &mut InputVc {
        &mut self.vcs[vc as usize]
    }

    /// Total buffered flits across VCs.
    pub fn occupancy(&self) -> usize {
        self.vcs.iter().map(InputVc::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketClass};

    fn flit(seq: u16) -> Flit {
        let mut p = Packet::new(PacketClass::Request, 0, 1, 64, 0);
        p.header.flits = 4;
        Flit { hdr: p.header, seq }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut vc = InputVc::new(4);
        for s in 0..4 {
            vc.push(flit(s), s as u64);
        }
        assert_eq!(vc.free_slots(), 0);
        for s in 0..4 {
            let (f, at) = vc.pop().unwrap();
            assert_eq!(f.seq, s);
            assert_eq!(at, s as u64);
        }
        assert!(vc.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut vc = InputVc::new(1);
        vc.push(flit(0), 0);
        vc.push(flit(1), 1);
    }

    #[test]
    fn input_unit_occupancy() {
        let mut u = InputUnit::new(2, 8);
        u.vc_mut(0).push(flit(0), 0);
        u.vc_mut(1).push(flit(0), 0);
        u.vc_mut(1).push(flit(1), 0);
        assert_eq!(u.occupancy(), 3);
        assert_eq!(u.vc(0).len(), 1);
        assert_eq!(u.vc(1).len(), 2);
    }

    #[test]
    fn fresh_vc_is_idle() {
        let vc = InputVc::new(8);
        assert_eq!(vc.state, VcState::Idle);
        assert_eq!(vc.free_slots(), 8);
    }
}
