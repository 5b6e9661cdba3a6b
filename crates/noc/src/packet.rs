//! Packets and flits.
//!
//! Traffic in the accelerator is split into two protocol classes carried on
//! logically (or physically) separate networks: **requests** (core to memory
//! controller) and **replies** (memory controller to core). Read requests
//! are small (8 bytes — one flit at the baseline 16-byte channel width)
//! while write requests and read replies are large (64 bytes — four flits
//! at 16-byte channels), which is the root of the many-to-few-to-many
//! injection-rate imbalance the paper analyzes.

use crate::types::NodeId;

/// Protocol class of a packet.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum PacketClass {
    /// Core-to-MC traffic: read requests (8 B) and write requests (64 B).
    Request = 0,
    /// MC-to-core traffic: read replies (64 B).
    Reply = 1,
}

impl PacketClass {
    /// Both classes, in index order.
    pub const ALL: [PacketClass; 2] = [PacketClass::Request, PacketClass::Reply];

    /// Index of this class (`0` or `1`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`PacketClass::index`]; `None` for indices other than 0
    /// and 1 (e.g. a corrupted serialized class byte).
    pub fn from_index(i: usize) -> Option<PacketClass> {
        match i {
            0 => Some(PacketClass::Request),
            1 => Some(PacketClass::Reply),
            _ => None,
        }
    }
}

/// Routing phase of a packet under dimension-ordered or checkerboard
/// routing.
///
/// Under checkerboard routing (CR) a packet is either XY-routed or
/// YX-routed; the phase selects which virtual-channel subset the packet may
/// use, exactly like O1Turn. A case-2 packet (half-router to half-router,
/// both XY and YX turn nodes being half-routers) travels YX to a random
/// intermediate full-router and then switches to the XY phase.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Phase {
    /// Route X first, then Y. Uses the XY virtual-channel subset.
    Xy = 0,
    /// Route Y first, then X. Uses the YX virtual-channel subset.
    Yx = 1,
}

/// Routing and bookkeeping state carried by every flit of a packet.
///
/// Headers are small `Copy` values; carrying a copy in each flit keeps the
/// router and ejection logic simple without heap allocation.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PacketHeader {
    /// Globally unique packet id (assigned by the creator).
    pub id: u64,
    /// Source terminal.
    pub src: NodeId,
    /// Final destination terminal.
    pub dst: NodeId,
    /// Protocol class.
    pub class: PacketClass,
    /// Payload size in bytes (determines the flit count for a given
    /// channel width).
    pub size_bytes: u32,
    /// Number of flits after flitization (set when a network accepts the
    /// packet; zero before).
    pub flits: u16,
    /// Current routing phase (see [`Phase`]).
    pub phase: Phase,
    /// Intermediate full-router for checkerboard case-2 routes. The packet
    /// is YX-routed to `via`, where the phase switches to XY and `via` is
    /// cleared.
    pub via: Option<NodeId>,
    /// Opaque correlation tag (e.g. an MSHR index or a request id) used by
    /// the memory system to match replies to requests, and by tests to
    /// check end-to-end payload integrity.
    pub tag: u64,
    /// Cycle at which the packet was handed to the interconnect
    /// (`try_inject` success), in interconnect cycles.
    /// [`PacketHeader::CREATED_UNSET`] until then; workloads that queue
    /// packets before injection may pre-stamp it to measure source-queue
    /// time.
    pub created: u64,
    /// Cycle at which the head flit entered the source router's injection
    /// buffer. Zero until then.
    pub injected: u64,
}

impl PacketHeader {
    /// Sentinel for a `created` stamp not yet assigned.
    ///
    /// A sentinel distinct from every real cycle: `0` is a legitimate
    /// creation cycle, and using it as "unset" made a packet created at
    /// cycle 0 get re-stamped when a blocked injection was retried.
    pub const CREATED_UNSET: u64 = u64::MAX;
}

/// A packet: the unit of end-to-end transfer. Payload is abstract — only
/// sizes (for timing) and the `tag` (for correlation) are modeled.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Packet {
    /// Header describing the packet.
    pub header: PacketHeader,
}

impl Packet {
    /// Creates a packet of the given class.
    pub fn new(class: PacketClass, src: NodeId, dst: NodeId, size_bytes: u32, tag: u64) -> Self {
        Packet {
            header: PacketHeader {
                id: 0,
                src,
                dst,
                class,
                size_bytes,
                flits: 0,
                phase: Phase::Xy,
                via: None,
                tag,
                created: PacketHeader::CREATED_UNSET,
                injected: 0,
            },
        }
    }

    /// Creates a request packet (core to MC).
    pub fn request(src: NodeId, dst: NodeId, size_bytes: u32, tag: u64) -> Self {
        Self::new(PacketClass::Request, src, dst, size_bytes, tag)
    }

    /// Creates a reply packet (MC to core).
    pub fn reply(src: NodeId, dst: NodeId, size_bytes: u32, tag: u64) -> Self {
        Self::new(PacketClass::Reply, src, dst, size_bytes, tag)
    }

    /// Number of flits this packet occupies at a given channel width.
    /// Always at least one.
    pub fn flits_at_width(&self, channel_bytes: u32) -> u16 {
        debug_assert!(channel_bytes > 0);
        (self.header.size_bytes.div_ceil(channel_bytes)).max(1) as u16
    }
}

/// A flow-control digit: the unit of channel transfer and buffering.
///
/// Every flit carries a copy of its packet header plus its sequence number,
/// which keeps reassembly at ejection trivial.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Flit {
    /// Header of the packet this flit belongs to.
    pub hdr: PacketHeader,
    /// Sequence number within the packet (`0` = head).
    pub seq: u16,
}

impl Flit {
    /// `true` for the first flit of a packet.
    pub(crate) fn is_head(&self) -> bool {
        self.seq == 0
    }

    /// `true` for the last flit of a packet (a single-flit packet is both
    /// head and tail).
    pub(crate) fn is_tail(&self) -> bool {
        self.seq + 1 == self.hdr.flits
    }
}

/// A packet as observed leaving the network at its destination terminal.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EjectedPacket {
    /// The packet header, with `created`/`injected` stamps filled in.
    pub header: PacketHeader,
    /// Interconnect cycle at which the tail flit left the network.
    pub ejected: u64,
}

impl EjectedPacket {
    /// Total latency from injection-attempt success to tail ejection.
    pub fn total_latency(&self) -> u64 {
        self.ejected.saturating_sub(self.header.created)
    }

    /// Network latency from the head flit entering the source router to
    /// tail ejection (excludes source queueing at the network interface).
    pub fn network_latency(&self) -> u64 {
        self.ejected.saturating_sub(self.header.injected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_count_by_width() {
        let read_req = Packet::request(0, 1, 8, 0);
        assert_eq!(read_req.flits_at_width(16), 1);
        assert_eq!(read_req.flits_at_width(8), 1);

        let reply = Packet::reply(1, 0, 64, 0);
        assert_eq!(reply.flits_at_width(16), 4);
        assert_eq!(reply.flits_at_width(8), 8);
        assert_eq!(reply.flits_at_width(32), 2);
    }

    #[test]
    fn zero_size_packet_still_occupies_one_flit() {
        let p = Packet::request(0, 1, 0, 0);
        assert_eq!(p.flits_at_width(16), 1);
    }

    #[test]
    fn head_tail_flags() {
        let mut p = Packet::reply(0, 1, 64, 0);
        p.header.flits = 4;
        let head = Flit { hdr: p.header, seq: 0 };
        let mid = Flit { hdr: p.header, seq: 2 };
        let tail = Flit { hdr: p.header, seq: 3 };
        assert!(head.is_head() && !head.is_tail());
        assert!(!mid.is_head() && !mid.is_tail());
        assert!(!tail.is_head() && tail.is_tail());

        let mut single = Packet::request(0, 1, 8, 0);
        single.header.flits = 1;
        let f = Flit { hdr: single.header, seq: 0 };
        assert!(f.is_head() && f.is_tail());
    }

    #[test]
    fn latency_accessors() {
        let mut p = Packet::request(0, 1, 8, 0);
        p.header.created = 10;
        p.header.injected = 14;
        let e = EjectedPacket { header: p.header, ejected: 30 };
        assert_eq!(e.total_latency(), 20);
        assert_eq!(e.network_latency(), 16);
    }

    #[test]
    fn class_index() {
        assert_eq!(PacketClass::Request.index(), 0);
        assert_eq!(PacketClass::Reply.index(), 1);
        for c in PacketClass::ALL {
            assert_eq!(PacketClass::from_index(c.index()), Some(c));
        }
        assert_eq!(PacketClass::from_index(2), None);
    }
}
