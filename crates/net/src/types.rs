//! Core identifier and message types shared by every network model.

/// Simulation time in clock cycles (cores and network share a 1 GHz clock
/// in the paper, Table I).
pub type Cycle = u64;

/// Identifies one of the 1024 cores (also its tile / router position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

impl CoreId {
    /// Index as usize for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Identifies one cluster (= ONet hub): 64 on the paper's chip, at most
/// 256 on any chip (`Topology::small` rejects more).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u8);

impl ClusterId {
    /// Index as usize for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Where a message is going.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// A single destination core.
    Unicast(CoreId),
    /// Every other core on the chip (coherence invalidation broadcasts).
    Broadcast,
}

/// Coarse message classes, used for statistics and payload sizing.
///
/// Payload sizes follow §IV-C: a coherence control message is 88 bits
/// (64 address + 20 sender/receiver + 4 type) and a data message is 600
/// bits (512 data + 64 address + 20 IDs + 4 type); both carry the 16-bit
/// ATAC+ sequence number without growing their flit count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// Address-only coherence traffic (requests, invalidations, acks).
    Control,
    /// Cache-line-bearing traffic (fills, writebacks, flush data).
    Data,
    /// Synthetic traffic from the Fig. 3 network-only harness.
    Synthetic,
}

impl MessageClass {
    /// Payload size in bits, including the 16-bit sequence number.
    #[inline]
    pub fn payload_bits(self) -> u32 {
        match self {
            MessageClass::Control => 88 + 16,
            MessageClass::Data => 600 + 16,
            MessageClass::Synthetic => 88 + 16,
        }
    }

    /// Number of flits at the given flit width.
    #[inline]
    pub fn flits(self, flit_width: u32) -> u32 {
        self.payload_bits().div_ceil(flit_width)
    }
}

/// A network message as seen by the protocol layers above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sending core.
    pub src: CoreId,
    /// Destination.
    pub dest: Dest,
    /// Class (sets payload size).
    pub class: MessageClass,
    /// Opaque token round-tripped to the sender's protocol layer; the
    /// network never interprets it.
    pub token: u64,
}

/// A message arriving at a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The original message.
    pub msg: Message,
    /// The core receiving this copy (for broadcasts, one delivery per
    /// receiving core).
    pub receiver: CoreId,
    /// Cycle at which the last flit reached the receiver.
    pub at: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes_match_paper() {
        assert_eq!(MessageClass::Control.payload_bits(), 104);
        assert_eq!(MessageClass::Data.payload_bits(), 616);
    }

    #[test]
    fn flit_counts_at_64_bits() {
        // §IV-C: adding the sequence number creates no extra flits —
        // control stays at 2 flits, data at 10 flits of 64 bits.
        assert_eq!(MessageClass::Control.flits(64), 2);
        assert_eq!(MessageClass::Data.flits(64), 10);
        // without the seq number: 88/64→2, 600/64→10. Same.
        assert_eq!(88u32.div_ceil(64), 2);
        assert_eq!(600u32.div_ceil(64), 10);
    }

    #[test]
    fn flit_counts_scale_with_width() {
        assert_eq!(MessageClass::Data.flits(16), 39);
        assert_eq!(MessageClass::Data.flits(128), 5);
        assert_eq!(MessageClass::Data.flits(256), 3);
        assert_eq!(MessageClass::Control.flits(256), 1);
    }
}
