//! Coherence message vocabulary and the in-flight payload table.
//!
//! The network layer (`atac-net`) carries opaque 64-bit tokens; the
//! protocol keeps the real payload in a slab indexed by that token, with a
//! delivery refcount so broadcast payloads survive until every copy has
//! been consumed.

// Hot path (atac-audit `HOT_PATH_FILES`): panics and lossy casts need an `#[expect]`.
#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
// State machine: name every variant, so a new one fails until handled.
#![warn(clippy::wildcard_enum_match_arm)]

use crate::addr::Addr;
use atac_net::{CoreId, MessageClass};

/// Which directory protocol is running (paper §V-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// ACKwise_k: limited pointers; overflow sets a global bit and tracks
    /// the *count* of sharers; a broadcast invalidation collects acks only
    /// from actual sharers. No silent evictions.
    AckWise { k: usize },
    /// Dir_kB: limited pointers; overflow broadcasts invalidations and
    /// collects acks from *every* core. Supports silent evictions.
    DirB { k: usize },
}

impl ProtocolKind {
    /// Hardware sharer pointers.
    pub fn k(self) -> usize {
        match self {
            ProtocolKind::AckWise { k } | ProtocolKind::DirB { k } => k,
        }
    }

    /// Display name matching the paper (e.g. "ACKwise4", "Dir4B").
    pub fn name(self) -> String {
        match self {
            ProtocolKind::AckWise { k } => format!("ACKwise{k}"),
            ProtocolKind::DirB { k } => format!("Dir{k}B"),
        }
    }
}

/// Coherence message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohKind {
    // -------- core → home --------
    /// Request a shared (read) copy.
    ShReq,
    /// Request an exclusive (write) copy.
    ExReq,
    /// Invalidation acknowledgement.
    InvAck,
    /// Clean shared eviction notification (ACKwise only).
    Evict,
    /// Dirty eviction carrying the line (data message).
    EvictDirty,
    /// Write-back data in response to `WbReq` (owner keeps an S copy).
    WbData,
    /// Flush data in response to `FlushReq` (owner invalidates).
    FlushData,
    // -------- home → core --------
    /// Shared response with the line.
    ShRep,
    /// Exclusive response with the line.
    ExRep,
    /// Exclusive permission upgrade without data (requester held S).
    UpgradeRep,
    /// Invalidate request (unicast to a pointer, or broadcast).
    Inv,
    /// Ask the M owner to write back and demote to S.
    WbReq,
    /// Ask the M owner to flush (send data and invalidate).
    FlushReq,
    // -------- home ↔ memory controller --------
    /// Line fetch request to a memory controller.
    MemRead,
    /// Line write to a memory controller (data message).
    MemWrite,
    /// Memory controller's fill response (data message).
    MemData,
}

impl CohKind {
    /// Network message class: data-bearing messages are 600-bit "Data";
    /// everything else is an 88-bit control message (§IV-C sizes).
    pub fn class(self) -> MessageClass {
        match self {
            CohKind::EvictDirty
            | CohKind::WbData
            | CohKind::FlushData
            | CohKind::ShRep
            | CohKind::ExRep
            | CohKind::MemWrite
            | CohKind::MemData => MessageClass::Data,
            CohKind::ShReq
            | CohKind::ExReq
            | CohKind::InvAck
            | CohKind::Evict
            | CohKind::UpgradeRep
            | CohKind::Inv
            | CohKind::WbReq
            | CohKind::FlushReq
            | CohKind::MemRead => MessageClass::Control,
        }
    }
}

/// A coherence message payload (the decoded contents of a network token).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohPayload {
    /// Message kind.
    pub kind: CohKind,
    /// Line-aligned address.
    pub addr: Addr,
    /// The core this transaction is ultimately for (the requester), used
    /// by memory messages to route the eventual reply.
    pub requester: CoreId,
    /// ATAC+ broadcast sequence number (§IV-C-1): for home→core messages,
    /// the number of invalidation broadcasts the home had sent when this
    /// message departed.
    pub seq: u16,
}

/// Slab of in-flight payloads, refcounted by expected delivery count.
#[derive(Debug, Default)]
pub struct PayloadTable {
    slots: Vec<Option<(CohPayload, u32)>>,
    free: Vec<u32>,
}

impl PayloadTable {
    /// Insert a payload expecting `deliveries` deliveries; returns the
    /// token to put in the network message. Tokens are never zero.
    pub fn insert(&mut self, p: CohPayload, deliveries: u32) -> u64 {
        assert!(deliveries > 0);
        #[expect(clippy::cast_possible_truncation, reason = "slab ≤ live payload cap")]
        let idx = if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Some((p, deliveries));
            i
        } else {
            // audit: allow(alloc) slab grows to the live-payload peak, then recycles
            self.slots.push(Some((p, deliveries)));
            (self.slots.len() - 1) as u32
        };
        u64::from(idx) + 1
    }

    /// Read a payload by token and consume one delivery; frees the slot on
    /// the last one.
    pub fn take(&mut self, token: u64) -> CohPayload {
        #[expect(clippy::cast_possible_truncation, reason = "tokens index a u32 slab")]
        let idx = (token - 1) as usize;
        #[expect(clippy::expect_used, reason = "token refcount keeps the slot live")]
        let (p, refs) = self.slots[idx].as_mut().expect("live payload");
        let out = *p;
        *refs -= 1;
        if *refs == 0 {
            self.slots[idx] = None;
            #[expect(clippy::cast_possible_truncation, reason = "slab ≤ live payload cap")]
            self.free.push(idx as u32); // audit: allow(alloc) free list ≤ slab size
        }
        out
    }

    /// Peek without consuming (for buffered-message inspection).
    #[expect(clippy::cast_possible_truncation, reason = "tokens index a u32 slab")]
    #[expect(clippy::expect_used, reason = "token refcount keeps the slot live")]
    pub fn peek(&self, token: u64) -> CohPayload {
        self.slots[(token - 1) as usize].expect("live payload").0
    }

    /// Number of live payloads (for leak detection in tests).
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> CohPayload {
        CohPayload {
            kind: CohKind::ShReq,
            addr: Addr(0x40),
            requester: CoreId(3),
            seq: 0,
        }
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut t = PayloadTable::default();
        let tok = t.insert(payload(), 1);
        assert_ne!(tok, 0, "token 0 is reserved for 'no payload'");
        assert_eq!(t.take(tok), payload());
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn broadcast_refcounting() {
        let mut t = PayloadTable::default();
        let tok = t.insert(payload(), 3);
        assert_eq!(t.take(tok), payload());
        assert_eq!(t.live(), 1);
        t.take(tok);
        assert_eq!(t.live(), 1);
        t.take(tok);
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn slots_are_reused() {
        let mut t = PayloadTable::default();
        let a = t.insert(payload(), 1);
        t.take(a);
        let b = t.insert(payload(), 1);
        assert_eq!(a, b, "freed slot reused");
    }

    #[test]
    fn data_classes_match_paper() {
        assert_eq!(CohKind::ShReq.class(), MessageClass::Control);
        assert_eq!(CohKind::Inv.class(), MessageClass::Control);
        assert_eq!(CohKind::ShRep.class(), MessageClass::Data);
        assert_eq!(CohKind::EvictDirty.class(), MessageClass::Data);
        assert_eq!(CohKind::MemData.class(), MessageClass::Data);
    }

    #[test]
    fn protocol_names() {
        assert_eq!(ProtocolKind::AckWise { k: 4 }.name(), "ACKwise4");
        assert_eq!(ProtocolKind::DirB { k: 4 }.name(), "Dir4B");
    }

    #[test]
    #[should_panic(expected = "live payload")]
    fn double_take_panics() {
        let mut t = PayloadTable::default();
        let tok = t.insert(payload(), 1);
        t.take(tok);
        t.take(tok);
    }
}
