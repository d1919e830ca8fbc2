//! Directory state for the ACKwise_k / Dir_kB protocols.
//!
//! The directory is *dataless*: it tracks ownership/sharing and
//! orchestrates data movement between caches and memory controllers, but
//! never stores lines itself. States live in a sparse map keyed by line
//! address; the home core of a line is statically determined by
//! [`crate::addr::Addr::home`]. Capacity (entries × entry width) is
//! accounted by `atac-phys`'s directory cache model.

// Hot path (atac-audit `HOT_PATH_FILES`): panics and lossy casts need an `#[expect]`.
#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
// State machine: name every variant, so a new one fails until handled.
#![warn(clippy::wildcard_enum_match_arm)]

use atac_net::CoreId;

/// Sharer tracking with `k` hardware pointers (paper §III-B).
///
/// While the sharer count is ≤ `k`, exact identities are stored
/// (full-map behaviour). Beyond `k`, ACKwise sets a *global bit* and keeps
/// only the **total count**; Dir_kB keeps only the global bit (it doesn't
/// need the count because it collects acks from everyone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharerSet {
    /// Exact pointers (≤ k).
    Ptrs(Vec<CoreId>),
    /// Global bit set; only the number of sharers is known.
    Overflow { count: u32 },
}

impl SharerSet {
    /// A set containing exactly one sharer.
    pub fn one(c: CoreId) -> Self {
        // audit: allow(alloc) ACKwise pointer list holds ≤ k entries
        SharerSet::Ptrs(vec![c])
    }

    /// Number of sharers.
    pub fn count(&self) -> u32 {
        match self {
            #[expect(clippy::cast_possible_truncation, reason = "sharers ≤ cores ≤ 1024")]
            SharerSet::Ptrs(v) => v.len() as u32,
            SharerSet::Overflow { count } => *count,
        }
    }

    /// Whether the global (overflow) bit is set.
    pub fn overflowed(&self) -> bool {
        matches!(self, SharerSet::Overflow { .. })
    }

    /// Add a sharer under a `k`-pointer budget. Returns `true` if this
    /// addition overflowed the pointer storage (global bit newly set).
    pub fn add(&mut self, c: CoreId, k: usize) -> bool {
        match self {
            SharerSet::Ptrs(v) => {
                // Sanitizer: exact pointer storage must never exceed the
                // hardware budget before the global-bit regime engages.
                debug_assert!(
                    v.len() <= k,
                    "{} sharer pointers stored with a k={k} budget",
                    v.len()
                );
                if v.contains(&c) {
                    return false;
                }
                if v.len() < k {
                    v.push(c); // audit: allow(alloc) pointer list capped at k; capacity amortized
                    false
                } else {
                    *self = SharerSet::Overflow {
                        #[expect(clippy::cast_possible_truncation, reason = "≤ 1024 sharers")]
                        count: v.len() as u32 + 1,
                    };
                    true
                }
            }
            SharerSet::Overflow { count } => {
                // Identities are lost; assume `c` is new (the protocol
                // only calls add() for cores that just received a copy
                // and were not known sharers).
                *count += 1;
                false
            }
        }
    }

    /// Remove a sharer (eviction). With the global bit set only the count
    /// decrements; identities stay unknown.
    pub fn remove(&mut self, c: CoreId) {
        match self {
            SharerSet::Ptrs(v) => {
                v.retain(|&x| x != c);
            }
            SharerSet::Overflow { count } => {
                *count = count.saturating_sub(1);
            }
        }
    }

    /// Is `c` known to be a sharer? `None` means "unknown" (global bit).
    pub fn contains(&self, c: CoreId) -> Option<bool> {
        match self {
            SharerSet::Ptrs(v) => Some(v.contains(&c)),
            SharerSet::Overflow { .. } => None,
        }
    }

    /// Exact pointers, if identities are known.
    pub fn ptrs(&self) -> Option<&[CoreId]> {
        match self {
            SharerSet::Ptrs(v) => Some(v),
            SharerSet::Overflow { .. } => None,
        }
    }
}

/// Stable + transient directory entry states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the line.
    Uncached,
    /// One or more caches hold the line read-only.
    Shared(SharerSet),
    /// Exactly one cache holds the line writable.
    Modified(CoreId),
    /// Waiting for a memory fill for `requester` (line was Uncached).
    WaitMem { requester: CoreId, ex: bool },
    /// ShReq on Shared: waiting for memory data; `sharers` unchanged.
    WaitMemShared {
        requester: CoreId,
        sharers: SharerSet,
    },
    /// ExReq on Shared: waiting for invalidation acks (and possibly a
    /// parallel memory fetch when the requester wasn't already a sharer).
    WaitAcks {
        requester: CoreId,
        needed: u32,
        need_data: bool,
        have_data: bool,
    },
    /// ShReq on Modified: waiting for the owner's write-back data.
    WaitWb { requester: CoreId, owner: CoreId },
    /// ExReq on Modified: waiting for the owner's flush data.
    WaitFlush { requester: CoreId, owner: CoreId },
}

impl DirState {
    /// Is the entry in a transient (request-in-progress) state?
    pub fn is_transient(&self) -> bool {
        !matches!(
            self,
            DirState::Uncached | DirState::Shared(_) | DirState::Modified(_)
        )
    }
}

// The directory holds one per tracked line: 133 K on 1024-core radix.
const _: () = assert!(
    std::mem::size_of::<DirState>() <= 32,
    "a directory state fits in 32 bytes"
);

/// A request serialized behind the line's in-flight transaction ("requests
/// are processed serially at the directory to maintain sequential
/// consistency", §IV-C-1), waiting for the line to return to a stable
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitingReq {
    /// Requesting core.
    pub requester: CoreId,
    /// Exclusive (write) or shared (read)?
    pub ex: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointers_track_exactly_up_to_k() {
        let mut s = SharerSet::one(CoreId(1));
        assert!(!s.add(CoreId(2), 4));
        assert!(!s.add(CoreId(3), 4));
        assert_eq!(s.count(), 3);
        assert_eq!(s.contains(CoreId(2)), Some(true));
        assert_eq!(s.contains(CoreId(9)), Some(false));
        assert!(!s.overflowed());
    }

    #[test]
    fn overflow_at_k_plus_one() {
        let mut s = SharerSet::one(CoreId(0));
        for i in 1..4u16 {
            assert!(!s.add(CoreId(i), 4));
        }
        // 5th sharer overflows a k=4 set.
        assert!(s.add(CoreId(4), 4));
        assert!(s.overflowed());
        assert_eq!(s.count(), 5);
        assert_eq!(s.contains(CoreId(0)), None, "identities lost");
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let mut s = SharerSet::one(CoreId(7));
        assert!(!s.add(CoreId(7), 4));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn remove_decrements_both_regimes() {
        let mut s = SharerSet::one(CoreId(0));
        s.add(CoreId(1), 2);
        s.remove(CoreId(0));
        assert_eq!(s.count(), 1);
        assert_eq!(s.contains(CoreId(0)), Some(false));

        let mut o = SharerSet::Overflow { count: 10 };
        o.remove(CoreId(3));
        assert_eq!(o.count(), 9);
    }

    #[test]
    fn overflow_count_keeps_growing() {
        let mut s = SharerSet::Overflow { count: 5 };
        s.add(CoreId(100), 4);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn transient_classification() {
        assert!(!DirState::Uncached.is_transient());
        assert!(!DirState::Shared(SharerSet::one(CoreId(0))).is_transient());
        assert!(!DirState::Modified(CoreId(0)).is_transient());
        assert!(DirState::WaitMem {
            requester: CoreId(0),
            ex: false
        }
        .is_transient());
        assert!(DirState::WaitWb {
            requester: CoreId(0),
            owner: CoreId(1)
        }
        .is_transient());
    }

    #[test]
    fn full_map_equivalence_at_k_equals_cores() {
        // With k = total cores, the set never overflows: ACKwise behaves
        // as a full-map directory (paper §V-F's endpoint).
        let mut s = SharerSet::one(CoreId(0));
        for i in 1..64u16 {
            assert!(!s.add(CoreId(i), 64));
        }
        assert!(!s.overflowed());
        assert_eq!(s.count(), 64);
    }
}
