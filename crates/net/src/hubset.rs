//! Hub-indexed occupancy sets.
//!
//! Every cluster owns one ONet hub (an SWMR link, a receive hub and an
//! ENet ejection buffer) and one memory controller, yet on any cycle only
//! a few of them hold work. A [`HubSet`] keeps one bit per hub, set
//! exactly while that hub's component holds work, so the per-cycle passes
//! visit the busy hubs alone, in ascending hub order — the order of a
//! full `0..clusters` sweep (DESIGN.md §14, "Hub-indexed sets").

// Hot path (atac-audit `HOT_PATH_FILES`): panics and lossy casts need an `#[expect]`.
#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

/// A set of hub indices in `0..hubs`, one bit per hub.
#[derive(Debug)]
pub struct HubSet {
    words: Vec<u64>,
}

impl HubSet {
    /// An empty set over hubs `0..hubs`.
    pub fn new(hubs: usize) -> Self {
        HubSet {
            words: vec![0; hubs.div_ceil(64)],
        }
    }

    /// Add `hub` (a no-op if present).
    #[inline]
    pub fn insert(&mut self, hub: usize) {
        self.words[hub >> 6] |= 1u64 << (hub & 63);
    }

    /// Drop `hub` (a no-op if absent).
    #[inline]
    pub fn remove(&mut self, hub: usize) {
        self.words[hub >> 6] &= !(1u64 << (hub & 63));
    }

    /// Whether `hub` is in the set.
    #[inline]
    pub fn contains(&self, hub: usize) -> bool {
        self.words[hub >> 6] & (1u64 << (hub & 63)) != 0
    }

    /// Whether no hub is in the set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Start an ascending walk over the set (see [`HubWalk`]).
    #[inline]
    pub fn walk(&self) -> HubWalk {
        HubWalk {
            next_word: 0,
            base: 0,
            bits: 0,
        }
    }

    /// The hubs in ascending order, for passes that leave the set alone.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut walk = self.walk();
        std::iter::from_fn(move || walk.next(self))
    }
}

/// An ascending walk over a [`HubSet`] that holds no borrow of it, so the
/// caller may change the set between steps.
///
/// Each word is read once, when the walk reaches it. A pass whose handling
/// of hub `h` inserts or removes only `h` itself therefore visits exactly
/// the hubs in the set when the pass began: `h`'s word was read before `h`
/// was handled, and no later word has changed since the pass began.
#[derive(Debug)]
pub struct HubWalk {
    /// Index of the next word to read.
    next_word: usize,
    /// Hub index of bit 0 of `bits`.
    base: usize,
    /// Bits of the current word not yet visited.
    bits: u64,
}

impl HubWalk {
    /// The next hub of the walk over `set`, or `None` past the last.
    #[inline]
    pub fn next(&mut self, set: &HubSet) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *set.words.get(self.next_word)?;
            self.base = self.next_word << 6;
            self.next_word += 1;
        }
        let hub = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(hub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_ascending_across_words() {
        let mut s = HubSet::new(256);
        assert!(s.is_empty());
        for h in [255, 3, 64, 0, 130, 63] {
            s.insert(h);
        }
        s.insert(3); // idempotent
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 3, 63, 64, 130, 255]);
        s.remove(64);
        s.remove(64); // idempotent
        assert!(!s.contains(64) && s.contains(130));
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 3, 63, 130, 255]);
        for h in [0, 3, 63, 130, 255] {
            s.remove(h);
        }
        assert!(s.is_empty());
        assert_eq!(s.iter().next(), None);
    }

    #[test]
    fn walk_sees_the_set_as_the_pass_began() {
        // Removing the hub being handled, as every pass does, neither
        // skips nor repeats a hub; nor does re-inserting it.
        let mut s = HubSet::new(130);
        for h in [1, 2, 64, 129] {
            s.insert(h);
        }
        let mut seen = Vec::new();
        let mut walk = s.walk();
        while let Some(h) = walk.next(&s) {
            seen.push(h);
            s.remove(h);
            if h == 64 {
                s.insert(h);
            }
        }
        assert_eq!(seen, [1, 2, 64, 129]);
        assert_eq!(s.iter().collect::<Vec<_>>(), [64]);
    }

    #[test]
    fn sizes_to_the_hub_count() {
        assert_eq!(HubSet::new(4).words.len(), 1);
        assert_eq!(HubSet::new(64).words.len(), 1);
        assert_eq!(HubSet::new(65).words.len(), 2);
        assert_eq!(HubSet::new(256).words.len(), 4);
    }
}
