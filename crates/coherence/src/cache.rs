//! Set-associative cache arrays with MSI line states and LRU replacement.
//!
//! These are the *functional* cache models (tags + states); timing is
//! applied by the core-side controller and energy by `atac-phys`'s
//! per-access energies multiplied with the access counters in
//! [`crate::stats::CoherenceStats`].
//!
//! # Way layout
//!
//! A way is one 8-byte word: the tag in bits 2..64 and the [`LineState`]
//! in bits 0..2 (I = 0, S = 1, M = 2). The paper's 32 KB L1 thus keeps
//! 4 KiB of tag array and its 256 KB L2 32 KiB. The tag is the address
//! with the line-offset and set-index bits shifted out, kept whole:
//! [`SetAssocCache::new`] requires those bits to number at least two, so
//! a tag has at most 62 bits and no two lines alias.
//!
//! Each set keeps its ways in recency order, most recently used first.
//! A hit ([`SetAssocCache::access`]) or a [`SetAssocCache::fill`] rotates
//! its way to the front; a fill takes the matching way, else the first
//! invalid way, and evicts the last way only when the set is full.
//! `state`, `set_state` and `invalidate` leave the order alone. This
//! equals an LRU that stamps every touch from a per-cache tick and evicts
//! the smallest stamp (the test-only `reference` model): the valid ways
//! stand in the order of their last touch, so the last way of a full set
//! is the one with the smallest stamp. Which invalid way a fill reuses is
//! not observable.

// Hot path (atac-audit `HOT_PATH_FILES`): panics and lossy casts need an `#[expect]`.
#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

use crate::addr::Addr;

/// MSI coherence state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Invalid / not present.
    I,
    /// Shared, clean, read-only.
    S,
    /// Modified, exclusive, writable (dirty).
    M,
}

/// One way: `tag << STATE_BITS | state`.
#[derive(Debug, Clone, Copy)]
struct Way(u64);

const _: () = assert!(std::mem::size_of::<Way>() == 8, "a way is one 8-byte word");

impl Way {
    /// Low bits that hold the [`LineState`].
    const STATE_BITS: u32 = 2;
    const STATE_MASK: u64 = (1 << Self::STATE_BITS) - 1;
    const INVALID: Way = Way(0);

    #[inline]
    fn new(tag: u64, state: LineState) -> Way {
        let bits = match state {
            LineState::I => 0,
            LineState::S => 1,
            LineState::M => 2,
        };
        Way(tag << Self::STATE_BITS | bits)
    }

    #[inline]
    fn state(self) -> LineState {
        match self.0 & Self::STATE_MASK {
            0 => LineState::I,
            1 => LineState::S,
            _ => LineState::M, // 3 is never stored
        }
    }

    #[inline]
    fn tag(self) -> u64 {
        self.0 >> Self::STATE_BITS
    }

    /// Valid and tagged `tag`.
    #[inline]
    fn holds(self, tag: u64) -> bool {
        self.0 & Self::STATE_MASK != 0 && self.tag() == tag
    }
}

/// What a fill displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Victim {
    /// An invalid way was used; nothing displaced.
    None,
    /// A clean shared line was displaced.
    CleanShared(Addr),
    /// A modified line was displaced (needs a dirty write-back).
    Dirty(Addr),
}

/// A set-associative cache over line-aligned addresses.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// log2 of the line size: the address bits below the set index.
    line_shift: u32,
    /// log2 of line size × sets: the address bits below the tag.
    tag_shift: u32,
    /// `sets × ways`, each set's ways most recently used first.
    lines: Vec<Way>,
}

impl SetAssocCache {
    /// Build a cache of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines. All three must be powers of two, and line size
    /// × sets at least 4 (so every tag fits its way beside the state).
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(capacity_bytes.is_power_of_two());
        assert!(line_bytes.is_power_of_two());
        assert!(ways.is_power_of_two());
        #[expect(clippy::cast_possible_truncation, reason = "line count fits usize")]
        let lines_total = (capacity_bytes / line_bytes) as usize;
        assert!(lines_total >= ways, "capacity too small for associativity");
        let sets = lines_total / ways;
        let line_shift = line_bytes.trailing_zeros();
        let tag_shift = line_shift + sets.trailing_zeros();
        assert!(
            tag_shift >= Way::STATE_BITS,
            "line size × sets must be at least {}: a way keeps at most {} tag bits",
            1 << Way::STATE_BITS,
            u64::BITS - Way::STATE_BITS
        );
        SetAssocCache {
            sets,
            ways,
            line_shift,
            tag_shift,
            lines: vec![Way::INVALID; lines_total],
        }
    }

    /// The paper's L1 (32 KB, 4-way, 64 B lines).
    pub fn l1() -> Self {
        Self::new(32 * 1024, 4, 64)
    }

    /// The paper's L2 (256 KB, 8-way, 64 B lines).
    pub fn l2() -> Self {
        Self::new(256 * 1024, 8, 64)
    }

    /// Index of `addr`'s set.
    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "mask keeps set-index bits")]
    fn set_of(&self, addr: Addr) -> usize {
        (addr.0 >> self.line_shift) as usize & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: Addr) -> u64 {
        addr.0 >> self.tag_shift
    }

    /// Line-aligned address of the line tagged `tag` in set `set`.
    #[inline]
    fn line_addr(&self, set: usize, tag: u64) -> Addr {
        Addr(tag << self.tag_shift | (set as u64) << self.line_shift)
    }

    /// Set `set`'s ways, most recently used first.
    #[inline]
    fn ways_of(&self, set: usize) -> &[Way] {
        &self.lines[set * self.ways..][..self.ways]
    }

    #[inline]
    fn ways_of_mut(&mut self, set: usize) -> &mut [Way] {
        &mut self.lines[set * self.ways..][..self.ways]
    }

    /// Current state of `addr` (I if absent). Does not touch LRU.
    pub fn state(&self, addr: Addr) -> LineState {
        let tag = self.tag_of(addr);
        self.ways_of(self.set_of(addr))
            .iter()
            .find(|w| w.holds(tag))
            .map_or(LineState::I, |w| w.state())
    }

    /// Look up `addr`, updating LRU on hit. Returns its state.
    pub fn access(&mut self, addr: Addr) -> LineState {
        let tag = self.tag_of(addr);
        let ways = self.ways_of_mut(self.set_of(addr));
        match ways.iter().position(|w| w.holds(tag)) {
            Some(w) => {
                ways[..=w].rotate_right(1);
                ways[0].state()
            }
            None => LineState::I,
        }
    }

    /// Change the state of a present line; panics if absent (use
    /// [`SetAssocCache::fill`] to insert).
    pub fn set_state(&mut self, addr: Addr, state: LineState) {
        let tag = self.tag_of(addr);
        let ways = self.ways_of_mut(self.set_of(addr));
        match ways.iter_mut().find(|w| w.holds(tag)) {
            Some(w) => *w = Way::new(tag, state),
            None => panic!("set_state on absent line {addr:?}"),
        }
    }

    /// Invalidate `addr` if present; returns the state it had.
    pub fn invalidate(&mut self, addr: Addr) -> LineState {
        let tag = self.tag_of(addr);
        let ways = self.ways_of_mut(self.set_of(addr));
        match ways.iter_mut().find(|w| w.holds(tag)) {
            Some(w) => {
                let was = w.state();
                *w = Way::INVALID;
                was
            }
            None => LineState::I,
        }
    }

    /// Insert `addr` in `state`, evicting the LRU way if the set is full.
    /// Returns what was displaced.
    pub fn fill(&mut self, addr: Addr, state: LineState) -> Victim {
        assert_ne!(state, LineState::I, "cannot fill an invalid line");
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.ways_of(set);
        // Already present, else a free way, else evict the last (LRU) way.
        let (w, victim) = if let Some(w) = ways.iter().position(|w| w.holds(tag)) {
            (w, Victim::None)
        } else if let Some(w) = ways.iter().position(|w| w.state() == LineState::I) {
            (w, Victim::None)
        } else {
            let lru = self.ways - 1;
            let old = ways[lru];
            let old_addr = self.line_addr(set, old.tag());
            let victim = match old.state() {
                LineState::M => Victim::Dirty(old_addr),
                LineState::S => Victim::CleanShared(old_addr),
                LineState::I => unreachable!(),
            };
            (lru, victim)
        };
        let ways = self.ways_of_mut(set);
        ways[..=w].rotate_right(1);
        ways[0] = Way::new(tag, state);
        victim
    }

    /// Iterate over all resident lines as (line address, state).
    pub fn resident(&self) -> impl Iterator<Item = (Addr, LineState)> + '_ {
        self.lines
            .chunks_exact(self.ways)
            .enumerate()
            .flat_map(move |(set, ways)| {
                ways.iter()
                    .filter(|w| w.state() != LineState::I)
                    .map(move |w| (self.line_addr(set, w.tag()), w.state()))
            })
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }
}

/// The spec [`SetAssocCache`] is tested against: a stamp LRU, where every
/// way carries a stamp from a per-cache tick and a full set evicts the way
/// with the smallest stamp.
#[cfg(test)]
mod reference {
    use super::{Addr, LineState, Victim};

    #[derive(Clone, Copy)]
    struct Line {
        tag: u64,
        state: LineState,
        /// Larger = more recently used.
        lru: u64,
    }

    pub(super) struct StampLru {
        sets: usize,
        ways: usize,
        line_bytes: u64,
        lines: Vec<Line>,
        tick: u64,
    }

    impl StampLru {
        pub(super) fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
            let lines_total = usize::try_from(capacity_bytes / line_bytes).unwrap();
            let empty = Line {
                tag: 0,
                state: LineState::I,
                lru: 0,
            };
            StampLru {
                sets: lines_total / ways,
                ways,
                line_bytes,
                lines: vec![empty; lines_total],
                tick: 0,
            }
        }

        fn set_of(&self, addr: Addr) -> usize {
            let sets = self.sets as u64;
            usize::try_from(addr.line(self.line_bytes) % sets).unwrap() * self.ways
        }

        fn tag_of(&self, addr: Addr) -> u64 {
            addr.line(self.line_bytes) / self.sets as u64
        }

        fn find(&self, addr: Addr) -> Option<usize> {
            let base = self.set_of(addr);
            let tag = self.tag_of(addr);
            (base..base + self.ways)
                .find(|&i| self.lines[i].state != LineState::I && self.lines[i].tag == tag)
        }

        pub(super) fn state(&self, addr: Addr) -> LineState {
            self.find(addr)
                .map_or(LineState::I, |i| self.lines[i].state)
        }

        pub(super) fn access(&mut self, addr: Addr) -> LineState {
            self.tick += 1;
            match self.find(addr) {
                Some(i) => {
                    self.lines[i].lru = self.tick;
                    self.lines[i].state
                }
                None => LineState::I,
            }
        }

        pub(super) fn set_state(&mut self, addr: Addr, state: LineState) {
            let i = self.find(addr).expect("set_state on absent line");
            self.lines[i].state = state;
        }

        pub(super) fn invalidate(&mut self, addr: Addr) -> LineState {
            match self.find(addr) {
                Some(i) => std::mem::replace(&mut self.lines[i].state, LineState::I),
                None => LineState::I,
            }
        }

        pub(super) fn fill(&mut self, addr: Addr, state: LineState) -> Victim {
            self.tick += 1;
            let base = self.set_of(addr);
            let line = Line {
                tag: self.tag_of(addr),
                state,
                lru: self.tick,
            };
            if let Some(i) = self.find(addr) {
                self.lines[i] = line;
                return Victim::None;
            }
            let set = base..base + self.ways;
            if let Some(i) = set.clone().find(|&i| self.lines[i].state == LineState::I) {
                self.lines[i] = line;
                return Victim::None;
            }
            let i = set.min_by_key(|&i| self.lines[i].lru).unwrap();
            let old = self.lines[i];
            let old_line = old.tag * self.sets as u64 + (base / self.ways) as u64;
            let old_addr = Addr(old_line * self.line_bytes);
            self.lines[i] = line;
            match old.state {
                LineState::M => Victim::Dirty(old_addr),
                LineState::S => Victim::CleanShared(old_addr),
                LineState::I => unreachable!(),
            }
        }

        pub(super) fn resident(&self) -> impl Iterator<Item = (Addr, LineState)> + '_ {
            self.lines.iter().enumerate().filter_map(move |(i, l)| {
                let set = (i / self.ways) as u64;
                let line = l.tag * self.sets as u64 + set;
                (l.state != LineState::I).then_some((Addr(line * self.line_bytes), l.state))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = SetAssocCache::l1();
        let a = Addr(0x1000);
        assert_eq!(c.access(a), LineState::I);
        assert_eq!(c.fill(a, LineState::S), Victim::None);
        assert_eq!(c.access(a), LineState::S);
        // Same line, different byte.
        assert_eq!(c.access(Addr(0x1030)), LineState::S);
        // Different line.
        assert_eq!(c.access(Addr(0x1040)), LineState::I);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 4-way: fill 5 lines mapping to the same set.
        let mut c = SetAssocCache::new(1024, 4, 64); // 4 sets
        let stride = 4 * 64; // same set every 256 bytes
        for i in 0..4u64 {
            assert_eq!(c.fill(Addr(i * stride), LineState::S), Victim::None);
        }
        // Touch line 0 to make line 1 the LRU.
        c.access(Addr(0));
        let v = c.fill(Addr(4 * stride), LineState::S);
        assert_eq!(v, Victim::CleanShared(Addr(stride)));
        assert_eq!(c.state(Addr(0)), LineState::S);
        assert_eq!(c.state(Addr(stride)), LineState::I);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = SetAssocCache::new(256, 2, 64); // 2 sets, 2 ways
        let stride = 2 * 64;
        c.fill(Addr(0), LineState::M);
        c.fill(Addr(stride), LineState::S);
        let v = c.fill(Addr(2 * stride), LineState::S);
        assert_eq!(v, Victim::Dirty(Addr(0)));
    }

    #[test]
    fn invalidate_returns_prior_state() {
        let mut c = SetAssocCache::l2();
        let a = Addr(0x00de_adbe_efc0);
        c.fill(a, LineState::M);
        assert_eq!(c.invalidate(a), LineState::M);
        assert_eq!(c.invalidate(a), LineState::I);
        assert_eq!(c.state(a), LineState::I);
    }

    #[test]
    fn fill_existing_updates_state() {
        let mut c = SetAssocCache::l2();
        let a = Addr(0x40);
        c.fill(a, LineState::S);
        assert_eq!(c.fill(a, LineState::M), Victim::None);
        assert_eq!(c.state(a), LineState::M);
    }

    #[test]
    fn resident_roundtrips_addresses() {
        let mut c = SetAssocCache::l2();
        let addrs = [
            Addr(0x0),
            Addr(0x1000),
            Addr(0x07ff_ffc0),
            Addr(0x0001_2345_00c0),
            Addr(u64::MAX),
        ];
        for (i, &a) in addrs.iter().enumerate() {
            c.fill(
                a,
                if i % 2 == 0 {
                    LineState::S
                } else {
                    LineState::M
                },
            );
        }
        let mut got: Vec<_> = c.resident().map(|(a, _)| a.line_addr(64)).collect();
        got.sort_unstable();
        let mut want: Vec<_> = addrs.iter().map(|a| a.line_addr(64)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn set_state_transitions() {
        let mut c = SetAssocCache::l1();
        let a = Addr(0x80);
        c.fill(a, LineState::S);
        c.set_state(a, LineState::M);
        assert_eq!(c.state(a), LineState::M);
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn set_state_on_absent_panics() {
        let mut c = SetAssocCache::l1();
        c.set_state(Addr(0x80), LineState::M);
    }

    #[test]
    fn paper_geometries() {
        // 32 KB 4-way 64 B → 128 sets; 256 KB 8-way 64 B → 512 sets.
        let l1 = SetAssocCache::l1();
        let l2 = SetAssocCache::l2();
        assert_eq!(l1.sets, 128);
        assert_eq!(l2.sets, 512);
        // One 8-byte way per line: 4 KiB and 32 KiB of tag array.
        assert_eq!(std::mem::size_of_val(l1.lines.as_slice()), 4 * 1024);
        assert_eq!(std::mem::size_of_val(l2.lines.as_slice()), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tags_that_cannot_fit_are_rejected() {
        // 1-byte lines, one set: a tag would need all 64 address bits.
        SetAssocCache::new(2, 2, 1);
    }

    #[test]
    fn full_width_tags_never_alias() {
        // One set of 1 way and 4-byte lines: the tag is 62 bits wide.
        let mut c = SetAssocCache::new(4, 1, 4);
        c.fill(Addr(u64::MAX), LineState::M);
        assert_eq!(c.state(Addr(u64::MAX >> 1)), LineState::I);
        assert_eq!(
            c.fill(Addr(0), LineState::S),
            Victim::Dirty(Addr(u64::MAX - 3))
        );
    }

    /// Drive the cache and the stamp-LRU spec with one seeded random
    /// stream of every operation: each step must return the same value,
    /// and leave both holding the same lines in the same states.
    fn lock_step(ways: usize, sets: usize, seed: u64) {
        let ctx = format!("{ways} ways, {sets} sets, seed {seed}");
        let states = [LineState::I, LineState::S, LineState::M];
        let mut rng = SmallRng::seed_from_u64(seed << 16 | (ways * 64 + sets) as u64);
        let capacity = (sets * ways * 64) as u64;
        let mut cache = SetAssocCache::new(capacity, ways, 64);
        let mut spec = reference::StampLru::new(capacity, ways, 64);
        // Twice as many lines as ways, so every set thrashes; every other
        // line has random high bits, to exercise full-width tags.
        let pool: Vec<u64> = (0..2 * sets * ways)
            .map(|i| {
                if i % 2 == 0 {
                    i as u64
                } else {
                    rng.next_u64() >> 6
                }
            })
            .map(|line| line * 64)
            .collect();
        for step in 0..1_500 {
            let a = Addr(pool[rng.gen_range(0..pool.len())] + rng.gen_range(0..64u64));
            let st = states[rng.gen_range(1..3usize)];
            match rng.gen_range(0..5u8) {
                0 => assert_eq!(cache.access(a), spec.access(a), "{ctx} step {step}"),
                1 => assert_eq!(cache.state(a), spec.state(a), "{ctx} step {step}"),
                2 => assert_eq!(cache.fill(a, st), spec.fill(a, st), "{ctx} step {step}"),
                3 => assert_eq!(cache.invalidate(a), spec.invalidate(a), "{ctx} step {step}"),
                _ => {
                    if spec.state(a) != LineState::I {
                        let st = states[rng.gen_range(0..3usize)];
                        cache.set_state(a, st);
                        spec.set_state(a, st);
                    }
                }
            }
            let key = |&(a, s): &(Addr, LineState)| (a, s as u8);
            let mut got: Vec<_> = cache.resident().collect();
            let mut want: Vec<_> = spec.resident().collect();
            got.sort_unstable_by_key(key);
            want.sort_unstable_by_key(key);
            assert_eq!(got, want, "{ctx} step {step}");
        }
    }

    #[test]
    fn lock_step_with_stamp_lru_reference() {
        for ways in [1, 2, 4, 8, 16] {
            for sets in [1, 2, 4, 8] {
                for seed in 0..4 {
                    lock_step(ways, sets, seed);
                }
            }
        }
    }
}
