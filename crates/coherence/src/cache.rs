//! Set-associative cache arrays with MSI line states and LRU replacement.
//!
//! These are the *functional* cache models (tags + states); timing is
//! applied by the core-side controller and energy by `atac-phys`'s
//! per-access energies multiplied with the access counters in
//! [`crate::stats::CoherenceStats`].

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

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state: LineState,
    /// LRU stamp: larger = more recently used.
    lru: u64,
}

impl Line {
    const EMPTY: Line = Line {
        tag: 0,
        state: LineState::I,
        lru: 0,
    };
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
    line_bytes: u64,
    lines: Vec<Line>, // sets × ways
    tick: u64,
}

impl SetAssocCache {
    /// Build a cache of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines. All three must be powers of two.
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(capacity_bytes.is_power_of_two());
        assert!(line_bytes.is_power_of_two());
        assert!(ways.is_power_of_two());
        #[expect(clippy::cast_possible_truncation, reason = "line count fits usize")]
        let lines_total = (capacity_bytes / line_bytes) as usize;
        assert!(lines_total >= ways, "capacity too small for associativity");
        let sets = lines_total / ways;
        SetAssocCache {
            sets,
            ways,
            line_bytes,
            lines: vec![Line::EMPTY; lines_total],
            tick: 0,
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

    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "mask keeps set-index bits")]
    fn set_of(&self, addr: Addr) -> usize {
        ((addr.line(self.line_bytes) as usize) & (self.sets - 1)) * self.ways
    }

    #[inline]
    fn tag_of(&self, addr: Addr) -> u64 {
        addr.line(self.line_bytes) / self.sets as u64
    }

    /// Current state of `addr` (I if absent). Does not touch LRU.
    pub fn state(&self, addr: Addr) -> LineState {
        let base = self.set_of(addr);
        let tag = self.tag_of(addr);
        for w in 0..self.ways {
            let l = &self.lines[base + w];
            if l.state != LineState::I && l.tag == tag {
                return l.state;
            }
        }
        LineState::I
    }

    /// Look up `addr`, updating LRU on hit. Returns its state.
    pub fn access(&mut self, addr: Addr) -> LineState {
        self.tick += 1;
        let base = self.set_of(addr);
        let tag = self.tag_of(addr);
        for w in 0..self.ways {
            let l = &mut self.lines[base + w];
            if l.state != LineState::I && l.tag == tag {
                l.lru = self.tick;
                return l.state;
            }
        }
        LineState::I
    }

    /// Change the state of a present line; panics if absent (use
    /// [`SetAssocCache::fill`] to insert).
    pub fn set_state(&mut self, addr: Addr, state: LineState) {
        let base = self.set_of(addr);
        let tag = self.tag_of(addr);
        for w in 0..self.ways {
            let l = &mut self.lines[base + w];
            if l.state != LineState::I && l.tag == tag {
                if state == LineState::I {
                    l.state = LineState::I;
                } else {
                    l.state = state;
                }
                return;
            }
        }
        panic!("set_state on absent line {addr:?}");
    }

    /// Invalidate `addr` if present; returns the state it had.
    pub fn invalidate(&mut self, addr: Addr) -> LineState {
        let base = self.set_of(addr);
        let tag = self.tag_of(addr);
        for w in 0..self.ways {
            let l = &mut self.lines[base + w];
            if l.state != LineState::I && l.tag == tag {
                let was = l.state;
                l.state = LineState::I;
                return was;
            }
        }
        LineState::I
    }

    /// Insert `addr` in `state`, evicting the LRU way if the set is full.
    /// Returns what was displaced.
    pub fn fill(&mut self, addr: Addr, state: LineState) -> Victim {
        assert_ne!(state, LineState::I, "cannot fill an invalid line");
        self.tick += 1;
        let base = self.set_of(addr);
        let tag = self.tag_of(addr);
        // Already present: just update.
        for w in 0..self.ways {
            let l = &mut self.lines[base + w];
            if l.state != LineState::I && l.tag == tag {
                l.state = state;
                l.lru = self.tick;
                return Victim::None;
            }
        }
        // Free way?
        for w in 0..self.ways {
            if self.lines[base + w].state == LineState::I {
                self.lines[base + w] = Line {
                    tag,
                    state,
                    lru: self.tick,
                };
                return Victim::None;
            }
        }
        // Evict LRU.
        #[expect(clippy::expect_used, reason = "ways > 0, checked at construction")]
        let w = (0..self.ways)
            .min_by_key(|&w| self.lines[base + w].lru)
            .expect("nonzero ways");
        let victim = &self.lines[base + w];
        let victim_line = victim.tag * self.sets as u64 + (base / self.ways) as u64;
        let victim_addr = Addr(victim_line * self.line_bytes);
        let out = match victim.state {
            LineState::M => Victim::Dirty(victim_addr),
            LineState::S => Victim::CleanShared(victim_addr),
            LineState::I => unreachable!(),
        };
        self.lines[base + w] = Line {
            tag,
            state,
            lru: self.tick,
        };
        out
    }

    /// Iterate over all resident lines as (line address, state).
    pub fn resident(&self) -> impl Iterator<Item = (Addr, LineState)> + '_ {
        self.lines.iter().enumerate().filter_map(move |(i, l)| {
            if l.state == LineState::I {
                None
            } else {
                let set = (i / self.ways) as u64;
                let line = l.tag * self.sets as u64 + set;
                Some((Addr(line * self.line_bytes), l.state))
            }
        })
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
