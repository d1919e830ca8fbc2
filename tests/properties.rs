//! Randomized property tests on the core data structures and protocol
//! invariants.
//!
//! Formerly `proptest`-based; now driven by explicit seeded loops over
//! the in-tree PRNG so the workspace builds offline with no external
//! crates. Coverage is equivalent: each property runs against many
//! deterministic seeds, and a failure message names the seed, which
//! reproduces the case exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use atac::coherence::{Addr, LineState, MemorySystem, ProtocolKind, SetAssocCache};
use atac::net::{AtacNet, CoreId, Delivery, Dest, Message, MessageClass, Network, Topology};
use atac::phys::units::Decibels;

// ----------------------------------------------------------------------
// Cache vs reference model
// ----------------------------------------------------------------------

/// A trivially-correct reference for a set-associative LRU cache.
struct RefCache {
    sets: u64,
    ways: usize,
    line: u64,
    // per set: (tag, state), most-recent last
    content: std::collections::BTreeMap<u64, Vec<(u64, LineState)>>,
}

impl RefCache {
    fn new(capacity: u64, ways: usize, line: u64) -> Self {
        RefCache {
            sets: capacity / line / ways as u64,
            ways,
            line,
            content: Default::default(),
        }
    }
    fn set_tag(&self, a: u64) -> (u64, u64) {
        let l = a / self.line;
        (l % self.sets, l / self.sets)
    }
    fn access(&mut self, a: u64) -> LineState {
        let (s, t) = self.set_tag(a);
        let set = self.content.entry(s).or_default();
        if let Some(pos) = set.iter().position(|&(tag, _)| tag == t) {
            let e = set.remove(pos);
            set.push(e);
            e.1
        } else {
            LineState::I
        }
    }
    fn fill(&mut self, a: u64, st: LineState) {
        let (s, t) = self.set_tag(a);
        let ways = self.ways;
        let set = self.content.entry(s).or_default();
        if let Some(pos) = set.iter().position(|&(tag, _)| tag == t) {
            set.remove(pos);
        } else if set.len() == ways {
            set.remove(0); // LRU
        }
        set.push((t, st));
    }
    fn invalidate(&mut self, a: u64) {
        let (s, t) = self.set_tag(a);
        if let Some(set) = self.content.get_mut(&s) {
            set.retain(|&(tag, _)| tag != t);
        }
    }
}

/// The production cache agrees with the reference model on every access
/// outcome under arbitrary operation sequences.
#[test]
fn cache_matches_reference() {
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut real = SetAssocCache::new(4096, 4, 64); // tiny: evicts often
        let mut reference = RefCache::new(4096, 4, 64);
        let ops = rng.gen_range(1..400usize);
        for _ in 0..ops {
            let slot = rng.gen_range(0..2048u64);
            let a = Addr(slot * 64);
            match rng.gen_range(0..3u8) {
                0 => {
                    assert_eq!(real.access(a), reference.access(a.0), "seed {seed}");
                }
                1 => {
                    let st = if slot % 2 == 0 {
                        LineState::S
                    } else {
                        LineState::M
                    };
                    real.fill(a, st);
                    reference.fill(a.0, st);
                }
                _ => {
                    real.invalidate(a);
                    reference.invalidate(a.0);
                }
            }
        }
    }
}

/// Decibel ↔ linear conversion roundtrips across the usable range.
#[test]
fn decibel_roundtrip() {
    for i in 0..=600 {
        let db = f64::from(i) * 0.1;
        let lin = Decibels(db).linear_factor();
        let back = Decibels::from_linear(lin).value();
        assert!((back - db).abs() < 1e-9, "db {db}: back {back}");
    }
}

/// seq_newer is an antisymmetric strict order on nearby values
/// (wrap-around safe).
#[test]
fn seq_newer_is_antisymmetric() {
    use atac::coherence::system::seq_newer;
    let mut rng = SmallRng::seed_from_u64(0x5EC_0001);
    for _ in 0..2_000 {
        let base = u16::try_from(rng.gen_range(0..65_536u32)).unwrap();
        let delta = rng.gen_range(1..1000u16);
        let a = base.wrapping_add(delta);
        assert!(seq_newer(a, base));
        assert!(!seq_newer(base, a));
        assert!(!seq_newer(base, base));
    }
}

/// Every message injected into every network is delivered the right
/// number of times (unicast once, broadcast cores−1), under random
/// traffic with back-pressure.
#[test]
fn network_conservation() {
    for seed in 0..24u64 {
        let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let topo = Topology::small(8, 4);
        let mut net = AtacNet::atac_plus(topo);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sent_u = 0u64;
        let mut sent_b = 0u64;
        let mut out: Vec<Delivery> = Vec::new();
        for now in 0..400u64 {
            for c in 0..64u16 {
                if rng.gen_bool(0.02) {
                    let dest = if rng.gen_bool(0.02) {
                        Dest::Broadcast
                    } else {
                        Dest::Unicast(CoreId(rng.gen_range(0..64)))
                    };
                    let m = Message {
                        src: CoreId(c),
                        dest,
                        class: MessageClass::Control,
                        token: 0,
                    };
                    if net.try_send(m, now) {
                        match dest {
                            Dest::Unicast(_) => sent_u += 1,
                            Dest::Broadcast => sent_b += 1,
                        }
                    }
                }
            }
            net.tick(now);
            net.drain_deliveries(&mut out);
        }
        let mut now = 400;
        while !net.is_idle() {
            net.tick(now);
            net.drain_deliveries(&mut out);
            now += 1;
            assert!(now < 1_000_000, "network failed to drain (seed {seed})");
        }
        assert_eq!(out.len() as u64, sent_u + sent_b * 63, "seed {seed}");
    }
}

/// The coherence protocol reaches quiescence with its invariants intact
/// under arbitrary small workloads (single-writer, directory accuracy)
/// — the protocol-level safety net.
#[test]
fn protocol_invariants_under_random_workloads() {
    for case in 0..10u64 {
        let seed = case.wrapping_mul(0xA7AC_0001);
        // Sweep the write fraction across cases: 0.0, ~0.11, …, 1.0.
        let writes = f64::from(u32::try_from(case).unwrap()) / 9.0;
        let topo = Topology::small(8, 4);
        let mut net = AtacNet::atac_plus(topo);
        let mut ms = MemorySystem::new(topo, ProtocolKind::AckWise { k: 4 });
        let mut rng = SmallRng::seed_from_u64(seed);
        // 16 hot lines + a few private lines per core.
        let scripts: Vec<Vec<(Addr, bool)>> = (0..64)
            .map(|c| {
                (0..20)
                    .map(|_| {
                        let a = if rng.gen_bool(0.7) {
                            Addr(rng.gen_range(0..16u64) * 64)
                        } else {
                            Addr(0x100_0000 + c as u64 * 4096 + rng.gen_range(0..4u64) * 64)
                        };
                        (a, rng.gen_bool(writes))
                    })
                    .collect()
            })
            .collect();
        let mut pc = vec![0usize; 64];
        let mut blocked = [false; 64];
        let mut deliveries = Vec::new();
        let mut done_cores = Vec::new();
        let mut now = 0u64;
        loop {
            for c in 0..64usize {
                if blocked[c] {
                    continue;
                }
                if let Some(&(a, w)) = scripts[c].get(pc[c]) {
                    pc[c] += 1;
                    if matches!(
                        ms.access(CoreId(c as u16), a, w),
                        atac::coherence::AccessResult::Miss
                    ) {
                        blocked[c] = true;
                    }
                }
            }
            ms.flush_outbox(&mut net, now);
            net.tick(now);
            net.drain_deliveries(&mut deliveries);
            for d in deliveries.drain(..) {
                ms.handle_delivery(&d, now);
            }
            ms.memctrl_tick(now);
            ms.drain_completions(&mut done_cores);
            for c in done_cores.drain(..) {
                blocked[c.idx()] = false;
            }
            now += 1;
            let finished =
                pc.iter().zip(&scripts).all(|(p, s)| *p >= s.len()) && !blocked.iter().any(|&b| b);
            if finished && ms.is_quiescent() && net.is_idle() {
                break;
            }
            assert!(now < 3_000_000, "did not quiesce (seed {seed})");
        }
        ms.check_invariants(true);
    }
}

#[test]
fn reference_cache_helper_sane() {
    let mut r = RefCache::new(4096, 4, 64);
    assert_eq!(r.access(0), LineState::I);
    r.fill(0, LineState::S);
    assert_eq!(r.access(0), LineState::S);
    r.invalidate(0);
    assert_eq!(r.access(0), LineState::I);
}
