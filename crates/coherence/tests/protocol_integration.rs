//! Integration tests: the coherence engine over real simulated networks.
//!
//! Every test drives `MemorySystem` + an `atac_net` network to
//! quiescence and checks the coherence invariants (single writer,
//! directory accuracy). The stress tests run randomized multi-core
//! workloads over the ATAC+ network with distance-based routing — the
//! configuration whose broadcast/unicast route split makes the §IV-C-1
//! sequence-number machinery load-bearing.

use atac_coherence::{AccessResult, Addr, LineState, MemorySystem, ProtocolKind};
use atac_net::{
    AtacNet, CoreId, Cycle, Delivery, Mesh, MeshKind, Network, ReceiveNet, RoutingPolicy, Topology,
};

const TOPO_SIDE: u16 = 8; // 64 cores, 4 clusters — fast but real

fn topo() -> Topology {
    Topology::small(TOPO_SIDE, 4)
}

/// A tiny driver: per-core scripts of (addr, is_write), issued in order,
/// blocking on misses — the in-order-core contract.
struct Driver {
    ms: MemorySystem,
    net: Box<dyn Network>,
    scripts: Vec<Vec<(Addr, bool)>>,
    pc: Vec<usize>,
    blocked: Vec<bool>,
    now: Cycle,
    /// Most directory requests seen queued at one invariant check.
    peak_queued: usize,
}

impl Driver {
    fn new(net: Box<dyn Network>, protocol: ProtocolKind, scripts: Vec<Vec<(Addr, bool)>>) -> Self {
        let n = net.cores();
        let mut scripts = scripts;
        scripts.resize(n, Vec::new());
        Driver {
            ms: MemorySystem::new(topo(), protocol),
            net,
            scripts,
            pc: vec![0; n],
            blocked: vec![false; n],
            now: 0,
            peak_queued: 0,
        }
    }

    /// Run until every script is finished and the system is quiescent.
    fn run(&mut self) {
        let mut deliveries: Vec<Delivery> = Vec::new();
        let mut completed: Vec<CoreId> = Vec::new();
        let max = 2_000_000;
        loop {
            // Issue new operations for unblocked cores.
            for c in 0..self.scripts.len() {
                if self.blocked[c] {
                    continue;
                }
                // issue at most one op per cycle per core
                if let Some(&(addr, w)) = self.scripts[c].get(self.pc[c]) {
                    match self.ms.access(CoreId(c as u16), addr, w) {
                        AccessResult::Hit(_) => {
                            self.pc[c] += 1;
                        }
                        AccessResult::Miss => {
                            self.pc[c] += 1;
                            self.blocked[c] = true;
                        }
                    }
                }
            }
            self.ms.flush_outbox(self.net.as_mut(), self.now);
            self.net.tick(self.now);
            self.net.drain_deliveries(&mut deliveries);
            for d in deliveries.drain(..) {
                self.ms.handle_delivery(&d, self.now);
            }
            self.ms.memctrl_tick(self.now);
            self.ms.drain_completions(&mut completed);
            for c in completed.drain(..) {
                self.blocked[c.idx()] = false;
            }
            // Single-writer invariant must hold at *every* cycle.
            if self.now.is_multiple_of(64) {
                self.ms.check_invariants(false);
                self.peak_queued = self.peak_queued.max(self.ms.queued_requests());
            }
            self.now += 1;
            let done = self
                .pc
                .iter()
                .zip(&self.scripts)
                .all(|(p, s)| *p >= s.len())
                && !self.blocked.iter().any(|&b| b);
            if done && self.ms.is_quiescent() && self.net.is_idle() {
                break;
            }
            assert!(self.now < max, "protocol did not quiesce in {max} cycles");
        }
        self.ms.check_invariants(true);
    }
}

fn atac_net() -> Box<dyn Network> {
    Box::new(AtacNet::new(
        topo(),
        64,
        4,
        RoutingPolicy::Distance(5),
        ReceiveNet::StarNet,
    ))
}

fn ackwise4() -> ProtocolKind {
    ProtocolKind::AckWise { k: 4 }
}

#[test]
fn single_read_fetches_from_memory() {
    let scripts = vec![vec![(Addr(0x4000), false)]];
    let mut d = Driver::new(atac_net(), ackwise4(), scripts);
    d.run();
    assert_eq!(d.ms.l2_state(CoreId(0), Addr(0x4000)), LineState::S);
    assert_eq!(d.ms.stats.mem_reads, 1);
    assert_eq!(d.ms.stats.l2_misses, 1);
}

#[test]
fn read_then_write_upgrades() {
    let scripts = vec![vec![(Addr(0x4000), false), (Addr(0x4000), true)]];
    let mut d = Driver::new(atac_net(), ackwise4(), scripts);
    d.run();
    assert_eq!(d.ms.l2_state(CoreId(0), Addr(0x4000)), LineState::M);
    assert_eq!(d.ms.stats.upgrades, 1);
    // sole sharer: no invalidations at all
    assert_eq!(d.ms.stats.inv_unicasts, 0);
    assert_eq!(d.ms.stats.inv_broadcasts, 0);
}

#[test]
fn writer_invalidates_readers_with_unicasts() {
    let a = Addr(0x8000);
    let mut scripts = vec![Vec::new(); 4];
    scripts[1] = vec![(a, false)];
    scripts[2] = vec![(a, false)];
    scripts[3] = vec![(a, false)];
    let mut d = Driver::new(atac_net(), ackwise4(), scripts);
    d.run();
    // Now core 0 writes.
    let mut d2 = Driver {
        scripts: {
            let mut s = vec![Vec::new(); 64];
            s[0] = vec![(a, true)];
            s
        },
        pc: vec![0; 64],
        blocked: vec![false; 64],
        ..d
    };
    d2.run();
    assert_eq!(d2.ms.l2_state(CoreId(0), a), LineState::M);
    for c in 1..4u16 {
        assert_eq!(d2.ms.l2_state(CoreId(c), a), LineState::I);
    }
    assert_eq!(d2.ms.stats.inv_unicasts, 3, "3 sharers fit in k=4 pointers");
    assert_eq!(d2.ms.stats.inv_broadcasts, 0);
    assert_eq!(d2.ms.stats.inv_acks, 3);
}

#[test]
fn sharer_overflow_triggers_broadcast() {
    let a = Addr(0x8000);
    // 6 readers overflow k=4, then a writer.
    let mut scripts = vec![Vec::new(); 8];
    for s in &mut scripts[1..7] {
        *s = vec![(a, false)];
    }
    let mut d = Driver::new(atac_net(), ackwise4(), scripts);
    d.run();
    assert_eq!(d.ms.stats.sharer_overflows, 1);

    let mut s = vec![Vec::new(); 64];
    s[0] = vec![(a, true)];
    let mut d2 = Driver {
        scripts: s,
        pc: vec![0; 64],
        blocked: vec![false; 64],
        ..d
    };
    d2.run();
    assert_eq!(d2.ms.stats.inv_broadcasts, 1);
    // ACKwise: only the 6 actual sharers acked (modulo the home's own
    // inline copy, which doesn't travel the network).
    assert!(d2.ms.stats.inv_acks <= 6);
    assert!(d2.ms.stats.inv_acks >= 5);
    assert_eq!(d2.ms.l2_state(CoreId(0), a), LineState::M);
}

#[test]
fn dirkb_broadcast_collects_acks_from_everyone() {
    let a = Addr(0x8000);
    let mut scripts = vec![Vec::new(); 8];
    for s in &mut scripts[1..7] {
        *s = vec![(a, false)];
    }
    let proto = ProtocolKind::DirB { k: 4 };
    let mut d = Driver::new(atac_net(), proto, scripts);
    d.run();
    let mut s = vec![Vec::new(); 64];
    s[0] = vec![(a, true)];
    let mut d2 = Driver {
        scripts: s,
        pc: vec![0; 64],
        blocked: vec![false; 64],
        ..d
    };
    d2.run();
    assert_eq!(d2.ms.stats.inv_broadcasts, 1);
    // Dir_kB: every core acknowledges (the home's own ack via loopback).
    assert_eq!(d2.ms.stats.inv_acks, 64);
}

#[test]
fn write_then_remote_read_writes_back() {
    let a = Addr(0xC0DE00);
    let mut scripts = vec![Vec::new(); 2];
    scripts[0] = vec![(a, true)];
    let mut d = Driver::new(atac_net(), ackwise4(), scripts);
    d.run();
    let mut s = vec![Vec::new(); 64];
    s[1] = vec![(a, false)];
    let mut d2 = Driver {
        scripts: s,
        pc: vec![0; 64],
        blocked: vec![false; 64],
        ..d
    };
    d2.run();
    // Owner demoted to S, reader has S, memory got the writeback.
    assert_eq!(d2.ms.l2_state(CoreId(0), a), LineState::S);
    assert_eq!(d2.ms.l2_state(CoreId(1), a), LineState::S);
    assert!(d2.ms.stats.mem_writes >= 1);
}

#[test]
fn write_then_remote_write_flushes() {
    let a = Addr(0xC0DE00);
    let mut scripts = vec![Vec::new(); 2];
    scripts[0] = vec![(a, true)];
    let mut d = Driver::new(atac_net(), ackwise4(), scripts);
    d.run();
    let mut s = vec![Vec::new(); 64];
    s[1] = vec![(a, true)];
    let mut d2 = Driver {
        scripts: s,
        pc: vec![0; 64],
        blocked: vec![false; 64],
        ..d
    };
    d2.run();
    assert_eq!(d2.ms.l2_state(CoreId(0), a), LineState::I);
    assert_eq!(d2.ms.l2_state(CoreId(1), a), LineState::M);
}

#[test]
fn capacity_evictions_keep_directory_exact() {
    // Walk far more lines than one L2 way-set can hold so clean
    // evictions stream to the directory (ACKwise has no silent drops).
    let mut script = Vec::new();
    for i in 0..3000u64 {
        script.push((Addr(i * 64), false));
    }
    let scripts = vec![script];
    let mut d = Driver::new(atac_net(), ackwise4(), scripts);
    d.run();
    assert!(d.ms.stats.evictions_clean > 0 || d.ms.stats.l2_misses == 3000);
    // run() checked ACKwise sharer-count accuracy at quiescence.
}

#[test]
fn dirty_evictions_reach_memory() {
    let mut script = Vec::new();
    // Write many lines mapping across the cache, forcing dirty victims.
    for i in 0..8000u64 {
        script.push((Addr(i * 64), true));
    }
    let scripts = vec![script];
    let mut d = Driver::new(atac_net(), ackwise4(), scripts);
    d.run();
    assert!(d.ms.stats.evictions_dirty > 0);
    assert!(d.ms.stats.mem_writes >= d.ms.stats.evictions_dirty);
}

#[test]
fn false_sharing_ping_pong() {
    // Two cores alternately writing the same line: each write flushes
    // the other's copy.
    let a = Addr(0x5000);
    let mut scripts = vec![Vec::new(); 2];
    scripts[0] = (0..10).map(|_| (a, true)).collect();
    scripts[1] = (0..10).map(|_| (a, true)).collect();
    let mut d = Driver::new(atac_net(), ackwise4(), scripts);
    d.run();
    // exactly one final owner
    let owners = (0..64u16)
        .filter(|&c| d.ms.l2_state(CoreId(c), a) == LineState::M)
        .count();
    assert_eq!(owners, 1);
}

fn stress(net: Box<dyn Network>, protocol: ProtocolKind, seed: u64, ops: usize) -> Driver {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = 64;
    // Shared region of 64 lines (hot, conflict-heavy) + private regions.
    let scripts: Vec<Vec<(Addr, bool)>> = (0..n)
        .map(|c| {
            (0..ops)
                .map(|_| {
                    let shared = rng.gen_bool(0.6);
                    let addr = if shared {
                        Addr(rng.gen_range(0..64u64) * 64)
                    } else {
                        Addr(0x10_0000 + (c as u64) * 0x1_0000 + rng.gen_range(0..128u64) * 64)
                    };
                    (addr, rng.gen_bool(0.3))
                })
                .collect()
        })
        .collect();
    let mut d = Driver::new(net, protocol, scripts);
    d.run();
    d
}

#[test]
fn stress_ackwise_on_atac_plus() {
    let d = stress(atac_net(), ackwise4(), 1234, 60);
    let ms = &d.ms;
    // broadcasts should have happened (60 % of traffic on 64 hot lines
    // with 64 cores overflows k=4 constantly)
    assert!(
        ms.stats.inv_broadcasts > 0,
        "stress must exercise broadcasts"
    );
    assert!(ms.stats.inv_unicasts > 0);
    // ...and requests queued behind in-flight transactions while the
    // invariant check that guards the queue was running.
    assert!(d.peak_queued > 0, "no directory request ever queued");
}

#[test]
fn stress_ackwise_on_emesh_bcast() {
    let net: Box<dyn Network> = Box::new(Mesh::new(topo(), MeshKind::BcastTree, 64, 4));
    let ms = stress(net, ackwise4(), 99, 60).ms;
    assert!(ms.stats.inv_broadcasts > 0);
}

#[test]
fn stress_ackwise_on_emesh_pure() {
    let net: Box<dyn Network> = Box::new(Mesh::new(topo(), MeshKind::Pure, 64, 4));
    let ms = stress(net, ackwise4(), 7, 40).ms;
    assert!(ms.stats.inv_broadcasts > 0);
}

#[test]
fn stress_dirkb_on_atac_plus() {
    let ms = stress(atac_net(), ProtocolKind::DirB { k: 4 }, 31, 60).ms;
    assert!(ms.stats.inv_broadcasts > 0);
    // Dir_kB never sends clean-eviction notifications.
    assert_eq!(ms.stats.evictions_clean, 0);
}

#[test]
fn dirkb_capacity_evictions_are_silent() {
    // Stream far more clean lines than the L2 holds: Dir_kB drops them
    // silently (no Evict messages), unlike ACKwise.
    let mut script = Vec::new();
    for i in 0..6000u64 {
        script.push((Addr(i * 64), false));
    }
    let mut d = Driver::new(atac_net(), ProtocolKind::DirB { k: 4 }, vec![script]);
    d.run();
    assert!(d.ms.stats.evictions_silent > 0);
    assert_eq!(d.ms.stats.evictions_clean, 0);
}

#[test]
fn stress_full_map_never_broadcasts() {
    // k = cores: ACKwise behaves as full-map (paper §V-F endpoint).
    let ms = stress(atac_net(), ProtocolKind::AckWise { k: 64 }, 5, 50).ms;
    assert_eq!(ms.stats.inv_broadcasts, 0);
    assert!(ms.stats.inv_unicasts > 0);
}

#[test]
fn stress_exercises_sequence_machinery() {
    // Cluster routing (all inter-cluster unicasts optical, broadcasts
    // optical too, but intra-cluster electrical) plus heavy sharing:
    // run several seeds and require that the seq logic fired at least
    // once overall — out-of-order arrivals are timing-dependent.
    let mut buffered = 0;
    for seed in 0..4 {
        let net: Box<dyn Network> = Box::new(AtacNet::new(
            topo(),
            64,
            4,
            RoutingPolicy::Distance(5),
            ReceiveNet::StarNet,
        ));
        let ms = stress(net, ackwise4(), 4000 + seed, 50).ms;
        buffered += ms.stats.seq_buffered_unicasts
            + ms.stats.seq_buffered_broadcasts
            + ms.stats.seq_dropped_broadcasts;
    }
    assert!(
        buffered > 0,
        "the §IV-C-1 reordering machinery never fired across 4 seeds"
    );
}

#[test]
fn determinism_across_runs() {
    let run = || {
        let ms = stress(atac_net(), ackwise4(), 42, 40).ms;
        (
            ms.stats.inv_broadcasts,
            ms.stats.inv_unicasts,
            ms.stats.mem_reads,
            ms.stats.l2_misses,
        )
    };
    assert_eq!(run(), run());
}
