//! The chip-wide memory subsystem: private L1-I/L1-D/L2 hierarchies, the
//! distributed dataless directory (ACKwise_k or Dir_kB), the §IV-C-1
//! sequence-number reordering logic, and the 64 memory controllers — all
//! driving, and driven by, an `atac-net` network.
//!
//! ## Protocol summary (paper §IV-C)
//!
//! MSI, directory-based, serialized per address at the home core:
//!
//! * `ShReq`/`ExReq` from cores are processed one at a time per entry;
//!   later requests queue.
//! * An exclusive request for a *shared* line triggers invalidations —
//!   unicasts while sharer identities fit in the `k` pointers, a single
//!   **broadcast** after overflow. ACKwise collects acks only from actual
//!   sharers (it tracks their count); Dir_kB collects acks from *every*
//!   core.
//! * An exclusive request for a *modified* line sends `FlushReq` to the
//!   owner; a shared request sends `WbReq`.
//! * The line itself comes from the previous owner's flush/write-back or
//!   from a memory controller; the directory holds no data.
//! * ACKwise forbids silent evictions (`Evict`/`EvictDirty` notify the
//!   home); Dir_kB evicts clean lines silently.
//!
//! ## Sequence numbers (§IV-C-1)
//!
//! Because ATAC+ routes broadcasts (ONet) and unicasts (ENet or ONet by
//! distance) differently, home→core messages can reorder across classes.
//! Each home keeps a 16-bit counter incremented per invalidation
//! broadcast; every home→core unicast carries the current value.
//! A receiving core holds a unicast whose `seq` exceeds the newest
//! broadcast it has seen from that home (a broadcast sent earlier is still
//! in flight), and buffers a broadcast invalidate that lands while its own
//! `ShReq` for the same line is outstanding, resolving staleness by
//! comparing sequence numbers when the `ShRep` arrives — exactly the
//! paper's mechanism, including the wrap-around comparison.

// Hot path (atac-audit `HOT_PATH_FILES`): panics and lossy casts need an `#[expect]`.
#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
// State machine: name every variant, so a new one fails until handled.
#![warn(clippy::wildcard_enum_match_arm)]

use std::collections::BTreeMap;
use std::collections::VecDeque;

use atac_net::{ClusterId, CoreId, Cycle, Delivery, Dest, HubSet, Message, Network, Topology};
use atac_trace::{HostPhase, HostProfiler, ProbeHandle, TxnEvent, TxnPhase};

use crate::addr::Addr;
use crate::cache::{LineState, SetAssocCache, Victim};
use crate::directory::{DirState, SharerSet, WaitingReq};
use crate::memctrl::{MemCtrl, MemOp};
use crate::protocol::{CohKind, CohPayload, PayloadTable, ProtocolKind};
use crate::stats::CoherenceStats;

/// L2 hit latency in cycles (tag + data array at 1 GHz, 11 nm).
pub const L2_HIT_LATENCY: u32 = 8;
/// L1 hit latency in cycles.
pub const L1_HIT_LATENCY: u32 = 1;

/// Result of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// Completed locally; the core stalls this many cycles.
    Hit(u32),
    /// A coherence transaction started; the core blocks until its MSHR
    /// completion is reported by [`MemorySystem::drain_completions`].
    Miss,
}

/// One outstanding miss (in-order cores block, so one per core).
#[derive(Debug, Clone, Copy)]
struct Mshr {
    addr: Addr,
    ex: bool,
    /// A broadcast invalidate for `addr` that arrived while this `ShReq`
    /// was outstanding, deferred per §IV-C-1.
    buffered_bcast: Option<CohPayload>,
}

/// Per-core memory-side state.
#[derive(Debug)]
struct CoreMem {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    mshr: Option<Mshr>,
    /// Newest broadcast sequence number seen, per home core.
    last_bcast: Vec<u16>,
    /// Home→core unicasts held until earlier broadcasts arrive
    /// (insertion order preserves the per-home FIFO).
    held: VecDeque<CohPayload>,
}

impl CoreMem {
    fn new(cores: usize) -> Self {
        CoreMem {
            l1i: SetAssocCache::l1(),
            l1d: SetAssocCache::l1(),
            l2: SetAssocCache::l2(),
            mshr: None,
            last_bcast: vec![0; cores],
            held: VecDeque::new(),
        }
    }
}

/// TCP-style wrap-around comparison: is `a` strictly newer than `b`?
#[inline]
#[expect(clippy::cast_possible_wrap, reason = "two's complement is the compare")]
pub fn seq_newer(a: u16, b: u16) -> bool {
    (a.wrapping_sub(b) as i16) > 0
}

/// The complete memory subsystem.
#[derive(Debug)]
pub struct MemorySystem {
    topo: Topology,
    protocol: ProtocolKind,
    cores: Vec<CoreMem>,
    /// Directory state per tracked line, keyed by line address; the
    /// owning slice is implied by `Addr::home`. Ordered maps so iteration
    /// (invariant checks, debug dumps) is deterministic across processes.
    dir: BTreeMap<Addr, DirState>,
    /// Requests serialized behind a line's in-flight transaction, oldest
    /// first. Only lines with a queued request have a queue, and only a
    /// line in a transient state can have one.
    waiters: BTreeMap<Addr, VecDeque<WaitingReq>>,
    /// Per-home broadcast sequence counters.
    seq: Vec<u16>,
    /// Memory controllers, one per cluster, tagged with the pending
    /// payload to send back.
    memctrls: Vec<MemCtrl<CohPayload>>,
    /// Controllers with operations in flight: the only ones the per-cycle
    /// tick and horizon visit.
    mem_busy: HubSet,
    /// Completion buffer reused by every `memctrl_tick`.
    mem_done: Vec<MemOp<CohPayload>>,
    payloads: PayloadTable,
    /// Per-core FIFO outboxes (per-source ordering is a protocol
    /// correctness requirement — see §IV-C-1 discussion in DESIGN.md).
    outbox: Vec<VecDeque<Message>>,
    /// Cores whose MSHR completed since the last drain.
    completions: Vec<CoreId>,
    /// Total messages currently queued across all outboxes.
    outbox_msgs: usize,
    /// Cores with nonempty outboxes (so the per-cycle flush touches only
    /// active queues, not all 1024).
    outbox_active: Vec<u16>,
    outbox_is_active: Vec<bool>,
    /// Event counters.
    pub stats: CoherenceStats,
    /// Observability probe (disabled by default; reports transaction
    /// lifecycle phases, never alters protocol behavior).
    probe: ProbeHandle,
    /// Host self-profiler (disabled by default). Shares the engine's lap
    /// timeline so outbox-flush and memory-controller host time is
    /// attributed from inside this crate; never reads simulator state.
    profiler: HostProfiler,
}

impl MemorySystem {
    /// Build the memory system for a topology and protocol.
    pub fn new(topo: Topology, protocol: ProtocolKind) -> Self {
        let n = topo.cores();
        MemorySystem {
            topo,
            protocol,
            cores: (0..n).map(|_| CoreMem::new(n)).collect(),
            dir: BTreeMap::new(),
            waiters: BTreeMap::new(),
            seq: vec![0; n],
            memctrls: (0..topo.clusters()).map(|_| MemCtrl::default()).collect(),
            mem_busy: HubSet::new(topo.clusters()),
            mem_done: Vec::new(),
            payloads: PayloadTable::default(),
            outbox: (0..n).map(|_| VecDeque::new()).collect(),
            completions: Vec::new(),
            outbox_msgs: 0,
            outbox_active: Vec::new(),
            outbox_is_active: vec![false; n],
            stats: CoherenceStats::default(),
            probe: ProbeHandle::default(),
            profiler: HostProfiler::default(),
        }
    }

    /// The protocol in use.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Attach an observability probe.
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    /// Attach a host self-profiler (a clone of the engine's handle, so
    /// the lap timeline stays contiguous across the crate boundary).
    pub fn set_profiler(&mut self, profiler: HostProfiler) {
        self.profiler = profiler;
    }

    /// Messages currently queued across every per-core outbox (the
    /// epoch sampler's coherence-layer queue-depth observable).
    pub fn outbox_depth(&self) -> usize {
        self.outbox_msgs
    }

    // ------------------------------------------------------------------
    // Core-facing API
    // ------------------------------------------------------------------

    /// Instruction fetch. Instructions live in private, read-only memory:
    /// an L1-I miss is served by the local L2 port without coherence
    /// (documented simplification in DESIGN.md).
    pub fn ifetch(&mut self, core: CoreId, addr: Addr) -> u32 {
        self.stats.l1i_accesses += 1;
        let cm = &mut self.cores[core.idx()];
        if cm.l1i.access(addr) != LineState::I {
            return L1_HIT_LATENCY;
        }
        self.stats.l1i_misses += 1;
        self.stats.l2_accesses += 1;
        cm.l1i.fill(addr, LineState::S);
        L1_HIT_LATENCY + L2_HIT_LATENCY
    }

    /// Instruction fetch for a block of `n` sequential instructions that
    /// share one I-cache line: one tag lookup, `n` array accesses counted
    /// for energy. Returns the stall latency.
    pub fn ifetch_block(&mut self, core: CoreId, addr: Addr, n: u32) -> u32 {
        self.stats.l1i_accesses += u64::from(n.saturating_sub(1));
        self.ifetch(core, addr)
    }

    /// Data access. The core must have no outstanding miss.
    pub fn access(&mut self, core: CoreId, addr: Addr, write: bool) -> AccessResult {
        let addr = addr.line_base();
        if write {
            self.stats.l1d_writes += 1;
        } else {
            self.stats.l1d_reads += 1;
        }
        let cm = &mut self.cores[core.idx()];
        assert!(cm.mshr.is_none(), "in-order core issued under a miss");

        // L1 lookup.
        let l1 = cm.l1d.access(addr);
        if l1 == LineState::M || (l1 == LineState::S && !write) {
            return AccessResult::Hit(L1_HIT_LATENCY);
        }
        self.stats.l1d_misses += 1;

        // L2 lookup.
        self.stats.l2_accesses += 1;
        let l2 = cm.l2.access(addr);
        match (l2, write) {
            (LineState::M, _) => {
                cm.l1d
                    .fill(addr, if write { LineState::M } else { LineState::S });
                AccessResult::Hit(L1_HIT_LATENCY + L2_HIT_LATENCY)
            }
            (LineState::S, false) => {
                cm.l1d.fill(addr, LineState::S);
                AccessResult::Hit(L1_HIT_LATENCY + L2_HIT_LATENCY)
            }
            (LineState::S, true) => {
                // Upgrade.
                self.stats.upgrades += 1;
                self.start_miss(core, addr, true);
                AccessResult::Miss
            }
            (LineState::I, _) => {
                self.stats.l2_misses += 1;
                self.start_miss(core, addr, write);
                AccessResult::Miss
            }
        }
    }

    fn start_miss(&mut self, core: CoreId, addr: Addr, ex: bool) {
        self.cores[core.idx()].mshr = Some(Mshr {
            addr,
            ex,
            buffered_bcast: None,
        });
        let home = addr.home(&self.topo);
        let kind = if ex { CohKind::ExReq } else { CohKind::ShReq };
        self.send(core, Dest::Unicast(home), kind, addr, core, 0);
    }

    /// Cores whose outstanding miss completed since the last call.
    pub fn drain_completions(&mut self, out: &mut Vec<CoreId>) {
        out.append(&mut self.completions);
    }

    // ------------------------------------------------------------------
    // Network-facing API
    // ------------------------------------------------------------------

    /// Push queued protocol messages into the network until it pushes
    /// back. Per-core FIFO order is preserved.
    pub fn flush_outbox<N: Network + ?Sized>(&mut self, net: &mut N, now: Cycle) {
        let mut i = 0;
        while i < self.outbox_active.len() {
            let c = self.outbox_active[i] as usize;
            let q = &mut self.outbox[c];
            while let Some(&m) = q.front() {
                if net.try_send(m, now) {
                    q.pop_front();
                    self.outbox_msgs -= 1;
                } else {
                    break;
                }
            }
            if q.is_empty() {
                self.outbox_is_active[c] = false;
                self.outbox_active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        self.profiler.lap(HostPhase::Coherence);
    }

    /// Are any protocol messages still waiting to enter the network?
    pub fn outbox_pending(&self) -> bool {
        self.outbox_msgs > 0
    }

    /// Advance memory controllers: emit `MemData` replies whose access
    /// latency elapsed by `now`.
    pub fn memctrl_tick(&mut self, now: Cycle) {
        // Controller `cl`'s completions go to outboxes, never to a
        // controller, so the walk visits the busy set as the tick began.
        let mut done = std::mem::take(&mut self.mem_done);
        let mut walk = self.mem_busy.walk();
        while let Some(cl) = walk.next(&self.mem_busy) {
            if self.memctrls[cl].next_event().is_none_or(|t| t > now) {
                continue;
            }
            self.memctrls[cl].drain_completed(now, &mut done);
            if self.memctrls[cl].is_idle() {
                self.mem_busy.remove(cl);
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "clusters ≤ 256 (`Topology::small` asserts it) fit u8"
            )]
            let hub = self.topo.hub_core(ClusterId(cl as u8));
            for op in done.drain(..) {
                if op.is_write {
                    continue; // writes complete silently
                }
                let p = op.tag;
                let home = p.addr.home(&self.topo);
                self.send(
                    hub,
                    Dest::Unicast(home),
                    CohKind::MemData,
                    p.addr,
                    p.requester,
                    0,
                );
            }
        }
        self.mem_done = done;
        self.profiler.lap(HostPhase::Memctrl);
    }

    /// Earliest pending memory-controller completion (for skip-ahead).
    pub fn next_mem_event(&self) -> Option<Cycle> {
        let next = self
            .mem_busy
            .iter()
            .filter_map(|cl| self.memctrls[cl].next_event())
            .min();
        debug_assert_eq!(
            next,
            self.memctrls.iter().filter_map(MemCtrl::next_event).min(),
            "busy-controller set misses a controller"
        );
        next
    }

    /// Queue `op` at cluster `cl`'s memory controller. The memory counters
    /// change here and nowhere else.
    fn mem_submit(&mut self, cl: ClusterId, op: MemOp<CohPayload>, now: Cycle) {
        let m = &mut self.memctrls[cl.idx()];
        let queued = m.queue_cycles;
        m.submit(op, now);
        self.stats.mem_queue_cycles += m.queue_cycles - queued;
        if op.is_write {
            self.stats.mem_writes += 1;
        } else {
            self.stats.mem_reads += 1;
        }
        self.mem_busy.insert(cl.idx());
    }

    /// Handle one network delivery.
    pub fn handle_delivery(&mut self, d: &Delivery, now: Cycle) {
        let p = self.payloads.take(d.msg.token);
        let receiver = d.receiver;
        match p.kind {
            // ---- directory-bound ----
            CohKind::ShReq | CohKind::ExReq => {
                debug_assert_eq!(receiver, p.addr.home(&self.topo));
                self.probe.txn(&TxnEvent {
                    core: u32::from(d.msg.src.0),
                    phase: TxnPhase::DirSeen,
                    at: now,
                });
                self.dir_request(
                    p.addr,
                    WaitingReq {
                        requester: d.msg.src,
                        ex: p.kind == CohKind::ExReq,
                    },
                );
            }
            CohKind::InvAck => self.dir_inv_ack(p.addr),
            CohKind::Evict => self.dir_evict(p.addr, d.msg.src),
            CohKind::EvictDirty => self.dir_evict_dirty(p.addr, d.msg.src, now),
            CohKind::WbData => self.dir_wb_data(p.addr, now),
            CohKind::FlushData => self.dir_flush_data(p.addr),
            CohKind::MemData => self.dir_mem_data(p.addr),
            // ---- memory-controller-bound ----
            CohKind::MemRead | CohKind::MemWrite => {
                let cl = p.addr.mem_cluster(&self.topo);
                let is_write = p.kind == CohKind::MemWrite;
                self.mem_submit(cl, MemOp { tag: p, is_write }, now);
            }
            // ---- core-bound (seq-number ordering applies) ----
            CohKind::ShRep
            | CohKind::ExRep
            | CohKind::UpgradeRep
            | CohKind::WbReq
            | CohKind::FlushReq => {
                // Data-return phase: the reply reached the requester's
                // tile (recorded even if §IV-C-1 ordering holds it
                // briefly before the fill).
                if matches!(
                    p.kind,
                    CohKind::ShRep | CohKind::ExRep | CohKind::UpgradeRep
                ) {
                    self.probe.txn(&TxnEvent {
                        core: u32::from(receiver.0),
                        phase: TxnPhase::DataReturn,
                        at: now,
                    });
                }
                let home = d.msg.src;
                if seq_newer(p.seq, self.cores[receiver.idx()].last_bcast[home.idx()]) {
                    // A broadcast sent before this unicast is still in
                    // flight: hold (paper §IV-C-1).
                    self.stats.seq_buffered_unicasts += 1;
                    // audit: allow(alloc) hold queue bounded by in-flight unicasts; amortized
                    self.cores[receiver.idx()].held.push_back(p);
                } else {
                    self.core_msg(receiver, p);
                }
            }
            CohKind::Inv => match d.msg.dest {
                Dest::Unicast(_) => {
                    let home = d.msg.src;
                    if seq_newer(p.seq, self.cores[receiver.idx()].last_bcast[home.idx()]) {
                        self.stats.seq_buffered_unicasts += 1;
                        // audit: allow(alloc) hold queue bounded by in-flight unicasts; amortized
                        self.cores[receiver.idx()].held.push_back(p);
                    } else {
                        self.core_msg(receiver, p);
                    }
                }
                Dest::Broadcast => self.core_bcast_inv(receiver, p),
            },
        }
    }

    // ------------------------------------------------------------------
    // Core-side protocol
    // ------------------------------------------------------------------

    /// Process a home→core message that is (now) in order.
    fn core_msg(&mut self, core: CoreId, p: CohPayload) {
        // Sanitizer: the §IV-C-1 ordering discipline guarantees that a
        // unicast reaching this point is never newer than the receiving
        // core's per-home broadcast horizon — delivery and release paths
        // must both have checked it.
        debug_assert!(
            !seq_newer(
                p.seq,
                self.cores[core.idx()].last_bcast[p.addr.home(&self.topo).idx()]
            ),
            "out-of-order unicast reached core_msg: seq {} ahead of horizon",
            p.seq
        );
        match p.kind {
            CohKind::ShRep => self.core_fill(core, p, LineState::S),
            CohKind::ExRep => self.core_fill(core, p, LineState::M),
            CohKind::UpgradeRep => {
                let cm = &mut self.cores[core.idx()];
                #[expect(clippy::expect_used, reason = "upgrades answer an outstanding MSHR")]
                let m = cm.mshr.take().expect("upgrade without MSHR");
                assert_eq!(m.addr, p.addr);
                assert!(m.ex);
                self.stats.l2_accesses += 1;
                cm.l2.set_state(p.addr, LineState::M);
                cm.l1d.fill(p.addr, LineState::M);
                self.completions.push(core); // audit: allow(alloc) ≤ one entry per core; drained every cycle
            }
            CohKind::Inv => self.core_inv(core, p, false),
            CohKind::WbReq => {
                let cm = &mut self.cores[core.idx()];
                self.stats.l2_accesses += 1;
                if cm.l2.state(p.addr) == LineState::M {
                    cm.l2.set_state(p.addr, LineState::S);
                    if cm.l1d.state(p.addr) == LineState::M {
                        cm.l1d.set_state(p.addr, LineState::S);
                    }
                    let home = p.addr.home(&self.topo);
                    self.send(
                        core,
                        Dest::Unicast(home),
                        CohKind::WbData,
                        p.addr,
                        p.requester,
                        0,
                    );
                }
                // else: our EvictDirty is already in flight and will
                // satisfy the directory.
            }
            CohKind::FlushReq => {
                let cm = &mut self.cores[core.idx()];
                self.stats.l2_accesses += 1;
                if cm.l2.state(p.addr) == LineState::M {
                    cm.l2.invalidate(p.addr);
                    cm.l1d.invalidate(p.addr);
                    let home = p.addr.home(&self.topo);
                    self.send(
                        core,
                        Dest::Unicast(home),
                        CohKind::FlushData,
                        p.addr,
                        p.requester,
                        0,
                    );
                }
            }
            CohKind::ShReq
            | CohKind::ExReq
            | CohKind::InvAck
            | CohKind::Evict
            | CohKind::EvictDirty
            | CohKind::WbData
            | CohKind::FlushData
            | CohKind::MemRead
            | CohKind::MemWrite
            | CohKind::MemData => unreachable!("not a core-bound message: {:?}", p.kind),
        }
    }

    /// Fill the MSHR's line and complete the miss, applying any buffered
    /// broadcast invalidate per the §IV-C-1 rules.
    fn core_fill(&mut self, core: CoreId, p: CohPayload, state: LineState) {
        let cm = &mut self.cores[core.idx()];
        #[expect(clippy::expect_used, reason = "fills only answer an outstanding MSHR")]
        let m = cm.mshr.take().expect("fill without MSHR");
        assert_eq!(m.addr, p.addr, "fill for wrong line");
        self.stats.l2_accesses += 1;
        let victim = cm.l2.fill(p.addr, state);
        cm.l1d.fill(p.addr, state);
        self.completions.push(core); // audit: allow(alloc) ≤ one entry per core; drained every cycle
        self.handle_victim(core, victim);

        if let Some(b) = m.buffered_bcast {
            if seq_newer(b.seq, p.seq) {
                // The invalidate was sent after our ShRep: process it
                // (one cycle later in the paper — functionally immediate
                // here). Under ACKwise we were counted as a sharer, so
                // ack now; under Dir_kB the ack was already sent eagerly
                // at buffering time (see `core_bcast_inv`) — only the
                // invalidation itself was deferred.
                match self.protocol {
                    ProtocolKind::AckWise { .. } => self.core_inv(core, b, true),
                    ProtocolKind::DirB { .. } => {
                        let cm = &mut self.cores[core.idx()];
                        cm.l2.invalidate(b.addr);
                        cm.l1d.invalidate(b.addr);
                        self.stats.l2_accesses += 1;
                    }
                }
            } else {
                // Stale: sent before we became a sharer. Drop.
                self.stats.seq_dropped_broadcasts += 1;
            }
        }
    }

    /// Process an invalidate at a core (unicast or in-order broadcast).
    /// `counted` forces an ack for a deferred broadcast we know we were
    /// counted for.
    fn core_inv(&mut self, core: CoreId, p: CohPayload, counted: bool) {
        let cm = &mut self.cores[core.idx()];
        self.stats.l2_accesses += 1;
        let had = cm.l2.invalidate(p.addr);
        cm.l1d.invalidate(p.addr);
        let home = p.addr.home(&self.topo);
        let acks = match self.protocol {
            // ACKwise: only actual sharers acknowledge.
            ProtocolKind::AckWise { .. } => had != LineState::I || counted,
            // Dir_kB: every core acknowledges a broadcast; unicast invs
            // are acked unconditionally too (the directory counted us).
            ProtocolKind::DirB { .. } => true,
        };
        if acks {
            self.send(
                core,
                Dest::Unicast(home),
                CohKind::InvAck,
                p.addr,
                p.requester,
                0,
            );
        }
    }

    /// A broadcast invalidate arriving at a core: update the per-home
    /// sequence horizon, release held unicasts, then process or buffer.
    fn core_bcast_inv(&mut self, core: CoreId, p: CohPayload) {
        let home = p.addr.home(&self.topo);
        {
            let cm = &mut self.cores[core.idx()];
            if seq_newer(p.seq, cm.last_bcast[home.idx()]) {
                cm.last_bcast[home.idx()] = p.seq;
            }
        }
        // Buffer behind an outstanding ShReq for the same line (§IV-C-1).
        let buffer = {
            let cm = &self.cores[core.idx()];
            matches!(cm.mshr, Some(m) if m.addr == p.addr && !m.ex)
        };
        if buffer {
            self.stats.seq_buffered_broadcasts += 1;
            let cm = &mut self.cores[core.idx()];
            // Several broadcasts can land behind one outstanding ShReq,
            // but at most the newest can have counted us as a sharer (the
            // directory cannot start a second counted invalidation before
            // collecting our ack for the first), so older buffered ones
            // are necessarily stale: keep only the newest.
            #[expect(clippy::expect_used, reason = "presence checked just above")]
            let mshr = cm.mshr.as_mut().expect("checked");
            if let Some(old) = mshr.buffered_bcast.replace(p) {
                debug_assert!(seq_newer(p.seq, old.seq), "broadcasts arrive in order");
                self.stats.seq_dropped_broadcasts += 1;
            }
            // Dir_kB demands an ack from every core; withholding it until
            // our ShRep arrives would deadlock (our ShRep is serialized
            // behind the very transaction waiting for this ack). Ack
            // eagerly; the deferred invalidation is made safe by the
            // sequence comparison at fill time. ACKwise does not need
            // this: an un-replied core was not yet a counted sharer
            // (the paper's §IV-C-1 deadlock-freedom argument).
            if matches!(self.protocol, ProtocolKind::DirB { .. }) {
                let home = p.addr.home(&self.topo);
                self.send(
                    core,
                    Dest::Unicast(home),
                    CohKind::InvAck,
                    p.addr,
                    p.requester,
                    0,
                );
            }
        } else {
            self.core_inv(core, p, false);
        }
        self.release_held(core);
    }

    /// Deliver held unicasts whose sequence horizon has been reached.
    fn release_held(&mut self, core: CoreId) {
        loop {
            #[expect(clippy::expect_used, reason = "loop guard guarantees a queued message")]
            let next = {
                let cm = &mut self.cores[core.idx()];
                match cm.held.front() {
                    Some(p) => {
                        let home = p.addr.home(&self.topo);
                        if !seq_newer(p.seq, cm.last_bcast[home.idx()]) {
                            Some(cm.held.pop_front().expect("front"))
                        } else {
                            None
                        }
                    }
                    None => None,
                }
            };
            match next {
                Some(p) => self.core_msg(core, p),
                None => break,
            }
        }
    }

    /// Handle an L2 victim: notify the home per protocol rules.
    fn handle_victim(&mut self, core: CoreId, victim: Victim) {
        match victim {
            Victim::None => {}
            Victim::CleanShared(addr) => {
                self.cores[core.idx()].l1d.invalidate(addr); // inclusion
                match self.protocol {
                    ProtocolKind::AckWise { .. } => {
                        self.stats.evictions_clean += 1;
                        let home = addr.home(&self.topo);
                        self.send(core, Dest::Unicast(home), CohKind::Evict, addr, core, 0);
                    }
                    ProtocolKind::DirB { .. } => {
                        self.stats.evictions_silent += 1;
                    }
                }
            }
            Victim::Dirty(addr) => {
                self.cores[core.idx()].l1d.invalidate(addr);
                self.stats.evictions_dirty += 1;
                let home = addr.home(&self.topo);
                self.send(
                    core,
                    Dest::Unicast(home),
                    CohKind::EvictDirty,
                    addr,
                    core,
                    0,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Directory protocol
    // ------------------------------------------------------------------

    fn dir_request(&mut self, addr: Addr, req: WaitingReq) {
        self.stats.dir_lookups += 1;
        let state = self.dir.entry(addr).or_insert(DirState::Uncached);
        if state.is_transient() {
            // audit: allow(alloc) one queue per line with waiters, bounded by outstanding MSHRs
            self.waiters.entry(addr).or_default().push_back(req);
            return;
        }
        self.dir_process(addr, req);
    }

    /// Process one request against a stable entry.
    fn dir_process(&mut self, addr: Addr, req: WaitingReq) {
        let home = addr.home(&self.topo);
        #[expect(clippy::expect_used, reason = "caller checked the entry exists")]
        let state = self.dir.get(&addr).expect("entry exists").clone(); // audit: allow(alloc) k-pointer state copy
        self.stats.dir_updates += 1;
        match (state, req.ex) {
            (DirState::Uncached, ex) => {
                self.set_dir(
                    addr,
                    DirState::WaitMem {
                        requester: req.requester,
                        ex,
                    },
                );
                self.mem_read(home, addr, req.requester);
            }
            (DirState::Shared(sharers), false) => {
                // Data comes from memory (dataless directory).
                self.set_dir(
                    addr,
                    DirState::WaitMemShared {
                        requester: req.requester,
                        sharers,
                    },
                );
                self.mem_read(home, addr, req.requester);
            }
            (DirState::Shared(sharers), true) => {
                // Dir_kB evicts silently, so its sharer list only
                // upper-bounds reality: a listed "sharer" (including the
                // requester) may hold nothing, making a dataless upgrade
                // unsafe. Only ACKwise — whose lists are exact — may take
                // the UpgradeRep shortcut; Dir_kB always ships data.
                let exact = matches!(self.protocol, ProtocolKind::AckWise { .. });
                let req_was_sharer = sharers.contains(req.requester);
                if req_was_sharer == Some(true) && sharers.count() == 1 {
                    if exact {
                        // Sole sharer: grant the upgrade without data.
                        self.set_dir(addr, DirState::Modified(req.requester));
                        self.send_home(
                            home,
                            req.requester,
                            CohKind::UpgradeRep,
                            addr,
                            req.requester,
                        );
                    } else {
                        // Dir_kB sole-"sharer" write: fetch the line and
                        // reply with a full exclusive response.
                        self.set_dir(
                            addr,
                            DirState::WaitMem {
                                requester: req.requester,
                                ex: true,
                            },
                        );
                        self.mem_read(home, addr, req.requester);
                    }
                    self.dir_retire(addr);
                    return;
                }
                match sharers {
                    SharerSet::Ptrs(ref ptrs) => {
                        let targets: Vec<CoreId> = ptrs
                            .iter()
                            .copied()
                            .filter(|&c| c != req.requester)
                            .collect(); // audit: allow(alloc) invalidation target list ≤ k pointers
                        debug_assert!(!targets.is_empty());
                        #[expect(clippy::cast_possible_truncation, reason = "sharers ≤ 1024 cores")]
                        let needed = targets.len() as u32;
                        for t in &targets {
                            self.stats.inv_unicasts += 1;
                            self.send_home(home, *t, CohKind::Inv, addr, req.requester);
                        }
                        let need_data = req_was_sharer != Some(true) || !exact;
                        self.set_dir(
                            addr,
                            DirState::WaitAcks {
                                requester: req.requester,
                                needed,
                                need_data,
                                have_data: false,
                            },
                        );
                        if need_data {
                            self.mem_read(home, addr, req.requester);
                        }
                    }
                    SharerSet::Overflow { count } => {
                        // Broadcast invalidation.
                        self.stats.inv_broadcasts += 1;
                        self.seq[home.idx()] = self.seq[home.idx()].wrapping_add(1);
                        let seq = self.seq[home.idx()];
                        self.send(
                            home,
                            Dest::Broadcast,
                            CohKind::Inv,
                            addr,
                            req.requester,
                            seq,
                        );
                        // ACKwise needs acks from the actual sharers only
                        // (it tracked their count); Dir_kB collects one
                        // from every core. The home core itself never
                        // sees its own broadcast on the wire, so it is
                        // delivered locally below; its ack — if one is
                        // owed — arrives via the NIC loopback like any
                        // other.
                        let needed = match self.protocol {
                            ProtocolKind::AckWise { .. } => count,
                            #[expect(clippy::cast_possible_truncation, reason = "cores ≤ 1024")]
                            ProtocolKind::DirB { .. } => self.topo.cores() as u32,
                        };
                        // With identities lost, data is fetched
                        // conservatively (the requester's copy, if any,
                        // is invalidated by the broadcast too).
                        self.set_dir(
                            addr,
                            DirState::WaitAcks {
                                requester: req.requester,
                                needed,
                                need_data: true,
                                have_data: false,
                            },
                        );
                        self.mem_read(home, addr, req.requester);
                        // Local (same-tile) delivery of the broadcast to
                        // the home core: updates its sequence horizon,
                        // releases held unicasts, invalidates/acks.
                        self.core_bcast_inv(
                            home,
                            CohPayload {
                                kind: CohKind::Inv,
                                addr,
                                requester: req.requester,
                                seq,
                            },
                        );
                    }
                }
            }
            (DirState::Modified(owner), false) => {
                assert_ne!(owner, req.requester, "owner re-reading its own line");
                self.set_dir(
                    addr,
                    DirState::WaitWb {
                        requester: req.requester,
                        owner,
                    },
                );
                self.send_home(home, owner, CohKind::WbReq, addr, req.requester);
            }
            (DirState::Modified(owner), true) => {
                assert_ne!(owner, req.requester, "owner re-writing its own line");
                self.set_dir(
                    addr,
                    DirState::WaitFlush {
                        requester: req.requester,
                        owner,
                    },
                );
                self.send_home(home, owner, CohKind::FlushReq, addr, req.requester);
            }
            (s, _) => unreachable!("dir_process on transient state {s:?}"),
        }
    }

    fn dir_inv_ack(&mut self, addr: Addr) {
        self.stats.dir_lookups += 1;
        self.stats.inv_acks += 1;
        #[expect(clippy::expect_used, reason = "entry lives while acks are due")]
        match self.dir.get_mut(&addr).expect("ack for live entry") {
            DirState::WaitAcks { needed, .. } => {
                *needed -= 1;
            }
            s @ (DirState::Uncached
            | DirState::Shared(_)
            | DirState::Modified(_)
            | DirState::WaitMem { .. }
            | DirState::WaitMemShared { .. }
            | DirState::WaitWb { .. }
            | DirState::WaitFlush { .. }) => panic!("InvAck in state {s:?}"),
        }
        self.dir_check_acks_done(addr);
    }

    fn dir_mem_data(&mut self, addr: Addr) {
        self.stats.dir_lookups += 1;
        let home = addr.home(&self.topo);
        #[expect(clippy::expect_used, reason = "entry lives until memory data lands")]
        let state = self.dir.get_mut(&addr).expect("mem data for live entry");
        // audit: allow(alloc) k-pointer state copy; entry is mutated below
        match state.clone() {
            DirState::WaitMem { requester, ex } => {
                let (kind, st) = if ex {
                    (CohKind::ExRep, DirState::Modified(requester))
                } else {
                    (CohKind::ShRep, DirState::Shared(SharerSet::one(requester)))
                };
                self.set_dir(addr, st);
                self.send_home(home, requester, kind, addr, requester);
                self.dir_retire(addr);
            }
            DirState::WaitMemShared {
                requester,
                mut sharers,
            } => {
                let overflowed = sharers.add(requester, self.protocol.k());
                if overflowed {
                    self.stats.sharer_overflows += 1;
                }
                self.set_dir(addr, DirState::Shared(sharers));
                self.send_home(home, requester, CohKind::ShRep, addr, requester);
                self.dir_retire(addr);
            }
            DirState::WaitAcks { .. } => {
                if let DirState::WaitAcks { have_data, .. } = state {
                    *have_data = true;
                }
                self.dir_check_acks_done(addr);
            }
            s @ (DirState::Uncached
            | DirState::Shared(_)
            | DirState::Modified(_)
            | DirState::WaitWb { .. }
            | DirState::WaitFlush { .. }) => panic!("MemData in state {s:?}"),
        }
    }

    fn dir_check_acks_done(&mut self, addr: Addr) {
        let home = addr.home(&self.topo);
        #[expect(clippy::expect_used, reason = "transitions target a live entry")]
        if let DirState::WaitAcks {
            requester,
            needed,
            need_data,
            have_data,
        } = *self.dir.get(&addr).expect("entry")
        {
            if needed == 0 && (!need_data || have_data) {
                let kind = if need_data {
                    CohKind::ExRep
                } else {
                    CohKind::UpgradeRep
                };
                self.set_dir(addr, DirState::Modified(requester));
                self.send_home(home, requester, kind, addr, requester);
                self.dir_retire(addr);
            }
        }
    }

    fn dir_evict(&mut self, addr: Addr, from: CoreId) {
        self.stats.dir_lookups += 1;
        self.stats.dir_updates += 1;
        #[expect(clippy::expect_used, reason = "evictions come from tracked caches")]
        let state = self.dir.get_mut(&addr).expect("evict for live entry");
        let mut recheck_acks = false;
        match state {
            DirState::Shared(sharers) => {
                sharers.remove(from);
                if sharers.count() == 0 {
                    *state = DirState::Uncached;
                }
            }
            DirState::WaitMemShared { sharers, .. } => {
                sharers.remove(from);
            }
            // An eviction crossing an in-flight invalidation substitutes
            // for that sharer's ack (ACKwise accounting).
            DirState::WaitAcks { needed, .. } => {
                *needed = needed.saturating_sub(1);
                recheck_acks = true;
            }
            s @ (DirState::Uncached
            | DirState::Modified(_)
            | DirState::WaitMem { .. }
            | DirState::WaitWb { .. }
            | DirState::WaitFlush { .. }) => panic!("Evict from {from:?} in state {s:?}"),
        }
        if recheck_acks {
            self.dir_check_acks_done(addr);
        } else {
            self.dir_retire(addr);
        }
    }

    fn dir_evict_dirty(&mut self, addr: Addr, from: CoreId, now: Cycle) {
        self.stats.dir_lookups += 1;
        let home = addr.home(&self.topo);
        #[expect(clippy::expect_used, reason = "dirty evictions come from the M holder")]
        let state = self.dir.get(&addr).expect("dirty evict for live entry");
        // audit: allow(alloc) k-pointer state copy; entry is mutated below
        match state.clone() {
            DirState::Modified(owner) => {
                assert_eq!(owner, from);
                self.set_dir(addr, DirState::Uncached);
                self.mem_write(home, addr, now);
                self.dir_retire(addr);
            }
            // The owner's eviction crossed our WbReq/FlushReq: it carries
            // the data we were waiting for.
            DirState::WaitWb { requester, owner } => {
                assert_eq!(owner, from);
                self.mem_write(home, addr, now);
                self.set_dir(addr, DirState::Shared(SharerSet::one(requester)));
                self.send_home(home, requester, CohKind::ShRep, addr, requester);
                self.dir_retire(addr);
            }
            DirState::WaitFlush { requester, owner } => {
                assert_eq!(owner, from);
                self.set_dir(addr, DirState::Modified(requester));
                self.send_home(home, requester, CohKind::ExRep, addr, requester);
                self.dir_retire(addr);
            }
            s @ (DirState::Uncached
            | DirState::Shared(_)
            | DirState::WaitMem { .. }
            | DirState::WaitMemShared { .. }
            | DirState::WaitAcks { .. }) => panic!("EvictDirty from {from:?} in state {s:?}"),
        }
    }

    fn dir_wb_data(&mut self, addr: Addr, now: Cycle) {
        self.stats.dir_lookups += 1;
        let home = addr.home(&self.topo);
        #[expect(clippy::expect_used, reason = "writeback data answers a live WbReq")]
        let state = self.dir.get(&addr).expect("wb data for live entry");
        // audit: allow(alloc) k-pointer state copy; entry is mutated below
        match state.clone() {
            DirState::WaitWb { requester, owner } => {
                self.mem_write(home, addr, now);
                let mut sharers = SharerSet::one(owner);
                sharers.add(requester, self.protocol.k());
                self.set_dir(addr, DirState::Shared(sharers));
                self.send_home(home, requester, CohKind::ShRep, addr, requester);
                self.dir_retire(addr);
            }
            s @ (DirState::Uncached
            | DirState::Shared(_)
            | DirState::Modified(_)
            | DirState::WaitMem { .. }
            | DirState::WaitMemShared { .. }
            | DirState::WaitAcks { .. }
            | DirState::WaitFlush { .. }) => panic!("WbData in state {s:?}"),
        }
    }

    fn dir_flush_data(&mut self, addr: Addr) {
        self.stats.dir_lookups += 1;
        let home = addr.home(&self.topo);
        #[expect(clippy::expect_used, reason = "flush data answers a live FlushReq")]
        let state = self.dir.get(&addr).expect("flush data for live entry");
        // audit: allow(alloc) k-pointer state copy; entry is mutated below
        match state.clone() {
            DirState::WaitFlush { requester, .. } => {
                self.set_dir(addr, DirState::Modified(requester));
                self.send_home(home, requester, CohKind::ExRep, addr, requester);
                self.dir_retire(addr);
            }
            s @ (DirState::Uncached
            | DirState::Shared(_)
            | DirState::Modified(_)
            | DirState::WaitMem { .. }
            | DirState::WaitMemShared { .. }
            | DirState::WaitAcks { .. }
            | DirState::WaitWb { .. }) => panic!("FlushData in state {s:?}"),
        }
    }

    /// After returning to a stable state, serve queued requests.
    fn dir_retire(&mut self, addr: Addr) {
        loop {
            #[expect(clippy::expect_used, reason = "transitions target a live entry")]
            let state = self.dir.get(&addr).expect("entry");
            if state.is_transient() {
                break;
            }
            let uncached = *state == DirState::Uncached;
            let Some(req) = self.pop_waiter(addr) else {
                // Garbage-collect fully idle entries.
                if uncached {
                    self.dir.remove(&addr);
                }
                break;
            };
            self.dir_process(addr, req);
        }
    }

    /// The oldest request queued behind `addr`, dropping the line's queue
    /// once it empties.
    fn pop_waiter(&mut self, addr: Addr) -> Option<WaitingReq> {
        let queue = self.waiters.get_mut(&addr)?;
        let req = queue.pop_front();
        if queue.is_empty() {
            self.waiters.remove(&addr);
        }
        req
    }

    #[expect(clippy::expect_used, reason = "transitions target a live entry")]
    fn set_dir(&mut self, addr: Addr, state: DirState) {
        if let DirState::Modified(owner) = state {
            self.debug_check_exclusive_grant(addr, owner);
        }
        *self.dir.get_mut(&addr).expect("entry") = state;
    }

    /// Sanitizer: when the directory commits a line to `Modified(owner)`,
    /// every *other* L2 must hold it Invalid — all sharers were
    /// invalidated (or evicted) and the previous owner flushed. The new
    /// owner itself may still be S (upgrade grant) or I (response in
    /// flight). Debug builds only; the scan is O(cores).
    fn debug_check_exclusive_grant(&self, addr: Addr, owner: CoreId) {
        if cfg!(debug_assertions) {
            for (ci, cm) in self.cores.iter().enumerate() {
                debug_assert!(
                    ci == owner.idx() || cm.l2.state(addr) == LineState::I,
                    "exclusive grant of {addr:?} to {owner:?} while core {ci} \
                     still holds the line {:?}",
                    cm.l2.state(addr)
                );
            }
        }
    }

    fn mem_read(&mut self, home: CoreId, addr: Addr, requester: CoreId) {
        let cl = addr.mem_cluster(&self.topo);
        let hub = self.topo.hub_core(cl);
        self.send(
            home,
            Dest::Unicast(hub),
            CohKind::MemRead,
            addr,
            requester,
            0,
        );
    }

    fn mem_write(&mut self, home: CoreId, addr: Addr, _now: Cycle) {
        let cl = addr.mem_cluster(&self.topo);
        let hub = self.topo.hub_core(cl);
        self.send(home, Dest::Unicast(hub), CohKind::MemWrite, addr, home, 0);
    }

    // ------------------------------------------------------------------
    // Message plumbing
    // ------------------------------------------------------------------

    /// Queue a home→core message stamped with the home's current sequence
    /// number.
    fn send_home(
        &mut self,
        home: CoreId,
        to: CoreId,
        kind: CohKind,
        addr: Addr,
        requester: CoreId,
    ) {
        let seq = self.seq[home.idx()];
        self.send(home, Dest::Unicast(to), kind, addr, requester, seq);
    }

    fn send(
        &mut self,
        src: CoreId,
        dest: Dest,
        kind: CohKind,
        addr: Addr,
        requester: CoreId,
        seq: u16,
    ) {
        let deliveries = match dest {
            Dest::Unicast(_) => 1,
            #[expect(clippy::cast_possible_truncation, reason = "core count ≤ 1024")]
            Dest::Broadcast => self.topo.cores() as u32 - 1,
        };
        let token = self.payloads.insert(
            CohPayload {
                kind,
                addr,
                requester,
                seq,
            },
            deliveries,
        );
        // audit: allow(alloc) outbox bounded by outstanding transactions; amortized
        self.outbox[src.idx()].push_back(Message {
            src,
            dest,
            class: kind.class(),
            token,
        });
        self.outbox_msgs += 1;
        if !self.outbox_is_active[src.idx()] {
            self.outbox_is_active[src.idx()] = true;
            self.outbox_active.push(src.0); // audit: allow(alloc) active list ≤ one entry per core
        }
    }

    // ------------------------------------------------------------------
    // Introspection for tests and invariants
    // ------------------------------------------------------------------

    /// Nothing outstanding anywhere in the memory system.
    pub fn is_quiescent(&self) -> bool {
        self.cores
            .iter()
            .all(|c| c.mshr.is_none() && c.held.is_empty())
            && self.payloads.live() == 0
            && self.mem_busy.is_empty()
            && self.outbox.iter().all(|q| q.is_empty())
            && self.completions.is_empty()
    }

    /// Coherence invariants that must hold at quiescence (and, for the
    /// single-writer property, at any instant):
    ///
    /// 1. **Single writer**: a line in M in one L2 is in no other L2.
    /// 2. **Directory accuracy** (quiescent): a stable `Modified(o)` entry
    ///    matches exactly one M copy at `o`; a stable `Shared` entry's
    ///    count equals the number of S copies (ACKwise; Dir_kB only upper-
    ///    bounds because of silent evictions).
    /// 3. **Serialized requests**: a request waits at the directory only
    ///    behind a transaction in flight on its line, and none waits at
    ///    quiescence.
    /// 4. **Memory bookkeeping**: the busy-controller set holds exactly the
    ///    controllers with operations in flight, and the `mem_*` counters
    ///    equal the controllers' own totals.
    ///
    /// Panics on violation.
    pub fn check_invariants(&self, quiescent: bool) {
        use std::collections::BTreeMap as Map;
        for (cl, m) in self.memctrls.iter().enumerate() {
            assert_eq!(
                self.mem_busy.contains(cl),
                !m.is_idle(),
                "busy set at controller {cl}"
            );
        }
        let total = |f: fn(&MemCtrl<CohPayload>) -> u64| self.memctrls.iter().map(f).sum::<u64>();
        assert_eq!(self.stats.mem_reads, total(|m| m.reads), "mem_reads");
        assert_eq!(self.stats.mem_writes, total(|m| m.writes), "mem_writes");
        assert_eq!(
            self.stats.mem_queue_cycles,
            total(|m| m.queue_cycles),
            "mem_queue_cycles"
        );
        let mut m_holder: Map<Addr, CoreId> = Map::new();
        let mut s_count: Map<Addr, u32> = Map::new();
        for (ci, cm) in self.cores.iter().enumerate() {
            for (addr, st) in cm.l2.resident() {
                match st {
                    #[expect(clippy::cast_possible_truncation, reason = "cores ≤ 1024 fit u16")]
                    LineState::M => {
                        if let Some(prev) = m_holder.insert(addr, CoreId(ci as u16)) {
                            panic!("two M holders for {addr:?}: {prev:?} and core {ci}");
                        }
                    }
                    LineState::S => *s_count.entry(addr).or_insert(0) += 1,
                    LineState::I => unreachable!(),
                }
            }
        }
        for addr in m_holder.keys() {
            assert_eq!(
                s_count.get(addr),
                None,
                "M and S copies coexist for {addr:?}"
            );
        }
        for (addr, queue) in &self.waiters {
            let state = self.dir.get(addr);
            assert!(
                !queue.is_empty() && state.is_some_and(DirState::is_transient),
                "{} requests queued for {addr:?} in directory state {state:?}",
                queue.len()
            );
        }
        if !quiescent {
            return;
        }
        assert!(
            self.waiters.is_empty(),
            "requests still queued at quiescence: {:?}",
            self.waiters
        );
        for (addr, state) in &self.dir {
            match state {
                DirState::Modified(owner) => {
                    assert_eq!(
                        m_holder.get(addr),
                        Some(owner),
                        "directory M owner mismatch for {addr:?}"
                    );
                }
                DirState::Shared(sharers) => {
                    let actual = s_count.get(addr).copied().unwrap_or(0);
                    match self.protocol {
                        ProtocolKind::AckWise { .. } => assert_eq!(
                            sharers.count(),
                            actual,
                            "ACKwise sharer count mismatch for {addr:?}"
                        ),
                        ProtocolKind::DirB { .. } => assert!(
                            sharers.count() >= actual,
                            "Dir_kB sharer undercount for {addr:?}"
                        ),
                    }
                }
                DirState::Uncached => {}
                s @ (DirState::WaitMem { .. }
                | DirState::WaitMemShared { .. }
                | DirState::WaitAcks { .. }
                | DirState::WaitWb { .. }
                | DirState::WaitFlush { .. }) => {
                    panic!("transient state {s:?} at quiescence for {addr:?}")
                }
            }
        }
    }

    /// L2 state of a line at a core (test helper).
    pub fn l2_state(&self, core: CoreId, addr: Addr) -> LineState {
        self.cores[core.idx()].l2.state(addr.line_base())
    }

    /// Requests now queued at the directory behind in-flight transactions
    /// (test helper).
    pub fn queued_requests(&self) -> usize {
        self.waiters.values().map(VecDeque::len).sum()
    }
}
