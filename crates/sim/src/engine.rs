//! The execution-driven full-system simulation loop.
//!
//! This is the reproduction's stand-in for Graphite: it runs a
//! [`BuiltWorkload`]'s per-core scripts on in-order single-issue cores
//! over the simulated memory hierarchy and network, with full
//! back-pressure — a core blocks on its cache miss until the coherence
//! transaction (and every network queue it crosses) completes, so network
//! latency propagates into application runtime exactly as the paper
//! requires of an execution-driven evaluation (§I's critique of
//! trace-driven studies).
//!
//! The loop is cycle-driven while any traffic is in flight and
//! *skip-ahead* otherwise: when the network is empty, no protocol
//! messages are queued, and every core is stalled with a known wake-up
//! time, the clock jumps straight to the next event. This keeps 1024-core
//! runs fast through the compute-heavy stretches.

// Hot path (atac-audit `HOT_PATH_FILES`): panics and lossy casts need an `#[expect]`.
#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use atac_coherence::{AccessResult, Addr, CoherenceStats, MemorySystem};
use atac_net::{CoreId, Cycle, Delivery, NetStats, Network};
use atac_phys::units::{JouleSeconds, Seconds};
use atac_trace::{
    AdvanceCause, EpochSample, HostPhase, HostProfiler, NetObsHandle, NetSubPhase, ProbeHandle,
    TxnEvent, TxnPhase,
};
use atac_workloads::{BuiltWorkload, Op};

use crate::config::SimConfig;
use crate::energy::{integrate, EnergyBreakdown};

/// Instruction bytes per cache line (4-byte instructions, 64-byte lines).
const INSTRS_PER_LINE: u64 = 16;
/// Per-core loop footprint in instruction-cache lines (8 KB of code —
/// resident in the 32 KB L1-I after warm-up, as real kernels are).
const CODE_LINES: u64 = 128;
/// Base of the (private, read-only) code region in the address space.
const CODE_BASE: u64 = 0xF000_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    /// Will execute its next op when the clock reaches its heap entry.
    Scheduled,
    /// Waiting for an MSHR completion.
    BlockedOnMiss,
    /// Arrived at a barrier.
    AtBarrier,
    /// Script exhausted.
    Done,
}

struct CoreCtx {
    pc: usize,
    state: CoreState,
    instrs: u64,
}

/// The outcome of one full-system run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Application completion time in cycles.
    pub cycles: Cycle,
    /// Total instructions executed across all cores.
    pub instructions: u64,
    /// Average per-core IPC (≤ 1 for the in-order single-issue core).
    pub ipc: f64,
    /// Network event counters.
    pub net: atac_net::NetStats,
    /// Memory-subsystem event counters.
    pub coh: atac_coherence::CoherenceStats,
    /// Integrated energy breakdown.
    pub energy: EnergyBreakdown,
    /// Architecture name.
    pub arch: String,
    /// Workload name.
    pub workload: &'static str,
}

impl SimResult {
    /// Completion time in seconds.
    pub fn runtime(&self, cfg: &SimConfig) -> Seconds {
        cfg.cycle_time() * self.cycles as f64
    }

    /// Energy-delay product (the paper's headline metric, Fig. 8).
    pub fn edp(&self, cfg: &SimConfig) -> JouleSeconds {
        self.energy.total() * self.runtime(cfg)
    }
}

/// Run one workload on one configuration to completion.
pub fn run(cfg: &SimConfig, workload: &BuiltWorkload) -> SimResult {
    run_with_probe(cfg, workload, ProbeHandle::default(), None)
}

/// Run one workload with instrumentation attached.
///
/// `probe` receives message-delivery, optical-transmission and
/// coherence-transaction lifecycle events from every layer; if
/// `epoch_cycles` is `Some(n)` (and the probe is enabled) an epoch
/// sampler additionally emits counter-delta time-series samples every
/// `n` cycles. With a disabled probe this is exactly [`run`]: every
/// probe point is a single dead branch and the result is bit-identical.
pub fn run_with_probe(
    cfg: &SimConfig,
    workload: &BuiltWorkload,
    probe: ProbeHandle,
    epoch_cycles: Option<u64>,
) -> SimResult {
    run_profiled(cfg, workload, probe, epoch_cycles, HostProfiler::default())
}

/// Run one workload with instrumentation *and* host self-profiling.
///
/// `prof` is a lap-timeline handle: the engine (and, via a cloned
/// handle, the memory system) attributes every stretch of host wall
/// time to a [`HostPhase`], so a sweep can report where the simulator's
/// own seconds went. The caller keeps its clone and snapshots the
/// profile with [`HostProfiler::finish`] after the run. Like the probe,
/// the profiler is an observer — it reads the host clock, never
/// simulator state — so a profiled run is bit-identical in simulated
/// results to an unprofiled one (tested below). With both handles
/// disabled this is exactly [`run`].
pub fn run_profiled(
    cfg: &SimConfig,
    workload: &BuiltWorkload,
    probe: ProbeHandle,
    epoch_cycles: Option<u64>,
    prof: HostProfiler,
) -> SimResult {
    run_observed(
        cfg,
        workload,
        probe,
        epoch_cycles,
        prof,
        NetObsHandle::disabled(),
    )
}

/// Run one workload with the full observability stack: probe, host
/// profiler, *and* network observer.
///
/// `obs` receives cycle-domain network events — per-router activity and
/// queue occupancy, per-link flit movement, credit stalls, optical-hub
/// transmissions — plus the engine's own skip-ahead telemetry: every
/// clock advance (with its cause and skipped-cycle count) and every
/// epoch close (with its span and whether a jump coalesced it). Attach
/// an [`atac_trace::NetProfile`] to collect them. Like the probe and
/// profiler, the observer only ever *reads* simulator state, so an
/// observed run is bit-identical to [`run`] (tested below). With all
/// three handles disabled this is exactly [`run`].
pub fn run_observed(
    cfg: &SimConfig,
    workload: &BuiltWorkload,
    probe: ProbeHandle,
    epoch_cycles: Option<u64>,
    prof: HostProfiler,
    obs: NetObsHandle,
) -> SimResult {
    let n = cfg.topo.cores();
    assert_eq!(
        workload.scripts.len(),
        n,
        "workload built for a different core count"
    );
    workload.validate();

    let mut net = cfg.build_network();
    let mut ms = MemorySystem::new(cfg.topo, cfg.protocol);
    // audit: allow(alloc) one-time setup before the cycle loop
    net.set_probe(probe.clone());
    // audit: allow(alloc) one-time setup before the cycle loop
    ms.set_probe(probe.clone());
    // The memory system laps its own phases (outbox flush → Coherence,
    // controller tick → Memctrl) on the shared timeline.
    // audit: allow(alloc) one-time setup before the cycle loop
    ms.set_profiler(prof.clone());
    // The network laps its own sub-phases (route compute, switch
    // arbitration, credits, queue ops, hub arbitration, skip-scan) and
    // feeds the per-router/link counters to the observer.
    // audit: allow(alloc) one-time setup before the cycle loop
    net.set_profiler(prof.clone());
    // audit: allow(alloc) one-time setup before the cycle loop
    net.set_observer(obs.clone());
    let mut sampler = epoch_cycles
        .filter(|_| probe.is_enabled())
        .map(|_| EpochSampler::new(cfg));
    // The epoch grid is owned by the engine (not the sampler) so the
    // skip-ahead observer sees epoch closes even when only the network
    // observer is attached — e.g. netprof bench runs with no trace
    // probe, which previously reported zero epochs forever.
    let mut grid = (obs.is_enabled() || sampler.is_some()).then(|| {
        let every = epoch_cycles.unwrap_or(10_000).max(1);
        EpochGrid {
            every,
            start: 0,
            next: every,
        }
    });
    let mut cores: Vec<CoreCtx> = (0..n)
        .map(|_| CoreCtx {
            pc: 0,
            state: CoreState::Scheduled,
            instrs: 0,
        })
        .collect(); // audit: allow(alloc) one-time setup before the cycle loop

    // (wake cycle, core) min-heap.
    #[expect(clippy::cast_possible_truncation, reason = "cores ≤ 1024 fit u16")]
    let mut heap: BinaryHeap<Reverse<(Cycle, u16)>> =
        (0..n as u16).map(|c| Reverse((0, c))).collect(); // audit: allow(alloc) one-time setup
    let mut at_barrier: Vec<u16> = Vec::new(); // audit: allow(alloc) capacity-free; grows to ≤ n once
    let mut running = n; // cores not Done
    let mut deliveries: Vec<Delivery> = Vec::new(); // audit: allow(alloc) capacity-free; reused across cycles
    let mut completed: Vec<CoreId> = Vec::new(); // audit: allow(alloc) capacity-free; reused across cycles
    let mut now: Cycle = 0;
    // The network's next-event horizon, recomputed after every real
    // tick. `Some(0)` forces the first tick; afterwards the network is
    // ticked only when the horizon arrives or the coherence outbox may
    // inject — every gated-out tick would have been a pure no-op.
    let mut net_horizon: Option<Cycle> = Some(0);
    prof.lap(HostPhase::Setup);

    while running > 0 {
        // --- core execution for this cycle ---
        while let Some(&Reverse((t, c))) = heap.peek() {
            if t > now {
                break;
            }
            heap.pop();
            let ci = c as usize;
            debug_assert_eq!(cores[ci].state, CoreState::Scheduled);
            match workload.scripts[ci].get(cores[ci].pc) {
                None => {
                    cores[ci].state = CoreState::Done;
                    running -= 1;
                }
                Some(op) => {
                    cores[ci].pc += 1;
                    match op {
                        Op::Compute(instrs) => {
                            let lat = ifetch(&mut ms, c, &mut cores[ci], instrs.max(1));
                            // audit: allow(alloc) heap capacity peaks at n; pushes amortize
                            heap.push(Reverse((
                                now + Cycle::from(instrs.max(1)) + Cycle::from(lat),
                                c,
                            )));
                        }
                        Op::Load(a) | Op::Store(a) => {
                            let write = matches!(op, Op::Store(_));
                            let flat = ifetch(&mut ms, c, &mut cores[ci], 1);
                            match ms.access(CoreId(c), a, write) {
                                AccessResult::Hit(lat) => {
                                    // audit: allow(alloc) heap capacity peaks at n; pushes amortize
                                    heap.push(Reverse((now + Cycle::from(lat + flat), c)));
                                }
                                AccessResult::Miss => {
                                    cores[ci].state = CoreState::BlockedOnMiss;
                                    probe.txn(&TxnEvent {
                                        core: u32::from(c),
                                        phase: TxnPhase::Begin { write },
                                        at: now,
                                    });
                                }
                            }
                        }
                        Op::Barrier => {
                            cores[ci].state = CoreState::AtBarrier;
                            at_barrier.push(c); // audit: allow(alloc) bounded by n; capacity amortized
                            if at_barrier.len() == running {
                                for &b in &at_barrier {
                                    cores[b as usize].state = CoreState::Scheduled;
                                    // audit: allow(alloc) heap capacity peaks at n; pushes amortize
                                    heap.push(Reverse((now + 1, b)));
                                }
                                at_barrier.clear();
                            }
                        }
                    }
                }
            }
        }

        prof.lap(HostPhase::Replay);

        // --- network + memory subsystem ---
        // Tick the network only when it can actually act: the horizon
        // computed at the last tick has arrived, or the coherence
        // outbox may inject new flits this cycle. [`Network::next_event`]
        // is never later than the next real state change, so a gated-out
        // tick would have been a pure no-op — results stay bit-identical
        // while idle network stretches cost nothing, even when cores
        // keep the clock stepping one cycle at a time.
        let may_inject = ms.outbox_pending();
        ms.flush_outbox(net.as_mut(), now); // laps Coherence internally
        let net_ticked = may_inject || net_horizon.is_some_and(|h| h <= now);
        if net_ticked {
            prof.net_tick(); // announce the tick; decide sub-lap sampling
            net.tick(now);
            net.drain_deliveries(&mut deliveries);
            // Attribute the delivery drain (and any untracked remainder
            // of the network stretch) so the sub-phases tile the
            // Network lap.
            prof.net_lap(NetSubPhase::QueueOps);
            // A still-pending outbox forces a tick at `now + 1` no
            // matter what the network says, so the horizon scan can
            // wait until after that tick. Same tick decisions, one
            // fewer active-list scan on injection-heavy cycles.
            net_horizon = if ms.outbox_pending() {
                Some(now + 1)
            } else {
                net.next_event(now)
            };
            // Close the network stretch only on cycles that actually
            // ticked the network: a gated-out cycle has nothing to
            // attribute, and the unconditional clock read used to charge
            // pure measurement overhead to the network phase on every
            // quiet cycle.
            prof.lap(HostPhase::Network);
        }
        for d in deliveries.drain(..) {
            ms.handle_delivery(&d, now);
        }
        prof.lap(HostPhase::Coherence);
        ms.memctrl_tick(now); // laps Memctrl internally
        ms.drain_completions(&mut completed);
        for c in completed.drain(..) {
            debug_assert_eq!(cores[c.idx()].state, CoreState::BlockedOnMiss);
            cores[c.idx()].state = CoreState::Scheduled;
            probe.txn(&TxnEvent {
                core: u32::from(c.0),
                phase: TxnPhase::End,
                at: now,
            });
            // audit: allow(alloc) heap capacity peaks at n; pushes amortize
            heap.push(Reverse((now + 1, c.0)));
        }
        prof.lap(HostPhase::Coherence);

        // --- advance the clock (skip-ahead when the chip is quiet) ---
        // Every subsystem reports the earliest future cycle at which it
        // can act and the clock jumps straight to the soonest one. The
        // network's own horizon ([`Network::next_event`]) is never later
        // than its next real state change, so jumping over the gap skips
        // only no-op ticks — the run stays bit-identical. A pending
        // coherence outbox can inject on the very next cycle, so it pins
        // the network horizon there.
        let next_net = if ms.outbox_pending() {
            Some(now + 1)
        } else {
            net_horizon
        };
        let next_core = heap.peek().map(|&Reverse((t, _))| t);
        let next_mem = ms.next_mem_event();
        let soonest = [next_net, next_core, next_mem].into_iter().flatten().min();
        match soonest {
            Some(at) => {
                let t = at.max(now + 1);
                let cause = if next_net.is_some_and(|a| a == at) {
                    if t == now + 1 {
                        AdvanceCause::Tick
                    } else {
                        AdvanceCause::WakeNet
                    }
                } else if next_core.is_some_and(|a| a == at) {
                    AdvanceCause::WakeCore
                } else {
                    AdvanceCause::WakeMem
                };
                obs.advance(t - now, cause, net_ticked);
                now = t;
            }
            None => {
                if running > 0 {
                    let blocked: Vec<_> = cores
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.state == CoreState::BlockedOnMiss)
                        .map(|(i, _)| i)
                        .collect(); // audit: allow(alloc) deadlock panic path; never runs on a healthy sim
                    panic!(
                        "deadlock at cycle {now}: {running} cores running, \
                         blocked={blocked:?}, barrier_waiters={}",
                        at_barrier.len()
                    );
                }
                break;
            }
        }

        // --- epoch close (observers only; no simulator state) ---
        if let Some(g) = grid.as_mut() {
            if now >= g.next {
                let span = now - g.start;
                obs.epoch(span, span > g.every);
                if let Some(s) = sampler.as_mut() {
                    s.close_epoch(now, cfg, net.as_ref(), &ms, &cores, &probe);
                }
                g.start = now;
                g.next = (now / g.every + 1) * g.every;
            }
        }
        prof.lap(HostPhase::Advance);
    }

    let cycles = now.max(1);
    let instructions: u64 = cores.iter().map(|c| c.instrs).sum();
    let ipc = instructions as f64 / cycles as f64 / n as f64;
    let mut net_stats = net.stats();
    net_stats.cycles = cycles;
    let coh_stats = ms.stats.clone(); // audit: allow(alloc) one-time end-of-run snapshot

    // Trailing partial epoch so the time series covers the whole run.
    if let Some(g) = grid.as_mut() {
        if cycles > g.start {
            let span = cycles - g.start;
            obs.epoch(span, span > g.every);
            if let Some(s) = sampler.as_mut() {
                s.close_epoch(cycles, cfg, net.as_ref(), &ms, &cores, &probe);
            }
            g.start = cycles;
        }
    }
    // Merge the network's batched per-router/link counters into the
    // observer before the profile is read.
    net.flush_obs();
    obs.run_done(cycles);
    let energy = integrate(cfg, &net_stats, &coh_stats, cycles, ipc);
    // Sanitizer: the result is fixed above. Debug builds then drain what
    // the last core left in flight (trailing writebacks and their memory
    // transfers) and require that everything drained — no leaked
    // payload-slab entries, held unicasts, queued outboxes, or
    // un-reported completions.
    if cfg!(debug_assertions) {
        drain_after_run(net.as_mut(), &mut ms, now);
    }
    ms.check_invariants(ms.is_quiescent());
    prof.lap(HostPhase::Integrate);

    SimResult {
        cycles,
        instructions,
        ipc,
        net: net_stats,
        coh: coh_stats,
        energy,
        arch: cfg.arch.name(),
        workload: workload.name,
    }
}

/// Cycles the end-of-run drain may take before the sanitizer calls it a
/// leak; a trailing writeback needs a few network crossings and one
/// memory transfer.
const DRAIN_BOUND: Cycle = 1_000_000;

/// Debug sanitizer: tick the network and memory system, with every
/// observer detached, from the first unsimulated cycle `now` until both
/// are idle. Panics when that takes more than [`DRAIN_BOUND`] cycles or
/// a core miss completes after every core finished.
fn drain_after_run(net: &mut dyn Network, ms: &mut MemorySystem, mut now: Cycle) {
    net.set_probe(ProbeHandle::disabled());
    net.set_profiler(HostProfiler::disabled());
    net.set_observer(NetObsHandle::disabled());
    ms.set_probe(ProbeHandle::disabled());
    ms.set_profiler(HostProfiler::disabled());
    let mut deliveries = Vec::new();
    let mut completed = Vec::new();
    let deadline = now + DRAIN_BOUND;
    while !(ms.is_quiescent() && net.is_idle()) {
        assert!(
            now < deadline,
            "memory system failed to drain within {DRAIN_BOUND} cycles of simulation end"
        );
        ms.flush_outbox(net, now);
        net.tick(now);
        net.drain_deliveries(&mut deliveries);
        for d in deliveries.drain(..) {
            ms.handle_delivery(&d, now);
        }
        ms.memctrl_tick(now);
        ms.drain_completions(&mut completed);
        assert!(
            completed.is_empty(),
            "core miss completed after every core finished: {completed:?}"
        );
        now += 1;
    }
}

/// Charge instruction fetches for `instrs` instructions and return any
/// stall cycles beyond the overlapped single-cycle fetch.
fn ifetch(ms: &mut MemorySystem, core: u16, ctx: &mut CoreCtx, instrs: u32) -> u32 {
    let line = (ctx.instrs / INSTRS_PER_LINE) % CODE_LINES;
    let addr = Addr(CODE_BASE + u64::from(core) * (CODE_LINES * 64) + line * 64);
    ctx.instrs += u64::from(instrs);
    let lat = ms.ifetch_block(CoreId(core), addr, instrs);
    lat.saturating_sub(1) // a hit overlaps with execution
}

/// Field-wise counter delta between two [`NetStats`] snapshots.
/// Saturating: laser mode-cycles are charged in bulk at transmission
/// start, so a coalesced epoch can observe the charge before the cycles
/// it covers have elapsed.
fn net_delta(cur: &NetStats, prev: &NetStats) -> NetStats {
    let mut d = NetStats::default();
    for ((name, c), (_, p)) in cur.fields().into_iter().zip(prev.fields()) {
        let known = d.set_field(name, c.saturating_sub(p));
        debug_assert!(known, "unknown NetStats field {name}");
    }
    d
}

/// Field-wise counter delta between two [`CoherenceStats`] snapshots.
fn coh_delta(cur: &CoherenceStats, prev: &CoherenceStats) -> CoherenceStats {
    let mut d = CoherenceStats::default();
    for ((name, c), (_, p)) in cur.fields().into_iter().zip(prev.fields()) {
        let known = d.set_field(name, c.saturating_sub(p));
        debug_assert!(known, "unknown CoherenceStats field {name}");
    }
    d
}

/// The engine-owned epoch boundary grid: nominal boundaries every
/// `every` cycles, with a skip-ahead jump that crosses several
/// boundaries closing one *coalesced* epoch spanning the whole jump.
/// Active whenever any epoch consumer is attached — the trace sampler,
/// the network observer, or both — and drives them in lock-step so
/// their epoch counts always reconcile.
#[derive(Debug)]
struct EpochGrid {
    /// Nominal epoch length in cycles.
    every: u64,
    /// First cycle of the currently open epoch.
    start: Cycle,
    /// Next nominal boundary to close at.
    next: Cycle,
}

/// The engine's epoch sampler: snapshots the event counters every
/// `every` cycles and emits the delta (plus instantaneous queue/stall
/// state and the epoch's integrated energy) as an [`EpochSample`].
///
/// Sampling happens after the clock advance, so a skip-ahead jump that
/// crosses several nominal boundaries produces one *coalesced* sample
/// covering the whole jump — `EpochSample::start`/`end` record the
/// actual span. The sampler only ever reads simulator state; it is
/// constructed solely when a probe is attached, so untraced runs carry
/// no per-cycle cost beyond one `Option` test.
#[derive(Debug)]
struct EpochSampler {
    /// First cycle of the currently open epoch (boundaries themselves
    /// are driven by the engine's [`EpochGrid`]).
    start: Cycle,
    prev_net: NetStats,
    prev_coh: CoherenceStats,
    prev_instrs: u64,
    /// Optical SWMR links on the chip (one per cluster hub; 0 for the
    /// electrical meshes). Laser idle time per Table V is
    /// `links × span − unicast − broadcast` mode cycles.
    laser_links: u64,
}

impl EpochSampler {
    fn new(cfg: &SimConfig) -> Self {
        EpochSampler {
            start: 0,
            prev_net: NetStats::default(),
            prev_coh: CoherenceStats::default(),
            prev_instrs: 0,
            laser_links: if cfg.arch.is_optical() {
                cfg.topo.clusters() as u64
            } else {
                0
            },
        }
    }

    /// Close the epoch `[self.start, upto)`: emit its sample and roll
    /// the counter snapshots forward. Callers guarantee `upto > start`.
    fn close_epoch(
        &mut self,
        upto: Cycle,
        cfg: &SimConfig,
        net: &dyn Network,
        ms: &MemorySystem,
        cores: &[CoreCtx],
        probe: &ProbeHandle,
    ) {
        debug_assert!(upto > self.start);
        let cur_net = net.stats();
        let cur_coh = ms.stats.clone();
        let instrs: u64 = cores.iter().map(|c| c.instrs).sum();
        let dnet = net_delta(&cur_net, &self.prev_net);
        let dcoh = coh_delta(&cur_coh, &self.prev_coh);

        let span = upto - self.start;
        let epoch_ipc = (instrs - self.prev_instrs) as f64 / span as f64 / cfg.topo.cores() as f64;
        let energy = integrate(cfg, &dnet, &dcoh, span, epoch_ipc).total();
        let active = dnet.laser_unicast_cycles + dnet.laser_broadcast_cycles;
        let stalled = cores
            .iter()
            .filter(|c| c.state == CoreState::BlockedOnMiss)
            .count() as u64;

        probe.epoch(&EpochSample {
            start: self.start,
            end: upto,
            laser_idle_cycles: (span * self.laser_links).saturating_sub(active),
            laser_unicast_cycles: dnet.laser_unicast_cycles,
            laser_broadcast_cycles: dnet.laser_broadcast_cycles,
            enet_link_traversals: dnet.link_traversals,
            onet_flits_sent: dnet.onet_flits_sent,
            receive_net_flits: dnet.receive_net_unicast_flits + dnet.receive_net_broadcast_flits,
            flits_injected: dnet.flits_injected,
            stalled_cores: stalled,
            outbox_depth: ms.outbox_depth() as u64,
            energy,
        });

        self.start = upto;
        self.prev_net = cur_net;
        self.prev_coh = cur_coh;
        self.prev_instrs = instrs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atac_workloads::{Benchmark, Scale};

    fn quick(cfg: SimConfig, b: Benchmark) -> SimResult {
        let w = b.build(cfg.topo.cores(), Scale::Test);
        run(&cfg, &w)
    }

    #[test]
    fn trailing_work_drains_at_every_buffer_depth() {
        // Radix's last core finishes with writebacks still in flight
        // (buf2 leaves a live payload, buf8 a busy memory controller). A
        // debug `run` drains them after the snapshot, then checks the
        // quiescent coherence invariants.
        let w = Benchmark::Radix.build(64, Scale::Paper);
        for buffer_depth in [2, 4, 8] {
            let cfg = SimConfig {
                buffer_depth,
                ..SimConfig::small()
            };
            assert!(run(&cfg, &w).cycles > 0);
        }
    }

    #[test]
    fn runs_ocean_on_atac_plus() {
        let r = quick(SimConfig::small(), Benchmark::OceanContig);
        assert!(r.cycles > 100);
        assert!(r.instructions > 1000);
        assert!(r.ipc > 0.0 && r.ipc <= 1.0);
        assert!(r.coh.l2_misses > 0);
        assert!(r.net.unicast_received > 0);
    }

    #[test]
    fn runs_every_benchmark_on_every_arch() {
        use crate::config::Arch;
        for arch in [Arch::EMeshPure, Arch::EMeshBcast, Arch::atac_plus()] {
            for b in [Benchmark::Radix, Benchmark::Barnes, Benchmark::DynamicGraph] {
                let cfg = SimConfig {
                    arch,
                    ..SimConfig::small()
                };
                let r = quick(cfg, b);
                assert!(r.cycles > 0, "{arch:?} {b:?}");
                assert!(r.energy.total().value() > 0.0);
            }
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        let go = || {
            let r = quick(SimConfig::small(), Benchmark::Radix);
            (
                r.cycles,
                r.instructions,
                r.net.flits_injected,
                r.coh.inv_broadcasts,
            )
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn broadcast_heavy_apps_broadcast() {
        let r = quick(SimConfig::small(), Benchmark::Barnes);
        assert!(
            r.coh.inv_broadcasts > 0,
            "barnes must trigger ACKwise broadcasts"
        );
    }

    #[test]
    fn pure_mesh_pays_broadcast_expansion() {
        // At this miniature scale runtime deltas are noise, but the flit
        // accounting is exact: EMesh-Pure expands every broadcast into
        // 63 unicast packets.
        let mk = |arch| SimConfig {
            arch,
            ..SimConfig::small()
        };
        let pure = quick(mk(crate::config::Arch::EMeshPure), Benchmark::DynamicGraph);
        let bcast = quick(mk(crate::config::Arch::EMeshBcast), Benchmark::DynamicGraph);
        assert!(pure.coh.inv_broadcasts > 0);
        assert!(
            pure.net.flits_injected > bcast.net.flits_injected,
            "pure {} vs bcast {}",
            pure.net.flits_injected,
            bcast.net.flits_injected
        );
    }

    #[test]
    fn traced_run_is_bit_identical_and_reconciles() {
        use atac_trace::TraceCollector;
        use std::cell::RefCell;
        use std::rc::Rc;

        let cfg = SimConfig::small();
        let w = Benchmark::Radix.build(cfg.topo.cores(), Scale::Test);
        let plain = run(&cfg, &w);

        let collector = Rc::new(RefCell::new(TraceCollector::new()));
        let probe = ProbeHandle::attach(Rc::clone(&collector));
        let traced = run_with_probe(&cfg, &w, probe, Some(500));

        // Probes are observers only: the traced result must be
        // bit-identical to the untraced one.
        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(plain.instructions, traced.instructions);
        assert_eq!(plain.ipc.to_bits(), traced.ipc.to_bits());
        assert_eq!(plain.net.fields(), traced.net.fields());
        assert_eq!(plain.coh.fields(), traced.coh.fields());
        assert_eq!(
            plain.energy.total().value().to_bits(),
            traced.energy.total().value().to_bits()
        );

        let c = collector.borrow();
        // Every delivery NetStats counted landed in a histogram.
        assert_eq!(
            c.total_net_deliveries(),
            traced.net.unicast_received + traced.net.broadcast_received
        );
        // All transactions saw Begin..End; none left open.
        assert_eq!(c.open_txn_count(), 0);
        // Epochs tile the run: contiguous, ending at completion.
        let epochs = c.epochs();
        assert!(!epochs.is_empty());
        assert_eq!(epochs[0].start, 0);
        assert_eq!(epochs.last().unwrap().end, traced.cycles);
        for pair in epochs.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        // Laser-mode occupancy (Table V): the per-epoch deltas telescope
        // to the run totals, and idle stays within the link-cycle budget
        // (mode cycles are charged in bulk at burst start, so one epoch
        // may carry charge for cycles that elapse in the next).
        let links = cfg.topo.clusters() as u64;
        let uni: u64 = epochs.iter().map(|e| e.laser_unicast_cycles).sum();
        let bcast: u64 = epochs.iter().map(|e| e.laser_broadcast_cycles).sum();
        assert_eq!(uni, traced.net.laser_unicast_cycles);
        assert_eq!(bcast, traced.net.laser_broadcast_cycles);
        assert!(uni + bcast > 0, "radix on ATAC+ must use the ONet");
        for e in epochs {
            assert!(e.laser_idle_cycles <= links * e.span_cycles());
            assert!(e.energy.value() > 0.0);
        }
    }

    #[test]
    fn profiled_run_is_bit_identical_and_laps_cover_the_run() {
        use atac_trace::{HostPhase, HostProfiler, TraceCollector};

        let cfg = SimConfig::small();
        let w = Benchmark::Radix.build(cfg.topo.cores(), Scale::Test);
        let plain = run(&cfg, &w);

        // Profile *and* trace together: the strongest observer load.
        let (_collector, probe) = TraceCollector::metrics_worker();
        let prof = HostProfiler::enabled();
        let profiled = run_profiled(&cfg, &w, probe, None, prof.clone());

        // Profilers read the host clock, never simulator state: the
        // profiled result must be bit-identical to the plain one.
        assert_eq!(plain.cycles, profiled.cycles);
        assert_eq!(plain.instructions, profiled.instructions);
        assert_eq!(plain.ipc.to_bits(), profiled.ipc.to_bits());
        assert_eq!(plain.net.fields(), profiled.net.fields());
        assert_eq!(plain.coh.fields(), profiled.coh.fields());
        assert_eq!(
            plain.energy.total().value().to_bits(),
            profiled.energy.total().value().to_bits()
        );

        let profile = prof.finish().expect("profiler enabled");
        // The lap timeline is contiguous from creation through
        // Integrate, so the phases must tile (nearly) the whole wall
        // time — the ≥ 90 % acceptance bound with slack only for the
        // finish() call itself.
        assert!(
            profile.coverage() >= 0.9,
            "phase laps cover {:.1}% of {:.4}s",
            profile.coverage() * 100.0,
            profile.total_secs
        );
        // The run's main phases all saw host time.
        for phase in [
            HostPhase::Replay,
            HostPhase::Network,
            HostPhase::Coherence,
            HostPhase::Advance,
        ] {
            assert!(
                profile.phase_secs(phase) > 0.0,
                "phase {} never lapped",
                phase.name()
            );
        }
    }

    #[test]
    fn observed_run_is_bit_identical_and_counters_reconcile() {
        use atac_trace::{NetProfile, TraceCollector};
        use std::cell::RefCell;
        use std::rc::Rc;

        let cfg = SimConfig::small();
        let w = Benchmark::Radix.build(cfg.topo.cores(), Scale::Test);
        let plain = run(&cfg, &w);

        let collector = Rc::new(RefCell::new(TraceCollector::new()));
        let probe = ProbeHandle::attach(Rc::clone(&collector));
        let netprof = Rc::new(RefCell::new(NetProfile::new()));
        let obs = NetObsHandle::attach(Rc::clone(&netprof));
        let prof = HostProfiler::enabled_with_netprof(true);
        let observed = run_observed(&cfg, &w, probe, Some(500), prof, obs);

        // The observer only reads simulator state: bit-identical result.
        assert_eq!(plain.cycles, observed.cycles);
        assert_eq!(plain.instructions, observed.instructions);
        assert_eq!(plain.ipc.to_bits(), observed.ipc.to_bits());
        assert_eq!(plain.net.fields(), observed.net.fields());
        assert_eq!(plain.coh.fields(), observed.coh.fields());
        assert_eq!(
            plain.energy.total().value().to_bits(),
            observed.energy.total().value().to_bits()
        );

        let p = netprof.borrow();
        // The skip-ahead ledger partitions the clock: every simulated
        // cycle was either ticked through or skipped over.
        assert_eq!(p.cycles, observed.cycles);
        assert_eq!(p.ticks_executed + p.cycles_skipped, p.cycles, "{p:?}");
        // Radix on this miniature ATAC+ both ticks (traffic in flight)
        // and jumps (compute stretches with a known wake-up).
        assert!(p.ticks_executed > 0);
        assert!(p.skip_jumps > 0, "skip-ahead never engaged");
        assert_eq!(p.skip_fraction() > 0.0, p.cycles_skipped > 0);
        assert!(p.wake_core + p.wake_mem + p.wake_net >= p.skip_jumps);
        // The epoch grid runs whenever an observer is attached, and a
        // run with skip-ahead jumps must coalesce at least one epoch.
        assert!(p.epochs_closed > 0, "epoch grid never closed an epoch");
        // The router-granularity ledger tiles router time: every
        // router-cycle was either a processed tick or skipped by that
        // router's next-event horizon — and the mesh actually skips
        // (idle routers are never pulled off the active list).
        assert_eq!(
            p.router_ticks() + p.router_cycles_skipped(),
            p.router_cycles()
        );
        assert!(
            p.router_cycles_skipped() > 0,
            "per-router skip never engaged"
        );
        assert!(p.router_skip_fraction() > 0.0);
        // Router counters reconcile with the run's NetStats: every
        // crossbar traversal was observed, on a router that was active.
        assert_eq!(p.total_flits_routed(), observed.net.xbar_traversals);
        assert!(!p.routers.is_empty());
        for (r, ro) in p.routers.iter().enumerate() {
            assert!(ro.active_cycles <= p.cycles, "router {r}: {ro:?}");
            assert!(ro.flits_routed == 0 || ro.active_cycles > 0, "router {r}");
            assert!(ro.idle_fraction(p.cycles) <= 1.0);
            assert_eq!(ro.occupancy_hist.iter().sum::<u64>(), ro.active_cycles);
        }
        // Per-link counters never exceed the per-router totals.
        let link_sum: u64 = p.link_flits.iter().sum();
        assert!(link_sum <= p.total_flits_routed());
        // The optical hubs transmitted (radix on ATAC+ uses the ONet).
        let hub_total: u64 =
            p.hub_unicast_flits.iter().sum::<u64>() + p.hub_broadcast_flits.iter().sum::<u64>();
        assert!(hub_total > 0);
    }

    #[test]
    fn observer_only_runs_still_close_epochs() {
        // The bench executor attaches a network observer but no trace
        // probe and no epoch request; the engine-owned grid must still
        // close (default-length) epochs, and a run whose clock jumps
        // must coalesce at least one of them. This is the regression
        // test for the long-standing "epochs closed 0 across every
        // netprof sweep" hole.
        use atac_trace::NetProfile;
        use std::cell::RefCell;
        use std::rc::Rc;

        let cfg = SimConfig::small();
        let w = Benchmark::Radix.build(cfg.topo.cores(), Scale::Test);
        let netprof = Rc::new(RefCell::new(NetProfile::new()));
        let obs = NetObsHandle::attach(Rc::clone(&netprof));
        let r = run_observed(
            &cfg,
            &w,
            ProbeHandle::default(),
            None,
            HostProfiler::default(),
            obs,
        );

        let p = netprof.borrow();
        assert!(p.epochs_closed > 0, "no epochs with observer attached");
        // Closes land on the default 10k-cycle grid: one per boundary
        // crossed (jumps can merge several) plus the trailing partial.
        assert!(p.epochs_closed <= r.cycles / 10_000 + 1);
        assert!(p.max_epoch_span > 0);
        // An epoch is coalesced exactly when a jump stretched it past
        // the nominal length — the ledger and the span witness agree.
        assert_eq!(p.coalesced_epochs > 0, p.max_epoch_span > 10_000, "{p:?}");
    }

    #[test]
    fn net_sub_phases_cover_the_network_lap() {
        let cfg = SimConfig::small();
        let w = Benchmark::Radix.build(cfg.topo.cores(), Scale::Test);
        let prof = HostProfiler::enabled_with_netprof(true);
        let r = run_observed(
            &cfg,
            &w,
            ProbeHandle::default(),
            None,
            prof.clone(),
            NetObsHandle::disabled(),
        );
        assert!(r.cycles > 0);

        let profile = prof.finish().expect("profiler enabled");
        assert!(profile.phase_secs(HostPhase::Network) > 0.0);
        // The sub-phase laps are anchored to tile exactly the network
        // stretch of the engine loop; ≥95 % is the acceptance bound.
        assert!(
            profile.net_sub_coverage() >= 0.95,
            "sub-phases cover {:.1}% of the network phase ({:?})",
            profile.net_sub_coverage() * 100.0,
            profile.net_phases().collect::<Vec<_>>()
        );
        // The always-on stretches saw host time.
        for sub in [NetSubPhase::SkipScan, NetSubPhase::QueueOps] {
            assert!(
                profile.net_sub(sub) > 0.0,
                "sub-phase {} never lapped",
                sub.name()
            );
        }
    }

    #[test]
    fn epoch_coalescing_reconciles_with_the_sampled_time_series() {
        use atac_trace::{NetProfile, TraceCollector};
        use std::cell::RefCell;
        use std::rc::Rc;

        let every = 200;
        let cfg = SimConfig::small();
        let w = Benchmark::Radix.build(cfg.topo.cores(), Scale::Test);
        let collector = Rc::new(RefCell::new(TraceCollector::new()));
        let probe = ProbeHandle::attach(Rc::clone(&collector));
        let netprof = Rc::new(RefCell::new(NetProfile::new()));
        let obs = NetObsHandle::attach(Rc::clone(&netprof));
        run_observed(&cfg, &w, probe, Some(every), HostProfiler::default(), obs);

        let c = collector.borrow();
        let epochs = c.epochs();
        let p = netprof.borrow();
        // Every epoch the sampler emitted was observed, and the
        // coalescing verdicts match the actual sample spans: an epoch is
        // coalesced exactly when a skip-ahead jump (or the trailing
        // close) stretched it past the nominal length.
        assert_eq!(p.epochs_closed, epochs.len() as u64);
        let coalesced = epochs.iter().filter(|e| e.span_cycles() > every).count() as u64;
        assert_eq!(p.coalesced_epochs, coalesced);
        let max_span = epochs.iter().map(|e| e.span_cycles()).max().unwrap_or(0);
        assert_eq!(p.max_epoch_span, max_span);
        assert!(p.epochs_closed > 0);
    }

    #[test]
    fn ipc_reflects_stalls() {
        // The same workload on a slower network must lose IPC — stalls
        // propagate into the execution-driven core model.
        let fast = quick(SimConfig::small(), Benchmark::DynamicGraph);
        let slow = quick(
            SimConfig {
                arch: crate::config::Arch::EMeshPure,
                ..SimConfig::small()
            },
            Benchmark::DynamicGraph,
        );
        assert!(
            fast.ipc > slow.ipc,
            "ATAC+ ipc {} should beat EMesh-Pure ipc {}",
            fast.ipc,
            slow.ipc
        );
    }
}
