//! Cycle-domain network observability: per-router/link counters and
//! skip-ahead efficacy metrics.
//!
//! The host-time story ([`crate::profile`]) says *where the simulator's
//! seconds go*; this module says *what the simulated fabric was doing* —
//! per-router queue-occupancy histograms, credit-stall cycles, flits
//! routed, idle-cycle fractions, broadcast vs unicast hub occupancy, and
//! how effective the engine's skip-ahead advancement is (cycles skipped
//! vs simulated, coalesced-epoch sizes, wakeup causes). Together they
//! are the data the network hot-path work (DESIGN.md §13/§14) is
//! planned and proven from.
//!
//! ## Overhead and determinism guarantee
//!
//! The design mirrors [`crate::ProbeHandle`]: instrumented layers hold a
//! [`NetObsHandle`] whose default is disabled, so every observation
//! point costs one branch on an `Option` discriminant. Observers are
//! *observers only* — they receive copies of counters and never feed
//! anything back — so an observed run is bit-identical to an unobserved
//! one by construction.
//!
//! All counters are integers, which makes worker-merge order-independent
//! exactly (no float rounding): [`NetProfile::merge`] is commutative and
//! associative, with [`NetProfile::default`] as the identity, and the
//! tests pin both properties.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::probe::TrafficKind;

/// Mesh link directions per router (N/E/S/W).
pub const LINKS_PER_ROUTER: usize = 4;

/// Number of queue-occupancy histogram buckets.
pub const OCC_BUCKETS: usize = 6;

/// Display labels for the occupancy buckets, in bucket order
/// (total buffered flits across a router's input queues).
pub const OCC_BUCKET_LABELS: [&str; OCC_BUCKETS] = ["0", "1-2", "3-4", "5-8", "9-16", "17+"];

/// Bucket index for a total buffered-flit occupancy.
pub fn occ_bucket(occ: usize) -> usize {
    match occ {
        0 => 0,
        1..=2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

/// Number of packet-run-length histogram buckets.
pub const RUN_BUCKETS: usize = 6;

/// Display labels for the packet-run-length buckets, in bucket order
/// (flits moved per switch grant through the wormhole fast path).
pub const RUN_BUCKET_LABELS: [&str; RUN_BUCKETS] = ["1", "2", "3-4", "5-8", "9-16", "17+"];

/// Bucket index for a packet-run length (flits moved in one grant).
pub fn run_bucket(len: usize) -> usize {
    match len {
        0..=1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

/// Why the engine's clock advanced: a normal busy-network tick, or a
/// skip-ahead jump to the next core / memory-controller event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvanceCause {
    /// Network or coherence work pending: the clock moved by one.
    Tick,
    /// Idle fabric; jumped to the next core wakeup.
    WakeCore,
    /// Idle fabric; jumped to the next memory-controller event.
    WakeMem,
    /// Traffic in flight but nothing ready: jumped to the network's own
    /// next-event horizon (per-router `next_ready` minimum).
    WakeNet,
}

/// Receiver of cycle-domain network observations.
///
/// Every method has a no-op default, so an observer implements only
/// what it cares about. Parameters are plain `usize`/`u64` so call
/// sites in the hot path never cast. Observers must not feed anything
/// back into the simulation.
pub trait NetObserver: fmt::Debug {
    /// Router `r` was ticked while active; `occ` is the total number of
    /// flits buffered across its input queues at the start of the tick.
    fn router_cycle(&mut self, r: usize, occ: usize) {
        let _ = (r, occ);
    }

    /// Router `r` moved one flit to output port `port`
    /// (`0..LINKS_PER_ROUTER` = mesh links N/E/S/W; higher ports are
    /// local ejection / hub hand-off).
    fn flit_routed(&mut self, r: usize, port: usize) {
        let _ = (r, port);
    }

    /// Router `r` had a flit ready but the downstream buffer was full.
    fn credit_stall(&mut self, r: usize) {
        let _ = r;
    }

    /// Hub `cluster` transmitted `flits` flits on the optical waveguide
    /// in `kind` mode.
    fn hub_tx(&mut self, cluster: usize, kind: TrafficKind, flits: u64) {
        let _ = (cluster, kind, flits);
    }

    /// The engine advanced the clock by `delta` cycles for `cause`.
    /// `ticked` reports whether the network actually ticked on the
    /// cycle the advance left from — the engine gates `Network::tick`
    /// on the next-event horizon, so the clock can step (for a core or
    /// memory wakeup) across cycles the network never simulates.
    fn advance(&mut self, delta: u64, cause: AdvanceCause, ticked: bool) {
        let _ = (delta, cause, ticked);
    }

    /// The epoch sampler closed an epoch covering `span` cycles;
    /// `coalesced` is true when a skip-ahead jump merged more than one
    /// nominal epoch into the sample.
    fn epoch(&mut self, span: u64, coalesced: bool) {
        let _ = (span, coalesced);
    }

    /// A layer flushed a batch of locally-accumulated counters. Hot
    /// paths that would otherwise cross the observer boundary per event
    /// (per router tick, per flit) may instead accumulate into a private
    /// [`NetProfile`] and hand it over in bulk — typically once per run.
    fn profile_part(&mut self, part: &NetProfile) {
        let _ = part;
    }

    /// The run finished after `cycles` simulated cycles.
    fn run_done(&mut self, cycles: u64) {
        let _ = cycles;
    }
}

/// Shared, cloneable handle the instrumented network layers hold.
///
/// `Default` is the disabled state: every forwarding method is a single
/// `Option` branch. All observer dispatch goes through these inline
/// forwarders — hot-path code never borrows the observer object
/// directly (`atac-audit` rule `probe-api`).
///
/// ## Thread confinement
///
/// Like [`crate::ProbeHandle`], the handle is `Rc`-based and therefore
/// deliberately `!Send`: each sweep worker owns its own collector, and
/// cross-worker aggregation happens by [`NetProfile::merge`] after the
/// fact, in deterministic planned-run order. This is a compile-time
/// guarantee:
///
/// ```compile_fail,E0277
/// use atac_trace::NetObsHandle;
/// fn requires_send<T: Send>(_: T) {}
/// requires_send(NetObsHandle::disabled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetObsHandle(Option<Rc<RefCell<dyn NetObserver>>>);

impl NetObsHandle {
    /// The disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        NetObsHandle(None)
    }

    /// A handle forwarding to `obs`; clone it into each layer.
    pub fn attach<O: NetObserver + 'static>(obs: Rc<RefCell<O>>) -> Self {
        NetObsHandle(Some(obs))
    }

    /// Whether an observer is attached. Layers may use this to skip
    /// *sampling work* (like summing queue occupancy) when disabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Forward an active-router tick with its queue occupancy.
    #[inline]
    pub fn router_cycle(&self, r: usize, occ: usize) {
        if let Some(o) = &self.0 {
            o.borrow_mut().router_cycle(r, occ);
        }
    }

    /// Forward a routed flit.
    #[inline]
    pub fn flit_routed(&self, r: usize, port: usize) {
        if let Some(o) = &self.0 {
            o.borrow_mut().flit_routed(r, port);
        }
    }

    /// Forward a credit stall.
    #[inline]
    pub fn credit_stall(&self, r: usize) {
        if let Some(o) = &self.0 {
            o.borrow_mut().credit_stall(r);
        }
    }

    /// Forward a hub transmission.
    #[inline]
    pub fn hub_tx(&self, cluster: usize, kind: TrafficKind, flits: u64) {
        if let Some(o) = &self.0 {
            o.borrow_mut().hub_tx(cluster, kind, flits);
        }
    }

    /// Forward a clock advance.
    #[inline]
    pub fn advance(&self, delta: u64, cause: AdvanceCause, ticked: bool) {
        if let Some(o) = &self.0 {
            o.borrow_mut().advance(delta, cause, ticked);
        }
    }

    /// Forward a batch of locally-accumulated counters.
    #[inline]
    pub fn profile_part(&self, part: &NetProfile) {
        if let Some(o) = &self.0 {
            o.borrow_mut().profile_part(part);
        }
    }

    /// Forward an epoch close.
    #[inline]
    pub fn epoch(&self, span: u64, coalesced: bool) {
        if let Some(o) = &self.0 {
            o.borrow_mut().epoch(span, coalesced);
        }
    }

    /// Forward the end-of-run cycle count.
    #[inline]
    pub fn run_done(&self, cycles: u64) {
        if let Some(o) = &self.0 {
            o.borrow_mut().run_done(cycles);
        }
    }
}

/// Per-router counters accumulated by [`NetProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterObs {
    /// Flits this router moved to any output (crossbar traversals).
    pub flits_routed: u64,
    /// Cycles a head flit was ready but the downstream buffer was full.
    pub credit_stall_cycles: u64,
    /// Cycles the router was on the active list and ticked; the
    /// complement of idleness (see [`RouterObs::idle_fraction`]).
    pub active_cycles: u64,
    /// Sum of start-of-tick input-queue occupancies over active cycles
    /// (mean occupancy = `occupancy_sum / active_cycles`).
    pub occupancy_sum: u64,
    /// Histogram of start-of-tick occupancies, bucketed by
    /// [`occ_bucket`].
    pub occupancy_hist: [u64; OCC_BUCKETS],
}

impl RouterObs {
    /// Fraction of the run this router was *not* ticked, in `0.0..=1.0`
    /// (the skip-ahead active-list design means idle routers are never
    /// visited).
    pub fn idle_fraction(&self, run_cycles: u64) -> f64 {
        if run_cycles == 0 {
            1.0
        } else {
            1.0 - (self.active_cycles.min(run_cycles) as f64 / run_cycles as f64)
        }
    }

    /// Mean input-queue occupancy over the router's active cycles.
    pub fn mean_occupancy(&self) -> f64 {
        if self.active_cycles == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.active_cycles as f64
        }
    }

    fn merge(&mut self, other: &RouterObs) {
        self.flits_routed += other.flits_routed;
        self.credit_stall_cycles += other.credit_stall_cycles;
        self.active_cycles += other.active_cycles;
        self.occupancy_sum += other.occupancy_sum;
        for (a, b) in self.occupancy_hist.iter_mut().zip(&other.occupancy_hist) {
            *a += *b;
        }
    }
}

/// The standard [`NetObserver`]: accumulates every observation into
/// mergeable integer counters. One per run (or per worker); aggregate
/// with [`NetProfile::merge`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetProfile {
    /// Simulated cycles, summed over merged runs ([`NetObserver::run_done`]).
    pub cycles: u64,
    /// Per-router counters, indexed by router (= tile) id.
    pub routers: Vec<RouterObs>,
    /// Flits per mesh link, indexed `router * LINKS_PER_ROUTER + port`.
    pub link_flits: Vec<u64>,
    /// Optical flits sent per hub in unicast mode, indexed by cluster.
    pub hub_unicast_flits: Vec<u64>,
    /// Optical flits sent per hub in broadcast mode, indexed by cluster.
    pub hub_broadcast_flits: Vec<u64>,
    /// Network ticks actually executed ([`NetObserver::advance`] calls
    /// with `ticked == true`). The engine gates `Network::tick` on the
    /// next-event horizon, so this counts simulated network cycles, not
    /// engine loop iterations.
    pub ticks_executed: u64,
    /// Cycles the network never simulated: whole advances the horizon
    /// gated out, plus `delta - 1` for every clock jump. The invariant
    /// `ticks_executed + cycles_skipped == cycles` is pinned by tests.
    pub cycles_skipped: u64,
    /// Skip-ahead advances that jumped more than one cycle.
    pub skip_jumps: u64,
    /// Skip-ahead advances targeting the next core wakeup.
    pub wake_core: u64,
    /// Skip-ahead advances targeting the next memory-controller event.
    pub wake_mem: u64,
    /// Skip-ahead advances targeting the network's next-event horizon.
    pub wake_net: u64,
    /// Epochs closed by the sampler.
    pub epochs_closed: u64,
    /// Epochs whose span exceeded the nominal epoch length (a
    /// skip-ahead jump coalesced several nominal epochs into one).
    pub coalesced_epochs: u64,
    /// Largest single epoch span observed, in cycles.
    pub max_epoch_span: u64,
    /// Histogram of packet-run lengths: flits moved per switch grant
    /// through the mesh's wormhole path, bucketed by [`run_bucket`].
    /// Bucket 0 counts single-flit grants (head/tail flits and
    /// ejection); higher buckets count the bulk body-run transfers the
    /// packet-granular fast path coalesces into one grant.
    pub run_len_hist: [u64; RUN_BUCKETS],
    /// Switch-arbitration grants decided by the per-router request
    /// bitset (rotate + `trailing_zeros`).
    pub bitset_grants: u64,
    /// Switch-arbitration grants decided by the scalar fallback scan
    /// (routers whose candidate count exceeds the bitset word).
    pub scalar_grants: u64,
}

fn ensure_len<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

impl NetProfile {
    /// An empty profile (merge identity); counters grow on demand as
    /// router/cluster indices are observed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total flits routed across all routers.
    pub fn total_flits_routed(&self) -> u64 {
        self.routers.iter().map(|r| r.flits_routed).sum()
    }

    /// Total credit-stall cycles across all routers.
    pub fn total_credit_stalls(&self) -> u64 {
        self.routers.iter().map(|r| r.credit_stall_cycles).sum()
    }

    /// Fraction of clock advances that were skip-ahead jumps' skipped
    /// cycles — i.e. cycles the engine did *not* simulate, in
    /// `0.0..=1.0`. High values mean skip-ahead is already effective;
    /// low values mean the fabric is busy nearly every cycle.
    pub fn skip_fraction(&self) -> f64 {
        let total = self.ticks_executed + self.cycles_skipped;
        if total == 0 {
            0.0
        } else {
            self.cycles_skipped as f64 / total as f64
        }
    }

    /// Total router-cycles the run advanced through: one per observed
    /// router per simulated cycle. This is the router-granularity
    /// analogue of [`NetProfile::cycles`] — the denominator for
    /// [`NetProfile::router_skip_fraction`]. (Routers that were never
    /// activated are not in `routers` and are excluded, which only
    /// under-counts the skipped share.)
    pub fn router_cycles(&self) -> u64 {
        self.routers.len() as u64 * self.cycles
    }

    /// Router ticks actually executed: cycles a router was pulled off
    /// the mesh's active list and processed. Every other router-cycle
    /// was jumped over by that router's next-event horizon.
    pub fn router_ticks(&self) -> u64 {
        self.routers.iter().map(|r| r.active_cycles).sum()
    }

    /// Router-cycles the per-router next-event horizon skipped without
    /// processing. Ledger invariant: `router_ticks() +
    /// router_cycles_skipped() == router_cycles()`.
    pub fn router_cycles_skipped(&self) -> u64 {
        self.router_cycles().saturating_sub(self.router_ticks())
    }

    /// Fraction of router-cycles skipped by the per-router horizon, in
    /// `0.0..=1.0`. Unlike [`NetProfile::skip_fraction`] — which only
    /// counts cycles where the *whole* network stood still — this
    /// credits every idle region the mesh jumped while other routers
    /// stayed busy, so it approaches the routers' aggregate idle
    /// fraction on a well-gated mesh.
    pub fn router_skip_fraction(&self) -> f64 {
        let total = self.router_cycles();
        if total == 0 {
            0.0
        } else {
            self.router_cycles_skipped() as f64 / total as f64
        }
    }

    /// Total switch grants recorded in the run-length histogram (one
    /// grant per entry, whatever the run length).
    pub fn total_grants(&self) -> u64 {
        self.run_len_hist.iter().sum()
    }

    /// Fold another profile into this one. Element-wise integer sums
    /// (plus `max` for [`NetProfile::max_epoch_span`]), so the result is
    /// independent of merge order and merging with an empty profile is
    /// the identity — both properties are pinned by tests, which is what
    /// lets ATAC_JOBS workers each own a collector and aggregate later.
    pub fn merge(&mut self, other: &NetProfile) {
        self.cycles += other.cycles;
        ensure_len(&mut self.routers, other.routers.len());
        for (a, b) in self.routers.iter_mut().zip(&other.routers) {
            a.merge(b);
        }
        ensure_len(&mut self.link_flits, other.link_flits.len());
        for (a, b) in self.link_flits.iter_mut().zip(&other.link_flits) {
            *a += *b;
        }
        ensure_len(&mut self.hub_unicast_flits, other.hub_unicast_flits.len());
        for (a, b) in self
            .hub_unicast_flits
            .iter_mut()
            .zip(&other.hub_unicast_flits)
        {
            *a += *b;
        }
        ensure_len(
            &mut self.hub_broadcast_flits,
            other.hub_broadcast_flits.len(),
        );
        for (a, b) in self
            .hub_broadcast_flits
            .iter_mut()
            .zip(&other.hub_broadcast_flits)
        {
            *a += *b;
        }
        self.ticks_executed += other.ticks_executed;
        self.cycles_skipped += other.cycles_skipped;
        self.skip_jumps += other.skip_jumps;
        self.wake_core += other.wake_core;
        self.wake_mem += other.wake_mem;
        self.wake_net += other.wake_net;
        self.epochs_closed += other.epochs_closed;
        self.coalesced_epochs += other.coalesced_epochs;
        self.max_epoch_span = self.max_epoch_span.max(other.max_epoch_span);
        for (a, b) in self.run_len_hist.iter_mut().zip(&other.run_len_hist) {
            *a += *b;
        }
        self.bitset_grants += other.bitset_grants;
        self.scalar_grants += other.scalar_grants;
    }

    fn router_mut(&mut self, r: usize) -> &mut RouterObs {
        ensure_len(&mut self.routers, r + 1);
        &mut self.routers[r]
    }
}

impl NetObserver for NetProfile {
    fn router_cycle(&mut self, r: usize, occ: usize) {
        let ro = self.router_mut(r);
        ro.active_cycles += 1;
        ro.occupancy_sum += occ as u64;
        ro.occupancy_hist[occ_bucket(occ)] += 1;
    }

    fn flit_routed(&mut self, r: usize, port: usize) {
        self.router_mut(r).flits_routed += 1;
        if port < LINKS_PER_ROUTER {
            let idx = r * LINKS_PER_ROUTER + port;
            ensure_len(&mut self.link_flits, idx + 1);
            self.link_flits[idx] += 1;
        }
    }

    fn credit_stall(&mut self, r: usize) {
        self.router_mut(r).credit_stall_cycles += 1;
    }

    fn hub_tx(&mut self, cluster: usize, kind: TrafficKind, flits: u64) {
        match kind {
            TrafficKind::Unicast => {
                ensure_len(&mut self.hub_unicast_flits, cluster + 1);
                self.hub_unicast_flits[cluster] += flits;
            }
            TrafficKind::Broadcast => {
                ensure_len(&mut self.hub_broadcast_flits, cluster + 1);
                self.hub_broadcast_flits[cluster] += flits;
            }
        }
    }

    fn advance(&mut self, delta: u64, cause: AdvanceCause, ticked: bool) {
        if ticked {
            self.ticks_executed += 1;
            self.cycles_skipped += delta - 1;
        } else {
            self.cycles_skipped += delta;
        }
        if delta > 1 {
            self.skip_jumps += 1;
        }
        match cause {
            AdvanceCause::Tick => {}
            AdvanceCause::WakeCore => self.wake_core += 1,
            AdvanceCause::WakeMem => self.wake_mem += 1,
            AdvanceCause::WakeNet => self.wake_net += 1,
        }
    }

    fn profile_part(&mut self, part: &NetProfile) {
        self.merge(part);
    }

    fn epoch(&mut self, span: u64, coalesced: bool) {
        self.epochs_closed += 1;
        if coalesced {
            self.coalesced_epochs += 1;
        }
        self.max_epoch_span = self.max_epoch_span.max(span);
    }

    fn run_done(&mut self, cycles: u64) {
        self.cycles += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile(seed: u64) -> NetProfile {
        let mut p = NetProfile::new();
        p.router_cycle(0, 0);
        p.router_cycle(2, 7);
        p.flit_routed(2, 1);
        p.flit_routed(2, 5); // non-link port: no link counter
        p.credit_stall(1);
        p.hub_tx(0, TrafficKind::Unicast, 3 + seed);
        p.hub_tx(1, TrafficKind::Broadcast, 8);
        p.advance(1, AdvanceCause::Tick, true);
        p.advance(5, AdvanceCause::WakeCore, true);
        p.advance(2 + seed, AdvanceCause::WakeMem, true);
        p.advance(3, AdvanceCause::WakeNet, true);
        p.epoch(1000, false);
        p.epoch(2500 + seed, true);
        p.run_done(4 + 4 + 1 + 2 + seed); // ticks (4) + skipped (4 + 1 + 2 + seed)
        p
    }

    #[test]
    fn collects_router_link_and_hub_counters() {
        let p = sample_profile(0);
        assert_eq!(p.routers.len(), 3);
        assert_eq!(p.routers[2].active_cycles, 1);
        assert_eq!(p.routers[2].occupancy_sum, 7);
        assert_eq!(p.routers[2].occupancy_hist[occ_bucket(7)], 1);
        assert_eq!(p.routers[2].flits_routed, 2);
        assert_eq!(p.link_flits[2 * LINKS_PER_ROUTER + 1], 1);
        assert_eq!(
            p.link_flits.iter().sum::<u64>(),
            1,
            "non-link ports charge no link"
        );
        assert_eq!(p.routers[1].credit_stall_cycles, 1);
        assert_eq!(p.hub_unicast_flits[0], 3);
        assert_eq!(p.hub_broadcast_flits[1], 8);
        assert_eq!(p.total_flits_routed(), 2);
        assert_eq!(p.total_credit_stalls(), 1);
    }

    #[test]
    fn skip_ahead_accounting_and_invariant() {
        let p = sample_profile(0);
        assert_eq!(p.ticks_executed, 4);
        assert_eq!(p.cycles_skipped, 7); // (5-1) + (2-1) + (3-1)
        assert_eq!(p.skip_jumps, 3);
        assert_eq!(p.wake_core, 1);
        assert_eq!(p.wake_mem, 1);
        assert_eq!(p.wake_net, 1);
        assert_eq!(p.ticks_executed + p.cycles_skipped, p.cycles);
        assert!((p.skip_fraction() - 7.0 / 11.0).abs() < 1e-12);
        assert_eq!(p.epochs_closed, 2);
        assert_eq!(p.coalesced_epochs, 1);
        assert_eq!(p.max_epoch_span, 2500);
    }

    #[test]
    fn horizon_gated_advances_skip_whole_cycles() {
        let mut p = NetProfile::new();
        p.advance(1, AdvanceCause::Tick, true); // simulated network cycle
        p.advance(1, AdvanceCause::WakeCore, false); // clock stepped; network gated out
        p.advance(4, AdvanceCause::WakeNet, false); // jump across gated-out cycles
        p.run_done(6);
        assert_eq!(p.ticks_executed, 1);
        assert_eq!(p.cycles_skipped, 5);
        assert_eq!(p.skip_jumps, 1, "only the delta > 1 advance is a jump");
        assert_eq!(p.ticks_executed + p.cycles_skipped, p.cycles);
    }

    #[test]
    fn router_granularity_ledger_tiles_router_time() {
        let mut p = NetProfile::new();
        // Three routers observed over a 10-cycle run: router 0 ticked
        // 7 cycles, router 1 ticked 2, router 2 ticked 1.
        for _ in 0..7 {
            p.router_cycle(0, 1);
        }
        p.router_cycle(1, 0);
        p.router_cycle(1, 3);
        p.router_cycle(2, 2);
        p.run_done(10);
        assert_eq!(p.router_cycles(), 30);
        assert_eq!(p.router_ticks(), 10);
        assert_eq!(p.router_cycles_skipped(), 20);
        assert_eq!(
            p.router_ticks() + p.router_cycles_skipped(),
            p.router_cycles()
        );
        assert!((p.router_skip_fraction() - 20.0 / 30.0).abs() < 1e-12);
        // Empty profile: both fractions are defined and zero.
        let empty = NetProfile::new();
        assert_eq!(empty.router_cycles(), 0);
        assert_eq!(empty.router_skip_fraction(), 0.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let p = sample_profile(1);
        let mut merged = NetProfile::new();
        merged.merge(&p);
        assert_eq!(merged, p, "empty.merge(p) == p");
        let mut q = p.clone();
        q.merge(&NetProfile::new());
        assert_eq!(q, p, "p.merge(empty) == p");
    }

    #[test]
    fn merge_is_worker_order_invariant() {
        let parts = [sample_profile(0), sample_profile(7), sample_profile(42)];
        let orders: [[usize; 3]; 3] = [[0, 1, 2], [2, 0, 1], [1, 2, 0]];
        let merged: Vec<NetProfile> = orders
            .iter()
            .map(|order| {
                let mut acc = NetProfile::new();
                for &i in order {
                    acc.merge(&parts[i]);
                }
                acc
            })
            .collect();
        assert_eq!(merged[0], merged[1]);
        assert_eq!(merged[0], merged[2]);
        // And the invariant survives aggregation.
        assert_eq!(
            merged[0].ticks_executed + merged[0].cycles_skipped,
            merged[0].cycles
        );
    }

    #[test]
    fn merge_resizes_to_the_larger_topology() {
        let mut small = NetProfile::new();
        small.router_cycle(0, 1);
        let mut big = NetProfile::new();
        big.router_cycle(5, 2);
        big.flit_routed(5, 3);
        small.merge(&big);
        assert_eq!(small.routers.len(), 6);
        assert_eq!(small.routers[5].active_cycles, 1);
        assert_eq!(small.link_flits[5 * LINKS_PER_ROUTER + 3], 1);
    }

    #[test]
    fn occupancy_buckets_are_dense_and_monotone() {
        assert_eq!(occ_bucket(0), 0);
        assert_eq!(occ_bucket(1), 1);
        assert_eq!(occ_bucket(2), 1);
        assert_eq!(occ_bucket(3), 2);
        assert_eq!(occ_bucket(5), 3);
        assert_eq!(occ_bucket(9), 4);
        assert_eq!(occ_bucket(16), 4);
        assert_eq!(occ_bucket(17), 5);
        assert_eq!(occ_bucket(usize::MAX), 5);
        assert_eq!(OCC_BUCKET_LABELS.len(), OCC_BUCKETS);
    }

    #[test]
    fn run_buckets_are_dense_and_monotone() {
        assert_eq!(run_bucket(0), 0);
        assert_eq!(run_bucket(1), 0);
        assert_eq!(run_bucket(2), 1);
        assert_eq!(run_bucket(3), 2);
        assert_eq!(run_bucket(4), 2);
        assert_eq!(run_bucket(5), 3);
        assert_eq!(run_bucket(8), 3);
        assert_eq!(run_bucket(9), 4);
        assert_eq!(run_bucket(16), 4);
        assert_eq!(run_bucket(17), 5);
        assert_eq!(run_bucket(usize::MAX), 5);
        assert_eq!(RUN_BUCKET_LABELS.len(), RUN_BUCKETS);
    }

    #[test]
    fn merge_accumulates_fast_path_counters() {
        let mut a = NetProfile::new();
        a.run_len_hist[run_bucket(1)] = 3;
        a.bitset_grants = 5;
        let mut b = NetProfile::new();
        b.run_len_hist[run_bucket(1)] = 2;
        b.run_len_hist[run_bucket(7)] = 4;
        b.bitset_grants = 1;
        b.scalar_grants = 2;
        a.merge(&b);
        assert_eq!(a.run_len_hist[0], 5);
        assert_eq!(a.run_len_hist[run_bucket(7)], 4);
        assert_eq!(a.total_grants(), 9);
        assert_eq!(a.bitset_grants, 6);
        assert_eq!(a.scalar_grants, 2);
        // profile_part carries the new counters across the batch flush.
        let obs = Rc::new(RefCell::new(NetProfile::new()));
        NetObsHandle::attach(Rc::clone(&obs)).profile_part(&a);
        assert_eq!(*obs.borrow(), a);
    }

    #[test]
    fn derived_metrics() {
        let r = RouterObs {
            active_cycles: 25,
            occupancy_sum: 50,
            ..Default::default()
        };
        assert!((r.idle_fraction(100) - 0.75).abs() < 1e-12);
        assert!((r.mean_occupancy() - 2.0).abs() < 1e-12);
        assert_eq!(RouterObs::default().idle_fraction(0), 1.0);
        assert_eq!(RouterObs::default().mean_occupancy(), 0.0);
        assert_eq!(NetProfile::new().skip_fraction(), 0.0);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = NetObsHandle::default();
        assert!(!h.is_enabled());
        h.router_cycle(0, 3);
        h.flit_routed(0, 1);
        h.credit_stall(0);
        h.hub_tx(0, TrafficKind::Unicast, 2);
        h.advance(4, AdvanceCause::WakeCore, true);
        h.epoch(100, false);
        h.run_done(10);
    }

    #[test]
    fn attached_handle_forwards_and_shares() {
        let obs = Rc::new(RefCell::new(NetProfile::new()));
        let h = NetObsHandle::attach(Rc::clone(&obs));
        let h2 = h.clone();
        assert!(h.is_enabled());
        h.flit_routed(1, 0);
        h2.flit_routed(1, 0);
        h.advance(3, AdvanceCause::WakeMem, true);
        assert_eq!(obs.borrow().routers[1].flits_routed, 2);
        assert_eq!(obs.borrow().cycles_skipped, 2);
    }

    #[test]
    fn profile_part_merges_batched_counters() {
        // A layer accumulates privately and flushes once: the receiving
        // profile ends up exactly as if every event had been forwarded.
        let mut local = NetProfile::new();
        local.router_cycle(3, 2);
        local.flit_routed(3, 1);
        local.credit_stall(3);

        let obs = Rc::new(RefCell::new(NetProfile::new()));
        let h = NetObsHandle::attach(Rc::clone(&obs));
        h.advance(1, AdvanceCause::Tick, true);
        h.profile_part(&local);
        h.run_done(1);

        let mut direct = NetProfile::new();
        direct.advance(1, AdvanceCause::Tick, true);
        direct.router_cycle(3, 2);
        direct.flit_routed(3, 1);
        direct.credit_stall(3);
        direct.run_done(1);
        assert_eq!(*obs.borrow(), direct);
        // Disabled handles ignore the flush.
        NetObsHandle::disabled().profile_part(&local);
    }
}
