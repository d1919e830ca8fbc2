//! # atac-trace — cross-layer observability for the ATAC+ simulator
//!
//! The paper's evaluation is cross-layer: simulator event counts flow
//! into device-level energy models, and several of its claims are
//! really claims about *distributions and time series* — Table V's
//! laser idle/unicast/broadcast occupancy, Fig. 3's latency-vs-load
//! behavior near saturation. This crate provides the instrumentation
//! spine that makes those observable without perturbing the run:
//!
//! * [`probe`] — the event vocabulary ([`NetDeliver`], [`OnetTx`],
//!   [`TxnEvent`], [`EpochSample`]), the [`Probe`] trait with no-op
//!   defaults, [`NullProbe`], and the [`ProbeHandle`] every
//!   instrumented layer holds. Disabled handles cost one branch per
//!   probe point and probes cannot feed back into simulator state, so
//!   untraced runs are bit-identical to the uninstrumented simulator.
//! * [`hist`] — [`Histogram`], a mergeable power-of-two-bucketed
//!   latency histogram with exact count/sum/max and bucket-resolution
//!   p50/p95/p99.
//! * [`collect`] — [`TraceCollector`], the standard probe: per-class
//!   and per-transaction-type histograms, bounded Chrome-trace spans,
//!   and the epoch time series.
//! * [`export`] — JSONL metrics and Chrome trace-event serializers plus
//!   the schema validators used by tests, CI, and the
//!   `trace-schema-check` binary.
//! * [`json`] — the dependency-free JSON reader backing the validators.
//! * [`profile`] — [`HostProfiler`], the lap-based *host* wall-clock
//!   phase profiler the engine and memory system thread through their
//!   loops, so sweeps can report where the simulator's own seconds go —
//!   including per-network-sub-phase attribution ([`NetSubPhase`]) under
//!   the `ATAC_NETPROF` knob.
//! * [`netobs`] — [`NetObserver`]/[`NetObsHandle`], the cycle-domain
//!   network observability layer: per-router/link counters, hub
//!   occupancy, and skip-ahead efficacy metrics collected into the
//!   mergeable [`NetProfile`].
//!
//! This crate sits *below* `atac-net` in the dependency graph (it only
//! depends on `atac-phys` for unit newtypes), so every simulator layer
//! can hold a [`ProbeHandle`] without cycles.

// Host crate: wall clocks and hash maps measure and schedule the host,
// never a simulated result, so clippy.toml's determinism types are fine.
#![allow(clippy::disallowed_types, reason = "host profiling timestamps")]

pub mod collect;
pub mod export;
pub mod hist;
pub mod json;
pub mod netobs;
pub mod probe;
pub mod profile;

pub use collect::{Span, TraceCollector, Track, DEFAULT_SPAN_CAPACITY};
pub use export::{
    chrome_trace, metrics_jsonl, percentile_row, validate_chrome_trace, validate_metrics_jsonl,
    MetricsSummary,
};
pub use hist::{Histogram, BUCKETS};
pub use netobs::{
    occ_bucket, run_bucket, AdvanceCause, NetObsHandle, NetObserver, NetProfile, RouterObs,
    LINKS_PER_ROUTER, OCC_BUCKETS, OCC_BUCKET_LABELS, RUN_BUCKETS, RUN_BUCKET_LABELS,
};
pub use probe::{
    Cycle, EpochSample, NetDeliver, NullProbe, OnetTx, Probe, ProbeHandle, Subnet, TrafficKind,
    TxnEvent, TxnPhase,
};
pub use profile::{HostPhase, HostProfile, HostProfiler, NetSubPhase};
