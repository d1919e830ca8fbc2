//! # atac-report — the run-history observatory
//!
//! The bench harness emits point-in-time artifacts (`BENCH_sweep.json`
//! per sweep); this crate turns them into *decisions across PRs*:
//!
//! * [`history`] — the append-only run-history registry
//!   (`BENCH_history.jsonl`): every sweep's per-key figure-level
//!   metrics plus host self-profiles, keyed by git SHA + run key, with
//!   a versioned, forward-compatible line schema.
//! * [`gate`] — the regression detector: exact-match comparison for
//!   deterministic simulated metrics (the executor's bit-stability
//!   contract makes *any* deviation meaningful) and median/MAD
//!   noise-aware bounds for host wall-clock. `atac-report gate` exits
//!   nonzero naming the offending keys — the CI tripwire.
//! * [`render`] — `BENCH_report.md`: delta tables vs baseline,
//!   unicode-sparkline metric history, top movers, and the host
//!   self-profile breakdown ("where do the simulator's seconds go").
//! * [`sweep`] — the reader for the executor's `BENCH_sweep.json`
//!   (schema `atac-bench-sweep-v*`).
//!
//! The crate depends only on `atac-trace` (for the in-tree JSON
//! reader): it consumes the harness's *artifacts*, not its types, so
//! the gate can compare sweeps produced by any past or future version
//! that speaks the schema family.

pub mod gate;
pub mod history;
pub mod render;
pub mod sweep;

pub use gate::{compare, GateConfig, GateReport, Verdict};
pub use history::{
    append_lines, encode_line, lines_from_sweep, read_history, write_text, FlightEntry, History,
    HistoryLine, NetProfEntry, RunEntry, SweepEntry, HISTORY_SCHEMA,
};
pub use render::{render, render_netmap, sparkline};
pub use sweep::{parse_sweep, ExecutorStats, LatencySummary, PhaseProfile, RunMetrics, SweepDoc};
