//! The parallel sweep executor.
//!
//! The figure suite is embarrassingly parallel *across* runs — hundreds
//! of independent deterministic full-system simulations — so a figure
//! binary declares the `(config, benchmark)` run keys it needs as a
//! [`RunPlan`] up front and [`RunPlan::execute`] warms the run cache
//! with a fixed-size pool of scoped worker threads (`ATAC_JOBS` workers,
//! default: available parallelism). Within a plan keys are deduplicated
//! at `add` time; across plans and threads the cache layer's
//! single-flight table (see [`crate::cache`]) keeps every key to one
//! simulation per process.
//!
//! Each needed `(benchmark, core-count)` workload is built once and
//! shared immutably by reference across workers (`SimConfig` and
//! `BuiltWorkload` are `Send + Sync` — statically asserted in
//! `atac-sim`). Runs themselves stay single-threaded and deterministic,
//! so a parallel sweep publishes byte-identical records to a serial one;
//! a worker panic propagates out of `execute` once the pool joins
//! (`std::thread::scope` re-raises it) rather than being swallowed.
//!
//! Timing of every phase and run key can be recorded to
//! `BENCH_sweep.json` via [`SweepLog`], giving later changes a
//! wall-clock trajectory to regress against.
//!
//! [`RunPlan::execute_with`] layers the sweep's own observability on
//! top ([`ExecOptions`]): the flight recorder (`ATAC_FLIGHT`, see
//! [`atac::trace::flight`]) journals worker lifecycle spans, cache
//! outcomes, queue depth, and RSS samples; a cost model learned from
//! `BENCH_history.jsonl` ([`CostModel`]) schedules missing keys
//! longest-expected-first and feeds the live progress line's ETA
//! (`ATAC_PROGRESS`, default: on when stderr is a TTY). All of it
//! observes the host only — scheduling order and journals never reach
//! the published records, which stay sorted by run key.

use std::collections::{BTreeMap, BTreeSet};
use std::io::IsTerminal;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atac::prelude::*;
use atac::trace::flight::{
    current_rss_bytes, CacheOutcome, FlightHandle, FlightLog, FlightRecorder, SpanKind,
};
use atac::trace::{HostPhase, HostProfile, NetProfile};
use atac::workloads::BuiltWorkload;

use crate::cache::{flight_enabled, RunCache, RunSource};
use crate::costs::CostModel;
use crate::{run_key, RunSummary};

/// Worker count for sweeps: `ATAC_JOBS` if set, else the machine's
/// available parallelism.
#[expect(clippy::disallowed_methods, reason = "reads the ATAC_JOBS knob")]
pub fn jobs_from_env() -> usize {
    match std::env::var("ATAC_JOBS") {
        Ok(v) => parse_jobs(&v)
            .unwrap_or_else(|| panic!("ATAC_JOBS must be a positive integer, got `{v}`")),
        Err(_) => std::thread::available_parallelism().map_or(1, usize::from),
    }
}

fn parse_jobs(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Whether the live progress line renders (`ATAC_PROGRESS`; default:
/// only when stderr is a terminal, so CI logs stay clean. Set `1` to
/// force it on, `0` to force it off).
#[expect(clippy::disallowed_methods, reason = "reads the ATAC_PROGRESS knob")]
fn progress_enabled() -> bool {
    match std::env::var("ATAC_PROGRESS").as_deref() {
        Ok("0") => false,
        Ok(_) => true,
        Err(_) => std::io::stderr().is_terminal(),
    }
}

/// Observability and scheduling options for one executor pass. The
/// default is the fully quiet executor every existing caller and test
/// gets from [`RunPlan::execute_on`]: no journal, declared order, no
/// progress line.
#[derive(Debug, Default)]
pub struct ExecOptions {
    /// Record a flight journal ([`SweepReport::flight`]).
    pub flight: bool,
    /// Expected per-key host seconds for longest-expected-first
    /// scheduling and the progress ETA; empty model = declared order.
    pub costs: CostModel,
    /// Render the live progress line on stderr.
    pub progress: bool,
}

impl ExecOptions {
    /// Options from the environment: `ATAC_FLIGHT` (default off),
    /// `ATAC_HISTORY` (default `BENCH_history.jsonl`), `ATAC_PROGRESS`
    /// (default: stderr-is-a-TTY).
    pub fn from_env() -> Self {
        ExecOptions {
            flight: flight_enabled(),
            costs: CostModel::from_env(),
            progress: progress_enabled(),
        }
    }
}

/// A declared set of runs: `(timing configuration, benchmark)` pairs,
/// deduplicated by [`run_key`] at insertion.
#[derive(Debug, Default)]
pub struct RunPlan {
    entries: Vec<(SimConfig, Benchmark)>,
    keys: BTreeSet<String>,
}

impl RunPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one run; a `(config, benchmark)` pair whose run key is
    /// already planned is ignored.
    pub fn add(&mut self, cfg: SimConfig, bench: Benchmark) {
        if self.keys.insert(run_key(&cfg, bench)) {
            self.entries.push((cfg, bench));
        }
    }

    /// Union another plan into this one (same dedup rule).
    pub fn merge(&mut self, other: RunPlan) {
        for (cfg, bench) in other.entries {
            self.add(cfg, bench);
        }
    }

    /// Number of distinct run keys planned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan holds no runs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The planned runs, in insertion order.
    pub fn entries(&self) -> &[(SimConfig, Benchmark)] {
        &self.entries
    }

    /// Execute against the default cache with `ATAC_JOBS` workers and
    /// the environment's observability options ([`ExecOptions::from_env`]).
    pub fn execute(&self) -> SweepReport {
        self.execute_with(
            &RunCache::from_env(),
            jobs_from_env(),
            &ExecOptions::from_env(),
        )
    }

    /// Execute every planned run against `cache` with a pool of `jobs`
    /// worker threads, simulating only the keys the cache is missing.
    /// Returns per-run timings; panics if any run panics. Quiet
    /// executor: no journal, declared order, no progress line.
    pub fn execute_on(&self, cache: &RunCache, jobs: usize) -> SweepReport {
        self.execute_with(cache, jobs, &ExecOptions::default())
    }

    /// [`Self::execute_on`] with explicit observability and scheduling
    /// options. Missing keys run longest-expected-first when `opts`
    /// carries a cost model (unknown-cost keys run first — an unknown
    /// is potentially long, the safe bet for makespan); records are
    /// published per key and the report stays sorted by key, so the
    /// schedule never changes any output byte.
    pub fn execute_with(&self, cache: &RunCache, jobs: usize, opts: &ExecOptions) -> SweepReport {
        let t0 = Instant::now();
        let recorder = opts
            .flight
            .then(|| FlightRecorder::new(jobs.max(1) as u64, self.entries.len() as u64));
        let flight = recorder.as_ref().map_or_else(FlightHandle::disabled, |r| {
            FlightHandle::attach(Arc::clone(r))
        });
        let peak_rss = AtomicU64::new(current_rss_bytes().unwrap_or(0));

        let mut missing: Vec<&(SimConfig, Benchmark)> = Vec::new();
        let mut cached_hits = 0usize;
        for entry in &self.entries {
            let key = run_key(&entry.0, entry.1);
            if cache.load(&key).is_some() {
                cached_hits += 1;
                flight.cache(&key, CacheOutcome::Hit, false);
            } else {
                missing.push(entry);
            }
        }
        let n = missing.len();

        // Cost-aware schedule (longest processing time first). The
        // journal records every placement so the flight report can
        // replay declared vs scheduled order and quantify the makespan
        // difference.
        let expected: Vec<Option<f64>> = missing
            .iter()
            .map(|(cfg, bench)| opts.costs.expected_secs(&run_key(cfg, *bench)))
            .collect();
        let order = schedule_order(&expected);
        if flight.enabled() {
            for (sched, &decl) in order.iter().enumerate() {
                let (cfg, bench) = missing[decl];
                flight.sched(
                    &run_key(cfg, *bench),
                    decl as u64,
                    sched as u64,
                    expected[decl],
                );
            }
        }

        // One immutable build per (benchmark, core-count), shared by
        // reference across the pool instead of rebuilt per run.
        let mut workloads: BTreeMap<(&'static str, usize), BuiltWorkload> = BTreeMap::new();
        for (cfg, bench) in &missing {
            workloads
                .entry((bench.name(), cfg.topo.cores()))
                .or_insert_with(|| bench.build(cfg.topo.cores(), Scale::Paper));
        }

        // Progress / ETA bookkeeping, all claim-counter-shaped atomics:
        // expected micros of *unfinished* known-cost keys, a count of
        // unfinished unknown-cost keys, and completion counters. No
        // float accumulation — the only reduction is an integer sum.
        let workers = jobs.clamp(1, n.max(1));
        let expected_us: Vec<u64> = expected
            .iter()
            .map(|e| e.map_or(0, |s| (s * 1e6) as u64))
            .collect();
        let known_count = expected_us.iter().filter(|&&u| u > 0).count();
        let known_total_us: u64 = expected_us.iter().sum();
        let remaining_known_us = AtomicU64::new(known_total_us);
        let unknown_remaining = AtomicUsize::new(n - known_count);
        let done = AtomicUsize::new(0);
        let busy = AtomicUsize::new(0);
        // Per-worker "idle since" stamps (f64 bits) — each slot is only
        // written by its own worker and read back after the pool joins.
        let free_since: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();

        let timings: Mutex<Vec<RunTiming>> = Mutex::new(Vec::with_capacity(n));
        let planned = self.entries.len();
        let body = |w: usize, slot: usize| {
            let i = order[slot];
            busy.fetch_add(1, Ordering::Relaxed);
            flight.queue((n - slot - 1) as u64, busy.load(Ordering::Relaxed) as u64);
            if flight.enabled() {
                let since = f64::from_bits(free_since[w].load(Ordering::Relaxed));
                let t = flight.now();
                if t > since {
                    flight.span(w as u64, SpanKind::Idle, None, since, t);
                }
            }
            let (cfg, bench) = missing[i];
            let workload = &workloads[&(bench.name(), cfg.topo.cores())];
            let start = Instant::now();
            let (_, source, profile, netprof) =
                cache.get_or_run_observed(cfg, *bench, Some(workload), &flight, w as u64);
            timings
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(RunTiming {
                    key: run_key(cfg, *bench),
                    secs: start.elapsed().as_secs_f64(),
                    source,
                    profile,
                    netprof,
                });
            free_since[w].store(flight.now().to_bits(), Ordering::Relaxed);
            if let Some(bytes) = current_rss_bytes() {
                peak_rss.fetch_max(bytes, Ordering::Relaxed);
            }
            flight.sample_rss();
            if expected_us[i] > 0 {
                remaining_known_us.fetch_sub(expected_us[i], Ordering::Relaxed);
            } else {
                unknown_remaining.fetch_sub(1, Ordering::Relaxed);
            }
            busy.fetch_sub(1, Ordering::Relaxed);
            done.fetch_add(1, Ordering::Relaxed);
        };
        let progress_line = || {
            let d = done.load(Ordering::Relaxed);
            let per_unknown = if n == known_count {
                Some(0.0)
            } else if known_count > 0 {
                Some(known_total_us as f64 / 1e6 / known_count as f64)
            } else if d > 0 {
                Some(t0.elapsed().as_secs_f64() / d as f64)
            } else {
                None
            };
            let eta = eta_secs(
                remaining_known_us.load(Ordering::Relaxed) as f64 / 1e6,
                unknown_remaining.load(Ordering::Relaxed),
                per_unknown,
                workers,
            );
            let hit_pct = 100.0 * cached_hits as f64 / planned.max(1) as f64;
            eprint!(
                "\r[sweep] {}/{planned} keys \u{b7} {} busy \u{b7} {hit_pct:.0}% cache-hit \
                 \u{b7} ETA {}   ",
                cached_hits + d,
                busy.load(Ordering::Relaxed),
                fmt_eta(eta)
            );
        };
        let monitor: Option<&(dyn Fn() + Sync)> = if opts.progress && n > 0 {
            Some(&progress_line)
        } else {
            None
        };
        run_pool_workers(jobs, n, body, monitor);
        if opts.progress && n > 0 {
            eprint!("\r{:76}\r", "");
        }

        if flight.enabled() {
            // Tail idle spans: each worker from its last completion (or
            // recorder start, if it never claimed a run) to pool exit.
            let t_end = flight.now();
            for (w, since) in free_since.iter().enumerate() {
                flight.span(
                    w as u64,
                    SpanKind::Idle,
                    None,
                    f64::from_bits(since.load(Ordering::Relaxed)),
                    t_end,
                );
            }
        }
        if let Some(bytes) = current_rss_bytes() {
            peak_rss.fetch_max(bytes, Ordering::Relaxed);
        }

        let mut runs = timings
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        runs.sort_by(|a, b| a.key.cmp(&b.key));
        let simulated = runs
            .iter()
            .filter(|r| r.source == RunSource::Simulated)
            .count();
        // Summarize every planned record (they are all published by
        // now) into the figure-level metrics the run-history registry
        // and regression gate consume.
        let mut summaries: Vec<RunSummary> = self
            .entries
            .iter()
            .filter_map(|(cfg, bench)| {
                let rec = cache.load(&run_key(cfg, *bench))?;
                Some(RunSummary::from_record(cfg, *bench, &rec))
            })
            .collect();
        summaries.sort_by(|a, b| a.key.cmp(&b.key));
        let report = SweepReport {
            jobs,
            planned,
            cached_hits,
            wall_secs: t0.elapsed().as_secs_f64(),
            runs,
            summaries,
            peak_rss_bytes: peak_rss.into_inner(),
            flight: flight.finish(simulated as u64),
        };
        if !self.is_empty() {
            eprintln!(
                "[sweep] {} key(s): {} simulated, {} cached, {} joined in {:.1}s with {} worker(s)",
                report.planned,
                report.simulated(),
                report.cached_hits + report.count(RunSource::CacheHit),
                report.count(RunSource::Joined),
                report.wall_secs,
                report.jobs,
            );
        }
        report
    }
}

/// Longest-expected-first execution order over per-key costs: known
/// costs descending, unknown costs (`None`) ahead of everything —
/// an unscheduled unknown landing on a lone worker late is the worst
/// makespan outcome — and ties in declared order (the sort is a total
/// order, so the schedule is deterministic for a given history).
fn schedule_order(expected: &[Option<f64>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..expected.len()).collect();
    order.sort_by(|&a, &b| {
        let ca = expected[a].unwrap_or(f64::INFINITY);
        let cb = expected[b].unwrap_or(f64::INFINITY);
        cb.total_cmp(&ca).then(a.cmp(&b))
    });
    order
}

/// Progress-line ETA: expected seconds of unfinished work spread over
/// the pool. `per_unknown` prices each unfinished unknown-cost key
/// (mean of the known expectations, or the observed per-run rate when
/// the model is empty); `None` when there is nothing to price with.
fn eta_secs(
    remaining_known: f64,
    unknown_remaining: usize,
    per_unknown: Option<f64>,
    workers: usize,
) -> Option<f64> {
    let per = match per_unknown {
        Some(p) => p,
        None if unknown_remaining == 0 => 0.0,
        None => return None,
    };
    Some((remaining_known + unknown_remaining as f64 * per) / workers.max(1) as f64)
}

/// Render an ETA for the progress line.
fn fmt_eta(eta: Option<f64>) -> String {
    match eta {
        None => "--".to_string(),
        Some(s) => {
            let s = s.max(0.0).ceil() as u64;
            if s >= 90 {
                format!("{}m{:02}s", s / 60, s % 60)
            } else {
                format!("{s}s")
            }
        }
    }
}

/// Write a finished flight journal to `path` as JSONL. Lives here
/// because the bench crate's file-write surface is `executor.rs` and
/// `cache.rs` (audit rule 6).
#[expect(clippy::disallowed_methods, reason = "the flight-journal writer")]
pub fn write_flight(log: &FlightLog, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, log.to_jsonl())
}

/// Run `f(0, 0)..f(w, n-1)` on a fixed pool of `jobs` scoped worker
/// threads: `f(w, slot)` gets the claiming worker's pool index and the
/// claim sequence number. Workers claim slots from a shared atomic
/// counter, so long runs naturally load-balance. `monitor` (when
/// present) runs on its own scoped thread every ~200 ms until the
/// workers finish, then once more for the final state — the live
/// progress line. Workers are joined explicitly (rather than letting
/// the scope do it) so the monitor can be stopped as soon as the last
/// worker exits; a worker panic is re-raised after the monitor winds
/// down: a failing run aborts the sweep loudly, never silently.
fn run_pool_workers(
    jobs: usize,
    n: usize,
    f: impl Fn(usize, usize) + Sync,
    monitor: Option<&(dyn Fn() + Sync)>,
) {
    if n == 0 {
        return;
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let f = &f;
        let next = &next;
        let handles: Vec<_> = (0..jobs.clamp(1, n))
            .map(|w| {
                s.spawn(move || loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= n {
                        break;
                    }
                    f(w, slot);
                })
            })
            .collect();
        let monitor_thread = monitor.map(|tick| {
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    tick();
                    std::thread::sleep(Duration::from_millis(200));
                }
                tick();
            })
        });
        let mut panicked = None;
        for h in handles {
            if let Err(p) = h.join() {
                panicked.get_or_insert(p);
            }
        }
        stop.store(true, Ordering::Relaxed);
        if let Some(m) = monitor_thread {
            let _ = m.join();
        }
        if let Some(p) = panicked {
            std::panic::resume_unwind(p);
        }
    });
}

/// Wall-clock and provenance of one executed run.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// The run key (see [`run_key`]).
    pub key: String,
    /// Wall-clock seconds this worker spent obtaining the record.
    pub secs: f64,
    /// Whether the record was simulated, joined, or re-read from cache.
    pub source: RunSource,
    /// Host self-profile of the simulation (simulated runs with
    /// `ATAC_PROFILE` enabled only; see [`crate::profiling_enabled`]).
    pub profile: Option<HostProfile>,
    /// Network microscope profile — per-router/link cycle-domain
    /// counters and skip-ahead efficacy (simulated runs with
    /// `ATAC_NETPROF` enabled only; see [`crate::netprof_enabled`]).
    pub netprof: Option<NetProfile>,
}

/// The outcome of one [`RunPlan::execute_on`] pass.
#[derive(Debug)]
pub struct SweepReport {
    /// Worker-pool size used.
    pub jobs: usize,
    /// Distinct keys in the plan.
    pub planned: usize,
    /// Keys already published before the pool started.
    pub cached_hits: usize,
    /// Wall-clock seconds for the whole pass.
    pub wall_secs: f64,
    /// Per-run timings for the keys the pool touched, sorted by key.
    pub runs: Vec<RunTiming>,
    /// Figure-level metrics for *every* planned key (cached or
    /// simulated), sorted by key — what the run-history registry and
    /// regression gate consume.
    pub summaries: Vec<RunSummary>,
    /// High-water resident-set bytes over the pass (sampled at start,
    /// after every run, and at pool exit; 0 where procfs is absent).
    pub peak_rss_bytes: u64,
    /// The flight journal, when the pass ran with
    /// [`ExecOptions::flight`] — already closed, ready to write via
    /// [`write_flight`].
    pub flight: Option<FlightLog>,
}

impl SweepReport {
    /// Runs this pass actually simulated.
    pub fn simulated(&self) -> usize {
        self.count(RunSource::Simulated)
    }

    fn count(&self, source: RunSource) -> usize {
        self.runs.iter().filter(|r| r.source == source).count()
    }

    /// The executor self-metrics this pass contributes to the sweep
    /// log: every planned key settles as exactly one of hit (prescan or
    /// worker re-read), miss (simulated), or single-flight wait.
    pub fn executor_stats(&self) -> ExecutorStats {
        ExecutorStats {
            cache_hits: (self.cached_hits + self.count(RunSource::CacheHit)) as u64,
            cache_misses: self.simulated() as u64,
            flight_waits: self.count(RunSource::Joined) as u64,
            peak_rss_bytes: self.peak_rss_bytes,
        }
    }

    /// All runs' host self-profiles merged, if any run carried one.
    pub fn merged_profile(&self) -> Option<HostProfile> {
        let mut merged = HostProfile::zero();
        let mut any = false;
        for run in &self.runs {
            if let Some(p) = &run.profile {
                merged.merge(p);
                any = true;
            }
        }
        any.then_some(merged)
    }
}

/// Executor self-metrics: how the run cache settled the planned keys,
/// and how much resident memory the sweep process peaked at. Promoted
/// into `BENCH_sweep.json` (schema v4) next to `self_profile`, and from
/// there into the `flight` history line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Keys decoded from already-published records.
    pub cache_hits: u64,
    /// Keys this process simulated (including torn-record recoveries).
    pub cache_misses: u64,
    /// Keys joined from a concurrent in-process single-flight.
    pub flight_waits: u64,
    /// High-water resident-set bytes (0 where procfs is absent).
    pub peak_rss_bytes: u64,
}

/// Accumulates a sweep's timings and writes `BENCH_sweep.json`: phase
/// and per-run wall-clock, per-run host self-profiles, figure-level
/// run summaries, executor self-metrics, plus the knob values
/// (`ATAC_JOBS`, `ATAC_CORES`, `ATAC_BENCHES`), so successive changes
/// to the simulator or executor leave a comparable perf trajectory
/// behind. Schema `atac-bench-sweep-v4` (v1 lacked `summaries` and
/// profiles, v2 lacked the per-run `netprof` network breakdowns, v3
/// lacked the `executor` block; readers treat unknown fields as
/// forward-compatible).
#[derive(Debug, Default)]
pub struct SweepLog {
    jobs: usize,
    phases: Vec<(String, f64)>,
    runs: Vec<RunTiming>,
    summaries: Vec<RunSummary>,
    executor: ExecutorStats,
    verify: Option<(String, bool)>,
}

impl SweepLog {
    /// A log for a sweep using `jobs` workers.
    pub fn new(jobs: usize) -> Self {
        SweepLog {
            jobs,
            ..Default::default()
        }
    }

    /// Record one named phase's wall-clock seconds.
    pub fn phase(&mut self, name: &str, secs: f64) {
        self.phases.push((name.to_string(), secs));
    }

    /// Copy a report's per-run timings, summaries, and executor
    /// self-metrics into the log.
    // audit: order-stable — u64 outcome counts (exact, associative
    // addition) and a max-fold of the RSS high-water mark.
    pub fn absorb(&mut self, report: &SweepReport) {
        self.runs.extend(report.runs.iter().cloned());
        self.summaries.extend(report.summaries.iter().cloned());
        let stats = report.executor_stats();
        self.executor.cache_hits += stats.cache_hits;
        self.executor.cache_misses += stats.cache_misses;
        self.executor.flight_waits += stats.flight_waits;
        self.executor.peak_rss_bytes = self.executor.peak_rss_bytes.max(stats.peak_rss_bytes);
    }

    /// Record the serial re-check outcome for one key.
    pub fn set_verify(&mut self, key: &str, identical: bool) {
        self.verify = Some((key.to_string(), identical));
    }

    /// Render the log as a self-describing JSON document.
    #[expect(clippy::disallowed_methods, reason = "records the sweep's knobs")]
    pub fn to_json(&self) -> String {
        let cores = std::env::var("ATAC_CORES").unwrap_or_else(|_| "1024".into());
        let benches = std::env::var("ATAC_BENCHES").unwrap_or_else(|_| "all".into());
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"atac-bench-sweep-v4\",\n");
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"cores\": \"{}\",\n", escape(&cores)));
        out.push_str(&format!("  \"benches\": \"{}\",\n", escape(&benches)));
        out.push_str("  \"phases\": {\n");
        for (i, (name, secs)) in self.phases.iter().enumerate() {
            let comma = if i + 1 == self.phases.len() { "" } else { "," };
            out.push_str(&format!("    \"{}\": {secs:?}{comma}\n", escape(name)));
        }
        out.push_str("  },\n");
        out.push_str("  \"runs\": [\n");
        for (i, run) in self.runs.iter().enumerate() {
            let comma = if i + 1 == self.runs.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"key\": \"{}\", \"secs\": {:?}, \"source\": \"{}\"",
                escape(&run.key),
                run.secs,
                run.source.name()
            ));
            if let Some(p) = &run.profile {
                out.push_str(&format!(", \"profile\": {}", profile_json(p)));
            }
            if let Some(np) = &run.netprof {
                out.push_str(&format!(", \"netprof\": {}", netprof_json(np)));
            }
            out.push_str(&format!("}}{comma}\n"));
        }
        out.push_str("  ],\n");
        out.push_str("  \"summaries\": [\n");
        for (i, s) in self.summaries.iter().enumerate() {
            let comma = if i + 1 == self.summaries.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("    {}{comma}\n", summary_json(s)));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"executor\": {}",
            executor_json(&self.executor)
        ));
        if let Some(total) = self.merged_profile() {
            out.push_str(&format!(",\n  \"self_profile\": {}", profile_json(&total)));
        }
        if let Some((key, identical)) = &self.verify {
            out.push_str(&format!(
                ",\n  \"verify\": {{\"key\": \"{}\", \"identical\": {identical}}}",
                escape(key)
            ));
        }
        out.push_str("\n}\n");
        out
    }

    /// All logged runs' host self-profiles merged, if any carried one.
    pub fn merged_profile(&self) -> Option<HostProfile> {
        let mut merged = HostProfile::zero();
        let mut any = false;
        for run in &self.runs {
            if let Some(p) = &run.profile {
                merged.merge(p);
                any = true;
            }
        }
        any.then_some(merged)
    }

    /// All logged runs' network microscope profiles merged, if any
    /// carried one. All-integer counters merged in logged (run-key)
    /// order, so the aggregate is independent of worker scheduling.
    pub fn merged_netprof(&self) -> Option<NetProfile> {
        let mut merged = NetProfile::new();
        let mut any = false;
        for run in &self.runs {
            if let Some(np) = &run.netprof {
                merged.merge(np);
                any = true;
            }
        }
        any.then_some(merged)
    }

    /// Write the JSON document to `path`.
    #[expect(clippy::disallowed_methods, reason = "the sweep-document writer")]
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Minimal JSON string escaping (keys and env values are plain ASCII,
/// but stay safe against quotes and backslashes).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One host self-profile as a JSON object: per-phase seconds (nonzero
/// phases only, stable [`HostPhase::name`] keys), total and coverage.
/// When the run carried network sub-phase laps (`ATAC_NETPROF`), a
/// `net_phases` object (stable [`atac::trace::NetSubPhase::name`] keys)
/// and the `net_coverage` fraction of the network phase they tile ride
/// along.
fn profile_json(p: &HostProfile) -> String {
    let phases: Vec<String> = HostPhase::ALL
        .into_iter()
        .filter(|ph| p.phase_secs(*ph) > 0.0)
        .map(|ph| format!("\"{}\": {:?}", ph.name(), p.phase_secs(ph)))
        .collect();
    let mut net = String::new();
    if p.net_tracked_secs() > 0.0 {
        let subs: Vec<String> = p
            .net_phases()
            .filter(|(_, secs)| *secs > 0.0)
            .map(|(sub, secs)| format!("\"{}\": {:?}", sub.name(), secs))
            .collect();
        net = format!(
            ", \"net_coverage\": {:?}, \"net_phases\": {{{}}}",
            p.net_sub_coverage(),
            subs.join(", ")
        );
    }
    format!(
        "{{\"total_secs\": {:?}, \"coverage\": {:?}, \"phases\": {{{}}}{net}}}",
        p.total_secs,
        p.coverage(),
        phases.join(", ")
    )
}

/// One network microscope profile as a JSON object. Every value is an
/// integer counter, so the document round-trips exactly and merging
/// (report-side, in run-key order) is order-independent. Per-router
/// counters are flat arrays `[flits_routed, credit_stall_cycles,
/// active_cycles, occupancy_sum, hist0..hist5]` indexed by router id;
/// `links` is indexed `router * 4 + direction`; the hub arrays are
/// indexed by cluster. `run_hist` buckets bulk wormhole-run transfer
/// lengths (1, 2, 3–4, 5–8, 9–16, 17+ flits per grant) and
/// `bitset_grants`/`scalar_grants` split arbitration grants by which
/// arbiter path served them — together they show how much of the
/// flit traffic the packet-granular fast path is absorbing.
fn netprof_json(p: &NetProfile) -> String {
    let routers: Vec<String> = p
        .routers
        .iter()
        .map(|r| {
            let mut vals = vec![
                r.flits_routed,
                r.credit_stall_cycles,
                r.active_cycles,
                r.occupancy_sum,
            ];
            vals.extend(r.occupancy_hist);
            format!("[{}]", join_u64(&vals))
        })
        .collect();
    format!(
        "{{\"cycles\": {}, \"ticks\": {}, \"skipped\": {}, \"jumps\": {}, \
         \"wake_core\": {}, \"wake_mem\": {}, \"wake_net\": {}, \"epochs\": {}, \
         \"coalesced\": {}, \"max_epoch_span\": {}, \"run_hist\": [{}], \
         \"bitset_grants\": {}, \"scalar_grants\": {}, \"hub_unicast\": [{}], \
         \"hub_broadcast\": [{}], \"links\": [{}], \"routers\": [{}]}}",
        p.cycles,
        p.ticks_executed,
        p.cycles_skipped,
        p.skip_jumps,
        p.wake_core,
        p.wake_mem,
        p.wake_net,
        p.epochs_closed,
        p.coalesced_epochs,
        p.max_epoch_span,
        join_u64(&p.run_len_hist),
        p.bitset_grants,
        p.scalar_grants,
        join_u64(&p.hub_unicast_flits),
        join_u64(&p.hub_broadcast_flits),
        join_u64(&p.link_flits),
        routers.join(", ")
    )
}

fn join_u64(vals: &[u64]) -> String {
    let strs: Vec<String> = vals.iter().map(u64::to_string).collect();
    strs.join(", ")
}

/// The executor self-metrics block as a JSON object (schema v4). All
/// integer counters — round-trips exactly.
fn executor_json(e: &ExecutorStats) -> String {
    format!(
        "{{\"cache_hits\": {}, \"cache_misses\": {}, \"flight_waits\": {}, \
         \"peak_rss_bytes\": {}}}",
        e.cache_hits, e.cache_misses, e.flight_waits, e.peak_rss_bytes
    )
}

/// One run summary as a JSON object. Floats print via `{:?}` so they
/// round-trip exactly — the regression gate compares them bit-for-bit.
fn summary_json(s: &RunSummary) -> String {
    format!(
        "{{\"key\": \"{}\", \"bench\": \"{}\", \"cycles\": {}, \"instructions\": {}, \
         \"ipc\": {:?}, \"runtime_s\": {:?}, \"energy_j\": {:?}, \"edp_js\": {:?}, \
         \"latency\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"count\": {}}}}}",
        escape(&s.key),
        escape(&s.bench),
        s.cycles,
        s.instructions,
        s.ipc,
        s.runtime.value(),
        s.energy.value(),
        s.edp.value(),
        s.latency_p50,
        s.latency_p95,
        s.latency_p99,
        s.latency_max,
        s.latency_count,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_dedups_identical_run_keys() {
        let mut plan = RunPlan::new();
        let cfg = SimConfig::small();
        plan.add(cfg.clone(), Benchmark::Radix);
        plan.add(cfg.clone(), Benchmark::Radix);
        // The photonic scenario is energy-only; same run key.
        plan.add(
            SimConfig {
                scenario: PhotonicScenario::Conservative,
                ..cfg.clone()
            },
            Benchmark::Radix,
        );
        assert_eq!(plan.len(), 1);
        plan.add(cfg, Benchmark::Barnes);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let hits = AtomicUsize::new(0);
        let ticks = AtomicUsize::new(0);
        let tick = || {
            ticks.fetch_add(1, Ordering::Relaxed);
        };
        let result = std::panic::catch_unwind(|| {
            run_pool_workers(
                2,
                8,
                |_, slot| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    assert!(slot != 3, "injected failure");
                },
                Some(&tick),
            );
        });
        assert!(result.is_err(), "a panicking run must fail the sweep");
    }

    #[test]
    fn pool_covers_every_index_once() {
        let n = 64;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run_pool_workers(
            5,
            n,
            |_, slot| {
                hits[slot].fetch_add(1, Ordering::Relaxed);
            },
            None,
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // Degenerate pools still work.
        run_pool_workers(0, 0, |_, _| unreachable!("no indices"), None);
        let one = AtomicUsize::new(0);
        run_pool_workers(
            16,
            1,
            |_, _| {
                one.fetch_add(1, Ordering::Relaxed);
            },
            None,
        );
        assert_eq!(one.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_pool_reports_worker_identity_and_monitors() {
        let n = 32;
        let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let ticks = AtomicUsize::new(0);
        let tick = || {
            ticks.fetch_add(1, Ordering::Relaxed);
        };
        run_pool_workers(
            3,
            n,
            |w, slot| {
                assert!(w < 3, "worker index inside the pool");
                seen[slot].store(w, Ordering::Relaxed);
            },
            Some(&tick),
        );
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) < 3));
        assert!(
            ticks.load(Ordering::Relaxed) >= 1,
            "monitor runs at least the final tick"
        );
    }

    #[test]
    fn schedule_runs_longest_expected_first() {
        // Known costs descend; the unknown runs first; ties keep
        // declared order.
        let order = schedule_order(&[Some(1.0), Some(5.0), None, Some(3.0), Some(5.0)]);
        assert_eq!(order, vec![2, 1, 4, 3, 0]);
        assert_eq!(schedule_order(&[]), Vec::<usize>::new());
        // No cost model at all: declared order preserved.
        assert_eq!(schedule_order(&[None, None, None]), vec![0, 1, 2]);
    }

    #[test]
    fn eta_estimates_and_formats() {
        // 12 s of known work + 2 unknowns priced at 3 s, over 2 workers.
        assert_eq!(eta_secs(12.0, 2, Some(3.0), 2), Some(9.0));
        assert_eq!(eta_secs(8.0, 0, None, 4), Some(2.0));
        assert_eq!(eta_secs(0.0, 3, None, 4), None, "nothing to price with");
        assert_eq!(fmt_eta(None), "--");
        assert_eq!(fmt_eta(Some(4.2)), "5s");
        assert_eq!(fmt_eta(Some(89.0)), "89s");
        assert_eq!(fmt_eta(Some(150.0)), "2m30s");
    }

    #[test]
    fn jobs_parser_accepts_positive_integers_only() {
        assert_eq!(parse_jobs("4"), Some(4));
        assert_eq!(parse_jobs(" 16 "), Some(16));
        assert_eq!(parse_jobs("0"), None);
        assert_eq!(parse_jobs("-2"), None);
        assert_eq!(parse_jobs("many"), None);
    }

    #[test]
    fn sweep_log_renders_valid_shape() {
        use atac::trace::{NetSubPhase, RouterObs};

        let mut log = SweepLog::new(4);
        log.phase("warm", 1.5);
        log.phase("render", 0.25);
        let mut profile = HostProfile::zero();
        profile.secs[HostPhase::Replay.index()] = 1.0;
        profile.secs[HostPhase::Network.index()] = 0.5;
        profile.net_sub_secs[NetSubPhase::RouteCompute.index()] = 0.5;
        profile.total_secs = 1.25;
        let mut np = NetProfile::new();
        np.cycles = 10;
        np.ticks_executed = 6;
        np.cycles_skipped = 4;
        np.skip_jumps = 1;
        np.wake_core = 1;
        np.run_len_hist = [4, 2, 1, 0, 0, 0];
        np.bitset_grants = 7;
        np.scalar_grants = 1;
        np.hub_unicast_flits = vec![3];
        np.link_flits = vec![1, 0, 0, 0];
        np.routers = vec![RouterObs {
            flits_routed: 1,
            ..Default::default()
        }];
        log.runs.push(RunTiming {
            key: "8x8|atac[distance-15]|radix".into(),
            secs: 1.25,
            source: RunSource::Simulated,
            profile: Some(profile),
            netprof: Some(np),
        });
        log.set_verify("8x8|atac[distance-15]|radix", true);
        let json = log.to_json();
        assert!(json.contains("\"schema\": \"atac-bench-sweep-v4\""));
        assert!(json.contains(
            "\"executor\": {\"cache_hits\": 0, \"cache_misses\": 0, \"flight_waits\": 0, \
             \"peak_rss_bytes\": 0}"
        ));
        assert!(json.contains("\"replay\": 1.0"));
        assert!(json.contains("\"self_profile\""));
        assert!(json.contains("\"summaries\""));
        assert!(json.contains("\"jobs\": 4"));
        assert!(json.contains("\"warm\": 1.5"));
        assert!(json.contains("\"source\": \"simulated\""));
        assert!(json.contains("\"identical\": true"));
        // The network microscope rides along: sub-phase attribution in
        // the profile, integer counters in the netprof object.
        assert!(json.contains("\"net_coverage\": 1.0"));
        assert!(json.contains("\"route_compute\": 0.5"));
        assert!(json.contains("\"netprof\": {\"cycles\": 10, \"ticks\": 6, \"skipped\": 4"));
        // Wormhole fast-path counters ride along in the netprof block:
        // the run-length histogram and the arbitration grant split.
        assert!(json.contains("\"run_hist\": [4, 2, 1, 0, 0, 0]"));
        assert!(json.contains("\"bitset_grants\": 7, \"scalar_grants\": 1"));
        assert!(json.contains("\"hub_unicast\": [3]"));
        assert!(json.contains("\"links\": [1, 0, 0, 0]"));
        assert!(json.contains("\"routers\": [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]]"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        // The merged aggregate reuses the same order-independent merge.
        let merged = log.merged_netprof().expect("one run carried a netprof");
        assert_eq!(merged.cycles, 10);
        assert_eq!(merged.total_flits_routed(), 1);
    }
}
