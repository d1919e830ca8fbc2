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
//! a worker panic propagates out of `execute` with its original payload
//! once the pool joins, rather than being swallowed.
//!
//! Missing keys run in the plan's declared order, claimed one at a time
//! from a shared counter. Timing of every phase and run key can be
//! recorded to `BENCH_sweep.json` via [`SweepLog`], together with the
//! executor's own self-metrics ([`ExecutorStats`]: how the cache settled
//! each key, and the process's peak RSS), giving later changes a
//! wall-clock trajectory to regress against. None of it reaches the
//! published records.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use atac::prelude::*;
use atac::trace::{HostPhase, HostProfile, NetProfile};
use atac::workloads::BuiltWorkload;

use crate::cache::{RunCache, RunSource};
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

    /// Execute against the default cache with `ATAC_JOBS` workers.
    pub fn execute(&self) -> SweepReport {
        self.execute_on(&RunCache::from_env(), jobs_from_env())
    }

    /// Execute every planned run against `cache` with a pool of `jobs`
    /// worker threads, simulating only the keys the cache is missing, in
    /// declared order. Records are published per key and the report is
    /// sorted by key. Panics if any run panics.
    pub fn execute_on(&self, cache: &RunCache, jobs: usize) -> SweepReport {
        let t0 = Instant::now();
        let peak_rss = AtomicU64::new(current_rss_bytes().unwrap_or(0));
        let missing: Vec<&(SimConfig, Benchmark)> = self
            .entries
            .iter()
            .filter(|(cfg, bench)| cache.load(&run_key(cfg, *bench)).is_none())
            .collect();

        // One immutable build per (benchmark, core-count), shared by
        // reference across the pool instead of rebuilt per run.
        let mut workloads: BTreeMap<(&'static str, usize), BuiltWorkload> = BTreeMap::new();
        for (cfg, bench) in &missing {
            workloads
                .entry((bench.name(), cfg.topo.cores()))
                .or_insert_with(|| bench.build(cfg.topo.cores(), Scale::Paper));
        }

        let timings: Mutex<Vec<RunTiming>> = Mutex::new(Vec::with_capacity(missing.len()));
        run_pool_workers(jobs, missing.len(), |i| {
            let (cfg, bench) = missing[i];
            let workload = &workloads[&(bench.name(), cfg.topo.cores())];
            let start = Instant::now();
            let (_, source, profile, netprof) =
                cache.get_or_run_profiled(cfg, *bench, Some(workload));
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
            if let Some(bytes) = current_rss_bytes() {
                peak_rss.fetch_max(bytes, Ordering::Relaxed);
            }
        });
        if let Some(bytes) = current_rss_bytes() {
            peak_rss.fetch_max(bytes, Ordering::Relaxed);
        }

        let mut runs = timings
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        runs.sort_by(|a, b| a.key.cmp(&b.key));
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
            planned: self.entries.len(),
            cached_hits: self.entries.len() - missing.len(),
            wall_secs: t0.elapsed().as_secs_f64(),
            runs,
            summaries,
            peak_rss_bytes: peak_rss.into_inner(),
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

/// Current resident-set size in bytes, from `/proc/self/statm` (field 2,
/// resident pages, assumed 4 KiB). `None` off Linux or when procfs is
/// unreadable; a larger-page host merely under-reports, and nothing
/// result-bearing reads it.
fn current_rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

/// Run `f(0)..f(n-1)` on a fixed pool of `jobs` scoped worker threads.
/// Workers claim indices from a shared atomic counter, so long runs
/// naturally load-balance. A worker panic is re-raised with its original
/// payload once the other workers finish: a failing run aborts the
/// sweep loudly, never silently.
fn run_pool_workers(jobs: usize, n: usize, f: impl Fn(usize) + Sync) {
    if n == 0 {
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (f, next) = (&f, &next);
        let handles: Vec<_> = (0..jobs.clamp(1, n))
            .map(|_| {
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    f(i);
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                // The scope still joins the remaining workers first.
                std::panic::resume_unwind(payload);
            }
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
        merge_profiles(&self.runs)
    }
}

/// The host self-profiles of `runs` merged, if any run carried one.
fn merge_profiles(runs: &[RunTiming]) -> Option<HostProfile> {
    let mut merged = HostProfile::zero();
    let mut any = false;
    for p in runs.iter().filter_map(|r| r.profile.as_ref()) {
        merged.merge(p);
        any = true;
    }
    any.then_some(merged)
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
        if let Some(total) = merge_profiles(&self.runs) {
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
        let result = std::panic::catch_unwind(|| {
            run_pool_workers(2, 8, |i| {
                hits.fetch_add(1, Ordering::Relaxed);
                assert!(i != 3, "injected failure");
            });
        });
        assert!(result.is_err(), "a panicking run must fail the sweep");
    }

    #[test]
    fn pool_covers_every_index_once() {
        let n = 64;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run_pool_workers(5, n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // Degenerate pools still work.
        run_pool_workers(0, 0, |_| unreachable!("no indices"));
        let one = AtomicUsize::new(0);
        run_pool_workers(16, 1, |_| {
            one.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(one.load(Ordering::Relaxed), 1);
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
    }
}
