//! The run-record cache, made safe for concurrent sweeps.
//!
//! Completed full-system runs persist as JSON under `target/atac-results/`
//! (override with `ATAC_RESULTS_DIR`) and are shared across every figure
//! binary. With the parallel executor several workers — and, on a shared
//! checkout, several *processes* — can race on the same cache, so this
//! layer provides three guarantees:
//!
//! 1. **Atomic publication** — a record is written to a temp file in the
//!    cache directory and then `rename`d into place, so a reader sees
//!    either no file or a complete record, never a torn prefix. A crash
//!    mid-write leaves only a stray temp file, not a poisoned record
//!    every later run re-pays to reject.
//! 2. **In-process single-flight** — two callers needing the same run key
//!    concurrently simulate it once: the first becomes the leader, the
//!    rest block on a condvar and clone the leader's record. A leader
//!    that panics marks the flight failed so joiners fail loudly instead
//!    of hanging.
//! 3. **Cross-process tolerance** — there is no inter-process lock, by
//!    design: a concurrent writer in another process publishes the same
//!    bytes (runs are deterministic), and `rename` makes the last
//!    publication win wholesale. A truncated or stale record decodes to
//!    `None` and is simply re-simulated.
//!
//! Determinism contract: a given `(config, benchmark)` key always encodes
//! to the same bytes, whichever worker or process produced it — asserted
//! by `tests/executor.rs` and re-checked in CI against a serial run.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use atac::prelude::*;
use atac::trace::{HostPhase, HostProfile, HostProfiler, NetObsHandle, NetProfile, TraceCollector};
use atac::workloads::BuiltWorkload;

use crate::{run_key, runjson, RunRecord};

/// Whether simulated runs carry a host self-profile (`ATAC_PROFILE`,
/// default on; set `ATAC_PROFILE=0` to disable). Profiles are observers
/// of the *host* clock only — they never enter the published run record,
/// whose bytes stay governed by the determinism contract.
#[expect(clippy::disallowed_methods, reason = "reads the ATAC_PROFILE knob")]
pub fn profiling_enabled() -> bool {
    std::env::var("ATAC_PROFILE").as_deref() != Ok("0")
}

/// Whether simulated runs carry the network microscope (`ATAC_NETPROF`,
/// default **off**; set `ATAC_NETPROF=1` to enable). This attaches an
/// [`atac::trace::NetProfile`] observer (per-router/link cycle-domain
/// counters plus skip-ahead efficacy) and, when [`profiling_enabled`],
/// network sub-phase host attribution. Like the profiler, the observer
/// never enters the published run record — instrumented runs stay
/// bit-identical.
#[expect(clippy::disallowed_methods, reason = "reads the ATAC_NETPROF knob")]
pub fn netprof_enabled() -> bool {
    matches!(std::env::var("ATAC_NETPROF").as_deref(), Ok(v) if v != "0")
}

/// Network sub-phase lap sampling period for bench runs, as a power of
/// two (`ATAC_NETPROF_SAMPLE_LOG2`, default 6 = clock one tick in 64 and
/// scale up). Sampling eliminates nearly all of the netprof host-clock
/// overhead; even paper-scale keys run millions of network ticks, so
/// tens of thousands of sampled ticks remain and the renormalized
/// sub-phase split is stable. Set to `0` to time every tick exactly.
/// Sampling only affects the host-side sub-phase seconds — the integer
/// cycle-domain counters stay exact either way.
#[expect(clippy::disallowed_methods, reason = "reads ATAC_NETPROF_SAMPLE_LOG2")]
pub fn netprof_sample_log2() -> u32 {
    std::env::var("ATAC_NETPROF_SAMPLE_LOG2")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
        .min(16)
}

/// How a requested run record was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSource {
    /// Decoded from a published cache file.
    CacheHit,
    /// Simulated by this caller (and published).
    Simulated,
    /// Cloned from a concurrent in-process simulation of the same key.
    Joined,
}

impl RunSource {
    /// Stable lower-case name used in `BENCH_sweep.json`.
    pub fn name(self) -> &'static str {
        match self {
            RunSource::CacheHit => "cache-hit",
            RunSource::Simulated => "simulated",
            RunSource::Joined => "joined",
        }
    }
}

/// Handle to one cache directory. Cheap to clone; safe to share across
/// the executor's worker threads.
#[derive(Debug, Clone)]
pub struct RunCache {
    dir: PathBuf,
}

impl RunCache {
    /// The default cache: `ATAC_RESULTS_DIR` or `target/atac-results`.
    #[expect(clippy::disallowed_methods, reason = "reads the ATAC_RESULTS_DIR knob")]
    pub fn from_env() -> Self {
        let root =
            std::env::var("ATAC_RESULTS_DIR").unwrap_or_else(|_| "target/atac-results".into());
        RunCache {
            dir: PathBuf::from(root),
        }
    }

    /// A cache rooted at an explicit directory (tests, scratch checks).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        RunCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Published location of one run key's record.
    pub fn record_path(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{}.json", key.replace(['|', '[', ']'], "_")))
    }

    /// Decode the published record for `key`, if present and current.
    pub fn load(&self, key: &str) -> Option<RunRecord> {
        load_path(&self.record_path(key))
    }

    /// Run (or load, or join an in-flight simulation of) one benchmark
    /// under one configuration. Builds the workload itself on a miss.
    pub fn get_or_run(&self, cfg: &SimConfig, bench: Benchmark) -> (RunRecord, RunSource) {
        self.get_or_run_with(cfg, bench, None)
    }

    /// [`Self::get_or_run`] with an optionally pre-built workload, so a
    /// sweep builds each `(benchmark, core-count)` script set once and
    /// shares it immutably across workers instead of rebuilding per run.
    pub fn get_or_run_with(
        &self,
        cfg: &SimConfig,
        bench: Benchmark,
        workload: Option<&BuiltWorkload>,
    ) -> (RunRecord, RunSource) {
        let (rec, source, _, _) = self.get_or_run_profiled(cfg, bench, workload);
        (rec, source)
    }

    /// [`Self::get_or_run_with`], additionally returning the host
    /// self-profile and network microscope profile of the simulation.
    /// The host profile is `Some` only when this call actually simulated
    /// *and* [`profiling_enabled`] — cache hits and joins do no
    /// attributable host work — and covers workload build through record
    /// publication (`setup` … `export` laps). The network profile is
    /// `Some` only for simulated runs with [`netprof_enabled`].
    pub fn get_or_run_profiled(
        &self,
        cfg: &SimConfig,
        bench: Benchmark,
        workload: Option<&BuiltWorkload>,
    ) -> (
        RunRecord,
        RunSource,
        Option<HostProfile>,
        Option<NetProfile>,
    ) {
        let key = run_key(cfg, bench);
        let path = self.record_path(&key);
        if let Some(rec) = load_path(&path) {
            return (rec, RunSource::CacheHit, None, None);
        }

        // Single-flight: first requester of a key becomes the leader and
        // simulates; concurrent requesters block and clone its result.
        // The table is keyed by (dir, key) so distinct caches never
        // dedup against each other.
        let flights = flight_table();
        let flight_key = format!("{}::{key}", self.dir.display());
        let (inflight, leader) = {
            let mut map = lock_ok(flights);
            match map.get(&flight_key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::default());
                    map.insert(flight_key.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !leader {
            let mut state = lock_ok(&inflight.state);
            while matches!(*state, FlightState::Pending) {
                state = inflight
                    .done
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            return match &*state {
                FlightState::Done(rec) => ((**rec).clone(), RunSource::Joined, None, None),
                FlightState::Failed => panic!("concurrent simulation of `{key}` failed"),
                FlightState::Pending => unreachable!("condvar loop exits only when settled"),
            };
        }

        // Leader path. The guard settles the flight as Failed if the
        // simulation panics, so joiners propagate the failure instead of
        // waiting forever.
        let guard = FlightGuard {
            flights,
            flight_key,
            flight: &inflight,
            settled: false,
        };
        // Re-check under flight ownership: another *process* may have
        // published while this one raced to the table. An absent or torn
        // record (truncated write, stale schema) is simply re-simulated.
        let (rec, source, profile, netprof) = match load_path(&path) {
            Some(rec) => (rec, RunSource::CacheHit, None, None),
            None => {
                let prof = if profiling_enabled() {
                    HostProfiler::enabled_with_netprof(netprof_enabled())
                        .with_net_sampling(netprof_sample_log2())
                } else {
                    HostProfiler::disabled()
                };
                let (rec, netprof) = simulate(cfg, bench, workload, &key, &prof);
                publish_atomic(&path, &runjson::encode(&rec))
                    .unwrap_or_else(|e| panic!("cannot publish run cache {}: {e}", path.display()));
                prof.lap(HostPhase::Export);
                (rec, RunSource::Simulated, prof.finish(), netprof)
            }
        };
        guard.finish(rec.clone());
        (rec, source, profile, netprof)
    }
}

/// Write `contents` to `path` atomically: a temp file in the target
/// directory, then a same-filesystem `rename`. Concurrent readers see
/// the old bytes, the new bytes, or no file — never a torn record; a
/// crash mid-write leaves a stray `.tmp` file, not a truncated record.
#[expect(clippy::disallowed_methods, reason = "atomic writer: temp + rename")]
pub fn publish_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let dir = dir.unwrap_or_else(|| Path::new("."));
    fs::create_dir_all(dir)?;
    let name = path
        .file_name()
        .map_or_else(|| "record".into(), |n| n.to_string_lossy().into_owned());
    // The pid suffix keeps concurrent *processes* off each other's temp
    // files; within one process the single-flight table already
    // guarantees one writer per key.
    let tmp = dir.join(format!(".{name}.{}.tmp", std::process::id()));
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

/// Decode the record at `path`; `None` when the file is absent or does
/// not decode (a truncated write or a stale schema).
fn load_path(path: &Path) -> Option<RunRecord> {
    runjson::decode(&fs::read_to_string(path).ok()?)
}

/// Simulate one run, observing per-class latency histograms through a
/// worker-local collector and host phase time through `prof` (which
/// shares its lap timeline with the engine; the caller laps `export`
/// after publishing and snapshots the profile).
fn simulate(
    cfg: &SimConfig,
    bench: Benchmark,
    shared: Option<&BuiltWorkload>,
    key: &str,
    prof: &HostProfiler,
) -> (RunRecord, Option<NetProfile>) {
    eprintln!("  [sim] {key}");
    let start = std::time::Instant::now();
    let built;
    let workload = match shared {
        Some(w) => w,
        None => {
            built = bench.build(cfg.topo.cores(), Scale::Paper);
            &built
        }
    };
    // Per-worker collector: `ProbeHandle` is `Rc`-based and `!Send`, so
    // each pool worker constructs its own pair inside its thread — two
    // workers can never interleave events into one collector. The same
    // confinement applies to the `HostProfiler` clone handed down here
    // and to the `NetProfile` observer below: cross-worker aggregation
    // happens by `NetProfile::merge` after the fact, in run-key order.
    let (collector, probe) = TraceCollector::metrics_worker();
    let netobs =
        netprof_enabled().then(|| std::rc::Rc::new(std::cell::RefCell::new(NetProfile::new())));
    let obs = netobs.as_ref().map_or_else(NetObsHandle::disabled, |c| {
        NetObsHandle::attach(std::rc::Rc::clone(c))
    });
    prof.lap(HostPhase::Setup);
    let result = atac::sim::run_observed(cfg, workload, probe, None, prof.clone(), obs);
    eprintln!(
        "  [sim] {key} done in {:.1}s ({} cycles)",
        start.elapsed().as_secs_f64(),
        result.cycles
    );
    let latency = collector
        .borrow()
        .net_histograms()
        .into_iter()
        .map(|(s, k, h)| (format!("{}/{}", s.name(), k.name()), h.clone()))
        .collect();
    prof.lap(HostPhase::Export);
    // All observer clones died with the engine's network object, so the
    // worker holds the sole reference to its collected profile.
    let netprof = netobs.map(|c| {
        std::rc::Rc::try_unwrap(c)
            .expect("network observer handle leaked past the run")
            .into_inner()
    });
    let rec = RunRecord {
        cycles: result.cycles,
        instructions: result.instructions,
        ipc: result.ipc,
        net: result.net,
        coh: result.coh,
        latency,
    };
    (rec, netprof)
}

// ----------------------------------------------------------------------
// Single-flight machinery
// ----------------------------------------------------------------------

#[derive(Debug)]
enum FlightState {
    Pending,
    Done(Box<RunRecord>),
    Failed,
}

#[derive(Debug)]
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

impl Default for Flight {
    fn default() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }
}

fn flight_table() -> &'static Mutex<HashMap<String, Arc<Flight>>> {
    static FLIGHTS: OnceLock<Mutex<HashMap<String, Arc<Flight>>>> = OnceLock::new();
    FLIGHTS.get_or_init(Mutex::default)
}

/// Recover from mutex poisoning: every guarded section here performs a
/// single whole-value assignment or map mutation, so the data is
/// consistent even if a holder panicked.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Settles the leader's flight exactly once: `finish` on success, `Drop`
/// (unwind) marks it failed. Either way the flight leaves the table and
/// waiters wake.
struct FlightGuard<'a> {
    flights: &'static Mutex<HashMap<String, Arc<Flight>>>,
    flight_key: String,
    flight: &'a Arc<Flight>,
    settled: bool,
}

impl FlightGuard<'_> {
    fn finish(mut self, rec: RunRecord) {
        self.settle(FlightState::Done(Box::new(rec)));
        self.settled = true;
    }

    fn settle(&self, state: FlightState) {
        *lock_ok(&self.flight.state) = state;
        self.flight.done.notify_all();
        lock_ok(self.flights).remove(&self.flight_key);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.settled {
            self.settle(FlightState::Failed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_paths_sanitize_key_punctuation() {
        let cache = RunCache::at("/tmp/x");
        let p = cache.record_path("8x8|atac[distance-15]|flit64");
        let name = p.file_name().expect("file name").to_string_lossy();
        assert_eq!(name, "8x8_atac_distance-15__flit64.json");
    }

    #[test]
    fn publish_atomic_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("atac-publish-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("rec.json");
        publish_atomic(&path, "{\"k\": 1}").expect("publish");
        assert_eq!(fs::read_to_string(&path).expect("read back"), "{\"k\": 1}");
        let names: Vec<String> = fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["rec.json"], "temp file must be renamed away");
        // Overwrite goes through the same protocol.
        publish_atomic(&path, "{\"k\": 2}").expect("republish");
        assert_eq!(fs::read_to_string(&path).expect("read back"), "{\"k\": 2}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn source_names_are_stable() {
        assert_eq!(RunSource::CacheHit.name(), "cache-hit");
        assert_eq!(RunSource::Simulated.name(), "simulated");
        assert_eq!(RunSource::Joined.name(), "joined");
    }
}
