//! Executor + cache semantics under concurrency — the determinism
//! contract (parallel sweep ⇒ byte-identical records to a serial one),
//! single-flight dedup, and torn-record recovery.
//!
//! All caches live under `CARGO_TARGET_TMPDIR` via [`RunCache::at`];
//! nothing here touches `ATAC_RESULTS_DIR`, so these tests cannot race
//! the env-var-mutating unit test in the library.

use std::path::PathBuf;

use atac::prelude::*;
use atac_bench::{run_key, RunCache, RunPlan, RunSource};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 64-core chip (the `ATAC_CORES=64` smoke size), independent of the
/// environment.
fn small_config() -> SimConfig {
    SimConfig {
        topo: Topology::small(8, 4),
        ..SimConfig::default()
    }
}

fn small_plan() -> RunPlan {
    let mut plan = RunPlan::new();
    for b in [Benchmark::LuContig, Benchmark::Barnes] {
        plan.add(small_config(), b);
        plan.add(
            SimConfig {
                arch: Arch::EMeshBcast,
                ..small_config()
            },
            b,
        );
    }
    plan
}

#[test]
fn parallel_and_serial_sweeps_produce_byte_identical_records() {
    let plan = small_plan();
    assert_eq!(plan.len(), 4);

    let serial_cache = RunCache::at(scratch("exec-serial"));
    let serial = plan.execute_on(&serial_cache, 1);
    assert_eq!(serial.simulated(), 4);

    let parallel_cache = RunCache::at(scratch("exec-parallel"));
    let parallel = plan.execute_on(&parallel_cache, 4);
    assert_eq!(parallel.jobs, 4);
    assert_eq!(
        parallel.simulated() + parallel.cached_hits,
        4,
        "every key obtained exactly once"
    );

    for (cfg, bench) in plan.entries() {
        let key = run_key(cfg, *bench);
        let a = std::fs::read(serial_cache.record_path(&key)).expect("serial record");
        let b = std::fs::read(parallel_cache.record_path(&key)).expect("parallel record");
        assert!(!a.is_empty());
        assert_eq!(a, b, "records for `{key}` must be byte-identical");
    }
    // The sweep summaries (what lands in BENCH_sweep.json and feeds the
    // gate) are identical too, already sorted by key.
    assert_eq!(serial.summaries, parallel.summaries);
    if cfg!(target_os = "linux") {
        assert!(
            parallel.peak_rss_bytes > 0,
            "statm sampling must work on linux"
        );
    }

    // Atomic publication must not leave temp files behind.
    for cache in [&serial_cache, &parallel_cache] {
        for entry in std::fs::read_dir(cache.dir()).expect("cache dir") {
            let name = entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned();
            assert!(
                name.ends_with(".json"),
                "stray non-record file in cache: {name}"
            );
        }
    }

    // A second parallel pass over a warm cache simulates nothing.
    let warm = plan.execute_on(&parallel_cache, 4);
    assert_eq!(warm.simulated(), 0);
    assert_eq!(warm.cached_hits, 4);
}

#[test]
fn single_flight_dedups_concurrent_requests_for_one_key() {
    let cache = RunCache::at(scratch("exec-singleflight"));
    let cfg = small_config();
    let barrier = std::sync::Barrier::new(2);

    let sources: Vec<RunSource> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    cache.get_or_run(&cfg, Benchmark::LuContig).1
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    let simulated = sources
        .iter()
        .filter(|&&s| s == RunSource::Simulated)
        .count();
    assert_eq!(
        simulated, 1,
        "exactly one thread simulates; got {sources:?}"
    );
    // The other thread either joined the in-flight run or (if the leader
    // finished inside the race window) read the published record.
    assert!(sources
        .iter()
        .all(|&s| s != RunSource::Simulated || simulated == 1));
}

#[test]
#[expect(clippy::disallowed_methods, reason = "corrupts a record on purpose")]
fn truncated_cache_record_is_resimulated_and_replaced() {
    let cache = RunCache::at(scratch("exec-torn"));
    let cfg = small_config();
    let (original, source) = cache.get_or_run(&cfg, Benchmark::LuContig);
    assert_eq!(source, RunSource::Simulated);

    // Tear the published record in half, as a crashed non-atomic writer
    // would have (the bug the temp-file + rename protocol prevents).
    let key = run_key(&cfg, Benchmark::LuContig);
    let path = cache.record_path(&key);
    let text = std::fs::read_to_string(&path).expect("record");
    std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");

    assert!(
        cache.load(&key).is_none(),
        "a torn record must decode to None, not garbage"
    );
    let (healed, source) = cache.get_or_run(&cfg, Benchmark::LuContig);
    assert_eq!(source, RunSource::Simulated, "torn record re-simulates");
    assert_eq!(healed.cycles, original.cycles, "determinism");
    assert_eq!(
        std::fs::read_to_string(&path).expect("healed record"),
        text,
        "republished record restores the original bytes"
    );
}
