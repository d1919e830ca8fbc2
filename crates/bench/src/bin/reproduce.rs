//! Regenerate every table and figure of the paper, in two phases:
//!
//! 1. **Warm** — the union of every figure's run plan
//!    ([`atac_bench::plans::full_suite`]) executes on the parallel sweep
//!    pool (`ATAC_JOBS` workers), filling `target/atac-results/` with
//!    every record the suite needs. Runs are independent and
//!    deterministic, so cross-run parallelism changes wall-clock only.
//! 2. **Render** — the individual `figNN_*` binaries run serially in
//!    paper order; every record they ask for is already cached, so this
//!    phase is pure formatting.
//!
//! Wall-clock per phase and per simulated run key lands in
//! `BENCH_sweep.json` (schema `atac-bench-sweep-v4`, which carries
//! per-key figure-level summaries, host self-profiles, and the
//! executor's own cache/RSS self-metrics) in the working directory.
//! `atac-report` (crates/report) records these sweeps into the
//! append-only `BENCH_history.jsonl` registry and gates new runs
//! against it, giving later PRs a perf trajectory to regress against.
//!
//! Environment knobs: `ATAC_JOBS=<n>` (default: available parallelism),
//! `ATAC_CORES=64|256|1024` (default 1024),
//! `ATAC_BENCHES=radix,barnes,...` (default all eight),
//! and `ATAC_VERIFY=1` to re-simulate one key serially into a scratch
//! cache and fail if its bytes differ from the parallel sweep's record
//! (the determinism contract, checked end to end in CI).

// Host crate: wall clocks and hash maps measure and schedule the host,
// never a simulated result, so clippy.toml's determinism types are fine.
#![allow(clippy::disallowed_types, reason = "times each figure binary")]

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use atac_bench::{plans, run_key, runjson, RunCache, SweepLog};

#[expect(clippy::disallowed_methods, reason = "reads the ATAC_VERIFY knob")]
fn main() {
    let jobs = atac_bench::jobs_from_env();
    let mut log = SweepLog::new(jobs);
    let t_total = Instant::now();

    // Phase 1: warm the run cache in parallel.
    let plan = plans::full_suite();
    eprintln!(
        "[reproduce] warming {} run key(s) with {jobs} worker(s)",
        plan.len()
    );
    let t = Instant::now();
    let report = plan.execute_on(&RunCache::from_env(), jobs);
    log.phase("warm", t.elapsed().as_secs_f64());
    log.absorb(&report);

    // Phase 2: render every figure in paper order from the warm cache.
    let bins = [
        "tables",
        "fig03_latency_load",
        "fig04_runtime",
        "fig05_traffic_mix",
        "fig06_offered_load",
        "fig07_energy_breakdown",
        "fig08_edp",
        "fig09_waveguide_loss",
        "fig10_area",
        "fig11_flit_width",
        "fig12_bnet_starnet",
        "fig13_routing_edp",
        "fig14_protocol_edp",
        "fig15_sharers_delay",
        "fig16_sharers_energy",
        "fig17_core_power",
        "table05_swmr",
        "ablation",
    ];
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let t = Instant::now();
    for bin in bins {
        let t_bin = Instant::now();
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
        log.phase(&format!("render:{bin}"), t_bin.elapsed().as_secs_f64());
    }
    log.phase("render", t.elapsed().as_secs_f64());

    // Optional determinism re-check: simulate the plan's first key
    // serially into a scratch cache and byte-compare the records.
    let verify_ok = if std::env::var("ATAC_VERIFY").as_deref() == Ok("1") {
        verify_one_key(&plan, &mut log)
    } else {
        true
    };

    log.phase("total", t_total.elapsed().as_secs_f64());
    let out = Path::new("BENCH_sweep.json");
    log.write(out)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    eprintln!("[reproduce] wrote {}", out.display());
    assert!(verify_ok, "parallel record differs from serial re-check");
}

/// Re-simulate the first planned key serially in a scratch cache and
/// compare the published bytes against the parallel sweep's record.
fn verify_one_key(plan: &atac_bench::RunPlan, log: &mut SweepLog) -> bool {
    let Some((cfg, bench)) = plan.entries().first() else {
        return true;
    };
    let key = run_key(cfg, *bench);
    eprintln!("[reproduce] verifying `{key}` against a serial re-run");
    let scratch = RunCache::at(format!("target/atac-verify-{}", std::process::id()));
    let (serial_rec, _) = scratch.get_or_run(cfg, *bench);
    let parallel_bytes = std::fs::read(RunCache::from_env().record_path(&key))
        .expect("parallel record must exist after the warm phase");
    let identical = parallel_bytes == runjson::encode(&serial_rec).into_bytes();
    let _ = std::fs::remove_dir_all(scratch.dir());
    log.set_verify(&key, identical);
    if identical {
        eprintln!("[reproduce] verify ok: byte-identical records");
    } else {
        eprintln!("[reproduce] VERIFY FAILED: `{key}` differs between parallel and serial runs");
    }
    identical
}
