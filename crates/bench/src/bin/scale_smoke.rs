//! Paper-scale smoke run: execute the [`atac_bench::plans::fig_scale`]
//! plan (three architectures × radix) at the ambient `ATAC_CORES` size
//! — the opt-in CI job sets the paper's 32×32 = 1024 cores — with the
//! network microscope attached, and check the skip-ahead *ledger
//! invariants* on every simulated run:
//!
//! * engine granularity: `ticks_executed + cycles_skipped == cycles`;
//! * router granularity: `router_ticks + router_cycles_skipped ==
//!   observed routers × cycles` (with `router_ticks` never exceeding
//!   the product — a router double-ticked in one cycle would overshoot
//!   before the saturating ledger could hide it).
//!
//! The run always simulates into a scratch cache (scale results would
//! poison the figure-suite cache and vice versa), writes its timings
//! via [`SweepLog`] to `BENCH_scale.json`, and — when
//! `ATAC_SCALE_BUDGET_SECS` is set — fails if the whole pass exceeds
//! that wall-clock budget, so the CI job cannot silently grow without
//! someone raising the box.

// Host crate: wall clocks and hash maps measure and schedule the host,
// never a simulated result, so clippy.toml's determinism types are fine.
#![allow(clippy::disallowed_types, reason = "enforces the wall-clock budget")]

use std::path::Path;
use std::time::Instant;

use atac_bench::{plans, run_key, RunCache, SweepLog};

#[expect(clippy::disallowed_methods, reason = "reads the scale smoke's knobs")]
fn main() {
    // The ledger checks need the cycle-domain observer on every run.
    // Fail fast if the caller disabled it rather than silently checking
    // nothing.
    if std::env::var("ATAC_NETPROF").as_deref() != Ok("1") {
        std::env::set_var("ATAC_NETPROF", "1");
    }
    let budget: Option<f64> = std::env::var("ATAC_SCALE_BUDGET_SECS")
        .ok()
        .and_then(|v| v.parse().ok());
    let jobs = atac_bench::jobs_from_env();
    let plan = plans::fig_scale();
    let cores = atac_bench::base_config().topo.cores();
    eprintln!(
        "[scale_smoke] {} run key(s) at {} cores, {} worker(s)",
        plan.len(),
        cores,
        jobs
    );

    let t_total = Instant::now();
    let mut log = SweepLog::new(jobs);
    let scratch = RunCache::at(format!("target/atac-scale-{}", std::process::id()));
    let t = Instant::now();
    let report = plan.execute_on(&scratch, jobs);
    log.phase("scale", t.elapsed().as_secs_f64());
    log.absorb(&report);
    let _ = std::fs::remove_dir_all(scratch.dir());

    let mut checked = 0usize;
    for run in &report.runs {
        let Some(np) = &run.netprof else {
            panic!("`{}` simulated without a network profile", run.key);
        };
        assert_eq!(
            np.ticks_executed + np.cycles_skipped,
            np.cycles,
            "`{}`: engine skip ledger does not reconcile",
            run.key
        );
        let router_cycles = np.routers.len() as u64 * np.cycles;
        assert!(
            np.router_ticks() <= router_cycles,
            "`{}`: router_ticks {} exceeds routers × cycles {}",
            run.key,
            np.router_ticks(),
            router_cycles
        );
        assert_eq!(
            np.router_ticks() + np.router_cycles_skipped(),
            router_cycles,
            "`{}`: router skip ledger does not reconcile",
            run.key
        );
        eprintln!(
            "[scale_smoke] {}: {} cycles, {:.1}% of router-cycles skipped, {:.1}s",
            run.key,
            np.cycles,
            100.0 * np.router_skip_fraction(),
            run.secs
        );
        checked += 1;
    }
    assert_eq!(
        checked,
        plan.len(),
        "every planned key must simulate (scratch cache starts empty)"
    );
    for (cfg, bench) in plan.entries() {
        assert!(
            report.runs.iter().any(|r| r.key == run_key(cfg, *bench)),
            "planned key `{}` missing from the report",
            run_key(cfg, *bench)
        );
    }

    let wall = t_total.elapsed().as_secs_f64();
    log.phase("total", wall);
    let out = Path::new("BENCH_scale.json");
    log.write(out)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    eprintln!("[scale_smoke] wrote {} ({wall:.1}s wall)", out.display());
    if let Some(b) = budget {
        assert!(
            wall <= b,
            "scale smoke took {wall:.1}s, over the {b:.0}s budget \
             (ATAC_SCALE_BUDGET_SECS)"
        );
    }
}
