//! Workload mechanics: inputs from the seed, timed set-up, and bare and
//! traced passes. Every layer is reached through the simulator's public
//! functions; nothing here changes what the simulator computes.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use atac::coherence::{CoherenceStats, MemorySystem};
use atac::net::harness::{run_synthetic, SyntheticConfig};
use atac::net::{MessageClass, NetStats, Topology};
use atac::prelude::*;
use atac::sim::energy::integrate;
use atac::trace::{Histogram, HostProfile, HostProfiler, NetObsHandle, NetProfile};
use atac::workloads::{barnes, radix, BuiltWorkload};
use atac_bench::{plans, publish_atomic, run_key, runjson, RunCache, RunPlan, RunRecord};

use crate::catalogue::{Kernel, Kind, WorkloadSpec};
use crate::digest::{Digest, Golden};

/// Chip and input size of the single-run workloads (the gate sweep's
/// size is the CI gate's and fixed).
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub topo: Topology,
    pub scale: Scale,
}

impl Size {
    /// The paper's 32×32 = 1024-core chip at paper scale.
    pub fn paper() -> Self {
        Size {
            topo: Topology::atac_1024(),
            scale: Scale::Paper,
        }
    }
}

/// The seed `Benchmark::build` gives `bench`.
pub fn default_seed(bench: Benchmark) -> u64 {
    0xA7AC_0000 | bench as u64
}

/// Build a kernel through its public seeded `build` function. `seed` 0 is
/// `Benchmark::build`'s own input; any other seed is a held-out input.
pub fn build_kernel(kernel: Kernel, cores: usize, scale: Scale, seed: u64) -> BuiltWorkload {
    let s = default_seed(kernel.bench()) ^ seed;
    match kernel {
        Kernel::Radix => radix::build(cores, scale, s),
        Kernel::Barnes => barnes::build(cores, scale, barnes::NBody::Barnes, s),
    }
}

fn script_ops(w: &BuiltWorkload) -> u64 {
    w.scripts.iter().map(|s| s.len() as u64).sum()
}

/// Point the sweep executor at the CI gate's plan, with the observers
/// the traced pass wants. The executor reads these knobs from the
/// environment; they are only changed between passes, while no pool
/// worker is alive.
fn gate_env(observers: bool) {
    let on = if observers { "1" } else { "0" };
    for (k, v) in [
        ("ATAC_CORES", "64"),
        ("ATAC_BENCHES", "radix,barnes"),
        ("ATAC_PROFILE", on),
        ("ATAC_NETPROF", on),
        ("ATAC_NETPROF_SAMPLE_LOG2", "6"),
        ("ATAC_FLIGHT", "0"),
        ("ATAC_PROGRESS", "0"),
    ] {
        std::env::set_var(k, v);
    }
}

/// One timed set-up.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Workload build plus network and memory-system construction.
    pub secs: f64,
    /// The workload-build part of `secs`.
    pub build_secs: f64,
    /// Script operations built.
    pub ops: u64,
}

/// One simulated run of a pass.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub key: String,
    pub digest: Digest,
    pub edp_js: f64,
}

/// One pass: every run of the workload once.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds of the pass.
    pub wall: f64,
    /// Host seconds of its runs, summed over workers.
    pub busy: f64,
    /// Threads the pass ran its runs on.
    pub workers: usize,
    /// Runs simulated (the rest were cache hits).
    pub simulated: usize,
    pub runs: Vec<RunOutcome>,
}

impl Pass {
    pub fn cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.digest.cycles).sum()
    }

    pub fn edp_js(&self) -> f64 {
        self.runs.iter().map(|r| r.edp_js).sum()
    }
}

/// What `integrate` consumed for one run.
#[derive(Debug, Clone)]
pub struct EnergyInput {
    cfg: SimConfig,
    net: NetStats,
    coh: CoherenceStats,
    cycles: u64,
    ipc: f64,
}

/// The traced pass: the same runs with the host profiler (network
/// sub-phases sampled 1 in 64 ticks), a `NetProfile` and a metrics
/// collector attached.
#[derive(Debug, Clone)]
pub struct Traced {
    pub pass: Pass,
    pub profile: HostProfile,
    pub netprof: NetProfile,
    /// Event counters summed over the pass's runs.
    pub net: NetStats,
    pub coh: CoherenceStats,
    pub instructions: u64,
    /// Message latency over every class and run.
    pub latency: Histogram,
    pub energy: Vec<EnergyInput>,
    /// Re-executing the pass's run plan on the cache it warmed: every key
    /// a hit. Single runs publish their record to a one-key cache first.
    pub warm_pass_s: f64,
}

/// The synthetic-traffic layer run's result.
#[derive(Debug, Clone, Copy)]
pub struct Synthetic {
    pub flits_per_s: f64,
    pub latency_p99: u64,
}

#[derive(Debug)]
enum Inner {
    Single {
        kernel: Kernel,
        cfg: SimConfig,
        size: Size,
        workload: BuiltWorkload,
        instructions: u64,
    },
    Sweep {
        plan: RunPlan,
        jobs: usize,
        passes: usize,
    },
}

/// A workload instantiated for one seed.
#[derive(Debug)]
pub struct Instance {
    pub spec: &'static WorkloadSpec,
    seed: u64,
    scratch: PathBuf,
    inner: Inner,
    /// Expected digest per run key: the goldens where they apply, else
    /// the first pass's digests (held-out seeds must at least repeat).
    expect: BTreeMap<String, Digest>,
    blessed: bool,
}

impl Instance {
    /// Instantiate `spec`; builds the inputs once (untimed). Goldens
    /// apply to the gate sweep always and to single runs at seed 0.
    pub fn new(
        spec: &'static WorkloadSpec,
        seed: u64,
        size: Size,
        scratch: &Path,
        goldens: &[Golden],
    ) -> Self {
        let inner = match spec.kind {
            Kind::Single(kernel, fabric) => {
                let cfg = SimConfig {
                    topo: size.topo,
                    arch: fabric.arch(),
                    ..SimConfig::default()
                };
                let workload = build_kernel(kernel, size.topo.cores(), size.scale, seed);
                let instructions = workload.total_instructions();
                Inner::Single {
                    kernel,
                    cfg,
                    size,
                    workload,
                    instructions,
                }
            }
            Kind::GateSweep => {
                gate_env(false);
                let jobs = std::thread::available_parallelism().map_or(1, usize::from);
                Inner::Sweep {
                    plan: plans::full_suite(),
                    jobs: jobs.min(2),
                    passes: 0,
                }
            }
        };
        let keys: BTreeSet<String> = match &inner {
            Inner::Single { kernel, cfg, .. } => [run_key(cfg, kernel.bench())].into(),
            Inner::Sweep { plan, .. } => {
                plan.entries().iter().map(|(c, b)| run_key(c, *b)).collect()
            }
        };
        let applies = seed == 0 || spec.kind == Kind::GateSweep;
        let expect: BTreeMap<String, Digest> = goldens
            .iter()
            .filter(|g| applies && g.workload == spec.name && keys.contains(&g.key))
            .map(|g| (g.key.clone(), g.digest))
            .collect();
        Instance {
            spec,
            seed,
            scratch: scratch.to_path_buf(),
            inner,
            blessed: !expect.is_empty(),
            expect,
        }
    }

    /// Whether the committed goldens check this instance.
    pub fn blessed(&self) -> bool {
        self.blessed
    }

    /// Operations one pass attempts: its runs.
    pub fn operations(&self) -> usize {
        match &self.inner {
            Inner::Single { .. } => 1,
            Inner::Sweep { plan, .. } => plan.len(),
        }
    }

    /// Time one set-up of the workload's inputs and simulator state.
    pub fn setup(&self) -> Setup {
        match &self.inner {
            Inner::Single {
                kernel, cfg, size, ..
            } => {
                let t = Instant::now();
                let w = build_kernel(*kernel, size.topo.cores(), size.scale, self.seed);
                let build_secs = t.elapsed().as_secs_f64();
                let net = cfg.build_network();
                let ms = MemorySystem::new(cfg.topo, cfg.protocol);
                let secs = t.elapsed().as_secs_f64();
                black_box((&net, &ms));
                Setup {
                    secs,
                    build_secs,
                    ops: script_ops(&w),
                }
            }
            Inner::Sweep { plan, .. } => {
                let t = Instant::now();
                let mut built = BTreeSet::new();
                let mut workloads = Vec::new();
                let mut state = Vec::with_capacity(plan.len());
                let mut build_secs = 0.0;
                for (cfg, bench) in plan.entries() {
                    if built.insert((bench.name(), cfg.topo.cores())) {
                        let tb = Instant::now();
                        workloads.push(bench.build(cfg.topo.cores(), Scale::Paper));
                        build_secs += tb.elapsed().as_secs_f64();
                    }
                    state.push((
                        cfg.build_network(),
                        MemorySystem::new(cfg.topo, cfg.protocol),
                    ));
                }
                let secs = t.elapsed().as_secs_f64();
                black_box(&state);
                Setup {
                    secs,
                    build_secs,
                    ops: workloads.iter().map(script_ops).sum(),
                }
            }
        }
    }

    /// One bare pass: every observer off.
    pub fn bare_pass(&mut self) -> Pass {
        let scratch = self.scratch.clone();
        match &mut self.inner {
            Inner::Single {
                kernel,
                cfg,
                workload,
                ..
            } => {
                let t = Instant::now();
                let r = atac::sim::run(cfg, workload);
                single_pass(cfg, kernel.bench(), &r, t.elapsed().as_secs_f64())
            }
            Inner::Sweep { plan, jobs, passes } => {
                let cache = fresh_cache(&scratch, passes);
                // Observers off, even after a traced pass that panicked.
                gate_env(false);
                let t = Instant::now();
                let report = plan.execute_on(&cache, *jobs);
                let wall = t.elapsed().as_secs_f64();
                let (pass, _) = sweep_pass(&cache, &report, *jobs, wall);
                let _ = std::fs::remove_dir_all(cache.dir());
                pass
            }
        }
    }

    /// The traced pass.
    pub fn traced_pass(&mut self) -> Traced {
        let scratch = self.scratch.clone();
        match &mut self.inner {
            Inner::Single {
                kernel,
                cfg,
                workload,
                ..
            } => {
                let prof = HostProfiler::enabled_with_netprof(true).with_net_sampling(6);
                let netprof = Rc::new(RefCell::new(NetProfile::new()));
                let (collector, probe) = atac::TraceCollector::metrics_worker();
                let t = Instant::now();
                let r = atac::sim::run_observed(
                    cfg,
                    workload,
                    probe,
                    None,
                    prof.clone(),
                    NetObsHandle::attach(Rc::clone(&netprof)),
                );
                let wall = t.elapsed().as_secs_f64();
                let profile = prof.finish().expect("the profiler is enabled");
                let by_class: Vec<(String, Histogram)> = collector
                    .borrow()
                    .net_histograms()
                    .into_iter()
                    .map(|(s, k, h)| (format!("{}/{}", s.name(), k.name()), h.clone()))
                    .collect();
                let key = run_key(cfg, kernel.bench());
                let rec = RunRecord {
                    cycles: r.cycles,
                    instructions: r.instructions,
                    ipc: r.ipc,
                    net: r.net.clone(),
                    coh: r.coh.clone(),
                    latency: by_class,
                };
                let warm_pass_s = warm_single(&scratch, cfg, kernel.bench(), &key, &rec);
                let netprof = netprof.borrow().clone();
                Traced {
                    pass: single_pass(cfg, kernel.bench(), &r, wall),
                    profile,
                    netprof,
                    latency: rec.merged_latency(),
                    instructions: r.instructions,
                    energy: vec![EnergyInput {
                        cfg: cfg.clone(),
                        net: r.net.clone(),
                        coh: r.coh.clone(),
                        cycles: r.cycles,
                        ipc: r.ipc,
                    }],
                    net: r.net,
                    coh: r.coh,
                    warm_pass_s,
                }
            }
            Inner::Sweep { plan, jobs, passes } => {
                let cache = fresh_cache(&scratch, passes);
                gate_env(true);
                let t = Instant::now();
                let report = plan.execute_on(&cache, *jobs);
                let wall = t.elapsed().as_secs_f64();
                gate_env(false);
                let (pass, records) = sweep_pass(&cache, &report, *jobs, wall);
                let t = Instant::now();
                plan.execute_on(&cache, *jobs);
                let warm_pass_s = t.elapsed().as_secs_f64();
                let _ = std::fs::remove_dir_all(cache.dir());

                let profile = report
                    .merged_profile()
                    .expect("traced sweep runs carry host profiles");
                let mut netprof = NetProfile::new();
                for run in &report.runs {
                    netprof.merge(
                        run.netprof
                            .as_ref()
                            .expect("traced sweep runs carry netprof"),
                    );
                }
                let mut net = NetStats::default();
                let mut coh = CoherenceStats::default();
                let mut latency = Histogram::new();
                let mut energy = Vec::with_capacity(records.len());
                for (cfg, bench) in plan.entries() {
                    let rec = &records[&run_key(cfg, *bench)];
                    net.merge(&rec.net);
                    coh.merge(&rec.coh);
                    latency.merge(&rec.merged_latency());
                    energy.push(EnergyInput {
                        cfg: cfg.clone(),
                        net: rec.net.clone(),
                        coh: rec.coh.clone(),
                        cycles: rec.cycles,
                        ipc: rec.ipc,
                    });
                }
                Traced {
                    pass,
                    profile,
                    netprof,
                    net,
                    coh,
                    instructions: records.values().map(|r| r.instructions).sum(),
                    latency,
                    energy,
                    warm_pass_s,
                }
            }
        }
    }

    /// Drive the workload's own network with synthetic traffic at the
    /// offered load and broadcast fraction the traced pass measured, over
    /// a fixed 200k-cycle window.
    pub fn synthetic(&self, traced: &Traced) -> Synthetic {
        let cfg = match &self.inner {
            Inner::Single { cfg, .. } => cfg.clone(),
            Inner::Sweep { .. } => atac_bench::base_config(),
        };
        let cores = cfg.topo.cores() as f64;
        let net = &traced.net;
        let messages = net.unicast_messages + net.broadcast_messages;
        let syn = SyntheticConfig {
            load: net.flits_injected as f64 / traced.pass.cycles().max(1) as f64 / cores,
            broadcast_fraction: net.broadcast_messages as f64 / messages.max(1) as f64,
            measure: 200_000,
            seed: SyntheticConfig::default().seed ^ self.seed,
            ..SyntheticConfig::default()
        };
        let mut fabric = cfg.build_network();
        let t = Instant::now();
        let r = run_synthetic(fabric.as_mut(), &syn);
        let secs = t.elapsed().as_secs_f64();
        let flits = r.delivered * u64::from(MessageClass::Synthetic.flits(cfg.flit_width));
        Synthetic {
            flits_per_s: flits as f64 / secs,
            latency_p99: r.p99_latency,
        }
    }

    /// Check a pass's runs; returns how many fail. A run fails when its
    /// digest differs from the expected one, when a blessed instance
    /// meets a key without a golden, or when a single run executed other
    /// than its workload's instruction count. A blessed key the pass
    /// never ran counts as one more failure.
    pub fn verify(&mut self, runs: &[RunOutcome]) -> usize {
        let mut failed = 0;
        for r in runs {
            let instructions_ok = match &self.inner {
                Inner::Single { instructions, .. } => r.digest.instructions == *instructions,
                Inner::Sweep { .. } => true,
            };
            let digest_ok = match self.expect.get(&r.key) {
                Some(want) => *want == r.digest,
                None if !self.blessed => {
                    self.expect.insert(r.key.clone(), r.digest);
                    true
                }
                None => false,
            };
            if !(instructions_ok && digest_ok) {
                eprintln!(
                    "[benchmark] {}: `{}` does not match: got {:?}, expected {:?}",
                    self.spec.name,
                    r.key,
                    r.digest,
                    self.expect.get(&r.key)
                );
                failed += 1;
            }
        }
        let missing = self
            .expect
            .keys()
            .filter(|k| !runs.iter().any(|r| &r.key == *k))
            .count();
        if missing > 0 {
            eprintln!(
                "[benchmark] {}: {missing} expected run(s) missing",
                self.spec.name
            );
        }
        failed + missing
    }
}

/// `integrate` calls per host second on the traced pass's counters.
pub fn integrate_per_s(inputs: &[EnergyInput]) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while calls < 64 || t.elapsed().as_secs_f64() < 0.2 {
        for e in inputs {
            black_box(integrate(&e.cfg, &e.net, &e.coh, e.cycles, e.ipc));
            calls += 1;
        }
    }
    calls as f64 / t.elapsed().as_secs_f64()
}

/// A single run's pass.
fn single_pass(cfg: &SimConfig, bench: Benchmark, r: &SimResult, wall: f64) -> Pass {
    Pass {
        wall,
        busy: wall,
        workers: 1,
        simulated: 1,
        runs: vec![RunOutcome {
            key: run_key(cfg, bench),
            digest: Digest::new(
                r.cycles,
                r.instructions,
                &r.net,
                &r.coh,
                r.energy.total().value(),
            ),
            edp_js: r.edp(cfg).value(),
        }],
    }
}

fn fresh_cache(scratch: &Path, passes: &mut usize) -> RunCache {
    *passes += 1;
    let dir = scratch.join(format!("sweep-{passes}"));
    let _ = std::fs::remove_dir_all(&dir);
    RunCache::at(dir)
}

/// Digest every key a sweep published; also returns the records by key.
fn sweep_pass(
    cache: &RunCache,
    report: &atac_bench::SweepReport,
    workers: usize,
    wall: f64,
) -> (Pass, BTreeMap<String, RunRecord>) {
    let mut runs = Vec::with_capacity(report.summaries.len());
    let mut records = BTreeMap::new();
    for s in &report.summaries {
        let rec = cache
            .load(&s.key)
            .unwrap_or_else(|| panic!("`{}` was planned but not published", s.key));
        runs.push(RunOutcome {
            key: s.key.clone(),
            digest: Digest::new(
                rec.cycles,
                rec.instructions,
                &rec.net,
                &rec.coh,
                s.energy.value(),
            ),
            edp_js: s.edp.value(),
        });
        records.insert(s.key.clone(), rec);
    }
    let pass = Pass {
        wall,
        busy: report.runs.iter().map(|r| r.secs).sum(),
        workers,
        simulated: report.simulated(),
        runs,
    };
    (pass, records)
}

/// Publish a single run's record to a one-key scratch cache and time
/// re-executing its plan there.
fn warm_single(
    scratch: &Path,
    cfg: &SimConfig,
    bench: Benchmark,
    key: &str,
    rec: &RunRecord,
) -> f64 {
    let cache = RunCache::at(scratch.join("single-warm"));
    publish_atomic(&cache.record_path(key), &runjson::encode(rec))
        .unwrap_or_else(|e| panic!("cannot publish to {}: {e}", cache.dir().display()));
    let mut plan = RunPlan::new();
    plan.add(cfg.clone(), bench);
    let t = Instant::now();
    let report = plan.execute_on(&cache, 1);
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(report.cached_hits, 1, "the published record is a hit");
    let _ = std::fs::remove_dir_all(cache.dir());
    secs
}
