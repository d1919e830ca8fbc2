//! Support library for the figure/table regeneration harness.
//!
//! Each `src/bin/figNN_*.rs` binary regenerates one table or figure of
//! the paper. Full-system runs at 1024 cores take seconds each and many
//! figures share the same underlying runs (e.g. the photonic scenarios of
//! Fig. 7 differ only in *energy integration*, not timing), so runs are
//! cached: completed run records (event counters + completion time) are
//! persisted as JSON under `target/atac-results/` and reused across
//! binaries. Delete that directory to force re-simulation.
//!
//! The cache files are JSON (justified in DESIGN.md: the cache is what
//! makes regenerating all ~20 figures tractable on one machine; JSON
//! keeps it human-inspectable), written and parsed by the in-tree
//! [`runjson`] module — the workspace builds offline with no external
//! crates.

// Host crate: wall clocks and hash maps measure and schedule the host,
// never a simulated result, so clippy.toml's determinism types are fine.
#![allow(clippy::disallowed_types, reason = "sweep timing, in-process index")]

use std::collections::BTreeMap;

use atac::coherence::{CoherenceStats, ProtocolKind};
use atac::net::NetStats;
use atac::phys::units::{JouleSeconds, Joules, Seconds};
use atac::prelude::*;
use atac::sim::energy::integrate;

pub mod cache;
pub mod executor;
pub mod plans;
pub mod runjson;

pub use cache::{
    netprof_enabled, netprof_sample_log2, profiling_enabled, publish_atomic, RunCache, RunSource,
};
pub use executor::{jobs_from_env, ExecutorStats, RunPlan, RunTiming, SweepLog, SweepReport};

/// A cached full-system run: everything needed to recompute energy under
/// any photonic scenario / receive-net flavor without re-simulating.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Completion time in cycles.
    pub cycles: u64,
    /// Total instructions executed.
    pub instructions: u64,
    /// Average per-core IPC.
    pub ipc: f64,
    /// Network event counters.
    pub net: NetStats,
    /// Memory-subsystem event counters.
    pub coh: CoherenceStats,
    /// Per-class message-latency distributions, keyed
    /// `"<subnet>/<kind>"` (e.g. `"onet/broadcast"`), in the collector's
    /// display order. Histograms merge across runs, so records can be
    /// aggregated without the raw samples.
    pub latency: Vec<(String, atac::trace::Histogram)>,
}

impl RunRecord {
    /// Recompute the energy breakdown for this run under `cfg` (which
    /// must describe the same *timing* configuration, but may vary the
    /// photonic scenario, receive net, or core NDD fraction — none of
    /// which affect timing).
    pub fn energy(&self, cfg: &SimConfig) -> EnergyBreakdown {
        integrate(cfg, &self.net, &self.coh, self.cycles, self.ipc)
    }

    /// Runtime under `cfg`'s clock.
    pub fn runtime(&self, cfg: &SimConfig) -> Seconds {
        cfg.cycle_time() * self.cycles as f64
    }

    /// Energy-delay product under `cfg`.
    pub fn edp(&self, cfg: &SimConfig) -> JouleSeconds {
        self.energy(cfg).total() * self.runtime(cfg)
    }

    /// All message classes' latency histograms merged into one
    /// distribution (histograms are mergeable without raw samples).
    pub fn merged_latency(&self) -> atac::trace::Histogram {
        let mut all = atac::trace::Histogram::new();
        for (_, h) in &self.latency {
            all.merge(h);
        }
        all
    }
}

/// The figure-level metrics of one run, as recorded into the run-history
/// registry (`BENCH_history.jsonl` via `atac-report`): everything a
/// cross-PR regression gate compares, detached from the full counter set.
///
/// Simulated metrics (`cycles` … `edp`) are deterministic per the cache's
/// contract and gate by exact match; the latency percentiles come from
/// the merged per-class histograms and are equally exact.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The run key (see [`run_key`]).
    pub key: String,
    /// Benchmark name (the trailing run-key component, kept parsed).
    pub bench: String,
    /// Completion time in cycles.
    pub cycles: u64,
    /// Total instructions executed.
    pub instructions: u64,
    /// Average per-core IPC.
    pub ipc: f64,
    /// Runtime under the run's clock.
    pub runtime: Seconds,
    /// Total energy under the run's configuration.
    pub energy: Joules,
    /// Energy-delay product.
    pub edp: JouleSeconds,
    /// Median message latency in cycles (merged across classes).
    pub latency_p50: u64,
    /// 95th-percentile message latency in cycles.
    pub latency_p95: u64,
    /// 99th-percentile message latency in cycles.
    pub latency_p99: u64,
    /// Exact maximum message latency in cycles.
    pub latency_max: u64,
    /// Messages across every class histogram.
    pub latency_count: u64,
}

impl RunSummary {
    /// Summarize one cached record under the configuration it ran with.
    pub fn from_record(cfg: &SimConfig, bench: Benchmark, rec: &RunRecord) -> Self {
        let lat = rec.merged_latency();
        RunSummary {
            key: run_key(cfg, bench),
            bench: bench.name().to_string(),
            cycles: rec.cycles,
            instructions: rec.instructions,
            ipc: rec.ipc,
            runtime: rec.runtime(cfg),
            energy: rec.energy(cfg).total(),
            edp: rec.edp(cfg),
            latency_p50: lat.p50(),
            latency_p95: lat.p95(),
            latency_p99: lat.p99(),
            latency_max: lat.max(),
            latency_count: lat.count(),
        }
    }
}

/// Stable identifier for a (timing-relevant) configuration × benchmark.
pub fn run_key(cfg: &SimConfig, bench: Benchmark) -> String {
    let arch = match cfg.arch {
        Arch::EMeshPure => "emesh-pure".to_string(),
        Arch::EMeshBcast => "emesh-bcast".to_string(),
        Arch::Atac(policy, _) => format!("atac[{}]", policy.name()),
    };
    let proto = match cfg.protocol {
        ProtocolKind::AckWise { k } => format!("ackwise{k}"),
        ProtocolKind::DirB { k } => format!("dir{k}b"),
    };
    format!(
        "{}x{}|{}|flit{}|buf{}|{}|{}",
        cfg.topo.width,
        cfg.topo.height,
        arch,
        cfg.flit_width,
        cfg.buffer_depth,
        proto,
        bench.name(),
    )
}

/// Run (or load from cache) one benchmark under one configuration, via
/// the default [`RunCache`]. Safe to call from concurrent workers: the
/// cache layer deduplicates in-flight keys and publishes atomically.
pub fn run_cached(cfg: &SimConfig, bench: Benchmark) -> RunRecord {
    RunCache::from_env().get_or_run(cfg, bench).0
}

/// The benchmark subset to evaluate: all eight by default, overridable
/// with `ATAC_BENCHES=radix,barnes` for quick passes.
#[expect(clippy::disallowed_methods, reason = "reads the ATAC_BENCHES knob")]
pub fn benchmarks() -> Vec<Benchmark> {
    match std::env::var("ATAC_BENCHES") {
        Ok(list) => {
            let wanted: Vec<&str> = list.split(',').map(str::trim).collect();
            Benchmark::ALL
                .into_iter()
                .filter(|b| wanted.contains(&b.name()))
                .collect()
        }
        Err(_) => Benchmark::ALL.to_vec(),
    }
}

/// The chip size to evaluate: the paper's 1024 cores by default,
/// `ATAC_CORES=64|256` for quick passes.
#[expect(clippy::disallowed_methods, reason = "reads the ATAC_CORES knob")]
pub fn topology() -> Topology {
    match std::env::var("ATAC_CORES").as_deref() {
        Ok("64") => Topology::small(8, 4),
        Ok("256") => Topology::small(16, 4),
        _ => Topology::atac_1024(),
    }
}

/// Default configuration for the evaluated chip (Table I + ATAC+).
pub fn base_config() -> SimConfig {
    SimConfig {
        topo: topology(),
        ..SimConfig::default()
    }
}

// ----------------------------------------------------------------------
// Output formatting
// ----------------------------------------------------------------------

/// Print a figure/table header with provenance.
pub fn header(id: &str, caption: &str) {
    println!("\n=== {id} — {caption} ===");
}

/// A simple aligned table printer: rows of (label, values).
#[derive(Debug)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
    precision: usize,
}

impl Table {
    /// Create a table with the given value-column names.
    pub fn new(columns: &[&str]) -> Self {
        Table {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            precision: 3,
        }
    }

    /// Set decimal places for values.
    pub fn precision(mut self, p: usize) -> Self {
        self.precision = p;
        self
    }

    /// Append a row.
    pub fn row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        let v = values;
        assert_eq!(v.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), v));
    }

    /// Render to stdout.
    pub fn print(&self) {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(9))
            .max()
            .unwrap_or(9);
        let col_w = self
            .columns
            .iter()
            .map(|c| c.len().max(self.precision + 6))
            .collect::<Vec<_>>();
        print!("{:label_w$}", "");
        for (c, w) in self.columns.iter().zip(&col_w) {
            print!("  {c:>w$}");
        }
        println!();
        for (label, values) in &self.rows {
            print!("{label:label_w$}");
            for (v, w) in values.iter().zip(&col_w) {
                print!("  {v:>w$.p$}", p = self.precision);
            }
            println!();
        }
    }

    /// Access rows (for tests).
    pub fn rows(&self) -> &[(String, Vec<f64>)] {
        &self.rows
    }
}

/// Geometric mean (the paper's cross-benchmark summary statistic for
/// ratios like EDP).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Sum per-key values across benchmarks into an average breakdown map.
pub fn average_maps(maps: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for m in maps {
        for (k, v) in m {
            *out.entry(k.clone()).or_insert(0.0) += v / maps.len() as f64;
        }
    }
    out
}

/// Decompose an [`EnergyBreakdown`] into the Fig. 7 stack categories.
pub fn fig7_categories(e: &EnergyBreakdown) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    m.insert("laser".into(), e.laser.value());
    m.insert("ring_tuning".into(), e.ring_tuning.value());
    m.insert("optical_other".into(), e.optical_other.value());
    m.insert("emesh".into(), (e.emesh_dynamic + e.emesh_static).value());
    m.insert("receive_net+hub".into(), (e.receive_net + e.hub).value());
    m.insert("l1i".into(), (e.l1i_dynamic + e.l1i_static).value());
    m.insert("l1d".into(), (e.l1d_dynamic + e.l1d_static).value());
    m.insert("l2".into(), (e.l2_dynamic + e.l2_static).value());
    m.insert("directory".into(), (e.dir_dynamic + e.dir_static).value());
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_key_distinguishes_configs() {
        let a = run_key(&base_config(), Benchmark::Radix);
        let b = run_key(
            &SimConfig {
                flit_width: 128,
                ..base_config()
            },
            Benchmark::Radix,
        );
        let c = run_key(&base_config(), Benchmark::Barnes);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "b"]);
        t.row("x", vec![1.0, 2.0]);
        assert_eq!(t.rows().len(), 1);
        t.print();
    }

    /// One combined test so the env-var manipulation cannot race across
    /// parallel test threads.
    #[test]
    fn cache_roundtrip_and_scenario_reintegration() {
        std::env::set_var("ATAC_RESULTS_DIR", "/tmp/atac-test-results");
        let _ = std::fs::remove_dir_all("/tmp/atac-test-results");
        let cfg = SimConfig {
            topo: Topology::small(8, 4),
            ..SimConfig::default()
        };
        // Scale::Paper on 64 cores is small; second call must hit cache.
        let a = run_cached(&cfg, Benchmark::LuContig);
        let b = run_cached(&cfg, Benchmark::LuContig);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.net, b.net);

        // Scenario changes re-integrate without re-simulating.
        let practical = a.energy(&cfg).network().value();
        let cons = a
            .energy(&SimConfig {
                scenario: PhotonicScenario::Conservative,
                ..cfg.clone()
            })
            .network()
            .value();
        assert!(cons > practical);
        std::env::remove_var("ATAC_RESULTS_DIR");
    }
}
