//! The benchmark's one catalogue: every workload and every metric, with
//! its unit, direction, regression bound, layer, and the end-to-end
//! metric it should move. `--list` prints it, the measurement code looks
//! its names up here, and a unit test holds `BENCHMARK.json` to it.

use atac::prelude::*;

/// The simulator fabric a single-run workload is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// ATAC+: Distance-15 routing over ENet + ONet, StarNet receive.
    AtacPlus,
    /// The electrical mesh with router multicast, no optical layer.
    EMeshBcast,
}

impl Fabric {
    pub fn arch(self) -> Arch {
        match self {
            Fabric::AtacPlus => Arch::atac_plus(),
            Fabric::EMeshBcast => Arch::EMeshBcast,
        }
    }
}

/// The application kernels the single-run workloads replay; both have
/// public seeded `build` functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Radix,
    Barnes,
}

impl Kernel {
    pub fn bench(self) -> Benchmark {
        match self {
            Kernel::Radix => Benchmark::Radix,
            Kernel::Barnes => Benchmark::Barnes,
        }
    }
}

/// How a workload drives the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One full-system run per pass on the main thread, through
    /// `atac::sim::run` with every observer off.
    Single(Kernel, Fabric),
    /// The CI gate's 64-core run plan executed through
    /// `RunPlan::execute_on` on a fresh scratch cache per pass.
    GateSweep,
}

#[derive(Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line, copied verbatim into `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "paper-radix",
        why: "The paper's 1024-core ATAC+ chip at paper scale on unicast, write-heavy radix \
              traffic: network 73% and coherence 15% of host time",
        kind: Kind::Single(Kernel::Radix, Fabric::AtacPlus),
    },
    WorkloadSpec {
        name: "paper-barnes",
        why: "The same chip on read-mostly barnes with broadcast invalidations over the ONet: \
              the largest coherence and memory-controller share of host time",
        kind: Kind::Single(Kernel::Barnes, Fabric::AtacPlus),
    },
    WorkloadSpec {
        name: "emesh-radix",
        why: "Radix on the 1024-core EMesh-BCast mesh with no ONet: mesh routers take 88% of \
              host time, so ONet and hub changes should leave it unchanged",
        kind: Kind::Single(Kernel::Radix, Fabric::EMeshBcast),
    },
    WorkloadSpec {
        name: "gate-sweep-64",
        why: "The CI gate's 42 short 64-core runs on a 2-worker pool: the one workload where \
              the executor, the run cache and per-run set-up carry weight",
        kind: Kind::GateSweep,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may move between two sets of runs of the same code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// May worsen by at most this share of the baseline median.
    Share(f64),
    /// Derived from simulated counters only: repeats exactly for a seed.
    Exact,
    /// Host time of one layer; no bound.
    Free,
}

#[derive(Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// The module the metric observes (`end-to-end` for user-visible ones).
    pub layer: &'static str,
    /// End-to-end metrics: what is measured. Per-layer metrics: which
    /// end-to-end metric it should move, on which workload.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    layer: &'static str,
    note: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
        layer,
        note,
    }
}

use Better::{Higher, Lower};
use Bound::{Exact, Free, Share};

#[rustfmt::skip]
pub const END_TO_END: &[MetricSpec] = &[
    m("wall_s", "s", Lower, Share(0.24), "end-to-end",
      "host seconds of one bare pass (sweep: the whole 42-key pass), median of the run's passes"),
    m("sim_cycles_per_s", "cycles/s", Higher, Share(0.24), "end-to-end",
      "simulated cycles (summed over keys for the sweep) per host second of a bare pass"),
    m("setup_s", "s", Lower, Share(0.25), "end-to-end",
      "workload build + build_network + MemorySystem::new (sweep: each distinct build plus \
       each key's construction), median of repeated set-ups"),
    m("peak_rss_mb", "MiB", Lower, Share(0.10), "end-to-end",
      "VmHWM over the bare passes, reset before each through /proc/self/clear_refs"),
];

const NET_MESH: &str = "wall_s: most on emesh-radix, then paper-radix";
const NET_HUB: &str = "wall_s on paper-radix and paper-barnes only; no change on emesh-radix";
const COH: &str = "wall_s on paper-barnes; little on emesh-radix";
const ENGINE: &str = "wall_s on gate-sweep-64 and paper-barnes";
const ENERGY: &str = "none: under 1% on every workload";
const BENCH: &str = "wall_s on gate-sweep-64 only";
const EXACT_RESULT: &str = "none: a simulator-speed change must leave it identical";

#[rustfmt::skip]
pub const PER_LAYER: &[MetricSpec] = &[
    // net: mesh routers, ONet and hubs.
    m("net.share",                        "fraction",    Lower,  Free,  "net", NET_MESH),
    m("net.route_compute.share",          "fraction",    Lower,  Free,  "net", NET_MESH),
    m("net.switch_arb.share",             "fraction",    Lower,  Free,  "net", NET_MESH),
    m("net.credit.share",                 "fraction",    Lower,  Free,  "net", NET_MESH),
    m("net.queue_ops.share",              "fraction",    Lower,  Free,  "net", NET_MESH),
    m("net.hub_arb.share",                "fraction",    Lower,  Free,  "net", NET_HUB),
    m("net.skip_scan.share",              "fraction",    Lower,  Free,  "net", NET_MESH),
    m("net.router_skip_frac",             "fraction",    Higher, Exact, "net", NET_MESH),
    m("net.flits_per_grant",              "flits/grant", Higher, Exact, "net", NET_MESH),
    m("net.flits_injected",               "count",       Lower,  Exact, "net", EXACT_RESULT),
    m("net.xbar_traversals",              "count",       Lower,  Exact, "net", NET_MESH),
    m("net.onet_flits_sent",              "count",       Lower,  Exact, "net", NET_HUB),
    m("net.broadcast_messages",           "count",       Lower,  Exact, "net", NET_HUB),
    m("net.msg_latency_p50_cycles",       "cycles",      Lower,  Exact, "net", EXACT_RESULT),
    m("net.msg_latency_p99_cycles",       "cycles",      Lower,  Exact, "net", EXACT_RESULT),
    m("net.xbar_per_s",                   "xbar/s",      Higher, Free,  "net", NET_MESH),
    m("net.synthetic.flits_per_s",        "flits/s",     Higher, Free,  "net", NET_MESH),
    m("net.synthetic.latency_p99_cycles", "cycles",      Lower,  Exact, "net", EXACT_RESULT),
    // coherence: system, protocol, directory, caches; memctrl apart.
    m("coherence.share",                  "fraction",    Lower,  Free,  "coherence", COH),
    m("coherence.memctrl.share",          "fraction",    Lower,  Free,  "coherence::memctrl", COH),
    m("coherence.l2_misses",              "count",       Lower,  Exact, "coherence", COH),
    m("coherence.dir_lookups",            "count",       Lower,  Exact, "coherence", COH),
    m("coherence.inv_broadcasts",         "count",       Lower,  Exact, "coherence", COH),
    m("coherence.write_frac",             "fraction",    Lower,  Exact, "coherence", EXACT_RESULT),
    m("coherence.memctrl.mem_ops",        "count",       Lower,  Exact, "coherence::memctrl", COH),
    m("coherence.memctrl.queue_cycles",   "cycles",      Lower,  Exact, "coherence::memctrl", COH),
    m("coherence.dir_lookups_per_s",      "lookups/s",   Higher, Free,  "coherence", COH),
    m("coherence.memctrl.mem_ops_per_s",  "ops/s",       Higher, Free,  "coherence::memctrl", COH),
    // sim::engine: replay, clock advance, set-up, and the modelled completion time.
    m("sim.setup.share",                  "fraction",    Lower,  Free,  "sim::engine", ENGINE),
    m("sim.replay.share",                 "fraction",    Lower,  Free,  "sim::engine", ENGINE),
    m("sim.advance.share",                "fraction",    Lower,  Free,  "sim::engine", ENGINE),
    m("sim.cycle_skip_frac",              "fraction",    Higher, Exact, "sim::engine", ENGINE),
    m("sim.replay.instr_per_s",           "instr/s",     Higher, Free,  "sim::engine", ENGINE),
    m("sim_cycles",                       "cycles",      Lower,  Exact, "sim::engine", EXACT_RESULT),
    // sim::energy: the modelled energy-delay product and the integration cost.
    m("edp_js",                           "J.s",         Lower,  Exact, "sim::energy", EXACT_RESULT),
    m("sim.energy.share",                 "fraction",    Lower,  Free,  "sim::energy", ENERGY),
    m("sim.energy.integrate_per_s",       "calls/s",     Higher, Free,  "sim::energy", ENERGY),
    // workloads: script generation.
    m("workloads.build_ops_per_s",        "ops/s",       Higher, Free,  "workloads",
      "setup_s on every workload, most on gate-sweep-64"),
    // bench: the sweep executor and run cache.
    m("bench.pool_util",                  "fraction",    Higher, Free,  "bench", BENCH),
    m("bench.runs_simulated",             "count",       Lower,  Exact, "bench", BENCH),
    m("bench.warm_pass_s",                "s",           Lower,  Free,  "bench", BENCH),
    // trace: the cost and reach of the observers.
    m("trace.overhead",                   "ratio",       Lower,  Free,  "trace",
      "none: tracks the zero-overhead aim for observers"),
    m("trace.coverage",                   "fraction",    Higher, Free,  "trace",
      "none: host shares must tile at least 95% of the traced pass"),
];

/// Look a metric up by name in either list.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// Print the catalogue (`--list`).
pub fn print() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!();
    println!(
        "{:<36} {:<12} {:<7} {:<6} {:<20} note",
        "metric", "unit", "better", "bound", "layer"
    );
    for s in END_TO_END.iter().chain(PER_LAYER) {
        let bound = match s.bound {
            Share(b) => format!("{:.0}%", b * 100.0),
            Exact => "exact".to_string(),
            Free => "-".to_string(),
        };
        println!(
            "{:<36} {:<12} {:<7} {:<6} {:<20} {}",
            s.name,
            s.unit,
            s.better.name(),
            bound,
            s.layer,
            s.note
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atac::trace::json::{self, Json};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|s| s.name));
        for n in &names {
            assert!(valid_name(n), "bad name `{n}`");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                s.unit.len() <= 16
                    && s.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{}` on {}",
                s.unit,
                s.name
            );
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let bound = |s: &MetricSpec| match s.bound {
            Share(b) => b,
            Exact | Free => panic!("end-to-end metric {} needs a share bound", s.name),
        };
        let setup = metric("setup_s").expect("setup_s is catalogued");
        for s in END_TO_END {
            assert!(bound(s) <= 0.25, "{}", s.name);
            if s.name != "setup_s" {
                assert!(bound(s) < bound(setup), "{}", s.name);
            }
        }
    }

    fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("`{key}` must be a string"))
    }

    /// `BENCHMARK.json` and this catalogue describe the same benchmark.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let listed: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);

        let check = |key: &str, specs: &[MetricSpec], with_bound: bool| {
            let entries = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(entries.len(), specs.len(), "{key}");
            for (e, s) in entries.iter().zip(specs) {
                assert_eq!(str_of(e, "name"), s.name);
                assert_eq!(str_of(e, "unit"), s.unit, "{}", s.name);
                assert_eq!(str_of(e, "better"), s.better.name(), "{}", s.name);
                let bound = e.get("bound").and_then(Json::as_f64);
                match (with_bound, s.bound) {
                    (true, Share(b)) => assert_eq!(bound, Some(b), "{}", s.name),
                    (false, _) => assert_eq!(bound, None, "{}", s.name),
                    (true, Exact | Free) => panic!("{} needs a share bound", s.name),
                }
            }
        };
        check("end_to_end", END_TO_END, true);
        check("per_layer", PER_LAYER, false);

        let paths = doc.get("paths").and_then(Json::as_arr).expect("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }
}
