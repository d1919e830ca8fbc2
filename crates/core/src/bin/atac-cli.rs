//! `atac-cli` — command-line front end for the evaluation framework.
//!
//! ```text
//! atac-cli list
//! atac-cli run --bench radix --arch atac+ --cores 256 --scale paper
//! atac-cli run --bench barnes --arch emesh-bcast --protocol dir4b
//! atac-cli compare --bench ocean_contig --cores 256
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency): flags are
//! `--key value` pairs, validated against the same enums the library
//! exposes, so the CLI can never drift from the API.

use atac::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
atac-cli — ATAC+ nanophotonic manycore evaluation (IPDPS 2012 reproduction)

USAGE:
  atac-cli list
  atac-cli run     --bench <name> [--arch <name>] [--cores 64|256|1024]
                   [--scale test|paper] [--protocol ackwise<k>|dir<k>b]
                   [--scenario ideal|practical|ringtuned|cons]
                   [--flit <bits>] [--ndd <0..1>]
                   [--metrics-out <file.jsonl>] [--trace-out <file.json>]
                   [--epoch-cycles <n>]
  atac-cli compare --bench <name> [--cores 64|256|1024] [--scale test|paper]

TRACING:
  --metrics-out  write latency histograms + epoch metrics as JSONL
  --trace-out    write a Chrome trace-event file (open at ui.perfetto.dev)
  --epoch-cycles sample laser/link/queue/energy time series every <n> cycles

ARCHITECTURES: atac+ | atac | emesh-bcast | emesh-pure | distance-<i>
BENCHMARKS:    dynamic_graph radix barnes fmm ocean_contig lu_contig
               ocean_non_contig lu_non_contig";

/// Parse `--key value` pairs.
fn flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let k = k
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{k}'"))?;
        let v = it.next().ok_or_else(|| format!("--{k} needs a value"))?;
        out.push((k.to_string(), v.clone()));
    }
    Ok(out)
}

fn parse_bench(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| format!("unknown benchmark '{name}' (try: atac-cli list)"))
}

fn parse_arch(name: &str) -> Result<Arch, String> {
    match name {
        "atac+" => Ok(Arch::atac_plus()),
        "atac" => Ok(Arch::atac_baseline()),
        "emesh-bcast" => Ok(Arch::EMeshBcast),
        "emesh-pure" => Ok(Arch::EMeshPure),
        other => {
            if let Some(i) = other.strip_prefix("distance-") {
                let i: u32 = i.parse().map_err(|_| format!("bad distance '{other}'"))?;
                Ok(Arch::Atac(RoutingPolicy::Distance(i), ReceiveNet::StarNet))
            } else {
                Err(format!("unknown architecture '{other}'"))
            }
        }
    }
}

fn parse_protocol(name: &str) -> Result<ProtocolKind, String> {
    if let Some(k) = name.strip_prefix("ackwise") {
        return Ok(ProtocolKind::AckWise {
            k: k.parse().map_err(|_| format!("bad k in '{name}'"))?,
        });
    }
    if let Some(k) = name.strip_prefix("dir").and_then(|s| s.strip_suffix('b')) {
        return Ok(ProtocolKind::DirB {
            k: k.parse().map_err(|_| format!("bad k in '{name}'"))?,
        });
    }
    Err(format!("unknown protocol '{name}' (ackwise4, dir4b, ...)"))
}

fn parse_scenario(name: &str) -> Result<PhotonicScenario, String> {
    Ok(match name {
        "ideal" => PhotonicScenario::Ideal,
        "practical" => PhotonicScenario::Practical,
        "ringtuned" => PhotonicScenario::RingTuned,
        "cons" => PhotonicScenario::Conservative,
        _ => return Err(format!("unknown scenario '{name}'")),
    })
}

fn parse_cores(v: &str) -> Result<Topology, String> {
    match v {
        "64" => Ok(Topology::small(8, 4)),
        "256" => Ok(Topology::small(16, 4)),
        "1024" => Ok(Topology::atac_1024()),
        _ => Err("supported core counts: 64, 256, 1024".into()),
    }
}

struct RunSpec {
    bench: Benchmark,
    cfg: SimConfig,
    scale: Scale,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    epoch_cycles: Option<u64>,
}

impl RunSpec {
    /// Any tracing output requested?
    fn traced(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some() || self.epoch_cycles.is_some()
    }
}

fn parse_run(args: &[String]) -> Result<RunSpec, String> {
    let mut bench = None;
    let mut cfg = SimConfig {
        topo: Topology::small(16, 4),
        ..SimConfig::default()
    };
    let mut scale = Scale::Paper;
    let mut metrics_out = None;
    let mut trace_out = None;
    let mut epoch_cycles = None;
    for (k, v) in flags(args)? {
        match k.as_str() {
            "bench" => bench = Some(parse_bench(&v)?),
            "arch" => cfg.arch = parse_arch(&v)?,
            "cores" => cfg.topo = parse_cores(&v)?,
            "protocol" => cfg.protocol = parse_protocol(&v)?,
            "scenario" => cfg.scenario = parse_scenario(&v)?,
            "flit" => cfg.flit_width = v.parse().map_err(|_| "bad flit width".to_string())?,
            "ndd" => cfg.core_ndd_fraction = v.parse().map_err(|_| "bad ndd".to_string())?,
            "scale" => {
                scale = match v.as_str() {
                    "test" => Scale::Test,
                    "paper" => Scale::Paper,
                    _ => return Err("scale is 'test' or 'paper'".into()),
                }
            }
            "metrics-out" => metrics_out = Some(v),
            "trace-out" => trace_out = Some(v),
            "epoch-cycles" => {
                let n: u64 = v.parse().map_err(|_| "bad epoch length".to_string())?;
                if n == 0 {
                    return Err("--epoch-cycles must be > 0".into());
                }
                epoch_cycles = Some(n);
            }
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    Ok(RunSpec {
        bench: bench.ok_or("--bench is required")?,
        cfg,
        scale,
        metrics_out,
        trace_out,
        epoch_cycles,
    })
}

fn cmd_list() -> i32 {
    println!("benchmarks:");
    for b in Benchmark::ALL {
        println!("  {}", b.name());
    }
    println!("\narchitectures: atac+ atac emesh-bcast emesh-pure distance-<i>");
    println!("scenarios:     ideal practical ringtuned cons");
    println!("protocols:     ackwise<k> dir<k>b   (e.g. ackwise4, dir4b)");
    0
}

fn report(r: &SimResult, cfg: &SimConfig) {
    println!("benchmark        {}", r.workload);
    println!("architecture     {}", r.arch);
    println!("cores            {}", cfg.topo.cores());
    println!(
        "completion       {} cycles ({:.3} ms at 1 GHz)",
        r.cycles,
        r.cycles as f64 / 1e6
    );
    println!(
        "instructions     {}   (IPC/core {:.4})",
        r.instructions, r.ipc
    );
    println!("L1-D miss rate   {:.2} %", r.coh.l1d_miss_rate() * 100.0);
    println!(
        "inv broadcasts   {}   unicasts/broadcast {:.0}",
        r.coh.inv_broadcasts,
        r.net.unicasts_per_broadcast()
    );
    println!(
        "offered load     {:.4} flits/cycle/core",
        r.net.offered_load(cfg.topo.cores())
    );
    let e = &r.energy;
    println!(
        "energy           network {:.3e} J | caches {:.3e} J | cores {:.3e} J",
        e.network().value(),
        e.caches().value(),
        e.cores().value()
    );
    println!("energy-delay     {:.3e} J*s", r.edp(cfg).value());
}

fn cmd_run(args: &[String]) -> i32 {
    match parse_run(args) {
        Ok(spec) if spec.traced() => cmd_run_traced(&spec),
        Ok(spec) => {
            let r = atac::run_benchmark(&spec.cfg, spec.bench, spec.scale);
            report(&r, &spec.cfg);
            0
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            2
        }
    }
}

#[expect(clippy::disallowed_methods, reason = "writes the requested exports")]
fn cmd_run_traced(spec: &RunSpec) -> i32 {
    use std::cell::RefCell;
    use std::rc::Rc;

    let collector = Rc::new(RefCell::new(TraceCollector::new()));
    let probe = ProbeHandle::attach(Rc::clone(&collector));
    let r = atac::run_benchmark_traced(&spec.cfg, spec.bench, spec.scale, probe, spec.epoch_cycles);
    report(&r, &spec.cfg);

    let c = collector.borrow();
    println!("\nlatency percentiles (cycles):");
    for (subnet, kind, h) in c.net_histograms() {
        if !h.is_empty() {
            let class = format!("{}/{}", subnet.name(), kind.name());
            println!("  {}", atac::trace::percentile_row(&class, h));
        }
    }
    for (name, h) in c.txn_histograms() {
        if !h.is_empty() {
            println!("  {}", atac::trace::percentile_row(name, h));
        }
    }
    if let Some(path) = &spec.metrics_out {
        if let Err(e) = std::fs::write(path, atac::trace::metrics_jsonl(&c)) {
            eprintln!("error: writing {path}: {e}");
            return 1;
        }
        println!("metrics  -> {path}");
    }
    if let Some(path) = &spec.trace_out {
        if let Err(e) = std::fs::write(path, atac::trace::chrome_trace(&c)) {
            eprintln!("error: writing {path}: {e}");
            return 1;
        }
        println!("trace    -> {path}  (load at ui.perfetto.dev)");
    }
    0
}

fn cmd_compare(args: &[String]) -> i32 {
    match parse_run(args) {
        Ok(spec) => {
            println!(
                "{:<14} {:>12} {:>10} {:>14} {:>14}",
                "architecture", "cycles", "IPC", "energy (J)", "EDP (J*s)"
            );
            for arch in [
                Arch::atac_plus(),
                Arch::atac_baseline(),
                Arch::EMeshBcast,
                Arch::EMeshPure,
            ] {
                let cfg = SimConfig {
                    arch,
                    ..spec.cfg.clone()
                };
                let r = atac::run_benchmark(&cfg, spec.bench, spec.scale);
                println!(
                    "{:<14} {:>12} {:>10.4} {:>14.4e} {:>14.4e}",
                    r.arch,
                    r.cycles,
                    r.ipc,
                    r.energy.total().value(),
                    r.edp(&cfg).value()
                );
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_full_run_spec() {
        let spec = parse_run(&s(&[
            "--bench",
            "radix",
            "--arch",
            "distance-25",
            "--cores",
            "64",
            "--scale",
            "test",
            "--protocol",
            "dir8b",
            "--scenario",
            "cons",
            "--flit",
            "128",
            "--ndd",
            "0.4",
        ]))
        .expect("parses");
        assert_eq!(spec.bench, Benchmark::Radix);
        assert_eq!(
            spec.cfg.arch,
            Arch::Atac(RoutingPolicy::Distance(25), ReceiveNet::StarNet)
        );
        assert_eq!(spec.cfg.topo.cores(), 64);
        assert_eq!(spec.cfg.protocol, ProtocolKind::DirB { k: 8 });
        assert_eq!(spec.cfg.scenario, PhotonicScenario::Conservative);
        assert_eq!(spec.cfg.flit_width, 128);
        assert_eq!(spec.scale, Scale::Test);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse_run(&s(&["--bench", "nope"])).is_err());
        assert!(parse_run(&s(&["--bench"])).is_err());
        assert!(parse_run(&s(&["bench", "radix"])).is_err());
        assert!(parse_run(&s(&["--bench", "radix", "--cores", "100"])).is_err());
        assert!(parse_run(&s(&[])).is_err(), "--bench required");
        assert!(parse_arch("warp-drive").is_err());
        assert!(parse_protocol("mesi").is_err());
    }

    #[test]
    fn parses_tracing_flags() {
        let spec = parse_run(&s(&[
            "--bench",
            "radix",
            "--metrics-out",
            "m.jsonl",
            "--trace-out",
            "t.json",
            "--epoch-cycles",
            "5000",
        ]))
        .expect("parses");
        assert!(spec.traced());
        assert_eq!(spec.metrics_out.as_deref(), Some("m.jsonl"));
        assert_eq!(spec.trace_out.as_deref(), Some("t.json"));
        assert_eq!(spec.epoch_cycles, Some(5000));

        let plain = parse_run(&s(&["--bench", "radix"])).expect("parses");
        assert!(!plain.traced());
        assert!(parse_run(&s(&["--bench", "radix", "--epoch-cycles", "0"])).is_err());
        assert!(parse_run(&s(&["--bench", "radix", "--epoch-cycles", "soon"])).is_err());
    }

    #[test]
    fn parses_all_architectures() {
        for a in ["atac+", "atac", "emesh-bcast", "emesh-pure", "distance-15"] {
            assert!(parse_arch(a).is_ok(), "{a}");
        }
    }

    #[test]
    fn parses_all_benchmarks() {
        for b in Benchmark::ALL {
            assert_eq!(parse_bench(b.name()).unwrap(), b);
        }
    }
}
