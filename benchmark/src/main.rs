//! Observer-free benchmark of the ATAC+ simulator: three 1024-core
//! full-system runs and the CI gate's 64-core sweep, timed bare, with
//! per-layer attribution from one traced pass and every simulated result
//! checked against a committed golden. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [options]
//!   --workload NAME   one workload (default: all four, interleaved)
//!   --seed N          input seed; 0 (default) is Benchmark::build's own
//!   --seconds S       time budget for the whole measurement, with at least
//!                     one round of bare passes (default: 5 rounds)
//!   --trace 0|1       JSON carries end-to-end (0) or per-layer (1) metrics;
//!                     without it, both, and the traced pass always runs
//!   --out FILE        also write the result line to FILE
//!   --list            print the workload and metric catalogue
//!   --compare A B     check result B against result A within the bounds
//!   --bless           rewrite golden.txt from the default-seed runs
//! ```
//!
//! The last line of standard output is the result as one JSON object.

mod catalogue;
mod digest;
mod layers;
mod stats;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use atac::trace::json::{self, Json};
use atac_bench::publish_atomic;

use catalogue::{WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};
use digest::Golden;
use stats::{summarize, within_bound, Summary};
use workload::{Instance, Pass, Setup, Size, Synthetic, Traced};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE]\n       benchmark --list | --bless | --compare BASE NEW";

/// Timed set-ups per workload and run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rounds of bare passes when no time budget is given.
const DEFAULT_ROUNDS: usize = 5;

#[derive(Debug)]
enum Mode {
    Measure,
    List,
    Bless,
    Compare(PathBuf, PathBuf),
}

#[derive(Debug)]
struct Opts {
    mode: Mode,
    workload: Option<&'static WorkloadSpec>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        mode: Mode::Measure,
        workload: None,
        seed: 0,
        seconds: None,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("`{arg}` needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                o.workload = Some(catalogue::workload(name).ok_or_else(|| {
                    format!("unknown workload `{name}` (one of {})", known.join(", "))
                })?);
            }
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "`--seed` takes a non-negative integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "`--seconds` takes a number".to_string())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("`--seconds` must be positive".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("`--trace` takes 0 or 1, not `{v}`")),
                });
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--list" => o.mode = Mode::List,
            "--bless" => o.mode = Mode::Bless,
            "--compare" => {
                let base = PathBuf::from(value()?);
                let new = PathBuf::from(value()?);
                o.mode = Mode::Compare(base, new);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let code = match &opts.mode {
        Mode::List => {
            catalogue::print();
            0
        }
        Mode::Compare(base, new) => match compare(base, new) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("benchmark: {e}");
                2
            }
        },
        Mode::Bless => match bless() {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("benchmark: {e}");
                1
            }
        },
        Mode::Measure => {
            let line = measure(&opts);
            if let Some(out) = &opts.out {
                if let Err(e) = publish_atomic(out, &format!("{line}\n")) {
                    eprintln!("benchmark: cannot write {}: {e}", out.display());
                    std::process::exit(1);
                }
            }
            println!("{line}");
            0
        }
    };
    std::process::exit(code);
}

/// Scratch space for sweep caches, inside the checkout's build directory.
fn scratch_dir() -> PathBuf {
    Path::new("target").join(format!("benchmark-{}", std::process::id()))
}

/// Reset the kernel's peak-RSS mark (VmHWM) to the current RSS. Best
/// effort: without procfs the peak simply covers the whole process.
fn reset_peak_rss() {
    // audit: allow(sweep) procfs control write that resets VmHWM; not a results file
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) in MiB, 0 without procfs.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One workload's measurements within a run.
#[derive(Debug)]
struct Measured {
    inst: Instance,
    setups: Vec<Setup>,
    /// The traced pass with its two layer runs, once run.
    traced: Option<(Traced, Synthetic, f64)>,
    traced_ok: bool,
    passes: Vec<Pass>,
    attempted: usize,
    failed: usize,
    peak_rss_mib: f64,
}

impl Measured {
    fn new(inst: Instance) -> Self {
        Measured {
            inst,
            setups: Vec::new(),
            traced: None,
            traced_ok: true,
            passes: Vec::new(),
            attempted: 0,
            failed: 0,
            peak_rss_mib: 0.0,
        }
    }

    /// The traced pass (which also warms up the workload) and the
    /// synthetic-traffic and energy layer runs that use its counters.
    fn trace(&mut self) {
        let inst = &mut self.inst;
        let out = catch_unwind(AssertUnwindSafe(|| {
            let t = inst.traced_pass();
            let s = inst.synthetic(&t);
            let e = workload::integrate_per_s(&t.energy);
            (t, s, e)
        }));
        match out {
            Ok(out) => {
                self.traced_ok = self.inst.verify(&out.0.pass.runs) == 0;
                self.traced = Some(out);
            }
            Err(_) => self.traced_ok = false,
        }
    }

    /// One bare pass; an operation is one run, and it fails when it
    /// panics or its digest does not match.
    fn bare_pass(&mut self) {
        reset_peak_rss();
        let pass = catch_unwind(AssertUnwindSafe(|| self.inst.bare_pass()));
        self.peak_rss_mib = self.peak_rss_mib.max(peak_rss_mib());
        let ops = self.inst.operations();
        self.attempted += ops;
        match pass {
            Ok(p) => {
                eprintln!(
                    "[benchmark] {} bare pass {}: {:.3} s",
                    self.inst.spec.name,
                    self.passes.len() + 1,
                    p.wall
                );
                self.failed += self.inst.verify(&p.runs).min(ops);
                self.passes.push(p);
            }
            Err(_) => self.failed += ops,
        }
    }

    fn samples(&self, f: impl Fn(&Pass) -> f64) -> Option<Summary> {
        let xs: Vec<f64> = self.passes.iter().map(f).collect();
        (!xs.is_empty()).then(|| summarize(&xs))
    }

    /// End-to-end metrics with their sample summaries.
    fn end_to_end(&self) -> Vec<(&'static str, f64, Option<Summary>)> {
        let wall = self.samples(|p| p.wall);
        let rate = self.samples(|p| p.cycles() as f64 / p.wall);
        let setup = summarize(&self.setups.iter().map(|s| s.secs).collect::<Vec<_>>());
        let median = |s: Option<Summary>| s.map_or(0.0, |s| s.median);
        vec![
            ("wall_s", median(wall), wall),
            ("sim_cycles_per_s", median(rate), rate),
            ("setup_s", setup.median, Some(setup)),
            ("peak_rss_mb", self.peak_rss_mib, None),
        ]
    }

    /// Per-layer metrics, once the traced pass and a bare pass ran.
    fn per_layer(&self) -> Option<Vec<(&'static str, f64)>> {
        let (traced, synthetic, integrate_per_s) = self.traced.as_ref()?;
        let wall = self.samples(|p| p.wall)?.median;
        let busy = self.samples(|p| p.busy)?.median;
        let util = self
            .samples(|p| p.busy / (p.workers as f64 * p.wall))?
            .median;
        let build = summarize(&self.setups.iter().map(|s| s.build_secs).collect::<Vec<_>>());
        Some(layers::per_layer(&layers::LayerInputs {
            traced,
            synthetic: *synthetic,
            integrate_per_s: *integrate_per_s,
            bare_wall: wall,
            bare_busy: busy,
            pool_util: util,
            build_secs: build.median,
            build_ops: self.setups.first().map_or(0, |s| s.ops),
        }))
    }
}

/// Run the selected workloads and return the result line.
fn measure(o: &Opts) -> String {
    let scratch = scratch_dir();
    let goldens = digest::committed();
    let specs: Vec<&'static WorkloadSpec> = match o.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut ws: Vec<Measured> = specs
        .iter()
        .map(|s| Measured::new(Instance::new(s, o.seed, Size::paper(), &scratch, &goldens)))
        .collect();
    // `--seconds` covers the whole measurement: set-up, the traced pass
    // and its layer runs, then at least one round of bare passes.
    let t0 = Instant::now();
    for w in &mut ws {
        w.setups = (0..SETUP_REPS).map(|_| w.inst.setup()).collect();
    }
    if o.trace != Some(false) {
        for w in &mut ws {
            w.trace();
        }
    }
    // Bare passes in rounds, each round in a rotated order so no workload
    // always runs first or right after the same neighbour. A new round
    // starts only if a mean round still fits in the budget.
    let t_rounds = Instant::now();
    let n = ws.len();
    for round in 1.. {
        for k in 0..n {
            ws[(k + round - 1) % n].bare_pass();
        }
        let done = match o.seconds {
            None => round >= DEFAULT_ROUNDS,
            Some(budget) => {
                let mean_round = t_rounds.elapsed().as_secs_f64() / round as f64;
                t0.elapsed().as_secs_f64() + mean_round > budget
            }
        };
        if done {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    report(&ws, o)
}

/// Print every measured metric by name with its unit, and build the
/// result line.
fn report(ws: &[Measured], o: &Opts) -> String {
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for w in ws {
        let checked = if w.inst.blessed() {
            "checked against goldens"
        } else {
            "held-out seed: invariants and repeatability checked"
        };
        println!(
            "== {} · seed {} · {} · {} bare pass(es) ==",
            w.inst.spec.name,
            o.seed,
            checked,
            w.passes.len()
        );
        let prefix = |name: &str| {
            if ws.len() == 1 {
                name.to_string()
            } else {
                format!("{}/{name}", w.inst.spec.name)
            }
        };
        for ((name, value, summary), spec) in w.end_to_end().into_iter().zip(END_TO_END) {
            debug_assert_eq!(name, spec.name);
            match summary {
                Some(s) => println!(
                    "  {name:<36} {:>16} {:<10} q1 {} q3 {} n {}",
                    show(value),
                    spec.unit,
                    show(s.q1),
                    show(s.q3),
                    s.n
                ),
                None => println!("  {name:<36} {:>16} {}", show(value), spec.unit),
            }
            if o.trace != Some(true) {
                metrics.push((prefix(name), value, spec.unit));
            }
        }
        let layers = w.per_layer();
        if let Some(layers) = &layers {
            for spec in PER_LAYER {
                let value = layers
                    .iter()
                    .find(|(n, _)| *n == spec.name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("per-layer metric {} not computed", spec.name));
                println!("  {:<36} {:>16} {}", spec.name, show(value), spec.unit);
                if o.trace != Some(false) {
                    metrics.push((prefix(spec.name), value, spec.unit));
                }
            }
        } else if o.trace != Some(false) {
            // The traced pass failed: report zeros and fail the run.
            correct = false;
            metrics.extend(PER_LAYER.iter().map(|s| (prefix(s.name), 0.0, s.unit)));
        }
        println!(
            "  operations {} failed {} traced-pass {}",
            w.attempted,
            w.failed,
            if w.traced.is_none() {
                "not run"
            } else if w.traced_ok {
                "ok"
            } else {
                "MISMATCH"
            }
        );
        attempted += w.attempted;
        failed += w.failed;
        correct &= w.traced_ok && !w.passes.is_empty();
    }
    correct &= failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, unit)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A value for the human-readable table.
fn show(v: f64) -> String {
    if v == 0.0 || (1e-3..1e9).contains(&v.abs()) {
        format!("{v:.6}")
    } else {
        format!("{v:.6e}")
    }
}

/// A JSON number with every digit of the measurement.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Read the metrics of a result line (the last JSON line of a file).
fn read_metrics(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let line = text
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .ok_or_else(|| format!("{}: no result line", path.display()))?;
    let doc = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Obj(members)) = doc.get("metrics") else {
        return Err(format!("{}: no `metrics` object", path.display()));
    };
    members
        .iter()
        .map(|(k, v)| {
            v.get("value")
                .and_then(Json::as_f64)
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("{}: `{k}` has no value", path.display()))
        })
        .collect()
}

/// Check every metric of `new` against `base` within the catalogue's
/// bounds: end-to-end medians within their share, exact metrics
/// identical (meaningful for two sets run with the same seed).
fn compare(base: &Path, new: &Path) -> Result<bool, String> {
    let base = read_metrics(base)?;
    let new = read_metrics(new)?;
    let mut ok = true;
    println!(
        "{:<48} {:>16} {:>16} {:>9}  verdict",
        "metric", "base", "new", "change"
    );
    for (key, b) in &base {
        let name = key.rsplit('/').next().unwrap_or(key);
        let spec = catalogue::metric(name).ok_or_else(|| format!("unknown metric `{key}`"))?;
        let Some((_, n)) = new.iter().find(|(k, _)| k == key) else {
            println!("{key:<48} {:>16} {:>16} {:>9}  MISSING", show(*b), "-", "-");
            ok = false;
            continue;
        };
        let pass = within_bound(spec, *b, *n);
        ok &= pass;
        let change = if *b == 0.0 { 0.0 } else { 100.0 * (n - b) / b };
        let verdict = match (spec.bound, pass) {
            (catalogue::Bound::Free, _) => "",
            (_, true) => "ok",
            (_, false) => "OUT OF BOUND",
        };
        println!(
            "{key:<48} {:>16} {:>16} {change:>+8.2}%  {verdict}",
            show(*b),
            show(*n),
        );
    }
    Ok(ok)
}

/// Regenerate `golden.txt` from one default-seed bare pass of every
/// workload.
fn bless() -> Result<(), String> {
    let scratch = scratch_dir();
    let mut goldens = Vec::new();
    for spec in WORKLOADS {
        let mut inst = Instance::new(spec, 0, Size::paper(), &scratch, &[]);
        let pass = inst.bare_pass();
        goldens.extend(pass.runs.into_iter().map(|r| Golden {
            workload: spec.name.to_string(),
            key: r.key,
            digest: r.digest,
            edp_js: r.edp_js,
        }));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.txt");
    publish_atomic(&path, &digest::render(&goldens))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "[benchmark] wrote {} goldens to {}",
        goldens.len(),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atac::net::Topology;
    use atac::workloads::Scale;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_single_workload_command_line() {
        let o = parse_args(&args(
            "--workload paper-radix --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.workload.map(|w| w.name), Some("paper-radix"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, Some(20.0), Some(true)));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }

    #[test]
    fn default_seed_reproduces_benchmark_build() {
        for kernel in [catalogue::Kernel::Radix, catalogue::Kernel::Barnes] {
            for (cores, scale) in [(64, Scale::Test), (1024, Scale::Paper)] {
                let ours = workload::build_kernel(kernel, cores, scale, 0);
                let theirs = kernel.bench().build(cores, scale);
                assert_eq!(ours.scripts, theirs.scripts, "{kernel:?} {cores}");
            }
            let held_out = workload::build_kernel(kernel, 64, Scale::Test, 1);
            assert_ne!(
                held_out.scripts,
                kernel.bench().build(64, Scale::Test).scripts,
                "another seed is another input"
            );
        }
    }

    /// Every workload definition runs end to end — set-up, traced pass,
    /// layer runs, one bare pass — at 64 cores and test scale, so the
    /// definitions cannot rot. (The gate sweep always runs its own
    /// 64-core plan.)
    #[test]
    fn every_workload_runs_at_smoke_size() {
        let scratch = std::env::temp_dir().join(format!("atac-benchmark-{}", std::process::id()));
        let goldens = digest::committed();
        let smoke = Size {
            topo: Topology::small(8, 4),
            scale: Scale::Test,
        };
        for spec in WORKLOADS {
            let mut m = Measured::new(Instance::new(spec, 0, smoke, &scratch, &goldens));
            m.setups = vec![m.inst.setup()];
            m.trace();
            m.bare_pass();
            assert!(m.traced_ok, "{}: traced pass", spec.name);
            assert_eq!(m.failed, 0, "{}: bare pass", spec.name);
            assert_eq!(m.attempted, m.inst.operations());
            let layers = m.per_layer().expect("traced and bare passes ran");
            let names: Vec<&str> = layers.iter().map(|(n, _)| *n).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|s| s.name).collect();
            assert_eq!(
                names, want,
                "{}: per-layer metrics in catalogue order",
                spec.name
            );
            let coverage = layers
                .iter()
                .find(|(n, _)| *n == "trace.coverage")
                .map(|(_, v)| *v);
            assert!(
                coverage > Some(0.95),
                "{}: coverage {coverage:?}",
                spec.name
            );
            for (name, value, _) in m.end_to_end() {
                assert!(value > 0.0, "{}: {name} = {value}", spec.name);
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
