//! `atac-report` — record sweeps into the run-history registry, gate
//! the current sweep against a baseline, and render the report.
//!
//! ```text
//! atac-report record [--sweep BENCH_sweep.json] [--history BENCH_history.jsonl] [--sha <sha>]
//! atac-report gate --baseline <ref|file> [--sweep BENCH_sweep.json]
//!                  [--history-path BENCH_history.jsonl] [--strict-host] [--require-all]
//! atac-report render [--history BENCH_history.jsonl] [--sweep BENCH_sweep.json]
//!                    [--baseline <ref|file>] [--out BENCH_report.md] [--top <n>]
//! atac-report netmap [--sweep BENCH_sweep.json] [--out BENCH_netmap.md]
//!                    [--top <n>] [--min-coverage <frac>]
//! ```
//!
//! `--baseline` accepts either a history *file* or a git *ref*: when no
//! file exists at the given path, the baseline is read from
//! `git show <ref>:<history-path>` — so CI can gate a PR against the
//! history committed on `origin/main` without any checkout gymnastics.
//!
//! Exit codes: 0 pass, 1 gate regression (or a netmap below its
//! coverage floor), 2 usage or I/O error.

use std::path::Path;
use std::process::{Command, ExitCode};

use atac_report::{compare, lines_from_sweep, parse_sweep, read_history, GateConfig, History};

fn fail(msg: &str) -> ExitCode {
    eprintln!("atac-report: {msg}");
    ExitCode::from(2)
}

/// One `--flag value` option parser over the raw argument list.
fn opt(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The current tree's commit SHA via `git rev-parse`, or `"unknown"`
/// outside a repository.
fn head_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Resolve `--baseline`: a file path when one exists there, else a git
/// ref whose committed `history_path` blob is the baseline.
fn resolve_baseline(arg: &str, history_path: &str) -> Result<String, String> {
    if Path::new(arg).is_file() {
        return std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"));
    }
    let spec = format!("{arg}:{history_path}");
    let out = Command::new("git")
        .args(["show", &spec])
        .output()
        .map_err(|e| format!("cannot run git show {spec}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "`{arg}` is neither a readable file nor a git ref with {history_path}: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("git show {spec} is not utf-8: {e}"))
}

fn load_sweep(path: &str) -> Result<atac_report::SweepDoc, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read sweep {path}: {e}"))?;
    let doc = parse_sweep(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.summaries.is_empty() {
        return Err(format!(
            "{path} carries no run summaries (emitted by a pre-v2 harness?) — \
             re-run the sweep with the current `reproduce`"
        ));
    }
    Ok(doc)
}

fn gate_config(args: &[String]) -> GateConfig {
    GateConfig {
        strict_host: has_flag(args, "--strict-host"),
        require_all: has_flag(args, "--require-all"),
        ..GateConfig::default()
    }
}

fn cmd_record(args: &[String]) -> Result<ExitCode, String> {
    let sweep_path = opt(args, "--sweep").unwrap_or_else(|| "BENCH_sweep.json".into());
    let history_path = opt(args, "--history").unwrap_or_else(|| "BENCH_history.jsonl".into());
    let sha = opt(args, "--sha").unwrap_or_else(head_sha);
    let doc = load_sweep(&sweep_path)?;
    let lines = lines_from_sweep(&doc, &sha);
    atac_report::append_lines(Path::new(&history_path), &lines)
        .map_err(|e| format!("cannot append to {history_path}: {e}"))?;
    let runs = lines
        .iter()
        .filter(|l| matches!(l, atac_report::HistoryLine::Run(_)))
        .count();
    println!(
        "recorded sweep @ {sha}: {} line(s) ({runs} run record(s)) appended to {history_path}",
        lines.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_gate(args: &[String]) -> Result<ExitCode, String> {
    let baseline_arg = opt(args, "--baseline").ok_or("gate requires --baseline <ref|file>")?;
    let sweep_path = opt(args, "--sweep").unwrap_or_else(|| "BENCH_sweep.json".into());
    let history_path = opt(args, "--history-path").unwrap_or_else(|| "BENCH_history.jsonl".into());
    let baseline_text = resolve_baseline(&baseline_arg, &history_path)?;
    let baseline = read_history(&baseline_text).map_err(|e| format!("baseline: {e}"))?;
    if baseline.runs().next().is_none() {
        return Err(format!("baseline `{baseline_arg}` holds no run records"));
    }
    let doc = load_sweep(&sweep_path)?;
    let cfg = gate_config(args);
    let report = compare(&baseline, &doc, &cfg);
    print!("{}", report.table());
    let failures = report.failures(&cfg);
    if failures.is_empty() {
        println!(
            "\ngate PASS vs `{baseline_arg}`: {} key(s) compared, {} improved, {} new",
            report.keys.len(),
            report.count(atac_report::Verdict::Improved),
            report.count(atac_report::Verdict::New),
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "\ngate FAIL vs `{baseline_arg}`: {} offending key(s): {}",
            failures.len(),
            failures
                .iter()
                .map(|k| k.key.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_render(args: &[String]) -> Result<ExitCode, String> {
    let history_path = opt(args, "--history").unwrap_or_else(|| "BENCH_history.jsonl".into());
    let out_path = opt(args, "--out").unwrap_or_else(|| "BENCH_report.md".into());
    let top_n = match opt(args, "--top") {
        Some(n) => n
            .parse::<usize>()
            .map_err(|_| format!("--top wants a count, got `{n}`"))?,
        None => 10,
    };
    let history = match std::fs::read_to_string(&history_path) {
        Ok(text) => read_history(&text).map_err(|e| format!("{history_path}: {e}"))?,
        Err(_) => History::default(), // render still shows the sweep's profile
    };
    let sweep = match opt(args, "--sweep") {
        Some(path) => Some(load_sweep(&path)?),
        None if Path::new("BENCH_sweep.json").is_file() => Some(load_sweep("BENCH_sweep.json")?),
        None => None,
    };
    let cfg = gate_config(args);
    let gate = match (opt(args, "--baseline"), &sweep) {
        (Some(arg), Some(doc)) => {
            let history_path = opt(args, "--history-path").unwrap_or_else(|| history_path.clone());
            let text = resolve_baseline(&arg, &history_path)?;
            let baseline = read_history(&text).map_err(|e| format!("baseline: {e}"))?;
            Some(compare(&baseline, doc, &cfg))
        }
        _ => None,
    };
    let md = atac_report::render(
        &history,
        sweep.as_ref(),
        gate.as_ref().map(|g| (g, &cfg)),
        top_n,
    );
    atac_report::write_text(Path::new(&out_path), &md)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_netmap(args: &[String]) -> Result<ExitCode, String> {
    let sweep_path = opt(args, "--sweep").unwrap_or_else(|| "BENCH_sweep.json".into());
    let out_path = opt(args, "--out").unwrap_or_else(|| "BENCH_netmap.md".into());
    let top_n = match opt(args, "--top") {
        Some(n) => n
            .parse::<usize>()
            .map_err(|_| format!("--top wants a count, got `{n}`"))?,
        None => 10,
    };
    let min_coverage = match opt(args, "--min-coverage") {
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| format!("--min-coverage wants a fraction, got `{v}`"))?,
        ),
        None => None,
    };
    let doc = load_sweep(&sweep_path)?;
    let md = atac_report::render_netmap(&doc, top_n).ok_or_else(|| {
        format!(
            "{sweep_path} carries no netprof blocks — \
             re-run the sweep with ATAC_NETPROF=1"
        )
    })?;
    atac_report::write_text(Path::new(&out_path), &md)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    if let Some(min) = min_coverage {
        let cov = doc.self_profile.as_ref().and_then(|p| p.net_coverage);
        match cov {
            Some(c) if c >= min => {
                println!(
                    "sub-phase coverage {:.1}% >= {:.1}% floor",
                    c * 100.0,
                    min * 100.0
                );
            }
            Some(c) => {
                println!(
                    "netmap FAIL: sub-phase coverage {:.1}% below the {:.1}% floor",
                    c * 100.0,
                    min * 100.0
                );
                return Ok(ExitCode::FAILURE);
            }
            None => {
                println!(
                    "netmap FAIL: --min-coverage given but the sweep's self-profile \
                     carries no net_coverage (ATAC_PROFILE=0 or ATAC_NETPROF=0?)"
                );
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("gate") => cmd_gate(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("netmap") => cmd_netmap(&args[1..]),
        _ => {
            eprintln!(
                "usage: atac-report <record|gate|render|netmap> [options]\n\
                 \x20 record  --sweep <f> --history <f> [--sha <sha>]\n\
                 \x20 gate    --baseline <ref|file> [--sweep <f>] [--history-path <p>] \
                 [--strict-host] [--require-all]\n\
                 \x20 render  [--history <f>] [--sweep <f>] [--baseline <ref|file>] \
                 [--out <f>] [--top <n>]\n\
                 \x20 netmap  [--sweep <f>] [--out <f>] [--top <n>] [--min-coverage <frac>]"
            );
            return ExitCode::from(2);
        }
    };
    result.unwrap_or_else(|msg| fail(&msg))
}
