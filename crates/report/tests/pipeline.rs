//! End-to-end coupling test: the *actual* `atac-bench` `SweepLog`
//! emitter feeds the report pipeline — sweep parse → history record →
//! regression gate → markdown render. If either side drifts its schema,
//! this test (not a CI artifact mismatch three PRs later) breaks.

use std::path::Path;

use atac::phys::units::{JouleSeconds, Joules, Seconds};
use atac::trace::{HostPhase, HostProfile};
use atac_bench::{RunSource, RunSummary, RunTiming, SweepLog, SweepReport};
use atac_report::{compare, lines_from_sweep, parse_sweep, read_history, GateConfig, Verdict};

fn summary(key: &str, bench: &str, cycles: u64) -> RunSummary {
    RunSummary {
        key: key.to_string(),
        bench: bench.to_string(),
        cycles,
        instructions: 4 * cycles,
        ipc: 4.0,
        runtime: Seconds(cycles as f64 * 1e-9),
        energy: Joules(0.125),
        edp: JouleSeconds(0.125 * cycles as f64 * 1e-9),
        latency_p50: 15,
        latency_p95: 63,
        latency_p99: 127,
        latency_max: 90,
        latency_count: 10_000,
    }
}

fn profile(replay: f64, network: f64) -> HostProfile {
    let mut p = HostProfile::zero();
    p.secs[HostPhase::Replay.index()] = replay;
    p.secs[HostPhase::Network.index()] = network;
    p.total_secs = (replay + network) * 1.02;
    p
}

/// A two-key sweep through the real emitter.
fn emit_sweep(cycles_a: u64, host_secs: f64) -> String {
    let report = SweepReport {
        jobs: 4,
        planned: 2,
        cached_hits: 0,
        wall_secs: host_secs + 0.5,
        runs: vec![
            RunTiming {
                key: "8x4|atac[distance-15]|flit64|buf4|ackwise4|radix".into(),
                secs: host_secs,
                source: RunSource::Simulated,
                profile: Some(profile(host_secs * 0.6, host_secs * 0.4)),
                netprof: None,
            },
            RunTiming {
                key: "8x4|emesh-pure|flit64|buf4|ackwise4|radix".into(),
                secs: 0.002,
                source: RunSource::CacheHit,
                profile: None,
                netprof: None,
            },
        ],
        summaries: vec![
            summary(
                "8x4|atac[distance-15]|flit64|buf4|ackwise4|radix",
                "radix",
                cycles_a,
            ),
            summary(
                "8x4|emesh-pure|flit64|buf4|ackwise4|radix",
                "radix",
                800_000,
            ),
        ],
        peak_rss_bytes: 96 << 20,
    };
    let mut log = SweepLog::new(4);
    log.phase("warm", host_secs + 0.5);
    log.phase("total", host_secs + 0.6);
    log.absorb(&report);
    log.to_json()
}

#[test]
fn sweeplog_output_flows_through_record_gate_and_render() {
    let dir = std::env::temp_dir().join(format!("atac-report-pipeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let history_path = dir.join("history.jsonl");
    let _ = std::fs::remove_file(&history_path);

    // Record two identical sweeps (different SHAs) into the registry —
    // that gives the gate a real median for host seconds.
    let baseline_json = emit_sweep(500_000, 5.0);
    let doc = parse_sweep(&baseline_json).expect("SweepLog output parses");
    assert_eq!(doc.schema, "atac-bench-sweep-v4");
    assert_eq!(doc.summaries.len(), 2);
    let stats = doc.executor.expect("v4 sweeps carry executor self-metrics");
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.peak_rss_bytes, 96 << 20);
    let prof = doc.runs[0].profile.as_ref().expect("profiled run");
    assert!(prof.coverage > 0.9);
    atac_report::append_lines(&history_path, &lines_from_sweep(&doc, "sha-a")).expect("append");
    let doc_b = parse_sweep(&emit_sweep(500_000, 5.4)).expect("parses");
    atac_report::append_lines(&history_path, &lines_from_sweep(&doc_b, "sha-b")).expect("append");

    let baseline_text = std::fs::read_to_string(&history_path).expect("readable");
    let baseline = read_history(&baseline_text).expect("parses");
    assert_eq!(baseline.sweeps().count(), 2);
    assert_eq!(
        baseline.host_samples("8x4|atac[distance-15]|flit64|buf4|ackwise4|radix"),
        vec![5.0, 5.4]
    );

    // Path 1: an identical sweep passes the gate.
    let cfg = GateConfig {
        strict_host: true,
        require_all: true,
        ..GateConfig::default()
    };
    let same = parse_sweep(&emit_sweep(500_000, 5.1)).expect("parses");
    let report = compare(&baseline, &same, &cfg);
    assert!(report.passed(&cfg), "{}", report.table());
    assert_eq!(report.count(Verdict::Ok), 2);

    // Path 2: a 10% simulated-cycle regression fails, naming the key.
    let slow = parse_sweep(&emit_sweep(550_000, 5.1)).expect("parses");
    let report = compare(&baseline, &slow, &cfg);
    assert!(!report.passed(&cfg));
    let failures = report.failures(&cfg);
    assert_eq!(failures.len(), 1);
    assert_eq!(
        failures[0].key,
        "8x4|atac[distance-15]|flit64|buf4|ackwise4|radix"
    );
    // cycles, runtime and edp all moved together (they derive from
    // cycles), and all in the regression direction.
    let worse: Vec<&str> = failures[0].deltas.iter().map(|d| d.metric).collect();
    assert!(worse.contains(&"cycles"));
    assert!(worse.contains(&"edp_js"));
    assert!(worse.contains(&"instructions"), "4×cycles drifted too");

    // Render the failing report end to end.
    let md = atac_report::render(&baseline, Some(&slow), Some((&report, &cfg)), 10);
    let out = dir.join("report.md");
    atac_report::write_text(&out, &md).expect("write");
    let md = std::fs::read_to_string(&out).expect("readable");
    assert!(md.contains("**FAIL**"));
    assert!(md.contains("8x4|atac[distance-15]|flit64|buf4|ackwise4|radix"));
    assert!(md.contains("## Host self-profile"));
    assert!(md.contains("replay"), "profile phases render");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The executor's profile JSON and the report's profile reader agree on
/// phase vocabulary: every `HostPhase::name` the emitter can produce
/// parses back out of the sweep.
#[test]
fn host_phase_vocabulary_roundtrips() {
    let mut p = HostProfile::zero();
    for (i, phase) in HostPhase::ALL.into_iter().enumerate() {
        p.secs[phase.index()] = (i + 1) as f64;
    }
    p.total_secs = p.tracked_secs();
    let report = SweepReport {
        jobs: 1,
        planned: 1,
        cached_hits: 0,
        wall_secs: p.total_secs,
        runs: vec![RunTiming {
            key: "k".into(),
            secs: p.total_secs,
            source: RunSource::Simulated,
            profile: Some(p),
            netprof: None,
        }],
        summaries: vec![summary("k", "radix", 1000)],
        peak_rss_bytes: 0,
    };
    let mut log = SweepLog::new(1);
    log.absorb(&report);
    let doc = parse_sweep(&log.to_json()).expect("parses");
    let parsed = doc.self_profile.as_ref().expect("merged profile present");
    for phase in HostPhase::ALL {
        assert!(
            parsed.phases.iter().any(|(n, _)| n == phase.name()),
            "phase `{}` lost in the sweep roundtrip",
            phase.name()
        );
    }
    assert!(Path::new("Cargo.toml").exists(), "runs at crate root");
}
