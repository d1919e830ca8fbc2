//! The run-history registry: `BENCH_history.jsonl`.
//!
//! One line per record, append-only, so the file is a merge-friendly
//! trajectory of every sweep a branch has run. Four kinds of line:
//!
//! * `kind: "sweep"` — one per recorded sweep: worker count, wall
//!   seconds, and the merged host self-profile.
//! * `kind: "run"` — one per planned run key: the figure-level
//!   simulated metrics ([`RunMetrics`]) plus the host seconds the sweep
//!   spent actually simulating that key (absent on cache hits).
//! * `kind: "netprof"` — at most one per recorded sweep (only when the
//!   sweep ran under `ATAC_NETPROF`): the merged network-microscope
//!   aggregate — flits routed, credit stalls, skip-ahead efficacy,
//!   epoch coalescing, and the network sub-phase coverage fraction.
//! * `kind: "flight"` — at most one per recorded sweep (schema-v4
//!   sweeps only): the executor's self-metrics from the sweep doc's
//!   `executor` block — cache hits/misses, single-flight waits, and the
//!   peak RSS high-water mark. Host-side observability; never
//!   gate-compared. The kind keeps its name so committed lines still
//!   decode.
//!
//! Every line carries `schema` (`atac-report-history-v1`) and the git
//! SHA of the tree that produced it; records are keyed by
//! `(sha, run_key)`. Decoding is *forward-compatible*: unknown members
//! are ignored and unknown kinds are skipped (counted, not fatal), so a
//! future writer can extend the schema without orphaning the baseline
//! this repository commits. A line whose schema is outside the
//! `atac-report-history-v*` family, or whose required members are
//! missing, is malformed — the reader reports it rather than silently
//! dropping history.
//!
//! This module is also the crate's only file-writing surface
//! ([`append_lines`], [`write_text`]) — audit rule 7 (`report-api`)
//! keeps every history/report write behind it.

use std::io::Write;
use std::path::Path;

use atac_trace::json::{parse, Json};

use crate::sweep::{parse_metrics, parse_profile, PhaseProfile, RunMetrics, SweepDoc};

/// The schema string this writer stamps on every line.
pub const HISTORY_SCHEMA: &str = "atac-report-history-v1";

/// The schema family the reader accepts.
pub const HISTORY_SCHEMA_PREFIX: &str = "atac-report-history-v";

/// One sweep-level history record.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepEntry {
    /// Git SHA of the tree that ran the sweep.
    pub sha: String,
    /// Worker-pool size.
    pub jobs: u64,
    /// Whole-sweep wall-clock seconds.
    pub wall_secs: f64,
    /// Number of planned run keys (summaries recorded).
    pub planned: u64,
    /// Number of keys this sweep actually simulated.
    pub simulated: u64,
    /// All simulated runs' host self-profiles merged.
    pub self_profile: Option<PhaseProfile>,
}

/// One per-run history record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEntry {
    /// Git SHA of the tree that produced the metrics.
    pub sha: String,
    /// The deterministic figure-level metrics.
    pub metrics: RunMetrics,
    /// Host wall-clock seconds spent simulating this key in the
    /// recording sweep (`None` when the record came from cache).
    pub host_secs: Option<f64>,
}

/// One sweep's merged network-microscope aggregate (`ATAC_NETPROF`
/// sweeps only). Deliberately *small*: the full per-router/link
/// breakdown stays in `BENCH_sweep.json`; history tracks only the
/// sweep-level totals a trajectory can be drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct NetProfEntry {
    /// Git SHA of the tree that ran the sweep.
    pub sha: String,
    /// Crossbar traversals across all routers and runs.
    pub flits_routed: u64,
    /// Credit-stall cycles across all routers and runs.
    pub credit_stalls: u64,
    /// Cycles the engines stepped one-by-one.
    pub ticks: u64,
    /// Cycles the engines skipped over.
    pub skipped: u64,
    /// Skip-ahead jumps taken.
    pub jumps: u64,
    /// Jumps woken by a scheduled core event.
    pub wake_core: u64,
    /// Jumps woken by a memory-controller event.
    pub wake_mem: u64,
    /// Jumps woken by the network's own event horizon (absent — 0 — on
    /// lines written before the mesh skip-ahead overhaul).
    pub wake_net: u64,
    /// Epoch samples a skip-ahead jump coalesced.
    pub coalesced: u64,
    /// Longest single epoch span in cycles.
    pub max_epoch_span: u64,
    /// Fraction of the host `network` phase the sub-phase laps tile
    /// (absent when host profiling was off).
    pub net_coverage: Option<f64>,
    /// Host seconds the sweep's merged self-profile attributes to the
    /// `network` phase — the perf-guard sample the CI sweep trends
    /// (absent when host profiling was off or on older lines).
    pub net_secs: Option<f64>,
}

/// One sweep's executor self-metrics (schema-v4 sweeps only). Like
/// [`NetProfEntry`] this is deliberately small: only the counters a
/// cache-efficiency trajectory can be drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Git SHA of the tree that ran the sweep.
    pub sha: String,
    /// Keys satisfied from the run cache (prescan or re-read).
    pub cache_hits: u64,
    /// Keys actually simulated.
    pub cache_misses: u64,
    /// Keys that waited on another worker's in-flight simulation.
    pub flight_waits: u64,
    /// Process RSS high-water mark in bytes over the sweep.
    pub peak_rss_bytes: u64,
}

/// A decoded history line.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryLine {
    /// A sweep-level record.
    Sweep(SweepEntry),
    /// A per-run record.
    Run(RunEntry),
    /// A sweep-level network-microscope aggregate.
    NetProf(NetProfEntry),
    /// A sweep-level executor self-metrics aggregate.
    Flight(FlightEntry),
}

/// A parsed history file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// Decoded lines, file order (append order = chronological).
    pub lines: Vec<HistoryLine>,
    /// Lines with a valid schema but an unknown `kind` (written by a
    /// newer version; skipped, not fatal).
    pub skipped: usize,
}

impl History {
    /// Per-run records, chronological.
    pub fn runs(&self) -> impl Iterator<Item = &RunEntry> {
        self.lines.iter().filter_map(|l| match l {
            HistoryLine::Run(r) => Some(r),
            _ => None,
        })
    }

    /// Sweep records, chronological.
    pub fn sweeps(&self) -> impl Iterator<Item = &SweepEntry> {
        self.lines.iter().filter_map(|l| match l {
            HistoryLine::Sweep(s) => Some(s),
            _ => None,
        })
    }

    /// Network-microscope aggregates, chronological.
    pub fn netprofs(&self) -> impl Iterator<Item = &NetProfEntry> {
        self.lines.iter().filter_map(|l| match l {
            HistoryLine::NetProf(n) => Some(n),
            _ => None,
        })
    }

    /// Executor self-metrics aggregates, chronological.
    pub fn flights(&self) -> impl Iterator<Item = &FlightEntry> {
        self.lines.iter().filter_map(|l| match l {
            HistoryLine::Flight(f) => Some(f),
            _ => None,
        })
    }

    /// The most recent run record per key (last line wins — the file is
    /// append-only, so later is newer). Keys in first-seen order.
    pub fn latest_runs(&self) -> Vec<&RunEntry> {
        let mut order: Vec<&str> = Vec::new();
        let mut latest: std::collections::BTreeMap<&str, &RunEntry> =
            std::collections::BTreeMap::new();
        for r in self.runs() {
            if latest.insert(&r.metrics.key, r).is_none() {
                order.push(&r.metrics.key);
            }
        }
        order.into_iter().filter_map(|k| latest.remove(k)).collect()
    }

    /// Every run record for `key`, chronological (the sparkline series).
    pub fn series(&self, key: &str) -> Vec<&RunEntry> {
        self.runs().filter(|r| r.metrics.key == key).collect()
    }

    /// Host-seconds samples for `key` across recorded sweeps (simulated
    /// runs only — the median/MAD population the gate bounds against).
    pub fn host_samples(&self, key: &str) -> Vec<f64> {
        self.runs()
            .filter(|r| r.metrics.key == key)
            .filter_map(|r| r.host_secs)
            .collect()
    }
}

/// Convert one parsed sweep into its history lines (one sweep record,
/// one netprof aggregate when the sweep carried network microscope
/// data, one flight aggregate when the sweep carried executor
/// self-metrics, plus one run record per summary), stamped with `sha`.
pub fn lines_from_sweep(doc: &SweepDoc, sha: &str) -> Vec<HistoryLine> {
    let mut lines = Vec::with_capacity(doc.summaries.len() + 2);
    lines.push(HistoryLine::Sweep(SweepEntry {
        sha: sha.to_string(),
        jobs: doc.jobs,
        wall_secs: doc.wall_secs(),
        planned: doc.summaries.len() as u64,
        simulated: doc.runs.iter().filter(|r| r.source == "simulated").count() as u64,
        self_profile: doc.self_profile.clone(),
    }));
    if let Some(np) = doc.merged_netprof() {
        lines.push(HistoryLine::NetProf(NetProfEntry {
            sha: sha.to_string(),
            flits_routed: np.total_flits_routed(),
            credit_stalls: np.total_credit_stalls(),
            ticks: np.ticks_executed,
            skipped: np.cycles_skipped,
            jumps: np.skip_jumps,
            wake_core: np.wake_core,
            wake_mem: np.wake_mem,
            wake_net: np.wake_net,
            coalesced: np.coalesced_epochs,
            max_epoch_span: np.max_epoch_span,
            net_coverage: doc.self_profile.as_ref().and_then(|p| p.net_coverage),
            net_secs: doc.self_profile.as_ref().and_then(|p| {
                p.phases
                    .iter()
                    .find(|(name, _)| name == "network")
                    .map(|&(_, secs)| secs)
            }),
        }));
    }
    if let Some(ex) = &doc.executor {
        lines.push(HistoryLine::Flight(FlightEntry {
            sha: sha.to_string(),
            cache_hits: ex.cache_hits,
            cache_misses: ex.cache_misses,
            flight_waits: ex.flight_waits,
            peak_rss_bytes: ex.peak_rss_bytes,
        }));
    }
    for s in &doc.summaries {
        lines.push(HistoryLine::Run(RunEntry {
            sha: sha.to_string(),
            metrics: s.clone(),
            host_secs: doc.simulated_secs(&s.key),
        }));
    }
    lines
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn profile_json(p: &PhaseProfile) -> String {
    let phases: Vec<String> = p
        .phases
        .iter()
        .map(|(name, secs)| format!("\"{}\": {:?}", escape(name), secs))
        .collect();
    let mut net = String::new();
    if let Some(cov) = p.net_coverage {
        let subs: Vec<String> = p
            .net_phases
            .iter()
            .map(|(name, secs)| format!("\"{}\": {:?}", escape(name), secs))
            .collect();
        net = format!(
            ", \"net_coverage\": {cov:?}, \"net_phases\": {{{}}}",
            subs.join(", ")
        );
    }
    format!(
        "{{\"total_secs\": {:?}, \"coverage\": {:?}, \"phases\": {{{}}}{net}}}",
        p.total_secs,
        p.coverage,
        phases.join(", ")
    )
}

/// Encode one history line (no trailing newline). Floats print via
/// `{:?}` so they survive a JSON round-trip bit-exactly — the gate
/// compares them with `==`.
pub fn encode_line(line: &HistoryLine) -> String {
    match line {
        HistoryLine::Sweep(s) => {
            let mut out = format!(
                "{{\"schema\": \"{HISTORY_SCHEMA}\", \"kind\": \"sweep\", \"sha\": \"{}\", \
                 \"jobs\": {}, \"wall_secs\": {:?}, \"planned\": {}, \"simulated\": {}",
                escape(&s.sha),
                s.jobs,
                s.wall_secs,
                s.planned,
                s.simulated,
            );
            if let Some(p) = &s.self_profile {
                out.push_str(&format!(", \"self_profile\": {}", profile_json(p)));
            }
            out.push('}');
            out
        }
        HistoryLine::Run(r) => {
            let m = &r.metrics;
            let mut out = format!(
                "{{\"schema\": \"{HISTORY_SCHEMA}\", \"kind\": \"run\", \"sha\": \"{}\", \
                 \"key\": \"{}\", \"bench\": \"{}\", \"cycles\": {}, \"instructions\": {}, \
                 \"ipc\": {:?}, \"runtime_s\": {:?}, \"energy_j\": {:?}, \"edp_js\": {:?}, \
                 \"latency\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"count\": {}}}",
                escape(&r.sha),
                escape(&m.key),
                escape(&m.bench),
                m.cycles,
                m.instructions,
                m.ipc,
                m.runtime_s,
                m.energy_j,
                m.edp_js,
                m.latency.p50,
                m.latency.p95,
                m.latency.p99,
                m.latency.max,
                m.latency.count,
            );
            if let Some(h) = r.host_secs {
                out.push_str(&format!(", \"host_secs\": {h:?}"));
            }
            out.push('}');
            out
        }
        HistoryLine::NetProf(n) => {
            let mut out = format!(
                "{{\"schema\": \"{HISTORY_SCHEMA}\", \"kind\": \"netprof\", \"sha\": \"{}\", \
                 \"flits_routed\": {}, \"credit_stalls\": {}, \"ticks\": {}, \"skipped\": {}, \
                 \"jumps\": {}, \"wake_core\": {}, \"wake_mem\": {}, \"wake_net\": {}, \
                 \"coalesced\": {}, \"max_epoch_span\": {}",
                escape(&n.sha),
                n.flits_routed,
                n.credit_stalls,
                n.ticks,
                n.skipped,
                n.jumps,
                n.wake_core,
                n.wake_mem,
                n.wake_net,
                n.coalesced,
                n.max_epoch_span,
            );
            if let Some(cov) = n.net_coverage {
                out.push_str(&format!(", \"net_coverage\": {cov:?}"));
            }
            if let Some(secs) = n.net_secs {
                out.push_str(&format!(", \"net_secs\": {secs:?}"));
            }
            out.push('}');
            out
        }
        HistoryLine::Flight(f) => format!(
            "{{\"schema\": \"{HISTORY_SCHEMA}\", \"kind\": \"flight\", \"sha\": \"{}\", \
             \"cache_hits\": {}, \"cache_misses\": {}, \"flight_waits\": {}, \
             \"peak_rss_bytes\": {}}}",
            escape(&f.sha),
            f.cache_hits,
            f.cache_misses,
            f.flight_waits,
            f.peak_rss_bytes,
        ),
    }
}

/// Decode one history line. `Ok(None)` means a forward-compatible skip
/// (valid schema family, unknown kind); `Err` names the malformation.
pub fn decode_line(text: &str) -> Result<Option<HistoryLine>, String> {
    let obj = parse(text).map_err(|e| e.to_string())?;
    let schema = obj
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("history line has no `schema` string")?;
    if !schema.starts_with(HISTORY_SCHEMA_PREFIX) {
        return Err(format!("unrecognized history schema `{schema}`"));
    }
    let sha = obj
        .get("sha")
        .and_then(Json::as_str)
        .ok_or("history line has no `sha`")?
        .to_string();
    match obj.get("kind").and_then(Json::as_str) {
        Some("sweep") => Ok(Some(HistoryLine::Sweep(SweepEntry {
            sha,
            jobs: obj
                .get("jobs")
                .and_then(Json::as_u64)
                .ok_or("sweep line has no `jobs`")?,
            wall_secs: obj
                .get("wall_secs")
                .and_then(Json::as_f64)
                .ok_or("sweep line has no `wall_secs`")?,
            planned: obj.get("planned").and_then(Json::as_u64).unwrap_or(0),
            simulated: obj.get("simulated").and_then(Json::as_u64).unwrap_or(0),
            self_profile: obj.get("self_profile").and_then(parse_profile),
        }))),
        Some("run") => {
            let metrics = parse_metrics(&obj).ok_or("run line metrics are malformed")?;
            Ok(Some(HistoryLine::Run(RunEntry {
                sha,
                metrics,
                host_secs: obj.get("host_secs").and_then(Json::as_f64),
            })))
        }
        Some("netprof") => {
            let req = |k: &str| -> Result<u64, String> {
                obj.get(k)
                    .and_then(Json::as_u64)
                    .ok_or(format!("netprof line has no `{k}`"))
            };
            Ok(Some(HistoryLine::NetProf(NetProfEntry {
                sha,
                flits_routed: req("flits_routed")?,
                credit_stalls: req("credit_stalls")?,
                ticks: req("ticks")?,
                skipped: req("skipped")?,
                jumps: req("jumps")?,
                wake_core: req("wake_core")?,
                wake_mem: req("wake_mem")?,
                // Optional: lines predating the mesh skip-ahead
                // overhaul lack the network wake cause and the
                // perf-guard seconds.
                wake_net: obj.get("wake_net").and_then(Json::as_u64).unwrap_or(0),
                coalesced: req("coalesced")?,
                max_epoch_span: req("max_epoch_span")?,
                net_coverage: obj.get("net_coverage").and_then(Json::as_f64),
                net_secs: obj.get("net_secs").and_then(Json::as_f64),
            })))
        }
        Some("flight") => {
            let req = |k: &str| -> Result<u64, String> {
                obj.get(k)
                    .and_then(Json::as_u64)
                    .ok_or(format!("flight line has no `{k}`"))
            };
            Ok(Some(HistoryLine::Flight(FlightEntry {
                sha,
                cache_hits: req("cache_hits")?,
                cache_misses: req("cache_misses")?,
                flight_waits: req("flight_waits")?,
                peak_rss_bytes: req("peak_rss_bytes")?,
            })))
        }
        Some(_) => Ok(None), // a newer writer's kind: skip, don't fail
        None => Err("history line has no `kind`".to_string()),
    }
}

/// Parse a whole history document (JSONL; blank lines allowed). The
/// error names the first malformed line by 1-based number.
pub fn read_history(text: &str) -> Result<History, String> {
    let mut history = History::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match decode_line(line).map_err(|e| format!("history line {}: {e}", i + 1))? {
            Some(decoded) => history.lines.push(decoded),
            None => history.skipped += 1,
        }
    }
    Ok(history)
}

/// Append encoded lines to the history file at `path`, creating it if
/// absent. Appends are the registry's only mutation — existing records
/// are never rewritten, which is what makes the file a trustworthy
/// trajectory.
#[expect(clippy::disallowed_methods, reason = "the append-only history writer")]
pub fn append_lines(path: &Path, lines: &[HistoryLine]) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut buf = String::new();
    for line in lines {
        buf.push_str(&encode_line(line));
        buf.push('\n');
    }
    file.write_all(buf.as_bytes())
}

/// Write a rendered report (or any derived text artifact) to `path`.
/// The renderer funnels through here so rule 7 can police the crate's
/// write surface in one place.
#[expect(clippy::disallowed_methods, reason = "the whole-file report writer")]
pub fn write_text(path: &Path, contents: &str) -> std::io::Result<()> {
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::parse_sweep;

    fn sample_history() -> History {
        let doc = parse_sweep(crate::sweep::SAMPLE).expect("fixture parses");
        let mut text = String::new();
        for line in lines_from_sweep(&doc, "sha-1") {
            text.push_str(&encode_line(&line));
            text.push('\n');
        }
        for line in lines_from_sweep(&doc, "sha-2") {
            text.push_str(&encode_line(&line));
            text.push('\n');
        }
        read_history(&text).expect("roundtrip")
    }

    #[test]
    fn sweep_roundtrips_through_history_lines() {
        let doc = parse_sweep(crate::sweep::SAMPLE).expect("fixture parses");
        let lines = lines_from_sweep(&doc, "abc123");
        assert_eq!(
            lines.len(),
            5,
            "one sweep record + one netprof aggregate + one flight aggregate + two run records"
        );
        for line in &lines {
            let encoded = encode_line(line);
            let back = decode_line(&encoded).expect("decodes").expect("known kind");
            assert_eq!(&back, line, "bit-exact roundtrip of {encoded}");
        }
        match &lines[1] {
            HistoryLine::NetProf(n) => {
                assert_eq!(n.sha, "abc123");
                assert_eq!(n.flits_routed, 320);
                assert_eq!(n.credit_stalls, 14);
                assert_eq!(n.ticks + n.skipped, 500_000);
                assert_eq!(n.coalesced, 3);
                assert_eq!(n.net_coverage, Some(0.99));
            }
            other => panic!("expected netprof line, got {other:?}"),
        }
        match &lines[2] {
            HistoryLine::Flight(f) => {
                assert_eq!(f.sha, "abc123");
                assert_eq!(f.cache_hits, 1);
                assert_eq!(f.cache_misses, 1);
                assert_eq!(f.flight_waits, 0);
                assert_eq!(f.peak_rss_bytes, 104_857_600);
            }
            other => panic!("expected flight line, got {other:?}"),
        }
        match &lines[3] {
            HistoryLine::Run(r) => {
                assert_eq!(r.sha, "abc123");
                assert_eq!(r.host_secs, Some(5.5), "simulated run carries host secs");
            }
            other => panic!("expected run line, got {other:?}"),
        }
        match &lines[4] {
            HistoryLine::Run(r) => assert_eq!(r.host_secs, None, "cache hit has none"),
            other => panic!("expected run line, got {other:?}"),
        }
    }

    #[test]
    fn history_queries_pick_latest_and_series() {
        let h = sample_history();
        assert_eq!(h.sweeps().count(), 2);
        assert_eq!(h.runs().count(), 4);
        assert_eq!(h.netprofs().count(), 2);
        assert!(h.netprofs().all(|n| n.flits_routed == 320));
        assert_eq!(h.flights().count(), 2);
        assert!(h.flights().all(|f| f.cache_hits + f.cache_misses == 2));
        let latest = h.latest_runs();
        assert_eq!(latest.len(), 2);
        assert!(latest.iter().all(|r| r.sha == "sha-2"), "last line wins");
        let key = "8x4|atac[distance-15]|flit64|buf4|ackwise4|radix";
        assert_eq!(h.series(key).len(), 2);
        assert_eq!(h.host_samples(key), vec![5.5, 5.5]);
        assert_eq!(
            h.host_samples("8x4|emesh-pure|flit64|buf4|ackwise4|radix"),
            Vec::<f64>::new(),
            "cache hits contribute no host samples"
        );
    }

    #[test]
    fn decode_is_forward_compatible_but_not_lax() {
        // Unknown kind from a future writer: skipped, not fatal.
        let future = r#"{"schema": "atac-report-history-v2", "kind": "annotation", "sha": "x"}"#;
        assert_eq!(decode_line(future).expect("skips"), None);
        // Unknown members on a known kind: ignored.
        let extra = r#"{"schema": "atac-report-history-v1", "kind": "sweep", "sha": "x",
                        "jobs": 2, "wall_secs": 1.5, "frobnication": true}"#;
        assert!(matches!(
            decode_line(extra).expect("decodes"),
            Some(HistoryLine::Sweep(_))
        ));
        // Foreign schema, missing kind, bad json: all errors.
        assert!(decode_line(r#"{"schema": "other-v1", "kind": "run", "sha": "x"}"#).is_err());
        assert!(decode_line(r#"{"schema": "atac-report-history-v1", "sha": "x"}"#).is_err());
        assert!(decode_line("{").is_err());
        // And a malformed line is named by number in a full read.
        let text = format!("{future}\n\nnot json\n");
        let err = read_history(&text).expect_err("line 3 is malformed");
        assert!(err.starts_with("history line 3:"), "{err}");
        // While the skippable line is counted.
        let ok = read_history(future).expect("reads");
        assert_eq!(ok.skipped, 1);
        assert!(ok.lines.is_empty());
    }

    #[test]
    fn append_creates_and_extends() {
        let dir = std::env::temp_dir().join(format!("atac-report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("history.jsonl");
        let _ = std::fs::remove_file(&path);
        let doc = parse_sweep(crate::sweep::SAMPLE).expect("fixture parses");
        let lines = lines_from_sweep(&doc, "s1");
        append_lines(&path, &lines).expect("first append creates");
        append_lines(&path, &lines_from_sweep(&doc, "s2")).expect("second append extends");
        let text = std::fs::read_to_string(&path).expect("readable");
        let h = read_history(&text).expect("parses");
        assert_eq!(h.sweeps().count(), 2);
        assert_eq!(h.runs().count(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
