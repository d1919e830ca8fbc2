//! Per-key host-cost model for cost-aware sweep scheduling.
//!
//! The run history (`BENCH_history.jsonl`, written by `atac-report
//! record`) carries one `run` line per simulated key per recorded sweep,
//! including the host seconds the simulation took. Those samples are a
//! ready-made cost model: the executor sorts its missing keys
//! longest-expected-first (the classic LPT heuristic), so a straggler
//! key starts early instead of landing on a lone worker after the queue
//! drains. The same expectations drive the live progress line's ETA.
//!
//! Scheduling is a *performance* decision only — run records are
//! keyed and published per key, and the sweep log sorts runs by key, so
//! execution order never reaches the artifacts. The existing
//! parallel-vs-serial byte-identity test covers exactly this property.
//!
//! The model is deliberately minimal: the median of the recorded
//! samples per key (robust to one slow CI runner), no cross-key
//! inference. A key with no history simply has no expectation and the
//! executor schedules it first (an unknown cost is treated as
//! potentially long — the safe bet for makespan).

use std::collections::BTreeMap;

use atac::trace::json::{parse, Json};

/// Expected host seconds per run key, learned from committed history.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    expected: BTreeMap<String, f64>,
}

impl CostModel {
    /// Load from `ATAC_HISTORY` (default `BENCH_history.jsonl` in the
    /// working directory). Missing or unreadable history is an empty
    /// model — the executor then keeps the plan's declared order.
    #[expect(clippy::disallowed_methods, reason = "reads the ATAC_HISTORY knob")]
    pub fn from_env() -> Self {
        let path =
            std::env::var("ATAC_HISTORY").unwrap_or_else(|_| "BENCH_history.jsonl".to_string());
        std::fs::read_to_string(path)
            .map(|text| Self::from_history_text(&text))
            .unwrap_or_default()
    }

    /// Build from history JSONL text. Only `run` lines with a `key` and
    /// a `host_secs` contribute; malformed or foreign lines are skipped
    /// (this is a scheduling hint, not a validator — `atac-report`
    /// owns strict history decoding).
    pub fn from_history_text(text: &str) -> Self {
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(obj) = parse(line) else { continue };
            if obj.get("kind").and_then(Json::as_str) != Some("run") {
                continue;
            }
            let (Some(key), Some(secs)) = (
                obj.get("key").and_then(Json::as_str),
                obj.get("host_secs").and_then(Json::as_f64),
            ) else {
                continue;
            };
            if secs.is_finite() && secs >= 0.0 {
                samples.entry(key.to_string()).or_default().push(secs);
            }
        }
        let expected = samples
            .into_iter()
            .map(|(key, mut s)| {
                s.sort_by(f64::total_cmp);
                (key, s[s.len() / 2])
            })
            .collect();
        CostModel { expected }
    }

    /// Inject one expectation (tests, synthetic schedules).
    pub fn insert(&mut self, key: impl Into<String>, secs: f64) {
        self.expected.insert(key.into(), secs);
    }

    /// Expected host seconds for `key`, if the history had samples.
    pub fn expected_secs(&self, key: &str) -> Option<f64> {
        self.expected.get(key).copied()
    }

    /// Whether the model has no expectations at all.
    pub fn is_empty(&self) -> bool {
        self.expected.is_empty()
    }

    /// Number of keys with an expectation.
    pub fn len(&self) -> usize {
        self.expected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_run_samples_per_key() {
        let text = concat!(
            "{\"schema\": \"atac-report-history-v1\", \"kind\": \"sweep\", \"sha\": \"a\"}\n",
            "{\"kind\": \"run\", \"key\": \"k1\", \"host_secs\": 4.0}\n",
            "{\"kind\": \"run\", \"key\": \"k1\", \"host_secs\": 100.0}\n",
            "{\"kind\": \"run\", \"key\": \"k1\", \"host_secs\": 5.0}\n",
            "{\"kind\": \"run\", \"key\": \"k2\", \"host_secs\": 0.5}\n",
            "{\"kind\": \"netprof\", \"sha\": \"a\", \"flits\": 9}\n",
            "not json at all\n",
            "{\"kind\": \"run\", \"key\": \"k3\"}\n",
            "{\"kind\": \"run\", \"key\": \"k4\", \"host_secs\": -1.0}\n",
        );
        let model = CostModel::from_history_text(text);
        assert_eq!(model.len(), 2);
        assert_eq!(model.expected_secs("k1"), Some(5.0), "median beats outlier");
        assert_eq!(model.expected_secs("k2"), Some(0.5));
        assert_eq!(model.expected_secs("k3"), None, "no host_secs, no entry");
        assert_eq!(model.expected_secs("k4"), None, "negative sample dropped");
    }

    #[test]
    fn empty_and_injected_models() {
        let empty = CostModel::from_history_text("");
        assert!(empty.is_empty());
        assert_eq!(empty.expected_secs("k"), None);
        let mut m = CostModel::default();
        m.insert("k", 2.5);
        assert!(!m.is_empty());
        assert_eq!(m.expected_secs("k"), Some(2.5));
    }
}
