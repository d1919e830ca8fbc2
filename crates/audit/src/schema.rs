//! Rule 4: schema drift between JSON emitters and their validators.
//!
//! Every JSON artifact in this workspace is written by a hand-rolled
//! emitter and read back by a hand-rolled validator/parser — that pair
//! is the schema. Nothing stops an emitter gaining a field its reader
//! never learns about (the reader is forward-compatible and would
//! silently ignore it), which is exactly how a "recorded" metric ends
//! up invisible to the regression gate. This rule extracts the static
//! key vocabulary each emitter writes (the `\"key\":` literals in its
//! format strings; `{…}`-interpolated dynamic keys are exempt) and
//! requires every key to appear in the paired validator functions'
//! string literals. The committed `BENCH_history.jsonl` is additionally
//! checked against the history emitter's vocabulary, with the
//! `HostPhase` names admitted for the dynamic `phases` members.
//!
//! The registry below self-checks: naming a function that no longer
//! exists is itself a violation, so a rename cannot silently drop a
//! pair. Waive an intentional emitter-only key with
//! `// audit: allow(schema) <reason>` on the emitter function.

use std::collections::BTreeSet;
use std::path::Path;

use crate::lex::FileModel;
use crate::{has_waiver, violation, Violation};

/// One emitter/validator pair.
struct SchemaPair {
    /// Human label for messages.
    label: &'static str,
    /// File owning the emitter functions.
    emit_file: &'static str,
    /// The functions whose string literals form the emitted vocabulary.
    emit_fns: &'static [&'static str],
    /// `(file, functions)` whose string literals form the accepted
    /// vocabulary.
    vocab: &'static [(&'static str, &'static [&'static str])],
}

const PAIRS: &[SchemaPair] = &[
    SchemaPair {
        label: "trace metrics JSONL",
        emit_file: "crates/trace/src/export.rs",
        emit_fns: &["metrics_jsonl", "push_histogram_line"],
        vocab: &[("crates/trace/src/export.rs", &["validate_metrics_jsonl"])],
    },
    SchemaPair {
        label: "chrome trace",
        emit_file: "crates/trace/src/export.rs",
        emit_fns: &["chrome_trace"],
        vocab: &[("crates/trace/src/export.rs", &["validate_chrome_trace"])],
    },
    SchemaPair {
        label: "bench run record",
        emit_file: "crates/bench/src/runjson.rs",
        emit_fns: &["encode", "push_counters"],
        vocab: &[(
            "crates/bench/src/runjson.rs",
            &["record", "counters", "histogram", "latency"],
        )],
    },
    SchemaPair {
        label: "sweep log",
        emit_file: "crates/bench/src/executor.rs",
        emit_fns: &[
            "to_json",
            "profile_json",
            "summary_json",
            "netprof_json",
            "executor_json",
        ],
        vocab: &[(
            "crates/report/src/sweep.rs",
            &[
                "parse_sweep",
                "parse_metrics",
                "parse_profile",
                "parse_netprof",
                "parse_executor",
            ],
        )],
    },
    SchemaPair {
        label: "history line",
        emit_file: "crates/report/src/history.rs",
        emit_fns: &["encode_line", "profile_json"],
        vocab: &[
            ("crates/report/src/history.rs", &["decode_line"]),
            (
                "crates/report/src/sweep.rs",
                &["parse_metrics", "parse_profile"],
            ),
        ],
    },
];

/// Undo source-level quote escaping so `\"key\":` and `"key":` read the
/// same.
fn normalize(payload: &str) -> String {
    payload.replace("\\\"", "\"")
}

/// Collect `"ident":`-shaped keys from a (normalized) string payload.
fn keys_in_payload(payload: &str, out: &mut BTreeSet<String>) {
    let s = normalize(payload);
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] != b'"' {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        if j > i + 1 && j < b.len() && b[j] == b'"' && !b[i + 1].is_ascii_digit() {
            let mut k = j + 1;
            while k < b.len() && b[k] == b' ' {
                k += 1;
            }
            if k < b.len() && b[k] == b':' {
                out.insert(s[i + 1..j].to_string());
                i = k + 1;
                continue;
            }
        }
        i = j.max(i + 1);
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| !c.is_ascii_digit())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The spans of the named functions (non-test), plus the names that
/// could not be found.
fn fn_extents<'m>(
    model: &'m FileModel,
    fns: &[&str],
) -> (Vec<&'m crate::lex::FnSpan>, Vec<String>) {
    let mut spans = Vec::new();
    let mut missing = Vec::new();
    for name in fns {
        let mut found = false;
        for f in model.fns.iter().filter(|f| f.name == *name && !f.in_test) {
            spans.push(f);
            found = true;
        }
        if !found {
            missing.push((*name).to_string());
        }
    }
    (spans, missing)
}

/// Keys an emitter writes: `"ident":` patterns inside its string
/// literals. Dynamic keys (`"{…}":`) never match the ident scan and are
/// exempt by construction.
fn emitted_keys(model: &FileModel, fns: &[&str]) -> (BTreeSet<String>, Vec<String>) {
    let (spans, missing) = fn_extents(model, fns);
    let mut keys = BTreeSet::new();
    for span in spans {
        for idx in span.sig_line..=span.body_end {
            for s in &model.lines[idx].strings {
                keys_in_payload(s, &mut keys);
            }
        }
    }
    (keys, missing)
}

/// The vocabulary a validator understands: every pure-identifier string
/// literal in its extent (`"cycles"` passed to a getter) plus any
/// `"ident":` keys embedded in longer literals.
fn vocab_keys(model: &FileModel, fns: &[&str]) -> (BTreeSet<String>, Vec<String>) {
    let (spans, missing) = fn_extents(model, fns);
    let mut keys = BTreeSet::new();
    for span in spans {
        for idx in span.sig_line..=span.body_end {
            for s in &model.lines[idx].strings {
                let n = normalize(s);
                if is_ident(&n) {
                    keys.insert(n);
                } else {
                    keys_in_payload(s, &mut keys);
                }
            }
        }
    }
    (keys, missing)
}

/// Run the schema-drift rule: every registered emitter's static keys
/// must be known to its validators, and `BENCH_history.jsonl` must use
/// only keys the history emitter can produce.
pub fn check_schema_drift<'m, F>(root: &Path, model_of: &F, out: &mut Vec<Violation>)
where
    F: Fn(&str) -> &'m FileModel,
{
    for pair in PAIRS {
        check_pair(pair, model_of, out);
    }
    check_history_file(root, model_of, out);
}

fn check_pair<'m, F>(pair: &SchemaPair, model_of: &F, out: &mut Vec<Violation>)
where
    F: Fn(&str) -> &'m FileModel,
{
    let emit_model = model_of(pair.emit_file);
    let (emitted, missing_emit) = emitted_keys(emit_model, pair.emit_fns);
    let mut vocab = BTreeSet::new();
    let mut missing_vocab = Vec::new();
    for (file, fns) in pair.vocab {
        let (k, m) = vocab_keys(model_of(file), fns);
        vocab.extend(k);
        missing_vocab.extend(m.into_iter().map(|f| format!("{file}::{f}")));
    }

    for name in missing_emit {
        out.push(violation(
            pair.emit_file,
            emit_model,
            0,
            "schema-drift",
            format!(
                "schema registry ({label}) names emitter fn `{name}` which no longer \
                 exists; update PAIRS in crates/audit/src/schema.rs",
                label = pair.label
            ),
        ));
    }
    for name in missing_vocab {
        out.push(violation(
            pair.emit_file,
            emit_model,
            0,
            "schema-drift",
            format!(
                "schema registry ({label}) names validator fn `{name}` which no longer \
                 exists; update PAIRS in crates/audit/src/schema.rs",
                label = pair.label
            ),
        ));
    }

    let drifted: Vec<&String> = emitted.iter().filter(|k| !vocab.contains(*k)).collect();
    if drifted.is_empty() {
        return;
    }
    // Anchor the violation on the first emitter function's signature.
    let anchor = fn_extents(emit_model, pair.emit_fns)
        .0
        .first()
        .map_or(0, |s| s.sig_line);
    if has_waiver(emit_model, anchor, "schema") {
        return;
    }
    let keys: Vec<String> = drifted.iter().map(|k| format!("`{k}`")).collect();
    let readers: Vec<String> = pair
        .vocab
        .iter()
        .map(|(f, fns)| format!("{f} [{}]", fns.join(", ")))
        .collect();
    let msg = format!(
        "{label} emitter writes key(s) {keys} that no paired validator mentions \
         ({readers}); teach the reader the field or waive with \
         `// audit: allow(schema) <reason>` on the emitter",
        label = pair.label,
        keys = keys.join(", "),
        readers = readers.join("; "),
    );
    out.push(violation(
        pair.emit_file,
        emit_model,
        anchor,
        "schema-drift",
        msg,
    ));
}

/// Check the committed history registry against the emitter vocabulary.
fn check_history_file<'m, F>(root: &Path, model_of: &F, out: &mut Vec<Violation>)
where
    F: Fn(&str) -> &'m FileModel,
{
    let path = root.join("BENCH_history.jsonl");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let hist = model_of("crates/report/src/history.rs");
    let (mut vocab, _) = emitted_keys(hist, &["encode_line", "profile_json"]);

    // The `phases` object carries dynamic keys: the HostPhase names.
    let profile = model_of("crates/trace/src/profile.rs");
    let (phase_spans, missing) = fn_extents(profile, &["name"]);
    if !missing.is_empty() {
        out.push(Violation {
            file: "BENCH_history.jsonl".to_string(),
            line: 1,
            rule: "schema-drift",
            message: "history check expects HostPhase::name in \
                      crates/trace/src/profile.rs to enumerate phase names; update \
                      crates/audit/src/schema.rs"
                .to_string(),
            snippet: "HostPhase::name".to_string(),
        });
    }
    for span in phase_spans {
        for idx in span.sig_line..=span.body_end {
            for s in &profile.lines[idx].strings {
                let n = normalize(s);
                if is_ident(&n) {
                    vocab.insert(n);
                }
            }
        }
    }

    let mut unknown: BTreeSet<String> = BTreeSet::new();
    let mut first_line = 0usize;
    for (i, line) in text.lines().enumerate() {
        let mut keys = BTreeSet::new();
        keys_in_payload(line, &mut keys);
        for k in keys {
            if !vocab.contains(&k) && unknown.insert(k) && first_line == 0 {
                first_line = i + 1;
            }
        }
    }
    if unknown.is_empty() {
        return;
    }
    let list: Vec<String> = unknown.iter().map(|k| format!("`{k}`")).collect();
    out.push(Violation {
        file: "BENCH_history.jsonl".to_string(),
        line: first_line.max(1),
        rule: "schema-drift",
        message: format!(
            "history registry uses key(s) {} that the current emitter \
             (crates/report/src/history.rs encode_line/profile_json + HostPhase \
             names) cannot produce — emitter drift or a foreign writer touched \
             the registry",
            list.join(", ")
        ),
        snippet: format!("keys: {}", list.join(", ")),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const EMIT_FIXTURE: &str = include_str!("../tests/fixtures/schema_fixture.rs");

    #[test]
    fn key_extraction_reads_escaped_and_raw_literals() {
        let m = FileModel::parse(EMIT_FIXTURE);
        let (keys, missing) = emitted_keys(&m, &["emit"]);
        assert!(missing.is_empty(), "{missing:?}");
        let got: Vec<&str> = keys.iter().map(String::as_str).collect();
        assert_eq!(got, vec!["cycles", "energy_j", "schema"], "{got:?}");
    }

    #[test]
    fn dynamic_keys_are_exempt() {
        let m = FileModel::parse(
            "fn emit(out: &mut String) {\n    out.push_str(&format!(\"\\\"{name}\\\": {v},\"));\n}\n",
        );
        let (keys, _) = emitted_keys(&m, &["emit"]);
        assert!(keys.is_empty(), "{keys:?}");
    }

    #[test]
    fn vocab_accepts_bare_idents_and_embedded_keys() {
        let m = FileModel::parse(
            "fn parse(o: &Json) {\n    let a = o.get(\"cycles\");\n    let b = check(\"{\\\"schema\\\": 1}\");\n}\n",
        );
        let (keys, _) = vocab_keys(&m, &["parse"]);
        assert!(keys.contains("cycles"));
        assert!(keys.contains("schema"));
    }

    #[test]
    fn fixture_pair_detects_the_seeded_drift() {
        // The fixture's `emit` writes `energy_j` but `parse` only knows
        // schema/cycles — exactly one drifted key.
        let m = FileModel::parse(EMIT_FIXTURE);
        let (emitted, _) = emitted_keys(&m, &["emit"]);
        let (vocab, _) = vocab_keys(&m, &["parse"]);
        let drift: Vec<&String> = emitted.iter().filter(|k| !vocab.contains(*k)).collect();
        assert_eq!(drift.len(), 1);
        assert_eq!(drift[0], "energy_j");
    }

    #[test]
    fn history_line_key_scan_ignores_values() {
        let mut keys = BTreeSet::new();
        keys_in_payload(
            r#"{"schema": "atac-report-history-v1", "kind": "run", "source": "simulated", "n": 3}"#,
            &mut keys,
        );
        let got: Vec<&str> = keys.iter().map(String::as_str).collect();
        assert_eq!(got, vec!["kind", "n", "schema", "source"]);
    }
}
