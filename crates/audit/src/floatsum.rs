//! Rule 3: float accumulation order in sweep-reachable reductions.
//!
//! The parallel executor merges per-run artifacts (histograms, host
//! profiles, phase timings) into sweep-level documents, and the history
//! registry folds those again. Float addition is not associative: if a
//! merge's accumulation order depended on worker completion order, the
//! "byte-identical parallel vs serial sweeps" contract would hold only
//! by luck. This rule flags `+=` accumulation in the reduction files
//! when it is float-shaped (an `f64`/seconds/energy/coverage operand)
//! or sits in a merge-named function, and requires the *function* to
//! declare its ordering contract with a comment:
//!
//! ```text
//! // audit: order-stable — merged in planned-run order, not completion order
//! fn absorb(&mut self, other: &Profile) { … }
//! ```
//!
//! Integer accumulators in merge functions need the marker too — the
//! point is that every reduction states *why* its order (or operand
//! algebra) makes the result deterministic. A single odd site can be
//! waived with `// audit: allow(float-accum) <reason>`.

use crate::lex::{tokens, FileModel};
use crate::{comment_block_above, has_waiver, violation, Violation};

/// The merge/reduction files reachable from the parallel executor: the
/// trace accumulators workers fill, the executor that folds them, and
/// the report layer that folds sweeps into history and rendered output.
pub const REDUCTION_FILES: &[&str] = &[
    "crates/trace/src/profile.rs",
    "crates/trace/src/hist.rs",
    "crates/trace/src/collect.rs",
    "crates/bench/src/executor.rs",
    "crates/bench/src/cache.rs",
    "crates/report/src/history.rs",
    "crates/report/src/sweep.rs",
    "crates/report/src/gate.rs",
    "crates/report/src/render.rs",
];

/// Function-name fragments that mark a reduction.
const MERGE_NAMES: &[&str] = &["merge", "absorb", "combine", "accumulate", "reduce", "fold"];

/// Identifier fragments that mark a float-shaped operand.
const FLOAT_HINTS: &[&str] = &["secs", "energy", "joule", "coverage", "edp", "watts"];

fn is_merge_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    MERGE_NAMES.iter().any(|m| lower.contains(m))
}

fn line_is_float_shaped(code: &str) -> bool {
    tokens(code).any(|t| {
        t == "f64"
            || t == "as_secs_f64"
            || FLOAT_HINTS
                .iter()
                .any(|h| t.to_ascii_lowercase().contains(h))
    })
}

/// Is the enclosing function (or this line) declared order-stable? The
/// marker may sit on the line, the line above, anywhere in the function
/// body, or in the comment block above the signature.
fn order_stable(model: &FileModel, idx: usize) -> bool {
    const MARKER: &str = "audit: order-stable";
    let line = &model.lines[idx];
    if line.comment.contains(MARKER) {
        return true;
    }
    if idx > 0 && model.lines[idx - 1].comment.contains(MARKER) {
        return true;
    }
    if let Some(fn_idx) = line.fn_idx {
        let span = &model.fns[fn_idx];
        let in_extent =
            (span.sig_line..=span.body_end).any(|l| model.lines[l].comment.contains(MARKER));
        if in_extent {
            return true;
        }
        if comment_block_above(model, span.sig_line)
            .iter()
            .any(|l| l.contains(MARKER))
        {
            return true;
        }
    }
    false
}

/// Run the float-accumulation rule over one reduction file.
pub fn check_float_accum(rel: &str, model: &FileModel, out: &mut Vec<Violation>) {
    for idx in 0..model.lines.len() {
        let line = &model.lines[idx];
        if line.in_test || !line.code.contains("+=") {
            continue;
        }
        let in_merge_fn = line
            .fn_idx
            .is_some_and(|i| is_merge_name(&model.fns[i].name));
        let floaty = line_is_float_shaped(&line.code);
        if !(in_merge_fn || floaty) {
            continue;
        }
        if order_stable(model, idx) || has_waiver(model, idx, "float-accum") {
            continue;
        }
        let func = line
            .fn_idx
            .map_or_else(|| "<file scope>".to_string(), |i| model.fns[i].name.clone());
        let why = if in_merge_fn && floaty {
            "float accumulation in a merge function"
        } else if in_merge_fn {
            "accumulation in a merge function"
        } else {
            "float-shaped accumulation in a sweep-reachable reduction file"
        };
        let msg = format!(
            "{why} (`{func}`): float addition is not associative, so the sum must \
             not depend on worker completion order; declare the contract with \
             `// audit: order-stable — <why>` on the function, or waive one site \
             with `// audit: allow(float-accum) <reason>`"
        );
        out.push(violation(rel, model, idx, "float-accum", msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = include_str!("../tests/fixtures/floatsum_fixture.rs");

    fn run(src: &str) -> Vec<Violation> {
        let m = FileModel::parse(src);
        let mut v = Vec::new();
        check_float_accum("crates/trace/src/profile.rs", &m, &mut v);
        v
    }

    #[test]
    fn fixture_fires_on_unmarked_reductions_only() {
        let v = run(FIXTURE);
        assert!(v.iter().all(|x| x.rule == "float-accum"), "{v:?}");
        // Seeded: an unmarked float merge and an unmarked secs sum.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("merge function")));
    }

    #[test]
    fn marked_function_covers_every_site_in_it() {
        let v = run("/// Fold another profile in.\n\
             // audit: order-stable — phases merged by fixed name order\n\
             fn merge(&mut self, o: &P) {\n\
                 self.total_secs += o.total_secs;\n\
                 self.busy_secs += o.busy_secs;\n\
             }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn integer_counters_outside_merges_are_fine() {
        let v = run("fn bump(&mut self) {\n    self.cache_hits += 1;\n    self.i += n;\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn integer_merge_still_needs_marker() {
        let v = run("fn merge(&mut self, o: &H) {\n    self.count += o.count;\n}\n");
        assert_eq!(v.len(), 1, "u64 merges must state associativity too");
        let ok = run(
            "fn merge(&mut self, o: &H) {\n    // audit: order-stable — u64 addition is associative\n    self.count += o.count;\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }
}
