//! Project-specific static analysis for the ATAC+ workspace.
//!
//! Four rules that neither rustc nor clippy can express, enforced on a
//! lexed view of the source (see [`lex`]): every file is classified
//! byte-by-byte into code / comment / string before any rule runs, and a
//! brace-tracking scope pass attributes each line to its enclosing `fn`
//! and to `#[cfg(test)]` regions. Rules therefore cannot false-positive
//! inside string literals, doc comments, commented-out code, or test
//! modules.
//!
//! 1. **`raw-f64`** — public functions in `crates/phys`, `crates/sim`
//!    and `crates/trace` whose name (or a parameter name) speaks of
//!    energy, power, or time must not traffic in bare `f64`; they must
//!    use the unit newtypes from `atac_phys::units`. Waive with
//!    `// audit: allow(raw-f64)`.
//! 2. **`hot-alloc`** — an allocation census over [`HOT_PATH_FILES`]:
//!    every `push`/`Box::new`/`clone()`/`format!`/`to_string`/
//!    `collect()`/… site is inventoried (machine-readable via `--json`),
//!    and sites inside the registered *per-cycle* functions are
//!    violations unless waived with `// audit: allow(alloc) <reason>`.
//! 3. **`float-accum`** — `+=` accumulation in merge/reduction code
//!    reachable from the parallel sweep executor must be declared
//!    order-stable (`// audit: order-stable — <why>` on the function),
//!    because float addition is not associative and a
//!    worker-completion-order-dependent sum would break byte-identical
//!    sweep artifacts. Waive a single site with
//!    `// audit: allow(float-accum) <reason>`.
//! 4. **`schema-drift`** — the JSON field vocabularies emitted by the
//!    `trace`/`bench`/`report` writers are cross-checked against their
//!    in-tree validators/parsers, and the committed
//!    `BENCH_history.jsonl` is checked against the history emitter, so
//!    an exporter field cannot silently diverge from its reader. Waive
//!    with `// audit: allow(schema) <reason>` on the emitter line.
//!
//! Everything the compiler, clippy or module privacy can check is left
//! to them (DESIGN.md §8): counter coverage is an exhaustive destructure
//! in `atac_sim::energy::integrate`, hot-path panics and casts and
//! wildcard match arms are per-file clippy lints, and determinism and
//! the sanctioned writers are `clippy.toml` lists. Their waivers are
//! `#[expect(<lint>, reason = "...")]` attributes, so a waiver that no
//! longer suppresses anything fails clippy.
//!
//! The binary (`cargo run -p atac-audit`) exits 1 on any violation. The
//! same pass runs under `cargo test` via [`tests::shipped_tree_is_clean`].

use std::fmt;
use std::path::{Path, PathBuf};

pub mod floatsum;
pub mod hotalloc;
pub mod lex;
pub mod report;
pub mod schema;

pub use hotalloc::AllocSite;
use lex::FileModel;

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the problem and the fix.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One entry of the rule registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// The identifier violations carry in [`Violation::rule`].
    pub id: &'static str,
    /// One-line summary for `--help`-style output.
    pub summary: &'static str,
}

/// Every rule this crate enforces. The CLI banner, the findings
/// document, and the docs all derive their rule count from here.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "raw-f64",
        summary: "unit-bearing public signatures use newtypes, not bare f64",
    },
    RuleInfo {
        id: "hot-alloc",
        summary: "allocation census over per-cycle hot-path functions",
    },
    RuleInfo {
        id: "float-accum",
        summary: "merge/reduction float sums declare their accumulation order",
    },
    RuleInfo {
        id: "schema-drift",
        summary: "JSON emitter vocabularies match their validators and history",
    },
];

/// Everything one audit pass produces: the violations and the full
/// hot-path allocation census (informational sites included).
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Rule violations, sorted by (file, line).
    pub violations: Vec<Violation>,
    /// Every allocation site in the hot-path files, per-cycle or not.
    pub census: Vec<AllocSite>,
}

/// Simulator hot paths: the files where the hot-alloc census runs, and
/// exactly the files whose `#![warn(..)]` header makes clippy police
/// their panics and lossy casts (a test below keeps the two in step).
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/net/src/mesh.rs",
    "crates/net/src/onet.rs",
    "crates/net/src/atac.rs",
    "crates/net/src/hubset.rs",
    "crates/coherence/src/system.rs",
    "crates/coherence/src/directory.rs",
    "crates/coherence/src/protocol.rs",
    "crates/coherence/src/cache.rs",
    "crates/coherence/src/memctrl.rs",
    "crates/sim/src/engine.rs",
    "crates/sim/src/energy.rs",
];

/// First-party source roots the audit lexes. `crates/rand` (vendored
/// third-party) and `crates/audit` (this crate's own pattern literals)
/// are deliberately absent.
const FIRST_PARTY_DIRS: &[&str] = &[
    "crates/bench/src",
    "crates/coherence/src",
    "crates/core/src",
    "crates/net/src",
    "crates/phys/src",
    "crates/report/src",
    "crates/sim/src",
    "crates/trace/src",
    "crates/workloads/src",
];

/// Keywords marking a function (or parameter) as an energy/power/time
/// API for rule 1.
const UNIT_KEYWORDS: &[&str] = &[
    "energy", "power", "edp", "runtime", "latency", "delay", "time", "watts", "joule",
];

/// Lex every first-party source file once; all rules share the models.
fn first_party_models(root: &Path) -> Vec<(String, FileModel)> {
    let mut models = Vec::new();
    for dir in FIRST_PARTY_DIRS {
        for file in rust_files(&root.join(dir)) {
            let rel = rel_path(root, &file);
            models.push((rel, FileModel::parse(&read(&file))));
        }
    }
    models
}

/// Run every rule against the workspace rooted at `root`.
///
/// # Panics
/// Panics if a source file listed by the rules cannot be read — the
/// audit is meaningless against a partial tree.
pub fn audit_workspace(root: &Path) -> AuditReport {
    let mut v = Vec::new();
    let mut census = Vec::new();

    let models = first_party_models(root);
    let model_of = |rel: &str| -> &FileModel {
        models
            .iter()
            .find(|(r, _)| r == rel)
            .map(|(_, m)| m)
            .unwrap_or_else(|| panic!("audit: no model for {rel}"))
    };

    // Rule 1 over every source file of the unit-bearing crates.
    for (rel, model) in &models {
        if ["crates/phys/", "crates/sim/", "crates/trace/"]
            .iter()
            .any(|p| rel.starts_with(p))
        {
            check_raw_f64(rel, model, &mut v);
        }
    }

    // Rule 2 over the hot-path files.
    for rel in HOT_PATH_FILES {
        hotalloc::check_hot_alloc(rel, model_of(rel), &mut census, &mut v);
    }

    // Rule 3 over the sweep-reachable reduction files.
    for rel in floatsum::REDUCTION_FILES {
        floatsum::check_float_accum(rel, model_of(rel), &mut v);
    }

    // Rule 4: emitter vocabularies vs validators and the history file.
    schema::check_schema_drift(root, &model_of, &mut v);

    v.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    census.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    AuditReport {
        violations: v,
        census,
    }
}

/// The workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

// ----------------------------------------------------------------------
// Shared machinery
// ----------------------------------------------------------------------

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("audit: cannot read {}: {e}", path.display()))
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d)
            .unwrap_or_else(|e| panic!("audit: cannot list {}: {e}", d.display()));
        for entry in entries {
            let p = entry.expect("readable dir entry").path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Build a [`Violation`], capturing the line's trimmed raw text as the
/// fingerprint snippet. `idx` is 0-based.
pub(crate) fn violation(
    rel: &str,
    model: &FileModel,
    idx: usize,
    rule: &'static str,
    message: String,
) -> Violation {
    let snippet = model
        .lines
        .get(idx)
        .map(|l| {
            let t = l.raw.trim();
            let mut s: String = t.chars().take(160).collect();
            if s.len() < t.len() {
                s.push('…');
            }
            s
        })
        .unwrap_or_default();
    Violation {
        file: rel.to_string(),
        line: idx + 1,
        rule,
        message,
        snippet,
    }
}

/// Does line `idx` (or the line above it) carry an
/// `audit: allow(<kind>)` waiver in its comment?
pub(crate) fn has_waiver(model: &FileModel, idx: usize, kind: &str) -> bool {
    let marker = format!("audit: allow({kind})");
    if model.lines[idx].comment.contains(&marker) {
        return true;
    }
    idx > 0 && model.lines[idx - 1].comment.contains(&marker)
}

/// The contiguous run of pure-comment lines immediately above `idx`,
/// as raw text.
pub(crate) fn comment_block_above(model: &FileModel, idx: usize) -> Vec<&str> {
    let mut block = Vec::new();
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &model.lines[i];
        if !l.comment.is_empty() && l.code.trim().is_empty() {
            block.push(l.raw.as_str());
        } else {
            break;
        }
    }
    block
}

fn name_has_unit_keyword(name: &str) -> bool {
    UNIT_KEYWORDS.iter().any(|k| name.contains(k))
}

// ----------------------------------------------------------------------
// Rule 1: no bare f64 in public unit-bearing signatures
// ----------------------------------------------------------------------

pub fn check_raw_f64(rel: &str, model: &FileModel, out: &mut Vec<Violation>) {
    let n = model.lines.len();
    let mut i = 0;
    while i < n {
        let line = &model.lines[i];
        let t = line.code.trim_start();
        if line.in_test || !(t.starts_with("pub fn ") || t.starts_with("pub const fn ")) {
            i += 1;
            continue;
        }
        // Join the signature until its body/terminator appears.
        let first = i;
        let mut sig = String::new();
        while i < n {
            let code = &model.lines[i].code;
            sig.push_str(code);
            sig.push(' ');
            i += 1;
            if code.contains('{') || code.contains(';') {
                break;
            }
        }
        if has_waiver(model, first, "raw-f64") {
            continue;
        }
        check_signature(rel, model, first, &sig, out);
    }
}

fn check_signature(
    rel: &str,
    model: &FileModel,
    first: usize,
    sig: &str,
    out: &mut Vec<Violation>,
) {
    let Some(name) = fn_name(sig) else { return };
    let params = param_list(sig);

    // Return type: `-> f64` on a unit-keyword function.
    if name_has_unit_keyword(name) {
        if let Some(ret) = sig.split("->").nth(1) {
            let ret = ret
                .trim()
                .trim_end_matches('{')
                .trim_end_matches(';')
                .trim();
            if ret == "f64" {
                let name = name.to_string();
                out.push(violation(
                    rel,
                    model,
                    first,
                    "raw-f64",
                    format!(
                        "pub fn `{name}` returns bare f64; return a unit newtype from \
                         atac_phys::units (or waive with `// audit: allow(raw-f64)`)"
                    ),
                ));
            }
        }
    }

    // Parameters: `energyish_name: f64`.
    for (pname, ptype) in params {
        if ptype == "f64" && name_has_unit_keyword(&pname) {
            out.push(violation(
                rel,
                model,
                first,
                "raw-f64",
                format!(
                    "pub fn `{name}` takes `{pname}: f64`; use a unit newtype from \
                     atac_phys::units (or waive with `// audit: allow(raw-f64)`)"
                ),
            ));
        }
    }
}

fn fn_name(sig: &str) -> Option<&str> {
    let after = sig.split("fn ").nth(1)?;
    let end = after.find(|c: char| c == '(' || c == '<' || c.is_whitespace())?;
    Some(&after[..end])
}

/// `(param_name, flattened_type)` pairs from the top-level parameter
/// list. Nested commas (generics, tuples) are handled by depth tracking.
fn param_list(sig: &str) -> Vec<(String, String)> {
    let open = match sig.find('(') {
        Some(p) => p + 1,
        None => return Vec::new(),
    };
    let mut depth = 1usize;
    let mut params = Vec::new();
    let mut cur = String::new();
    for c in sig[open..].chars() {
        match c {
            '(' | '<' | '[' => depth += 1,
            ')' | '>' | ']' => {
                // `->` arrows never appear inside the param list; `>`
                // here only closes generics.
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            ',' if depth == 1 => {
                params.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        params.push(cur);
    }
    params
        .iter()
        .filter_map(|p| {
            let (name, ty) = p.split_once(':')?;
            Some((
                name.trim().trim_start_matches("mut ").trim().to_string(),
                ty.split_whitespace().collect::<String>(),
            ))
        })
        .collect()
}

// ----------------------------------------------------------------------
// Tests: each rule must fire on a seeded violation and stay quiet on
// clean input; the shipped tree must audit clean.
// ----------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::parse(src)
    }

    #[test]
    fn shipped_tree_is_clean() {
        let rep = audit_workspace(&workspace_root());
        assert!(
            rep.violations.is_empty(),
            "audit violations:\n{}",
            rep.violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            !rep.census.is_empty(),
            "hot-path census found no allocation sites at all — scanner drift?"
        );
    }

    #[test]
    fn rule_registry_matches_doc_count() {
        assert_eq!(RULES.len(), 4);
        let mut ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len(), "duplicate rule ids");
    }

    // ---- the rules handed to rustc, clippy and privacy ----
    //
    // Clippy enforces them only while their configuration holds: the
    // per-file `#![warn(..)]` headers, the `clippy.toml` lists, and
    // waivers that stay narrow `#[expect]`s with a reason. The tests
    // below keep that configuration and the shipped tree in step.

    /// The hot-path panic lints: each `.expect()` needs an `#[expect]`
    /// naming the invariant that makes it safe.
    const PANIC_LINTS: &[&str] = &["clippy::expect_used", "clippy::unwrap_used"];

    /// The hot-path lossy-cast lints.
    const CAST_LINTS: &[&str] = &[
        "clippy::cast_possible_truncation",
        "clippy::cast_possible_wrap",
        "clippy::cast_sign_loss",
    ];

    /// The lints the file's `#![warn(..)]` attributes name (comments and
    /// strings blanked).
    fn warned_lints(m: &FileModel) -> Vec<String> {
        let code: Vec<&str> = m.lines.iter().map(|l| l.code.as_str()).collect();
        code.join(" ")
            .split("#![warn(")
            .skip(1)
            .flat_map(|attr| attr.split(")]").next().unwrap_or_default().split(','))
            .map(|lint| lint.trim().to_string())
            .collect()
    }

    /// Do the file's `#![warn(..)]` attributes name every hot-path lint
    /// between them?
    fn has_hot_path_header(m: &FileModel) -> bool {
        let warned = warned_lints(m);
        PANIC_LINTS
            .iter()
            .chain(CAST_LINTS)
            .all(|lint| warned.iter().any(|w| w == lint))
    }

    /// Every attribute line that allows or expects `lint`, with its file.
    pub(crate) fn waivers<'a>(
        models: &'a [(String, FileModel)],
        lint: &str,
    ) -> Vec<(&'a str, &'a lex::Line)> {
        let mut out = Vec::new();
        for (rel, m) in models {
            for l in &m.lines {
                let waives = l.code.contains("allow(") || l.code.contains("expect(");
                if waives && l.code.contains(lint) {
                    out.push((rel.as_str(), l));
                }
            }
        }
        out
    }

    /// Does the attribute on `l` give a non-empty `reason`?
    pub(crate) fn has_reason(l: &lex::Line) -> bool {
        l.code.contains("reason =") && l.strings.iter().any(|s| !s.trim().is_empty())
    }

    /// Is `l` an inner (`#![..]`) attribute, covering a whole module?
    pub(crate) fn is_inner(l: &lex::Line) -> bool {
        l.code.trim_start().starts_with("#![")
    }

    /// The workspace's `clippy.toml`.
    pub(crate) fn clippy_toml() -> String {
        read(&workspace_root().join("clippy.toml"))
    }

    /// The `path`s listed under `key` (`disallowed-types` or
    /// `disallowed-methods`) in a `clippy.toml`, `#` comments skipped.
    pub(crate) fn disallowed_paths(config: &str, key: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut inside = false;
        for line in config.lines() {
            let line = line.split('#').next().unwrap_or_default().trim();
            if let Some(rest) = line.strip_prefix(key) {
                inside = rest.trim_start().starts_with('=');
            } else if line.starts_with(']') {
                inside = false;
            } else if inside {
                if let Some(path) = line.split("path = \"").nth(1) {
                    out.push(path.split('"').next().unwrap_or_default().to_string());
                }
            }
        }
        out
    }

    /// The named workspace files, lexed.
    pub(crate) fn lexed(files: &[&str]) -> Vec<(String, FileModel)> {
        let root = workspace_root();
        files
            .iter()
            .map(|rel| (rel.to_string(), model(&read(&root.join(rel)))))
            .collect()
    }

    /// Every hot-path file warns on each of `lints`, and every waiver of
    /// one sits on an item (never a `#![..]` over the module) with a reason.
    fn assert_hot_path_lints(lints: &[&str]) {
        let models = lexed(HOT_PATH_FILES);
        for (rel, m) in &models {
            let warned = warned_lints(m);
            for lint in lints {
                assert!(
                    warned.iter().any(|w| w == lint),
                    "{rel} does not warn on {lint}"
                );
            }
        }
        let waived: Vec<_> = lints
            .iter()
            .flat_map(|lint| waivers(&models, lint))
            .collect();
        assert!(
            !waived.is_empty(),
            "no hot-path waivers — did the attribute syntax change?"
        );
        for (rel, l) in waived {
            assert!(
                !is_inner(l) && has_reason(l),
                "{rel}: waive on the item, with a reason: {}",
                l.raw.trim()
            );
        }
    }

    #[test]
    fn hot_path_lint_header_marks_exactly_the_hot_path_files() {
        let models = first_party_models(&workspace_root());
        let mut marked: Vec<&str> = models
            .iter()
            .filter(|(_, m)| has_hot_path_header(m))
            .map(|(rel, _)| rel.as_str())
            .collect();
        let mut expected = HOT_PATH_FILES.to_vec();
        marked.sort_unstable();
        expected.sort_unstable();
        assert_eq!(
            marked, expected,
            "files with the hot-path `#![warn(..)]` header must be exactly HOT_PATH_FILES"
        );
    }

    #[test]
    fn hot_path_unwrap_fires_and_waives() {
        assert_hot_path_lints(PANIC_LINTS);
    }

    #[test]
    fn hot_path_ignores_unwrap_in_string_literal() {
        assert!(has_hot_path_header(&model(
            "//! doc\n#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss)]\n\
             #![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]\n"
        )));
        let all = "#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss, \
                   clippy::cast_possible_truncation, clippy::cast_possible_wrap)]";
        assert!(!has_hot_path_header(&model(&format!("// {all}\n"))));
        assert!(!has_hot_path_header(&model(&format!(
            "const H: &str = {all:?};\n"
        ))));
        let decoy = vec![(
            "h.rs".to_string(),
            model("let s = \"#[expect(clippy::unwrap_used)]\"; // #[allow(clippy::unwrap_used)]\n"),
        )];
        assert!(waivers(&decoy, "clippy::unwrap_used").is_empty());
    }

    #[test]
    fn lossy_cast_detection() {
        assert_hot_path_lints(CAST_LINTS);
    }

    #[test]
    fn hot_path_skips_test_module() {
        let config = clippy_toml();
        for setting in [
            "allow-expect-in-tests = true",
            "allow-unwrap-in-tests = true",
        ] {
            assert!(
                config.lines().any(|l| l.trim() == setting),
                "clippy.toml lost `{setting}`"
            );
        }
    }

    // ---- probe API: the handles keep their collectors private ----

    /// The instrumentation handles, each a tuple struct around the shared
    /// collector.
    const PROBE_HANDLES: &[(&str, &str)] = &[
        ("crates/trace/src/probe.rs", "ProbeHandle"),
        ("crates/trace/src/netobs.rs", "NetObsHandle"),
    ];

    /// Files whose live code must reach the probes only through the
    /// handle forwarders.
    fn instrumented_models() -> Vec<(String, FileModel)> {
        lexed(&[HOT_PATH_FILES, &["crates/net/src/harness.rs"]].concat())
    }

    #[test]
    fn probe_api_borrow_mut_fires_and_waives() {
        for (rel, handle) in PROBE_HANDLES {
            let (_, m) = &lexed(&[rel])[0];
            let decl = format!("pub struct {handle}(");
            let line = m
                .lines
                .iter()
                .find(|l| l.code.contains(&decl))
                .unwrap_or_else(|| panic!("{rel} no longer declares `{decl}..)`"));
            let field = line.code.split(&decl).nth(1).unwrap_or_default();
            assert!(
                !field.trim_start().starts_with("pub"),
                "{handle}'s collector field must stay private, so only its \
                 forwarders can borrow it"
            );
        }
    }

    #[test]
    fn probe_api_sample_vec_fires() {
        for (rel, m) in &instrumented_models() {
            for l in m.lines.iter().filter(|l| !l.in_test) {
                let sample_vec = lex::tokens(&l.code).any(|t| t.ends_with("_samples"));
                assert!(
                    !(sample_vec && l.code.contains(".push(")),
                    "{rel}: record samples into an atac_trace::Histogram: {}",
                    l.raw.trim()
                );
            }
        }
        let (_, harness) = &lexed(&["crates/net/src/harness.rs"])[0];
        assert!(
            harness
                .lines
                .iter()
                .any(|l| l.code.contains("pub latency: Histogram,")),
            "the synthetic harness records latency into a Histogram"
        );
    }

    #[test]
    fn probe_api_skips_test_module() {
        let borrows = |m: &FileModel| {
            m.lines
                .iter()
                .filter(|l| !l.in_test && l.code.contains(".borrow_mut("))
                .count()
        };
        for (rel, m) in &instrumented_models() {
            assert_eq!(
                borrows(m),
                0,
                "{rel} borrows a collector outside its handle"
            );
        }
        let test_only =
            model("#[cfg(test)]\nmod tests {\n    fn f() { probe.borrow_mut().tick(); }\n}\n");
        assert_eq!(borrows(&test_only), 0);
        assert_eq!(
            borrows(&model("fn f() { probe.borrow_mut().tick(); }\n")),
            1
        );
    }

    // ---- sweep and report writers: `clippy.toml` disallowed-methods ----

    /// Calls that open a file for writing.
    const WRITE_CALLS: &[&str] = &["fs::write(", "File::create(", "OpenOptions"];

    /// Every live function under `prefix` that opens a file for writing,
    /// as `(file, model, fn index)`.
    fn writers<'a>(
        models: &'a [(String, FileModel)],
        prefix: &str,
    ) -> Vec<(&'a str, &'a FileModel, usize)> {
        let mut out = Vec::new();
        for (rel, m) in models.iter().filter(|(rel, _)| rel.starts_with(prefix)) {
            for (i, l) in m.lines.iter().enumerate() {
                if l.in_test || !WRITE_CALLS.iter().any(|c| l.code.contains(c)) {
                    continue;
                }
                // A one-line fn opens and closes on its line, so the lexer
                // leaves that line unattributed; fall back to the spans.
                let f = l.fn_idx.or_else(|| {
                    m.fns
                        .iter()
                        .rposition(|f| (f.sig_line..=f.body_end).contains(&i))
                });
                let f = f.unwrap_or_else(|| panic!("{rel}:{}: write outside a fn", i + 1));
                out.push((rel.as_str(), m, f));
            }
        }
        out.dedup_by_key(|(rel, _, f)| (*rel, *f));
        out
    }

    /// [`writers`] as `(file, fn name)`.
    fn writer_names<'a>(
        models: &'a [(String, FileModel)],
        prefix: &str,
    ) -> Vec<(&'a str, &'a str)> {
        writers(models, prefix)
            .into_iter()
            .map(|(rel, m, f)| (rel, m.fns[f].name.as_str()))
            .collect()
    }

    /// Does `clippy.toml` list each of `paths` under `disallowed-methods`?
    pub(crate) fn assert_disallowed_methods(paths: &[&str]) {
        let methods = disallowed_paths(&clippy_toml(), "disallowed-methods");
        for path in paths {
            assert!(
                methods.iter().any(|p| p == path),
                "clippy.toml no longer disallows {path}"
            );
        }
    }

    #[test]
    fn sweep_api_spawn_fires_and_waives() {
        assert_disallowed_methods(&["std::thread::spawn"]);
        for (rel, m) in &first_party_models(&workspace_root()) {
            for l in m.lines.iter().filter(|l| !l.in_test) {
                assert!(
                    !l.code.contains("thread::spawn"),
                    "{rel}: sweep work goes through the atac-bench executor pool: {}",
                    l.raw.trim()
                );
            }
        }
    }

    #[test]
    fn sweep_api_file_writes_fire_in_bench_only() {
        assert_disallowed_methods(&[
            "std::fs::write",
            "std::fs::File::create",
            "std::fs::OpenOptions::open",
        ]);
        let models = first_party_models(&workspace_root());
        assert_eq!(
            writer_names(&models, "crates/bench/"),
            [
                ("crates/bench/src/cache.rs", "publish_atomic"),
                ("crates/bench/src/executor.rs", "write"),
            ],
            "atac-bench writes artifacts only through its sanctioned writers"
        );
    }

    #[test]
    fn sweep_api_skips_tests_and_comments() {
        let decoy = vec![(
            "crates/bench/src/lib.rs".to_string(),
            model(
                "// never call fs::write( here\n\
                 fn f() { let s = \"File::create(p)\"; }\n\
                 #[cfg(test)]\n\
                 mod tests {\n\
                     fn g() { std::fs::write(a, b); }\n\
                 }\n",
            ),
        )];
        assert!(writer_names(&decoy, "crates/bench/").is_empty());
        let live = vec![(
            "crates/bench/src/lib.rs".to_string(),
            model(
                "fn dump(p: &Path) {\n    let f = File::create(p);\n    std::fs::write(p, b);\n}\n",
            ),
        )];
        assert_eq!(
            writer_names(&live, "crates/bench/"),
            [("crates/bench/src/lib.rs", "dump")]
        );
    }

    #[test]
    fn report_api_writes_fire_outside_history() {
        let models = first_party_models(&workspace_root());
        assert_eq!(
            writer_names(&models, "crates/report/"),
            [
                ("crates/report/src/history.rs", "append_lines"),
                ("crates/report/src/history.rs", "write_text"),
            ],
            "the report crate writes only through the history writers"
        );
    }

    #[test]
    fn report_api_waiver_and_test_module_are_honored() {
        let models = first_party_models(&workspace_root());
        let all = writers(&models, "crates/");
        assert!(!all.is_empty());
        for (rel, m, f) in all {
            let span = &m.fns[f];
            let header = &m.lines[span.sig_line..=span.body_start];
            assert!(
                header.iter().any(|l| {
                    l.code.contains("#[expect(clippy::disallowed_methods") && has_reason(l)
                }),
                "{rel}: writer `{}` needs its own #[expect(clippy::disallowed_methods, \
                 reason = ..)]",
                span.name
            );
        }
        let test_only = vec![(
            "crates/report/src/gate.rs".to_string(),
            model("#[cfg(test)]\nmod tests {\n    fn f() { fs::write(a, b); }\n}\n"),
        )];
        assert!(writers(&test_only, "crates/report/").is_empty());
    }

    // ---- wildcard arms: clippy::wildcard_enum_match_arm ----

    /// Files whose `match`es must name every variant; each carries
    /// `#![warn(clippy::wildcard_enum_match_arm)]`.
    const STATE_MACHINE_FILES: &[&str] = &[
        "crates/coherence/src/protocol.rs",
        "crates/coherence/src/directory.rs",
        "crates/coherence/src/system.rs",
        "crates/net/src/mesh.rs",
        "crates/net/src/onet.rs",
        "crates/net/src/atac.rs",
    ];

    const WILDCARD_LINT: &str = "clippy::wildcard_enum_match_arm";

    #[test]
    fn wildcard_arm_detection() {
        for (rel, m) in &lexed(STATE_MACHINE_FILES) {
            assert!(
                warned_lints(m).iter().any(|w| w == WILDCARD_LINT),
                "{rel} lost its `#![warn({WILDCARD_LINT})]` header"
            );
        }
    }

    #[test]
    fn wildcard_in_comment_or_string_does_not_fire() {
        let header = format!("#![warn({WILDCARD_LINT})]");
        assert!(warned_lints(&model(&format!("// {header}\n"))).is_empty());
        assert!(warned_lints(&model(&format!("const H: &str = {header:?};\n"))).is_empty());
        let models = lexed(STATE_MACHINE_FILES);
        let waived = waivers(&models, WILDCARD_LINT);
        assert!(
            waived.is_empty(),
            "state-machine matches list their variants instead of waiving: {:?}",
            waived
                .iter()
                .map(|(rel, l)| (rel, l.raw.trim()))
                .collect::<Vec<_>>()
        );
    }

    // ---- rule 1 ----

    #[test]
    fn raw_f64_return_fires() {
        let m = model("pub fn laser_energy(&self) -> f64 {\n");
        let mut v = Vec::new();
        check_raw_f64("x.rs", &m, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "raw-f64");
        assert_eq!(v[0].line, 1);
        assert!(v[0].snippet.contains("laser_energy"));
    }

    #[test]
    fn raw_f64_param_fires_across_lines() {
        let m = model("pub fn charge(\n    &mut self,\n    idle_power: f64,\n) -> Joules {\n");
        let mut v = Vec::new();
        check_raw_f64("x.rs", &m, &mut v);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("idle_power"));
    }

    #[test]
    fn raw_f64_respects_waiver_and_units() {
        let m = model(
            "// audit: allow(raw-f64) plotting helper, dimensionless by design\n\
             pub fn energy_ratio(&self) -> f64 { 0.0 }\n\
             pub fn laser_energy(&self) -> Joules { Joules(0.0) }\n\
             pub fn value(self) -> f64 { self.0 }\n\
             pub fn scale(&self, ipc: f64) -> Joules { Joules(ipc) }\n",
        );
        let mut v = Vec::new();
        check_raw_f64("x.rs", &m, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn raw_f64_skips_test_module() {
        let m = model("#[cfg(test)]\nmod tests {\n    pub fn fake_energy() -> f64 { 0.0 }\n}\n");
        let mut v = Vec::new();
        check_raw_f64("x.rs", &m, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn raw_f64_ignores_commented_out_signatures() {
        let m = model("// pub fn laser_energy(&self) -> f64 {\n/* pub fn idle_power() -> f64 */\n");
        let mut v = Vec::new();
        check_raw_f64("x.rs", &m, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- shared machinery ----

    #[test]
    fn param_parser_handles_nesting() {
        let p = param_list("pub fn f(a: Vec<(u32, f64)>, tuning_power: f64) -> X {");
        assert_eq!(p.len(), 2);
        assert_eq!(p[1], ("tuning_power".to_string(), "f64".to_string()));
    }

    #[test]
    fn waiver_lookup_reads_comments_only() {
        let m = model("let s = \"audit: allow(alloc) decoy\"; q.push(1);\n");
        assert!(!has_waiver(&m, 0, "alloc"), "string decoy must not waive");
        let m = model("q.push(1); // audit: allow(alloc) pre-sized buffer\n");
        assert!(has_waiver(&m, 0, "alloc"));
    }
}

/// Bit-identical results: `clippy.toml` disallows hash-order containers,
/// host clocks and environment reads, and only the host crates opt out
/// of the types, at their crate root. These tests keep that
/// configuration, its scope, and the result-bearing sources in step.
#[cfg(test)]
mod determinism {
    mod tests {
        use crate::lex::{has_token, FileModel};
        use crate::tests::{
            assert_disallowed_methods, clippy_toml, disallowed_paths, has_reason, is_inner, lexed,
            waivers,
        };
        use crate::{first_party_models, workspace_root};

        /// Source prefixes of the result-bearing crates: everything whose
        /// output feeds figures, sweep artifacts, or the history registry.
        const RESULT_BEARING: &[&str] = &[
            "crates/net/src/",
            "crates/coherence/src/",
            "crates/sim/src/",
            "crates/phys/src/",
            "crates/workloads/src/",
        ];

        /// Host crates: clocks and hash maps are their job, and none of
        /// their output feeds a `run_key`-compared metric.
        const HOST_CRATES: &[&str] = &[
            "crates/trace/src/",
            "crates/bench/src/",
            "crates/report/src/",
            "crates/core/src/",
            "crates/audit/src/",
        ];

        /// Host-side observability surfaces (wall-clock phase laps),
        /// deliberately in a host crate.
        const HOST_OBSERVABILITY: &[&str] = &["crates/trace/src/profile.rs"];

        /// The type names `clippy.toml`'s `disallowed-types` lists.
        const AMBIENT_TYPES: &[&str] =
            &["HashMap", "HashSet", "RandomState", "Instant", "SystemTime"];

        /// Lines of `m` whose code (comments and strings blanked) names a
        /// disallowed type or reads the environment. Test code counts:
        /// clippy checks every target.
        fn ambient_uses(m: &FileModel) -> usize {
            m.lines
                .iter()
                .filter(|l| {
                    AMBIENT_TYPES.iter().any(|t| has_token(&l.code, t))
                        || l.code.contains("env::var")
                })
                .count()
        }

        fn parse(src: &str) -> FileModel {
            FileModel::parse(src)
        }

        /// Is `rel` a crate root: `lib.rs`, `main.rs` or a `bin/` target?
        fn is_crate_root(rel: &str) -> bool {
            rel.ends_with("/lib.rs") || rel.ends_with("/main.rs") || rel.contains("/bin/")
        }

        #[test]
        fn fixture_fires_on_live_code_only() {
            let fixture = parse(
                "struct Index { by_line: HashMap<u64, u32> }\n\
                 fn f() { let seen: HashSet<u32> = HashSet::new(); }\n\
                 fn g() -> u64 { std::time::Instant::now().elapsed().as_secs() }\n\
                 fn h() { let v = std::env::var(\"ATAC_X\"); }\n\
                 const S: &str = \"HashMap in a string\";\n\
                 /// Doc prose naming SystemTime.\n\
                 // let m = HashMap::new();\n\
                 /* let t = Instant::now(); */\n",
            );
            assert_eq!(ambient_uses(&fixture), 4);

            let root = workspace_root();
            let hits: Vec<String> = first_party_models(&root)
                .iter()
                .filter(|(rel, _)| RESULT_BEARING.iter().any(|p| rel.starts_with(p)))
                .filter(|(_, m)| ambient_uses(m) > 0)
                .map(|(rel, _)| rel.clone())
                .collect();
            assert!(
                hits.is_empty(),
                "result-bearing files read the host: {hits:?}"
            );
        }

        #[test]
        fn out_of_scope_crates_are_ignored() {
            let models = first_party_models(&workspace_root());
            let opt_outs = waivers(&models, "clippy::disallowed_types");
            assert!(
                !opt_outs.is_empty(),
                "host crates opt out at their crate root"
            );
            for (rel, l) in opt_outs {
                assert!(
                    HOST_CRATES.iter().any(|p| rel.starts_with(p))
                        && is_crate_root(rel)
                        && is_inner(l),
                    "{rel}: only a host crate root may allow disallowed_types: {}",
                    l.raw.trim()
                );
            }
            for (rel, l) in waivers(&models, "clippy::disallowed_methods") {
                assert!(
                    HOST_CRATES.iter().any(|p| rel.starts_with(p)),
                    "{rel}: result-bearing crates take configuration through SimConfig: {}",
                    l.raw.trim()
                );
            }
        }

        #[test]
        fn waivers_are_honored() {
            assert_disallowed_methods(&["std::env::var", "std::env::var_os"]);
            let models = first_party_models(&workspace_root());
            for (rel, l) in waivers(&models, "clippy::disallowed_types") {
                assert!(
                    has_reason(l),
                    "{rel}: an opt-out states its reason: {}",
                    l.raw.trim()
                );
            }
            for (rel, l) in waivers(&models, "clippy::disallowed_methods") {
                assert!(
                    l.code.contains("#[expect(") && has_reason(l),
                    "{rel}: environment reads and writers are waived one item at a time, \
                     with a reason: {}",
                    l.raw.trim()
                );
            }
        }

        #[test]
        fn instantiate_prose_is_not_instant() {
            let prose = parse("/// Instantiate the configured network.\nfn build() { net(); }\n");
            assert_eq!(ambient_uses(&prose), 0);
            assert_eq!(
                ambient_uses(&parse("fn instantiate(instants: u32) {}\n")),
                0
            );
            assert_eq!(
                disallowed_paths(&clippy_toml(), "disallowed-types"),
                [
                    "std::collections::HashMap",
                    "std::collections::HashSet",
                    "std::hash::RandomState",
                    "std::time::Instant",
                    "std::time::SystemTime",
                ]
            );
            let decoy = "disallowed-types = [\n\
                         # { path = \"std::time::Instant\" },\n\
                         { path = \"std::time::Instantiate\", reason = \"names Instant\" },\n\
                         ]\n";
            assert_eq!(
                disallowed_paths(decoy, "disallowed-types"),
                ["std::time::Instantiate"]
            );
        }

        #[test]
        fn host_observability_stays_outside_the_scanned_prefixes() {
            let root = workspace_root();
            for file in HOST_OBSERVABILITY {
                assert!(
                    !RESULT_BEARING.iter().any(|p| file.starts_with(p)),
                    "{file} is host-side observability; moving it into a result-bearing \
                     crate would put a wall clock into simulated results"
                );
                assert!(
                    root.join(file).is_file(),
                    "{file} no longer exists; update the list"
                );
            }
            let (_, trace_root) = &lexed(&["crates/trace/src/lib.rs"])[0];
            assert!(
                trace_root
                    .lines
                    .iter()
                    .any(|l| { is_inner(l) && l.code.contains("allow(clippy::disallowed_types") }),
                "crates/trace opts out of disallowed_types at its crate root"
            );
        }

        #[test]
        fn seeded_small_rng_is_sanctioned() {
            let seeded =
                parse("use rand::rngs::SmallRng;\nlet mut rng = SmallRng::seed_from_u64(seed);\n");
            assert_eq!(ambient_uses(&seeded), 0);
            // The vendored shim has no OS-seeded constructor, so clippy.toml
            // needs no entry for one.
            let (_, shim) = &lexed(&["crates/rand/src/lib.rs"])[0];
            let names = |tok: &str| shim.lines.iter().any(|l| has_token(&l.code, tok));
            assert!(names("seed_from_u64"));
            for entropy in ["thread_rng", "from_entropy", "OsRng", "RandomState"] {
                assert!(
                    !names(entropy),
                    "the rand shim grew {entropy}; disallow it in clippy.toml"
                );
            }
        }
    }
}
