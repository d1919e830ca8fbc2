//! Rule 2: the hot-path allocation census.
//!
//! The network hot-path work (DESIGN.md §13/§14) needs to know exactly
//! where the per-cycle wormhole/coherence paths allocate before anyone
//! can credibly remove those allocations. This rule walks the
//! hot-path files (`HOT_PATH_FILES`) and inventories every allocation-shaped call
//! site — `push`/`push_back`, `Box::new`, `clone()`, `to_string()`,
//! `format!`, `collect()`, `vec![`, `Vec::new`, `String::from`, … —
//! attributing each to its enclosing function via the scope tracker.
//!
//! The full inventory ships in the `--json` findings document (the
//! machine-readable census). Sites inside the *registered per-cycle
//! functions* ([`PER_CYCLE_FNS`]) are additionally violations, so any
//! new allocation on a per-cycle path fails CI the moment it is
//! written. A site that is genuinely fine (e.g. an amortized, pre-sized
//! buffer) can be waived with `// audit: allow(alloc) <reason>`.

use crate::lex::FileModel;
use crate::{has_waiver, violation, Violation};

/// One allocation-shaped call site in a hot-path file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Enclosing function name.
    pub func: String,
    /// Allocation kind (`push`, `box`, `clone`, `format`, `collect`, …).
    pub kind: &'static str,
    /// The enclosing function is in the per-cycle registry.
    pub per_cycle: bool,
    /// The source line, trimmed.
    pub snippet: String,
}

/// Allocation-shaped source patterns, matched against comment- and
/// string-scrubbed code. `(pattern, kind)`.
const ALLOC_PATTERNS: &[(&str, &str)] = &[
    (".push(", "push"),
    (".push_back(", "push"),
    (".push_front(", "push"),
    (".push_str(", "push"),
    ("Box::new(", "box"),
    (".clone()", "clone"),
    (".to_string()", "to_string"),
    (".to_owned()", "to_owned"),
    (".to_vec()", "to_vec"),
    ("format!(", "format"),
    (".collect()", "collect"),
    (".collect::<", "collect"),
    ("vec![", "vec"),
    ("Vec::new(", "vec"),
    ("Vec::with_capacity(", "vec"),
    ("String::new(", "string"),
    ("String::from(", "string"),
];

/// The per-cycle functions of each hot-path file: the code that runs
/// every simulated cycle (or per flit/message/access, which at 64–1024
/// cores is strictly more often). Constructors, probe wiring, config
/// getters, per-epoch reconciliation, and debug validators are
/// deliberately absent — they may allocate. The audit self-checks this
/// registry: naming a function that no longer exists is itself a
/// violation, so renames cannot silently drop coverage.
pub const PER_CYCLE_FNS: &[(&str, &[&str])] = &[
    (
        "crates/net/src/mesh.rs",
        &[
            "port",
            "has_work",
            "alloc_packet",
            "free_packet",
            "activate",
            "flits_of",
            "try_send",
            "try_send_to_hub",
            "pop_hub_out",
            "hub_out_ready",
            "hubs_ready",
            "inject_expanded_broadcast",
            "inject_tree_broadcast",
            "note_ready",
            "dest_xy",
            "xy_toward",
            "route_port",
            "is_idle",
            "next_event",
            "drain_deliveries",
            "tick",
            "buf_front",
            "buf_push",
            "buf_pop",
            "peek",
            "tick_router",
            "service",
            "try_forward_run",
            "forward_flit",
            "continues_at",
            "on_tail_arrival",
            "spawn",
            "deliver_flit",
            "eject_to_hub",
        ],
    ),
    (
        "crates/net/src/onet.rs",
        &[
            "can_accept",
            "accept",
            "is_idle",
            "drain_deliveries",
            "next_event",
            "tx_horizon",
            "rx_horizon",
            "tick",
            "tick_senders",
            "dest_range",
            "tick_receivers",
            "deliver",
        ],
    ),
    (
        "crates/net/src/hubset.rs",
        &["insert", "remove", "is_empty", "walk", "iter", "next"],
    ),
    (
        "crates/net/src/atac.rs",
        &[
            "via_onet",
            "try_send",
            "tick",
            "drain_deliveries",
            "is_idle",
            "next_event",
        ],
    ),
    (
        "crates/coherence/src/system.rs",
        &[
            "seq_newer",
            "ifetch",
            "ifetch_block",
            "access",
            "start_miss",
            "drain_completions",
            "flush_outbox",
            "outbox_pending",
            "memctrl_tick",
            "next_mem_event",
            "mem_submit",
            "handle_delivery",
            "core_msg",
            "core_fill",
            "core_inv",
            "core_bcast_inv",
            "release_held",
            "handle_victim",
            "dir_request",
            "dir_process",
            "dir_inv_ack",
            "dir_mem_data",
            "dir_check_acks_done",
            "dir_evict",
            "dir_evict_dirty",
            "dir_wb_data",
            "dir_flush_data",
            "dir_retire",
            "set_dir",
            "mem_read",
            "mem_write",
            "send_home",
            "send",
        ],
    ),
    (
        "crates/coherence/src/directory.rs",
        &[
            "one",
            "count",
            "overflowed",
            "add",
            "remove",
            "contains",
            "ptrs",
            "is_transient",
        ],
    ),
    (
        "crates/coherence/src/protocol.rs",
        &["class", "insert", "take", "peek", "live"],
    ),
    (
        "crates/coherence/src/cache.rs",
        &[
            "set_of",
            "tag_of",
            "state",
            "access",
            "set_state",
            "invalidate",
            "fill",
        ],
    ),
    (
        "crates/coherence/src/memctrl.rs",
        &["submit", "drain_completed", "next_event", "is_idle"],
    ),
    (
        "crates/sim/src/engine.rs",
        &["run_profiled", "run_observed", "ifetch"],
    ),
    // energy.rs is censused (informational sites) but its integration
    // runs per epoch, not per cycle — no per-cycle functions.
    ("crates/sim/src/energy.rs", &[]),
];

fn per_cycle_fns_of(rel: &str) -> &'static [&'static str] {
    PER_CYCLE_FNS
        .iter()
        .find(|(f, _)| *f == rel)
        .map_or(&[], |(_, fns)| fns)
}

/// Census one hot-path file: record every allocation site, and emit
/// violations for unwaived sites in the per-cycle functions.
pub fn check_hot_alloc(
    rel: &str,
    model: &FileModel,
    census: &mut Vec<AllocSite>,
    out: &mut Vec<Violation>,
) {
    check_with_registry(rel, model, per_cycle_fns_of(rel), census, out);
}

/// The census core, with an explicit per-cycle registry (tests inject
/// their own).
fn check_with_registry(
    rel: &str,
    model: &FileModel,
    registered: &[&str],
    census: &mut Vec<AllocSite>,
    out: &mut Vec<Violation>,
) {
    // Registry self-check: every registered function must still exist
    // (outside test modules), or the census is silently under-scoped.
    for name in registered {
        if !model.fns.iter().any(|f| f.name == *name && !f.in_test) {
            out.push(violation(
                rel,
                model,
                0,
                "hot-alloc",
                format!(
                    "per-cycle registry names fn `{name}` which no longer exists in this \
                     file; update PER_CYCLE_FNS in crates/audit/src/hotalloc.rs"
                ),
            ));
        }
    }

    for idx in 0..model.lines.len() {
        let line = &model.lines[idx];
        if line.in_test {
            continue;
        }
        let Some(fn_idx) = line.fn_idx else { continue };
        let func = &model.fns[fn_idx].name;
        let per_cycle = registered.contains(&func.as_str());

        for (pat, kind) in ALLOC_PATTERNS {
            if !line.code.contains(pat) {
                continue;
            }
            let snippet = line.raw.trim().to_string();
            census.push(AllocSite {
                file: rel.to_string(),
                line: idx + 1,
                func: func.clone(),
                kind,
                per_cycle,
                snippet,
            });
            if per_cycle && !has_waiver(model, idx, "alloc") {
                let msg = format!(
                    "allocation (`{kind}`) inside per-cycle fn `{func}`; hoist it out of \
                     the cycle loop, pre-size a reused buffer, or waive with \
                     `// audit: allow(alloc) <reason>`"
                );
                out.push(violation(rel, model, idx, "hot-alloc", msg));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = include_str!("../tests/fixtures/hotalloc_fixture.rs");

    fn run(src: &str) -> (Vec<AllocSite>, Vec<Violation>) {
        let m = FileModel::parse(src);
        let mut census = Vec::new();
        let mut v = Vec::new();
        check_with_registry("fx.rs", &m, &["tick", "deliver_flit"], &mut census, &mut v);
        (census, v)
    }

    #[test]
    fn fixture_census_and_violations() {
        let (census, v) = run(FIXTURE);
        // Census sees allocations in BOTH per-cycle and setup fns…
        assert!(census.iter().any(|s| s.func == "tick" && s.per_cycle));
        assert!(census.iter().any(|s| s.func == "new" && !s.per_cycle));
        // …but only per-cycle, unwaived sites violate.
        assert!(v.iter().all(|x| x.rule == "hot-alloc"));
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("`push`")));
        assert!(v.iter().any(|x| x.message.contains("`clone`")));
        assert!(v.iter().any(|x| x.message.contains("`format`")));
        // The waived vec site and the commented/string decoys are quiet.
        assert!(!v.iter().any(|x| x.message.contains("`vec`")), "{v:?}");
    }

    #[test]
    fn registry_self_check_fires_on_stale_name() {
        let (_, v) = run("fn only_this() { x.push(1); }\n");
        assert!(
            v.iter()
                .filter(|x| x.message.contains("no longer exists"))
                .count()
                == 2,
            "{v:?}"
        );
    }

    #[test]
    fn real_registry_paths_are_hot_path_files() {
        for (file, _) in PER_CYCLE_FNS {
            assert!(
                crate::HOT_PATH_FILES.contains(file),
                "{file} is registered per-cycle but not a hot-path file"
            );
        }
    }
}
