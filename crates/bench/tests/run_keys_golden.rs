//! Golden-file pin of the `run_key` vocabulary.
//!
//! The run-history registry (`BENCH_history.jsonl`) and the regression
//! gate key every record by `run_key` string. A silent change to the
//! key format — a renamed arch label, a reordered component, a new
//! timing-relevant field — would orphan every baseline record without
//! any test noticing: the gate would report all keys as `new`+`missing`
//! instead of comparing them. This test pins the exact key strings of
//! the full figure suite (and of the CI smoke subset the committed
//! baseline holds) against `tests/golden/run_keys.txt`.
//!
//! If the format change is *intentional*, regenerate the golden file
//! from the `actual` dump this test writes on failure, and re-seed
//! `BENCH_history.jsonl` in the same PR — stale baselines are exactly
//! what this pin exists to prevent.
//!
//! One `#[test]` on purpose: the suite depends on `ATAC_CORES` /
//! `ATAC_BENCHES`, and env vars are process-global — a second test in
//! this binary could race the mutations. Integration tests run in their
//! own process, so the mutations cannot leak into other test binaries.

use std::collections::BTreeSet;

use atac_bench::{plans, run_key};

const GOLDEN: &str = include_str!("golden/run_keys.txt");

fn suite_keys() -> BTreeSet<String> {
    plans::full_suite()
        .entries()
        .iter()
        .map(|(cfg, b)| run_key(cfg, *b))
        .collect()
}

#[test]
#[expect(clippy::disallowed_methods, reason = "dumps actual keys on mismatch")]
fn run_key_strings_match_the_golden_file() {
    // Default suite: the paper's 1024-core chip, all eight benchmarks.
    std::env::remove_var("ATAC_CORES");
    std::env::remove_var("ATAC_BENCHES");
    let mut actual: Vec<String> = suite_keys().into_iter().collect();

    // The CI smoke subset — the keys the committed baseline records.
    std::env::set_var("ATAC_CORES", "64");
    std::env::set_var("ATAC_BENCHES", "radix,barnes");
    actual.extend(suite_keys());
    std::env::remove_var("ATAC_CORES");
    std::env::remove_var("ATAC_BENCHES");

    let expected: Vec<String> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();

    if actual != expected {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("run_keys_actual.txt");
        let mut text = String::from(
            "# Golden run_key strings: full 1024-core suite, then the CI smoke subset.\n\
             # Regenerated from this dump ONLY for intentional key-format changes —\n\
             # re-seed BENCH_history.jsonl in the same PR, or the gate goes blind.\n",
        );
        for k in &actual {
            text.push_str(k);
            text.push('\n');
        }
        std::fs::write(&dump, &text).expect("write actual dump");
        let missing: Vec<&String> = expected.iter().filter(|k| !actual.contains(k)).collect();
        let added: Vec<&String> = actual.iter().filter(|k| !expected.contains(k)).collect();
        panic!(
            "run_key vocabulary drifted from tests/golden/run_keys.txt\n\
             {} key(s) no longer produced, e.g. {:?}\n\
             {} new key(s), e.g. {:?}\n\
             full actual set dumped to {}",
            missing.len(),
            missing.first(),
            added.len(),
            added.first(),
            dump.display()
        );
    }
}
