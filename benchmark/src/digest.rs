//! Run digests and the committed goldens they are checked against.
//!
//! `golden.txt` holds one line per simulated run key: the three
//! single-run workloads at the default seed, and each of the gate sweep's
//! keys. It was generated with `--bless` on the simulator it ships with;
//! a model change that moves any simulated result must re-bless it in
//! the same change.

use atac::coherence::CoherenceStats;
use atac::net::NetStats;

/// What a run must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub cycles: u64,
    pub instructions: u64,
    /// FNV-1a of the `Debug` form of the run's `NetStats` followed by its
    /// `CoherenceStats`: every simulated event counter, in one word.
    pub stats: u64,
    /// Bits of the modelled total energy in joules.
    pub energy_bits: u64,
}

impl Digest {
    pub fn new(
        cycles: u64,
        instructions: u64,
        net: &NetStats,
        coh: &CoherenceStats,
        energy_j: f64,
    ) -> Self {
        Digest {
            cycles,
            instructions,
            stats: fnv1a(format!("{net:?}{coh:?}").as_bytes()),
            energy_bits: energy_j.to_bits(),
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One committed golden: the run key it belongs to, the digest, and the
/// run's energy-delay product.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    pub workload: String,
    pub key: String,
    pub digest: Digest,
    pub edp_js: f64,
}

impl Golden {
    /// One line of `golden.txt`. Floats print in their shortest exact
    /// form, so they parse back to the same bits.
    pub fn line(&self) -> String {
        format!(
            "{} {} {} {} {:016x} {:?} {:?}",
            self.workload,
            self.key,
            self.digest.cycles,
            self.digest.instructions,
            self.digest.stats,
            f64::from_bits(self.digest.energy_bits),
            self.edp_js
        )
    }
}

/// Parse `golden.txt`: one golden per line; `#` starts a comment line.
pub fn parse(text: &str) -> Result<Vec<Golden>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("golden line {}: bad {what}: `{line}`", i + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        let [workload, key, cycles, instructions, stats, energy, edp] = f[..] else {
            return Err(bad("field count"));
        };
        let float = |s: &str, what| s.parse::<f64>().map_err(|_| bad(what));
        out.push(Golden {
            workload: workload.to_string(),
            key: key.to_string(),
            digest: Digest {
                cycles: cycles.parse().map_err(|_| bad("cycles"))?,
                instructions: instructions.parse().map_err(|_| bad("instructions"))?,
                stats: u64::from_str_radix(stats, 16).map_err(|_| bad("stats hash"))?,
                energy_bits: float(energy, "energy")?.to_bits(),
            },
            edp_js: float(edp, "edp")?,
        });
    }
    Ok(out)
}

/// The goldens compiled into this binary.
pub fn committed() -> Vec<Golden> {
    parse(include_str!("../golden.txt")).expect("the committed golden.txt parses")
}

/// Render a golden file.
pub fn render(goldens: &[Golden]) -> String {
    let mut s = String::from(
        "# workload run-key cycles instructions stats-fnv1a energy_j edp_js\n\
         # Regenerate with `benchmark --bless` after a change that moves simulated results.\n",
    );
    for g in goldens {
        s.push_str(&g.line());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use atac::trace::json::{self, Json};

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut net = NetStats {
            flits_injected: 10,
            ..NetStats::default()
        };
        let coh = CoherenceStats::default();
        let a = Digest::new(100, 50, &net, &coh, 1.5e-3);
        assert_eq!(a, Digest::new(100, 50, &net, &coh, 1.5e-3));
        // Pinned: the digest of these counters must never drift, or every
        // committed golden silently changes meaning.
        assert_eq!(a.stats, fnv1a(format!("{net:?}{coh:?}").as_bytes()));
        net.xbar_traversals = 1;
        assert_ne!(a.stats, Digest::new(100, 50, &net, &coh, 1.5e-3).stats);
        assert_ne!(a, Digest::new(100, 50, &NetStats::default(), &coh, 1.5e-3));
        assert_ne!(
            a.energy_bits,
            Digest::new(100, 50, &net, &coh, 1.5e-3 + 1e-18).energy_bits
        );
    }

    #[test]
    fn golden_lines_round_trip() {
        let g = Golden {
            workload: "gate-sweep-64".into(),
            key: "8x8|atac[Distance-15]|flit64|buf4|ackwise4|radix".into(),
            digest: Digest {
                cycles: 204_687,
                instructions: 163_968,
                stats: 0x0123_4567_89ab_cdef,
                energy_bits: 6.684_973_547_603_607e-5_f64.to_bits(),
            },
            edp_js: 1.494_285_452_122_286_6e-8,
        };
        let parsed = parse(&render(std::slice::from_ref(&g))).expect("parses");
        assert_eq!(parsed, vec![g]);
        assert!(parse("a b 1 2 zz 1.0 2.0").is_err());
        assert!(parse("a b 1 2").is_err());
    }

    #[test]
    fn committed_goldens_cover_every_workload() {
        let goldens = committed();
        for w in crate::catalogue::WORKLOADS {
            let n = goldens.iter().filter(|g| g.workload == w.name).count();
            let want = if w.name == "gate-sweep-64" { 42 } else { 1 };
            assert_eq!(n, want, "{}", w.name);
        }
    }

    /// The gate-sweep goldens are the CI gate's committed baseline: each
    /// key's cycles and EDP equal the `summaries` of `BENCH_sweep.json`.
    #[test]
    fn sweep_goldens_match_the_committed_sweep_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_sweep.json");
        let text = std::fs::read_to_string(path).expect("BENCH_sweep.json at the repo root");
        let doc = json::parse(&text).expect("BENCH_sweep.json parses");
        let summaries = doc
            .get("summaries")
            .and_then(Json::as_arr)
            .expect("summaries");
        let sweep: Vec<Golden> = committed()
            .into_iter()
            .filter(|g| g.workload == "gate-sweep-64")
            .collect();
        assert_eq!(sweep.len(), summaries.len());
        for g in &sweep {
            let s = summaries
                .iter()
                .find(|s| s.get("key").and_then(Json::as_str) == Some(g.key.as_str()))
                .unwrap_or_else(|| panic!("{} missing from BENCH_sweep.json", g.key));
            let cycles = s.get("cycles").and_then(Json::as_u64);
            let edp = s.get("edp_js").and_then(Json::as_f64).expect("edp_js");
            assert_eq!(cycles, Some(g.digest.cycles), "{}", g.key);
            assert_eq!(edp.to_bits(), g.edp_js.to_bits(), "{}", g.key);
            let instructions = s.get("instructions").and_then(Json::as_u64);
            assert_eq!(instructions, Some(g.digest.instructions), "{}", g.key);
        }
    }
}
