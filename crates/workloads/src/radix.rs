//! `radix` — the SPLASH-2 parallel radix sort, reproduced as an
//! address-accurate kernel.
//!
//! Three phases per digit pass, separated by barriers, mirroring the real
//! program's memory behaviour:
//!
//! 1. **Local histogram** — each core streams its private key block and
//!    bumps a private histogram (sequential private traffic; cheap).
//! 2. **Global histogram / prefix** — each core owns a slice of the radix
//!    buckets and reads *every other core's* local histogram counts for
//!    its slice, then writes the shared global offsets. The offset lines
//!    are subsequently read by **all** cores, so the next pass's writes
//!    find widely-shared lines — the source of radix's broadcast
//!    invalidations in Fig. 5.
//! 3. **Permutation** — each core writes its keys to their destination
//!    positions scattered across the whole shared output array: bursty,
//!    long-distance unicast traffic that makes radix one of the paper's
//!    highest-load benchmarks (Fig. 6, Table V: 25 % link utilization).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{BuiltWorkload, Layout, Op, Scale, Script};

/// Radix buckets per pass (the real benchmark's default radix is 1024;
/// scaled down with problem size).
const BUCKETS: u64 = 64;

/// Shared-segment offsets for this kernel's arrays.
const GLOBAL_HIST: u64 = 0;
const OUTPUT: u64 = 0x10_0000;

/// Build the radix workload.
pub fn build(cores: usize, scale: Scale, seed: u64) -> BuiltWorkload {
    let keys_per_core = (24 * scale.factor()) as u64;
    let passes = 2u32;
    let mut rng = SmallRng::seed_from_u64(seed);

    // Pre-generate every core's keys for every pass (the permutation is
    // data-dependent in the real program; we draw destinations from the
    // same seeded distribution).
    let digits: Vec<Vec<u64>> = (0..cores)
        .map(|_| {
            (0..keys_per_core * u64::from(passes))
                .map(|_| rng.gen_range(0..BUCKETS))
                .collect()
        })
        .collect();

    // Histogram slot layout: padded (2 elements per bucket) for buckets
    // 0..56, dense for the last 8.
    let hist_slot = |d: u64| -> u64 {
        if d < 56 {
            0x1000 + d * 2
        } else {
            0x1000 + 112 + (d - 56)
        }
    };

    let mut scripts = vec![Script::default(); cores];
    let buckets_per_core = (BUCKETS as usize).div_ceil(cores).max(1);

    for pass in 0..passes {
        for (c, script) in scripts.iter_mut().enumerate() {
            let my_digits =
                &digits[c][(u64::from(pass) * keys_per_core) as usize..][..keys_per_core as usize];

            // Phase 1: local histogram over private keys. Most buckets
            // are padded to 4 per cache line (within ACKwise's k=4
            // pointers, like the real program's padded rank arrays), but
            // the final 8 buckets share one dense line — the imperfectly
            // padded tail whose cross-pass rewrites are radix's broadcast
            // invalidations (Table V: ~1 per thousand unicasts).
            for (i, &d) in my_digits.iter().enumerate() {
                script.push(Op::Load(Layout::private(c, i as u64)));
                script.push(Op::Compute(4));
                script.push(Op::Store(Layout::private(c, hist_slot(d))));
            }
            script.push(Op::Barrier);

            // Phase 2: global prefix for this core's bucket slice — read
            // every core's private count, accumulate, publish.
            let lo = c * buckets_per_core;
            let hi = ((c + 1) * buckets_per_core).min(BUCKETS as usize);
            for b in lo..hi {
                for other in 0..cores {
                    script.push(Op::Load(Layout::private(other, hist_slot(b as u64))));
                    script.push(Op::Compute(1));
                }
                script.push(Op::Store(Layout::shared(GLOBAL_HIST, b as u64)));
            }
            script.push(Op::Barrier);

            // Phase 3: permute keys to scattered shared destinations.
            for (i, &d) in my_digits.iter().enumerate() {
                script.push(Op::Load(Layout::private(c, i as u64)));
                // offset lookup in the shared table (read by everyone)
                script.push(Op::Load(Layout::shared(GLOBAL_HIST, d)));
                script.push(Op::Load(Layout::private(c, 0x2000 + d)));
                script.push(Op::Compute(2));
                // scattered destination: bucket base + per-core stripe
                let dest =
                    d * (cores as u64 * keys_per_core) + (c as u64) * keys_per_core + i as u64;
                script.push(Op::Store(Layout::shared(OUTPUT, dest)));
            }
            script.push(Op::Barrier);
        }
    }

    BuiltWorkload::new("radix", scripts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_validates() {
        let w = build(16, Scale::Test, 1);
        assert_eq!(w.scripts.len(), 16);
        assert!(w.total_mem_ops() > 1000);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build(8, Scale::Test, 7);
        let b = build(8, Scale::Test, 7);
        assert_eq!(a.scripts, b.scripts);
        let c = build(8, Scale::Test, 8);
        assert_ne!(a.scripts, c.scripts);
    }

    #[test]
    fn phase2_reads_cross_core_histograms() {
        // every core's script must load other cores' private histogram
        // region at least once (the sharing that drives invalidations).
        let w = build(4, Scale::Test, 3);
        let hist0 = Layout::private(0, 0x1000).0;
        let touched_by_others = w.scripts[1..].iter().flatten().any(|o| match o {
            Op::Load(a) => a.0 >= hist0 && a.0 < hist0 + BUCKETS * 8,
            _ => false,
        });
        assert!(touched_by_others);
    }

    #[test]
    fn permutation_scatters_widely() {
        let w = build(8, Scale::Test, 3);
        let out_base = Layout::shared(OUTPUT, 0).0;
        let mut lines = std::collections::BTreeSet::new();
        for op in w.scripts.iter().flatten() {
            if let Op::Store(a) = op {
                if a.0 >= out_base {
                    lines.insert(a.0 / 64);
                }
            }
        }
        assert!(lines.len() > 50, "scatter hit only {} lines", lines.len());
    }
}
