//! `barnes` and `fmm` — SPLASH-2 hierarchical N-body kernels, as
//! address-accurate tree/particle traffic.
//!
//! Both kernels iterate: (1) a **tree build** in which every core inserts
//! its bodies, writing the top levels of a shared octree (the root and
//! inner nodes are written by many cores in turn — after the read phase
//! their sharer sets span virtually the whole chip, so these writes are
//! the paper's canonical broadcast-invalidation generators: barnes/fmm
//! have the *highest* broadcast rates, Table V: 92 / 95 unicasts per
//! broadcast); (2) a **force computation** in which every core walks the
//! tree from the root, read-sharing the upper levels chip-wide, with
//! heavy per-node compute (low offered load: 8–9 % utilization); and
//! (3) a private **body update**.
//!
//! `fmm` (the fast multipole method) differs by doing more compute per
//! interaction and touching cell interaction-lists rather than walking to
//! leaves; here that is expressed as a higher compute weight and a
//! shallower shared traversal with wider fan-out.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{BuiltWorkload, Layout, Op, Scale, Script};

const TREE: u64 = 0x300_0000;

/// Which N-body kernel to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NBody {
    /// Barnes-Hut octree walk.
    Barnes,
    /// Fast multipole method.
    Fmm,
}

/// Build an N-body workload.
pub fn build(cores: usize, scale: Scale, kind: NBody, seed: u64) -> BuiltWorkload {
    let bodies_per_core = 3 * scale.factor();
    let iterations = 2;
    let levels = 5usize; // shared tree depth
    let (walk_nodes, compute_per_node) = match kind {
        NBody::Barnes => (10, 8),
        NBody::Fmm => (6, 24),
    };
    let mut rng = SmallRng::seed_from_u64(seed);

    // Node index of the n-th node at a level: levels are contiguous,
    // level l has 8^l nodes.
    let level_base: Vec<u64> = (0..levels)
        .scan(0u64, |acc, l| {
            let base = *acc;
            *acc += 8u64.pow(l as u32);
            Some(base)
        })
        .collect();

    let mut scripts = vec![Script::default(); cores];
    for _iter in 0..iterations {
        // Phase 1: tree build — every core inserts its bodies along a
        // root-to-leaf path. As in the real program, bodies are spatially
        // clustered: deep levels land in the inserting core's own subtree
        // (plus some spill into neighbours'), while the top levels are
        // read by everyone but *written* only on the occasional cell
        // subdivision — rare, but with chip-wide sharer sets, so each one
        // is an ACKwise broadcast invalidation.
        for (c, script) in scripts.iter_mut().enumerate() {
            for _b in 0..bodies_per_core {
                for (l, &base) in level_base.iter().enumerate() {
                    let width = 8u64.pow(l as u32);
                    // spatial subtree: scale the core id into this level.
                    let my_region = (c as u64 * width) / cores as u64;
                    let spill = rng.gen_range(0..3);
                    let node = base + (my_region + spill).min(width - 1);
                    script.push(Op::Load(Layout::shared(TREE, node * 8)));
                    script.push(Op::Compute(3));
                    if l >= 2 {
                        script.push(Op::Store(Layout::shared(TREE, node * 8)));
                    } else if rng.gen_bool(0.12) {
                        // top-level cell subdivision
                        script.push(Op::Store(Layout::shared(TREE, node * 8)));
                    }
                }
                // leaf body data is private
                script.push(Op::Store(Layout::private(c, _b as u64)));
            }
            script.push(Op::Barrier);
        }

        // Phase 2: force walk — read-only traversal from the root.
        for (c, script) in scripts.iter_mut().enumerate() {
            for _b in 0..bodies_per_core {
                // the root + upper levels: read by every core
                script.push(Op::Load(Layout::shared(TREE, 0)));
                for _n in 0..walk_nodes {
                    let l = rng.gen_range(1..levels);
                    let width = 8u64.pow(l as u32);
                    let node = level_base[l] + rng.gen_range(0..width);
                    script.push(Op::Load(Layout::shared(TREE, node * 8)));
                    script.push(Op::Compute(compute_per_node));
                }
                script.push(Op::Load(Layout::private(c, _b as u64)));
                script.push(Op::Store(Layout::private(c, 0x100 + _b as u64)));
                script.push(Op::Compute(compute_per_node * 2));
            }
            script.push(Op::Barrier);
        }

        // Phase 3: private body updates.
        for (c, script) in scripts.iter_mut().enumerate() {
            for b in 0..bodies_per_core {
                script.push(Op::Load(Layout::private(c, b as u64)));
                script.push(Op::Compute(6));
                script.push(Op::Store(Layout::private(c, b as u64)));
            }
            script.push(Op::Barrier);
        }
    }

    BuiltWorkload::new(
        match kind {
            NBody::Barnes => "barnes",
            NBody::Fmm => "fmm",
        },
        scripts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn builds_both_kernels() {
        for k in [NBody::Barnes, NBody::Fmm] {
            let w = build(16, Scale::Test, k, 5);
            assert!(w.total_mem_ops() > 100);
        }
    }

    #[test]
    fn root_is_read_by_every_core_and_written_by_many() {
        let w = build(16, Scale::Paper, NBody::Barnes, 5);
        let root = Layout::shared(TREE, 0).0 / 64;
        let mut readers = BTreeSet::new();
        let mut writers = BTreeSet::new();
        for (c, s) in w.scripts.iter().enumerate() {
            for op in s {
                match op {
                    Op::Load(a) if a.0 / 64 == root => {
                        readers.insert(c);
                    }
                    Op::Store(a) if a.0 / 64 == root => {
                        writers.insert(c);
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(readers.len(), 16, "every core reads the root line");
        assert!(writers.len() > 4, "root line written by many cores");
    }

    #[test]
    fn fmm_computes_more_per_memory_op() {
        let b = build(16, Scale::Test, NBody::Barnes, 5);
        let f = build(16, Scale::Test, NBody::Fmm, 5);
        let ratio = |w: &BuiltWorkload| w.total_instructions() as f64 / w.total_mem_ops() as f64;
        assert!(ratio(&f) > ratio(&b));
    }

    #[test]
    fn deterministic() {
        let a = build(8, Scale::Test, NBody::Fmm, 9);
        let b = build(8, Scale::Test, NBody::Fmm, 9);
        assert_eq!(a.scripts, b.scripts);
    }
}
