//! `dynamic_graph` — the DARPA-UHPC dynamic graph application the paper
//! evaluates alongside SPLASH-2: strongly-connected-component labelling
//! on a mutating graph, as address-accurate traffic.
//!
//! Per super-step, every core (1) drains vertices from a shared worklist
//! whose head indices live on a handful of *hot* lines touched by all
//! cores (these chip-wide-shared lines are written constantly —
//! dynamic_graph is the paper's most broadcast-heavy benchmark, Table V:
//! only 505 unicasts per broadcast); (2) for each vertex, walks its
//! adjacency list (pointer-chasing loads scattered over the shared edge
//! array — poor locality, frequent misses) and label-propagates: reads
//! the neighbour's component label and conditionally overwrites it
//! (scattered shared writes); and (3) occasionally *mutates* the graph,
//! writing adjacency entries. Link utilization stays low (Table V: 12 %)
//! because each hop is dependent pointer-chasing, not streaming.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{BuiltWorkload, Layout, Op, Scale, Script};

const LABELS: u64 = 0x400_0000;
const EDGES: u64 = 0x500_0000;
const WORKLIST: u64 = 0x600_0000;

/// Build the dynamic-graph workload.
pub fn build(cores: usize, scale: Scale, seed: u64) -> BuiltWorkload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let vertices = (cores * 16) as u64;
    let steps = 2;
    let verts_per_step = 4 * scale.factor();
    let degree = 4;

    let mut scripts = vec![Script::default(); cores];
    for _step in 0..steps {
        for (c, script) in scripts.iter_mut().enumerate() {
            for _ in 0..verts_per_step {
                // Worklist pop: usually the core's own queue head (its
                // private slice of the shared worklist array); a work
                // steal touches the *global* head line — which every core
                // reads, making its writes broadcast invalidations.
                if rng.gen_bool(0.15) {
                    script.push(Op::Load(Layout::shared(WORKLIST, 0)));
                    script.push(Op::Compute(2));
                    if rng.gen_bool(0.5) {
                        script.push(Op::Store(Layout::shared(WORKLIST, 0)));
                    }
                } else {
                    let own = 64 + c as u64 * 8; // own line in the array
                    script.push(Op::Load(Layout::shared(WORKLIST, own)));
                    script.push(Op::Compute(2));
                    script.push(Op::Store(Layout::shared(WORKLIST, own)));
                }

                // Vertex and its label. Graph partitioning keeps most
                // neighbours within a core's own vertex range; a small
                // hot set of high-degree vertices is read chip-wide, and
                // writes to those labels are the broadcast invalidations.
                let local_base = c as u64 * 16;
                let v = local_base + rng.gen_range(0..16u64);
                script.push(Op::Load(Layout::shared(LABELS, v)));
                script.push(Op::Compute(1));

                // Adjacency walk with label propagation.
                for _e in 0..degree {
                    let edge_slot = v * degree as u64 + rng.gen_range(0..degree as u64);
                    script.push(Op::Load(Layout::shared(EDGES, edge_slot)));
                    let hot = rng.gen_bool(0.2);
                    let u = if hot {
                        rng.gen_range(0..32u64) // high-degree hub vertices
                    } else {
                        // cut edges land in a neighbouring partition
                        (local_base + rng.gen_range(0..64u64)) % vertices
                    };
                    script.push(Op::Load(Layout::shared(LABELS, u)));
                    script.push(Op::Compute(3));
                    if rng.gen_bool(if hot { 0.02 } else { 0.35 }) {
                        // label improves: propagate
                        script.push(Op::Store(Layout::shared(LABELS, u)));
                    }
                }

                // Occasional graph mutation.
                if rng.gen_bool(0.1) {
                    let edge_slot = rng.gen_range(0..vertices * degree as u64);
                    script.push(Op::Store(Layout::shared(EDGES, edge_slot)));
                }
                // dependent pointer-chasing delay + local bookkeeping
                // (visited-stack and counters: L1-resident private data)
                script.push(Op::Load(Layout::private(c, 1)));
                script.push(Op::Store(Layout::private(c, 2)));
                script.push(Op::Compute(6));
            }
            // private bookkeeping
            script.push(Op::Store(Layout::private(c, 0)));
            script.push(Op::Barrier);
        }
    }

    BuiltWorkload::new("dynamic_graph", scripts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn builds_and_validates() {
        let w = build(16, Scale::Test, 11);
        assert!(w.total_mem_ops() > 200);
    }

    #[test]
    fn global_worklist_head_is_widely_shared() {
        let w = build(16, Scale::Paper, 11);
        let hot = Layout::shared(WORKLIST, 0).0 / 64;
        let mut readers = BTreeSet::new();
        let mut writers = BTreeSet::new();
        for (c, s) in w.scripts.iter().enumerate() {
            for op in s {
                match op {
                    Op::Load(a) if a.0 / 64 == hot => {
                        readers.insert(c);
                    }
                    Op::Store(a) if a.0 / 64 == hot => {
                        writers.insert(c);
                    }
                    _ => {}
                }
            }
        }
        assert!(readers.len() >= 12, "head read by {} cores", readers.len());
        assert!(
            writers.len() >= 4,
            "head written by {} cores",
            writers.len()
        );
    }

    #[test]
    fn own_worklist_slices_are_core_local() {
        let w = build(16, Scale::Test, 11);
        // core 3's own slot line must not be written by anyone else
        let own3 = Layout::shared(WORKLIST, 64 + 3 * 8).0 / 64;
        for (c, s) in w.scripts.iter().enumerate() {
            if c == 3 {
                continue;
            }
            let touches = s
                .iter()
                .any(|op| matches!(op, Op::Store(a) if a.0 / 64 == own3));
            assert!(!touches, "core {c} wrote core 3's worklist slice");
        }
    }

    #[test]
    fn edge_walk_scatters() {
        let w = build(16, Scale::Test, 11);
        let base = Layout::shared(EDGES, 0).0;
        let lines: BTreeSet<u64> = w
            .scripts
            .iter()
            .flatten()
            .filter_map(|op| match op {
                Op::Load(a) if a.0 >= base && a.0 < base + 0x10_0000 => Some(a.0 / 64),
                _ => None,
            })
            .collect();
        assert!(lines.len() > 30, "only {} edge lines", lines.len());
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            build(8, Scale::Test, 3).scripts,
            build(8, Scale::Test, 3).scripts
        );
    }
}
