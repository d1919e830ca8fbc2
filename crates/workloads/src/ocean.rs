//! `ocean` — the SPLASH-2 ocean-current simulation (contiguous and
//! non-contiguous partition variants), as an address-accurate red/black
//! Gauss-Seidel stencil.
//!
//! Each core owns a square block of the shared grid. Per iteration it
//! sweeps its block: a 5-point stencil loads the four neighbours and
//! stores the centre. Interior lines are effectively private; block-edge
//! lines are read by the adjacent core, giving pairwise producer-consumer
//! sharing whose invalidations are overwhelmingly *unicasts* —
//! ocean's Table V signature (1 812 / 13 731 unicasts per broadcast).
//! A per-iteration convergence reduction touches one widely-shared
//! residual line, supplying the rare broadcasts.
//!
//! * **contiguous** (`ocean_contig`): the grid is laid out block-major,
//!   so a core's interior rows are dense in its own cache lines.
//! * **non-contiguous** (`ocean_non_contig`): the grid is laid out
//!   row-major across the whole problem, so adjacent blocks interleave in
//!   memory and every block row straddles lines shared with horizontal
//!   neighbours (false sharing) — more misses, higher network load
//!   (Table V: 29 % vs 20 % utilization).

use crate::common::{BuiltWorkload, Layout, Op, Scale, Script};

/// Shared-segment offsets.
const GRID: u64 = 0x100_0000;
const RESIDUAL: u64 = 0;

/// Grid layout flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OceanLayout {
    /// Block-major ("4-D array" in SPLASH-2 terms).
    Contiguous,
    /// Row-major across the full grid ("2-D array").
    NonContiguous,
}

/// Build an ocean workload.
pub fn build(cores: usize, scale: Scale, layout: OceanLayout) -> BuiltWorkload {
    // Square grid of cores; block side in grid points.
    let side = (cores as f64).sqrt() as usize;
    assert_eq!(side * side, cores, "ocean needs a square core count");
    let block = 4 * scale.factor(); // block side in points
    let n = side * block; // grid side
    let iterations = 3;

    // Element address for grid point (x, y). The non-contiguous variant
    // uses the classic `n + 2` row stride (the real program's grids carry
    // border columns), which misaligns block rows against cache lines and
    // creates the false sharing that defines this variant.
    let at = |x: usize, y: usize| -> u64 {
        match layout {
            OceanLayout::NonContiguous => (y * (n + 2) + x) as u64,
            OceanLayout::Contiguous => {
                let (bx, by) = (x / block, y / block);
                let owner = by * side + bx;
                let (lx, ly) = (x % block, y % block);
                (owner * block * block + ly * block + lx) as u64
            }
        }
    };

    let mut scripts = vec![Script::default(); cores];
    for iter in 0..iterations {
        for (c, script) in scripts.iter_mut().enumerate() {
            let (bx, by) = (c % side, c / side);
            let (x0, y0) = (bx * block, by * block);
            // Red/black: sweep alternating points per iteration.
            for ly in 0..block {
                for lx in 0..block {
                    if (lx + ly + iter) % 2 != 0 {
                        continue;
                    }
                    let (x, y) = (x0 + lx, y0 + ly);
                    // 5-point stencil; neighbours clamped at the edges.
                    let xe = (x + 1).min(n - 1);
                    let xw = x.saturating_sub(1);
                    let ys = (y + 1).min(n - 1);
                    let yn = y.saturating_sub(1);
                    script.push(Op::Load(Layout::shared(GRID, at(xe, y))));
                    script.push(Op::Load(Layout::shared(GRID, at(xw, y))));
                    script.push(Op::Load(Layout::shared(GRID, at(x, ys))));
                    script.push(Op::Load(Layout::shared(GRID, at(x, yn))));
                    script.push(Op::Compute(6));
                    script.push(Op::Store(Layout::shared(GRID, at(x, y))));
                }
            }
            // Convergence: each core publishes its partial residual,
            // then samples the whole partial array to decide convergence
            // (as the real program's reduction + global check does).
            // Every residual line ends up read by many cores, so the
            // next iteration's publishes are broadcast invalidations —
            // ocean's rare-but-present broadcast traffic (Table V).
            script.push(Op::Store(Layout::shared(RESIDUAL, c as u64)));
            script.push(Op::Barrier);
            for i in 0..16u64 {
                let slot = (c as u64 * 67 + i * 61) % cores as u64;
                script.push(Op::Load(Layout::shared(RESIDUAL, slot)));
                script.push(Op::Compute(2));
            }
            script.push(Op::Barrier);
        }
    }

    BuiltWorkload::new(
        match layout {
            OceanLayout::Contiguous => "ocean_contig",
            OceanLayout::NonContiguous => "ocean_non_contig",
        },
        scripts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn builds_both_layouts() {
        for l in [OceanLayout::Contiguous, OceanLayout::NonContiguous] {
            let w = build(16, Scale::Test, l);
            assert_eq!(w.scripts.len(), 16);
            assert!(w.total_mem_ops() > 100);
        }
    }

    /// The defining difference: non-contiguous layouts spread each core's
    /// writes across many more lines that other cores also touch.
    #[test]
    fn non_contig_has_more_cross_core_line_sharing() {
        let shared_lines = |l: OceanLayout| {
            let w = build(16, Scale::Test, l);
            // line → set of cores touching it
            let mut touch: std::collections::BTreeMap<u64, BTreeSet<usize>> = Default::default();
            for (c, s) in w.scripts.iter().enumerate() {
                for op in s {
                    if let Op::Load(a) | Op::Store(a) = op {
                        touch.entry(a.0 / 64).or_default().insert(c);
                    }
                }
            }
            touch.values().filter(|s| s.len() > 1).count()
        };
        let contig = shared_lines(OceanLayout::Contiguous);
        let noncontig = shared_lines(OceanLayout::NonContiguous);
        assert!(
            noncontig > contig,
            "non-contig {noncontig} should share more lines than contig {contig}"
        );
    }

    #[test]
    fn boundary_reads_touch_neighbour_blocks() {
        let w = build(16, Scale::Test, OceanLayout::Contiguous);
        // core 5 (middle of the 4×4 core grid) must read addresses owned
        // by other cores' blocks.
        let block_elems = (4 * 4) as u64; // block²
        let core5_foreign = w.scripts[5].iter().any(|op| {
            if let Op::Load(a) = op {
                let e = (a.0 - Layout::shared(GRID, 0).0) / 8;
                let owner = e / block_elems;
                owner != 5
            } else {
                false
            }
        });
        assert!(core5_foreign);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_non_square() {
        let _ = build(12, Scale::Test, OceanLayout::Contiguous);
    }
}
