//! `lu` — SPLASH-2 blocked dense LU factorization (contiguous and
//! non-contiguous block variants).
//!
//! The matrix is divided into B×B blocks assigned to cores in a 2-D
//! scatter. Iteration `k`:
//!
//! 1. the owner of diagonal block `(k,k)` factorizes it (compute-heavy,
//!    private);
//! 2. owners of perimeter blocks `(k,j)`/`(i,k)` read the diagonal block
//!    and update (the diagonal block becomes read-shared by one row/col
//!    of owners — a modest sharer set, so invalidations are almost always
//!    pointer unicasts: lu has the paper's *lowest* broadcast rate,
//!    Table V: 30 705 unicasts per broadcast);
//! 3. owners of interior blocks `(i,j)` read their row/column perimeter
//!    blocks and update their own block (long-distance unicast reads).
//!
//! High compute-to-communication ratio keeps offered load low (Table V:
//! 6 % / 19 % utilization). The non-contiguous variant lays blocks out
//! row-major across the matrix so block rows straddle cache lines shared
//! between neighbouring owners (false sharing → more traffic).

use crate::common::{BuiltWorkload, Layout, Op, Scale, Script};

const MATRIX: u64 = 0x200_0000;
/// Global pivot/iteration descriptor: written by the diagonal owner each
/// iteration and read by every core — the chip-wide-shared line whose
/// write is lu's rare broadcast invalidation (Table V: one broadcast per
/// tens of thousands of unicasts).
const PIVOT: u64 = 0x1F_0000;

/// Block layout flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuLayout {
    /// Each block stored densely (SPLASH-2 "contiguous blocks").
    Contiguous,
    /// Matrix stored row-major; a block's rows are strided.
    NonContiguous,
}

/// Build an LU workload.
pub fn build(cores: usize, scale: Scale, layout: LuLayout) -> BuiltWorkload {
    let side = (cores as f64).sqrt() as usize;
    assert_eq!(side * side, cores, "lu needs a square core count");
    // Number of blocks per matrix dimension: a few rounds per owner.
    let nb = side;
    let bel = (4 * scale.factor()) as u64; // elements touched per block op
    let n_el = nb as u64 * bel; // matrix side in elements (for striding)

    // Owner of block (i, j): 2-D scatter.
    let owner = |i: usize, j: usize| (i % side) * side + (j % side);
    // Address of element e of block (i, j).
    let at = |i: usize, j: usize, e: u64| -> u64 {
        match layout {
            LuLayout::Contiguous => ((i * nb + j) as u64) * bel + e,
            LuLayout::NonContiguous => {
                // rows of the block strided across the matrix row; the
                // odd half-line row stride (`n_el + 4`) makes block rows
                // straddle cache lines shared with the horizontally
                // adjacent owner — the variant's false sharing.
                let row = e / 4;
                let col = e % 4;
                (i as u64 * 4 + row) * (n_el + 4) + j as u64 * 4 + col
            }
        }
    };

    let mut scripts = vec![Script::default(); cores];
    for k in 0..nb {
        // 1: diagonal factorization by its owner, which then publishes
        // the pivot descriptor every core reads below.
        let dk = owner(k, k);
        for e in 0..bel {
            scripts[dk].push(Op::Load(Layout::shared(MATRIX, at(k, k, e))));
            scripts[dk].push(Op::Compute(12));
            scripts[dk].push(Op::Store(Layout::shared(MATRIX, at(k, k, e))));
        }
        // The pivot descriptor is republished only at block-panel
        // boundaries (every 4th iteration), as the real program updates
        // its global pivot structures per panel: that spacing is what
        // makes lu the paper's least-broadcast-prone benchmark.
        if k % 4 == 0 {
            scripts[dk].push(Op::Store(Layout::shared(PIVOT, 0)));
        }
        for s in &mut scripts {
            s.push(Op::Barrier);
        }

        // 2: perimeter updates read the pivot descriptor + the diagonal
        // block. The descriptor accumulates one row + one column of
        // owners as sharers (> k), so its panel-boundary republish is a
        // broadcast invalidation — lu's rare-broadcast signature.
        for j in (k + 1)..nb {
            for (bi, bj) in [(k, j), (j, k)] {
                let o = owner(bi, bj);
                if k % 4 == 0 {
                    scripts[o].push(Op::Load(Layout::shared(PIVOT, 0)));
                }
                for e in 0..bel {
                    scripts[o].push(Op::Load(Layout::shared(MATRIX, at(k, k, e))));
                    scripts[o].push(Op::Compute(8));
                    scripts[o].push(Op::Store(Layout::shared(MATRIX, at(bi, bj, e))));
                }
            }
        }
        for s in &mut scripts {
            s.push(Op::Barrier);
        }

        // 3: interior updates read row + column perimeter blocks.
        for i in (k + 1)..nb {
            for j in (k + 1)..nb {
                let o = owner(i, j);
                for e in 0..bel {
                    scripts[o].push(Op::Load(Layout::shared(MATRIX, at(i, k, e))));
                    scripts[o].push(Op::Load(Layout::shared(MATRIX, at(k, j, e))));
                    scripts[o].push(Op::Load(Layout::private(o, e % 16)));
                    scripts[o].push(Op::Compute(10));
                    scripts[o].push(Op::Store(Layout::shared(MATRIX, at(i, j, e))));
                }
            }
        }
        for s in &mut scripts {
            s.push(Op::Barrier);
        }
    }

    BuiltWorkload::new(
        match layout {
            LuLayout::Contiguous => "lu_contig",
            LuLayout::NonContiguous => "lu_non_contig",
        },
        scripts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_both_layouts() {
        for l in [LuLayout::Contiguous, LuLayout::NonContiguous] {
            let w = build(16, Scale::Test, l);
            assert!(w.total_mem_ops() > 100);
            assert!(w.total_instructions() > w.total_mem_ops(), "compute heavy");
        }
    }

    #[test]
    fn diagonal_block_read_by_perimeter_owners() {
        let w = build(16, Scale::Test, LuLayout::Contiguous);
        // the k=0 diagonal block addresses
        let d0 = Layout::shared(MATRIX, 0).0;
        let d0_end = d0 + 4 * 8; // bel(Test)=4 elements
        let readers: Vec<usize> = w
            .scripts
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.iter()
                    .any(|op| matches!(op, Op::Load(a) if a.0 >= d0 && a.0 < d0_end))
            })
            .map(|(c, _)| c)
            .collect();
        assert!(readers.len() > 2, "diag block shared by {readers:?}");
    }

    #[test]
    fn compute_dominates_lu() {
        // Fig. 6: lu has the lowest offered load of the suite; our proxy
        // is its high compute-per-memory-op ratio.
        let w = build(16, Scale::Test, LuLayout::Contiguous);
        let ratio = w.total_instructions() as f64 / w.total_mem_ops() as f64;
        assert!(ratio > 3.0, "ratio {ratio}");
    }

    #[test]
    fn layouts_produce_different_footprints() {
        let a = build(16, Scale::Test, LuLayout::Contiguous);
        let b = build(16, Scale::Test, LuLayout::NonContiguous);
        assert_ne!(a.scripts, b.scripts);
    }
}
