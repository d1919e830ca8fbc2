//! # atac-workloads — application workloads for the full-system evaluation
//!
//! The paper evaluates seven SPLASH-2 benchmarks plus a DARPA-UHPC
//! dynamic-graph application. The original binaries ran on the authors'
//! Graphite infrastructure; this reproduction substitutes
//! **address-accurate synthetic kernels**: per-core operation scripts
//! that issue the same *kinds* of memory-reference streams the real
//! programs issue (blocked LU traversals, ocean stencils, radix
//! histogram/permute phases, N-body tree walks over read-mostly shared
//! nodes, SCC frontier expansion over hot worklist lines), through the
//! real simulated cache hierarchy and coherence protocol, with
//! execution-driven back-pressure. See DESIGN.md §5 for the substitution
//! rationale.
//!
//! The suite (names as in the paper's figures):
//!
//! | name | character (Fig. 5/6, Table V) |
//! |---|---|
//! | `dynamic_graph` | broadcast-heavy (505 uni/bcast), low load |
//! | `radix` | high load, scattered permute writes |
//! | `barnes` | broadcast-heavy tree building, low load |
//! | `fmm` | like barnes, more compute per node |
//! | `ocean_contig` | neighbour sharing, high load |
//! | `lu_contig` | compute-bound, fewest broadcasts |
//! | `ocean_non_contig` | false sharing, highest load |
//! | `lu_non_contig` | strided blocks, moderate load |

pub mod barnes;
pub mod common;
pub mod graph;
pub mod lu;
pub mod ocean;
pub mod radix;

pub use common::{BuiltWorkload, Layout, Op, Scale, Script};

/// Identifier for one of the eight evaluated applications, in the
/// paper's figure order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// UHPC dynamic graph (strongly connected components).
    DynamicGraph,
    /// SPLASH-2 radix sort.
    Radix,
    /// SPLASH-2 Barnes-Hut.
    Barnes,
    /// SPLASH-2 fast multipole method.
    Fmm,
    /// SPLASH-2 ocean, contiguous partitions.
    OceanContig,
    /// SPLASH-2 LU, contiguous blocks.
    LuContig,
    /// SPLASH-2 ocean, non-contiguous partitions.
    OceanNonContig,
    /// SPLASH-2 LU, non-contiguous blocks.
    LuNonContig,
}

impl Benchmark {
    /// All eight applications in the paper's figure order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::DynamicGraph,
        Benchmark::Radix,
        Benchmark::Barnes,
        Benchmark::Fmm,
        Benchmark::OceanContig,
        Benchmark::LuContig,
        Benchmark::OceanNonContig,
        Benchmark::LuNonContig,
    ];

    /// Name as printed in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::DynamicGraph => "dynamic_graph",
            Benchmark::Radix => "radix",
            Benchmark::Barnes => "barnes",
            Benchmark::Fmm => "fmm",
            Benchmark::OceanContig => "ocean_contig",
            Benchmark::LuContig => "lu_contig",
            Benchmark::OceanNonContig => "ocean_non_contig",
            Benchmark::LuNonContig => "lu_non_contig",
        }
    }

    /// Generate the workload for `cores` cores at the given scale.
    /// Deterministic: the same arguments produce identical scripts.
    pub fn build(self, cores: usize, scale: Scale) -> BuiltWorkload {
        let seed = 0xA7AC_0000 | self as u64;
        match self {
            Benchmark::DynamicGraph => graph::build(cores, scale, seed),
            Benchmark::Radix => radix::build(cores, scale, seed),
            Benchmark::Barnes => barnes::build(cores, scale, barnes::NBody::Barnes, seed),
            Benchmark::Fmm => barnes::build(cores, scale, barnes::NBody::Fmm, seed),
            Benchmark::OceanContig => ocean::build(cores, scale, ocean::OceanLayout::Contiguous),
            Benchmark::LuContig => lu::build(cores, scale, lu::LuLayout::Contiguous),
            Benchmark::OceanNonContig => {
                ocean::build(cores, scale, ocean::OceanLayout::NonContiguous)
            }
            Benchmark::LuNonContig => lu::build(cores, scale, lu::LuLayout::NonContiguous),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_build_at_test_scale() {
        for b in Benchmark::ALL {
            let w = b.build(16, Scale::Test);
            assert_eq!(w.name, b.name());
            assert_eq!(w.scripts.len(), 16);
            assert!(w.total_mem_ops() > 0, "{}", b.name());
        }
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<_> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            [
                "dynamic_graph",
                "radix",
                "barnes",
                "fmm",
                "ocean_contig",
                "lu_contig",
                "ocean_non_contig",
                "lu_non_contig"
            ]
        );
    }

    #[test]
    fn builds_are_deterministic() {
        for b in Benchmark::ALL {
            let a = b.build(16, Scale::Test);
            let c = b.build(16, Scale::Test);
            assert_eq!(a.scripts, c.scripts, "{}", b.name());
        }
    }

    #[test]
    fn paper_scale_is_bigger() {
        for b in [Benchmark::Radix, Benchmark::Barnes] {
            let t = b.build(16, Scale::Test).total_mem_ops();
            let p = b.build(16, Scale::Paper).total_mem_ops();
            assert!(p > 2 * t, "{}: {t} vs {p}", b.name());
        }
    }

    /// The relative *compute density* ordering that yields the paper's
    /// Fig. 6 offered-load ordering: lu most compute-bound, ocean and
    /// radix most memory-bound.
    #[test]
    fn compute_density_ordering() {
        let density = |b: Benchmark| {
            let w = b.build(16, Scale::Test);
            w.total_instructions() as f64 / w.total_mem_ops() as f64
        };
        assert!(density(Benchmark::LuContig) > density(Benchmark::OceanContig));
        assert!(density(Benchmark::Fmm) > density(Benchmark::Radix));
    }
}
