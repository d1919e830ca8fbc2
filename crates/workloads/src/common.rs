//! Workload building blocks: the per-core operation vocabulary, the
//! built-workload container, and the shared address-space layout helpers
//! every kernel uses.

use atac_coherence::Addr;

/// One abstract operation in a core's instruction stream.
///
/// The simulator executes `Compute(n)` as `n` single-cycle instructions
/// (with L1-I fetch accounting), `Load`/`Store` through the simulated
/// cache hierarchy and coherence protocol (blocking on misses, which is
/// how network back-pressure reaches the application), and `Barrier` as
/// an all-core rendezvous — the synchronization idiom of every SPLASH-2
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` non-memory instructions.
    Compute(u32),
    /// A data load from a byte address.
    Load(Addr),
    /// A data store to a byte address.
    Store(Addr),
    /// Wait until every core reaches its next barrier.
    Barrier,
}

/// A fully generated workload: one op script per core.
///
/// Scripts are generated deterministically at build time (data-dependent
/// address sequences, e.g. radix permutations, are computed from a seeded
/// PRNG), so a run is reproducible bit-for-bit.
#[derive(Debug, Clone)]
pub struct BuiltWorkload {
    /// Benchmark name as it appears in the paper's figures.
    pub name: &'static str,
    /// Per-core operation scripts, including `Barrier` markers. All
    /// scripts must contain the *same number* of barriers.
    pub scripts: Vec<Vec<Op>>,
}

impl BuiltWorkload {
    /// Wrap finished scripts: trim each to its length, so a 1024-core
    /// build holds no spare capacity, then [`validate`](Self::validate).
    pub fn new(name: &'static str, mut scripts: Vec<Vec<Op>>) -> Self {
        for s in &mut scripts {
            s.shrink_to_fit();
        }
        let w = BuiltWorkload { name, scripts };
        w.validate();
        w
    }

    /// Total memory operations across all cores.
    pub fn total_mem_ops(&self) -> u64 {
        self.scripts
            .iter()
            .flatten()
            .filter(|o| matches!(o, Op::Load(_) | Op::Store(_)))
            .count() as u64
    }

    /// Total instruction count (computes + 1 per memory op).
    pub fn total_instructions(&self) -> u64 {
        self.scripts
            .iter()
            .flatten()
            .map(|o| match o {
                Op::Compute(n) => u64::from(*n),
                Op::Load(_) | Op::Store(_) => 1,
                Op::Barrier => 0,
            })
            .sum()
    }

    /// Check the structural well-formedness all kernels must satisfy:
    /// equal barrier counts on every core (otherwise the run deadlocks).
    pub fn validate(&self) {
        let counts: Vec<usize> = self
            .scripts
            .iter()
            .map(|s| s.iter().filter(|o| matches!(o, Op::Barrier)).count())
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{}: unequal barrier counts across cores: {:?}",
            self.name,
            &counts[..counts.len().min(8)]
        );
    }
}

/// Problem-size scaling knob. `Scale::Test` keeps unit tests fast;
/// `Scale::Paper` is what the figure benches run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny inputs for unit tests.
    Test,
    /// Default evaluation size (completes in seconds of wall-clock for a
    /// 1024-core run).
    Paper,
}

impl Scale {
    /// A multiplier applied to per-core work amounts.
    pub fn factor(self) -> usize {
        match self {
            Scale::Test => 1,
            Scale::Paper => 4,
        }
    }
}

/// Shared address-space layout. Every kernel draws its arrays from these
/// regions so addresses never collide across data structures.
#[derive(Debug)]
pub struct Layout;

impl Layout {
    /// Base of the shared data segment.
    pub const SHARED_BASE: u64 = 0x1000_0000;
    /// Base of per-core private segments.
    pub const PRIVATE_BASE: u64 = 0x8000_0000;
    /// Bytes of private address space per core.
    pub const PRIVATE_STRIDE: u64 = 0x10_0000;

    /// Element `i` (8-byte elements) of a shared array starting at
    /// `offset` bytes into the shared segment.
    #[inline]
    pub fn shared(offset: u64, i: u64) -> Addr {
        Addr(Self::SHARED_BASE + offset + i * 8)
    }

    /// Element `i` of core `c`'s private segment.
    #[inline]
    pub fn private(c: usize, i: u64) -> Addr {
        Addr(Self::PRIVATE_BASE + c as u64 * Self::PRIVATE_STRIDE + i * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_regions_disjoint() {
        let s = Layout::shared(0, 1_000_000);
        let p = Layout::private(0, 0);
        assert!(s.0 < p.0);
        // neighbouring cores' private regions don't overlap
        let end0 = Layout::private(0, Layout::PRIVATE_STRIDE / 8 - 1);
        let start1 = Layout::private(1, 0);
        assert!(end0.0 < start1.0);
    }

    #[test]
    fn validate_accepts_uniform_barriers() {
        let w = BuiltWorkload {
            name: "t",
            scripts: vec![
                vec![Op::Compute(1), Op::Barrier],
                vec![Op::Load(Addr(0)), Op::Barrier],
            ],
        };
        w.validate();
    }

    #[test]
    #[should_panic(expected = "unequal barrier")]
    fn validate_rejects_mismatched_barriers() {
        let w = BuiltWorkload {
            name: "t",
            scripts: vec![vec![Op::Barrier], vec![Op::Compute(1)]],
        };
        w.validate();
    }

    #[test]
    fn new_trims_scripts_to_length() {
        let mut script = Vec::with_capacity(64);
        script.extend([Op::Compute(1), Op::Barrier]);
        let w = BuiltWorkload::new("t", vec![script]);
        assert_eq!(w.scripts[0].capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "unequal barrier")]
    fn new_validates() {
        BuiltWorkload::new("t", vec![vec![Op::Barrier], vec![Op::Compute(1)]]);
    }

    #[test]
    fn op_counting() {
        let w = BuiltWorkload {
            name: "t",
            scripts: vec![vec![
                Op::Compute(10),
                Op::Load(Addr(0)),
                Op::Store(Addr(8)),
                Op::Barrier,
            ]],
        };
        assert_eq!(w.total_mem_ops(), 2);
        assert_eq!(w.total_instructions(), 12);
    }
}
