//! Workload building blocks: the per-core operation vocabulary and the
//! packed [`Script`] that holds it, the built-workload container, and the
//! shared address-space layout helpers every kernel uses.

use std::fmt;
use std::slice;

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

/// One [`Op`] in one 8-byte word: the kind in bits 62..64 over a payload
/// in bits 0..62, which is the byte address of a `Load`/`Store` or the
/// count of a `Compute`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedOp(u64);

const _: () = assert!(
    std::mem::size_of::<PackedOp>() == 8,
    "a packed op is one 8-byte word"
);

impl PackedOp {
    const KIND_SHIFT: u32 = 62;
    /// The payload bits; also the largest byte address a packed op holds.
    const PAYLOAD: u64 = (1 << Self::KIND_SHIFT) - 1;
    const COMPUTE: u64 = 0;
    const LOAD: u64 = 1;
    const STORE: u64 = 2;
    const BARRIER: u64 = 3;

    fn pack(op: Op) -> PackedOp {
        let (kind, payload) = match op {
            Op::Compute(n) => (Self::COMPUTE, u64::from(n)),
            Op::Load(a) => (Self::LOAD, Self::addr_payload(a)),
            Op::Store(a) => (Self::STORE, Self::addr_payload(a)),
            Op::Barrier => (Self::BARRIER, 0),
        };
        PackedOp(kind << Self::KIND_SHIFT | payload)
    }

    /// The payload of a `Load`/`Store` at `a`. A release `assert!`: a
    /// wider address would overwrite the kind bits.
    fn addr_payload(a: Addr) -> u64 {
        assert!(
            a.0 <= Self::PAYLOAD,
            "{a:?} needs more than the 62 address bits of a packed op"
        );
        a.0
    }

    #[inline]
    fn unpack(self) -> Op {
        let payload = self.0 & Self::PAYLOAD;
        match self.0 >> Self::KIND_SHIFT {
            // A `Compute` payload was packed from a `u32`.
            Self::COMPUTE => Op::Compute(payload as u32),
            Self::LOAD => Op::Load(Addr(payload)),
            Self::STORE => Op::Store(Addr(payload)),
            _ => Op::Barrier,
        }
    }
}

/// One core's operation script, each [`Op`] stored in 8 bytes.
///
/// Generators [`push`](Self::push) ops in program order; the engine reads
/// them back with [`get`](Self::get). A `Load` or `Store` address must fit
/// in 62 bits.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Script {
    ops: Vec<PackedOp>,
}

impl Script {
    /// Append `op`.
    ///
    /// # Panics
    ///
    /// If `op` is a `Load` or `Store` whose address needs more than 62
    /// bits.
    pub fn push(&mut self, op: Op) {
        self.ops.push(PackedOp::pack(op));
    }

    /// The op at index `pc`, or `None` past the end of the script.
    #[inline]
    pub fn get(&self, pc: usize) -> Option<Op> {
        self.ops.get(pc).map(|p| p.unpack())
    }

    /// Number of ops, barriers included.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the script has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ops in program order.
    pub fn iter(&self) -> Ops<'_> {
        Ops(self.ops.iter())
    }
}

impl fmt::Debug for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a Script {
    type Item = Op;
    type IntoIter = Ops<'a>;

    fn into_iter(self) -> Ops<'a> {
        self.iter()
    }
}

/// Iterator over a [`Script`]'s ops, from [`Script::iter`].
#[derive(Debug, Clone)]
pub struct Ops<'a>(slice::Iter<'a, PackedOp>);

impl Iterator for Ops<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        self.0.next().map(|p| p.unpack())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
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
    pub scripts: Vec<Script>,
}

impl BuiltWorkload {
    /// Wrap finished scripts: trim each to its length, so a 1024-core
    /// build holds no spare capacity, then [`validate`](Self::validate).
    pub fn new(name: &'static str, mut scripts: Vec<Script>) -> Self {
        for s in &mut scripts {
            s.ops.shrink_to_fit();
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
                Op::Compute(n) => u64::from(n),
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
    /// Default evaluation size, 4× the per-core work of `Test`. On ATAC+
    /// a 1024-core radix run takes about 8.3 s of host time and barnes
    /// about 7.3 s; radix on EMesh-BCast takes about 25 s (benchmark
    /// medians, one 2-core Xeon host). Whether this size is large enough
    /// for the Fig. 8 ratios to settle is ROADMAP.md item 5.
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

    /// A script holding `ops`, in order.
    fn script(ops: &[Op]) -> Script {
        let mut s = Script::default();
        for &op in ops {
            s.push(op);
        }
        s
    }

    #[test]
    fn packed_ops_round_trip_at_their_edges() {
        let top = Addr(PackedOp::PAYLOAD);
        assert_eq!(top, Addr((1 << 62) - 1));
        let ops = [
            Op::Compute(0),
            Op::Compute(u32::MAX),
            Op::Load(Addr(0)),
            Op::Load(top),
            Op::Store(Addr(0)),
            Op::Store(top),
            Op::Barrier,
        ];
        let s = script(&ops);
        assert_eq!(s.len(), ops.len());
        for (pc, &op) in ops.iter().enumerate() {
            assert_eq!(s.get(pc), Some(op));
        }
        assert_eq!(s.get(ops.len()), None);
        assert_eq!(s.iter().collect::<Vec<_>>(), ops);
    }

    #[test]
    #[should_panic(expected = "62 address bits")]
    fn push_rejects_a_63_bit_address() {
        Script::default().push(Op::Load(Addr(1 << 62)));
    }

    #[test]
    fn script_debug_prints_ops() {
        let s = script(&[Op::Compute(3), Op::Store(Addr(8)), Op::Barrier]);
        assert_eq!(format!("{s:?}"), "[Compute(3), Store(Addr(8)), Barrier]");
    }

    #[test]
    fn validate_accepts_uniform_barriers() {
        let w = BuiltWorkload {
            name: "t",
            scripts: vec![
                script(&[Op::Compute(1), Op::Barrier]),
                script(&[Op::Load(Addr(0)), Op::Barrier]),
            ],
        };
        w.validate();
    }

    #[test]
    #[should_panic(expected = "unequal barrier")]
    fn validate_rejects_mismatched_barriers() {
        let w = BuiltWorkload {
            name: "t",
            scripts: vec![script(&[Op::Barrier]), script(&[Op::Compute(1)])],
        };
        w.validate();
    }

    #[test]
    fn new_trims_scripts_to_length() {
        let mut script = Script {
            ops: Vec::with_capacity(64),
        };
        script.push(Op::Compute(1));
        script.push(Op::Barrier);
        let w = BuiltWorkload::new("t", vec![script]);
        assert_eq!(w.scripts[0].ops.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "unequal barrier")]
    fn new_validates() {
        BuiltWorkload::new("t", vec![script(&[Op::Barrier]), script(&[Op::Compute(1)])]);
    }

    #[test]
    fn op_counting() {
        let w = BuiltWorkload {
            name: "t",
            scripts: vec![script(&[
                Op::Compute(10),
                Op::Load(Addr(0)),
                Op::Store(Addr(8)),
                Op::Barrier,
            ])],
        };
        assert_eq!(w.total_mem_ops(), 2);
        assert_eq!(w.total_instructions(), 12);
    }
}
