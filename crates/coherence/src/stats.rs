//! Event counters for the memory subsystem.
//!
//! These feed the energy integration: cache access counts × per-access
//! energies (mini-McPAT), directory operations × directory access energy,
//! and memory controller transfer counts.
//!
//! Counter coverage: `atac_sim::energy::integrate` destructures this
//! struct field by field, with no `..`, so a new counter fails to compile
//! until it is either charged there or bound as `_` next to the reason it
//! carries no energy.

use atac_net::counters_struct;

counters_struct! {
    /// All memory-subsystem event counters for one run.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CoherenceStats {
        /// Instruction fetch accesses to L1-I.
        pub l1i_accesses: u64,
        /// L1-I misses (served by the local L2 port; private, non-coherent).
        pub l1i_misses: u64,
        /// L1-D read accesses.
        pub l1d_reads: u64,
        /// L1-D write accesses.
        pub l1d_writes: u64,
        /// L1-D misses (either data absent or insufficient permissions).
        pub l1d_misses: u64,
        /// L2 accesses (demand from L1 miss paths + fills + external probes).
        pub l2_accesses: u64,
        /// L2 misses requiring a directory transaction.
        pub l2_misses: u64,
        /// Write permission upgrades (S→M) requested.
        pub upgrades: u64,
        /// Clean shared evictions from L2.
        pub evictions_clean: u64,
        /// Dirty evictions from L2 (write-back traffic).
        pub evictions_dirty: u64,
        /// Silent evictions (Dir_kB only).
        pub evictions_silent: u64,

        /// Directory lookups (any request or ack touching an entry).
        pub dir_lookups: u64,
        /// Directory entry updates (state/sharer-list writes).
        pub dir_updates: u64,
        /// Invalidations sent as unicasts.
        pub inv_unicasts: u64,
        /// Invalidation broadcasts sent.
        pub inv_broadcasts: u64,
        /// Invalidation acknowledgements received at directories.
        pub inv_acks: u64,
        /// Sharer-list overflows (transition to the global/limited regime).
        pub sharer_overflows: u64,

        /// Memory controller line reads.
        pub mem_reads: u64,
        /// Memory controller line writes.
        pub mem_writes: u64,
        /// Total cycles memory requests waited in controller queues
        /// (bandwidth contention, 5 GB/s per controller).
        pub mem_queue_cycles: u64,

        /// Coherence messages buffered by the §IV-C-1 sequence-number logic
        /// because they arrived out of order (unicast ahead of broadcast).
        pub seq_buffered_unicasts: u64,
        /// Broadcast invalidations buffered behind an outstanding ShReq.
        pub seq_buffered_broadcasts: u64,
        /// Buffered broadcasts that turned out to be stale and were dropped.
        pub seq_dropped_broadcasts: u64,
    }
}

impl CoherenceStats {
    /// Total L1-D accesses.
    pub fn l1d_accesses(&self) -> u64 {
        self.l1d_reads + self.l1d_writes
    }

    /// Fraction of L1-D accesses that miss.
    pub fn l1d_miss_rate(&self) -> f64 {
        if self.l1d_accesses() == 0 {
            0.0
        } else {
            self.l1d_misses as f64 / self.l1d_accesses() as f64
        }
    }

    /// Fraction of L2 demand accesses that miss to the directory.
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l2_accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero() {
        let s = CoherenceStats::default();
        assert_eq!(s.l1d_miss_rate(), 0.0);
        assert_eq!(s.l2_miss_rate(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = CoherenceStats {
            l1d_reads: 60,
            l1d_writes: 40,
            l1d_misses: 10,
            l2_accesses: 50,
            l2_misses: 5,
            ..Default::default()
        };
        assert!((s.l1d_miss_rate() - 0.1).abs() < 1e-12);
        assert!((s.l2_miss_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CoherenceStats {
            inv_broadcasts: 2,
            ..Default::default()
        };
        let b = CoherenceStats {
            inv_broadcasts: 3,
            mem_reads: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.inv_broadcasts, 5);
        assert_eq!(a.mem_reads, 7);
    }

    #[test]
    fn field_roundtrip_by_name() {
        let mut a = CoherenceStats::default();
        let b = CoherenceStats {
            dir_lookups: 11,
            seq_buffered_unicasts: 3,
            ..Default::default()
        };
        for (name, value) in b.fields() {
            assert!(a.set_field(name, value), "unknown field {name}");
        }
        assert_eq!(a, b);
        assert!(!a.set_field("no_such_counter", 1));
    }
}
