//! Memory controller timing model.
//!
//! The paper's parameters (Table I): 64 controllers (one per cluster),
//! 5 GB/s of bandwidth each, 100 ns access latency. We model each
//! controller as a single-server FIFO: a 64-byte line transfer occupies
//! the controller for `64 B / 5 GB/s = 12.8 ns ≈ 13 cycles` at 1 GHz, and
//! the DRAM access itself adds a fixed 100-cycle latency. Queueing delay
//! (the difference between arrival and service start) is recorded as
//! `mem_queue_cycles` — the paper's back-pressure path from memory
//! bandwidth into application runtime.

// Hot path (atac-audit `HOT_PATH_FILES`): panics and lossy casts need an `#[expect]`.
#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

use atac_net::Cycle;
use std::collections::VecDeque;

/// Cycles a 64-byte transfer occupies the controller (bandwidth term).
pub const SERVICE_CYCLES: Cycle = 13;
/// Fixed DRAM access latency in cycles (Table I: 100 ns at 1 GHz).
pub const MEM_LATENCY: Cycle = 100;

/// A pending memory operation (opaque tag chosen by the caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp<T> {
    /// Caller's tag, returned on completion.
    pub tag: T,
    /// Whether the operation is a write (writes complete silently but
    /// still consume bandwidth).
    pub is_write: bool,
}

/// One memory controller.
#[derive(Debug)]
pub struct MemCtrl<T> {
    /// Completion queue: (ready cycle, op).
    inflight: VecDeque<(Cycle, MemOp<T>)>,
    /// Cycle at which the controller frees up for the next service slot.
    busy_until: Cycle,
    /// Total cycles ops spent waiting before service began.
    pub queue_cycles: u64,
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
}

impl<T> Default for MemCtrl<T> {
    fn default() -> Self {
        MemCtrl {
            inflight: VecDeque::new(),
            busy_until: 0,
            queue_cycles: 0,
            reads: 0,
            writes: 0,
        }
    }
}

impl<T> MemCtrl<T> {
    /// Enqueue an operation arriving at `now`; returns its completion
    /// cycle.
    pub fn submit(&mut self, op: MemOp<T>, now: Cycle) -> Cycle {
        let start = self.busy_until.max(now);
        self.queue_cycles += start - now;
        self.busy_until = start + SERVICE_CYCLES;
        let done = start + SERVICE_CYCLES + MEM_LATENCY;
        if op.is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        self.inflight.push_back((done, op)); // audit: allow(alloc) MSHR-bounded in-flight queue; capacity amortized
        done
    }

    /// Pop every operation completed by `now`.
    pub fn drain_completed(&mut self, now: Cycle, out: &mut Vec<MemOp<T>>) {
        while let Some(&(done, _)) = self.inflight.front() {
            if done > now {
                break;
            }
            #[expect(clippy::expect_used, reason = "front() readiness checked first")]
            // audit: allow(alloc) caller-reused drain buffer; capacity amortized
            out.push(self.inflight.pop_front().expect("front exists").1);
        }
    }

    /// Earliest pending completion cycle, if any (for idle skip-ahead).
    pub fn next_event(&self) -> Option<Cycle> {
        self.inflight.front().map(|&(c, _)| c)
    }

    /// Any operations still in flight?
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_read_latency() {
        let mut m: MemCtrl<u32> = MemCtrl::default();
        let done = m.submit(
            MemOp {
                tag: 1,
                is_write: false,
            },
            10,
        );
        assert_eq!(done, 10 + SERVICE_CYCLES + MEM_LATENCY);
        let mut out = Vec::new();
        m.drain_completed(done - 1, &mut out);
        assert!(out.is_empty());
        m.drain_completed(done, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tag, 1);
        assert!(m.is_idle());
    }

    #[test]
    fn bandwidth_serializes_back_to_back() {
        let mut m: MemCtrl<u32> = MemCtrl::default();
        let d1 = m.submit(
            MemOp {
                tag: 1,
                is_write: false,
            },
            0,
        );
        let d2 = m.submit(
            MemOp {
                tag: 2,
                is_write: false,
            },
            0,
        );
        assert_eq!(d2 - d1, SERVICE_CYCLES, "second op waits one service slot");
        assert_eq!(m.queue_cycles, SERVICE_CYCLES);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut m: MemCtrl<u32> = MemCtrl::default();
        m.submit(
            MemOp {
                tag: 1,
                is_write: true,
            },
            0,
        );
        // long after the first completes
        let d = m.submit(
            MemOp {
                tag: 2,
                is_write: false,
            },
            1000,
        );
        assert_eq!(d, 1000 + SERVICE_CYCLES + MEM_LATENCY);
        assert_eq!(m.queue_cycles, 0);
        assert_eq!(m.reads, 1);
        assert_eq!(m.writes, 1);
    }

    #[test]
    fn next_event_tracks_earliest() {
        let mut m: MemCtrl<u32> = MemCtrl::default();
        assert_eq!(m.next_event(), None);
        let d1 = m.submit(
            MemOp {
                tag: 1,
                is_write: false,
            },
            0,
        );
        m.submit(
            MemOp {
                tag: 2,
                is_write: false,
            },
            0,
        );
        assert_eq!(m.next_event(), Some(d1));
    }

    #[test]
    fn sustained_throughput_matches_bandwidth() {
        // 100 back-to-back line reads: completion of the last should be
        // ≈ 100 × SERVICE + MEM_LATENCY.
        let mut m: MemCtrl<u32> = MemCtrl::default();
        let mut last = 0;
        for i in 0..100 {
            last = m.submit(
                MemOp {
                    tag: i,
                    is_write: false,
                },
                0,
            );
        }
        assert_eq!(last, 100 * SERVICE_CYCLES + MEM_LATENCY);
    }
}
