//! Event counters collected by every network model.
//!
//! These are the quantities the paper's energy methodology needs: the
//! simulator produces *event counters and completion time*, which are then
//! combined with per-event energies and static powers from `atac-phys`
//! (paper §V-A "overall toolflow"). Latency statistics feed Fig. 3, the
//! traffic mix feeds Fig. 5, injected flit counts feed Fig. 6, and the
//! SWMR mode cycles feed Table V and the laser energy model.
//!
//! Counter coverage: `atac_sim::energy::integrate` destructures this
//! struct field by field, with no `..`, so a new counter fails to compile
//! until it is either charged there or bound as `_` next to the reason it
//! carries no energy.

use crate::counters_struct;

counters_struct! {
    /// All event counters for one simulation run of one network.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct NetStats {
        // ---- Traffic accounting ------------------------------------------
        /// Messages accepted for injection (unicast).
        pub unicast_messages: u64,
        /// Messages accepted for injection (broadcast).
        pub broadcast_messages: u64,
        /// Flits injected into the network (after any source expansion).
        pub flits_injected: u64,
        /// Message deliveries whose original message was a unicast
        /// (measured at the receiver, as in Fig. 5).
        pub unicast_received: u64,
        /// Message deliveries whose original message was a broadcast.
        pub broadcast_received: u64,
        /// Sum of per-delivery latencies (inject cycle → tail arrival).
        pub latency_sum: u64,
        /// Number of deliveries contributing to `latency_sum`.
        pub latency_count: u64,

        // ---- Electrical mesh (ENet / EMesh) events -----------------------
        /// Flit writes into router input buffers.
        pub buffer_writes: u64,
        /// Flit reads out of router input buffers.
        pub buffer_reads: u64,
        /// Flit crossbar traversals.
        pub xbar_traversals: u64,
        /// Switch-allocation decisions (per head flit per router).
        pub arbitrations: u64,
        /// Flit link traversals (per hop).
        pub link_traversals: u64,

        // ---- Hub (cluster interface) events ------------------------------
        /// Flits buffered at a hub (either direction).
        pub hub_buffer_writes: u64,
        /// Flits drained from a hub buffer.
        pub hub_buffer_reads: u64,

        // ---- ONet (optical) events ----------------------------------------
        /// Flits modulated onto the optical data link.
        pub onet_flits_sent: u64,
        /// Flit receptions, summed over receiving hubs (a broadcast flit
        /// received by 63 hubs counts 63).
        pub onet_flit_receptions: u64,
        /// Select-link notifications sent (one per message setup).
        pub select_notifications: u64,
        /// Cycles the data-link lasers spent in unicast mode, summed over all
        /// sender hubs.
        pub laser_unicast_cycles: u64,
        /// Cycles in broadcast mode, summed over all sender hubs.
        pub laser_broadcast_cycles: u64,
        /// Laser on/off (or power-level) transitions, summed over hubs.
        pub laser_transitions: u64,

        // ---- Cluster receive networks (BNet / StarNet) --------------------
        /// Unicast flits delivered through a receive network.
        pub receive_net_unicast_flits: u64,
        /// Broadcast flits delivered through a receive network (one count per
        /// flit per cluster, regardless of fan-out; fan-out cost is in the
        /// energy model).
        pub receive_net_broadcast_flits: u64,

        // ---- Run bookkeeping ----------------------------------------------
        /// Cycles simulated (set by the owner at the end of a run).
        pub cycles: u64,
    }
}

impl NetStats {
    /// Mean end-to-end packet latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.latency_count == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.latency_count as f64
        }
    }

    /// Fraction of received messages that were broadcasts (Fig. 5's
    /// receiver-measured traffic mix).
    pub fn broadcast_fraction_received(&self) -> f64 {
        let total = self.unicast_received + self.broadcast_received;
        if total == 0 {
            0.0
        } else {
            self.broadcast_received as f64 / total as f64
        }
    }

    /// Offered load in flits/cycle/core (Fig. 6's metric).
    pub fn offered_load(&self, cores: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flits_injected as f64 / self.cycles as f64 / cores as f64
        }
    }

    /// SWMR link utilization: fraction of link-cycles spent in unicast or
    /// broadcast mode (Table V), given the number of sender links.
    pub fn swmr_utilization(&self, links: usize) -> f64 {
        if self.cycles == 0 || links == 0 {
            0.0
        } else {
            (self.laser_unicast_cycles + self.laser_broadcast_cycles) as f64
                / (self.cycles as f64 * links as f64)
        }
    }

    /// Average number of unicast messages between successive broadcasts
    /// (Table V's second column).
    pub fn unicasts_per_broadcast(&self) -> f64 {
        if self.broadcast_messages == 0 {
            f64::INFINITY
        } else {
            self.unicast_messages as f64 / self.broadcast_messages as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_latency_handles_empty() {
        assert_eq!(NetStats::default().avg_latency(), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let s = NetStats {
            unicast_received: 75,
            broadcast_received: 25,
            flits_injected: 2000,
            cycles: 100,
            laser_unicast_cycles: 30,
            laser_broadcast_cycles: 10,
            unicast_messages: 500,
            broadcast_messages: 5,
            latency_sum: 400,
            latency_count: 100,
            ..Default::default()
        };
        assert!((s.broadcast_fraction_received() - 0.25).abs() < 1e-12);
        assert!((s.offered_load(4) - 5.0).abs() < 1e-12);
        assert!((s.swmr_utilization(2) - 0.2).abs() < 1e-12);
        assert!((s.unicasts_per_broadcast() - 100.0).abs() < 1e-12);
        assert!((s.avg_latency() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = NetStats {
            flits_injected: 10,
            laser_transitions: 3,
            ..Default::default()
        };
        let b = NetStats {
            flits_injected: 5,
            laser_transitions: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.flits_injected, 15);
        assert_eq!(a.laser_transitions, 7);
    }

    #[test]
    fn no_broadcasts_means_infinite_ratio() {
        let s = NetStats {
            unicast_messages: 10,
            ..Default::default()
        };
        assert!(s.unicasts_per_broadcast().is_infinite());
    }

    #[test]
    fn field_roundtrip_by_name() {
        let mut a = NetStats::default();
        let b = NetStats {
            xbar_traversals: 9,
            laser_transitions: 2,
            cycles: 77,
            ..Default::default()
        };
        for (name, value) in b.fields() {
            assert!(a.set_field(name, value), "unknown field {name}");
        }
        assert_eq!(a, b);
        assert!(!a.set_field("no_such_counter", 1));
        assert_eq!(NetStats::FIELD_NAMES.len(), b.fields().len());
    }
}
