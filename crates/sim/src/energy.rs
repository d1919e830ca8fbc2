//! Energy integration: event counters × per-event energies + static
//! power × completion time.
//!
//! This implements the paper's §V-A toolflow step: "Event counters and
//! completion time output from Graphite are then combined with per-event
//! energies and static power to obtain the overall energy usage of the
//! benchmark." Per-event energies and static powers come from
//! `atac-phys` (our DSENT/McPAT substitute); counters come from
//! `atac-net` and `atac-coherence`.
//!
//! Every component's energy is split into **data-dependent (DD)** —
//! proportional to events — and **non-data-dependent (NDD)** — burnt per
//! cycle regardless of activity (leakage, ungated clocks, ring heaters,
//! un-gateable lasers). The NDD/DD distinction is the paper's central
//! analytical lens (§V-C, §V-G).

// Hot path (atac-audit `HOT_PATH_FILES`): panics and lossy casts need an `#[expect]`.
#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

use atac_coherence::CoherenceStats;
use atac_net::NetStats;
use atac_phys::cache_model::{CacheGeometry, CacheModel};
use atac_phys::core_model::CorePowerModel;
use atac_phys::electrical::{LinkModel, ReceiveNetModel, RouterModel, RouterParams};
use atac_phys::photonics::{OpticalLinkModel, PhotonicParams, SwmrMode};
use atac_phys::stdcell::StdCellLib;
use atac_phys::units::{Joules, Seconds};

use crate::config::{Arch, SimConfig};
use atac_net::ReceiveNet;

/// Chip-level energy, by component, for one run.
///
/// Field groups follow the paper's Fig. 7 / Fig. 16 / Fig. 17 stack
/// categories.
#[derive(Debug, Clone, Default)]
pub struct EnergyBreakdown {
    // ---- network: electrical ----
    /// Mesh/ENet router + link dynamic energy.
    pub emesh_dynamic: Joules,
    /// Mesh/ENet router leakage + clock over the run (NDD).
    pub emesh_static: Joules,
    /// BNet/StarNet receive-network energy (dynamic + repeater leakage).
    pub receive_net: Joules,
    /// Hub buffering energy (dynamic + leakage share).
    pub hub: Joules,
    // ---- network: optical ----
    /// Laser wall-plug energy (mode-resident for gated scenarios;
    /// full-power × runtime for Conservative).
    pub laser: Joules,
    /// Ring thermal tuning energy (NDD; zero for athermal scenarios).
    pub ring_tuning: Joules,
    /// Modulators, receivers, select link, receiver bias ("Other" in
    /// Fig. 7).
    pub optical_other: Joules,
    // ---- memory subsystem ----
    /// L1 instruction caches, dynamic.
    pub l1i_dynamic: Joules,
    /// L1 instruction caches, leakage + idle clock (NDD).
    pub l1i_static: Joules,
    /// L1 data caches, dynamic.
    pub l1d_dynamic: Joules,
    /// L1 data caches, NDD.
    pub l1d_static: Joules,
    /// L2 caches, dynamic.
    pub l2_dynamic: Joules,
    /// L2 caches, NDD.
    pub l2_static: Joules,
    /// Directory caches, dynamic.
    pub dir_dynamic: Joules,
    /// Directory caches, NDD.
    pub dir_static: Joules,
    // ---- cores (first-order model, §V-G) ----
    /// Core data-dependent energy (scaled by IPC).
    pub core_dd: Joules,
    /// Core non-data-dependent energy (scaled by runtime only).
    pub core_ndd: Joules,
}

impl EnergyBreakdown {
    /// Total network energy (electrical + optical).
    pub fn network(&self) -> Joules {
        self.emesh_dynamic
            + self.emesh_static
            + self.receive_net
            + self.hub
            + self.laser
            + self.ring_tuning
            + self.optical_other
    }

    /// Total cache energy (L1-I + L1-D + L2 + directory).
    pub fn caches(&self) -> Joules {
        self.l1i_dynamic
            + self.l1i_static
            + self.l1d_dynamic
            + self.l1d_static
            + self.l2_dynamic
            + self.l2_static
            + self.dir_dynamic
            + self.dir_static
    }

    /// Core energy.
    pub fn cores(&self) -> Joules {
        self.core_dd + self.core_ndd
    }

    /// Network + caches — the paper's Fig. 7 scope.
    pub fn network_and_caches(&self) -> Joules {
        self.network() + self.caches()
    }

    /// Everything, including cores (Fig. 17 scope).
    pub fn total(&self) -> Joules {
        self.network_and_caches() + self.cores()
    }

    /// Every component field with its name — the single flat list the
    /// conservation audit sums. A field added to the struct but omitted
    /// here (or from the group sums above) trips
    /// [`assert_conservation`](Self::assert_conservation).
    pub fn components(&self) -> [(&'static str, Joules); 17] {
        [
            ("emesh_dynamic", self.emesh_dynamic),
            ("emesh_static", self.emesh_static),
            ("receive_net", self.receive_net),
            ("hub", self.hub),
            ("laser", self.laser),
            ("ring_tuning", self.ring_tuning),
            ("optical_other", self.optical_other),
            ("l1i_dynamic", self.l1i_dynamic),
            ("l1i_static", self.l1i_static),
            ("l1d_dynamic", self.l1d_dynamic),
            ("l1d_static", self.l1d_static),
            ("l2_dynamic", self.l2_dynamic),
            ("l2_static", self.l2_static),
            ("dir_dynamic", self.dir_dynamic),
            ("dir_static", self.dir_static),
            ("core_dd", self.core_dd),
            ("core_ndd", self.core_ndd),
        ]
    }

    /// Energy-conservation audit: every component is finite and
    /// non-negative, and the flat component sum equals [`total`](Self::total)
    /// (which is built from the group sums) to 1e-9 relative — so the
    /// group decomposition can never silently drop or double-count a
    /// component. Panics in every build profile; its one non-test caller,
    /// [`integrate`], only calls it when `debug_assertions` are on.
    pub fn assert_conservation(&self) {
        let mut sum = 0.0;
        for (name, j) in self.components() {
            let v = j.value();
            assert!(
                v.is_finite() && v >= 0.0,
                "energy component `{name}` is {v} (non-finite or negative)"
            );
            sum += v;
        }
        let total = self.total().value();
        let scale = total.abs().max(f64::MIN_POSITIVE);
        assert!(
            ((sum - total) / scale).abs() <= 1e-9,
            "energy breakdown violates conservation: components sum to {sum} J \
             but total() reports {total} J"
        );
    }
}

/// Combine counters, models and completion time into the breakdown.
pub fn integrate(
    cfg: &SimConfig,
    net: &NetStats,
    coh: &CoherenceStats,
    cycles: u64,
    ipc: f64,
) -> EnergyBreakdown {
    let lib = StdCellLib::tri_gate_11nm();
    let runtime = Seconds(cycles as f64 / cfg.frequency_hz);
    let cycle_time = cfg.cycle_time();
    let n_cores = cfg.topo.cores();
    let n_clusters = cfg.topo.clusters();
    let mut e = EnergyBreakdown::default();

    // Every counter is named here, with no `..`: a new `NetStats` or
    // `CoherenceStats` field fails to compile (E0027) until it is either
    // charged below or bound as `_` with the reason it carries no energy.
    let NetStats {
        // Non-energy: traffic-mix statistics (Table V, Fig. 5); flit-level
        // energy is charged via the buffer/xbar/link counters.
        unicast_messages: _,
        broadcast_messages: _,
        // Non-energy: offered-load metric (Fig. 6); per-flit energy is
        // charged at each buffer/crossbar/link event, not at injection.
        flits_injected: _,
        // Non-energy: receiver-side traffic mix (Fig. 5).
        unicast_received: _,
        broadcast_received: _,
        // Non-energy: latency statistics (Fig. 3).
        latency_sum: _,
        latency_count: _,
        buffer_writes,
        buffer_reads,
        xbar_traversals,
        arbitrations,
        link_traversals,
        hub_buffer_writes,
        hub_buffer_reads,
        onet_flits_sent,
        onet_flit_receptions,
        select_notifications,
        laser_unicast_cycles,
        laser_broadcast_cycles,
        laser_transitions,
        receive_net_unicast_flits,
        receive_net_broadcast_flits,
        // Non-energy: completion time enters as the `cycles` argument of
        // this function, not through this copy.
        cycles: _,
    } = *net;
    let CoherenceStats {
        l1i_accesses,
        // Non-energy: miss-rate diagnostics; a refill is charged as an L2
        // access and, on an L2 miss, as directory and network events.
        l1i_misses: _,
        l1d_reads,
        l1d_writes,
        l1d_misses: _,
        l2_accesses,
        // Non-energy: the directory transaction behind an L2 miss or an
        // S→M upgrade is charged through dir_lookups/dir_updates and the
        // network counters.
        l2_misses: _,
        upgrades: _,
        // Non-energy: an eviction's L2 read and directory update, and a
        // write-back's transport, are charged through l2_accesses,
        // dir_updates and the network counters.
        evictions_clean: _,
        evictions_dirty: _,
        // Non-energy: silent by definition (Dir_kB): no message, no
        // directory update, hence no energy event.
        evictions_silent: _,
        dir_lookups,
        dir_updates,
        // Non-energy: protocol-mix diagnostics (Figs. 14–16, ACKwise_k
        // sizing); each message's energy is charged by the network
        // counters, each ack's directory touch through dir_lookups.
        inv_unicasts: _,
        inv_broadcasts: _,
        inv_acks: _,
        sharer_overflows: _,
        // Non-energy: off-chip DRAM is outside the paper's Fig. 7
        // network+cache energy scope (§V-C), and queueing burns no
        // modeled dynamic energy.
        mem_reads: _,
        mem_writes: _,
        mem_queue_cycles: _,
        // Non-energy: §IV-C-1 ordering diagnostics; a buffered message's
        // transport energy was already charged in flight.
        seq_buffered_unicasts: _,
        seq_buffered_broadcasts: _,
        seq_dropped_broadcasts: _,
    } = *coh;

    // ------------------------------------------------------------------
    // Electrical mesh (EMesh or ENet): dynamic from counters, static from
    // router/link census.
    // ------------------------------------------------------------------
    let router = RouterModel::new(
        &lib,
        RouterParams {
            ports: 5,
            flit_width: cfg.flit_width as usize,
            buffer_depth: cfg.buffer_depth,
        },
    );
    let link = LinkModel::mesh_hop(&lib, cfg.flit_width as usize);
    e.emesh_dynamic = router.buffer_write_energy * buffer_writes as f64
        + router.buffer_read_energy * buffer_reads as f64
        + router.crossbar_energy * xbar_traversals as f64
        + router.arbitration_energy * arbitrations as f64
        + link.flit_energy * link_traversals as f64;
    let w = f64::from(cfg.topo.width);
    let h = f64::from(cfg.topo.height);
    let n_links = 2.0 * (w * (h - 1.0) + h * (w - 1.0)); // directed links
    e.emesh_static =
        ((router.leakage + router.clock_power) * n_cores as f64 + link.leakage * n_links) * runtime;

    // ------------------------------------------------------------------
    // Optical components (ATAC family only).
    // ------------------------------------------------------------------
    if let Arch::Atac(_, recv) = cfg.arch {
        let optics = match cfg.waveguide_loss_db {
            Some(db) => OpticalLinkModel::with_waveguide_loss(
                PhotonicParams::default(),
                cfg.scenario,
                n_clusters,
                cfg.flit_width as usize,
                atac_phys::units::Decibels(db),
            ),
            None => OpticalLinkModel::new(
                PhotonicParams::default(),
                cfg.scenario,
                n_clusters,
                cfg.flit_width as usize,
            ),
        };
        // Laser: mode-residency for gated scenarios; worst-case static
        // for the Conservative flavor.
        e.laser = if cfg.scenario.laser_power_gated() {
            optics.laser_energy(SwmrMode::Unicast, laser_unicast_cycles, cycle_time)
                + optics.laser_energy(SwmrMode::Broadcast, laser_broadcast_cycles, cycle_time)
                + optics.transition_energy() * laser_transitions as f64
        } else {
            (optics.broadcast_laser_power + optics.select_laser_power) * n_clusters as f64 * runtime
        };
        e.ring_tuning = optics.tuning_power() * runtime;
        e.optical_other = optics.flit_modulation_energy() * onet_flits_sent as f64
            + optics.flit_receive_energy(1) * onet_flit_receptions as f64
            + optics.select_notification_energy(cycle_time) * select_notifications as f64
            + optics.select_receiver_bias * runtime;

        // Receive networks: 2 per cluster; energy per flit by kind.
        let recv_model =
            ReceiveNetModel::new(&lib, cfg.flit_width as usize, cfg.topo.cores_per_cluster());
        e.receive_net = match recv {
            ReceiveNet::BNet => {
                recv_model.bnet_flit_energy
                    * (receive_net_unicast_flits + receive_net_broadcast_flits) as f64
            }
            ReceiveNet::StarNet => {
                recv_model.starnet_unicast_energy * receive_net_unicast_flits as f64
                    + recv_model.starnet_broadcast_energy * receive_net_broadcast_flits as f64
            }
        } + recv_model.leakage * (2 * n_clusters) as f64 * runtime;

        // Hub buffering: model as router-class buffer accesses + a
        // 6-port router's static budget per hub.
        let hub_router = RouterModel::new(
            &lib,
            RouterParams {
                ports: 6,
                flit_width: cfg.flit_width as usize,
                buffer_depth: 2 * cfg.buffer_depth,
            },
        );
        e.hub = hub_router.buffer_write_energy * hub_buffer_writes as f64
            + hub_router.buffer_read_energy * hub_buffer_reads as f64
            + (hub_router.leakage + hub_router.clock_power) * n_clusters as f64 * runtime;
    }

    // ------------------------------------------------------------------
    // Caches (mini-McPAT).
    // ------------------------------------------------------------------
    let l1 = CacheModel::new(&lib, CacheGeometry::l1_32k());
    let l2 = CacheModel::new(&lib, CacheGeometry::l2_256k());
    let dir = CacheModel::new(
        &lib,
        CacheGeometry::directory(4096, cfg.protocol.k() as u64, n_cores as u64),
    );
    e.l1i_dynamic = l1.read_energy * l1i_accesses as f64;
    e.l1d_dynamic = l1.read_energy * l1d_reads as f64 + l1.write_energy * l1d_writes as f64;
    // L2 accesses are a read/write mix; fills and probes write.
    e.l2_dynamic = (l2.read_energy + l2.write_energy) * 0.5 * l2_accesses as f64;
    e.dir_dynamic = dir.read_energy * dir_lookups as f64 + dir.write_energy * dir_updates as f64;
    let cache_static = |m: &CacheModel| (m.leakage + m.idle_clock_power) * n_cores as f64 * runtime;
    e.l1i_static = cache_static(&l1);
    e.l1d_static = cache_static(&l1);
    e.l2_static = cache_static(&l2);
    e.dir_static = cache_static(&dir);

    // ------------------------------------------------------------------
    // Cores (first-order model, §V-G).
    // ------------------------------------------------------------------
    let core = CorePowerModel::paper(cfg.core_ndd_fraction);
    e.core_ndd = core.ndd_energy(runtime) * n_cores as f64;
    e.core_dd = core.dd_energy(runtime, ipc.min(1.0)) * n_cores as f64;

    if cfg!(debug_assertions) {
        e.assert_conservation();
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use atac_phys::PhotonicScenario;

    fn base_counters() -> (NetStats, CoherenceStats) {
        let net = NetStats {
            buffer_writes: 100_000,
            buffer_reads: 100_000,
            xbar_traversals: 100_000,
            arbitrations: 40_000,
            link_traversals: 300_000,
            onet_flits_sent: 20_000,
            onet_flit_receptions: 60_000,
            select_notifications: 5_000,
            laser_unicast_cycles: 15_000,
            laser_broadcast_cycles: 5_000,
            receive_net_unicast_flits: 18_000,
            receive_net_broadcast_flits: 2_000,
            hub_buffer_writes: 40_000,
            hub_buffer_reads: 40_000,
            cycles: 500_000,
            ..Default::default()
        };
        let coh = CoherenceStats {
            l1i_accesses: 5_000_000,
            l1d_reads: 2_000_000,
            l1d_writes: 800_000,
            l2_accesses: 400_000,
            dir_lookups: 100_000,
            dir_updates: 60_000,
            ..Default::default()
        };
        (net, coh)
    }

    #[test]
    fn caches_dominate_network_plus_cache_energy() {
        // Paper §V-C: "for ATAC+ and the baseline mesh networks, the
        // cache energy dominates (>75%) the combined total energy."
        let cfg = SimConfig::default();
        let (net, coh) = base_counters();
        let e = integrate(&cfg, &net, &coh, 500_000, 0.3);
        let frac = e.caches() / e.network_and_caches();
        assert!(frac > 0.6, "cache fraction {frac}");
    }

    #[test]
    fn conservative_scenario_burns_laser() {
        let (net, coh) = base_counters();
        let mk = |s| SimConfig {
            scenario: s,
            ..SimConfig::default()
        };
        let gated = integrate(&mk(PhotonicScenario::Practical), &net, &coh, 500_000, 0.3);
        let cons = integrate(
            &mk(PhotonicScenario::Conservative),
            &net,
            &coh,
            500_000,
            0.3,
        );
        assert!(
            cons.laser.value() > 50.0 * gated.laser.value(),
            "cons {} vs gated {}",
            cons.laser,
            gated.laser
        );
        assert!(cons.ring_tuning.value() > 0.0);
        assert_eq!(gated.ring_tuning.value(), 0.0);
    }

    #[test]
    fn scenario_energy_ordering_matches_table_iv() {
        let (net, coh) = base_counters();
        let total = |s| {
            let cfg = SimConfig {
                scenario: s,
                ..SimConfig::default()
            };
            integrate(&cfg, &net, &coh, 500_000, 0.3).network().value()
        };
        let ideal = total(PhotonicScenario::Ideal);
        let practical = total(PhotonicScenario::Practical);
        let tuned = total(PhotonicScenario::RingTuned);
        let cons = total(PhotonicScenario::Conservative);
        assert!(ideal <= practical);
        assert!(practical < tuned);
        assert!(tuned < cons);
        // Fig. 7: ATAC+ ≈ ATAC+(Ideal) — within ~15 %.
        assert!(
            practical / ideal < 1.15,
            "practical/ideal {}",
            practical / ideal
        );
    }

    #[test]
    fn emesh_has_no_optical_terms() {
        let (net, coh) = base_counters();
        let cfg = SimConfig {
            arch: Arch::EMeshBcast,
            ..SimConfig::default()
        };
        let e = integrate(&cfg, &net, &coh, 500_000, 0.3);
        assert_eq!(e.laser.value(), 0.0);
        assert_eq!(e.ring_tuning.value(), 0.0);
        assert_eq!(e.optical_other.value(), 0.0);
        assert_eq!(e.receive_net.value(), 0.0);
        assert!(e.emesh_dynamic.value() > 0.0);
    }

    #[test]
    fn directory_energy_grows_with_sharers() {
        // Fig. 16's driver: directory cost scales with k.
        let (net, coh) = base_counters();
        let dirk = |k| {
            let cfg = SimConfig {
                protocol: atac_coherence::ProtocolKind::AckWise { k },
                ..SimConfig::default()
            };
            let e = integrate(&cfg, &net, &coh, 500_000, 0.3);
            (e.dir_dynamic + e.dir_static).value()
        };
        assert!(dirk(1024) > 3.0 * dirk(4));
    }

    #[test]
    fn longer_runtime_grows_ndd_not_dd() {
        let (net, coh) = base_counters();
        let cfg = SimConfig::default();
        let short = integrate(&cfg, &net, &coh, 500_000, 0.3);
        let long = integrate(&cfg, &net, &coh, 1_000_000, 0.3);
        assert_eq!(short.l2_dynamic.value(), long.l2_dynamic.value());
        assert!(long.l2_static.value() > 1.9 * short.l2_static.value());
        assert!(long.core_ndd.value() > 1.9 * short.core_ndd.value());
    }

    #[test]
    fn breakdown_components_match_group_sums() {
        let (net, coh) = base_counters();
        let e = integrate(&SimConfig::default(), &net, &coh, 500_000, 0.3);
        let sum: f64 = e.components().iter().map(|(_, j)| j.value()).sum();
        let total = e.total().value();
        assert!(total > 0.0);
        assert!(
            ((sum - total) / total).abs() < 1e-12,
            "sum {sum} total {total}"
        );
        e.assert_conservation();
    }

    #[test]
    #[should_panic(expected = "non-finite or negative")]
    fn conservation_audit_catches_bad_component() {
        let e = EnergyBreakdown {
            laser: Joules(-1.0),
            ..Default::default()
        };
        e.assert_conservation();
    }

    #[test]
    fn core_dominates_total_chip_energy() {
        // Fig. 17: "In all cases, the cache and network are dwarfed by
        // the core" — with the 40 % NDD scenario.
        let (net, coh) = base_counters();
        let cfg = SimConfig {
            core_ndd_fraction: 0.4,
            ..SimConfig::default()
        };
        let e = integrate(&cfg, &net, &coh, 500_000, 0.3);
        assert!(e.cores() > e.network_and_caches());
    }
}
