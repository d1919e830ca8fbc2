//! The composite ATAC / ATAC+ network: ENet mesh + ONet SWMR links +
//! per-cluster receive networks, under a configurable unicast routing
//! policy.
//!
//! Routing rules (§III-A, §IV-C):
//!
//! * broadcasts always go core →(ENet)→ local hub →(ONet)→ every hub
//!   →(BNet/StarNet)→ cores;
//! * intra-cluster unicasts always use only the ENet;
//! * inter-cluster unicasts depend on the policy:
//!   - **Cluster** (baseline ATAC): always via the ONet;
//!   - **Distance-i** (ATAC+): via the ENet when the sender–receiver
//!     manhattan distance is *below* `i` hops, via the ONet otherwise;
//!   - **Distance-All**: always via the ENet (ONet reserved for
//!     broadcasts).
//!
//! The choice of BNet vs StarNet affects *energy only* (both are 1-cycle,
//! Table I); the network records receive-net flit counters and the energy
//! integration in `atac-sim` applies the per-flit energies of whichever
//! receive net the configuration selects.

// Hot path (atac-audit `HOT_PATH_FILES`): panics and lossy casts need an `#[expect]`.
#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
// State machine: name every variant, so a new one fails until handled.
#![warn(clippy::wildcard_enum_match_arm)]

use crate::mesh::{Mesh, MeshKind};
use crate::onet::Onet;
use crate::stats::NetStats;
use crate::topology::Topology;
use crate::types::{Cycle, Delivery, Dest, Message};
use atac_trace::{HostProfiler, NetObsHandle, NetSubPhase, ProbeHandle, Subnet};

/// Unicast routing policy for inter-cluster traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Baseline ATAC: all inter-cluster unicasts over the ONet.
    Cluster,
    /// ATAC+ Distance-i: ENet below `i` hops, ONet at or above.
    Distance(u32),
    /// All unicasts over the ENet; ONet only for broadcasts.
    DistanceAll,
}

impl RoutingPolicy {
    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> String {
        match self {
            RoutingPolicy::Cluster => "Cluster".to_string(),
            RoutingPolicy::Distance(i) => format!("Distance-{i}"),
            RoutingPolicy::DistanceAll => "Distance-All".to_string(),
        }
    }
}

/// The per-cluster receive network flavor (energy model selector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiveNet {
    /// ATAC's broadcast fan-out tree (always drives all 16 cores).
    BNet,
    /// ATAC+'s 1:16 demux + point-to-point links.
    StarNet,
}

/// A unified interface over all four evaluated networks, letting the
/// full-system simulator and harnesses swap architectures freely.
pub trait Network {
    /// Inject a message; `false` = back-pressure, retry later.
    fn try_send(&mut self, msg: Message, now: Cycle) -> bool;
    /// Advance one cycle.
    fn tick(&mut self, now: Cycle);
    /// Move accumulated deliveries into `out`.
    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>);
    /// No traffic anywhere in the network.
    fn is_idle(&self) -> bool;
    /// Earliest future cycle (> `now`) at which ticking this network
    /// could change its state, or `None` when idle. Returning an early
    /// cycle only costs a no-op tick; returning a *late* one would let
    /// the engine skip over state evolution, so implementations must be
    /// conservative. The default is maximally conservative: every cycle
    /// while any traffic is in flight.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.is_idle() {
            None
        } else {
            Some(now + 1)
        }
    }
    /// Flush batched observer counters to the attached observer
    /// (default: nothing batched). Called once per run, after the final
    /// tick and before the observer is read.
    fn flush_obs(&mut self) {}
    /// Flit width in bits.
    fn flit_width(&self) -> u32;
    /// Number of cores the network connects.
    fn cores(&self) -> usize;
    /// Snapshot of the merged event counters.
    fn stats(&self) -> NetStats;
    /// Architecture name for reports.
    fn name(&self) -> &'static str;
    /// Attach an observability probe (default: ignored). Probes observe
    /// deliveries and transmissions; they never affect timing.
    fn set_probe(&mut self, probe: ProbeHandle) {
        let _ = probe;
    }
    /// Attach a host profiler for network sub-phase attribution
    /// (default: ignored). Sub-laps are inert unless the profiler was
    /// created with netprof on (the `ATAC_NETPROF` knob); like probes,
    /// they never affect timing.
    fn set_profiler(&mut self, prof: HostProfiler) {
        let _ = prof;
    }
    /// Attach a cycle-domain network observer (default: ignored).
    /// Observers receive per-router/link/hub counter events; they never
    /// affect timing.
    fn set_observer(&mut self, obs: NetObsHandle) {
        let _ = obs;
    }
}

impl Network for Mesh {
    fn try_send(&mut self, msg: Message, now: Cycle) -> bool {
        Mesh::try_send(self, msg, now)
    }
    fn tick(&mut self, now: Cycle) {
        Mesh::tick(self, now);
    }
    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        Mesh::drain_deliveries(self, out);
    }
    fn is_idle(&self) -> bool {
        Mesh::is_idle(self)
    }
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Mesh::next_event(self, now)
    }
    fn flush_obs(&mut self) {
        Mesh::flush_obs(self);
    }
    fn flit_width(&self) -> u32 {
        Mesh::flit_width(self)
    }
    fn cores(&self) -> usize {
        self.topology().cores()
    }
    fn stats(&self) -> NetStats {
        self.stats.clone()
    }
    fn name(&self) -> &'static str {
        match self.kind() {
            MeshKind::Pure => "EMesh-Pure",
            MeshKind::BcastTree => "EMesh-BCast",
        }
    }
    fn set_probe(&mut self, probe: ProbeHandle) {
        Mesh::set_probe(self, probe);
    }
    fn set_profiler(&mut self, prof: HostProfiler) {
        Mesh::set_profiler(self, prof);
    }
    fn set_observer(&mut self, obs: NetObsHandle) {
        Mesh::set_observer(self, obs);
    }
}

/// The ATAC / ATAC+ network.
#[derive(Debug)]
pub struct AtacNet {
    topo: Topology,
    enet: Mesh,
    onet: Onet,
    policy: RoutingPolicy,
    receive_net: ReceiveNet,
    /// Host profiler for the optical-hub stretch of `tick` (the ENet
    /// laps its own sub-phases internally).
    prof: HostProfiler,
}

impl AtacNet {
    /// Build an ATAC-family network.
    ///
    /// * baseline ATAC: `RoutingPolicy::Cluster` + `ReceiveNet::BNet`
    /// * ATAC+: `RoutingPolicy::Distance(15)` + `ReceiveNet::StarNet`
    ///   (the configuration §V-E settles on)
    pub fn new(
        topo: Topology,
        flit_width: u32,
        buffer_depth: usize,
        policy: RoutingPolicy,
        receive_net: ReceiveNet,
    ) -> Self {
        AtacNet {
            topo,
            enet: Mesh::new(topo, MeshKind::Pure, flit_width, buffer_depth),
            onet: Onet::new(topo, flit_width),
            policy,
            receive_net,
            prof: HostProfiler::disabled(),
        }
    }

    /// The paper's ATAC+ default (Distance-15, StarNet, 64-bit flits).
    pub fn atac_plus(topo: Topology) -> Self {
        Self::new(
            topo,
            64,
            4,
            RoutingPolicy::Distance(15),
            ReceiveNet::StarNet,
        )
    }

    /// The baseline ATAC (Cluster routing, BNet, 64-bit flits).
    pub fn atac_baseline(topo: Topology) -> Self {
        Self::new(topo, 64, 4, RoutingPolicy::Cluster, ReceiveNet::BNet)
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configured receive network flavor (for energy integration).
    pub fn receive_net(&self) -> ReceiveNet {
        self.receive_net
    }

    /// The routing policy.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Should this unicast use the ONet?
    fn via_onet(&self, msg: &Message) -> bool {
        match msg.dest {
            Dest::Broadcast => true,
            Dest::Unicast(dst) => {
                if self.topo.cluster_of(msg.src) == self.topo.cluster_of(dst) {
                    return false; // intra-cluster: always pure ENet
                }
                match self.policy {
                    RoutingPolicy::Cluster => true,
                    RoutingPolicy::Distance(r) => self.topo.manhattan(msg.src, dst) >= r,
                    RoutingPolicy::DistanceAll => false,
                }
            }
        }
    }
}

impl Network for AtacNet {
    fn try_send(&mut self, msg: Message, now: Cycle) -> bool {
        if self.via_onet(&msg) {
            let ok = self.enet.try_send_to_hub(msg, now);
            if ok {
                // Count the message at its true injection point.
                match msg.dest {
                    Dest::Unicast(_) => self.enet.stats.unicast_messages += 1,
                    Dest::Broadcast => self.enet.stats.broadcast_messages += 1,
                }
            }
            ok
        } else {
            self.enet.try_send(msg, now)
        }
    }

    fn tick(&mut self, now: Cycle) {
        self.enet.tick(now);
        // Hub: move completed ENet ejections onto the SWMR links. Only
        // clusters in the ENet's hub set hold a completed message, so on
        // hubless ticks (the vast majority) the hand-off visits nothing.
        // The hand-off for `cl` touches only `hub_out[cl]` and `links[cl]`,
        // so the walk visits the set as it stood before the first pop.
        let mut walk = self.enet.hubs_ready().walk();
        while let Some(cl) = walk.next(self.enet.hubs_ready()) {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "clusters ≤ 256 (`Topology::small` asserts it) fit u8"
            )]
            let cl = crate::types::ClusterId(cl as u8);
            while self.onet.can_accept(cl) && self.enet.hub_out_ready(cl) {
                #[expect(clippy::expect_used, reason = "hub_out_ready checked it above")]
                let (msg, inject) = self.enet.pop_hub_out(cl).expect("ready");
                self.onet.stats.hub_buffer_reads += 1;
                self.onet.accept(cl, msg, inject);
            }
        }
        self.onet.tick(now);
        // Everything after the ENet's own laps — hub hand-off and the
        // SWMR link schedule — is the optical-hub arbitration stretch.
        self.prof.net_lap(NetSubPhase::HubArb);
    }

    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        self.enet.drain_deliveries(out);
        self.onet.drain_deliveries(out);
    }

    fn is_idle(&self) -> bool {
        self.enet.is_idle() && self.onet.is_idle()
    }
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // A ready hub-out flit must transfer into the ONet on the very
        // next tick, and both sub-networks evolve independently — take
        // the earliest of the two horizons.
        let e = self.enet.next_event(now);
        let o = self.onet.next_event(now);
        match (e, o) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (x, None) => x,
            (None, y) => y,
        }
    }
    fn flush_obs(&mut self) {
        self.enet.flush_obs();
    }

    fn flit_width(&self) -> u32 {
        self.enet.flit_width()
    }

    fn cores(&self) -> usize {
        self.topo.cores()
    }

    fn stats(&self) -> NetStats {
        let mut s = self.enet.stats.clone();
        let o = &self.onet.stats;
        // Merge, but keep injection-side message counts from the ENet side
        // (they were counted at try_send) and delivery counts from both.
        let cycles = s.cycles;
        s.merge(o);
        s.cycles = cycles.max(o.cycles);
        s
    }

    fn name(&self) -> &'static str {
        match (self.policy, self.receive_net) {
            (RoutingPolicy::Cluster, ReceiveNet::BNet) => "ATAC",
            (RoutingPolicy::Cluster, ReceiveNet::StarNet)
            | (RoutingPolicy::Distance(_) | RoutingPolicy::DistanceAll, _) => "ATAC+",
        }
    }

    fn set_probe(&mut self, probe: ProbeHandle) {
        self.enet.set_probe(probe.clone());
        let recv = match self.receive_net {
            ReceiveNet::BNet => Subnet::BNet,
            ReceiveNet::StarNet => Subnet::StarNet,
        };
        self.onet.set_probe(probe, recv);
    }

    fn set_profiler(&mut self, prof: HostProfiler) {
        self.enet.set_profiler(prof.clone());
        self.prof = prof;
    }

    fn set_observer(&mut self, obs: NetObsHandle) {
        self.enet.set_observer(obs.clone());
        self.onet.set_observer(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CoreId, MessageClass};

    fn topo() -> Topology {
        Topology::small(8, 4)
    }

    fn msg(src: u16, dest: Dest) -> Message {
        Message {
            src: CoreId(src),
            dest,
            class: MessageClass::Control,
            token: 0,
        }
    }

    fn run<N: Network + ?Sized>(net: &mut N, start: Cycle, max: u64) -> (Vec<Delivery>, Cycle) {
        let mut out = Vec::new();
        let mut now = start;
        while !net.is_idle() {
            net.tick(now);
            net.drain_deliveries(&mut out);
            now += 1;
            assert!(now - start < max, "network did not drain");
        }
        (out, now)
    }

    #[test]
    fn intra_cluster_unicast_stays_on_enet() {
        let mut net = AtacNet::atac_plus(topo());
        // cores 0 and 1 are both in cluster 0.
        assert!(net.try_send(msg(0, Dest::Unicast(CoreId(1))), 0));
        let (out, _) = run(&mut net, 0, 200);
        assert_eq!(out.len(), 1);
        let s = net.stats();
        assert_eq!(s.onet_flits_sent, 0, "no optical traffic");
        assert!(s.link_traversals > 0, "went over the mesh");
    }

    #[test]
    fn cluster_policy_sends_intercluster_over_onet() {
        let t = topo();
        let mut net = AtacNet::atac_baseline(t);
        // core 0 (cluster 0) to core 63 (cluster 3): inter-cluster.
        assert!(net.try_send(msg(0, Dest::Unicast(CoreId(63))), 0));
        let (out, _) = run(&mut net, 0, 500);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].receiver, CoreId(63));
        let s = net.stats();
        assert!(s.onet_flits_sent > 0, "used the ONet");
        assert_eq!(s.unicast_received, 1);
    }

    #[test]
    fn distance_policy_splits_by_hops() {
        let t = topo();
        // distance core 0 -> core 63 is (7+7)=14 hops.
        let mut far = AtacNet::new(t, 64, 4, RoutingPolicy::Distance(10), ReceiveNet::StarNet);
        assert!(far.try_send(msg(0, Dest::Unicast(CoreId(63))), 0));
        let _ = run(&mut far, 0, 500);
        assert!(far.stats().onet_flits_sent > 0, "14 ≥ 10 → ONet");

        let mut near = AtacNet::new(t, 64, 4, RoutingPolicy::Distance(20), ReceiveNet::StarNet);
        assert!(near.try_send(msg(0, Dest::Unicast(CoreId(63))), 0));
        let _ = run(&mut near, 0, 500);
        assert_eq!(near.stats().onet_flits_sent, 0, "14 < 20 → ENet");
    }

    #[test]
    fn distance_all_keeps_onet_for_broadcasts() {
        let t = topo();
        let mut net = AtacNet::new(t, 64, 4, RoutingPolicy::DistanceAll, ReceiveNet::StarNet);
        assert!(net.try_send(msg(0, Dest::Unicast(CoreId(63))), 0));
        assert!(net.try_send(msg(0, Dest::Broadcast), 0));
        let (out, _) = run(&mut net, 0, 2000);
        assert_eq!(out.len(), 1 + 63);
        let s = net.stats();
        assert!(s.onet_flits_sent > 0, "broadcast used ONet");
        assert_eq!(s.laser_unicast_cycles, 0, "no optical unicasts");
    }

    #[test]
    fn broadcast_reaches_all_cores() {
        let mut net = AtacNet::atac_plus(topo());
        assert!(net.try_send(msg(13, Dest::Broadcast), 0));
        let (out, _) = run(&mut net, 0, 2000);
        assert_eq!(out.len(), 63);
        let mut seen = [false; 64];
        for d in &out {
            assert!(!seen[d.receiver.idx()]);
            seen[d.receiver.idx()] = true;
        }
        assert!(!seen[13]);
    }

    #[test]
    fn onet_beats_enet_latency_at_long_distance() {
        let t = topo();
        // ONet path: ENet to local hub (short) + optical + StarNet.
        let mut onet_route = AtacNet::new(t, 64, 4, RoutingPolicy::Cluster, ReceiveNet::StarNet);
        let mut enet_route =
            AtacNet::new(t, 64, 4, RoutingPolicy::DistanceAll, ReceiveNet::StarNet);
        // choose a sender adjacent to its hub: hub of cluster 0 is (0,0);
        // send from (0,0)'s neighbour... core 0 IS the hub tile.
        let m = msg(0, Dest::Unicast(CoreId(63)));
        assert!(onet_route.try_send(m, 0));
        assert!(enet_route.try_send(m, 0));
        let (o, _) = run(&mut onet_route, 0, 500);
        let (e, _) = run(&mut enet_route, 0, 500);
        assert!(
            o[0].at < e[0].at,
            "optical {} should beat 14-hop electrical {}",
            o[0].at,
            e[0].at
        );
    }

    #[test]
    fn network_trait_objects_work() {
        let t = topo();
        let mut nets: Vec<Box<dyn Network>> = vec![
            Box::new(Mesh::new(t, MeshKind::Pure, 64, 4)),
            Box::new(Mesh::new(t, MeshKind::BcastTree, 64, 4)),
            Box::new(AtacNet::atac_plus(t)),
            Box::new(AtacNet::atac_baseline(t)),
        ];
        let names: Vec<_> = nets.iter().map(|n| n.name()).collect();
        assert_eq!(names, ["EMesh-Pure", "EMesh-BCast", "ATAC+", "ATAC"]);
        for net in &mut nets {
            assert!(net.try_send(msg(3, Dest::Unicast(CoreId(60))), 0));
            let (out, _) = run(net.as_mut(), 0, 1000);
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    fn deterministic_composite() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let t = topo();
        let run_once = || {
            let mut net = AtacNet::atac_plus(t);
            let mut rng = SmallRng::seed_from_u64(7);
            let mut out = Vec::new();
            for now in 0..500u64 {
                for c in 0..64u16 {
                    if rng.gen_bool(0.03) {
                        let dest = if rng.gen_bool(0.02) {
                            Dest::Broadcast
                        } else {
                            Dest::Unicast(CoreId(rng.gen_range(0..64)))
                        };
                        let _ = net.try_send(msg(c, dest), now);
                    }
                }
                net.tick(now);
                net.drain_deliveries(&mut out);
            }
            let mut now = 500;
            while !net.is_idle() {
                net.tick(now);
                net.drain_deliveries(&mut out);
                now += 1;
                assert!(now < 1_000_000);
            }
            out.sort_by_key(|d| (d.at, d.receiver.0, d.msg.src.0));
            (out.len(), net.stats())
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn every_message_delivered_under_load() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let t = topo();
        let mut net = AtacNet::atac_plus(t);
        let mut rng = SmallRng::seed_from_u64(99);
        let mut out = Vec::new();
        let mut uc = 0u64;
        let mut bc = 0u64;
        for now in 0..3000u64 {
            for c in 0..64u16 {
                if rng.gen_bool(0.04) {
                    let dest = if rng.gen_bool(0.01) {
                        Dest::Broadcast
                    } else {
                        Dest::Unicast(CoreId(rng.gen_range(0..64)))
                    };
                    if net.try_send(msg(c, dest), now) {
                        match dest {
                            Dest::Unicast(_) => uc += 1,
                            Dest::Broadcast => bc += 1,
                        }
                    }
                }
            }
            net.tick(now);
            net.drain_deliveries(&mut out);
        }
        let mut now = 3000;
        while !net.is_idle() {
            net.tick(now);
            net.drain_deliveries(&mut out);
            now += 1;
            assert!(now < 2_000_000, "did not drain");
        }
        assert_eq!(out.len() as u64, uc + bc * 63);
        let s = net.stats();
        assert_eq!(s.unicast_received, uc);
        assert_eq!(s.broadcast_received, bc * 63);
    }

    #[test]
    fn every_message_delivered_once_across_256_hubs() {
        // 1,024 cores in 2×2 clusters: 256 hubs, so each hub set spans
        // four words. Cluster routing puts every inter-cluster unicast on
        // the ONet; `is_idle` and `next_event` run their per-hub debug
        // cross-checks every cycle.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let t = Topology::small(32, 2);
        assert_eq!(t.clusters(), 256);
        let n: u16 = 1024;
        assert_eq!(t.cores(), usize::from(n));
        let mut net = AtacNet::new(t, 64, 4, RoutingPolicy::Cluster, ReceiveNet::StarNet);
        let mut rng = SmallRng::seed_from_u64(256);
        let mut want = Vec::new();
        let mut out = Vec::new();
        let (mut uc, mut bc) = (0, 0);
        let mut now = 0;
        while now < 200 || !net.is_idle() {
            for c in 0..n {
                if now >= 200 || !rng.gen_bool(0.008) {
                    continue;
                }
                let dest = if rng.gen_bool(0.012) {
                    Dest::Broadcast
                } else {
                    Dest::Unicast(CoreId(rng.gen_range(0..n)))
                };
                let m = Message {
                    token: want.len() as u64,
                    ..msg(c, dest)
                };
                if !net.try_send(m, now) {
                    continue;
                }
                match dest {
                    Dest::Unicast(d) => {
                        uc += 1;
                        want.push((m.token, d));
                    }
                    Dest::Broadcast => {
                        bc += 1;
                        let others = (0..n).filter(|&r| r != c);
                        want.extend(others.map(|r| (m.token, CoreId(r))));
                    }
                }
            }
            net.tick(now);
            net.drain_deliveries(&mut out);
            assert!(net.is_idle() || net.next_event(now).is_some());
            now += 1;
            assert!(now < 100_000, "did not drain");
        }
        assert!(uc > 1000 && bc > 10, "{uc} unicasts, {bc} broadcasts");
        let mut got: Vec<_> = out.iter().map(|d| (d.msg.token, d.receiver)).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "each message reaches each receiver exactly once");
        let s = net.stats();
        assert!(s.onet_flits_sent > 0 && s.hub_buffer_reads > 0);
    }
}
