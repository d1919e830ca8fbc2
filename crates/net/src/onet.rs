//! The ONet: an all-to-all WDM optical ring of adaptive SWMR links.
//!
//! Each of the 64 cluster hubs owns one **adaptive SWMR link** (§IV-A):
//! a data link `flit_width` waveguides wide on the hub's private
//! wavelength, plus a `log2(hubs)`-bit select link whose receivers are
//! permanently tuned in. A message transmission is:
//!
//! 1. **Setup** (1 cycle): the sender turns its laser on at the power for
//!    the intended receiver set and notifies the receiver(s) on the select
//!    link; the notified rings tune in within 1 ns (= 1 cycle at 1 GHz),
//!    so data starts exactly one cycle after the select notification
//!    (Table I: "ONet Select – Data Link Lag: 1 cycle").
//! 2. **Data**: one flit per cycle; each flit propagates to every tuned-in
//!    hub in 3 cycles (Table I: "ONet Link Delay: 3 cycles").
//! 3. **Teardown**: on the tail flit the receivers tune out and the laser
//!    power-gates (idle mode).
//!
//! Wormhole flow control with a single virtual channel (§IV-A): messages
//! from one sender are never interleaved, and the sender reserves receive
//! buffer space at every destination hub for the whole message before the
//! select notification, so a transmission never stalls mid-message — the
//! laser is only ever lit while doing useful work, which is what makes the
//! Table V mode-residency accounting exact.
//!
//! Received messages drain through the cluster's two receive networks
//! (BNet or StarNet, 1 cycle, 1 flit/cycle each — Table I: "Total
//! StarNets per Cluster: 2") to the destination core(s). The receive hub
//! is where broadcast replication contends (§V-F discusses exactly this
//! contention), so the drain budget is modeled per cluster.

// Hot path (atac-audit `HOT_PATH_FILES`): panics and lossy casts need an `#[expect]`.
#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
// State machine: name every variant, so a new one fails until handled.
#![warn(clippy::wildcard_enum_match_arm)]

use std::collections::VecDeque;

use crate::hubset::HubSet;
use crate::stats::NetStats;
use crate::topology::Topology;
use crate::types::{ClusterId, Cycle, Delivery, Dest, Message};
use atac_trace::{NetDeliver, NetObsHandle, OnetTx, ProbeHandle, Subnet, TrafficKind};

/// ONet propagation latency in cycles (Table I).
pub const ONET_LINK_DELAY: Cycle = 3;
/// Select-notification to data lag in cycles (Table I).
pub const SELECT_DATA_LAG: Cycle = 1;
/// Receive-network latency in cycles (Table I: BNet/StarNet 1 cycle).
pub const RECEIVE_NET_DELAY: Cycle = 1;
/// Receive networks per cluster (Table I).
pub const RECEIVE_NETS_PER_CLUSTER: u8 = 2;
/// Receive buffer capacity per hub, in flits.
const HUB_RX_CAP: u32 = 64;
/// Sender-side queue capacity per hub, in messages.
const HUB_TX_CAP: usize = 4;

/// Hubs a message must reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DestHubs {
    One(ClusterId),
    All,
}

/// A message waiting at a sender hub.
#[derive(Debug, Clone, Copy)]
struct TxMsg {
    msg: Message,
    inject: Cycle,
    len: u8,
    dest: DestHubs,
}

/// Sender-side SWMR link state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    Idle,
    /// Transmitting; data cycles run through `until` (inclusive of the
    /// last flit's send cycle).
    Busy {
        until: Cycle,
    },
}

#[derive(Debug)]
struct SwmrLink {
    q: VecDeque<TxMsg>,
    state: LinkState,
}

/// A message being reassembled at a receive hub.
#[derive(Debug, Clone, Copy)]
struct RxPacket {
    msg: Message,
    inject: Cycle,
    len: u8,
    /// Cycle the first data flit was sent; flit `i` is forwardable to the
    /// receive net at `start + i + ONET_LINK_DELAY`.
    start: Cycle,
    forwarded: u8,
}

#[derive(Debug, Default)]
struct HubRx {
    q: VecDeque<RxPacket>,
    reserved_flits: u32,
}

/// The optical network: one SWMR link per hub plus per-cluster receive
/// pipelines.
#[derive(Debug)]
pub struct Onet {
    topo: Topology,
    flit_width: u32,
    links: Vec<SwmrLink>,
    rx: Vec<HubRx>,
    deliveries: Vec<Delivery>,
    /// Counters (merged into the composite network's stats).
    pub stats: NetStats,
    /// Observability probe (disabled by default; observers only).
    probe: ProbeHandle,
    /// Cycle-domain network observer (disabled by default).
    obs: NetObsHandle,
    /// Which receive-network flavor final deliveries report as.
    recv_subnet: Subnet,
    /// Hubs whose link is mid-transmission or has a queued message. The
    /// tick and the horizon visit these senders alone.
    tx_active: HubSet,
    /// Hubs whose receive queue holds a packet being reassembled.
    rx_active: HubSet,
}

impl Onet {
    /// Create the ONet for a topology.
    pub fn new(topo: Topology, flit_width: u32) -> Self {
        let h = topo.clusters();
        Onet {
            topo,
            flit_width,
            links: (0..h)
                .map(|_| SwmrLink {
                    q: VecDeque::new(),
                    state: LinkState::Idle,
                })
                .collect(),
            rx: (0..h).map(|_| HubRx::default()).collect(),
            deliveries: Vec::new(),
            stats: NetStats::default(),
            probe: ProbeHandle::default(),
            obs: NetObsHandle::disabled(),
            recv_subnet: Subnet::StarNet,
            tx_active: HubSet::new(h),
            rx_active: HubSet::new(h),
        }
    }

    /// Attach an observability probe. Deliveries report as
    /// `recv_subnet` (BNet or StarNet, the cluster receive network that
    /// performs the final hop); transmissions report as ONet bursts.
    pub fn set_probe(&mut self, probe: ProbeHandle, recv_subnet: Subnet) {
        self.probe = probe;
        self.recv_subnet = recv_subnet;
    }

    /// Attach a cycle-domain network observer (per-hub unicast vs
    /// broadcast occupancy).
    pub fn set_observer(&mut self, obs: NetObsHandle) {
        self.obs = obs;
    }

    /// Number of hubs.
    pub fn hubs(&self) -> usize {
        self.links.len()
    }

    /// Can the sender hub of `cluster` accept another message?
    pub fn can_accept(&self, cluster: ClusterId) -> bool {
        self.links[cluster.idx()].q.len() < HUB_TX_CAP
    }

    /// Hand a message (popped from the ENet's hub ejection buffer) to its
    /// cluster's SWMR link. Panics if called without [`Onet::can_accept`].
    pub fn accept(&mut self, cluster: ClusterId, msg: Message, inject: Cycle) {
        assert!(self.can_accept(cluster), "hub TX queue overflow");
        #[expect(clippy::cast_possible_truncation, reason = "a packet has < 10 flits")]
        let len = msg.class.flits(self.flit_width) as u8;
        let dest = match msg.dest {
            Dest::Unicast(d) => {
                let dc = self.topo.cluster_of(d);
                assert_ne!(
                    dc, cluster,
                    "intra-cluster unicasts must use the ENet, not the ONet"
                );
                DestHubs::One(dc)
            }
            Dest::Broadcast => DestHubs::All,
        };
        // audit: allow(alloc) HUB_TX_CAP-bounded queue; capacity is amortized after warm-up
        self.links[cluster.idx()].q.push_back(TxMsg {
            msg,
            inject,
            len,
            dest,
        });
        self.tx_active.insert(cluster.idx());
    }

    /// Whether any link or receive pipeline still holds traffic.
    pub fn is_idle(&self) -> bool {
        if cfg!(debug_assertions) {
            for (h, (l, r)) in self.links.iter().zip(&self.rx).enumerate() {
                let sending = l.state != LinkState::Idle || !l.q.is_empty();
                assert_eq!(self.tx_active.contains(h), sending, "sender set at hub {h}");
                let receiving = !r.q.is_empty();
                assert_eq!(
                    self.rx_active.contains(h),
                    receiving,
                    "receiver set at hub {h}"
                );
            }
        }
        self.tx_active.is_empty() && self.rx_active.is_empty()
    }

    /// Move deliveries accumulated since the last call into `out`.
    pub fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.deliveries);
    }

    /// Earliest future cycle at which ticking the ONet could change its
    /// state, or `None` when idle. Never *later* than the true next
    /// state change (an early return only costs a no-op tick), so the
    /// engine may jump straight to it.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let tx = self
            .tx_active
            .iter()
            .filter_map(|h| self.tx_horizon(h, now));
        let rx = self.rx_active.iter().filter_map(|cl| self.rx_horizon(cl));
        let next = tx.chain(rx).min().map(|t| t.max(now + 1));
        debug_assert_eq!(next, self.next_event_sweep(now), "hub sets miss a hub");
        next
    }

    /// Debug reference for [`Onet::next_event`]: the same horizon from a
    /// sweep over every hub, blind to the hub sets.
    fn next_event_sweep(&self, now: Cycle) -> Option<Cycle> {
        let hubs = self.links.len();
        let tx = (0..hubs).filter_map(|h| self.tx_horizon(h, now));
        let rx = (0..hubs).filter_map(|cl| self.rx_horizon(cl));
        tx.chain(rx).min().map(|t| t.max(now + 1))
    }

    /// Earliest tick at which sender `h` could act, if it holds work.
    fn tx_horizon(&self, h: usize, now: Cycle) -> Option<Cycle> {
        let l = &self.links[h];
        match l.state {
            // The link retires (and the next queued message may start)
            // on the first tick after the last data cycle.
            LinkState::Busy { until } => Some(until + 1),
            // A queued message starts as soon as its receive reservations
            // fit; that depends on receiver-side drain progress, so stay
            // conservative.
            LinkState::Idle => (!l.q.is_empty()).then_some(now + 1),
        }
    }

    /// Earliest tick at which receive hub `cl` could forward a flit, if
    /// it holds a packet: flit `forwarded` becomes forwardable once it
    /// has propagated the ring (see `tick_receivers`).
    fn rx_horizon(&self, cl: usize) -> Option<Cycle> {
        let head = self.rx[cl].q.front()?;
        Some(head.start + ONET_LINK_DELAY + Cycle::from(head.forwarded))
    }

    /// Advance one cycle: start new transmissions where possible, then
    /// drain receive pipelines into the cluster receive networks.
    pub fn tick(&mut self, now: Cycle) {
        self.tick_senders(now);
        self.tick_receivers(now);
    }

    fn tick_senders(&mut self, now: Cycle) {
        // Handling sender `h` changes only `h`'s own bit here (its pushes
        // go to the receive set), so the walk visits the senders as they
        // stood when the tick began, in ascending order.
        let mut walk = self.tx_active.walk();
        while let Some(h) = walk.next(&self.tx_active) {
            // Retire finished transmissions.
            if let LinkState::Busy { until } = self.links[h].state {
                if now > until {
                    self.links[h].state = LinkState::Idle;
                }
            }
            if self.links[h].state != LinkState::Idle {
                continue;
            }
            let Some(&tx) = self.links[h].q.front() else {
                self.tx_active.remove(h);
                continue;
            };
            // Reserve receive buffer space for the whole message at every
            // destination hub; without it, wait (laser stays gated).
            let fits = self
                .dest_range(tx.dest)
                .all(|d| self.rx[d].reserved_flits + u32::from(tx.len) <= HUB_RX_CAP);
            if !fits {
                continue;
            }
            self.links[h].q.pop_front();
            // Setup: select notification this cycle, data starts next.
            let start = now + SELECT_DATA_LAG;
            let until = start + Cycle::from(tx.len) - 1;
            self.links[h].state = LinkState::Busy { until };
            self.stats.select_notifications += 1;
            self.stats.laser_transitions += 2; // power up, power down
            self.stats.onet_flits_sent += u64::from(tx.len);
            let external_rx = self.dest_range(tx.dest).filter(|&d| d != h).count() as u64;
            self.stats.onet_flit_receptions += u64::from(tx.len) * external_rx;
            let kind = match tx.dest {
                DestHubs::One(_) => {
                    self.stats.laser_unicast_cycles += u64::from(tx.len);
                    TrafficKind::Unicast
                }
                DestHubs::All => {
                    self.stats.laser_broadcast_cycles += u64::from(tx.len);
                    TrafficKind::Broadcast
                }
            };
            self.obs.hub_tx(h, kind, u64::from(tx.len));
            self.probe.onet_tx(&OnetTx {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "hub index < clusters ≤ 256 (`Topology::small` asserts it)"
                )]
                hub: h as u32,
                kind,
                start,
                end: until + ONET_LINK_DELAY,
                flits: u64::from(tx.len),
            });
            for d in self.dest_range(tx.dest) {
                self.rx[d].reserved_flits += u32::from(tx.len);
                self.rx_active.insert(d);
                // audit: allow(alloc) reservation-bounded (≤ HUB_RX_CAP flits); capacity amortized
                self.rx[d].q.push_back(RxPacket {
                    msg: tx.msg,
                    inject: tx.inject,
                    len: tx.len,
                    start,
                    forwarded: 0,
                });
            }
        }
    }

    /// Destination hub index range for a transmission. A broadcast is
    /// received by every hub; the sender's own hub gets its copy via
    /// internal loopback (no extra laser power — `external_rx` above
    /// excludes it). Returning a dense `Range` keeps this per-message
    /// path allocation-free; it is recomputed at each use site rather
    /// than collected.
    fn dest_range(&self, dest: DestHubs) -> std::ops::Range<usize> {
        match dest {
            DestHubs::One(c) => c.idx()..c.idx() + 1,
            DestHubs::All => 0..self.links.len(),
        }
    }

    fn tick_receivers(&mut self, now: Cycle) {
        // Receiver `cl` touches only `rx[cl]` and its own bit.
        let mut walk = self.rx_active.walk();
        while let Some(cl) = walk.next(&self.rx_active) {
            let mut budget = RECEIVE_NETS_PER_CLUSTER;
            while budget > 0 {
                let Some(head) = self.rx[cl].q.front_mut() else {
                    break;
                };
                // Flit i is forwardable once it has propagated the ring.
                #[expect(clippy::cast_possible_truncation, reason = "min() with a u8 fits u8")]
                let arrived = now
                    .saturating_sub(head.start + ONET_LINK_DELAY)
                    .saturating_add(if now >= head.start + ONET_LINK_DELAY {
                        1
                    } else {
                        0
                    })
                    .min(Cycle::from(head.len)) as u8;
                if head.forwarded >= arrived {
                    break; // in-order pipeline: wait for the head's flits
                }
                head.forwarded += 1;
                budget -= 1;
                let done = head.forwarded == head.len;
                let is_bcast = matches!(head.msg.dest, Dest::Broadcast);
                if is_bcast {
                    self.stats.receive_net_broadcast_flits += 1;
                } else {
                    self.stats.receive_net_unicast_flits += 1;
                }
                if done {
                    let pkt = *head;
                    self.rx[cl].q.pop_front();
                    self.rx[cl].reserved_flits -= u32::from(pkt.len);
                    if self.rx[cl].q.is_empty() {
                        self.rx_active.remove(cl);
                    }
                    self.deliver(cl, pkt, now);
                }
            }
        }
    }

    fn deliver(&mut self, cl: usize, pkt: RxPacket, now: Cycle) {
        let at = now + RECEIVE_NET_DELAY;
        match pkt.msg.dest {
            Dest::Unicast(d) => {
                debug_assert_eq!(self.topo.cluster_of(d).idx(), cl);
                self.stats.unicast_received += 1;
                self.stats.latency_sum += at - pkt.inject;
                self.stats.latency_count += 1;
                self.probe.net_deliver(&NetDeliver {
                    subnet: self.recv_subnet,
                    kind: TrafficKind::Unicast,
                    src: u32::from(pkt.msg.src.0),
                    dst: u32::from(d.0),
                    inject: pkt.inject,
                    at,
                });
                // audit: allow(alloc) drained every cycle; capacity is amortized
                self.deliveries.push(Delivery {
                    msg: pkt.msg,
                    receiver: d,
                    at,
                });
            }
            Dest::Broadcast => {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "clusters ≤ 256 (`Topology::small` asserts it) fit u8"
                )]
                for c in self.topo.cluster_cores(ClusterId(cl as u8)) {
                    if c == pkt.msg.src {
                        continue;
                    }
                    self.stats.broadcast_received += 1;
                    self.stats.latency_sum += at - pkt.inject;
                    self.stats.latency_count += 1;
                    self.probe.net_deliver(&NetDeliver {
                        subnet: self.recv_subnet,
                        kind: TrafficKind::Broadcast,
                        src: u32::from(pkt.msg.src.0),
                        dst: u32::from(c.0),
                        inject: pkt.inject,
                        at,
                    });
                    // audit: allow(alloc) drained every cycle; capacity is amortized
                    self.deliveries.push(Delivery {
                        msg: pkt.msg,
                        receiver: c,
                        at,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CoreId, MessageClass};

    fn topo() -> Topology {
        Topology::small(8, 4) // 64 cores, 4 clusters
    }

    fn msg(src: u16, dest: Dest, class: MessageClass) -> Message {
        Message {
            src: CoreId(src),
            dest,
            class,
            token: 7,
        }
    }

    fn run(onet: &mut Onet, start: Cycle, max: u64) -> (Vec<Delivery>, Cycle) {
        let mut out = Vec::new();
        let mut now = start;
        while !onet.is_idle() {
            onet.tick(now);
            onet.drain_deliveries(&mut out);
            now += 1;
            assert!(now - start < max, "onet did not drain");
        }
        (out, now)
    }

    #[test]
    fn unicast_crosses_clusters() {
        let t = topo();
        let mut onet = Onet::new(t, 64);
        // core 0 is in cluster 0; core 63 in cluster 3.
        let m = msg(0, Dest::Unicast(CoreId(63)), MessageClass::Control);
        onet.accept(ClusterId(0), m, 0);
        let (out, _) = run(&mut onet, 0, 100);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].receiver, CoreId(63));
        // latency: select(1) + 2 flits + 3 propagation + 1 receive-net ≈ 7
        assert!(out[0].at >= 6 && out[0].at <= 9, "at {}", out[0].at);
    }

    #[test]
    fn zero_load_latency_breakdown() {
        // 1-flit message (256-bit flits), select at cycle 0: select lag 1
        // (data sent during cycle 1), 3-cycle ring propagation (receive
        // hub forwards during cycle 4), receive net 1 cycle → core at 5.
        let t = topo();
        let mut onet = Onet::new(t, 256);
        let m = msg(0, Dest::Unicast(CoreId(63)), MessageClass::Control);
        onet.accept(ClusterId(0), m, 0);
        let (out, _) = run(&mut onet, 0, 100);
        assert_eq!(
            out[0].at,
            SELECT_DATA_LAG + 1 + ONET_LINK_DELAY + RECEIVE_NET_DELAY - 1
        );
    }

    #[test]
    fn broadcast_reaches_all_cores_except_source() {
        let t = topo();
        let mut onet = Onet::new(t, 64);
        let m = msg(17, Dest::Broadcast, MessageClass::Control);
        onet.accept(t.cluster_of(CoreId(17)), m, 0);
        let (out, _) = run(&mut onet, 0, 200);
        assert_eq!(out.len(), 63);
        assert!(out.iter().all(|d| d.receiver != CoreId(17)));
        assert_eq!(onet.stats.broadcast_received, 63);
    }

    #[test]
    fn mode_cycle_accounting() {
        let t = topo();
        let mut onet = Onet::new(t, 64);
        onet.accept(
            ClusterId(0),
            msg(0, Dest::Unicast(CoreId(63)), MessageClass::Data),
            0,
        );
        onet.accept(
            ClusterId(0),
            msg(1, Dest::Broadcast, MessageClass::Control),
            0,
        );
        let _ = run(&mut onet, 0, 200);
        assert_eq!(onet.stats.laser_unicast_cycles, 10); // data msg = 10 flits
        assert_eq!(onet.stats.laser_broadcast_cycles, 2); // control = 2 flits
        assert_eq!(onet.stats.select_notifications, 2);
        assert_eq!(onet.stats.laser_transitions, 4);
        // 3 external hubs receive the broadcast; 1 hub the unicast.
        assert_eq!(onet.stats.onet_flit_receptions, 10 + 2 * 3);
    }

    #[test]
    fn serialization_on_one_link() {
        // Two messages from the same hub cannot interleave (single VC).
        let t = topo();
        let mut onet = Onet::new(t, 64);
        for i in 0..2 {
            onet.accept(
                ClusterId(0),
                msg(i, Dest::Unicast(CoreId(63)), MessageClass::Data),
                0,
            );
        }
        let (out, _) = run(&mut onet, 0, 300);
        assert_eq!(out.len(), 2);
        let mut ats: Vec<_> = out.iter().map(|d| d.at).collect();
        ats.sort_unstable();
        // second message starts after the first's 10 data cycles.
        assert!(ats[1] >= ats[0] + 10, "ats {ats:?}");
    }

    #[test]
    fn parallel_links_do_not_serialize() {
        // Different senders own different wavelengths: no contention.
        let t = topo();
        let mut onet = Onet::new(t, 64);
        onet.accept(
            ClusterId(0),
            msg(0, Dest::Unicast(CoreId(63)), MessageClass::Control),
            0,
        );
        // core 56 is at (0,7) → cluster 2, distinct from core 63's
        // cluster 3, so the two transfers share nothing.
        onet.accept(
            ClusterId(1),
            msg(4, Dest::Unicast(CoreId(56)), MessageClass::Control),
            0,
        );
        let (out, _) = run(&mut onet, 0, 100);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].at, out[1].at, "independent links run in parallel");
    }

    #[test]
    fn receive_hub_contention_two_flits_per_cycle() {
        // All 3 other hubs send a 10-flit data message to cluster 0
        // simultaneously: 30 flits drain at 2/cycle at the receive hub.
        let t = topo();
        let mut onet = Onet::new(t, 64);
        for (i, src) in [(1u8, 4u16), (2, 8), (3, 12)] {
            onet.accept(
                ClusterId(i),
                msg(src, Dest::Unicast(CoreId(0)), MessageClass::Data),
                0,
            );
        }
        let (out, end) = run(&mut onet, 0, 300);
        assert_eq!(out.len(), 3);
        // lower bound: 30 flits / 2 per cycle = 15 cycles of drain.
        assert!(end >= 15, "end {end}");
    }

    #[test]
    fn back_pressure_via_reservation() {
        let t = topo();
        let mut onet = Onet::new(t, 64);
        // Fill cluster 0's receive buffer: HUB_RX_CAP=64 flits; 7 data
        // messages (70 flits) cannot all reserve at once.
        for i in 0..4 {
            onet.accept(
                ClusterId(1),
                msg(4 + i, Dest::Unicast(CoreId(i)), MessageClass::Data),
                0,
            );
        }
        for i in 0..3 {
            onet.accept(
                ClusterId(2),
                msg(8 + i, Dest::Unicast(CoreId(i)), MessageClass::Data),
                0,
            );
        }
        // tick a few cycles: senders must not over-reserve.
        for now in 0..5 {
            onet.tick(now);
            assert!(onet.rx[0].reserved_flits <= HUB_RX_CAP);
        }
        let (out, _) = run(&mut onet, 5, 500);
        assert_eq!(out.len(), 7, "all messages eventually delivered");
    }

    #[test]
    fn tx_queue_capacity_respected() {
        let t = topo();
        let mut onet = Onet::new(t, 64);
        #[expect(clippy::cast_possible_truncation, reason = "HUB_TX_CAP is small")]
        for i in 0..HUB_TX_CAP as u16 {
            assert!(onet.can_accept(ClusterId(0)));
            onet.accept(
                ClusterId(0),
                msg(i, Dest::Unicast(CoreId(63)), MessageClass::Control),
                0,
            );
        }
        assert!(!onet.can_accept(ClusterId(0)));
    }

    #[test]
    #[should_panic(expected = "intra-cluster")]
    fn intra_cluster_unicast_rejected() {
        let t = topo();
        let mut onet = Onet::new(t, 64);
        // cores 0 and 1 share cluster 0.
        onet.accept(
            ClusterId(0),
            msg(0, Dest::Unicast(CoreId(1)), MessageClass::Control),
            0,
        );
    }

    #[test]
    fn latency_accounts_injection_time() {
        let t = topo();
        let mut onet = Onet::new(t, 64);
        let m = msg(0, Dest::Unicast(CoreId(63)), MessageClass::Control);
        // injected at cycle 100 (e.g. after an ENet trip), accepted now.
        onet.accept(ClusterId(0), m, 100);
        let mut out = Vec::new();
        let mut now = 200;
        while !onet.is_idle() {
            onet.tick(now);
            onet.drain_deliveries(&mut out);
            now += 1;
        }
        // latency includes the 100.. wait before acceptance
        assert!(out[0].at - 100 >= 100, "latency measured from injection");
        assert_eq!(onet.stats.latency_sum, out[0].at - 100);
    }
}
