//! Cycle-level wormhole electrical mesh.
//!
//! One implementation serves three roles, selected by [`MeshKind`] and by
//! whether hub ports are used:
//!
//! * **EMesh-Pure** — the paper's plain electrical mesh baseline. It has
//!   no multicast hardware: a broadcast is expanded at the source NIC into
//!   `N−1` serialized unicasts (paper §V-B: "EMesh-Pure performs
//!   broadcasts by sending multiple unicast messages in succession").
//! * **EMesh-BCast** — mesh with *router multicast*: a broadcast travels
//!   as XY dimension-order tree: row packets east/west from the source
//!   spawn column packets (and a local copy) at every router they pass;
//!   column packets deliver a local copy at every hop.
//! * **ENet** — the electrical component of ATAC/ATAC+: same mesh, plus a
//!   bounded ejection port into each cluster's hub for ONet-bound traffic.
//!
//! Mechanics (paper Table I): 1-cycle router + 1-cycle link per hop
//! (a forwarded flit becomes visible at the next router 2 cycles later),
//! wormhole flow control with a single virtual channel, XY routing,
//! 4-flit input buffers with credit back-pressure, round-robin switch
//! arbitration. Multicast forks replicate through a per-router
//! *replication queue* — the documented stand-in for the replication VCs
//! real multicast routers provision (it is unbounded, but replica flits
//! still compete cycle-by-cycle for output ports, so contention is
//! modeled; only fork-induced deadlock is excluded by construction).
//!
//! ## Hot-path layout (DESIGN.md §14)
//!
//! Router state is struct-of-arrays: the four input buffers of every
//! router are fixed-capacity rings over one contiguous flit slab
//! (`buf_slab` + `buf_head`/`buf_len` words), and output ownership is a
//! flat `out_owner` word array — the per-cycle inner loop walks small
//! integer arrays instead of chasing `VecDeque` allocations. Route
//! decisions are static under XY routing, so they are made once per flit
//! per hop when the flit crosses the link (stored in the flit) and once
//! per packet at injection (destination coordinates stored in the
//! packet); the arbitration loop never divides. Round-robin candidate
//! order is enumerated arithmetically from the occupancy words — the old
//! per-cycle `src_scratch` rebuild is gone. Each router also maintains a
//! `next_ready` horizon (earliest cycle any of its sources could emit a
//! flit) so [`Mesh::next_event`] can hand the engine a skip-ahead target
//! covering quiet stretches.

// Hot path (atac-audit `HOT_PATH_FILES`): panics and lossy casts need an `#[expect]`.
#![warn(clippy::expect_used, clippy::unwrap_used, clippy::cast_sign_loss)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
// State machine: name every variant, so a new one fails until handled.
#![warn(clippy::wildcard_enum_match_arm)]

use std::collections::VecDeque;

use crate::hubset::HubSet;
use crate::stats::NetStats;
use crate::topology::{Port, Topology};
use crate::types::{ClusterId, CoreId, Cycle, Delivery, Dest, Message};
use atac_trace::{
    occ_bucket, HostProfiler, NetDeliver, NetObsHandle, NetProfile, NetSubPhase, ProbeHandle,
    Subnet, TrafficKind,
};

/// Mesh behaviour for broadcast traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshKind {
    /// No multicast hardware; broadcasts become serialized unicasts.
    Pure,
    /// Router multicast via an XY spanning tree.
    BcastTree,
}

/// Travel direction of a multicast branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    North,
    South,
    East,
    West,
}

impl Dir {
    fn port(self) -> Port {
        match self {
            Dir::North => Port::North,
            Dir::South => Port::South,
            Dir::East => Port::East,
            Dir::West => Port::West,
        }
    }
}

/// How a packet is being steered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// XY to a core, eject at its Local port.
    ToCore(CoreId),
    /// XY to a hub tile, eject at its Hub port into the hub buffer.
    ToHub(CoreId),
    /// Multicast branch sweeping a row; spawns column branches + local
    /// copies at every router it reaches.
    McastRow(Dir),
    /// Multicast branch sweeping a column; spawns a local copy at every
    /// router it reaches.
    McastCol(Dir),
}

/// One packet (the wormhole routing unit).
#[derive(Debug, Clone, Copy)]
struct Packet {
    msg: Message,
    route: Route,
    len: u8,
    /// Destination tile, precomputed at injection so the per-cycle route
    /// decision is a pair of comparisons instead of div/mod. Multicast
    /// branches steer by fixed direction and leave this (0, 0).
    dest_x: u16,
    dest_y: u16,
    inject: Cycle,
}

/// A flit buffered at a router input. Carries everything the arbitration
/// loop needs — packet length and the static output port at *this*
/// router — so servicing a buffered flit touches no other memory.
#[derive(Debug, Clone, Copy)]
struct Flit {
    pkt: u32,
    idx: u8,
    len: u8,
    /// Output port at the router this flit is buffered at: the XY
    /// decision is static, so it is made once when the flit crosses the
    /// link, not re-derived every arbitration cycle.
    port: Port,
    arrival: Cycle,
}

const NO_FLIT: Flit = Flit {
    pkt: 0,
    idx: 0,
    len: 0,
    port: Port::Local,
    arrival: 0,
};

/// A replica or injected flow originating *inside* a router (replication
/// queue / NIC), which emits its packet's flits one per cycle starting at
/// `ready` (the cycle the forking tail actually arrives at this router).
#[derive(Debug, Clone, Copy)]
struct Flow {
    pkt: u32,
    sent: u8,
    ready: Cycle,
}

/// Per-cycle "output port already used" scoreboard (one slot per port).
type OutUsed = [bool; 6];

/// Identifies which source inside a router a candidate flit comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// Input buffer for direction port (index 0..4).
    In(usize),
    /// NIC queue head.
    Nic,
    /// Replication queue entry at this index.
    Rep(usize),
}

/// Maximum packets queued at a NIC before `try_send` exerts back-pressure.
const NIC_CAP: usize = 16;
/// Hub ejection buffer capacity in flits.
const HUB_BUF_FLITS: u32 = 64;
/// `out_owner` word meaning "no packet holds this output port".
const NO_OWNER: u32 = u32::MAX;
/// `neighbor` word meaning "mesh edge — no router in that direction".
const NO_NEIGHBOR: u32 = u32::MAX;

/// The cycle-level mesh.
#[derive(Debug)]
pub struct Mesh {
    topo: Topology,
    kind: MeshKind,
    flit_width: u32,
    buffer_depth: usize,
    /// Slab stride per queue: `buffer_depth.next_power_of_two()`, so all
    /// ring slot arithmetic is an AND with [`Mesh::buf_mask`] instead of
    /// a division by the runtime depth. Occupancy is still capped at
    /// `buffer_depth`; the (at most `depth - 1`) surplus slots merely
    /// rotate through the ring unused.
    buf_stride: usize,
    /// `buf_stride - 1` (stride is a power of two).
    buf_mask: usize,

    // ---- struct-of-arrays router state ----
    /// Input-buffer flit slab: queue `q = r*4 + port` rings over slots
    /// `[q*buf_stride, (q+1)*buf_stride)`.
    buf_slab: Vec<Flit>,
    /// Ring head offset per input queue (`r*4 + port`).
    buf_head: Vec<u8>,
    /// Ring occupancy per input queue — this word *is* the credit count
    /// and the arbitration candidate census, maintained on every
    /// enqueue/dequeue rather than rebuilt per cycle.
    buf_len: Vec<u8>,
    /// Output-port ownership words (`r*6 + port`); [`NO_OWNER`] when free
    /// (wormhole allocation).
    out_owner: Vec<u32>,
    /// Replication queues: multicast forks awaiting switch access.
    repq: Vec<VecDeque<Flow>>,
    /// NIC injection queues (packet ids) and head-of-queue progress.
    nicq: Vec<VecDeque<u32>>,
    nic_sent: Vec<u8>,
    /// Per-router next-event horizon: the earliest cycle any source at
    /// this router could emit a flit (buffer-front arrival, NIC
    /// occupancy, replication readiness). Exactly recomputed at the end
    /// of each `tick_router` and min-merged on every deposit, so it is
    /// never late — the skip-ahead contract.
    next_ready: Vec<Cycle>,
    /// Per input queue (`r*4 + port`): first cycle the queue may be
    /// serviced again after a bulk run transfer. A bulk grant moves the
    /// flits the per-cycle switch would have moved over the next `m`
    /// cycles, so the queue is sealed for exactly that window — it stays
    /// in the candidate census (rotation parity) but peeks as empty.
    busy_until: Vec<Cycle>,
    /// Per input queue: packet id whose output port at *this* router is
    /// cached in `run_port` ([`NO_OWNER`] when empty). The head flit of
    /// every packet computes the XY decision once as it crosses the
    /// link; body and tail flits of the same wormhole run reuse it with
    /// zero route recomputation.
    run_port_pkt: Vec<u32>,
    /// Cached output port per input queue (valid iff `run_port_pkt`
    /// matches the packet being pushed).
    run_port: Vec<Port>,
    /// Cached continuation decision per input queue (valid iff
    /// `run_port_pkt` matches): whether the packet continues past this
    /// router. Body and tail flits use it to skip the packet-slab load
    /// entirely — the one random-access read on the per-flit path.
    run_cont: Vec<bool>,
    /// Clusters whose hub ejection buffer holds a completed message —
    /// maintained on push/pop so `is_idle`/`next_event` never scan the
    /// per-cluster queues and the hub consumer visits only these.
    hub_ready: HubSet,

    // ---- precomputed geometry (all per-cycle div/mod hoisted here) ----
    /// Tile coordinates per router.
    coords: Vec<(u16, u16)>,
    /// Neighbouring router per (router, direction port): `r*4 + port`,
    /// [`NO_NEIGHBOR`] at the mesh edge.
    neighbor: Vec<u32>,
    /// Cluster index per router (hub ejection lookup).
    cluster: Vec<u16>,

    packets: Vec<Option<Packet>>,
    free: Vec<u32>,
    /// Routers that may have work this tick, as a bitmap (one bit per
    /// router). Draining set bits word-by-word visits routers in
    /// ascending index order, so deterministic processing order falls
    /// out of the representation — no sort, no dedup flag array.
    active_bits: Vec<u64>,
    deliveries: Vec<Delivery>,
    /// Per-cluster hub ejection: assembled messages (with their original
    /// injection cycle, for end-to-end latency) + flit occupancy.
    hub_out: Vec<VecDeque<(Message, Cycle)>>,
    hub_used: Vec<u32>,
    pub stats: NetStats,
    /// Observability probe (disabled by default; observers only, never
    /// feeds back into routing or timing).
    probe: ProbeHandle,
    /// Host self-profiler; network sub-phase laps fire only under the
    /// `ATAC_NETPROF` knob (one bool branch otherwise).
    prof: HostProfiler,
    /// Cycle-domain network observer (disabled by default; observers
    /// only, never feeds back into routing or timing).
    obs: NetObsHandle,
    /// Whether `obs` is attached — cached so hot-path counter updates are
    /// one local branch instead of a handle query.
    obs_on: bool,
    /// Locally-batched observer counters: the per-router-tick and
    /// per-flit events accumulate into this plain struct (no `RefCell`,
    /// no dynamic dispatch) and cross the observer boundary once per run
    /// via [`Mesh::flush_obs`].
    lobs: NetProfile,
    /// Double buffer for `active_bits`: swapped in each tick, so
    /// deposits during processing land in the *next* tick's set.
    work_bits: Vec<u64>,
    /// Reused completed-replication-index scratch for `tick_router`.
    rep_done_scratch: Vec<usize>,
}

impl Mesh {
    /// Create a mesh network.
    pub fn new(topo: Topology, kind: MeshKind, flit_width: u32, buffer_depth: usize) -> Self {
        let n = topo.cores();
        let mut coords = Vec::with_capacity(n);
        let mut neighbor = vec![NO_NEIGHBOR; n * 4];
        let mut cluster = Vec::with_capacity(n);
        for r in 0..n {
            #[expect(clippy::cast_possible_truncation, reason = "routers ≤ 1024 fit u16")]
            let c = CoreId(r as u16);
            let (x, y) = topo.xy(c);
            coords.push((x, y));
            #[expect(
                clippy::cast_possible_truncation,
                reason = "cluster count ≤ 256 (`Topology::small` asserts it)"
            )]
            cluster.push(topo.cluster_of(c).idx() as u16);
            if y > 0 {
                neighbor[r * 4 + Port::North.idx()] = u32::from(topo.core_at(x, y - 1).0);
            }
            if y + 1 < topo.height {
                neighbor[r * 4 + Port::South.idx()] = u32::from(topo.core_at(x, y + 1).0);
            }
            if x + 1 < topo.width {
                neighbor[r * 4 + Port::East.idx()] = u32::from(topo.core_at(x + 1, y).0);
            }
            if x > 0 {
                neighbor[r * 4 + Port::West.idx()] = u32::from(topo.core_at(x - 1, y).0);
            }
        }
        let buf_stride = buffer_depth.next_power_of_two();
        Mesh {
            topo,
            kind,
            flit_width,
            buffer_depth,
            buf_stride,
            buf_mask: buf_stride - 1,
            buf_slab: vec![NO_FLIT; n * 4 * buf_stride],
            buf_head: vec![0; n * 4],
            buf_len: vec![0; n * 4],
            out_owner: vec![NO_OWNER; n * 6],
            repq: (0..n).map(|_| VecDeque::new()).collect(),
            nicq: (0..n).map(|_| VecDeque::new()).collect(),
            nic_sent: vec![0; n],
            next_ready: vec![Cycle::MAX; n],
            busy_until: vec![0; n * 4],
            run_port_pkt: vec![NO_OWNER; n * 4],
            run_port: vec![Port::Local; n * 4],
            run_cont: vec![false; n * 4],
            hub_ready: HubSet::new(topo.clusters()),
            coords,
            neighbor,
            cluster,
            packets: Vec::new(),
            free: Vec::new(),
            active_bits: vec![0; n.div_ceil(64)],
            deliveries: Vec::new(),
            hub_out: (0..topo.clusters()).map(|_| VecDeque::new()).collect(),
            hub_used: vec![0; topo.clusters()],
            stats: NetStats::default(),
            probe: ProbeHandle::default(),
            prof: HostProfiler::disabled(),
            obs: NetObsHandle::disabled(),
            obs_on: false,
            lobs: NetProfile::new(),
            work_bits: vec![0; n.div_ceil(64)],
            rep_done_scratch: Vec::new(),
        }
    }

    /// Attach an observability probe; mesh deliveries report as
    /// [`Subnet::ENet`].
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    /// Attach a host profiler for network sub-phase attribution
    /// (sub-laps are inert unless it was created with netprof on).
    pub fn set_profiler(&mut self, prof: HostProfiler) {
        self.prof = prof;
    }

    /// Attach a cycle-domain network observer. Per-router/link counters
    /// accumulate locally and reach the observer in one batch per run
    /// ([`Mesh::flush_obs`]); pre-sizing the local arrays here keeps the
    /// hot-path updates plain indexed increments.
    pub fn set_observer(&mut self, obs: NetObsHandle) {
        self.obs_on = obs.is_enabled();
        self.obs = obs;
        if self.obs_on {
            self.lobs = Self::sized_profile(self.topo.cores());
        }
    }

    /// An empty local counter batch with per-router arrays pre-sized.
    fn sized_profile(n: usize) -> NetProfile {
        let mut p = NetProfile::new();
        p.routers.resize(n, atac_trace::RouterObs::default());
        p.link_flits.resize(n * 4, 0);
        p
    }

    /// Hand the locally-batched counters to the attached observer and
    /// reset the batch. Called once per run by the engine, after the
    /// last tick.
    pub fn flush_obs(&mut self) {
        if self.obs_on {
            let part = std::mem::replace(&mut self.lobs, Self::sized_profile(self.topo.cores()));
            self.obs.profile_part(&part);
        }
    }

    /// The topology this mesh spans.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Flit width in bits.
    pub fn flit_width(&self) -> u32 {
        self.flit_width
    }

    /// The mesh flavor (broadcast handling).
    pub fn kind(&self) -> MeshKind {
        self.kind
    }

    #[expect(clippy::cast_possible_truncation, reason = "slab ≤ in-flight packets")]
    fn alloc_packet(&mut self, p: Packet) -> u32 {
        if let Some(id) = self.free.pop() {
            self.packets[id as usize] = Some(p);
            id
        } else {
            // audit: allow(alloc) amortized: packet slab grows to the in-flight high-water mark, then recycles via `free`
            self.packets.push(Some(p));
            (self.packets.len() - 1) as u32
        }
    }

    fn free_packet(&mut self, id: u32) {
        self.packets[id as usize] = None;
        // audit: allow(alloc) amortized: free list capacity tracks the packet slab high-water mark
        self.free.push(id);
    }

    fn activate(&mut self, r: usize) {
        // Branchless and idempotent: setting an already-set bit is a
        // no-op, so deposits need no `is_active` dedup check.
        self.active_bits[r >> 6] |= 1u64 << (r & 63);
    }

    /// Lower `r`'s next-event horizon to `at` (deposits only move it
    /// earlier; `tick_router` recomputes it exactly).
    #[inline]
    fn note_ready(&mut self, r: usize, at: Cycle) {
        if at < self.next_ready[r] {
            self.next_ready[r] = at;
        }
    }

    /// Number of flits a message occupies.
    #[expect(clippy::cast_possible_truncation, reason = "a packet has < 10 flits")]
    fn flits_of(&self, msg: &Message) -> u8 {
        msg.class.flits(self.flit_width) as u8
    }

    /// Packet constructor helper: destination coordinates for routed
    /// packets, (0, 0) for direction-steered multicast branches.
    #[inline]
    fn dest_xy(&self, route: Route) -> (u16, u16) {
        match route {
            Route::ToCore(d) | Route::ToHub(d) => self.coords[d.idx()],
            Route::McastRow(_) | Route::McastCol(_) => (0, 0),
        }
    }

    /// Inject a message. Returns `false` (back-pressure) if the source NIC
    /// queue is full; the caller must retry later.
    ///
    /// Self-sends (unicast to the sending core) bypass the network with a
    /// 1-cycle latency, as a real NIC loopback would.
    pub fn try_send(&mut self, msg: Message, now: Cycle) -> bool {
        match msg.dest {
            Dest::Unicast(dst) if dst == msg.src => {
                self.stats.unicast_messages += 1;
                self.stats.unicast_received += 1;
                self.stats.latency_sum += 1;
                self.stats.latency_count += 1;
                self.probe.net_deliver(&NetDeliver {
                    subnet: Subnet::ENet,
                    kind: TrafficKind::Unicast,
                    src: u32::from(msg.src.0),
                    dst: u32::from(dst.0),
                    inject: now,
                    at: now + 1,
                });
                // audit: allow(alloc) consumer-drained: `drain_deliveries` hands the buffer back every cycle
                self.deliveries.push(Delivery {
                    msg,
                    receiver: dst,
                    at: now + 1,
                });
                true
            }
            Dest::Unicast(dst) => {
                if self.nicq[msg.src.idx()].len() >= NIC_CAP {
                    return false;
                }
                let len = self.flits_of(&msg);
                let route = Route::ToCore(dst);
                let (dest_x, dest_y) = self.dest_xy(route);
                let id = self.alloc_packet(Packet {
                    msg,
                    route,
                    len,
                    dest_x,
                    dest_y,
                    inject: now,
                });
                // audit: allow(alloc) bounded: NIC queue capped at NIC_CAP by the check above
                self.nicq[msg.src.idx()].push_back(id);
                self.note_ready(msg.src.idx(), now);
                self.activate(msg.src.idx());
                self.stats.unicast_messages += 1;
                self.stats.flits_injected += u64::from(len);
                true
            }
            Dest::Broadcast => match self.kind {
                MeshKind::Pure => self.inject_expanded_broadcast(msg, now),
                MeshKind::BcastTree => self.inject_tree_broadcast(msg, now),
            },
        }
    }

    /// Inject a message destined for the *hub* of the sender's cluster
    /// (ENet role inside ATAC). Same back-pressure contract as
    /// [`Mesh::try_send`].
    pub fn try_send_to_hub(&mut self, msg: Message, now: Cycle) -> bool {
        let cluster = self.topo.cluster_of(msg.src);
        let hub_tile = self.topo.hub_core(cluster);
        if self.nicq[msg.src.idx()].len() >= NIC_CAP {
            return false;
        }
        let len = self.flits_of(&msg);
        let route = Route::ToHub(hub_tile);
        let (dest_x, dest_y) = self.dest_xy(route);
        let id = self.alloc_packet(Packet {
            msg,
            route,
            len,
            dest_x,
            dest_y,
            inject: now,
        });
        // audit: allow(alloc) bounded: NIC queue capped at NIC_CAP by the check above
        self.nicq[msg.src.idx()].push_back(id);
        self.note_ready(msg.src.idx(), now);
        self.activate(msg.src.idx());
        self.stats.flits_injected += u64::from(len);
        true
    }

    /// Pop a message that finished ejecting into a cluster's hub buffer,
    /// along with its original injection cycle.
    pub fn pop_hub_out(&mut self, cluster: ClusterId) -> Option<(Message, Cycle)> {
        let m = self.hub_out[cluster.idx()].pop_front();
        if let Some((ref msg, _)) = m {
            let len = u32::from(self.flits_of(msg));
            self.hub_used[cluster.idx()] -= len;
            if self.hub_out[cluster.idx()].is_empty() {
                self.hub_ready.remove(cluster.idx());
            }
        }
        m
    }

    /// Peek whether a hub buffer holds a completed message.
    pub fn hub_out_ready(&self, cluster: ClusterId) -> bool {
        !self.hub_out[cluster.idx()].is_empty()
    }

    /// The clusters whose hub buffer holds a completed message, so the
    /// hub consumer visits only those (none on hubless ticks).
    pub fn hubs_ready(&self) -> &HubSet {
        &self.hub_ready
    }

    /// EMesh-Pure: a broadcast becomes `N−1` unicast packets queued at the
    /// source NIC (bypassing the NIC cap — the expansion is a protocol
    /// obligation, and back-pressure still applies to all later sends).
    fn inject_expanded_broadcast(&mut self, msg: Message, now: Cycle) -> bool {
        self.stats.broadcast_messages += 1;
        let len = self.flits_of(&msg);
        #[expect(clippy::cast_possible_truncation, reason = "cores ≤ 1024 fit u16")]
        for c in 0..self.topo.cores() as u16 {
            let dst = CoreId(c);
            if dst == msg.src {
                continue;
            }
            let route = Route::ToCore(dst);
            let (dest_x, dest_y) = self.dest_xy(route);
            let id = self.alloc_packet(Packet {
                msg,
                route,
                len,
                dest_x,
                dest_y,
                inject: now,
            });
            // audit: allow(alloc) bounded: broadcast expansion is a protocol obligation capped at cores−1 packets
            self.nicq[msg.src.idx()].push_back(id);
            self.stats.flits_injected += u64::from(len);
        }
        self.note_ready(msg.src.idx(), now);
        self.activate(msg.src.idx());
        true
    }

    /// EMesh-BCast: seed the XY multicast tree (≤ 4 branch packets placed
    /// in the source router's replication queue, as source-router
    /// replication hardware would).
    fn inject_tree_broadcast(&mut self, msg: Message, now: Cycle) -> bool {
        // Broadcast replication happens in the router, but the message
        // still enters through the single NIC port; apply the same cap.
        if self.nicq[msg.src.idx()].len() >= NIC_CAP {
            return false;
        }
        self.stats.broadcast_messages += 1;
        let len = self.flits_of(&msg);
        let (x, y) = self.coords[msg.src.idx()];
        // At most one branch per compass direction: a fixed array keeps
        // this per-broadcast path allocation-free.
        let branches: [Option<Route>; 4] = [
            (x + 1 < self.topo.width).then_some(Route::McastRow(Dir::East)),
            (x > 0).then_some(Route::McastRow(Dir::West)),
            (y > 0).then_some(Route::McastCol(Dir::North)),
            (y + 1 < self.topo.height).then_some(Route::McastCol(Dir::South)),
        ];
        for route in branches.into_iter().flatten() {
            let id = self.alloc_packet(Packet {
                msg,
                route,
                len,
                dest_x: 0,
                dest_y: 0,
                inject: now,
            });
            // audit: allow(alloc) bounded: replication queue fan-out ≤ 4 branches per broadcast
            self.repq[msg.src.idx()].push_back(Flow {
                pkt: id,
                sent: 0,
                ready: now,
            });
            self.stats.flits_injected += u64::from(len);
        }
        self.note_ready(msg.src.idx(), now);
        self.activate(msg.src.idx());
        true
    }

    /// XY dimension-order step from router `r` toward precomputed
    /// destination tile `(dx, dy)` — X first, then Y, `Local` on arrival.
    /// Pure comparisons over the coordinate table; matches
    /// [`crate::topology::xy_route`] decision-for-decision.
    #[inline]
    fn xy_toward(&self, r: usize, dx: u16, dy: u16) -> Port {
        let (x, y) = self.coords[r];
        if dx > x {
            Port::East
        } else if dx < x {
            Port::West
        } else if dy > y {
            Port::South
        } else if dy < y {
            Port::North
        } else {
            Port::Local
        }
    }

    /// The output port a packet wants at router `r`.
    fn route_port(&self, pkt: &Packet, r: usize) -> Port {
        match pkt.route {
            Route::ToCore(_) => self.xy_toward(r, pkt.dest_x, pkt.dest_y),
            Route::ToHub(_) => {
                if self.coords[r] == (pkt.dest_x, pkt.dest_y) {
                    Port::Hub
                } else {
                    self.xy_toward(r, pkt.dest_x, pkt.dest_y)
                }
            }
            Route::McastRow(d) | Route::McastCol(d) => d.port(),
        }
    }

    /// Whether the network holds any traffic.
    pub fn is_idle(&self) -> bool {
        if cfg!(debug_assertions) {
            for (cl, q) in self.hub_out.iter().enumerate() {
                assert_eq!(
                    self.hub_ready.contains(cl),
                    !q.is_empty(),
                    "hub set at {cl}"
                );
            }
        }
        self.hub_ready.is_empty() && self.active_bits.iter().all(|&w| w == 0)
    }

    /// Earliest future cycle at which this mesh could move a flit, change
    /// observable state, or surface hub output — or `None` when idle.
    ///
    /// The per-router `next_ready` horizons are exact after each
    /// `tick_router` and only ever lowered by deposits, so the returned
    /// cycle is never *later* than the true next event; an early return
    /// merely costs a no-op tick. A ready-but-blocked flit keeps its
    /// router's horizon at `now`, so the mesh never skips over cycles in
    /// which arbitration or credit state could evolve.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.hub_ready.is_empty() {
            return Some(now + 1); // the hub consumer may pop any cycle
        }
        let mut t = Cycle::MAX;
        let mut any = false;
        for (wi, &word) in self.active_bits.iter().enumerate() {
            let mut w = word;
            any |= w != 0;
            while w != 0 {
                let r = (wi << 6) + w.trailing_zeros() as usize;
                w &= w - 1;
                t = t.min(self.next_ready[r]);
            }
        }
        if t == Cycle::MAX {
            // Routers activated by an edge-terminating multicast flit may
            // hold no work; one conservative tick retires them.
            return if any { Some(now + 1) } else { None };
        }
        Some(t.max(now + 1))
    }

    /// Move deliveries accumulated since the last call into `out`.
    pub fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.deliveries);
    }

    /// Does router `r` hold any flits, replicas or queued injections?
    #[inline]
    fn has_work(&self, r: usize) -> bool {
        !self.repq[r].is_empty()
            || !self.nicq[r].is_empty()
            || self.buf_len[r * 4..r * 4 + 4].iter().any(|&l| l != 0)
    }

    /// Advance the mesh by one cycle.
    pub fn tick(&mut self, now: Cycle) {
        // Swap the live bitmap into the `work_bits` double buffer:
        // draining its set bits word-by-word visits routers in ascending
        // index order (deterministic), while deposits made during
        // processing — including into routers earlier in this very pass
        // — land in the fresh `active_bits` for the next tick.
        std::mem::swap(&mut self.active_bits, &mut self.work_bits);
        self.prof.net_lap(NetSubPhase::SkipScan);
        for wi in 0..self.work_bits.len() {
            let mut w = self.work_bits[wi];
            self.work_bits[wi] = 0;
            while w != 0 {
                let r = (wi << 6) + w.trailing_zeros() as usize;
                w &= w - 1;
                // Horizon gate: a router whose every source is strictly
                // in the future would tick as a pure no-op (`next_ready`
                // is never late), so skip the whole service pass; the
                // reactivation check below keeps it on the active set.
                if self.next_ready[r] <= now {
                    self.tick_router(r, now);
                }
                // `next_ready[r] != MAX` ⇔ `has_work(r)` at this point:
                // a ticked router just recomputed its horizon exactly, a
                // gated router kept its work (only a router's own tick
                // consumes it), and every deposit path min-merges a
                // finite horizon via `note_ready`. Checking right after
                // the router's own slot is equivalent to a separate
                // post-pass sweep: later routers can only *lower* this
                // horizon, and any deposit they make calls `activate`
                // itself.
                debug_assert_eq!(self.next_ready[r] != Cycle::MAX, self.has_work(r));
                if self.next_ready[r] != Cycle::MAX {
                    self.activate(r);
                }
            }
        }
        self.prof.net_lap(NetSubPhase::SkipScan);
    }

    /// Front flit of input queue `q = r*4 + port`, if any.
    #[inline]
    fn buf_front(&self, q: usize) -> Option<&Flit> {
        if self.buf_len[q] == 0 {
            None
        } else {
            Some(&self.buf_slab[q * self.buf_stride + self.buf_head[q] as usize])
        }
    }

    /// Enqueue a flit on input queue `q`; the caller holds the credit
    /// (checked `buf_len < buffer_depth`).
    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "buffer depth ≤ 255")]
    fn buf_push(&mut self, q: usize, f: Flit) {
        let len = self.buf_len[q] as usize;
        debug_assert!(len < self.buffer_depth, "credit check precedes enqueue");
        let slot = (self.buf_head[q] as usize + len) & self.buf_mask;
        self.buf_slab[q * self.buf_stride + slot] = f;
        self.buf_len[q] = (len + 1) as u8;
    }

    /// Dequeue the front flit of input queue `q`.
    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "buffer depth ≤ 255")]
    fn buf_pop(&mut self, q: usize) {
        debug_assert!(self.buf_len[q] > 0);
        self.buf_head[q] = ((self.buf_head[q] as usize + 1) & self.buf_mask) as u8;
        self.buf_len[q] -= 1;
    }

    /// Peek the next flit a source would emit: (pkt, idx, len, head, out
    /// port). Buffered flits carry their own length and port; NIC and
    /// replication flows route through the coordinate tables.
    fn peek(&self, r: usize, src: Src, now: Cycle) -> Option<(u32, u8, u8, bool, Port)> {
        match src {
            Src::In(i) => {
                let q = r * 4 + i;
                // A queue inside a bulk-run window has already moved the
                // flits the per-cycle switch would move before
                // `busy_until`; it stays in the census but emits nothing.
                if self.busy_until[q] > now {
                    return None;
                }
                let f = self.buf_front(q)?;
                if f.arrival > now {
                    return None;
                }
                Some((f.pkt, f.idx, f.len, f.idx == 0, f.port))
            }
            Src::Nic => {
                let &pkt = self.nicq[r].front()?;
                let p = self.packets[pkt as usize].as_ref()?;
                let idx = self.nic_sent[r];
                Some((pkt, idx, p.len, idx == 0, self.route_port(p, r)))
            }
            Src::Rep(i) => {
                let flow = self.repq[r].get(i)?;
                if flow.ready > now {
                    return None;
                }
                let p = self.packets[flow.pkt as usize].as_ref()?;
                Some((
                    flow.pkt,
                    flow.sent,
                    p.len,
                    flow.sent == 0,
                    self.route_port(p, r),
                ))
            }
        }
    }

    fn tick_router(&mut self, r: usize, now: Cycle) {
        // Candidate census straight from the occupancy words (maintained
        // on enqueue/dequeue — no scratch list is ever rebuilt). The
        // snapshot keeps round-robin positions stable while queues drain
        // mid-loop; no source can *appear* at this router during its own
        // service loop (deposits only target neighbours). The occupancy
        // sum for the observer falls out of the same four loads.
        let mut mask: u8 = 0;
        let mut occ = 0usize;
        for p in 0..4 {
            let l = self.buf_len[r * 4 + p];
            occ += l as usize;
            if l != 0 {
                mask |= 1 << p;
            }
        }
        if self.obs_on {
            let ro = &mut self.lobs.routers[r];
            ro.active_cycles += 1;
            ro.occupancy_sum += occ as u64;
            ro.occupancy_hist[occ_bucket(occ)] += 1;
        }
        let has_nic = !self.nicq[r].is_empty();
        let nrep = self.repq[r].len();
        let total = mask.count_ones() as usize + usize::from(has_nic) + nrep;
        self.prof.net_lap(NetSubPhase::SwitchArb);
        if total == 0 {
            self.next_ready[r] = Cycle::MAX;
            self.prof.net_lap(NetSubPhase::QueueOps);
            return;
        }
        // Lone-buffered-candidate fast path — the steady-state of one
        // wormhole stream crossing an otherwise quiet router, and by far
        // the most common census. Rotation over one candidate is the
        // identity and the post-service horizon can only come from that
        // same queue (the other queues, the NIC and the replication list
        // were empty at census, and a router's own service deposits only
        // into neighbours), so the bitset walk and the four-queue
        // horizon scan collapse to a single service call and one
        // buffer-front probe. Bit-identical to the general path below.
        if total == 1 && mask != 0 {
            let i = mask.trailing_zeros() as usize;
            let mut out_used = [false; 6];
            let mut rep_done = std::mem::take(&mut self.rep_done_scratch);
            let granted = self.service(r, Src::In(i), now, &mut out_used, &mut rep_done);
            self.rep_done_scratch = rep_done;
            if granted && self.obs_on {
                self.lobs.bitset_grants += 1;
            }
            let q = r * 4 + i;
            self.next_ready[r] = match self.buf_front(q) {
                Some(f) => f.arrival.max(self.busy_until[q]),
                None => Cycle::MAX,
            };
            self.prof.net_lap(NetSubPhase::QueueOps);
            return;
        }
        // A lone candidate needs no rotation — and it is the common case
        // by far, so it skips the integer division entirely.
        #[expect(clippy::cast_possible_truncation, reason = "usize is 64-bit on hosts")]
        let rot = if total == 1 {
            0
        } else {
            (now as usize + r) % total
        };
        let mut out_used = [false; 6];
        // Track repq entries that completed, to remove after the loop.
        let mut rep_done = std::mem::take(&mut self.rep_done_scratch);
        // Round-robin service order: canonical candidates In(0..4), Nic,
        // Rep(0..n) rotated left by `rot`. The candidates are packed
        // into one request bitset word — bits 0..4 the input queues
        // (straight from the occupancy mask), bit 4 the NIC, bits 5+i
        // the replication flows — and arbitration walks set bits with
        // `trailing_zeros`: first the bits at canonical positions
        // `rot..total` (the word with its `rot` lowest set bits
        // cleared), then the remaining `rot` low bits. Identical order
        // to the old two-pass positional scan, pinned by the
        // determinism tests. Routers whose replication queue overflows
        // the word (nrep > 59, transient broadcast storms) fall back to
        // the positional scan.
        let mut grants = 0u64;
        if nrep <= u64::BITS as usize - 5 {
            let word: u64 =
                u64::from(mask) | (u64::from(has_nic) << 4) | (((1u64 << nrep) - 1) << 5);
            debug_assert_eq!(word.count_ones() as usize, total);
            let mut rest = word;
            for _ in 0..rot {
                rest &= rest - 1; // clear the lowest set bit, rot times
            }
            let head = word ^ rest;
            for bits in [rest, head] {
                let mut w = bits;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let src = if b < 4 {
                        Src::In(b)
                    } else if b == 4 {
                        Src::Nic
                    } else {
                        Src::Rep(b - 5)
                    };
                    if self.service(r, src, now, &mut out_used, &mut rep_done) {
                        grants += 1;
                    }
                }
            }
            if self.obs_on {
                self.lobs.bitset_grants += grants;
            }
        } else {
            // Positional fallback: pass 0 serves canonical positions
            // `rot..total`, pass 1 serves `0..rot`.
            for pass in 0..2u8 {
                let serve_from = pass == 0;
                let mut pos = 0usize;
                for p in 0..4 {
                    if mask & (1 << p) != 0 {
                        if (pos >= rot) == serve_from
                            && self.service(r, Src::In(p), now, &mut out_used, &mut rep_done)
                        {
                            grants += 1;
                        }
                        pos += 1;
                    }
                }
                if has_nic {
                    if (pos >= rot) == serve_from
                        && self.service(r, Src::Nic, now, &mut out_used, &mut rep_done)
                    {
                        grants += 1;
                    }
                    pos += 1;
                }
                for i in 0..nrep {
                    if (pos >= rot) == serve_from
                        && self.service(r, Src::Rep(i), now, &mut out_used, &mut rep_done)
                    {
                        grants += 1;
                    }
                    pos += 1;
                }
            }
            if self.obs_on {
                self.lobs.scalar_grants += grants;
            }
        }

        rep_done.sort_unstable_by(|a, b| b.cmp(a));
        for &i in &rep_done {
            self.repq[r].remove(i);
        }
        rep_done.clear();
        self.rep_done_scratch = rep_done;

        // Exact next-event horizon for this router: earliest buffer-front
        // arrival, NIC readiness (a queued NIC packet is always ready),
        // earliest replication readiness.
        let mut horizon = Cycle::MAX;
        for p in 0..4 {
            let q = r * 4 + p;
            if let Some(f) = self.buf_front(q) {
                // A queue sealed by a bulk run cannot emit before its
                // window closes, whatever its front flit's arrival.
                horizon = horizon.min(f.arrival.max(self.busy_until[q]));
            }
        }
        if !self.nicq[r].is_empty() {
            horizon = horizon.min(now);
        }
        for flow in &self.repq[r] {
            horizon = horizon.min(flow.ready);
        }
        self.next_ready[r] = horizon;
        self.prof.net_lap(NetSubPhase::QueueOps);
    }

    /// Try to move one flit from `src` through router `r`'s switch — one
    /// iteration of the round-robin service loop. Returns whether a
    /// grant moved anything (one bulk run counts once).
    fn service(
        &mut self,
        r: usize,
        src: Src,
        now: Cycle,
        out_used: &mut OutUsed,
        rep_done: &mut Vec<usize>,
    ) -> bool {
        let Some((pkt_id, idx, len, is_head, out)) = self.peek(r, src, now) else {
            return false;
        };
        let is_tail = idx + 1 == len;
        let oi = out.idx();
        self.prof.net_lap(NetSubPhase::RouteCompute);
        if out_used[oi] {
            return false;
        }
        // Switch allocation (wormhole: the head claims the output,
        // the tail releases it).
        let owner = self.out_owner[r * 6 + oi];
        if owner == pkt_id {
            // This packet already holds the port; keep streaming.
        } else if owner != NO_OWNER {
            return false; // output held by another packet
        } else {
            if !is_head {
                // A body flit whose allocation was lost can only
                // happen through a bug; wormhole keeps ownership.
                debug_assert!(false, "body flit without allocation");
                return false;
            }
            self.out_owner[r * 6 + oi] = pkt_id;
            self.stats.arbitrations += 1;
        }
        self.prof.net_lap(NetSubPhase::SwitchArb);

        // Packet-granular fast path: a buffered body flit streaming an
        // owned direction port may pull its whole arrival-eligible run
        // through the switch in this one grant (exactly the flits the
        // per-cycle loop would move over the window it seals).
        if !is_head && !is_tail {
            if let (Src::In(i), Port::North | Port::South | Port::East | Port::West) = (src, out) {
                if self.try_forward_run(r, i, out, pkt_id, len, now).is_some() {
                    out_used[oi] = true;
                    self.prof.net_lap(NetSubPhase::QueueOps);
                    return true;
                }
            }
        }

        // Can the flit actually move?
        let moved = match out {
            Port::Local => {
                self.deliver_flit(pkt_id, is_tail, now);
                true
            }
            Port::Hub => self.eject_to_hub(pkt_id, r, is_tail),
            Port::North | Port::South | Port::East | Port::West => {
                self.forward_flit(r, out, pkt_id, idx, len, is_tail, now)
            }
        };
        if !moved {
            return false;
        }
        out_used[oi] = true;
        self.stats.xbar_traversals += 1;
        if self.obs_on {
            self.lobs.routers[r].flits_routed += 1;
            if oi < 4 {
                self.lobs.link_flits[r * 4 + oi] += 1;
            }
            self.lobs.run_len_hist[0] += 1; // single-flit grant
        }

        // Consume from the source.
        match src {
            Src::In(i) => {
                self.buf_pop(r * 4 + i);
                self.stats.buffer_reads += 1;
            }
            Src::Nic => {
                if is_tail {
                    self.nicq[r].pop_front();
                    self.nic_sent[r] = 0;
                } else {
                    self.nic_sent[r] += 1;
                }
            }
            Src::Rep(i) => {
                if is_tail {
                    // audit: allow(alloc) amortized: reused scratch buffer at steady-state capacity
                    rep_done.push(i);
                } else {
                    self.repq[r][i].sent += 1;
                }
            }
        }
        if is_tail {
            self.out_owner[r * 6 + oi] = NO_OWNER;
        }
        self.prof.net_lap(NetSubPhase::QueueOps);
        true
    }

    /// Bulk body-run transfer: move the arrival-eligible prefix of the
    /// wormhole run at the front of input queue `i` through router `r`'s
    /// switch in one grant — a slab-to-slab copy instead of `m` per-flit
    /// ring pushes across `m` router ticks. Returns the run length, or
    /// `None` when the run is not bulk-eligible (the caller falls back
    /// to the per-flit path).
    ///
    /// Exact per-cycle equivalence, flit by flit: the `j`-th moved flit
    /// would cross the switch at cycle `now + j` (ownership blocks every
    /// competitor for this output; arrival eligibility is checked per
    /// flit; `m` never exceeds the downstream credit in hand, which only
    /// grows), so it is pushed with the arrival stamp `now + j + 2` the
    /// per-cycle loop would give it. The source queue is sealed via
    /// `busy_until` for exactly the window the flits would have occupied
    /// and keeps ≥ 1 flit (`m ≤ len − 1`), so the candidate census —
    /// and with it the round-robin rotation — is unchanged on every
    /// intermediate cycle. Head flits (port claim), tail flits (port
    /// release, multicast spawns) and ejection ports always take the
    /// per-cycle path, so allocation timing is untouched.
    fn try_forward_run(
        &mut self,
        r: usize,
        i: usize,
        out: Port,
        pkt_id: u32,
        len: u8,
        now: Cycle,
    ) -> Option<usize> {
        let oi = out.idx();
        let nri = self.neighbor[r * 4 + oi];
        debug_assert!(nri != NO_NEIGHBOR, "XY routing never walks off the edge");
        let nri = nri as usize;
        let q_src = r * 4 + i;
        let q_dst = nri * 4 + (oi ^ 1);
        // The head of this run already crossed into `q_dst` and cached
        // its continuation + XY decision there (ownership of this output
        // means nothing else touched the entry since), so body flits
        // recompute neither and never load the packet slab.
        let (continues, port) = if self.run_port_pkt[q_dst] == pkt_id {
            (self.run_cont[q_dst], self.run_port[q_dst])
        } else {
            #[expect(clippy::expect_used, reason = "flit refs keep the slab entry live")]
            let pkt = self.packets[pkt_id as usize].expect("live packet");
            let cont = self.continues_at(&pkt, nri);
            let p = if cont {
                self.route_port(&pkt, nri)
            } else {
                Port::Local // never read: non-continuing flits are not buffered
            };
            (cont, p)
        };
        if !continues {
            return None; // edge-terminating multicast: per-flit link walk
        }
        let k = usize::from(self.buf_len[q_src]);
        let free = self.buffer_depth - usize::from(self.buf_len[q_dst]);
        // ≥1 flit stays behind (census parity); never outrun the credit
        // in hand; head/tail and not-yet-arrived flits stop the walk.
        let limit = (k - 1).min(free);
        if limit < 2 {
            return None;
        }
        let base = q_src * self.buf_stride;
        let head = usize::from(self.buf_head[q_src]);
        let mut m = 0usize;
        while m < limit {
            let f = &self.buf_slab[base + ((head + m) & self.buf_mask)];
            if f.pkt != pkt_id || f.idx + 1 == f.len || f.arrival > now + m as Cycle {
                break;
            }
            m += 1;
        }
        if m < 2 {
            return None; // a single flit is exactly the per-flit path
        }
        self.prof.net_lap(NetSubPhase::Credit);
        let dst_base = q_dst * self.buf_stride;
        let dst_head = usize::from(self.buf_head[q_dst]);
        let dst_len = usize::from(self.buf_len[q_dst]);
        for j in 0..m {
            let f = self.buf_slab[base + ((head + j) & self.buf_mask)];
            let slot = (dst_head + dst_len + j) & self.buf_mask;
            self.buf_slab[dst_base + slot] = Flit {
                pkt: pkt_id,
                idx: f.idx,
                len,
                port,
                arrival: now + j as Cycle + 2,
            };
        }
        #[expect(clippy::cast_possible_truncation, reason = "bounded by depth ≤ 255")]
        {
            self.buf_head[q_src] = ((head + m) & self.buf_mask) as u8;
            self.buf_len[q_src] -= m as u8;
            self.buf_len[q_dst] = (dst_len + m) as u8;
        }
        self.busy_until[q_src] = now + m as Cycle;
        self.stats.buffer_reads += m as u64;
        self.stats.buffer_writes += m as u64;
        self.stats.link_traversals += m as u64;
        self.stats.xbar_traversals += m as u64;
        self.note_ready(nri, now + 2);
        self.activate(nri);
        if self.obs_on {
            self.lobs.routers[r].flits_routed += m as u64;
            self.lobs.link_flits[r * 4 + oi] += m as u64;
            self.lobs.run_len_hist[atac_trace::run_bucket(m)] += 1;
        }
        Some(m)
    }

    /// Forward a flit out a direction port into the neighbouring router's
    /// opposite input buffer (1-cycle router + 1-cycle link → visible at
    /// `now + 2`). Returns `false` when the downstream buffer is full.
    #[allow(clippy::too_many_arguments)]
    fn forward_flit(
        &mut self,
        r: usize,
        out: Port,
        pkt_id: u32,
        idx: u8,
        len: u8,
        is_tail: bool,
        now: Cycle,
    ) -> bool {
        let oi = out.idx();
        let nri = self.neighbor[r * 4 + oi];
        debug_assert!(nri != NO_NEIGHBOR, "XY routing never walks off the edge");
        let nri = nri as usize;
        // Opposite ports pair by index (N↔S = 0↔1, E↔W = 2↔3).
        let q = nri * 4 + (oi ^ 1);
        // The head flit resolves continuation and the XY decision once
        // per hop and caches both on the downstream queue; body and tail
        // flits of the same wormhole run reuse them and skip the
        // packet-slab load entirely (upstream ownership means no other
        // packet's flits interleave into this queue until the tail
        // passes, and a fresh head always refreshes the cache before its
        // body arrives, so a non-head hit is always this packet's entry).
        let (continues, port) = if idx == 0 {
            #[expect(clippy::expect_used, reason = "flit refs keep the slab entry live")]
            let pkt = self.packets[pkt_id as usize].expect("live packet");
            let cont = self.continues_at(&pkt, nri);
            let p = if cont {
                self.route_port(&pkt, nri)
            } else {
                Port::Local // never read: non-continuing flits are not buffered
            };
            self.run_port_pkt[q] = pkt_id;
            self.run_port[q] = p;
            self.run_cont[q] = cont;
            (cont, p)
        } else if self.run_port_pkt[q] == pkt_id {
            (self.run_cont[q], self.run_port[q])
        } else {
            #[expect(clippy::expect_used, reason = "flit refs keep the slab entry live")]
            let pkt = self.packets[pkt_id as usize].expect("live packet");
            let cont = self.continues_at(&pkt, nri);
            let p = if cont {
                self.route_port(&pkt, nri)
            } else {
                Port::Local
            };
            (cont, p)
        };
        if continues && usize::from(self.buf_len[q]) >= self.buffer_depth {
            if self.obs_on {
                self.lobs.routers[r].credit_stall_cycles += 1;
            }
            self.prof.net_lap(NetSubPhase::Credit);
            return false;
        }
        self.prof.net_lap(NetSubPhase::Credit);
        self.stats.link_traversals += 1;
        if continues {
            self.buf_push(
                q,
                Flit {
                    pkt: pkt_id,
                    idx,
                    len,
                    port,
                    arrival: now + 2,
                },
            );
            self.stats.buffer_writes += 1;
            self.note_ready(nri, now + 2);
        }
        if is_tail {
            self.on_tail_arrival(pkt_id, nri, continues, now + 2);
        }
        self.activate(nri);
        true
    }

    /// Does this packet continue past router `at` (i.e. should its flits
    /// be buffered there)? Multicast branches die at the mesh edge; their
    /// flits still traverse the final link but are not re-buffered.
    fn continues_at(&self, pkt: &Packet, at: usize) -> bool {
        let (x, y) = self.coords[at];
        match pkt.route {
            Route::ToCore(_) | Route::ToHub(_) => true, // terminate via ejection ports
            Route::McastRow(Dir::East) => x + 1 < self.topo.width,
            Route::McastRow(Dir::West) => x > 0,
            Route::McastCol(Dir::North) => y > 0,
            Route::McastCol(Dir::South) => y + 1 < self.topo.height,
            Route::McastRow(_) | Route::McastCol(_) => unreachable!("invalid multicast direction"),
        }
    }

    /// Handle a multicast tail arriving at router `at` (the arrival takes
    /// effect at `ready`): spawn the local copy (and, for row branches,
    /// the column branches); free the packet if the branch ends here.
    fn on_tail_arrival(&mut self, pkt_id: u32, at: usize, continues: bool, ready: Cycle) {
        #[expect(clippy::expect_used, reason = "flit refs keep the slab entry live")]
        let pkt = self.packets[pkt_id as usize].expect("live packet");
        let (_, y) = self.coords[at];
        match pkt.route {
            Route::ToCore(_) | Route::ToHub(_) => {}
            Route::McastRow(_) => {
                #[expect(clippy::cast_possible_truncation, reason = "routers ≤ 1024 fit u16")]
                let here = CoreId(at as u16);
                self.spawn(pkt_id, at, Route::ToCore(here), ready);
                if y > 0 {
                    self.spawn(pkt_id, at, Route::McastCol(Dir::North), ready);
                }
                if y + 1 < self.topo.height {
                    self.spawn(pkt_id, at, Route::McastCol(Dir::South), ready);
                }
                if !continues {
                    self.free_packet(pkt_id);
                }
            }
            Route::McastCol(_) => {
                #[expect(clippy::cast_possible_truncation, reason = "routers ≤ 1024 fit u16")]
                let here = CoreId(at as u16);
                self.spawn(pkt_id, at, Route::ToCore(here), ready);
                if !continues {
                    self.free_packet(pkt_id);
                }
            }
        }
    }

    fn spawn(&mut self, parent: u32, at: usize, route: Route, ready: Cycle) {
        #[expect(clippy::expect_used, reason = "parent held live until children spawn")]
        let p = self.packets[parent as usize].expect("live packet");
        let (dest_x, dest_y) = self.dest_xy(route);
        let id = self.alloc_packet(Packet {
            route,
            dest_x,
            dest_y,
            ..p
        });
        // audit: allow(alloc) bounded: replication queue fan-out ≤ 3 spawns per passing tail
        self.repq[at].push_back(Flow {
            pkt: id,
            sent: 0,
            ready,
        });
        self.note_ready(at, ready);
        self.activate(at);
    }

    /// Deliver one flit at the local port; on the tail, record the
    /// delivery and free the packet.
    fn deliver_flit(&mut self, pkt_id: u32, is_tail: bool, now: Cycle) {
        if !is_tail {
            return;
        }
        #[expect(clippy::expect_used, reason = "flit refs keep the slab entry live")]
        let pkt = self.packets[pkt_id as usize].expect("live packet");
        let receiver = match pkt.route {
            Route::ToCore(d) => d,
            Route::ToHub(_) | Route::McastRow(_) | Route::McastCol(_) => {
                unreachable!("only ToCore ejects locally")
            }
        };
        let kind = match pkt.msg.dest {
            Dest::Unicast(_) => {
                self.stats.unicast_received += 1;
                TrafficKind::Unicast
            }
            Dest::Broadcast => {
                self.stats.broadcast_received += 1;
                TrafficKind::Broadcast
            }
        };
        self.stats.latency_sum += now + 1 - pkt.inject;
        self.stats.latency_count += 1;
        self.probe.net_deliver(&NetDeliver {
            subnet: Subnet::ENet,
            kind,
            src: u32::from(pkt.msg.src.0),
            dst: u32::from(receiver.0),
            inject: pkt.inject,
            at: now + 1,
        });
        // audit: allow(alloc) consumer-drained: `drain_deliveries` hands the buffer back every cycle
        self.deliveries.push(Delivery {
            msg: pkt.msg,
            receiver,
            at: now + 1,
        });
        self.free_packet(pkt_id);
    }

    /// Eject a flit into the hub buffer of the cluster at router `r`.
    /// Returns `false` when the hub buffer is full (back-pressure).
    fn eject_to_hub(&mut self, pkt_id: u32, r: usize, is_tail: bool) -> bool {
        let cl = usize::from(self.cluster[r]);
        if self.hub_used[cl] >= HUB_BUF_FLITS {
            return false;
        }
        self.hub_used[cl] += 1;
        self.stats.hub_buffer_writes += 1;
        if is_tail {
            #[expect(clippy::expect_used, reason = "flit refs keep the slab entry live")]
            let pkt = self.packets[pkt_id as usize].expect("live packet");
            // audit: allow(alloc) consumer-drained: popped by the hub arbiter every cycle via `pop_hub_out`
            self.hub_out[cl].push_back((pkt.msg, pkt.inject));
            self.hub_ready.insert(cl);
            self.free_packet(pkt_id);
        }
        true
    }
}
#[cfg(test)]
#[path = "mesh_golden.rs"]
#[allow(clippy::cast_possible_truncation, reason = "test-only reference model")]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MessageClass;

    fn msg(src: u16, dest: Dest) -> Message {
        Message {
            src: CoreId(src),
            dest,
            class: MessageClass::Control,
            token: 0,
        }
    }

    fn run_until_idle(mesh: &mut Mesh, start: Cycle, max: u64) -> (Vec<Delivery>, Cycle) {
        let mut out = Vec::new();
        let mut now = start;
        while !mesh.is_idle() {
            mesh.tick(now);
            mesh.drain_deliveries(&mut out);
            now += 1;
            assert!(now - start < max, "mesh did not drain in {max} cycles");
        }
        (out, now)
    }

    #[test]
    fn unicast_reaches_destination() {
        let topo = Topology::small(8, 4);
        let mut mesh = Mesh::new(topo, MeshKind::Pure, 64, 4);
        let m = msg(0, Dest::Unicast(CoreId(63)));
        assert!(mesh.try_send(m, 0));
        let (out, _) = run_until_idle(&mut mesh, 0, 1000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].receiver, CoreId(63));
        assert_eq!(out[0].msg, m);
    }

    #[test]
    fn unicast_latency_matches_hop_count() {
        // 2 cycles per hop + serialization (2 flits) + ejection.
        let topo = Topology::small(8, 4);
        let mut mesh = Mesh::new(topo, MeshKind::Pure, 64, 4);
        let dst = topo.core_at(7, 7); // 14 hops from (0,0)
        assert!(mesh.try_send(msg(0, Dest::Unicast(dst)), 0));
        let (out, _) = run_until_idle(&mut mesh, 0, 1000);
        let lat = out[0].at;
        // zero-load: ~2 cycles/hop + flits + eject = 14*2 + 2 + small
        assert!(lat >= 28, "latency {lat}");
        assert!(lat <= 36, "latency {lat}");
    }

    #[test]
    fn self_send_bypasses_network() {
        let topo = Topology::small(8, 4);
        let mut mesh = Mesh::new(topo, MeshKind::Pure, 64, 4);
        assert!(mesh.try_send(msg(5, Dest::Unicast(CoreId(5))), 10));
        let mut out = Vec::new();
        mesh.drain_deliveries(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].at, 11);
        assert!(mesh.is_idle());
    }

    #[test]
    fn tree_broadcast_reaches_everyone_once() {
        let topo = Topology::small(8, 4);
        let mut mesh = Mesh::new(topo, MeshKind::BcastTree, 64, 4);
        assert!(mesh.try_send(msg(27, Dest::Broadcast), 0));
        let (out, _) = run_until_idle(&mut mesh, 0, 5000);
        assert_eq!(out.len(), 63, "every core but the source, exactly once");
        let mut seen = [false; 64];
        for d in &out {
            assert!(!seen[d.receiver.idx()], "duplicate to {:?}", d.receiver);
            seen[d.receiver.idx()] = true;
        }
        assert!(!seen[27]);
    }

    #[test]
    fn tree_broadcast_from_corner() {
        let topo = Topology::small(8, 4);
        let mut mesh = Mesh::new(topo, MeshKind::BcastTree, 64, 4);
        assert!(mesh.try_send(msg(0, Dest::Broadcast), 0));
        let (out, _) = run_until_idle(&mut mesh, 0, 5000);
        assert_eq!(out.len(), 63);
    }

    #[test]
    fn pure_broadcast_is_serialized_unicasts() {
        let topo = Topology::small(4, 2);
        let mut mesh = Mesh::new(topo, MeshKind::Pure, 64, 4);
        assert!(mesh.try_send(msg(0, Dest::Broadcast), 0));
        let (out, end) = run_until_idle(&mut mesh, 0, 10_000);
        assert_eq!(out.len(), 15);
        // Serialization: 15 packets × 2 flits from one NIC ≥ 30 cycles.
        assert!(end >= 30, "end {end}");
        assert_eq!(mesh.stats.broadcast_received, 15);
    }

    #[test]
    fn pure_broadcast_much_slower_than_tree() {
        let topo = Topology::small(8, 4);
        let mut pure = Mesh::new(topo, MeshKind::Pure, 64, 4);
        let mut tree = Mesh::new(topo, MeshKind::BcastTree, 64, 4);
        pure.try_send(msg(0, Dest::Broadcast), 0);
        tree.try_send(msg(0, Dest::Broadcast), 0);
        let (_, t_pure) = run_until_idle(&mut pure, 0, 10_000);
        let (_, t_tree) = run_until_idle(&mut tree, 0, 10_000);
        assert!(
            t_pure > 2 * t_tree,
            "pure {t_pure} should be ≫ tree {t_tree}"
        );
    }

    #[test]
    fn hub_ejection_and_pop() {
        let topo = Topology::small(8, 4);
        let mut mesh = Mesh::new(topo, MeshKind::Pure, 64, 4);
        let m = msg(10, Dest::Unicast(CoreId(50))); // dest used by upper layer
        assert!(mesh.try_send_to_hub(m, 0));
        let mut now = 0;
        let cl = topo.cluster_of(CoreId(10));
        let mut got = None;
        while got.is_none() && now < 200 {
            mesh.tick(now);
            got = mesh.pop_hub_out(cl);
            now += 1;
        }
        assert_eq!(got, Some((m, 0)));
        assert!(mesh.stats.hub_buffer_writes >= 2);
    }

    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "NIC_CAP is small")]
    fn nic_back_pressure_eventually_refuses() {
        let topo = Topology::small(4, 2);
        let mut mesh = Mesh::new(topo, MeshKind::Pure, 64, 4);
        let mut accepted = 0;
        for _ in 0..100 {
            if mesh.try_send(msg(0, Dest::Unicast(CoreId(15))), 0) {
                accepted += 1;
            }
        }
        assert!(accepted >= NIC_CAP as u32);
        assert!(accepted < 100, "NIC must exert back-pressure");
        // Draining restores capacity.
        let _ = run_until_idle(&mut mesh, 0, 20_000);
        assert!(mesh.try_send(msg(0, Dest::Unicast(CoreId(15))), 1000));
    }

    #[test]
    fn stats_count_flits_and_hops() {
        let topo = Topology::small(8, 4);
        let mut mesh = Mesh::new(topo, MeshKind::Pure, 64, 4);
        let dst = topo.core_at(3, 0); // 3 hops straight east
        assert!(mesh.try_send(msg(0, Dest::Unicast(dst)), 0));
        let _ = run_until_idle(&mut mesh, 0, 1000);
        // control = 2 flits; 3 link hops each.
        assert_eq!(mesh.stats.flits_injected, 2);
        assert_eq!(mesh.stats.link_traversals, 6);
        assert_eq!(mesh.stats.unicast_received, 1);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let topo = Topology::small(8, 4);
        let run = || {
            let mut mesh = Mesh::new(topo, MeshKind::BcastTree, 64, 4);
            for i in 0..32u16 {
                mesh.try_send(msg(i, Dest::Unicast(CoreId(63 - i))), 0);
            }
            mesh.try_send(msg(5, Dest::Broadcast), 0);
            let (mut out, end) = run_until_idle(&mut mesh, 0, 50_000);
            out.sort_by_key(|d| (d.at, d.receiver.0, d.msg.src.0));
            (out, end, mesh.stats.clone())
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn heavy_random_traffic_drains() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let topo = Topology::small(8, 4);
        let mut mesh = Mesh::new(topo, MeshKind::BcastTree, 64, 4);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut sent = 0u64;
        let mut out = Vec::new();
        for now in 0..2000u64 {
            for c in 0..64u16 {
                if rng.gen_bool(0.05) {
                    let dest = if rng.gen_bool(0.01) {
                        Dest::Broadcast
                    } else {
                        Dest::Unicast(CoreId(rng.gen_range(0..64)))
                    };
                    if mesh.try_send(msg(c, dest), now) {
                        sent += 1;
                    }
                }
            }
            mesh.tick(now);
            mesh.drain_deliveries(&mut out);
        }
        let (rest, _) = run_until_idle(&mut mesh, 2000, 3_000_000);
        out.extend(rest);
        assert!(sent > 1000);
        // Every unicast delivered exactly once; broadcasts 63× each.
        let bc = mesh.stats.broadcast_messages;
        let uc = mesh.stats.unicast_messages;
        assert_eq!(
            out.len() as u64,
            uc + bc * 63,
            "uc={uc} bc={bc} out={}",
            out.len()
        );
    }

    #[test]
    fn multi_flit_contention_holds_wormhole_ownership() {
        // Two 10-flit Data packets (616 bits / 64-bit flits) from cores 0
        // and 1 both route east to core 4, sharing the r1→E…r3→E links and
        // the r4 ejection port. Wormhole switching means each packet claims
        // each output port exactly once — never per flit — so arbitrations
        // count the routers visited: 5 for core 0's packet (r0..r4) plus 4
        // for core 1's (r1..r4).
        let topo = Topology::small(8, 4);
        let mut mesh = Mesh::new(topo, MeshKind::Pure, 64, 4);
        let data = |src: u16| Message {
            src: CoreId(src),
            dest: Dest::Unicast(CoreId(4)),
            class: MessageClass::Data,
            token: 0,
        };
        assert!(mesh.try_send(data(0), 0));
        assert!(mesh.try_send(data(1), 0));
        let (out, _) = run_until_idle(&mut mesh, 0, 2000);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.receiver == CoreId(4)));
        assert_eq!(mesh.stats.arbitrations, 9, "one claim per (packet, router)");
        // The shared ejection port serializes the packets: tails are at
        // least one packet length (10 flits) apart.
        let gap = out[1].at.abs_diff(out[0].at);
        assert!(gap >= 10, "tail gap {gap} < packet length");
    }

    #[test]
    fn replication_forks_survive_full_buffers() {
        // A tree broadcast forks in router replication queues while heavy
        // unicast cross-traffic keeps the input buffers at depth. Every
        // fork must still deliver exactly once to every core.
        let topo = Topology::small(8, 4);
        let mut mesh = Mesh::new(topo, MeshKind::BcastTree, 64, 4);
        let mut out = Vec::new();
        for now in 0..40u64 {
            for c in 0..64u16 {
                mesh.try_send(msg(c, Dest::Unicast(CoreId(63 - c))), now);
            }
            if now == 10 {
                assert!(mesh.try_send(msg(27, Dest::Broadcast), now));
            }
            mesh.tick(now);
            mesh.drain_deliveries(&mut out);
        }
        let (rest, _) = run_until_idle(&mut mesh, 40, 500_000);
        out.extend(rest);
        let mut seen = [0u32; 64];
        for d in out.iter().filter(|d| matches!(d.msg.dest, Dest::Broadcast)) {
            seen[d.receiver.idx()] += 1;
        }
        for (c, &n) in seen.iter().enumerate() {
            let want = u32::from(c != 27);
            assert_eq!(n, want, "core {c} got {n} broadcast copies");
        }
        let uc = mesh.stats.unicast_messages;
        assert_eq!(out.len() as u64, uc + 63);
    }

    #[test]
    fn nic_accepts_exactly_cap_then_refuses_until_a_packet_drains() {
        // Without any ticks the NIC queue admits exactly NIC_CAP packets.
        // Two ticks stream the 2-flit head packet out, freeing one slot.
        let topo = Topology::small(8, 4);
        let mut mesh = Mesh::new(topo, MeshKind::Pure, 64, 4);
        let m = msg(0, Dest::Unicast(CoreId(7)));
        let mut accepted = 0usize;
        for _ in 0..NIC_CAP + 8 {
            if mesh.try_send(m, 0) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, NIC_CAP);
        assert!(!mesh.try_send(m, 0));
        mesh.tick(0);
        mesh.tick(1);
        assert!(mesh.try_send(m, 2), "tail left at cycle 1 → one slot free");
        assert!(!mesh.try_send(m, 2), "and only one");
    }

    #[test]
    fn hub_ejection_saturates_at_hub_buf_flits() {
        // Cluster-bound traffic with nobody popping hub_out: the hub
        // buffer fills to exactly HUB_BUF_FLITS flits and ejection credit-
        // stalls. Popping restores flow and every accepted message
        // eventually surfaces.
        let topo = Topology::small(8, 4);
        let mut mesh = Mesh::new(topo, MeshKind::Pure, 64, 4);
        let cl = topo.cluster_of(CoreId(0));
        let members: Vec<u16> = (0..64u16)
            .filter(|&c| topo.cluster_of(CoreId(c)) == cl)
            .collect();
        let mut sent = 0u64;
        let mut now = 0u64;
        for _ in 0..100 {
            for &c in &members {
                if mesh.try_send_to_hub(msg(c, Dest::Unicast(CoreId(63))), now) {
                    sent += 1;
                }
            }
            mesh.tick(now);
            now += 1;
        }
        assert_eq!(
            mesh.stats.hub_buffer_writes,
            u64::from(HUB_BUF_FLITS),
            "hub buffer admits exactly HUB_BUF_FLITS flits, then stalls"
        );
        assert!(!mesh.is_idle(), "blocked flits keep the mesh busy");
        // Drain: pop every cycle while ticking until the mesh empties.
        let mut popped = 0u64;
        while !mesh.is_idle() || mesh.hub_out_ready(cl) {
            mesh.tick(now);
            while mesh.pop_hub_out(cl).is_some() {
                popped += 1;
            }
            now += 1;
            assert!(now < 20_000, "hub drain stuck");
        }
        assert_eq!(popped, sent);
    }

    #[test]
    fn wide_flits_reduce_flit_count() {
        let topo = Topology::small(4, 2);
        let mut mesh = Mesh::new(topo, MeshKind::Pure, 256, 4);
        let m = Message {
            src: CoreId(0),
            dest: Dest::Unicast(CoreId(15)),
            class: MessageClass::Data,
            token: 0,
        };
        assert!(mesh.try_send(m, 0));
        let _ = run_until_idle(&mut mesh, 0, 1000);
        assert_eq!(mesh.stats.flits_injected, 3); // 616/256 → 3 flits
    }
}
