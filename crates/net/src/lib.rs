//! # atac-net — cycle-level on-chip network simulator
//!
//! The network substrate of the ATAC+ reproduction: a flit-level,
//! cycle-driven simulator of all four interconnects the paper evaluates,
//! under one [`atac::Network`] trait:
//!
//! | Architecture | Composition |
//! |---|---|
//! | `EMesh-Pure` | [`mesh::Mesh`] (`Pure`): wormhole XY mesh; broadcasts expand to serialized unicasts |
//! | `EMesh-BCast` | [`mesh::Mesh`] (`BcastTree`): + XY-tree router multicast |
//! | `ATAC` | [`atac::AtacNet`]: ENet mesh + [`onet::Onet`] WDM ring + BNet, Cluster routing |
//! | `ATAC+` | [`atac::AtacNet`]: ENet + adaptive-SWMR ONet + StarNet, Distance-15 routing |
//!
//! Timing parameters are the paper's Table I (1-cycle routers and links,
//! 3-cycle ONet propagation, 1-cycle select→data lag, 1-cycle receive
//! nets, 64-bit flits, wormhole flow control with a single VC). Every
//! model counts the events ([`stats::NetStats`]) that the `atac-sim`
//! energy integration multiplies with the per-event energies of
//! `atac-phys`.
//!
//! The [`harness`] module provides the open-loop synthetic-traffic driver
//! used to regenerate the paper's Fig. 3 (latency vs. offered load per
//! routing policy).
//!
//! Every network holds an `atac_trace::ProbeHandle` (disabled by
//! default — one branch per probe point) and reports message deliveries
//! and optical transmissions through it; attach one via
//! [`atac::Network::set_probe`].

pub mod atac;
pub mod counters;
pub mod harness;
pub mod hubset;
pub mod mesh;
pub mod onet;
pub mod stats;
pub mod topology;
pub mod types;

pub use atac::{AtacNet, Network, ReceiveNet, RoutingPolicy};
pub use hubset::{HubSet, HubWalk};
pub use mesh::{Mesh, MeshKind};
pub use onet::Onet;
pub use stats::NetStats;
pub use topology::{Port, Topology};
pub use types::{ClusterId, CoreId, Cycle, Delivery, Dest, Message, MessageClass};

// Re-exported so downstream crates can attach probes, profilers, and
// network observers without naming the trace crate separately.
pub use atac_trace::{
    Histogram, HostPhase, HostProfiler, NetObsHandle, NetObserver, NetProfile, NetSubPhase,
    NullProbe, Probe, ProbeHandle,
};
