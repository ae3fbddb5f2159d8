//! `dcp-netsim` — a deterministic discrete-event network simulator.
//!
//! This crate is the substrate the DCP paper evaluates on: the NS3-style
//! packet-level simulation fabric (§6.2) plus the mechanisms the paper adds
//! to switches. It provides:
//!
//! * an event loop with stable `(time, sequence)` ordering ([`sim`]) over
//!   one hierarchical timing wheel per shard that holds every event,
//!   endpoint timers included ([`equeue`]);
//! * output-queued switches with separate data and control queues, a
//!   weighted-round-robin egress scheduler, DCP packet trimming, ECN
//!   marking, PFC pause/resume and forced-loss injection ([`switch`]);
//! * flow-level ECMP, packet-level adaptive routing and spraying
//!   ([`routing`]);
//! * a host NIC model with a QP scheduler (round-robin with a byte quota,
//!   mirroring §4.3's fetch-and-drop rounds) ([`host`]);
//! * the [`endpoint::Endpoint`] trait transports implement, pulled by the
//!   NIC smoltcp-style whenever the wire is free;
//! * topology builders for the paper's testbed and CLOS fabrics
//!   ([`topology`]);
//! * fault-injection mechanisms ([`fault`]): a pluggable [`FaultPlane`]
//!   rules on every packet arrival (deliver / drop / corrupt-to-HO) and
//!   scheduled `Control` events let it down cables, degrade links and fail
//!   switches mid-run — the policy lives in the `dcp-faults` crate.
//!
//! Determinism: all randomness flows from one seeded RNG, there is no wall
//! clock, and same-seed runs produce identical traces — asserted by tests.

pub mod endpoint;
pub mod equeue;
pub mod fault;
pub mod host;
pub mod link;
pub mod packet;
pub mod pool;
pub mod ready;
pub mod routing;
pub mod shard;
pub mod sim;
pub mod splitmix;
pub mod stats;
pub mod switch;
pub mod time;
pub mod topology;

pub use dcp_telemetry::RetxCause;
pub use endpoint::{deliver, pull_owned, Completion, CompletionKind, Endpoint, EndpointCtx};
pub use equeue::EventQueue;
pub use fault::{FaultPlane, FaultVerdict};
pub use host::QpRef;
pub use link::Link;
pub use packet::{FlowId, NodeId, Packet, PktDesc, PktExt, PortId};
pub use pool::{PacketPool, PktRef};
pub use ready::ReadySet;
pub use routing::LoadBalance;
pub use shard::{env_shards, env_threads};
pub use sim::{Event, Node, NodeCtx, Simulator};
pub use splitmix::{mix64, SplitMix64};
pub use stats::{Conservation, NetStats, TransportStats};
pub use switch::{EcnConfig, PfcConfig, SwitchConfig};
pub use time::{bdp_bytes, fiber_delay_km, tx_time, Nanos, MS, NS, SEC, US};
pub use topology::Topology;
/// The endpoint-timer name of [`EventQueue`]: one wheel holds every event.
pub type TimerWheel<T> = EventQueue<T>;
