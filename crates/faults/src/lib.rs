//! `dcp-faults` — a deterministic, schedule-driven fault-injection plane
//! over `dcp-netsim`.
//!
//! The paper's premise is surviving a *lossy* fabric, but congestion is
//! only one way fabrics lose packets. This crate injects the rest — and
//! does it reproducibly, so a fault experiment is a pure function of its
//! seeds:
//!
//! * [`loss`] — per-link stochastic loss models: uniform, BER-derived
//!   (Table 5's knob: loss scales with wire length, which is exactly why
//!   57-B header-only packets survive fabrics that eat data packets) and a
//!   Gilbert–Elliott bursty chain. Each link draws from its own seeded RNG
//!   stream, never the simulator's, so attaching a model doesn't perturb
//!   the packet trace's draw order.
//! * [`plan`] — the declarative [`FaultPlan`]: a JSON-(de)serializable,
//!   time-sorted schedule of [`FaultEvent`]s (link down/up, degradation,
//!   switch fail/recover, loss-model changes, PFC pause storms).
//! * [`engine`] — the [`FaultEngine`] implementing netsim's
//!   [`dcp_netsim::FaultPlane`]: rules Deliver/Drop/Corrupt on every
//!   arrival and executes plan entries via `Event::Control` through the
//!   simulator's own event wheel. Corrupt DCP data at a trimming switch
//!   becomes a header-only notification — DCP's congestion-loss recovery
//!   machinery, reused verbatim for wire loss.
//! * [`recovery`] — the [`RecoveryTracker`] probe: time-to-first-retransmit
//!   after a fault and goodput-recovery time after it clears.
//!
//! Fault drops are booked into `NetStats::fault_drops` (data), `ho_drops`
//! (header-only) and `ack_drops` (ACK-class), so `check_conservation`
//! stays *strict* under any injected-fault scenario.

pub mod engine;
pub mod loss;
pub mod plan;
pub mod recovery;

pub use engine::{link_stream_seed, FaultEngine};
pub use loss::{ber_packet_loss, LinkLoss, LossModel};
pub use plan::{FaultEvent, FaultPlan, TimedFault};
pub use recovery::RecoveryTracker;
