//! `dcp-check` — a protocol-conformance and liveness layer over
//! `dcp-netsim` + `dcp-faults`.
//!
//! The fault plane (`dcp-faults`) answers "does the transport survive
//! *loss*?". This crate asks the harder questions a lossy fabric raises and
//! the paper's findings make concrete:
//!
//! * [`adversary`] — a [`dcp_netsim::FaultPlane`] that duplicates, delays
//!   and reorders packets from per-link seeded RNG streams. Reordering and
//!   duplication are exactly the cases DCP's counting tracker exists for
//!   (`sRetryNo`/`rRetryNo` rounds instead of bitmaps) but which no
//!   end-to-end experiment exercised before this crate. Composes *over* an
//!   installed [`dcp_faults::FaultEngine`], so BER loss and adversarial
//!   reordering can run together.
//! * [`oracle`] — the exactly-once delivery oracle: a passive probe that
//!   matches every `MsgPosted` submit against its `Delivery` completion and
//!   flags duplicated, missing, mis-sized or spurious completions — the
//!   class of silent corruption behind the paper's Finding 1 (completions
//!   delivered with data missing).
//! * [`watchdog`] — bounded no-forward-progress detection: a stall is K
//!   virtual milliseconds with work outstanding and no delivered byte; a
//!   *livelock* is the same window with the retransmit counter still
//!   advancing — the shape of the RACK-TLP probe→dup-ACK bug. Plus a PFC
//!   pause-dependency-graph cycle detector over live switch state: a cycle
//!   of PAUSEd links is a PFC deadlock, the failure mode lossless fabrics
//!   trade loss for.
//! * [`shrink`] — a delta-debugging (ddmin) shrinker that reduces a
//!   tripping [`dcp_faults::FaultPlan`] + adversary configuration to a
//!   minimal replayable JSON repro.
//!
//! Everything is deterministic: adversary draws come from per-link
//! SplitMix64 streams (never the simulator's RNG), probes are passive, and
//! the pause-graph walk visits switches in node order — so any check
//! verdict is byte-stable across runs and `DCP_THREADS` settings.

pub mod adversary;
pub mod oracle;
pub mod shrink;
pub mod watchdog;

pub use adversary::{Adversary, AdversaryProfile};
pub use oracle::DeliveryOracle;
pub use shrink::{shrink_plan, shrink_repro, Repro};
pub use watchdog::{pfc_deadlock_cycle, Liveness, Watchdog};
