#![allow(clippy::collapsible_match, clippy::collapsible_if)]

//! `dcp-transport` — baseline RDMA endpoint protocols and congestion
//! control for the DCP reproduction.
//!
//! Everything the paper compares DCP against lives here:
//!
//! * [`gbn`] — RNIC-GBN, the Go-Back-N of traditional RoCEv2 RNICs
//!   (Mellanox CX5 class);
//! * [`irn`] — IRN, the representative RNIC-SR design (SACK + sender
//!   bitmap + loss-recovery mode + RTO + BDP flow control, §2.2);
//! * [`mprdma`] — MP-RDMA, packet-level multipath with a per-path adaptive
//!   window over a PFC fabric;
//! * [`racktlp`] — RACK-TLP (RFC 8985): time-based loss detection with a
//!   one-RTT reordering window plus tail-loss probes (§6.3);
//! * [`timeout_only`] — the Spectrum-style order-tolerant receiver whose
//!   sender (GBN's, with no NAK ever arriving) recovers only by RTO (§6.3);
//! * [`swtcp`] — a software-stack throughput/latency *model* standing in
//!   for kernel TCP in the Fig. 8 comparison;
//! * [`ec`] — SDR-RDMA-style erasure-coded transport: k data + m repair
//!   shards per generation (GF(2^8) Reed-Solomon, XOR fast path), any
//!   k-of-(k+m) decode, selective-repeat bitmap-NACK fallback beyond the
//!   repair budget;
//! * [`cc`] — DCQCN and window-based congestion control, decoupled from
//!   reliability as §3 requires.
//!
//! Shared machinery: [`common`] (flow config, sender bookkeeping, packet
//! builders), [`txcore`] (the reliability skeleton under every sender and
//! receiver, DCP's included: book, window, RTO/pacing/CC-tick timers, emit
//! and retire paths, the ACK reply queue and ECN→CNP gate) and [`rxcore`]
//! (the bitmap-tracking receiver core that DCP's counting receiver
//! replaces).

pub mod cc;
pub mod common;
pub mod ec;
pub mod gbn;
pub mod irn;
pub mod mprdma;
pub mod racktlp;
pub mod rxcore;
pub mod swtcp;
pub mod timeout_only;
pub mod txcore;

pub use common::{
    ack_packet, data_packet, desc_at, CnpGen, FlowCfg, MsgState, Placement, RttEstimator, TxBook,
};
pub use ec::{ec_pair, EcConfig, EcReceiver, EcSender};
pub use rxcore::{Accept, RxCore};
pub use txcore::{AckQueue, TxCore};
