//! `dcp-core` — DCP, the paper's contribution: a transport architecture
//! co-designing the switch and the RNIC for reliable RDMA over lossy
//! fabrics.
//!
//! * [`switch`] — the lossless control plane policy (§4.2): packet trimming
//!   turns congestion drops into 57-byte header-only notifications queued
//!   in a control queue whose WRR weight `w = (N−1)/(r−N+1)` guarantees it
//!   drains even under worst-case incast.
//! * [`sender`] — HO-based retransmission (§4.3): loss notifications name
//!   (MSN, PSN) precisely; entries accumulate in a host-memory RetransQ and
//!   are fetched in PCIe-amortizing batches, with the CC module regulating
//!   the retransmission rate; a coarse-grained timeout with `sRetryNo`
//!   rounds backstops control-plane violations (§4.5).
//! * [`receiver`] — order-tolerant reception (§4.4): every packet carries
//!   its own placement address (RETH on all Write packets, SSN on
//!   two-sided packets), so arrival order is irrelevant and no reorder
//!   buffer exists; [`tracking`] replaces the per-packet bitmap with a
//!   per-message counter + `eMSN`, shrinking tracking state from BDP-sized
//!   bitmaps to ~2 bytes per outstanding message (§4.5, Table 3).
//!
//! The requirements table of §3 maps to code as follows: R1 (no PFC) —
//! `switch::dcp_switch_config` never enables PFC; R2 (packet-level LB) —
//! the receiver completes messages under any arrival order and the sender
//! never infers loss from reordering; R3 (no RTO reliance) — every drop
//! produces an HO notification that precisely retransmits one PSN; R4
//! (hardware-friendly) — tracking state is counters, not bitmaps, and the
//! Tx path batches PCIe work exactly as §4.3 lays out.

pub mod config;
pub mod receiver;
pub mod sender;
pub mod switch;
pub mod tracking;

pub use config::{DcpConfig, RetransMode};
pub use receiver::{dcp_pair, DcpReceiver};
pub use sender::DcpSender;
pub use switch::{dcp_switch_config, effective_wrr_weight, ho_size_ratio, wrr_weight};
pub use tracking::{CompletedMsg, MsgTracker, Track};
