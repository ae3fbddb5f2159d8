//! RDMA substrate for the DCP reproduction.
//!
//! This crate provides everything below the transport layer that the paper's
//! RNIC designs assume to exist:
//!
//! * [`headers`] — RoCEv2 wire headers (Ethernet / IPv4 / UDP / BTH / RETH /
//!   AETH) plus the DCP extensions from Fig. 4 of the paper: the 2-bit DCP tag
//!   carried in the IP ToS field, the Message Sequence Number (MSN), the Send
//!   Sequence Number (SSN) for two-sided operations, the `sRetryNo` retry
//!   round in data packets and the `eMSN` cumulative message acknowledgment
//!   in ACK packets.
//! * [`wire`] — byte-level encode/decode of those headers with the exact
//!   field widths of the specification (24-bit PSN/QPN/MSN and so on), used
//!   to validate the 57-byte header-only packet size the paper relies on.
//! * [`qp`] — Queue Pair descriptors: send/receive Work Queue Elements, the
//!   SSN-matched Receive Queue and the RetransQ entry.
//! * [`memory`] — registered memory regions and the Memory Translation Table
//!   (MTT) used for order-tolerant direct placement.
//! * [`segment`] — message segmentation: turning a Work Request into the
//!   per-packet descriptors (opcode, PSN, remote address) a transport emits.

pub mod headers;
pub mod memory;
pub mod qp;
pub mod segment;
pub mod wire;

pub use headers::{
    Aeth, Bth, DcpTag, EthHeader, Ipv4Header, PacketHeader, RdmaOpcode, Reth, UdpHeader,
};
pub use memory::{MemoryRegion, Mtt, PatternGen};
pub use qp::{Qpn, RecvWqe, SendWqe, WorkReqOp};
pub use segment::{segment_message, PacketDescriptor};

/// Maximum Transmission Unit used throughout the reproduction.
///
/// The paper assumes a 1 KB MTU ("50 Mpps amounts to 400 Gbps with a 1KB
/// MTU", §4.5) and 16 KB `round_quota` ≈ 16 packets.
pub const MTU: usize = 1024;

/// Size in bytes of the header retained by packet trimming (§4.2, footnote 6):
/// 14 B MAC + 20 B IP + 8 B UDP + 12 B BTH + 3 B MSN.
pub const HO_PACKET_BYTES: usize = 57;
