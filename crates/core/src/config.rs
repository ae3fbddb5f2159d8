//! DCP-RNIC configuration: the §4.3–§4.5 microarchitecture parameters.

use dcp_netsim::time::{Nanos, MS, US};

/// Applications post large transfers as a sequence of bounded messages (the
/// NCCL pattern §4.5 cites). This is the chunk size the workload runner
/// uses; it bounds how long the coarse fallback timer can go without an
/// eMSN-advancing ACK.
pub const MSG_CHUNK_BYTES: u64 = 1 << 20;

/// How the Tx path turns header-only notifications into retransmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetransMode {
    /// The strawman of §4.3 challenge #1: each HO packet triggers its own
    /// WQE fetch + data fetch, i.e. two PCIe round trips per retransmitted
    /// packet (footnote 9: ≈4 Gbps at 1 µs PCIe RTT). Kept for the
    /// ablation benchmark.
    PerHo,
    /// The paper's design: entries accumulate in the host-memory RetransQ
    /// and the Tx path fetches up to `min(16, len, awin/MTU)` per round,
    /// amortizing PCIe latency.
    Batched,
}

/// Full DCP-RNIC configuration.
#[derive(Debug, Clone, Copy)]
pub struct DcpConfig {
    /// Coarse-grained fallback timeout on the `unaMSN` message (§4.5). The
    /// paper keeps this deliberately coarse — it only fires when the
    /// lossless-control-plane assumption is violated.
    pub coarse_timeout: Nanos,
    pub retrans_mode: RetransMode,
    /// PCIe round-trip latency between the RNIC and host memory
    /// (footnote 9 assumes 1 µs).
    pub pcie_rtt: Nanos,
}

impl Default for DcpConfig {
    fn default() -> Self {
        DcpConfig { coarse_timeout: 10 * MS, retrans_mode: RetransMode::Batched, pcie_rtt: US }
    }
}
