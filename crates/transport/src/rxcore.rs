//! Shared receiver machinery for selective-repeat-family transports (IRN,
//! MP-RDMA, RACK-TLP, timeout-only): PSN tracking with a received-set,
//! duplicate detection, direct payload placement and in-order message
//! completion.
//!
//! This is exactly the receiver-side *bitmap* design DCP eliminates (§4.5):
//! `received` is the packet-level tracking structure whose memory cost
//! Table 3 quantifies. Keeping it here makes the baselines faithful and the
//! contrast with `dcp-core`'s counting receiver concrete.

use crate::common::Placement;
use dcp_netsim::endpoint::{Completion, CompletionKind, EndpointCtx};
use dcp_netsim::packet::{FlowId, NodeId, Packet};
use dcp_netsim::stats::TransportStats;
use std::collections::{BTreeMap, BTreeSet};

/// What happened to an arriving data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// Already seen (spurious retransmission reached us).
    Duplicate,
    /// New packet, expected PSN — the cumulative pointer advanced.
    InOrder,
    /// New packet, out of order — tracked in the received set.
    OutOfOrder,
    /// Rejected: beyond the receiver's out-of-order capacity (MP-RDMA's
    /// OOO-window drop).
    Rejected,
}

#[derive(Debug, Clone, Copy)]
struct MsgMeta {
    msn: u32,
    bytes: u64,
    imm: u32,
    wants_completion: bool,
}

/// Receiver-side core: tracks PSNs, places payloads, completes messages in
/// order.
pub struct RxCore {
    host: NodeId,
    flow: FlowId,
    /// Next expected PSN (cumulative pointer).
    pub epsn: u32,
    /// PSNs received above `epsn` — the packet-level bitmap.
    received: BTreeSet<u32>,
    /// Message end-PSN → metadata, populated as Last/Only packets arrive.
    msg_ends: BTreeMap<u32, MsgMeta>,
    /// Bytes accumulated per message (keyed by MSN) until completion.
    msg_bytes: BTreeMap<u32, u64>,
    /// Cap on `received` span; packets beyond are rejected. `u32::MAX`
    /// disables the cap.
    pub ooo_cap: u32,
    pub placement: Placement,
    pub stats: TransportStats,
}

impl RxCore {
    pub fn new(host: NodeId, flow: FlowId, ooo_cap: u32, placement: Placement) -> Self {
        RxCore {
            host,
            flow,
            epsn: 0,
            received: BTreeSet::new(),
            msg_ends: BTreeMap::new(),
            msg_bytes: BTreeMap::new(),
            ooo_cap,
            placement,
            stats: TransportStats::default(),
        }
    }

    /// Highest PSN span currently tracked above the cumulative pointer.
    pub fn ooo_degree(&self) -> u32 {
        self.received.iter().next_back().map_or(0, |&p| p - self.epsn)
    }

    /// Processes an arriving data packet: dedup, placement, message-boundary
    /// tracking and cumulative advance. Emits completions for every message
    /// whose packets are all below the new cumulative pointer.
    pub fn on_data(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) -> Accept {
        self.stats.pkts_received += 1;
        let psn = pkt.psn();
        if psn < self.epsn || self.received.contains(&psn) {
            self.stats.duplicates += 1;
            return Accept::Duplicate;
        }
        if self.ooo_cap != u32::MAX && psn > self.epsn.saturating_add(self.ooo_cap) {
            // MP-RDMA-style OOO-window overflow: pretend it was lost. The
            // packet leaves `pkts_received` but is tracked in `ooo_rejected`
            // so flow conservation still balances.
            self.stats.pkts_received -= 1;
            self.stats.ooo_rejected += 1;
            return Accept::Rejected;
        }
        let desc = pkt.desc.unpack().expect("data packet carries descriptor");
        let msn = pkt.msn().expect("data packet carries MSN");
        self.ingest(psn, msn, &desc, ctx)
    }

    /// Accepts a shard the transport reconstructed locally (erasure-coded
    /// repair): identical placement/completion bookkeeping to [`RxCore::on_data`],
    /// except `pkts_received` is *not* bumped — the recovered packet never
    /// crossed the wire, and the conservation identity only counts arrivals.
    pub fn on_recovered(
        &mut self,
        psn: u32,
        msn: u32,
        desc: &dcp_rdma::segment::PacketDescriptor,
        ctx: &mut EndpointCtx,
    ) -> Accept {
        if psn < self.epsn || self.received.contains(&psn) {
            // A late wire retransmission beat the decode to this PSN.
            return Accept::Duplicate;
        }
        self.ingest(psn, msn, desc, ctx)
    }

    fn ingest(
        &mut self,
        psn: u32,
        msn: u32,
        desc: &dcp_rdma::segment::PacketDescriptor,
        ctx: &mut EndpointCtx,
    ) -> Accept {
        // Direct placement: Write packets carry their address; Send packets
        // land in a flow-local staging area (modelled at offset addressing).
        let addr = desc.remote_addr.unwrap_or(desc.offset);
        self.placement.place(addr, desc.offset, desc.payload_len);
        self.stats.goodput_bytes += desc.payload_len as u64;
        *self.msg_bytes.entry(msn).or_insert(0) += desc.payload_len as u64;
        if desc.opcode.is_last() {
            self.msg_ends.insert(
                psn,
                MsgMeta {
                    msn,
                    bytes: desc.offset + desc.payload_len as u64,
                    imm: desc.imm.unwrap_or(0),
                    wants_completion: true,
                },
            );
        }
        let in_order = psn == self.epsn;
        self.received.insert(psn);
        while self.received.remove(&self.epsn) {
            self.epsn += 1;
        }
        self.flush_completions(ctx);
        if in_order {
            Accept::InOrder
        } else {
            Accept::OutOfOrder
        }
    }

    fn flush_completions(&mut self, ctx: &mut EndpointCtx) {
        while let Some((&end, _)) = self.msg_ends.first_key_value() {
            if end >= self.epsn {
                break;
            }
            let meta = self.msg_ends.remove(&end).unwrap();
            self.msg_bytes.remove(&meta.msn);
            if meta.wants_completion {
                ctx.completions.push(Completion {
                    host: self.host,
                    flow: self.flow,
                    wr_id: meta.msn as u64,
                    kind: CompletionKind::RecvComplete,
                    bytes: meta.bytes,
                    imm: meta.imm,
                    at: ctx.now,
                });
            }
        }
    }

    /// True when nothing is buffered out of order.
    pub fn is_quiescent(&self) -> bool {
        self.received.is_empty() && self.msg_ends.is_empty()
    }

    /// Resets the core for a fresh connection (the endpoint-recycling
    /// path). Counters restart at zero — the host's retired accumulator
    /// holds the previous life's numbers. Note the B-trees release their
    /// nodes on `clear` and re-allocate as the next connection runs; that
    /// per-connection allocation churn is intrinsic to bitmap receivers
    /// (§4.5) and shows up in the `churn` benchmark, by design.
    pub fn recycle(&mut self, host: NodeId, flow: FlowId) {
        self.host = host;
        self.flow = flow;
        self.epsn = 0;
        self.received.clear();
        self.msg_ends.clear();
        self.msg_bytes.clear();
        self.stats = TransportStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{data_packet, desc_at, FlowCfg, TxBook};
    use dcp_netsim::endpoint::ctx;
    use dcp_netsim::packet::NodeId;
    use dcp_rdma::headers::DcpTag;
    use dcp_rdma::qp::WorkReqOp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn packets_for(lens: &[u64]) -> (Vec<Packet>, FlowCfg) {
        let cfg = FlowCfg::sender(FlowId(1), NodeId(0), NodeId(1), DcpTag::NonDcp);
        let mut book = TxBook::new();
        let mut pkts = Vec::new();
        for (i, &l) in lens.iter().enumerate() {
            let m = book.post(i as u64, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, l, cfg.mtu);
            for k in 0..m.pkt_count {
                let psn = m.first_psn + k;
                pkts.push(data_packet(
                    &cfg,
                    &m,
                    desc_at(&m, cfg.mtu, psn),
                    psn,
                    0,
                    false,
                    psn as u64,
                ));
            }
        }
        (pkts, cfg)
    }

    #[test]
    fn in_order_stream_completes_messages_in_order() {
        let (pkts, _) = packets_for(&[2048, 1024]);
        let mut rx = RxCore::new(NodeId(1), FlowId(1), u32::MAX, Placement::Virtual);
        let (mut pool, mut t, mut c, mut r) =
            (dcp_netsim::pool::PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        for p in &pkts {
            assert_eq!(
                rx.on_data(p, &mut ctx(100, &mut pool, &mut t, &mut c, &mut r)),
                Accept::InOrder
            );
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].wr_id, 0);
        assert_eq!(c[0].bytes, 2048);
        assert_eq!(c[1].wr_id, 1);
        assert_eq!(rx.epsn, 3);
        assert!(rx.is_quiescent());
    }

    #[test]
    fn reordered_stream_still_completes_and_counts_ooo() {
        let (pkts, _) = packets_for(&[4096]);
        let mut rx = RxCore::new(NodeId(1), FlowId(1), u32::MAX, Placement::Virtual);
        let (mut pool, mut t, mut c, mut r) =
            (dcp_netsim::pool::PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let order = [3usize, 0, 2, 1];
        let kinds: Vec<_> = order
            .iter()
            .map(|&i| rx.on_data(&pkts[i], &mut ctx(100, &mut pool, &mut t, &mut c, &mut r)))
            .collect();
        assert_eq!(kinds[0], Accept::OutOfOrder);
        assert_eq!(kinds[1], Accept::InOrder);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].bytes, 4096);
        assert_eq!(rx.epsn, 4);
    }

    #[test]
    fn duplicates_are_counted_not_replayed() {
        let (pkts, _) = packets_for(&[2048]);
        let mut rx = RxCore::new(NodeId(1), FlowId(1), u32::MAX, Placement::Virtual);
        let (mut pool, mut t, mut c, mut r) =
            (dcp_netsim::pool::PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        rx.on_data(&pkts[0], &mut ctx(100, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(
            rx.on_data(&pkts[0], &mut ctx(100, &mut pool, &mut t, &mut c, &mut r)),
            Accept::Duplicate
        );
        rx.on_data(&pkts[1], &mut ctx(100, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(
            rx.on_data(&pkts[1], &mut ctx(100, &mut pool, &mut t, &mut c, &mut r)),
            Accept::Duplicate
        );
        assert_eq!(rx.stats.duplicates, 2);
        assert_eq!(c.len(), 1, "message completes exactly once");
        assert_eq!(rx.stats.goodput_bytes, 2048, "duplicates don't double-count goodput");
    }

    #[test]
    fn ooo_cap_rejects_far_future_packets() {
        let (pkts, _) = packets_for(&[8192]);
        let mut rx = RxCore::new(NodeId(1), FlowId(1), 2, Placement::Virtual);
        let (mut pool, mut t, mut c, mut r) =
            (dcp_netsim::pool::PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        assert_eq!(
            rx.on_data(&pkts[7], &mut ctx(100, &mut pool, &mut t, &mut c, &mut r)),
            Accept::Rejected
        );
        assert_eq!(
            rx.on_data(&pkts[2], &mut ctx(100, &mut pool, &mut t, &mut c, &mut r)),
            Accept::OutOfOrder
        );
        assert_eq!(rx.ooo_degree(), 2);
    }

    #[test]
    fn completion_waits_for_cumulative_pointer() {
        // Last packet of msg 0 arrives, but an earlier packet is missing:
        // no completion until the gap fills.
        let (pkts, _) = packets_for(&[3072]);
        let mut rx = RxCore::new(NodeId(1), FlowId(1), u32::MAX, Placement::Virtual);
        let (mut pool, mut t, mut c, mut r) =
            (dcp_netsim::pool::PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        rx.on_data(&pkts[0], &mut ctx(100, &mut pool, &mut t, &mut c, &mut r));
        rx.on_data(&pkts[2], &mut ctx(100, &mut pool, &mut t, &mut c, &mut r));
        assert!(c.is_empty());
        rx.on_data(&pkts[1], &mut ctx(100, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(c.len(), 1);
    }
}
