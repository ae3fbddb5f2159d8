//! DCP-RNIC receiver: order-tolerant direct placement (§4.4), bitmap-free
//! message tracking (§4.5), header-only bounce-back (§4.1 step 2) and
//! eMSN-carrying ACKs.

use crate::config::DcpConfig;
use crate::tracking::{CompletedMsg, MsgTracker, Track};
use dcp_netsim::endpoint::{Completion, CompletionKind, Endpoint, EndpointCtx};
use dcp_netsim::packet::{FlowId, NodeId, PktDesc, PktExt};
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_rdma::headers::DcpTag;
use dcp_transport::common::{FlowCfg, Placement};
use dcp_transport::txcore::AckQueue;

/// Messages the receiver tracks concurrently per QP. The FPGA prototype
/// provisions 8 (NCCL's outstanding-message depth, §4.5); the software
/// model provisions more so arbitrary workloads don't hit the cap.
const MAX_TRACKED_MSGS: usize = 64;

/// The DCP-RNIC responder.
pub struct DcpReceiver {
    tracker: MsgTracker,
    placement: Placement,
    /// Outbound control traffic: bounced HO packets, ACKs, CNPs.
    acks: AckQueue,
    stats: TransportStats,
    /// Header-only packets bounced back to the sender (diagnostics).
    pub ho_bounced: u64,
    /// Receive queue for two-sided operations (§4.4): out-of-order Send
    /// packets match their buffer by SSN instead of consuming the head, so
    /// no reorder buffer is needed.
    rq: dcp_rdma::qp::RecvQueue,
    /// When true (default), Send packets with no posted buffer land in a
    /// synthetic buffer at the message offset — convenient for workload
    /// simulations that don't model application receive posting.
    pub auto_rq: bool,
    /// Reused buffer for completed messages (no per-packet allocation).
    comp_scratch: Vec<CompletedMsg>,
}

impl DcpReceiver {
    pub fn new(cfg: FlowCfg, placement: Placement) -> Self {
        DcpReceiver {
            tracker: MsgTracker::new(MAX_TRACKED_MSGS),
            placement,
            acks: AckQueue::new(cfg),
            stats: TransportStats::default(),
            ho_bounced: 0,
            rq: dcp_rdma::qp::RecvQueue::new(),
            auto_rq: true,
            comp_scratch: Vec::new(),
        }
    }

    /// Posts a receive buffer for a two-sided operation; consumed in SSN
    /// order as Send / Write-with-Immediate messages complete.
    pub fn post_recv(&mut self, wr_id: u64, addr: u64, len: u64) {
        self.auto_rq = false;
        self.rq.post(dcp_rdma::qp::RecvWqe { wr_id, addr, len });
    }

    /// Expected MSN — exposed for tests and diagnostics.
    pub fn emsn(&self) -> u32 {
        self.tracker.emsn()
    }

    /// Gives integrity tests access to the placed bytes.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    fn queue_ack(&mut self) {
        self.acks.queue(PktExt::None, self.tracker.emsn());
    }

    fn flush_completions(&mut self, ctx: &mut EndpointCtx) {
        let mut done = std::mem::take(&mut self.comp_scratch);
        done.clear();
        self.tracker.drain_completed_into(&mut done);
        if done.is_empty() {
            self.comp_scratch = done;
            return;
        }
        for &m in &done {
            // Two-sided completions consume their Receive WQE in posting
            // order, now that the message is done (§4.4).
            let wr_id = if m.cf {
                self.rq.consume_front().map(|w| w.wr_id).unwrap_or(m.msn as u64)
            } else {
                m.msn as u64
            };
            ctx.completions.push(Completion {
                host: self.acks.cfg().local,
                flow: self.acks.cfg().flow,
                wr_id,
                kind: CompletionKind::RecvComplete,
                bytes: m.bytes,
                imm: m.imm,
                at: ctx.now,
            });
        }
        self.comp_scratch = done;
        // eMSN advanced: tell the sender (§4.5, Fig. 4b).
        self.queue_ack();
    }
}

impl Endpoint for DcpReceiver {
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let mut pkt = ctx.pool.take(pkt);
        match pkt.dcp_tag() {
            DcpTag::HeaderOnly => {
                // §4.1 step 2: swap source and destination, stamp the sender
                // QPN (known from the QP context — §7 "Back-to-sender"), and
                // forward the notification to the sender.
                pkt.header.swap_src_dst(self.acks.cfg().remote_qpn.0);
                pkt.payload_len = 0;
                pkt.desc = PktDesc::NONE;
                self.ho_bounced += 1;
                self.acks.queue_built(pkt);
            }
            DcpTag::Data => {
                self.stats.pkts_received += 1;
                self.acks.on_ecn(&pkt, self.tracker.emsn(), ctx);
                let desc = pkt.desc.unpack().expect("data packets carry descriptors");
                let msn = pkt.msn().expect("data packets carry the MSN");
                let sretry = pkt.header.ip.sretry_no();
                // RNR gate: a Send packet with no matching Receive WQE must
                // not be counted (the count would complete a message whose
                // payload had nowhere to land).
                if desc.opcode.is_send() && !self.auto_rq {
                    let ssn = desc.ssn.expect("Send packets carry the SSN");
                    if self.rq.by_ssn(ssn).is_none() {
                        return;
                    }
                }
                let wants_cqe = desc.opcode.is_send() || desc.opcode.has_immediate();
                let end_bytes = desc.offset + desc.payload_len as u64;
                match self.tracker.on_packet(
                    msn,
                    sretry,
                    desc.opcode.is_last(),
                    desc.index,
                    end_bytes,
                    wants_cqe,
                    desc.imm.unwrap_or(0),
                ) {
                    Track::Counted => {
                        // Order-tolerant direct placement (§4.4): Write
                        // packets carry their address in the RETH; Send
                        // packets locate their Receive WQE by SSN — even out
                        // of order — and land at buffer + offset.
                        let addr = if desc.opcode.is_send() {
                            let ssn = desc.ssn.expect("Send packets carry the SSN");
                            match self.rq.by_ssn(ssn) {
                                Some(w) => w.addr + desc.offset,
                                None => desc.offset, // auto_rq synthetic buffer
                            }
                        } else {
                            desc.remote_addr.unwrap_or(desc.offset)
                        };
                        self.placement.place(addr, desc.offset, desc.payload_len);
                        self.stats.goodput_bytes += desc.payload_len as u64;
                        self.flush_completions(ctx);
                    }
                    Track::Stale => {
                        // Duplicate of a completed message — only possible
                        // after a coarse timeout whose original ACK was
                        // lost. Re-ACK so the sender can make progress.
                        self.stats.duplicates += 1;
                        self.queue_ack();
                    }
                    Track::OldRound => {
                        self.stats.duplicates += 1;
                    }
                    Track::DupInRound => {
                        // Wire-duplicated copy of a current-round packet.
                        // Counting it would let the message complete with a
                        // real packet still missing (DESIGN.md Finding 6) —
                        // reject, count, and wait for the genuine packet.
                        self.stats.duplicates += 1;
                    }
                    Track::TableFull => {
                        // Hardware back-pressures; the model drops and the
                        // sender's coarse fallback recovers.
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        self.acks.pull(ctx)
    }

    fn has_pending(&self) -> bool {
        self.acks.has_pending()
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn is_done(&self) -> bool {
        !self.acks.has_pending()
    }

    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        // Real placement ties the endpoint to registered buffers of the old
        // connection; only virtual placement recycles safely.
        if !matches!(self.placement, Placement::Virtual) {
            return false;
        }
        self.acks.recycle(flow, local, remote);
        self.tracker.reset();
        self.stats = TransportStats::default();
        self.ho_bounced = 0;
        self.rq.reset();
        self.auto_rq = true;
        true
    }
}

/// Builds a connected DCP sender/receiver pair.
pub fn dcp_pair(
    cfg: FlowCfg,
    dcfg: DcpConfig,
    cc: Box<dyn dcp_transport::cc::CongestionControl>,
    placement: Placement,
) -> (crate::sender::DcpSender, DcpReceiver) {
    let rcfg = FlowCfg::receiver_of(&cfg);
    (crate::sender::DcpSender::new(cfg, dcfg, cc), DcpReceiver::new(rcfg, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_netsim::endpoint::{deliver, pull_owned};
    use dcp_netsim::packet::{FlowId, NodeId, Packet};
    use dcp_netsim::pool::PacketPool;
    use dcp_rdma::qp::WorkReqOp;
    use dcp_transport::common::{data_packet, desc_at, TxBook};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scfg() -> FlowCfg {
        FlowCfg::sender(FlowId(1), NodeId(0), NodeId(1), DcpTag::Data)
    }

    fn receiver() -> DcpReceiver {
        DcpReceiver::new(FlowCfg::receiver_of(&scfg()), Placement::Virtual)
    }

    fn data(psn: u32, sretry: u8) -> Packet {
        let cfg = scfg();
        let mut book = TxBook::new();
        let m = book.post(0, WorkReqOp::Write { remote_addr: 0x2000, rkey: 1 }, 4 * 1024, cfg.mtu);
        data_packet(&cfg, &m, desc_at(&m, cfg.mtu, psn), psn, sretry, false, psn as u64)
    }

    #[test]
    fn reordered_message_completes_and_acks_emsn() {
        let mut rx = receiver();
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        for psn in [2u32, 0, 3, 1] {
            deliver(&mut rx, &mut pool, data(psn, 0), psn as u64, &mut t, &mut c, &mut r);
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].bytes, 4096);
        assert_eq!(rx.emsn(), 1);
        // Exactly one ACK, carrying eMSN = 1.
        let acks: Vec<_> =
            std::iter::from_fn(|| pull_owned(&mut rx, &mut pool, 10, &mut t, &mut c, &mut r))
                .collect();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].header.aeth.unwrap().emsn, 1);
    }

    #[test]
    fn ho_packet_is_bounced_with_sender_qpn() {
        let mut rx = receiver();
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let mut ho = data(1, 0);
        ho.header = ho.header.trim_to_header_only();
        ho.payload_len = 0;
        let dst_before = ho.header.ip.dst;
        deliver(&mut rx, &mut pool, ho, 0, &mut t, &mut c, &mut r);
        assert_eq!(rx.ho_bounced, 1);
        let bounced = pull_owned(&mut rx, &mut pool, 1, &mut t, &mut c, &mut r).unwrap();
        assert_eq!(bounced.dcp_tag(), DcpTag::HeaderOnly);
        assert_eq!(bounced.header.ip.src, dst_before, "src/dst swapped");
        assert_eq!(bounced.header.bth.dest_qpn, scfg().local_qpn.0, "addressed to the sender QP");
        assert_eq!(bounced.header.bth.psn, 1, "PSN preserved for precise retransmit");
    }

    #[test]
    fn duplicate_of_completed_message_reacks() {
        let mut rx = receiver();
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        for psn in 0..4 {
            deliver(&mut rx, &mut pool, data(psn, 0), psn as u64, &mut t, &mut c, &mut r);
        }
        while pull_owned(&mut rx, &mut pool, 5, &mut t, &mut c, &mut r).is_some() {}
        deliver(&mut rx, &mut pool, data(2, 1), 10, &mut t, &mut c, &mut r);
        assert_eq!(rx.stats().duplicates, 1);
        let ack = pull_owned(&mut rx, &mut pool, 11, &mut t, &mut c, &mut r).unwrap();
        assert_eq!(ack.header.aeth.unwrap().emsn, 1, "re-ACK unblocks the sender");
        assert_eq!(c.len(), 1, "no double completion");
    }

    #[test]
    fn old_round_packets_are_not_counted() {
        let mut rx = receiver();
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        // Round 1 packets arrive first (post-timeout), then a round-0
        // straggler: the straggler must not contribute to the count.
        deliver(&mut rx, &mut pool, data(0, 1), 0, &mut t, &mut c, &mut r);
        deliver(&mut rx, &mut pool, data(1, 1), 1, &mut t, &mut c, &mut r);
        deliver(&mut rx, &mut pool, data(2, 0), 2, &mut t, &mut c, &mut r);
        deliver(&mut rx, &mut pool, data(3, 1), 3, &mut t, &mut c, &mut r);
        assert!(c.is_empty(), "psn 2 of round 1 still missing");
        deliver(&mut rx, &mut pool, data(2, 1), 4, &mut t, &mut c, &mut r);
        assert_eq!(c.len(), 1);
    }

    fn send_data(msn_count: u32, psn: u32, base_book: &mut TxBook) -> Packet {
        let cfg = scfg();
        if base_book.next_msn() < msn_count {
            for _ in base_book.next_msn()..msn_count {
                base_book.post(0, WorkReqOp::Send, 2 * 1024, cfg.mtu);
            }
        }
        let (m, _) = base_book.locate(psn).unwrap();
        let m = *m;
        data_packet(&cfg, &m, desc_at(&m, cfg.mtu, psn), psn, 0, false, psn as u64)
    }

    #[test]
    fn out_of_order_sends_match_receive_wqes_by_ssn() {
        use dcp_rdma::memory::{Mtt, PatternGen};
        let mut mtt = Mtt::new();
        mtt.register(0x5000, 8192);
        let placement = Placement::Real { mtt, pattern: PatternGen::new(9) };
        let mut rx = DcpReceiver::new(FlowCfg::receiver_of(&scfg()), placement);
        // Two 2 KB Send messages; buffers posted out of band.
        rx.post_recv(100, 0x5000, 2048);
        rx.post_recv(101, 0x5000 + 4096, 2048);
        let mut book = TxBook::new();
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        // Message 1 (SSN 1, psns 2..4) arrives entirely before message 0.
        for psn in [3u32, 2, 1, 0] {
            let p = send_data(2, psn, &mut book);
            deliver(&mut rx, &mut pool, p, psn as u64, &mut t, &mut c, &mut r);
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].wr_id, 100, "first completion consumes the first posted WQE");
        assert_eq!(c[1].wr_id, 101);
        // Each message landed in its own buffer (second half untouched of
        // each 2 KB window would differ otherwise).
        // Each buffer holds its message's bytes 0..2048 (the pattern origin
        // is the buffer base, addr − offset).
        let Placement::Real { mtt, pattern } = rx.placement() else { unreachable!() };
        let mut want = vec![0u8; 2048];
        pattern.fill(0, &mut want);
        let got0 = mtt.local(0x5000, 2048).unwrap().read(0x5000, 2048).unwrap().to_vec();
        assert_eq!(got0, want, "message 0 reconstructed in its own buffer");
        let got1 =
            mtt.local(0x5000 + 4096, 2048).unwrap().read(0x5000 + 4096, 2048).unwrap().to_vec();
        assert_eq!(got1, want, "message 1 reconstructed in its own buffer");
    }

    #[test]
    fn rnr_without_posted_buffer_is_not_counted() {
        let mut rx = DcpReceiver::new(FlowCfg::receiver_of(&scfg()), Placement::Virtual);
        rx.auto_rq = false;
        let mut book = TxBook::new();
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let p = send_data(1, 0, &mut book);
        deliver(&mut rx, &mut pool, p, 0, &mut t, &mut c, &mut r);
        // No buffer: nothing counted, nothing completed.
        let p = send_data(1, 1, &mut book);
        deliver(&mut rx, &mut pool, p, 1, &mut t, &mut c, &mut r);
        assert!(c.is_empty(), "RNR packets must not complete a message");
        // Post the buffer and redeliver (the coarse fallback's job).
        rx.post_recv(7, 0, 2048);
        for psn in [0u32, 1] {
            let p = send_data(1, psn, &mut book);
            deliver(&mut rx, &mut pool, p, 10 + psn as u64, &mut t, &mut c, &mut r);
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].wr_id, 7);
    }

    #[test]
    fn real_placement_reconstructs_reordered_write() {
        use dcp_rdma::memory::{Mtt, PatternGen};
        let mut mtt = Mtt::new();
        mtt.register(0x2000, 4096);
        let placement = Placement::Real { mtt, pattern: PatternGen::new(3) };
        let mut rx = DcpReceiver::new(FlowCfg::receiver_of(&scfg()), placement);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        for psn in [3u32, 1, 0, 2] {
            deliver(&mut rx, &mut pool, data(psn, 0), psn as u64, &mut t, &mut c, &mut r);
        }
        assert_eq!(c.len(), 1);
        let Placement::Real { mtt, pattern } = rx.placement() else { unreachable!() };
        let got = mtt.local(0x2000, 4096).unwrap().read(0x2000, 4096).unwrap();
        let mut want = vec![0u8; 4096];
        pattern.fill(0, &mut want);
        assert_eq!(got, &want[..], "reordered direct placement reconstructs the message");
    }
}
