//! DCP-RNIC sender: HO-based retransmission (§4.3) with the host-memory
//! RetransQ, batched PCIe fetches, and the coarse-grained timeout fallback
//! with `sRetryNo` rounds (§4.5).
//!
//! The sender keeps **no bitmap and no per-packet timer**: loss events
//! arrive as header-only packets naming exactly the (MSN, PSN) to resend.
//! Because HO packets are stateless, entries are queued in host memory and
//! fetched in batches so the congestion-control module can regulate the
//! retransmission rate (§4.3 challenge #2) and PCIe latency is amortized
//! (challenge #1).

use crate::config::{DcpConfig, RetransMode};
use dcp_netsim::endpoint::{Endpoint, EndpointCtx};
use dcp_netsim::packet::{FlowId, NodeId, Packet, PktExt};
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::RetxCause;
use dcp_rdma::headers::DcpTag;
use dcp_rdma::qp::{RetransEntry, WorkReqOp};
use dcp_transport::cc::CongestionControl;
use dcp_transport::common::{tokens, FlowCfg};
use dcp_transport::txcore::TxCore;
use std::collections::{HashMap, VecDeque};

/// Timer token for a PCIe fetch completion.
const FETCH: u64 = 5 << tokens::KIND_SHIFT;

/// The DCP-RNIC requester. Of the skeleton's cumulative window it uses
/// only `snd_nxt` (acknowledgment is by eMSN, not PSN), and its RTO is the
/// coarse-grained fallback timer.
pub struct DcpSender {
    tx: TxCore,
    dcfg: DcpConfig,
    /// Host-memory retransmission queue (§4.3).
    retransq: VecDeque<RetransEntry>,
    /// Entries fetched onto the NIC, ready to retransmit.
    fetched: VecDeque<RetransEntry>,
    fetch_inflight: bool,
    /// Per-message retry round; only populated after coarse timeouts.
    retry_no: HashMap<u32, u8>,
    /// Timeout-triggered retransmissions (whole unaMSN message).
    timeout_q: VecDeque<(u32, u32)>,
    /// PCIe round trips spent on the retransmission path (ablation metric).
    pub pcie_fetches: u64,
}

impl DcpSender {
    pub fn new(cfg: FlowCfg, dcfg: DcpConfig, cc: Box<dyn CongestionControl>) -> Self {
        assert_eq!(cfg.data_tag, DcpTag::Data, "DCP traffic must carry the Data tag");
        DcpSender {
            tx: TxCore::new(cfg, dcfg.coarse_timeout, cc),
            dcfg,
            retransq: VecDeque::new(),
            fetched: VecDeque::new(),
            fetch_inflight: false,
            retry_no: HashMap::new(),
            timeout_q: VecDeque::new(),
            pcie_fetches: 0,
        }
    }

    /// Length of the host-memory RetransQ (mirrored in the QPC, §4.3).
    pub fn retransq_len(&self) -> usize {
        self.retransq.len()
    }

    /// Kicks off a PCIe fetch of retransmission entries if one is needed.
    fn maybe_fetch(&mut self, ctx: &mut EndpointCtx) {
        if self.fetch_inflight || self.retransq.is_empty() || !self.fetched.is_empty() {
            return;
        }
        self.fetch_inflight = true;
        let latency = match self.dcfg.retrans_mode {
            // Batched: the Tx path issues one batched read (entries + WQEs
            // pipelined with the payload DMA).
            RetransMode::Batched => self.dcfg.pcie.rtt,
            // Per-HO strawman: WQE fetch then data fetch, serialized.
            RetransMode::PerHo => 2 * self.dcfg.pcie.rtt,
        };
        ctx.timers.push((ctx.now + latency, FETCH));
    }

    /// Builds retransmission (`msn`, `psn`) in the message's current retry
    /// round, or `None` if the message has retired since it was queued.
    fn build_retx(&mut self, msn: u32, psn: u32, cause: RetxCause) -> Option<Packet> {
        let m = *self.tx.book.by_msn(msn)?;
        if psn < m.first_psn || psn >= m.first_psn + m.pkt_count {
            return None;
        }
        let sretry = self.retry_no.get(&msn).copied().unwrap_or(0);
        Some(self.tx.build(&m, psn, sretry, Some(cause)))
    }
}

impl Endpoint for DcpSender {
    fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.tx.post(wr_id, op, len);
    }

    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        match pkt.dcp_tag() {
            DcpTag::HeaderOnly => {
                // A loss notification bounced back by the receiver: extract
                // (MSN, PSN) and DMA it into the RetransQ (§4.3 Rx path).
                self.tx.stats.ho_received += 1;
                let msn = pkt.msn().expect("HO packets carry the MSN");
                let psn = pkt.psn();
                // Stale-round filter: the HO's sRetryNo (retained through
                // trimming because it lives in the IP header, Fig. 4a) must
                // match the message's current round. A notification about a
                // pre-timeout copy must not trigger a retransmission — the
                // timeout round already resent everything, and acting on it
                // would deliver a duplicate that corrupts the receiver's
                // packet count (§4.5).
                let current = self.retry_no.get(&msn).copied().unwrap_or(0);
                if pkt.header.ip.sretry_no() == current && self.tx.book.by_msn(msn).is_some() {
                    self.retransq.push_back(RetransEntry { msn, psn });
                    self.maybe_fetch(ctx);
                }
            }
            DcpTag::Ack => {
                if pkt.ext == PktExt::Cnp {
                    self.tx.on_cnp(ctx);
                    return;
                }
                let Some(aeth) = pkt.header.aeth else { return };
                let retired = self.tx.retire_msn_below(aeth.emsn, ctx);
                if retired.is_empty() {
                    return;
                }
                for m in retired {
                    self.retry_no.remove(&m.wqe.msn);
                }
                // The coarse fallback resends a message's *unsent* tail
                // PSNs as retransmissions; if that retry round completes
                // the message, `snd_nxt` can still point inside the
                // retired PSN range. Skip the hole — the book only pops
                // from the front, so the first live PSN is the new front
                // message's origin (or `next_psn` on an empty book), and
                // everything below it is delivered.
                let book = &self.tx.book;
                let first_live = book
                    .una_msn()
                    .and_then(|msn| book.by_msn(msn))
                    .map_or(book.next_psn(), |m| m.first_psn);
                self.tx.snd_nxt = self.tx.snd_nxt.max(first_live);
                // Progress: reset the coarse fallback timer (§4.5).
                if self.tx.book.is_empty() {
                    self.tx.disarm_rto();
                } else {
                    self.tx.arm_rto(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        match tokens::kind(token) {
            tokens::RTO => {
                if !self.tx.rto_is_live(token) {
                    return;
                }
                let Some(msn) = self.tx.book.una_msn() else {
                    self.tx.disarm_rto();
                    return;
                };
                // Coarse fallback: bump the message's retry round and resend
                // all of it (§4.5). HO-triggered entries from older rounds
                // become harmless: the receiver ignores old rounds.
                self.tx.stats.timeouts += 1;
                let r = self.retry_no.entry(msn).or_insert(0);
                *r = r.saturating_add(1);
                let m = *self.tx.book.by_msn(msn).expect("unaMSN present");
                // The full-message resend supersedes any queued HO entries
                // for this message; acting on both would duplicate packets
                // within the new round.
                self.retransq.retain(|e| e.msn != msn);
                self.fetched.retain(|e| e.msn != msn);
                self.timeout_q.clear();
                for psn in m.first_psn..m.first_psn + m.pkt_count {
                    self.timeout_q.push_back((msn, psn));
                }
                self.tx.arm_rto(ctx);
            }
            FETCH => {
                // PCIe fetch completed: entries are now on the NIC.
                self.fetch_inflight = false;
                self.pcie_fetches += 1;
                let n = match self.dcfg.retrans_mode {
                    RetransMode::Batched => self.dcfg.pcie.batch.min(self.retransq.len()),
                    RetransMode::PerHo => 1.min(self.retransq.len()),
                };
                self.fetched.extend(self.retransq.drain(..n));
            }
            _ => self.tx.on_timer(token, ctx),
        }
    }

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        // Pacing gate from the CC module; applies to retransmissions too,
        // which is exactly how DCP makes the retransmission rate
        // controllable (§4.3 challenge #2).
        if self.tx.pace_closed(self.has_pending(), ctx) {
            return None;
        }
        // 1. Timeout-round retransmissions.
        while let Some((msn, psn)) = self.timeout_q.pop_front() {
            if let Some(pkt) = self.build_retx(msn, psn, RetxCause::Timeout) {
                return Some(self.tx.emit_built(pkt, ctx));
            }
        }
        // 2. Fetched HO-named retransmissions.
        while let Some(e) = self.fetched.pop_front() {
            self.maybe_fetch(ctx);
            if let Some(pkt) = self.build_retx(e.msn, e.psn, RetxCause::Ho) {
                return Some(self.tx.emit_built(pkt, ctx));
            }
        }
        self.maybe_fetch(ctx);
        // 3. New data.
        if self.tx.has_new() {
            let m = *self.tx.book.locate(self.tx.snd_nxt).expect("unsent psn locates").0;
            let sretry = self.retry_no.get(&m.wqe.msn).copied().unwrap_or(0);
            let (psn, _) = self.tx.take_next();
            let pkt = self.tx.build(&m, psn, sretry, None);
            return Some(self.tx.emit_built(pkt, ctx));
        }
        None
    }

    fn has_pending(&self) -> bool {
        !self.timeout_q.is_empty() || !self.fetched.is_empty() || self.tx.has_new()
    }

    fn stats(&self) -> TransportStats {
        self.tx.stats
    }

    fn is_done(&self) -> bool {
        self.tx.book.is_empty()
    }

    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        self.tx.reset(flow, local, remote);
        self.retransq.clear();
        self.fetched.clear();
        self.fetch_inflight = false;
        self.retry_no.clear();
        self.timeout_q.clear();
        self.pcie_fetches = 0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_netsim::endpoint::{ctx, deliver, pull_owned};
    use dcp_netsim::packet::{FlowId, NodeId};
    use dcp_netsim::pool::PacketPool;
    use dcp_rdma::headers::{Aeth, RdmaOpcode};
    use dcp_transport::cc::NoCc;
    use dcp_transport::common::{ack_packet, data_packet, desc_at, TxBook};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> FlowCfg {
        FlowCfg::sender(FlowId(1), NodeId(0), NodeId(1), DcpTag::Data)
    }

    fn sender(mode: RetransMode) -> DcpSender {
        let dcfg = DcpConfig { retrans_mode: mode, ..Default::default() };
        let mut s = DcpSender::new(cfg(), dcfg, Box::new(NoCc::default()));
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 8 * 1024);
        s
    }

    /// A header-only notification for (msn, psn), as bounced by the receiver.
    fn ho(msn: u32, psn: u32) -> Packet {
        let scfg = cfg();
        let mut book = TxBook::new();
        let m = book.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 8 * 1024, scfg.mtu);
        let mut pkt = data_packet(&scfg, &m, desc_at(&m, scfg.mtu, psn), psn, 0, false, 0);
        pkt.header = pkt.header.trim_to_header_only();
        pkt.payload_len = 0;
        pkt.desc = dcp_netsim::packet::PktDesc::NONE;
        let mut h = pkt.header;
        h.swap_src_dst(scfg.local_qpn.0);
        pkt.header = h;
        let _ = msn;
        pkt
    }

    #[test]
    fn ho_notification_triggers_precise_retransmit() {
        let mut s = sender(RetransMode::Batched);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        assert_eq!(s.stats().data_pkts, 8);
        deliver(&mut s, &mut pool, ho(0, 3), 1000, &mut t, &mut c, &mut r);
        assert_eq!(s.stats().ho_received, 1);
        assert_eq!(s.retransq_len(), 1);
        // Entry is fetched after one PCIe RTT...
        assert!(
            pull_owned(&mut s, &mut pool, 1000, &mut t, &mut c, &mut r).is_none(),
            "not fetched yet"
        );
        let (at, tok) = t.iter().find(|(_, tok)| tokens::kind(*tok) == FETCH).copied().unwrap();
        assert_eq!(at, 1000 + 1000, "1 µs PCIe RTT");
        s.on_timer(tok, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        let p = pull_owned(&mut s, &mut pool, at, &mut t, &mut c, &mut r).unwrap();
        assert_eq!(p.psn(), 3, "retransmits exactly the PSN the HO named");
        assert!(p.is_retx);
        assert_eq!(s.stats().retx_pkts, 1);
    }

    #[test]
    fn batched_fetch_amortizes_pcie() {
        let mut s = sender(RetransMode::Batched);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        for psn in 0..8 {
            deliver(&mut s, &mut pool, ho(0, psn), 1000, &mut t, &mut c, &mut r);
        }
        let (at, tok) = t.iter().find(|(_, tok)| tokens::kind(*tok) == FETCH).copied().unwrap();
        s.on_timer(tok, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        let mut psns = vec![];
        while let Some(p) = pull_owned(&mut s, &mut pool, at, &mut t, &mut c, &mut r) {
            psns.push(p.psn());
        }
        assert_eq!(psns, (0..8).collect::<Vec<_>>(), "whole batch retransmitted in HO order");
        assert_eq!(s.pcie_fetches, 1);
    }

    #[test]
    fn per_ho_mode_serializes_fetches() {
        let mut s = sender(RetransMode::PerHo);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        for psn in 0..4 {
            deliver(&mut s, &mut pool, ho(0, psn), 1000, &mut t, &mut c, &mut r);
        }
        // First fetch completes at +2 µs and yields exactly one entry.
        let (at, tok) = t.iter().find(|(_, tok)| tokens::kind(*tok) == FETCH).copied().unwrap();
        assert_eq!(at, 1000 + 2000);
        s.on_timer(tok, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        let mut n = 0;
        while pull_owned(&mut s, &mut pool, at, &mut t, &mut c, &mut r).is_some() {
            n += 1;
        }
        assert_eq!(n, 1, "per-HO mode retransmits one packet per 2 PCIe RTTs");
    }

    #[test]
    fn emsn_ack_retires_and_completes() {
        let mut s = sender(RetransMode::Batched);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        let rcfg = FlowCfg::receiver_of(&cfg());
        let mut ack = ack_packet(&rcfg, PktExt::None, 1, 0);
        ack.header.aeth = Some(Aeth { syndrome: 0, emsn: 1 });
        assert_eq!(ack.header.bth.opcode, RdmaOpcode::Acknowledge);
        deliver(&mut s, &mut pool, ack, 5000, &mut t, &mut c, &mut r);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].wr_id, 1);
        assert!(s.is_done());
    }

    #[test]
    fn coarse_timeout_resends_whole_message_with_bumped_round() {
        let mut s = sender(RetransMode::Batched);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        let (at, tok) =
            t.iter().find(|(_, tok)| tokens::kind(*tok) == tokens::RTO).copied().unwrap();
        s.on_timer(tok, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(s.stats().timeouts, 1);
        let mut psns = vec![];
        let mut rounds = vec![];
        while let Some(p) = pull_owned(&mut s, &mut pool, at, &mut t, &mut c, &mut r) {
            psns.push(p.psn());
            rounds.push(p.header.ip.sretry_no());
        }
        assert_eq!(psns, (0..8).collect::<Vec<_>>(), "all packets of unaMSN resent");
        assert!(rounds.iter().all(|&r| r == 1), "retry round bumped to 1");
    }

    #[test]
    fn stale_ho_for_retired_message_is_ignored() {
        let mut s = sender(RetransMode::Batched);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        let rcfg = FlowCfg::receiver_of(&cfg());
        let mut ack = ack_packet(&rcfg, PktExt::None, 1, 0);
        ack.header.aeth = Some(Aeth { syndrome: 0, emsn: 1 });
        deliver(&mut s, &mut pool, ack, 5000, &mut t, &mut c, &mut r);
        deliver(&mut s, &mut pool, ho(0, 3), 6000, &mut t, &mut c, &mut r);
        assert_eq!(s.retransq_len(), 0, "HO for an acknowledged message is dropped");
        assert!(!s.has_pending());
    }

    /// A starved sender has sent only 3 of message 0's 8 packets when the
    /// coarse fallback fires and resends the *whole* message — unsent tail
    /// included. The retry round completes the message, and its eMSN ACK
    /// retires it while `snd_nxt` still points inside the retired PSN
    /// range. The next pull must skip the hole and emit message 1's first
    /// packet as new data (this used to panic on `book.locate(snd_nxt)`).
    #[test]
    fn coarse_resend_of_unsent_tail_survives_retirement() {
        let mut s = sender(RetransMode::Batched);
        s.post(2, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 8 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        for _ in 0..3 {
            pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).unwrap();
        }
        assert_eq!(s.stats().data_pkts, 3);
        // Egress stays starved past the coarse timeout: whole-message
        // resend of message 0 is queued, but nothing can leave yet.
        let (at, tok) =
            t.iter().find(|(_, tok)| tokens::kind(*tok) == tokens::RTO).copied().unwrap();
        s.on_timer(tok, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(s.stats().timeouts, 1);
        // The receiver completes message 0 off the resend round; its ACK
        // retires it from the book while snd_nxt = 3 points inside it.
        let rcfg = FlowCfg::receiver_of(&cfg());
        let mut ack = ack_packet(&rcfg, PktExt::None, 1, 0);
        ack.header.aeth = Some(Aeth { syndrome: 0, emsn: 1 });
        deliver(&mut s, &mut pool, ack, at + 1000, &mut t, &mut c, &mut r);
        assert_eq!(c.len(), 1, "message 0 completes");
        // Stale timeout-round entries for the retired message drain
        // silently; the first live packet is message 1's PSN 8, new data.
        let p = pull_owned(&mut s, &mut pool, at + 1000, &mut t, &mut c, &mut r)
            .expect("sender must keep sending message 1");
        assert_eq!(p.psn(), 8, "snd_nxt skipped the retired hole");
        assert!(!p.is_retx, "message 1's packets are new data, not retransmissions");
    }
}
