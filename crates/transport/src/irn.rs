//! IRN — the paper's representative RNIC-SR design (§2.2, Mittal et al.).
//!
//! Receiver: accepts packets in any order (direct placement), sends a
//! cumulative ACK for in-order arrivals and a SACK — carrying both the
//! cumulative ePSN and the PSN of the out-of-order packet — for every OOO
//! arrival. Sender: maintains a bitmap of SACKed PSNs; a packet is
//! considered lost **only if a higher PSN has been SACKed**; loss recovery
//! is entered at most once and left only when the cumulative ACK passes the
//! recovery point, so re-dropped retransmissions and lost tail packets can
//! be recovered only by RTO. Flow control is a static BDP window.
//!
//! Those three properties are exactly what Figs. 1 and 2 exercise: under
//! packet-level load balancing the OOO-triggered SACKs cause spurious
//! retransmissions, and tail/retransmission losses pile up RTOs.

use crate::cc::CongestionControl;
use crate::common::{tokens, FlowCfg, Placement};
use crate::rxcore::{Accept, RxCore};
use crate::txcore::{AckQueue, TxCore};
use dcp_netsim::endpoint::{Endpoint, EndpointCtx};
use dcp_netsim::packet::{FlowId, NodeId, PktExt};
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::Nanos;
use dcp_netsim::RetxCause;
use dcp_rdma::qp::WorkReqOp;
use std::collections::{BTreeSet, VecDeque};

/// IRN sender: selective repeat with a SACK bitmap and single-entry loss
/// recovery mode.
pub struct IrnSender {
    tx: TxCore,
    /// SACKed PSNs above `snd_una` — the sender-side bitmap.
    sacked: BTreeSet<u32>,
    in_recovery: bool,
    recovery_point: u32,
    /// PSNs queued for retransmission, with the signal that queued them.
    retx_q: VecDeque<(u32, RetxCause)>,
    /// PSNs already retransmitted in this recovery episode ("the sender
    /// enters the loss recovery mode only once", §2.2).
    retx_done: BTreeSet<u32>,
}

impl IrnSender {
    pub fn new(cfg: FlowCfg, rto: Nanos, cc: Box<dyn CongestionControl>) -> Self {
        IrnSender {
            tx: TxCore::new(cfg, rto, cc),
            sacked: BTreeSet::new(),
            in_recovery: false,
            recovery_point: 0,
            retx_q: VecDeque::new(),
            retx_done: BTreeSet::new(),
        }
    }

    fn advance_cum(&mut self, epsn: u32, ctx: &mut EndpointCtx) {
        if !self.tx.credit_cum(epsn, ctx) {
            return;
        }
        while let Some(&p) = self.sacked.first() {
            if p < epsn {
                self.sacked.remove(&p);
            } else {
                break;
            }
        }
        // Cumulative progress above SACKed holes subsumes them.
        let mut una = epsn;
        while self.sacked.remove(&una) {
            una += 1;
        }
        self.tx.advance_una(una, ctx);
        if self.in_recovery && una >= self.recovery_point {
            self.in_recovery = false;
            self.retx_done.clear();
            self.retx_q.clear();
        }
    }

    /// Marks losses exposed by the SACK bitmap: every un-SACKed PSN below
    /// the highest SACKed one, not retransmitted in this episode.
    fn mark_losses(&mut self) {
        let Some(&hi) = self.sacked.last() else { return };
        for psn in self.tx.snd_una..hi {
            if !self.sacked.contains(&psn) && self.retx_done.insert(psn) {
                self.retx_q.push_back((psn, RetxCause::Sack));
            }
        }
    }
}

impl Endpoint for IrnSender {
    fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.tx.post(wr_id, op, len);
    }

    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        match pkt.ext {
            PktExt::GbnAck { epsn } => {
                self.advance_cum(epsn, ctx);
            }
            PktExt::Sack { epsn, sacked_psn } => {
                self.advance_cum(epsn, ctx);
                if sacked_psn >= self.tx.snd_una {
                    self.sacked.insert(sacked_psn);
                }
                if !self.in_recovery && !self.sacked.is_empty() {
                    self.in_recovery = true;
                    self.recovery_point = self.tx.snd_nxt;
                }
                if self.in_recovery {
                    self.mark_losses();
                }
            }
            PktExt::Cnp => self.tx.on_cnp(ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        match tokens::kind(token) {
            tokens::RTO => {
                if self.tx.rto_fired(token, ctx) {
                    // Last resort: requeue every outstanding un-SACKed PSN.
                    self.retx_done.clear();
                    self.retx_q.clear();
                    for psn in self.tx.snd_una..self.tx.snd_nxt {
                        if !self.sacked.contains(&psn) {
                            self.retx_q.push_back((psn, RetxCause::Timeout));
                            self.retx_done.insert(psn);
                        }
                    }
                    self.in_recovery = true;
                    self.recovery_point = self.tx.snd_nxt;
                }
            }
            _ => self.tx.on_timer(token, ctx),
        }
    }

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        if self.tx.pace_closed(self.has_pending(), ctx) {
            return None;
        }
        // Retransmissions first (they occupy already-granted window).
        while let Some((psn, cause)) = self.retx_q.pop_front() {
            if psn < self.tx.snd_una || self.sacked.contains(&psn) {
                continue; // already made it
            }
            return Some(self.tx.emit(psn, Some(cause), ctx));
        }
        // New data within the BDP window.
        if self.tx.has_new() && self.tx.window_open() {
            let (psn, _) = self.tx.take_next();
            return Some(self.tx.emit(psn, None, ctx));
        }
        None
    }

    fn has_pending(&self) -> bool {
        !self.retx_q.is_empty() || self.tx.has_new()
    }

    fn stats(&self) -> TransportStats {
        self.tx.stats
    }

    fn is_done(&self) -> bool {
        self.tx.book.is_empty()
    }

    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        self.tx.reset(flow, local, remote);
        // B-tree bitmaps release their nodes here (§4.5's point: bitmap
        // state costs allocation churn that DCP's counters avoid).
        self.sacked.clear();
        self.in_recovery = false;
        self.recovery_point = 0;
        self.retx_q.clear();
        self.retx_done.clear();
        true
    }
}

/// IRN receiver: order-tolerant placement; SACK on every OOO arrival.
pub struct IrnReceiver {
    rx: RxCore,
    acks: AckQueue,
}

impl IrnReceiver {
    pub fn new(cfg: FlowCfg, placement: Placement) -> Self {
        let rx = RxCore::new(cfg.local, cfg.flow, u32::MAX, placement);
        IrnReceiver { rx, acks: AckQueue::new(cfg) }
    }
}

impl Endpoint for IrnReceiver {
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        if !pkt.is_data() {
            return;
        }
        self.acks.on_ecn(&pkt, 0, ctx);
        let psn = pkt.psn();
        let ext = match self.rx.on_data(&pkt, ctx) {
            Accept::InOrder | Accept::Duplicate => PktExt::GbnAck { epsn: self.rx.epsn },
            Accept::OutOfOrder => PktExt::Sack { epsn: self.rx.epsn, sacked_psn: psn },
            Accept::Rejected => unreachable!("IRN receiver has no OOO cap"),
        };
        self.acks.queue(ext, 0);
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        self.acks.pull(ctx)
    }

    fn has_pending(&self) -> bool {
        self.acks.has_pending()
    }

    fn stats(&self) -> TransportStats {
        self.rx.stats
    }

    fn is_done(&self) -> bool {
        !self.acks.has_pending()
    }

    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        self.acks.recycle(flow, local, remote);
        self.rx.recycle(local, flow);
        true
    }
}

/// Builds a connected IRN pair.
pub fn irn_pair(
    cfg: FlowCfg,
    rto: Nanos,
    cc: Box<dyn CongestionControl>,
    placement: Placement,
) -> (IrnSender, IrnReceiver) {
    let rcfg = FlowCfg::receiver_of(&cfg);
    (IrnSender::new(cfg, rto, cc), IrnReceiver::new(rcfg, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::StaticWindow;
    use crate::common::{ack_packet, data_packet, desc_at, TxBook};
    use dcp_netsim::endpoint::{ctx, deliver, pull_owned};
    use dcp_netsim::packet::{FlowId, NodeId};
    use dcp_netsim::pool::PacketPool;
    use dcp_netsim::time::US;
    use dcp_rdma::headers::DcpTag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> FlowCfg {
        FlowCfg::sender(FlowId(1), NodeId(0), NodeId(1), DcpTag::NonDcp)
    }

    fn sender(window_pkts: u64) -> IrnSender {
        let mut s = IrnSender::new(
            cfg(),
            200 * US,
            Box::new(StaticWindow { window_bytes: window_pkts * 1024 }),
        );
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 32 * 1024);
        s
    }

    fn drain(s: &mut IrnSender, now: Nanos) -> Vec<u32> {
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let mut v = vec![];
        while let Some(p) = pull_owned(&mut *s, &mut pool, now, &mut t, &mut c, &mut r) {
            v.push(p.psn());
        }
        v
    }

    fn sack(s: &mut IrnSender, now: Nanos, epsn: u32, sacked: u32) {
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let p = ack_packet(
            &FlowCfg::receiver_of(&cfg()),
            PktExt::Sack { epsn, sacked_psn: sacked },
            0,
            0,
        );
        deliver(&mut *s, &mut pool, p, now, &mut t, &mut c, &mut r);
    }

    #[test]
    fn sack_gap_triggers_selective_retransmit() {
        let mut s = sender(16);
        assert_eq!(drain(&mut s, 0), (0..16).collect::<Vec<_>>());
        // PSN 3 lost; receiver SACKs 4 with epsn 3... receiver got 0,1,2 then 4.
        sack(&mut s, 1000, 3, 4);
        let out = drain(&mut s, 1000);
        assert_eq!(out[0], 3, "exactly the gap is retransmitted");
        assert_eq!(s.stats().retx_pkts, 1);
    }

    #[test]
    fn gap_retransmitted_once_per_episode() {
        let mut s = sender(16);
        drain(&mut s, 0);
        sack(&mut s, 1000, 3, 4);
        sack(&mut s, 1001, 3, 5);
        sack(&mut s, 1002, 3, 6);
        let retx: Vec<u32> = drain(&mut s, 1003);
        assert_eq!(retx.iter().filter(|&&p| p == 3).count(), 1, "no duplicate retx of PSN 3");
        // A re-dropped retransmission is only recoverable by RTO (§2.2).
        sack(&mut s, 2000, 3, 7);
        assert!(drain(&mut s, 2001).iter().all(|&p| p != 3));
    }

    #[test]
    fn spurious_retransmission_under_reordering() {
        // Pure reordering, no loss: OOO arrivals SACK future PSNs and the
        // sender wrongly retransmits the "gaps" — the Fig. 1 pathology.
        let mut s = sender(8);
        drain(&mut s, 0);
        // Packets arrive 2,0,1: receiver SACKs psn2 at epsn0.
        sack(&mut s, 100, 0, 2);
        let out = drain(&mut s, 200);
        assert!(out.contains(&0) && out.contains(&1), "spurious retx of 0,1: {out:?}");
        assert_eq!(s.stats().retx_pkts, 2);
    }

    #[test]
    fn rto_requeues_all_unsacked() {
        let mut s = sender(4);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        // SACK psn 2 only.
        sack(&mut s, 50, 0, 2);
        // Spurious retransmissions of 0 and 1 go out here. No cumulative
        // progress since the first transmission, so the RTO it armed is
        // still the live one.
        let _ = drain(&mut s, 60);
        let (at, token) =
            t.iter().rfind(|(_, tok)| tokens::kind(*tok) == tokens::RTO).copied().unwrap();
        s.on_timer(token, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(s.stats().timeouts, 1);
        let out = drain(&mut s, at + 1);
        assert!(out.contains(&0) && out.contains(&1) && out.contains(&3));
        assert!(!out.contains(&2), "SACKed PSN not retransmitted on RTO");
    }

    #[test]
    fn cumulative_ack_exits_recovery_and_completes() {
        let mut s = sender(32);
        drain(&mut s, 0);
        sack(&mut s, 100, 5, 7);
        assert!(s.in_recovery);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let ack = ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::GbnAck { epsn: 32 }, 0, 0);
        deliver(&mut s, &mut pool, ack, 200, &mut t, &mut c, &mut r);
        assert!(!s.in_recovery);
        assert_eq!(c.len(), 1);
        assert!(s.is_done());
    }

    #[test]
    fn receiver_sacks_ooo_and_acks_in_order() {
        let scfg = cfg();
        let mut book = TxBook::new();
        let m = book.post(0, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 4 * 1024, scfg.mtu);
        let mk = |psn: u32| {
            data_packet(&scfg, &m, desc_at(&m, scfg.mtu, psn), psn, 0, false, psn as u64)
        };
        let mut rx = IrnReceiver::new(FlowCfg::receiver_of(&scfg), Placement::Virtual);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        deliver(&mut rx, &mut pool, mk(0), 0, &mut t, &mut c, &mut r);
        deliver(&mut rx, &mut pool, mk(2), 1, &mut t, &mut c, &mut r);
        deliver(&mut rx, &mut pool, mk(1), 2, &mut t, &mut c, &mut r);
        deliver(&mut rx, &mut pool, mk(3), 3, &mut t, &mut c, &mut r);
        let mut outs = vec![];
        while let Some(p) = pull_owned(&mut rx, &mut pool, 4, &mut t, &mut c, &mut r) {
            outs.push(p.ext);
        }
        assert_eq!(
            outs,
            vec![
                PktExt::GbnAck { epsn: 1 },
                PktExt::Sack { epsn: 1, sacked_psn: 2 },
                PktExt::GbnAck { epsn: 3 },
                PktExt::GbnAck { epsn: 4 },
            ]
        );
        assert_eq!(c.len(), 1, "message completed");
    }
}
