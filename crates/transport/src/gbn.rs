//! RNIC-GBN: the Go-Back-N transport of traditional RoCEv2 RNICs
//! (Mellanox CX5 class — the paper's testbed baseline, §2.1/§6.1).
//!
//! Receiver: strictly in-order. An out-of-order arrival elicits one NAK
//! carrying the expected PSN and is discarded; everything already received
//! is acknowledged cumulatively. Sender: on NAK or RTO it rewinds `snd_nxt`
//! to the cumulative pointer and resends the entire window — the behaviour
//! whose loss sensitivity motivates the whole paper (Fig. 10).

use crate::cc::CongestionControl;
use crate::common::{tokens, FlowCfg, Placement};
use crate::rxcore::RxCore;
use crate::txcore::{AckQueue, TxCore};
use dcp_netsim::endpoint::{Endpoint, EndpointCtx};
use dcp_netsim::packet::{FlowId, NodeId, PktExt};
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::Nanos;
use dcp_netsim::RetxCause;
use dcp_rdma::qp::WorkReqOp;

/// Go-Back-N sender. Loss signal: a NAK or the RTO; repair: rewind
/// `snd_nxt` to `snd_una` and replay the window.
pub struct GbnSender {
    tx: TxCore,
    /// Signal behind the most recent rewind; stamped on every packet the
    /// rewind causes to be resent (GBN resends whole windows per episode).
    retx_cause: RetxCause,
}

impl GbnSender {
    pub fn new(cfg: FlowCfg, rto: Nanos, cc: Box<dyn CongestionControl>) -> Self {
        GbnSender { tx: TxCore::new(cfg, rto, cc), retx_cause: RetxCause::Unknown }
    }
}

impl Endpoint for GbnSender {
    fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.tx.post(wr_id, op, len);
    }

    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        match pkt.ext {
            PktExt::GbnAck { epsn } => {
                self.tx.ack_cum(epsn, ctx);
            }
            PktExt::GbnNak { epsn } => {
                // Go back: rewind to the receiver's expected PSN. A NAK
                // acknowledges what precedes it but credits no CC window and
                // always restarts the RTO.
                if epsn > self.tx.snd_una {
                    self.tx.snd_una = epsn;
                    self.tx.retire_psn_below(epsn, ctx);
                }
                self.tx.snd_nxt = self.tx.snd_una;
                self.retx_cause = RetxCause::Nack;
                self.tx.arm_rto(ctx);
            }
            PktExt::Cnp => self.tx.on_cnp(ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        match tokens::kind(token) {
            tokens::RTO => {
                if self.tx.rto_fired(token, ctx) {
                    self.tx.snd_nxt = self.tx.snd_una;
                    self.retx_cause = RetxCause::Timeout;
                }
            }
            _ => self.tx.on_timer(token, ctx),
        }
    }

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        // Gate order: data, pacing (rate-based CC), window.
        if !self.tx.has_new() || self.tx.pace_closed(true, ctx) || !self.tx.window_open() {
            return None;
        }
        let (psn, is_retx) = self.tx.take_next();
        Some(self.tx.emit(psn, is_retx.then_some(self.retx_cause), ctx))
    }

    fn has_pending(&self) -> bool {
        self.tx.has_new()
    }

    fn stats(&self) -> TransportStats {
        self.tx.stats
    }

    fn is_done(&self) -> bool {
        self.tx.book.is_empty()
    }

    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        self.tx.reset(flow, local, remote);
        self.retx_cause = RetxCause::Unknown;
        true
    }
}

/// Go-Back-N receiver: in-order acceptance, NAK on gaps.
pub struct GbnReceiver {
    rx: RxCore,
    acks: AckQueue,
    /// One NAK per gap episode; reset when the expected PSN arrives.
    nak_outstanding: bool,
}

impl GbnReceiver {
    pub fn new(cfg: FlowCfg, placement: Placement) -> Self {
        // In-order only: any OOO arrival is outside the (zero-size) window.
        let rx = RxCore::new(cfg.local, cfg.flow, 0, placement);
        GbnReceiver { rx, acks: AckQueue::new(cfg), nak_outstanding: false }
    }
}

impl Endpoint for GbnReceiver {
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        if !pkt.is_data() {
            return;
        }
        self.acks.on_ecn(&pkt, 0, ctx);
        let psn = pkt.psn();
        if psn == self.rx.epsn {
            self.rx.on_data(&pkt, ctx);
            self.nak_outstanding = false;
            self.acks.queue(PktExt::GbnAck { epsn: self.rx.epsn }, 0);
        } else if psn < self.rx.epsn {
            // Duplicate of something already delivered: re-ACK.
            self.rx.stats.duplicates += 1;
            self.rx.stats.pkts_received += 1;
            self.acks.queue(PktExt::GbnAck { epsn: self.rx.epsn }, 0);
        } else {
            // Gap: discard (GBN receivers hold no OOO state) and NAK once.
            self.rx.stats.pkts_received += 1;
            if !self.nak_outstanding {
                self.nak_outstanding = true;
                self.acks.queue(PktExt::GbnNak { epsn: self.rx.epsn }, 0);
            }
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
        self.rx.stats
    }

    fn is_done(&self) -> bool {
        !self.acks.has_pending()
    }

    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        self.acks.recycle(flow, local, remote);
        self.rx.recycle(local, flow);
        self.nak_outstanding = false;
        true
    }
}

/// Builds a connected GBN sender/receiver pair for `flow` from `src` to
/// `dst` with the given retransmission timeout, CC and payload placement.
pub fn gbn_pair(
    cfg: FlowCfg,
    rto: Nanos,
    cc: Box<dyn CongestionControl>,
    placement: Placement,
) -> (GbnSender, GbnReceiver) {
    let rcfg = FlowCfg::receiver_of(&cfg);
    (GbnSender::new(cfg, rto, cc), GbnReceiver::new(rcfg, placement))
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

    #[test]
    fn sender_emits_sequential_psns_within_window() {
        let mut s =
            GbnSender::new(cfg(), 200 * US, Box::new(StaticWindow { window_bytes: 3 * 1024 }));
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 10 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let mut psns = vec![];
        while let Some(p) = pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r) {
            psns.push(p.psn());
        }
        assert_eq!(psns, vec![0, 1, 2], "BDP window of 3 packets gates the burst");
        assert!(s.has_pending());
    }

    #[test]
    fn nak_rewinds_and_resends() {
        let mut s =
            GbnSender::new(cfg(), 200 * US, Box::new(StaticWindow { window_bytes: 8 * 1024 }));
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 8 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        for _ in 0..5 {
            pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).unwrap();
        }
        // Receiver saw 0,1 then a gap: NAK epsn=2.
        let nak = ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::GbnNak { epsn: 2 }, 0, 0);
        deliver(&mut s, &mut pool, nak, 1000, &mut t, &mut c, &mut r);
        let p = pull_owned(&mut s, &mut pool, 1000, &mut t, &mut c, &mut r).unwrap();
        assert_eq!(p.psn(), 2);
        assert!(p.is_retx);
        assert_eq!(s.stats().retx_pkts, 1);
    }

    #[test]
    fn cumulative_ack_retires_messages() {
        let mut s =
            GbnSender::new(cfg(), 200 * US, Box::new(StaticWindow { window_bytes: 64 * 1024 }));
        s.post(7, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 2 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        let ack = ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::GbnAck { epsn: 2 }, 0, 0);
        deliver(&mut s, &mut pool, ack, 5000, &mut t, &mut c, &mut r);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].wr_id, 7);
        assert!(s.is_done());
    }

    #[test]
    fn rto_rewinds_without_feedback() {
        let mut s =
            GbnSender::new(cfg(), 200 * US, Box::new(StaticWindow { window_bytes: 64 * 1024 }));
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 2 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        let (at, token) =
            t.iter().find(|(_, tok)| tokens::kind(*tok) == tokens::RTO).copied().unwrap();
        s.on_timer(token, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(s.stats().timeouts, 1);
        let p = pull_owned(&mut s, &mut pool, at, &mut t, &mut c, &mut r).unwrap();
        assert_eq!(p.psn(), 0);
        assert!(p.is_retx);
    }

    #[test]
    fn stale_rto_is_ignored_after_progress() {
        let mut s =
            GbnSender::new(cfg(), 200 * US, Box::new(StaticWindow { window_bytes: 64 * 1024 }));
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 2 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        let (at, stale) =
            t.iter().find(|(_, tok)| tokens::kind(*tok) == tokens::RTO).copied().unwrap();
        // Full ACK arrives before the timer fires.
        let ack = ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::GbnAck { epsn: 2 }, 0, 0);
        deliver(&mut s, &mut pool, ack, 100, &mut t, &mut c, &mut r);
        s.on_timer(stale, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(s.stats().timeouts, 0);
    }

    #[test]
    fn receiver_naks_once_per_gap() {
        let scfg = cfg();
        let mut book = TxBook::new();
        let m = book.post(0, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 4 * 1024, scfg.mtu);
        let mk = |psn: u32| {
            data_packet(&scfg, &m, desc_at(&m, scfg.mtu, psn), psn, 0, false, psn as u64)
        };
        let mut rx = GbnReceiver::new(FlowCfg::receiver_of(&scfg), Placement::Virtual);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        deliver(&mut rx, &mut pool, mk(0), 0, &mut t, &mut c, &mut r);
        deliver(&mut rx, &mut pool, mk(2), 1, &mut t, &mut c, &mut r);
        deliver(&mut rx, &mut pool, mk(3), 2, &mut t, &mut c, &mut r);
        let mut outs = vec![];
        while let Some(p) = pull_owned(&mut rx, &mut pool, 3, &mut t, &mut c, &mut r) {
            outs.push(p.ext);
        }
        assert_eq!(
            outs,
            vec![PktExt::GbnAck { epsn: 1 }, PktExt::GbnNak { epsn: 1 }],
            "one ACK, one NAK, no NAK repeat"
        );
    }
}
