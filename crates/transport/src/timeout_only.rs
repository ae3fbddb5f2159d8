//! Timeout-only loss recovery — the NVIDIA Spectrum behaviour the paper
//! compares against in §6.3: the receiver tolerates out-of-order arrivals
//! (so adaptive routing works) but gives the sender no loss signal; the
//! sender recovers purely by retransmission timeout, rewinding to the
//! cumulative pointer.
//!
//! That sender *is* [`GbnSender`]: same cumulative-ACK path, same RTO
//! rewind stamped `RetxCause::Timeout`, plus a NAK arm this receiver can
//! never trigger. Only the receiver is specific to the scheme.

use crate::cc::CongestionControl;
use crate::common::{FlowCfg, Placement};
use crate::gbn::GbnSender;
use crate::rxcore::RxCore;
use crate::txcore::AckQueue;
use dcp_netsim::endpoint::{Endpoint, EndpointCtx};
use dcp_netsim::packet::PktExt;
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::Nanos;

/// Receiver: order-tolerant direct placement, cumulative ACK only.
pub struct TimeoutOnlyReceiver {
    rx: RxCore,
    acks: AckQueue,
}

impl TimeoutOnlyReceiver {
    pub fn new(cfg: FlowCfg, placement: Placement) -> Self {
        let rx = RxCore::new(cfg.local, cfg.flow, u32::MAX, placement);
        TimeoutOnlyReceiver { rx, acks: AckQueue::new(cfg) }
    }
}

impl Endpoint for TimeoutOnlyReceiver {
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        if !pkt.is_data() {
            return;
        }
        self.acks.on_ecn(&pkt, 0, ctx);
        self.rx.on_data(&pkt, ctx);
        self.acks.queue(PktExt::GbnAck { epsn: self.rx.epsn }, 0);
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
}

/// Builds a connected timeout-only pair. The sender half recycles (it is
/// GBN's); the receiver half does not, so a driver recycling pairs must
/// fall back to fresh construction when either side declines.
pub fn timeout_only_pair(
    cfg: FlowCfg,
    rto: Nanos,
    cc: Box<dyn CongestionControl>,
    placement: Placement,
) -> (GbnSender, TimeoutOnlyReceiver) {
    let rcfg = FlowCfg::receiver_of(&cfg);
    (GbnSender::new(cfg, rto, cc), TimeoutOnlyReceiver::new(rcfg, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::StaticWindow;
    use crate::common::{ack_packet, data_packet, desc_at, tokens, TxBook};
    use dcp_netsim::endpoint::{ctx, deliver, pull_owned};
    use dcp_netsim::packet::{FlowId, NodeId};
    use dcp_netsim::pool::PacketPool;
    use dcp_netsim::time::US;
    use dcp_rdma::headers::DcpTag;
    use dcp_rdma::qp::WorkReqOp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> FlowCfg {
        FlowCfg::sender(FlowId(1), NodeId(0), NodeId(1), DcpTag::NonDcp)
    }

    const RTO: Nanos = 200 * US;

    #[test]
    fn no_fast_retransmit_only_rto() {
        let (mut s, _) = timeout_only_pair(
            cfg(),
            RTO,
            Box::new(StaticWindow { window_bytes: 8 * 1024 }),
            Placement::Virtual,
        );
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 8 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        // ACK for a prefix: sender just waits; no retx without timer.
        let ack = ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::GbnAck { epsn: 3 }, 0, 0);
        deliver(&mut s, &mut pool, ack, 1000, &mut t, &mut c, &mut r);
        assert!(pull_owned(&mut s, &mut pool, 1001, &mut t, &mut c, &mut r).is_none());
        // The ACK restarted the RTO clock: the one entry queued at the
        // first send re-queues itself at the new deadline instead of firing.
        let rto = |t: &[(Nanos, u64)]| -> Vec<(Nanos, u64)> {
            t.iter().filter(|(_, tok)| tokens::kind(*tok) == tokens::RTO).copied().collect()
        };
        let [(at, token)] = rto(&t)[..] else { panic!("one RTO entry for two arms") };
        s.on_timer(token, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert!(pull_owned(&mut s, &mut pool, at, &mut t, &mut c, &mut r).is_none());
        assert_eq!(s.stats().timeouts, 0);
        // RTO fires → rewind to snd_una = 3.
        let (at, token) = rto(&t)[1];
        assert_eq!(at, 1000 + RTO, "one RTO after the ACK");
        s.on_timer(token, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        let p = pull_owned(&mut s, &mut pool, at, &mut t, &mut c, &mut r).unwrap();
        assert_eq!(p.psn(), 3);
        assert!(p.is_retx);
        assert_eq!(s.stats().timeouts, 1);
    }

    #[test]
    fn receiver_is_order_tolerant() {
        let scfg = cfg();
        let mut book = TxBook::new();
        let m = book.post(0, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 3 * 1024, scfg.mtu);
        let mk = |psn: u32| {
            data_packet(&scfg, &m, desc_at(&m, scfg.mtu, psn), psn, 0, false, psn as u64)
        };
        let mut rx = TimeoutOnlyReceiver::new(FlowCfg::receiver_of(&scfg), Placement::Virtual);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        deliver(&mut rx, &mut pool, mk(2), 0, &mut t, &mut c, &mut r);
        deliver(&mut rx, &mut pool, mk(0), 1, &mut t, &mut c, &mut r);
        deliver(&mut rx, &mut pool, mk(1), 2, &mut t, &mut c, &mut r);
        assert_eq!(c.len(), 1, "message completes despite reversal");
        assert_eq!(rx.stats().duplicates, 0);
    }
}
