//! A software-stack transport *model* standing in for kernel TCP in the
//! Fig. 8 perftest comparison.
//!
//! This is not a TCP implementation (DESIGN.md §5): Fig. 8's only claim is
//! that an offloaded RNIC beats a software stack on both throughput and
//! latency. The model captures the two costs that produce that gap:
//!
//! * **per-packet CPU cost** — the sender cannot emit packets faster than
//!   one per `CPU_PER_PKT` (kernel stack processing), capping throughput
//!   below line rate;
//! * **stack traversal latency** — delivery to the application is delayed
//!   by `STACK_LATENCY` at the receiver (interrupt + socket wakeup), which
//!   dominates small-message latency.
//!
//! Reliability is a plain cumulative-ACK window with RTO rewind, enough for
//! the clean back-to-back link the figure uses.

use crate::cc::CongestionControl;
use crate::common::{tokens, FlowCfg, Placement};
use crate::rxcore::RxCore;
use crate::txcore::{wake_at, AckQueue, TxCore};
use dcp_netsim::endpoint::{Endpoint, EndpointCtx};
use dcp_netsim::packet::{Packet, PktExt};
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::{Nanos, US};
use dcp_netsim::RetxCause;
use dcp_rdma::qp::WorkReqOp;
use std::collections::VecDeque;

/// CPU time consumed per transmitted packet (throughput cap:
/// MTU / CPU_PER_PKT). 150 ns/pkt ≈ 55 Gbps at 1 KB.
const CPU_PER_PKT: Nanos = 150;

/// One-way kernel stack traversal latency added at the receiver.
const STACK_LATENCY: Nanos = 12 * US;

/// The sender's retransmission timeout.
const RTO: Nanos = 1_000 * US;

/// Sender side of the model.
pub struct SwTcpSender {
    tx: TxCore,
    next_cpu_free: Nanos,
}

impl SwTcpSender {
    pub fn new(cfg: FlowCfg, cc: Box<dyn CongestionControl>) -> Self {
        SwTcpSender { tx: TxCore::new(cfg, RTO, cc), next_cpu_free: 0 }
    }
}

impl Endpoint for SwTcpSender {
    fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.tx.post(wr_id, op, len);
    }

    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        if let PktExt::TcpAck { ack_seq } = pkt.ext {
            self.tx.ack_cum((ack_seq / self.tx.cfg.mtu as u64) as u32, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        match tokens::kind(token) {
            tokens::RTO => {
                if self.tx.rto_fired(token, ctx) {
                    self.tx.snd_nxt = self.tx.snd_una;
                }
            }
            _ => self.tx.on_timer(token, ctx),
        }
    }

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        // Gate order: data, CPU (one packet per CPU_PER_PKT), window.
        if !self.tx.has_new()
            || self.tx.closed_until(self.next_cpu_free, true, ctx)
            || !self.tx.window_open()
        {
            return None;
        }
        let (psn, is_retx) = self.tx.take_next();
        self.next_cpu_free = ctx.now + CPU_PER_PKT;
        // The model recovers by RTO rewind only.
        Some(self.tx.emit(psn, is_retx.then_some(RetxCause::Timeout), ctx))
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
}

/// Receiver side: buffers arrivals for `STACK_LATENCY` before the
/// application sees them (delayed completions and ACKs).
pub struct SwTcpReceiver {
    rx: RxCore,
    /// The model generates no CNPs: only the reply queue is used.
    acks: AckQueue,
    /// Packets waiting out their stack traversal: (release_time, packet).
    staged: VecDeque<(Nanos, Packet)>,
}

impl SwTcpReceiver {
    pub fn new(cfg: FlowCfg, placement: Placement) -> Self {
        let rx = RxCore::new(cfg.local, cfg.flow, u32::MAX, placement);
        SwTcpReceiver { rx, acks: AckQueue::new(cfg), staged: VecDeque::new() }
    }

    fn process_ready(&mut self, ctx: &mut EndpointCtx) {
        while self.staged.front().is_some_and(|&(release, _)| release <= ctx.now) {
            let (_, pkt) = self.staged.pop_front().expect("front checked");
            self.rx.on_data(&pkt, ctx);
            let ack_seq = self.rx.epsn as u64 * self.acks.cfg().mtu as u64;
            self.acks.queue(PktExt::TcpAck { ack_seq }, 0);
        }
    }
}

impl Endpoint for SwTcpReceiver {
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        if !pkt.is_data() {
            return;
        }
        let release = ctx.now + STACK_LATENCY;
        self.staged.push_back((release, pkt));
        wake_at(release, ctx);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut EndpointCtx) {
        self.process_ready(ctx);
    }

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
        !self.acks.has_pending() && self.staged.is_empty()
    }
}

/// Builds a connected software-TCP pair.
pub fn swtcp_pair(
    cfg: FlowCfg,
    cc: Box<dyn CongestionControl>,
    placement: Placement,
) -> (SwTcpSender, SwTcpReceiver) {
    let rcfg = FlowCfg::receiver_of(&cfg);
    (SwTcpSender::new(cfg, cc), SwTcpReceiver::new(rcfg, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::StaticWindow;
    use crate::common::{ack_packet, data_packet, desc_at, TxBook};
    use dcp_netsim::endpoint::{ctx, deliver, pull_owned};
    use dcp_netsim::packet::{FlowId, NodeId};
    use dcp_netsim::pool::PacketPool;
    use dcp_rdma::headers::DcpTag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> FlowCfg {
        FlowCfg::sender(FlowId(1), NodeId(0), NodeId(1), DcpTag::NonDcp)
    }

    #[test]
    fn cpu_gate_paces_transmission() {
        let mut s = SwTcpSender::new(cfg(), Box::new(StaticWindow { window_bytes: 1 << 20 }));
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 4 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        assert!(pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some());
        assert!(pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_none(), "CPU busy");
        assert!(
            pull_owned(&mut s, &mut pool, 150, &mut t, &mut c, &mut r).is_some(),
            "free after CPU_PER_PKT"
        );
    }

    #[test]
    fn receiver_delays_delivery_by_stack_latency() {
        let scfg = cfg();
        let mut book = TxBook::new();
        let m = book.post(0, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 1024, scfg.mtu);
        let pkt = data_packet(&scfg, &m, desc_at(&m, scfg.mtu, 0), 0, 0, false, 0);
        let mut rx = SwTcpReceiver::new(FlowCfg::receiver_of(&scfg), Placement::Virtual);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        deliver(&mut rx, &mut pool, pkt, 1000, &mut t, &mut c, &mut r);
        assert!(c.is_empty(), "not delivered yet");
        let (at, tok) = t[0];
        assert_eq!(at, 1000 + 12_000);
        rx.on_timer(tok, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(c.len(), 1, "delivered after stack latency");
        assert_eq!(c[0].at, 13_000);
        assert!(rx.has_pending(), "ACK queued");
    }

    /// After an RTO rewind the order-tolerant receiver answers the first
    /// resent packet with a cumulative ACK for everything it had buffered —
    /// past the rewound `snd_nxt`. The sender must resume from the ACK, not
    /// from a PSN whose message just retired (this used to panic in
    /// `locate(snd_nxt)`: the one cumulative-window sender whose private
    /// ACK path lacked GBN's `snd_nxt.max(epsn)`).
    #[test]
    fn cumulative_ack_past_a_rewound_snd_nxt_is_followed() {
        let mut s = SwTcpSender::new(cfg(), Box::new(StaticWindow { window_bytes: 1 << 20 }));
        for wr_id in 0..2 {
            s.post(wr_id, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 2 * 1024);
        }
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        for i in 0..4 {
            pull_owned(&mut s, &mut pool, i * 150, &mut t, &mut c, &mut r).expect("window open");
        }
        let (at, rto) =
            t.iter().find(|(_, tok)| tokens::kind(*tok) == tokens::RTO).copied().unwrap();
        s.on_timer(rto, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        let p = pull_owned(&mut s, &mut pool, at, &mut t, &mut c, &mut r).unwrap();
        assert_eq!((p.psn(), p.is_retx), (0, true), "rewound to snd_una");
        // PSN 0 filled the receiver's hole: it ACKs through message 0.
        let ack =
            ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::TcpAck { ack_seq: 2 * 1024 }, 0, 0);
        deliver(&mut s, &mut pool, ack, at + 200, &mut t, &mut c, &mut r);
        assert_eq!(c.len(), 1, "message 0 completes");
        let p = pull_owned(&mut s, &mut pool, at + 200, &mut t, &mut c, &mut r).unwrap();
        assert_eq!((p.psn(), p.is_retx), (2, true), "resumes at the ACK, inside message 1");
    }
}
