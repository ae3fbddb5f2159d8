//! MP-RDMA (Lu et al., NSDI '18) — packet-level multipath RDMA with a
//! per-path adaptive congestion window, as the paper characterizes it
//! (Table 2: compatible with packet-level LB, but GBN-style recovery and a
//! PFC dependence; §6.2: "includes its own CC component, i.e., an adaptive
//! congestion window").
//!
//! Model notes (documented in DESIGN.md): each virtual path is an ECMP
//! entropy value (distinct UDP source port). The sender keeps one
//! ACK-clocked window per path — additive increase per ACK, halving on
//! ECN-echo — and assigns new packets to the path with the most spare
//! window. The receiver places packets out of order but only within an OOO
//! window `L`; packets beyond it are discarded (the paper's §6.2
//! observation that MP-RDMA "fails to effectively control the out-of-order
//! degree below its expected threshold" is exactly this drop behaviour
//! interacting with path skew). Recovery is timeout + go-back-N.

use crate::cc::NoCc;
use crate::common::{tokens, FlowCfg, Placement};
use crate::rxcore::{Accept, RxCore};
use crate::txcore::{AckQueue, TxCore};
use dcp_netsim::endpoint::{Endpoint, EndpointCtx};
use dcp_netsim::packet::PktExt;
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::Nanos;
use dcp_netsim::RetxCause;
use dcp_rdma::qp::WorkReqOp;
use std::collections::BTreeMap;

/// Number of virtual paths (ECMP entropy values).
const PATHS: usize = 8;

/// Initial per-path window in packets.
const INIT_CWND: f64 = 16.0;

/// Receiver out-of-order acceptance window `L` in packets.
const OOO_WINDOW: u32 = 64;

#[derive(Debug, Clone, Copy)]
struct Path {
    cwnd: f64,
    inflight: u32,
}

/// MP-RDMA sender.
pub struct MpRdmaSender {
    /// The skeleton's CC slot holds `NoCc`: MP-RDMA's congestion control
    /// is the per-path windows below, not a pluggable module.
    tx: TxCore,
    paths: Vec<Path>,
    /// Outstanding PSN → path that carried it.
    on_path: BTreeMap<u32, u16>,
}

impl MpRdmaSender {
    pub fn new(cfg: FlowCfg, rto: Nanos) -> Self {
        MpRdmaSender {
            tx: TxCore::new(cfg, rto, Box::new(NoCc::default())),
            paths: vec![Path { cwnd: INIT_CWND, inflight: 0 }; PATHS],
            on_path: BTreeMap::new(),
        }
    }

    /// Path with the most spare window, if any.
    fn pick_path(&self) -> Option<u16> {
        let mut best: Option<(u16, f64)> = None;
        for (i, p) in self.paths.iter().enumerate() {
            let spare = p.cwnd - p.inflight as f64;
            if spare >= 1.0 && best.is_none_or(|(_, b)| spare > b) {
                best = Some((i as u16, spare));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Frees the path slot `psn` occupied, if it is still booked.
    fn release(&mut self, psn: u32) {
        if let Some(carrier) = self.on_path.remove(&psn) {
            let p = &mut self.paths[carrier as usize];
            p.inflight = p.inflight.saturating_sub(1);
        }
    }
}

impl Endpoint for MpRdmaSender {
    fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.tx.post(wr_id, op, len);
    }

    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        let PktExt::MpAck { epsn, acked_psn, path, ecn } = pkt.ext else {
            if pkt.ext == PktExt::Cnp {
                self.tx.on_cnp(ctx);
            }
            return;
        };
        // Per-path window adjustment, ACK-clocked.
        if let Some(p) = self.paths.get_mut(path as usize) {
            if ecn {
                p.cwnd = (p.cwnd - 0.5).max(1.0);
            } else {
                p.cwnd += 1.0 / p.cwnd.max(1.0);
            }
        }
        self.release(acked_psn);
        // After an RTO rewind, straggler ACKs can advance the cumulative
        // pointer past the rewound snd_nxt; `ack_cum` pulls it forward.
        if self.tx.ack_cum(epsn, ctx) {
            // Drop bookkeeping for everything cumulatively covered.
            while let Some((&psn, _)) = self.on_path.first_key_value() {
                if psn >= epsn {
                    break;
                }
                self.release(psn);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        if tokens::kind(token) == tokens::RTO && self.tx.rto_fired(token, ctx) {
            // Go-back-N: rewind and clear path occupancy.
            self.tx.snd_nxt = self.tx.snd_una;
            self.on_path.clear();
            for p in &mut self.paths {
                p.inflight = 0;
                p.cwnd = (p.cwnd / 2.0).max(1.0);
            }
        }
    }

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        if !self.tx.has_new() {
            return None;
        }
        let path = self.pick_path()?;
        let (psn, is_retx) = self.tx.take_next();
        // Recovery is timeout + go-back-N: any resend traces to an RTO.
        let mut pkt = self.tx.build_psn(psn, is_retx.then_some(RetxCause::Timeout));
        // Virtual path = ECMP entropy: distinct UDP source port per path.
        pkt.header.udp.src_port = self.tx.cfg.sport.wrapping_add(path);
        self.paths[path as usize].inflight += 1;
        self.on_path.insert(psn, path);
        Some(self.tx.emit_built(pkt, ctx))
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

/// MP-RDMA receiver: out-of-order placement inside a window `L`
/// (`OOO_WINDOW`); per-packet ACKs echoing path and ECN.
pub struct MpRdmaReceiver {
    rx: RxCore,
    acks: AckQueue,
}

impl MpRdmaReceiver {
    pub fn new(cfg: FlowCfg, placement: Placement) -> Self {
        let rx = RxCore::new(cfg.local, cfg.flow, OOO_WINDOW, placement);
        MpRdmaReceiver { rx, acks: AckQueue::new(cfg) }
    }
}

impl Endpoint for MpRdmaReceiver {
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        if !pkt.is_data() {
            return;
        }
        let path = pkt.header.udp.src_port.wrapping_sub(self.acks.cfg().sport);
        // MP-RDMA reacts per-ACK: the ECN mark is echoed on the path's ACK
        // and no CNP is generated.
        let ecn = pkt.header.ip.ecn_ce();
        let psn = pkt.psn();
        // Beyond the OOO window: silently dropped; the sender's RTO will
        // recover it.
        if self.rx.on_data(&pkt, ctx) != Accept::Rejected {
            self.acks.queue(PktExt::MpAck { epsn: self.rx.epsn, acked_psn: psn, path, ecn }, 0);
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
}

/// Builds a connected MP-RDMA pair with the given retransmission timeout.
pub fn mprdma_pair(
    cfg: FlowCfg,
    rto: Nanos,
    placement: Placement,
) -> (MpRdmaSender, MpRdmaReceiver) {
    let rcfg = FlowCfg::receiver_of(&cfg);
    (MpRdmaSender::new(cfg, rto), MpRdmaReceiver::new(rcfg, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Packets the sender's paths admit before any ACK: `PATHS` windows of
    /// `INIT_CWND` packets.
    const WINDOW: u64 = PATHS as u64 * INIT_CWND as u64;

    #[test]
    fn packets_spread_over_paths() {
        let mut s = MpRdmaSender::new(cfg(), 200 * US);
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 2 * WINDOW * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let mut sports = std::collections::HashSet::new();
        while let Some(p) = pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r) {
            sports.insert(p.header.udp.src_port);
        }
        assert_eq!(sports.len(), PATHS, "all 8 virtual paths used");
        // Window exhausted at 128 packets (8 paths × cwnd 16).
        assert_eq!(s.stats().data_pkts, WINDOW);
    }

    #[test]
    fn ecn_echo_halves_path_window() {
        let mut s = MpRdmaSender::new(cfg(), 200 * US);
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, WINDOW * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        let before = s.paths[0].cwnd;
        let rcv = FlowCfg::receiver_of(&cfg());
        deliver(
            &mut s,
            &mut pool,
            ack_packet(&rcv, PktExt::MpAck { epsn: 1, acked_psn: 0, path: 0, ecn: true }, 0, 0),
            100,
            &mut t,
            &mut c,
            &mut r,
        );
        assert!(s.paths[0].cwnd < before);
        deliver(
            &mut s,
            &mut pool,
            ack_packet(&rcv, PktExt::MpAck { epsn: 2, acked_psn: 1, path: 1, ecn: false }, 0, 0),
            200,
            &mut t,
            &mut c,
            &mut r,
        );
        assert!(s.paths[1].cwnd > INIT_CWND, "clean ACK grows the path window");
    }

    #[test]
    fn rto_rewinds_and_halves_all_paths() {
        let mut s = MpRdmaSender::new(cfg(), 200 * US);
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, WINDOW * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        let (at, token) =
            t.iter().rfind(|(_, tok)| tokens::kind(*tok) == tokens::RTO).copied().unwrap();
        s.on_timer(token, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(s.stats().timeouts, 1);
        let p = pull_owned(&mut s, &mut pool, at, &mut t, &mut c, &mut r).unwrap();
        assert_eq!(p.psn(), 0);
        assert!(p.is_retx);
        assert!(s.paths.iter().all(|p| p.cwnd <= INIT_CWND / 2.0));
    }

    #[test]
    fn receiver_drops_beyond_ooo_window() {
        let scfg = cfg();
        let mut book = TxBook::new();
        let len = u64::from(OOO_WINDOW + 16) * 1024;
        let m = book.post(0, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, len, scfg.mtu);
        let mk = |psn: u32| {
            data_packet(&scfg, &m, desc_at(&m, scfg.mtu, psn), psn, 0, false, psn as u64)
        };
        let mut rx = MpRdmaReceiver::new(FlowCfg::receiver_of(&scfg), Placement::Virtual);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        deliver(&mut rx, &mut pool, mk(OOO_WINDOW + 6), 0, &mut t, &mut c, &mut r);
        assert!(!rx.has_pending(), "no ACK for a rejected packet");
        deliver(&mut rx, &mut pool, mk(2), 1, &mut t, &mut c, &mut r);
        assert!(rx.has_pending());
    }
}
