//! RACK-TLP (RFC 8985) — time-based loss detection with a reordering
//! window, plus Tail Loss Probes. The paper evaluates it in §6.3 (Fig. 17)
//! as Falcon's loss-recovery building block.
//!
//! RACK: every in-flight packet keeps its transmit timestamp. When an ACK
//! acknowledges some packet `A`, any packet sent *before* `A` that has been
//! outstanding longer than the reordering window (one RTT here, per the
//! paper's description: "tolerates a reordering window of one RTT") is
//! declared lost and retransmitted. TLP: if nothing is ACKed for ~2·SRTT,
//! the highest outstanding packet is probed to elicit feedback without a
//! full RTO. The cost the paper highlights — per-packet timestamps and a
//! one-RTT retransmission delay — is intrinsic to this structure.

use crate::cc::CongestionControl;
use crate::common::{tokens, FlowCfg, Placement, RttEstimator};
use crate::irn::IrnReceiver;
use crate::txcore::{Deadline, TxCore};
use dcp_netsim::endpoint::{Endpoint, EndpointCtx};
use dcp_netsim::packet::PktExt;
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::{Nanos, US};
use dcp_netsim::RetxCause;
use dcp_rdma::qp::WorkReqOp;
use std::collections::{BTreeMap, VecDeque};

/// Initial RTT guess before samples arrive.
const INITIAL_RTT: Nanos = 10 * US;

/// Reordering window as a multiple of SRTT (1.0 per the paper's
/// characterization of RACK's tolerance).
const REO_WND_RTTS: f64 = 1.0;

/// RACK-TLP tunables.
#[derive(Debug, Clone, Copy)]
pub struct RackConfig {
    /// Fallback RTO.
    pub rto: Nanos,
    /// Re-enables the pre-fix RTO discipline for regression testing ONLY:
    /// every ACK and every TLP probe restarts the full RTO, and the
    /// dup-ACK fast retransmit is disabled — the exact combination whose
    /// probe→dup-ACK cycle defers the fallback forever while the
    /// receiver's hole is never retransmitted (DESIGN.md Finding 5). The
    /// liveness-watchdog regression test builds a sender with this flag to
    /// prove the watchdog flags the livelock; nothing else may set it.
    #[doc(hidden)]
    pub broken_rto_restart: bool,
}

impl Default for RackConfig {
    fn default() -> Self {
        RackConfig { rto: 400 * US, broken_rto_restart: false }
    }
}

/// Per-packet transmit state — the memory overhead Fig. 17's discussion
/// calls out ("maintains transmission timestamps for every data packet").
#[derive(Debug, Clone, Copy)]
struct TxRecord {
    sent_at: Nanos,
    retx: bool,
}

/// RACK-TLP sender.
pub struct RackSender {
    tx: TxCore,
    rcfg: RackConfig,
    /// Outstanding, un-ACKed packets with their last transmit time.
    outstanding: BTreeMap<u32, TxRecord>,
    rtt: RttEstimator,
    /// Most recent transmit time among delivered packets (RACK.xmit_ts).
    rack_xmit: Nanos,
    retx_q: VecDeque<(u32, RetxCause)>,
    /// The tail-loss probe timeout (PTO).
    probe: Deadline,
    /// Consecutive cumulative ACKs that failed to advance `snd_una` — the
    /// signal a TLP probe elicits when the receiver is stuck on a hole.
    dup_acks: u32,
}

impl RackSender {
    pub fn new(cfg: FlowCfg, rcfg: RackConfig, cc: Box<dyn CongestionControl>) -> Self {
        RackSender {
            tx: TxCore::new(cfg, rcfg.rto, cc),
            rcfg,
            outstanding: BTreeMap::new(),
            rtt: RttEstimator::new(INITIAL_RTT),
            rack_xmit: 0,
            retx_q: VecDeque::new(),
            probe: Deadline::default(),
            dup_acks: 0,
        }
    }

    fn reo_wnd(&self) -> Nanos {
        (self.rtt.srtt * REO_WND_RTTS) as Nanos
    }

    /// Arms the tail-loss probe and makes sure an RTO backs it. The RTO
    /// clock itself restarts only on forward progress (cumulative advance,
    /// an RTO round) — a TLP probe or duplicate ACK must never push the
    /// fallback out (RFC 6298 §5.3 restarts on ACKs *of new data*), or a
    /// probe→dup-ACK cycle shorter than the RTO would defer it forever
    /// while the receiver's hole is never retransmitted. (The broken
    /// regression shim restarts it unconditionally — that pre-fix
    /// behaviour.)
    fn arm_probe(&mut self, ctx: &mut EndpointCtx) {
        let pto = 2 * self.rtt.srtt_ns().max(INITIAL_RTT);
        self.probe.arm(ctx.now + pto, tokens::PROBE, ctx);
        if self.rcfg.broken_rto_restart {
            self.tx.arm_rto(ctx);
        } else {
            self.tx.ensure_rto(ctx);
        }
    }

    /// RACK loss detection, per the paper's description of the algorithm:
    /// a packet unacknowledged for one estimated RTT (the reordering
    /// window) after its transmission, while newer packets have been
    /// delivered, is declared lost.
    fn detect_losses(&mut self, now: Nanos) {
        // RFC 8985: lost when elapsed > RTT + reordering window.
        let threshold = self.rtt.srtt_ns().saturating_add(self.reo_wnd()).max(1);
        // `retain` walks the PSNs in ascending order, so the queue gets them
        // oldest first.
        self.outstanding.retain(|&p, rec| {
            let lost = rec.sent_at < self.rack_xmit && now.saturating_sub(rec.sent_at) > threshold;
            if lost {
                self.retx_q.push_back((p, RetxCause::Rack));
            }
            !lost
        });
    }

    fn on_delivered(&mut self, psn: u32, ctx: &mut EndpointCtx) {
        if let Some(rec) = self.outstanding.remove(&psn) {
            if !rec.retx {
                self.rtt.sample(ctx.now.saturating_sub(rec.sent_at));
            }
            self.rack_xmit = self.rack_xmit.max(rec.sent_at);
        }
    }

    /// Returns whether `snd_una` advanced.
    fn advance_cum(&mut self, epsn: u32, ctx: &mut EndpointCtx) -> bool {
        if !self.tx.credit_cum(epsn, ctx) {
            return false;
        }
        while let Some((&p, _)) = self.outstanding.first_key_value().filter(|(&p, _)| p < epsn) {
            self.on_delivered(p, ctx);
        }
        // Forward progress: retires, and restarts the fallback clock (or
        // stops it when everything is acknowledged).
        self.tx.advance_una(epsn, ctx);
        true
    }

    /// Sends `psn`, timestamps it and re-arms the probe.
    fn emit(&mut self, psn: u32, cause: Option<RetxCause>, ctx: &mut EndpointCtx) -> PktRef {
        let pkt = self.tx.build_psn(psn, cause);
        self.tx.sent(&pkt, ctx);
        self.outstanding.insert(psn, TxRecord { sent_at: ctx.now, retx: pkt.is_retx });
        self.arm_probe(ctx);
        if !pkt.is_retx {
            self.tx.ensure_tick(ctx);
        }
        ctx.pool.insert(pkt)
    }
}

impl Endpoint for RackSender {
    fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.tx.post(wr_id, op, len);
    }

    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        match pkt.ext {
            PktExt::GbnAck { epsn } => {
                let advanced = self.advance_cum(epsn, ctx);
                // A cumulative ACK that doesn't move is the receiver saying
                // "still missing `epsn`" — the very ACK a TLP probe exists
                // to elicit (RFC 8985 §TLP: the probe's dup-ACK converts a
                // tail timeout into fast recovery). Two in a row mean the
                // hole itself was lost: retransmit it directly instead of
                // waiting out the RTO.
                if advanced {
                    self.dup_acks = 0;
                } else if !self.rcfg.broken_rto_restart
                    && epsn == self.tx.snd_una
                    && epsn < self.tx.snd_nxt
                {
                    self.dup_acks += 1;
                    if self.dup_acks >= 2 {
                        self.dup_acks = 0;
                        self.outstanding.remove(&epsn);
                        if !self.retx_q.iter().any(|e| e.0 == epsn) {
                            self.retx_q.push_front((epsn, RetxCause::DupAck));
                        }
                    }
                }
                self.detect_losses(ctx.now);
                if !self.outstanding.is_empty() || self.has_pending() {
                    self.arm_probe(ctx);
                }
            }
            PktExt::Sack { epsn, sacked_psn } => {
                if self.advance_cum(epsn, ctx) {
                    self.dup_acks = 0;
                }
                self.on_delivered(sacked_psn, ctx);
                self.detect_losses(ctx.now);
                if !self.outstanding.is_empty() || self.has_pending() {
                    self.arm_probe(ctx);
                }
            }
            PktExt::Cnp => self.tx.on_cnp(ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        match tokens::kind(token) {
            tokens::PROBE => {
                if self.probe.fired(token, ctx) && !self.outstanding.is_empty() {
                    // Tail loss probe: resend the highest outstanding PSN.
                    if let Some((&psn, _)) = self.outstanding.iter().next_back() {
                        self.outstanding.remove(&psn);
                        self.retx_q.push_back((psn, RetxCause::Tlp));
                    }
                    self.arm_probe(ctx);
                }
            }
            tokens::RTO => {
                // An expired round restarts its own clock (`rto_fired`);
                // `arm_probe` alone must not, or probes would starve the
                // fallback.
                if self.tx.rto_fired(token, ctx) {
                    while let Some((p, _)) = self.outstanding.pop_first() {
                        self.retx_q.push_back((p, RetxCause::Timeout));
                    }
                    self.arm_probe(ctx);
                }
            }
            _ => self.tx.on_timer(token, ctx),
        }
    }

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        if self.tx.pace_closed(self.has_pending(), ctx) {
            return None;
        }
        while let Some((psn, cause)) = self.retx_q.pop_front() {
            if psn >= self.tx.snd_una {
                return Some(self.emit(psn, Some(cause), ctx));
            }
        }
        if self.tx.has_new() && self.tx.window_open() {
            let (psn, _) = self.tx.take_next();
            return Some(self.emit(psn, None, ctx));
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
}

/// RACK uses the same receiver behaviour as IRN: order-tolerant placement
/// with per-arrival (cumulative, SACKed) feedback.
pub type RackReceiver = IrnReceiver;

/// Builds a connected RACK-TLP pair.
pub fn rack_pair(
    cfg: FlowCfg,
    rcfg: RackConfig,
    cc: Box<dyn CongestionControl>,
    placement: Placement,
) -> (RackSender, RackReceiver) {
    let rcv_cfg = FlowCfg::receiver_of(&cfg);
    (RackSender::new(cfg, rcfg, cc), IrnReceiver::new(rcv_cfg, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::StaticWindow;
    use crate::common::ack_packet;
    use dcp_netsim::endpoint::{ctx, deliver, pull_owned};
    use dcp_netsim::packet::{FlowId, NodeId};
    use dcp_netsim::pool::PacketPool;
    use dcp_rdma::headers::DcpTag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> FlowCfg {
        FlowCfg::sender(FlowId(1), NodeId(0), NodeId(1), DcpTag::NonDcp)
    }

    fn sender() -> RackSender {
        let mut s = RackSender::new(
            cfg(),
            RackConfig::default(),
            Box::new(StaticWindow { window_bytes: 16 * 1024 }),
        );
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 16 * 1024);
        s
    }

    /// Pulls every available packet, spacing transmissions 82 ns apart
    /// (1 KB at 100 Gbps), starting at `start`.
    fn drain_spaced(s: &mut RackSender, start: Nanos) -> Nanos {
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let mut now = start;
        while pull_owned(&mut *s, &mut pool, now, &mut t, &mut c, &mut r).is_some() {
            now += 82;
        }
        now
    }

    #[test]
    fn reordering_within_window_is_tolerated() {
        let mut s = sender();
        drain_spaced(&mut s, 0);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        // PSN 1 delivered before PSN 0, shortly after sending: well inside
        // the ~10 µs reordering window, so no retransmission of PSN 0.
        let rcv = FlowCfg::receiver_of(&cfg());
        deliver(
            &mut s,
            &mut pool,
            ack_packet(&rcv, PktExt::Sack { epsn: 0, sacked_psn: 1 }, 0, 0),
            2_000,
            &mut t,
            &mut c,
            &mut r,
        );
        assert!(s.retx_q.is_empty(), "no loss inside the reordering window");
        assert_eq!(s.stats().retx_pkts, 0);
    }

    #[test]
    fn loss_declared_after_one_rtt_of_reordering() {
        let mut s = sender();
        drain_spaced(&mut s, 0);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let rcv = FlowCfg::receiver_of(&cfg());
        // Establish an RTT sample of ~10 µs.
        deliver(
            &mut s,
            &mut pool,
            ack_packet(&rcv, PktExt::Sack { epsn: 0, sacked_psn: 2 }, 0, 0),
            10_000,
            &mut t,
            &mut c,
            &mut r,
        );
        // Much later a newer packet is delivered; PSN 0/1 have now been
        // outstanding far longer than one RTT and are declared lost.
        deliver(
            &mut s,
            &mut pool,
            ack_packet(&rcv, PktExt::Sack { epsn: 0, sacked_psn: 5 }, 0, 0),
            60_000,
            &mut t,
            &mut c,
            &mut r,
        );
        let mut retx = vec![];
        let mut now = 60_001;
        while let Some(p) = pull_owned(&mut s, &mut pool, now, &mut t, &mut c, &mut r) {
            if p.is_retx {
                retx.push(p.psn());
            }
            now += 82;
        }
        assert!(retx.contains(&0) && retx.contains(&1), "got {retx:?}");
    }

    #[test]
    fn tlp_probes_tail_loss() {
        let mut s = sender();
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        // No feedback at all; fire the probe timer.
        let (at, token) =
            t.iter().rfind(|(_, tok)| tokens::kind(*tok) == tokens::PROBE).copied().unwrap();
        s.on_timer(token, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        let p = pull_owned(&mut s, &mut pool, at, &mut t, &mut c, &mut r).unwrap();
        assert!(p.is_retx);
        assert_eq!(p.psn(), 15, "TLP resends the highest outstanding PSN");
        assert_eq!(s.stats().timeouts, 0, "a probe is not an RTO");
    }

    #[test]
    fn rto_flushes_everything_outstanding() {
        let mut s = sender();
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        let (at, token) =
            t.iter().rfind(|(_, tok)| tokens::kind(*tok) == tokens::RTO).copied().unwrap();
        s.on_timer(token, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(s.stats().timeouts, 1);
        let mut n = 0;
        while pull_owned(&mut s, &mut pool, at + 1, &mut t, &mut c, &mut r).is_some() {
            n += 1;
        }
        assert_eq!(n, 16, "all 16 outstanding packets requeued");
    }

    #[test]
    fn dup_cum_acks_fast_retransmit_the_hole() {
        // PSN 0 is lost; later arrivals make the receiver emit cumulative
        // ACKs stuck at 0. Two of them must retransmit the hole directly.
        let mut s = sender();
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let mut now = 0;
        while pull_owned(&mut s, &mut pool, now, &mut t, &mut c, &mut r).is_some() {
            now += 82;
        }
        let dup = || ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::GbnAck { epsn: 0 }, 0, 0);
        deliver(&mut s, &mut pool, dup(), now + 10, &mut t, &mut c, &mut r);
        assert!(
            pull_owned(&mut s, &mut pool, now + 11, &mut t, &mut c, &mut r).is_none(),
            "one dup-ACK could be reordering; no retransmit yet"
        );
        deliver(&mut s, &mut pool, dup(), now + 20, &mut t, &mut c, &mut r);
        let p = pull_owned(&mut s, &mut pool, now + 21, &mut t, &mut c, &mut r).unwrap();
        assert!(p.is_retx);
        assert_eq!(p.psn(), 0, "the receiver's hole is resent, not the tail");
        assert_eq!(s.stats().timeouts, 0, "no RTO was needed");
    }

    #[test]
    fn probes_and_dup_acks_do_not_defer_the_rto() {
        // The livelock this guards against: probe fires → resent tail is a
        // duplicate → dup-ACK re-arms every timer → probe fires again …
        // forever, with the RTO clock restarted each cycle so the fallback
        // never runs. The RTO clock must survive any number of probe/dup-ACK
        // rounds untouched.
        let mut s = sender();
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        // Removes the earliest queued entry of `kind`, as the wheel fires it.
        let next = |t: &mut Vec<(Nanos, u64)>, kind| {
            let i = (0..t.len()).filter(|&i| tokens::kind(t[i].1) == kind).min_by_key(|&i| t[i].0);
            t.remove(i.expect("an entry of that kind is queued"))
        };
        let (rto_at, rto_token) = next(&mut t, tokens::RTO);
        let mut probes = 0;
        for _ in 0..5 {
            // Fire probe entries until one expires (an entry the last
            // dup-ACK outran re-queues itself first) and sends.
            let at = loop {
                let (at, probe) = next(&mut t, tokens::PROBE);
                s.on_timer(probe, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
                if pull_owned(&mut s, &mut pool, at + 1, &mut t, &mut c, &mut r).is_some() {
                    break at;
                }
            };
            probes += 1;
            let ack = ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::GbnAck { epsn: 0 }, 0, 0);
            deliver(&mut s, &mut pool, ack, at + 2, &mut t, &mut c, &mut r);
        }
        assert!(
            t.iter().all(|(_, tok)| tokens::kind(*tok) != tokens::RTO),
            "the clock never moved"
        );
        s.on_timer(rto_token, &mut ctx(rto_at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!((probes, s.stats().timeouts), (5, 1), "the original RTO entry still fires");
    }
}
