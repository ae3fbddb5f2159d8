//! The reliability skeleton every endpoint shares: [`TxCore`] under the
//! eight senders and [`AckQueue`] under the seven receivers, beside
//! [`crate::rxcore`]'s tracking core.
//!
//! The paper's argument (§3, Table 2) is that DCP and its baselines differ
//! only in how a loss is *detected* and *repaired*, with congestion control
//! decoupled from both. Everything else — post → segment → pace → emit →
//! ack → RTO → retire on the sender, the reply queue and the ECN→CNP gate
//! on the receiver — is the same machine, and lives here once. A transport
//! file keeps its detection/repair state and calls the parts it uses, in
//! its own order: the order of `ctx.timers` pushes and CC calls is part of
//! the simulated trace.
//!
//! Both types are plain structs, not traits: a policy is the code that
//! calls them, not an implementation plugged into them.

use crate::cc::CongestionControl;
use crate::common::{ack_packet, data_packet, desc_at, tokens, CnpGen, FlowCfg, MsgState, TxBook};
use dcp_netsim::endpoint::{Completion, CompletionKind, EndpointCtx};
use dcp_netsim::packet::{FlowId, NodeId, Packet, PktExt};
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::Nanos;
use dcp_netsim::RetxCause;
use dcp_rdma::qp::WorkReqOp;
use std::collections::VecDeque;

/// Asks the host to poll this endpoint again at `at` (the shared
/// [`tokens::PACE`] wake-up: CC pacing, SwTcp's CPU gate and its
/// receiver's stack-latency release all ride it).
pub fn wake_at(at: Nanos, ctx: &mut EndpointCtx) {
    ctx.timers.push((at, tokens::PACE));
}

/// A re-armable timer that keeps at most one wheel entry of its own
/// queued — a NIC's per-QP retransmission timer, which every ACK resets.
///
/// Arming only moves the deadline; a `(at, token)` entry is pushed only
/// when none of this deadline's is already queued at or before `at`. An
/// entry that fires while the deadline lies later re-queues itself at the
/// deadline, so a live deadline fires exactly when it was last set, however
/// often it moved in between. An entry fires into nothing — and dies —
/// when the deadline is disarmed, or when the deadline no longer counts on
/// it (an earlier entry superseded it, or the deadline was replaced by a
/// fresh one since). With a deadline that only moves later (an RTO of
/// fixed length) one entry is queued at a time; each move earlier (a TLP
/// timeout whose SRTT fell) leaves at most one more behind to die.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline {
    /// When the timer expires; [`NEVER`] while disarmed.
    at: Nanos,
    /// When the entry this deadline counts on fires; [`NEVER`] while none
    /// is queued.
    queued: Nanos,
}

const NEVER: Nanos = Nanos::MAX;

impl Default for Deadline {
    fn default() -> Self {
        Deadline { at: NEVER, queued: NEVER }
    }
}

impl Deadline {
    pub fn is_armed(&self) -> bool {
        self.at != NEVER
    }

    /// Arms the timer for `at`, or moves it there, pushing `token` only if
    /// no entry of this deadline is queued at or before `at`.
    pub fn arm(&mut self, at: Nanos, token: u64, ctx: &mut EndpointCtx) {
        self.at = at;
        if at < self.queued {
            self.queued = at;
            ctx.timers.push((at, token));
        }
    }

    pub fn disarm(&mut self) {
        self.at = NEVER;
    }

    /// Handles one of this deadline's entries (`token`) firing at
    /// `ctx.now`: true when the deadline expired — it is disarmed then, and
    /// the caller re-arms it if it wants. Otherwise the entry re-queues
    /// itself at a later deadline or dies.
    pub fn fired(&mut self, token: u64, ctx: &mut EndpointCtx) -> bool {
        if ctx.now != self.queued {
            return false;
        }
        self.queued = NEVER;
        if self.at <= ctx.now {
            self.at = NEVER;
            return true;
        }
        if self.is_armed() {
            self.arm(self.at, token, ctx);
        }
        false
    }
}

/// Sender-side skeleton: message book, congestion control, counters, the
/// cumulative PSN window and the RTO / pacing / CC-tick timers.
pub struct TxCore {
    pub cfg: FlowCfg,
    pub book: TxBook,
    pub cc: Box<dyn CongestionControl>,
    pub stats: TransportStats,
    /// Oldest unacknowledged PSN.
    pub snd_una: u32,
    /// Next PSN to (re)transmit; go-back-N senders rewind it.
    pub snd_nxt: u32,
    /// Highest PSN ever sent + 1: a PSN below it is a retransmission, and
    /// data is outstanding exactly while `snd_una < max_sent`.
    pub max_sent: u32,
    rto: Nanos,
    rto_timer: Deadline,
    pace_armed: bool,
    cc_tick_armed: bool,
    uid: u64,
    /// Reused buffer for retired messages (no per-ACK allocation).
    retire_scratch: Vec<MsgState>,
}

impl TxCore {
    pub fn new(cfg: FlowCfg, rto: Nanos, cc: Box<dyn CongestionControl>) -> Self {
        TxCore {
            cfg,
            book: TxBook::new(),
            cc,
            stats: TransportStats::default(),
            snd_una: 0,
            snd_nxt: 0,
            max_sent: 0,
            rto,
            rto_timer: Deadline::default(),
            pace_armed: false,
            cc_tick_armed: false,
            uid: 0,
            retire_scratch: Vec::new(),
        }
    }

    pub fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.book.post(wr_id, op, len, self.cfg.mtu);
    }

    /// Whether PSNs at or above `snd_nxt` are posted and waiting.
    pub fn has_new(&self) -> bool {
        self.snd_nxt < self.book.next_psn()
    }

    /// Whether the CC window admits one more MTU beyond what is in flight.
    pub fn window_open(&self) -> bool {
        let inflight = self.snd_nxt.saturating_sub(self.snd_una) as u64 * self.cfg.mtu as u64;
        self.cc.awin(inflight) >= self.cfg.mtu as u64
    }

    /// Takes `snd_nxt` off the window; the flag says whether that PSN was
    /// sent before (a go-back-N rewind is replaying it).
    pub fn take_next(&mut self) -> (u32, bool) {
        let psn = self.snd_nxt;
        self.snd_nxt += 1;
        let is_retx = psn < self.max_sent;
        self.max_sent = self.max_sent.max(self.snd_nxt);
        (psn, is_retx)
    }

    /// The CC pacing gate: true when the next packet may not leave yet. A
    /// closed gate arms one wake-up — not one per `pull` — and only when
    /// the caller has something to send.
    pub fn pace_closed(&mut self, has_pending: bool, ctx: &mut EndpointCtx) -> bool {
        let t = self.cc.next_send_time(ctx.now);
        self.closed_until(t, has_pending, ctx)
    }

    /// [`TxCore::pace_closed`] against an explicit release time.
    pub fn closed_until(&mut self, t: Nanos, has_pending: bool, ctx: &mut EndpointCtx) -> bool {
        if t <= ctx.now {
            return false;
        }
        if has_pending && !self.pace_armed {
            self.pace_armed = true;
            wake_at(t, ctx);
        }
        true
    }

    /// (Re)starts the RTO clock: it now expires one RTO from `ctx.now`.
    pub fn arm_rto(&mut self, ctx: &mut EndpointCtx) {
        self.rto_timer.arm(ctx.now + self.rto, tokens::RTO, ctx);
    }

    /// Arms the RTO only when none is pending, leaving a running clock
    /// untouched.
    pub fn ensure_rto(&mut self, ctx: &mut EndpointCtx) {
        if !self.rto_timer.is_armed() {
            self.arm_rto(ctx);
        }
    }

    pub fn disarm_rto(&mut self) {
        self.rto_timer.disarm();
    }

    /// Handles an RTO `token` (see `Deadline::fired`): true when the RTO
    /// armed most recently, and not since disarmed, has expired. The clock
    /// is stopped then.
    pub fn rto_expired(&mut self, token: u64, ctx: &mut EndpointCtx) -> bool {
        self.rto_timer.fired(token, ctx)
    }

    /// Handles an RTO token for a cumulative-window sender: when the RTO
    /// expired and data is still unacknowledged, counts the timeout,
    /// restarts the clock and returns true — the caller then queues its
    /// repair.
    pub fn rto_fired(&mut self, token: u64, ctx: &mut EndpointCtx) -> bool {
        if !self.rto_expired(token, ctx) || self.snd_una >= self.max_sent {
            return false;
        }
        self.stats.timeouts += 1;
        self.arm_rto(ctx);
        true
    }

    /// Starts the CC's periodic timer if it wants one and none is pending.
    pub fn ensure_tick(&mut self, ctx: &mut EndpointCtx) {
        if !self.cc_tick_armed {
            if let Some(next) = self.cc.on_tick(ctx.now) {
                self.cc_tick_armed = true;
                ctx.timers.push((next, tokens::CC_TICK));
            }
        }
    }

    /// Handles the [`tokens::PACE`] and [`tokens::CC_TICK`] timers; senders
    /// forward every token they do not own. The tick re-arms itself only
    /// while messages are outstanding.
    pub fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        match tokens::kind(token) {
            tokens::PACE => self.pace_armed = false,
            tokens::CC_TICK => {
                self.cc_tick_armed = false;
                if let Some(next) = self.cc.on_tick(ctx.now) {
                    if !self.book.is_empty() {
                        self.cc_tick_armed = true;
                        ctx.timers.push((next, tokens::CC_TICK));
                    }
                }
            }
            _ => {}
        }
    }

    /// Builds data packet `psn` of message `m` in retry round `sretry`,
    /// taking the next uid; `cause` is the signal behind a retransmission,
    /// `None` for a first transmission.
    pub fn build(
        &mut self,
        m: &MsgState,
        psn: u32,
        sretry: u8,
        cause: Option<RetxCause>,
    ) -> Packet {
        self.uid += 1;
        let desc = desc_at(m, self.cfg.mtu, psn);
        let mut pkt = data_packet(&self.cfg, m, desc, psn, sretry, cause.is_some(), self.uid);
        if let Some(cause) = cause {
            pkt.retx_cause = cause;
        }
        pkt
    }

    /// [`TxCore::build`] for outstanding PSN `psn` in retry round 0. Panics
    /// if `psn` has retired: callers filter acked PSNs first.
    pub fn build_psn(&mut self, psn: u32, cause: Option<RetxCause>) -> Packet {
        let m = *self.book.locate(psn).expect("unacked psn locates").0;
        self.build(&m, psn, 0, cause)
    }

    /// Next packet uid, for data-class packets a transport assembles
    /// itself (EC's repair shards).
    pub fn next_uid(&mut self) -> u64 {
        self.uid += 1;
        self.uid
    }

    /// Books a packet about to leave: counts it as new data or as a
    /// retransmission and tells the CC.
    pub fn sent(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        if pkt.is_retx {
            self.stats.retx_pkts += 1;
        } else {
            self.stats.data_pkts += 1;
        }
        self.cc.on_send(ctx.now, pkt.wire_bytes());
    }

    /// Sends a built packet: books it, makes sure an RTO is running and —
    /// for a first transmission — that the CC tick is, then hands it to
    /// the pool.
    pub fn emit_built(&mut self, pkt: Packet, ctx: &mut EndpointCtx) -> PktRef {
        self.sent(&pkt, ctx);
        self.ensure_rto(ctx);
        if !pkt.is_retx {
            self.ensure_tick(ctx);
        }
        ctx.pool.insert(pkt)
    }

    /// [`TxCore::build_psn`] + [`TxCore::emit_built`]: the whole emit path.
    pub fn emit(&mut self, psn: u32, cause: Option<RetxCause>, ctx: &mut EndpointCtx) -> PktRef {
        let pkt = self.build_psn(psn, cause);
        self.emit_built(pkt, ctx)
    }

    fn complete(&mut self, ctx: &mut EndpointCtx) {
        for m in &self.retire_scratch {
            ctx.completions.push(Completion {
                host: self.cfg.local,
                flow: self.cfg.flow,
                wr_id: m.wqe.wr_id,
                kind: CompletionKind::SendComplete,
                bytes: m.wqe.len,
                imm: 0,
                at: ctx.now,
            });
        }
    }

    /// Retires every message whose PSN range ends at or below `cum_psn`,
    /// one `SendComplete` each.
    pub fn retire_psn_below(&mut self, cum_psn: u32, ctx: &mut EndpointCtx) {
        self.retire_scratch.clear();
        self.book.retire_psn_below_into(cum_psn, &mut self.retire_scratch);
        self.complete(ctx);
    }

    /// Retires every message with `msn < emsn`, one `SendComplete` each,
    /// crediting the CC a message at a time (an eMSN ACK acknowledges whole
    /// messages). Returns the retired messages.
    pub fn retire_msn_below(&mut self, emsn: u32, ctx: &mut EndpointCtx) -> &[MsgState] {
        self.retire_scratch.clear();
        self.book.retire_below_into(emsn, &mut self.retire_scratch);
        for m in &self.retire_scratch {
            self.cc.on_ack(ctx.now, m.wqe.len);
        }
        self.complete(ctx);
        &self.retire_scratch
    }

    /// First half of a cumulative ACK: false if `epsn` is not news,
    /// otherwise credits the CC with the newly covered packets.
    pub fn credit_cum(&mut self, epsn: u32, ctx: &mut EndpointCtx) -> bool {
        if epsn <= self.snd_una {
            return false;
        }
        self.cc.on_ack(ctx.now, (epsn - self.snd_una) as u64 * self.cfg.mtu as u64);
        true
    }

    /// Second half: moves `snd_una` to `una`, retires what that covers and
    /// restarts the RTO (or stops it when nothing is left unacknowledged).
    pub fn advance_una(&mut self, una: u32, ctx: &mut EndpointCtx) {
        self.snd_una = una;
        // After a go-back-N rewind, in-flight originals may still advance
        // the cumulative ACK past the rewound snd_nxt.
        self.snd_nxt = self.snd_nxt.max(una);
        self.retire_psn_below(una, ctx);
        if self.snd_una < self.max_sent {
            self.arm_rto(ctx);
        } else {
            self.disarm_rto();
        }
    }

    /// A cumulative ACK for everything below `epsn`; returns whether
    /// `snd_una` advanced.
    pub fn ack_cum(&mut self, epsn: u32, ctx: &mut EndpointCtx) -> bool {
        if !self.credit_cum(epsn, ctx) {
            return false;
        }
        self.advance_una(epsn, ctx);
        true
    }

    /// A CNP arrived: count it and tell the CC.
    pub fn on_cnp(&mut self, ctx: &mut EndpointCtx) {
        self.stats.cnps += 1;
        self.cc.on_congestion(ctx.now);
    }

    /// Resets the core for a fresh connection (`Endpoint::recycle`).
    pub fn reset(&mut self, flow: FlowId, local: NodeId, remote: NodeId) {
        self.cfg.rebind(flow, local, remote, true);
        self.book.clear();
        self.cc.reset();
        self.stats = TransportStats::default();
        (self.snd_una, self.snd_nxt, self.max_sent) = (0, 0, 0);
        // A previous life's RTO entry that somehow slips past the host's
        // slot-generation filter finds a deadline that no longer counts on
        // it.
        self.rto_timer = Deadline::default();
        self.pace_armed = false;
        self.cc_tick_armed = false;
        self.uid = 0;
    }
}

/// Receiver-side skeleton: the queue of ACK-class replies waiting for wire
/// time, their uid counter and the DCQCN notification point.
pub struct AckQueue {
    cfg: FlowCfg,
    cnp: CnpGen,
    out: VecDeque<Packet>,
    uid: u64,
}

impl AckQueue {
    pub fn new(cfg: FlowCfg) -> Self {
        AckQueue { cfg, cnp: CnpGen::default(), out: VecDeque::new(), uid: 0 }
    }

    pub fn cfg(&self) -> &FlowCfg {
        &self.cfg
    }

    /// Queues an ACK-class packet carrying `ext` (and `emsn` in its AETH).
    pub fn queue(&mut self, ext: PktExt, emsn: u32) {
        self.uid += 1;
        self.out.push_back(ack_packet(&self.cfg, ext, emsn, self.uid));
    }

    /// Queues a packet the receiver built itself (DCP's bounced HO).
    pub fn queue_built(&mut self, pkt: Packet) {
        self.out.push_back(pkt);
    }

    /// ECN→CNP gate (§6.2): an ECN-marked arrival elicits a CNP, at most
    /// one per NP interval.
    pub fn on_ecn(&mut self, pkt: &Packet, emsn: u32, ctx: &mut EndpointCtx) {
        if pkt.header.ip.ecn_ce() && self.cnp.should_send(ctx.now) {
            self.queue(PktExt::Cnp, emsn);
        }
    }

    pub fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        self.out.pop_front().map(|p| ctx.pool.insert(p))
    }

    pub fn has_pending(&self) -> bool {
        !self.out.is_empty()
    }

    /// Resets the queue for a fresh connection (`Endpoint::recycle`).
    pub fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) {
        self.cfg.rebind(flow, local, remote, false);
        self.cnp.reset();
        self.out.clear();
        self.uid = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{Dcqcn, NoCc};
    use crate::common::{data_packet, desc_at};
    use crate::racktlp::{RackConfig, RackSender};
    use crate::timeout_only::timeout_only_pair;
    use crate::Placement;
    use dcp_netsim::endpoint::{ctx, pull_owned, Endpoint};
    use dcp_netsim::pool::PacketPool;
    use dcp_netsim::time::US;
    use dcp_rdma::headers::DcpTag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> FlowCfg {
        FlowCfg::sender(FlowId(7), NodeId(3), NodeId(4), DcpTag::NonDcp)
    }

    fn dcqcn() -> Box<Dcqcn> {
        Box::new(Dcqcn::new(100.0))
    }

    fn write(remote_addr: u64) -> WorkReqOp {
        WorkReqOp::Write { remote_addr, rkey: 0 }
    }

    fn rto_tokens(t: &[(Nanos, u64)]) -> Vec<u64> {
        t.iter().map(|&(_, tok)| tok).filter(|&tok| tokens::kind(tok) == tokens::RTO).collect()
    }

    fn count(t: &[(Nanos, u64)], kind: u64) -> usize {
        t.iter().filter(|(_, tok)| tokens::kind(*tok) == kind).count()
    }

    const TOK: u64 = tokens::PROBE;

    /// Fires the queued entries in `t` in time order (ties in push order),
    /// as the wheel would, up to and including `until`, handing each to
    /// `fire`; returns the instants at which `fire` reported an expiry.
    fn drain(
        t: &mut Vec<(Nanos, u64)>,
        until: Nanos,
        mut fire: impl FnMut(u64, &mut EndpointCtx) -> bool,
    ) -> Vec<Nanos> {
        let (mut pool, mut c, mut r) = (PacketPool::new(), vec![], StdRng::seed_from_u64(0));
        let mut expired = vec![];
        while let Some(i) = (0..t.len()).filter(|&i| t[i].0 <= until).min_by_key(|&i| t[i].0) {
            let (at, token) = t.remove(i);
            if fire(token, &mut ctx(at, &mut pool, t, &mut c, &mut r)) {
                expired.push(at);
            }
        }
        expired
    }

    /// Arms `d` for `at` at instant `now`.
    fn arm(d: &mut Deadline, now: Nanos, at: Nanos, t: &mut Vec<(Nanos, u64)>) {
        let (mut pool, mut c, mut r) = (PacketPool::new(), vec![], StdRng::seed_from_u64(0));
        d.arm(at, TOK, &mut ctx(now, &mut pool, t, &mut c, &mut r));
    }

    #[test]
    fn rearms_between_fires_keep_one_entry_that_fires_once_at_the_last_deadline() {
        let (mut d, mut t) = (Deadline::default(), vec![]);
        for now in [0, 10, 20, 30] {
            arm(&mut d, now, now + 100, &mut t);
        }
        assert_eq!(t, [(100, TOK)], "four arms, one entry");
        assert!(drain(&mut t, 129, |tok, cx| d.fired(tok, cx)).is_empty());
        assert_eq!(t, [(130, TOK)], "the entry re-queued itself at the last deadline");
        assert_eq!(drain(&mut t, Nanos::MAX, |tok, cx| d.fired(tok, cx)), [130]);
        assert!(t.is_empty() && !d.is_armed(), "an expired deadline is disarmed");
    }

    #[test]
    fn disarm_then_rearm_reuses_the_queued_entry() {
        let (mut d, mut t) = (Deadline::default(), vec![]);
        arm(&mut d, 0, 100, &mut t);
        d.disarm();
        arm(&mut d, 50, 150, &mut t);
        assert_eq!(t, [(100, TOK)], "the entry at 100 still serves the deadline at 150");
        assert_eq!(drain(&mut t, Nanos::MAX, |tok, cx| d.fired(tok, cx)), [150]);
        // Disarmed for good: the entry fires into nothing and dies.
        arm(&mut d, 200, 300, &mut t);
        d.disarm();
        assert!(drain(&mut t, Nanos::MAX, |tok, cx| d.fired(tok, cx)).is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn a_deadline_moved_earlier_queues_an_earlier_entry_and_fires_once() {
        // A TLP timeout of 2·SRTT, armed while SRTT was 50 and re-armed
        // after it fell to 25.
        let (mut d, mut t) = (Deadline::default(), vec![]);
        arm(&mut d, 0, 100, &mut t);
        arm(&mut d, 10, 60, &mut t);
        assert_eq!(t, [(100, TOK), (60, TOK)]);
        assert_eq!(drain(&mut t, 60, |tok, cx| d.fired(tok, cx)), [60]);
        // Re-armed past the superseded entry, which dies without queuing
        // another.
        arm(&mut d, 60, 120, &mut t);
        assert_eq!(t, [(100, TOK), (120, TOK)]);
        assert!(drain(&mut t, 100, |tok, cx| d.fired(tok, cx)).is_empty());
        assert_eq!(t, [(120, TOK)]);
        assert_eq!(drain(&mut t, 120, |tok, cx| d.fired(tok, cx)), [120]);
        // And once more with a superseded entry left behind (armed from 120
        // for 200, then moved to 150).
        arm(&mut d, 120, 200, &mut t);
        arm(&mut d, 130, 150, &mut t);
        assert_eq!(drain(&mut t, 150, |tok, cx| d.fired(tok, cx)), [150]);
        // Re-armed at the superseded entry's own instant: of the two
        // entries at 200, one expires the deadline and the other dies.
        arm(&mut d, 150, 200, &mut t);
        assert_eq!(t, [(200, TOK), (200, TOK)]);
        assert_eq!(drain(&mut t, Nanos::MAX, |tok, cx| d.fired(tok, cx)), [200]);
        assert!(t.is_empty());
    }

    #[test]
    fn a_fresh_deadline_ignores_an_entry_from_the_previous_life() {
        let (mut d, mut t) = (Deadline::default(), vec![]);
        arm(&mut d, 0, 100, &mut t);
        d = Deadline::default();
        arm(&mut d, 50, 150, &mut t);
        assert_eq!(t, [(100, TOK), (150, TOK)], "the new life cannot count on the old entry");
        assert!(drain(&mut t, 100, |tok, cx| d.fired(tok, cx)).is_empty());
        assert_eq!(t, [(150, TOK)], "the old entry died without re-queuing itself");
        assert_eq!(drain(&mut t, Nanos::MAX, |tok, cx| d.fired(tok, cx)), [150]);
        arm(&mut d, 200, 300, &mut t);
        d = Deadline::default();
        assert!(drain(&mut t, Nanos::MAX, |tok, cx| d.fired(tok, cx)).is_empty());
    }

    #[test]
    fn rto_restarts_move_one_entry_also_across_reset() {
        let mut tx = TxCore::new(cfg(), 200 * US, Box::new(NoCc::default()));
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        tx.post(1, write(0), 4 * 1024);
        for _ in 0..2 {
            let (psn, _) = tx.take_next();
            tx.emit(psn, None, &mut ctx(0, &mut pool, &mut t, &mut c, &mut r));
        }
        tx.arm_rto(&mut ctx(10, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(
            rto_tokens(&t).len(),
            1,
            "emits leave a running clock alone; a restart moves it"
        );
        let fire = |tx: &mut TxCore, t: &mut Vec<_>, until| {
            drain(t, until, |tok, cx| tx.rto_fired(tok, cx))
        };
        assert!(fire(&mut tx, &mut t, 200_009).is_empty(), "the entry at 200 µs re-queued itself");
        assert_eq!(tx.stats.timeouts, 0);
        assert_eq!(fire(&mut tx, &mut t, 200_010), [200_010], "the restarted clock expires");
        assert_eq!(tx.stats.timeouts, 1);
        // `rto_fired` restarted the clock (an entry at 400 010 µs is queued);
        // recycling must make that entry inert, even with the same PSNs
        // outstanding again.
        tx.reset(FlowId(8), NodeId(3), NodeId(4));
        tx.post(1, write(0), 4 * 1024);
        let (psn, _) = tx.take_next();
        tx.emit(psn, None, &mut ctx(300_000, &mut pool, &mut t, &mut c, &mut r));
        assert!(fire(&mut tx, &mut t, 499_999).is_empty(), "the previous life's entry is ignored");
        assert_eq!(tx.stats.timeouts, 0, "counters restart at zero and stay there");
        assert_eq!(fire(&mut tx, &mut t, 500_000), [500_000]);
        assert_eq!(tx.stats.timeouts, 1);
    }

    #[test]
    fn pacing_timer_is_pushed_once_per_closed_gate() {
        let mut tx = TxCore::new(cfg(), 200 * US, dcqcn());
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        tx.post(1, write(0), 8 * 1024);
        assert!(!tx.pace_closed(true, &mut ctx(0, &mut pool, &mut t, &mut c, &mut r)));
        let (psn, _) = tx.take_next();
        tx.emit(psn, None, &mut ctx(0, &mut pool, &mut t, &mut c, &mut r));
        // The packet's serialization time closes the gate.
        for _ in 0..3 {
            assert!(tx.pace_closed(true, &mut ctx(1, &mut pool, &mut t, &mut c, &mut r)));
        }
        assert_eq!(count(&t, tokens::PACE), 1, "three pulls against one closed gate, one timer");
        let (at, tok) = *t.iter().find(|(_, tok)| tokens::kind(*tok) == tokens::PACE).unwrap();
        assert!(at > 1, "the wake-up is the CC's release time");
        // The wake-up fires early (say): the gate is still closed and
        // arms again, once.
        tx.on_timer(tok, &mut ctx(2, &mut pool, &mut t, &mut c, &mut r));
        for _ in 0..2 {
            assert!(tx.pace_closed(true, &mut ctx(2, &mut pool, &mut t, &mut c, &mut r)));
        }
        assert_eq!(count(&t, tokens::PACE), 2);
        // Nothing to send: the gate still reports closed but asks for no
        // wake-up.
        tx.on_timer(tok, &mut ctx(3, &mut pool, &mut t, &mut c, &mut r));
        assert!(tx.pace_closed(false, &mut ctx(3, &mut pool, &mut t, &mut c, &mut r)));
        assert_eq!(count(&t, tokens::PACE), 2);
        assert!(!tx.pace_closed(true, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r)));
    }

    /// Posts three messages (1, 3 and 1 packets) on `tx` and on a bare
    /// reference book.
    fn posted() -> (TxCore, TxBook) {
        let mut tx = TxCore::new(cfg(), 200 * US, Box::new(NoCc::default()));
        let mut reference = TxBook::new();
        for (wr_id, len) in [(11, 1024), (12, 3000), (13, 500)] {
            tx.post(wr_id, write(0x1000 * wr_id), len);
            reference.post(wr_id, write(0x1000 * wr_id), len, cfg().mtu);
        }
        (tx, reference)
    }

    fn send_complete(wr_id: u64, bytes: u64, at: Nanos) -> Completion {
        let kind = CompletionKind::SendComplete;
        Completion { host: NodeId(3), flow: FlowId(7), wr_id, kind, bytes, imm: 0, at }
    }

    #[test]
    fn retire_by_psn_completes_each_message_once() {
        let (mut tx, mut reference) = posted();
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        // PSN 3 covers message 0 (psn 0) but not message 1 (psns 1..4).
        tx.retire_psn_below(3, &mut ctx(50, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(c, [send_complete(11, 1024, 50)]);
        tx.retire_psn_below(5, &mut ctx(90, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(c[1..], [send_complete(12, 3000, 90), send_complete(13, 500, 90)]);
        tx.retire_psn_below(5, &mut ctx(95, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(c.len(), 3, "a repeated cumulative ACK completes nothing twice");
        let mut scratch = Vec::new();
        reference.retire_psn_below_into(3, &mut scratch);
        reference.retire_psn_below_into(5, &mut scratch);
        assert_eq!(format!("{:?}", tx.book), format!("{reference:?}"), "eMSN included");
    }

    #[test]
    fn retire_by_msn_completes_each_message_once() {
        let (mut tx, mut reference) = posted();
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let retired = tx.retire_msn_below(2, &mut ctx(70, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(retired.iter().map(|m| m.wqe.msn).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(c, [send_complete(11, 1024, 70), send_complete(12, 3000, 70)]);
        assert!(tx.retire_msn_below(2, &mut ctx(80, &mut pool, &mut t, &mut c, &mut r)).is_empty());
        assert_eq!(c.len(), 2);
        assert_eq!(tx.book.una_msn(), Some(2));
        let mut scratch = Vec::new();
        reference.retire_below_into(2, &mut scratch);
        assert_eq!(format!("{:?}", tx.book), format!("{reference:?}"), "eMSN included");
    }

    #[test]
    fn ack_queue_gates_cnps_numbers_uids_and_clears_on_recycle() {
        let scfg = cfg();
        let mut book = TxBook::new();
        let m = book.post(0, write(0), 4 * 1024, scfg.mtu);
        let data = |psn: u32, ce: bool| {
            let mut p =
                data_packet(&scfg, &m, desc_at(&m, scfg.mtu, psn), psn, 0, false, u64::from(psn));
            p.header.ip.set_ecn_ce(ce);
            p
        };
        let marked = |psn: u32| data(psn, true);
        let mut q = AckQueue::new(FlowCfg::receiver_of(&scfg));
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        q.on_ecn(&data(0, false), 0, &mut ctx(0, &mut pool, &mut t, &mut c, &mut r));
        assert!(!q.has_pending(), "no mark, no CNP");
        q.on_ecn(&marked(0), 5, &mut ctx(1_000, &mut pool, &mut t, &mut c, &mut r));
        q.on_ecn(&marked(1), 5, &mut ctx(50_999, &mut pool, &mut t, &mut c, &mut r));
        q.queue(PktExt::GbnAck { epsn: 2 }, 0);
        q.on_ecn(&marked(2), 6, &mut ctx(51_000, &mut pool, &mut t, &mut c, &mut r));
        let mut out = vec![];
        while let Some(pr) = q.pull(&mut ctx(60_000, &mut pool, &mut t, &mut c, &mut r)) {
            out.push(pool.take(pr));
        }
        let seen: Vec<_> =
            out.iter().map(|p| (p.uid, p.ext, p.header.aeth.unwrap().emsn)).collect();
        assert_eq!(
            seen,
            [(1, PktExt::Cnp, 5), (2, PktExt::GbnAck { epsn: 2 }, 0), (3, PktExt::Cnp, 6)],
            "one CNP per 50 µs interval, uids from 1 in queue order"
        );
        assert_eq!(out[0].dst_node(), scfg.local, "replies go back to the sender");
        // Recycle: queued replies vanish, uids restart, the NP forgets its
        // last CNP, and replies address the new peer.
        q.queue(PktExt::GbnAck { epsn: 3 }, 0);
        q.recycle(FlowId(9), NodeId(4), NodeId(5));
        assert!(!q.has_pending());
        q.on_ecn(&marked(3), 0, &mut ctx(51_001, &mut pool, &mut t, &mut c, &mut r));
        let pr = q.pull(&mut ctx(51_002, &mut pool, &mut t, &mut c, &mut r)).expect("CNP");
        let p = pool.take(pr);
        assert_eq!((p.uid, p.ext, p.flow, p.dst_node()), (1, PktExt::Cnp, FlowId(9), NodeId(5)));
    }

    /// The shared emit path arms the CC tick for every CC-driven sender.
    /// At the parent RACK-TLP and timeout-only never called `on_tick`, so
    /// under DCQCN their alpha never decayed and the timer-driven rate
    /// increase never fired. Shipped scenarios pair these two only with
    /// `NoCc`/`StaticWindow`, whose `on_tick` returns `None` — no timer, no
    /// event — which is why arming it moves no existing digest.
    fn assert_ticks_its_cc(s: &mut dyn Endpoint) {
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        s.post(1, write(0), 4 * 1024);
        assert!(pull_owned(s, &mut pool, 0, &mut t, &mut c, &mut r).is_some());
        let mut now = 0;
        while s.has_pending() {
            now += 100;
            pull_owned(s, &mut pool, now, &mut t, &mut c, &mut r);
        }
        assert_eq!(count(&t, tokens::CC_TICK), 1, "one tick armed, however many packets left");
        let (at, tick) = *t.iter().find(|(_, tok)| tokens::kind(*tok) == tokens::CC_TICK).unwrap();
        assert_eq!(at, 55 * US, "DCQCN's alpha/rate timer");
        // Data still outstanding: the tick re-arms itself.
        s.on_timer(tick, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(count(&t, tokens::CC_TICK), 2);
        // Everything acknowledged: the book is empty and the tick stops.
        let rcfg = FlowCfg::receiver_of(&cfg());
        let ack = ack_packet(&rcfg, PktExt::GbnAck { epsn: 4 }, 0, 0);
        dcp_netsim::endpoint::deliver(s, &mut pool, ack, at + 1, &mut t, &mut c, &mut r);
        assert!(s.is_done());
        s.on_timer(tick, &mut ctx(2 * at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(count(&t, tokens::CC_TICK), 2, "no tick on an empty book");
    }

    #[test]
    fn rack_and_timeout_only_tick_their_cc() {
        assert_ticks_its_cc(&mut RackSender::new(cfg(), RackConfig::default(), dcqcn()));
        let (mut tx, _) = timeout_only_pair(cfg(), 200 * US, dcqcn(), Placement::Virtual);
        assert_ticks_its_cc(&mut tx);
    }
}
