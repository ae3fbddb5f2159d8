//! EC — SDR-RDMA-style erasure-coded transport with a selective-repeat
//! NACK fallback.
//!
//! The sender stripes each message into *generations* of k data packets
//! and, as soon as a generation's last data shard ships, follows it with m
//! repair packets computed over the generation ([`codec::RsCodec`]; m = 1
//! degenerates to XOR parity). The receiver places data shards directly
//! and, once any k of a generation's k+m shards have arrived, reconstructs
//! the missing ones locally — losing ≤ m packets per generation costs
//! **zero** retransmission RTTs, which is the whole bet: on long-haul
//! (WAN-RTT) lossy paths the repair-bandwidth tax beats waiting a round
//! trip per loss.
//!
//! Generations with more than m erasures fall back to selective repeat:
//! the receiver runs a deterministic staleness timer and sends a bitmap
//! NACK ([`PktExt::EcNack`]) naming the generation's missing data shards;
//! the sender retransmits exactly those. A sender-side RTO backstops the
//! cases a NACK can't cover (every shard of a tail generation lost — the
//! receiver never learned the generation exists).
//!
//! Determinism: the receiver's NACK jitter draws from a private
//! [`SplitMix64`] stream seeded from the flow identity — never from the
//! simulator RNG — so same-seed runs are byte-identical at any
//! `DCP_THREADS`/`DCP_SHARDS` setting (the same discipline `dcp-faults`
//! uses for link loss streams).
//!
//! The simulator does not carry payload bytes, so in-sim decoding is the
//! codec's *accounting*: once k shards of a generation arrive the MDS
//! property guarantees reconstruction, and the receiver synthesizes the
//! missing shards' descriptors (the repair shards carry the generation
//! geometry for exactly this purpose). The byte-level codec itself is real
//! and proptested in [`codec`]. Recovered shards do **not** count as
//! `pkts_received` — conservation books only wire arrivals.

pub mod codec;

use crate::cc::CongestionControl;
use crate::common::{data_packet, tokens, FlowCfg, MsgState, Placement};
use crate::rxcore::{Accept, RxCore};
use crate::txcore::{AckQueue, TxCore};
use dcp_netsim::endpoint::{Endpoint, EndpointCtx};
use dcp_netsim::packet::{FlowId, NodeId, Packet, PktExt};
use dcp_netsim::pool::PktRef;
use dcp_netsim::splitmix::{SplitMix64, GAMMA};
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::Nanos;
use dcp_netsim::RetxCause;
use dcp_rdma::headers::RdmaOpcode;
use dcp_rdma::qp::{SendWqe, WorkReqOp};
use dcp_rdma::segment::{descriptor_for, PacketDescriptor};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Data shards per generation (1..=32 — the NACK bitmap is a u32).
const K: u8 = 8;

/// Repair shards per generation. Short tail generations cap repair at
/// their data count (repair is never more expensive than replication).
const M: u8 = 2;

const _: () = assert!(K >= 1 && K <= 32, "EC k must be 1..=32 (u32 NACK bitmap)");
const _: () = assert!(M >= 1, "EC needs at least one repair shard");

/// NACK rounds per generation before leaving it to the sender RTO.
const MAX_NACKS: u8 = 8;

/// EC tunables.
#[derive(Debug, Clone, Copy)]
pub struct EcConfig {
    /// Sender last-resort timer.
    pub rto: Nanos,
    /// Receiver staleness before an incomplete generation is NACKed.
    pub nack_delay: Nanos,
}

/// Private deterministic stream for receiver-side NACK jitter, keyed off
/// the flow identity. Drawing from the simulator RNG here would perturb
/// unrelated flows' draw order and break cross-shard determinism.
fn flow_stream(flow: FlowId, local: NodeId) -> SplitMix64 {
    let key = (u64::from(flow.0) << 32) | u64::from(local.0);
    SplitMix64::new(0xec5e_ed00_0000_0001 ^ key.wrapping_mul(GAMMA))
}

/// Bitmap of a generation's first `k` shards.
#[inline]
fn gen_mask(k: u8) -> u32 {
    if k >= 32 {
        u32::MAX
    } else {
        (1u32 << k) - 1
    }
}

/// EC sender: stripes messages into generations, trails each with repair
/// shards, answers bitmap NACKs with selective retransmits.
pub struct EcSender {
    tx: TxCore,
    /// Repair shards awaiting first transmission: (gen_psn, shard ≥ gen_k).
    repair_q: VecDeque<(u32, u8)>,
    retx_q: VecDeque<(u32, RetxCause)>,
    /// PSNs currently sitting in `retx_q` — dedups repeated NACK rounds
    /// without suppressing a re-request after the retransmit went out.
    retx_pending: BTreeSet<u32>,
}

impl EcSender {
    pub fn new(cfg: FlowCfg, ecfg: EcConfig, cc: Box<dyn CongestionControl>) -> Self {
        EcSender {
            tx: TxCore::new(cfg, ecfg.rto, cc),
            repair_q: VecDeque::new(),
            retx_q: VecDeque::new(),
            retx_pending: BTreeSet::new(),
        }
    }

    /// Generation geometry of data PSN `psn` within its message: the
    /// generation's first PSN, its data-shard count (short for message
    /// tails) and its effective repair count.
    fn generation_of(&self, m: &MsgState, psn: u32) -> (u32, u8, u8) {
        let k = u32::from(K);
        let g = (psn - m.first_psn) / k;
        let gen_psn = m.first_psn + g * k;
        let gen_k = k.min(m.pkt_count - g * k) as u8;
        (gen_psn, gen_k, M.min(gen_k))
    }

    /// Builds data shard `psn`; also returns its generation geometry.
    fn build_data(&mut self, psn: u32, cause: Option<RetxCause>) -> (Packet, (u32, u8, u8)) {
        let m = *self.tx.book.locate(psn).expect("psn locates").0;
        let geom @ (gen_psn, gen_k, m_eff) = self.generation_of(&m, psn);
        let mut pkt = self.tx.build(&m, psn, 0, cause);
        pkt.ext = PktExt::EcShard { gen_psn, shard: (psn - gen_psn) as u8, k: gen_k, m: m_eff };
        (pkt, geom)
    }

    /// Builds a repair shard, or `None` if its generation's message already
    /// retired (the cumulative ACK outran the repair queue) or isn't a
    /// Write (only Write messages carry the base-address geometry the
    /// receiver needs to synthesize missing shards).
    fn build_repair(&mut self, gen_psn: u32, shard: u8) -> Option<Packet> {
        let (m, off) = self.tx.book.locate(gen_psn)?;
        let m = *m;
        let WorkReqOp::Write { remote_addr, rkey } = m.wqe.op else { return None };
        let (_, gen_k, m_eff) = self.generation_of(&m, gen_psn);
        debug_assert!(shard >= gen_k && shard < gen_k + m_eff);
        // A full-MTU data-class packet (repair pays the same wire cost and
        // the same loss odds as the shards it protects), carrying the
        // generation geometry: packet index + byte offset of the generation
        // start, the message's base address and total length.
        let mtu = self.tx.cfg.mtu;
        let desc = PacketDescriptor {
            opcode: RdmaOpcode::WriteMiddle,
            index: off,
            offset: u64::from(off) * mtu as u64,
            payload_len: mtu as u32,
            remote_addr: Some(remote_addr),
            rkey: Some(rkey),
            imm: Some(m.wqe.len as u32),
            ssn: None,
        };
        let uid = self.tx.next_uid();
        let mut pkt = data_packet(&self.tx.cfg, &m, desc, gen_psn, 0, false, uid);
        pkt.ext = PktExt::EcShard { gen_psn, shard, k: gen_k, m: m_eff };
        Some(pkt)
    }
}

impl Endpoint for EcSender {
    fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.tx.post(wr_id, op, len);
    }

    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        match pkt.ext {
            PktExt::GbnAck { epsn } => {
                self.tx.ack_cum(epsn, ctx);
            }
            PktExt::EcNack { gen_psn, missing } => {
                let mut bits = missing;
                while bits != 0 {
                    let i = bits.trailing_zeros();
                    bits &= bits - 1;
                    let psn = gen_psn + i;
                    // Only retransmit what was actually sent and is still
                    // unacked; a NACK may name shards pacing hasn't emitted
                    // yet or that a cumulative ACK already covered.
                    if psn >= self.tx.snd_una
                        && psn < self.tx.snd_nxt
                        && self.retx_pending.insert(psn)
                    {
                        self.retx_q.push_back((psn, RetxCause::Nack));
                    }
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
                    // Last resort — a NACK can't name a generation the receiver
                    // never heard of. Requeue everything unacked.
                    self.retx_q.clear();
                    self.retx_pending.clear();
                    for psn in self.tx.snd_una..self.tx.snd_nxt {
                        self.retx_q.push_back((psn, RetxCause::Timeout));
                        self.retx_pending.insert(psn);
                    }
                }
            }
            _ => self.tx.on_timer(token, ctx),
        }
    }

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        if self.tx.pace_closed(self.has_pending(), ctx) {
            return None;
        }
        // NACKed/timed-out retransmissions first.
        while let Some((psn, cause)) = self.retx_q.pop_front() {
            self.retx_pending.remove(&psn);
            if psn < self.tx.snd_una {
                continue; // already made it
            }
            let (pkt, _) = self.build_data(psn, Some(cause));
            return Some(self.tx.emit_built(pkt, ctx));
        }
        // Repair shards for generations whose data already shipped. First
        // transmissions (counted in `data_pkts`), never retransmitted.
        while let Some((gen_psn, shard)) = self.repair_q.pop_front() {
            if let Some(pkt) = self.build_repair(gen_psn, shard) {
                return Some(self.tx.emit_built(pkt, ctx));
            }
        }
        // New data within the window.
        if self.tx.has_new() && self.tx.window_open() {
            let (psn, _) = self.tx.take_next();
            let (pkt, (gen_psn, gen_k, m_eff)) = self.build_data(psn, None);
            // The generation's last data shard queues its repair trailers.
            if psn == gen_psn + u32::from(gen_k) - 1 {
                for r in 0..m_eff {
                    self.repair_q.push_back((gen_psn, gen_k + r));
                }
            }
            return Some(self.tx.emit_built(pkt, ctx));
        }
        None
    }

    fn has_pending(&self) -> bool {
        !self.retx_q.is_empty() || !self.repair_q.is_empty() || self.tx.has_new()
    }

    fn stats(&self) -> TransportStats {
        self.tx.stats
    }

    fn is_done(&self) -> bool {
        self.tx.book.is_empty()
    }

    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        self.tx.reset(flow, local, remote);
        self.repair_q.clear();
        self.retx_q.clear();
        self.retx_pending.clear();
        true
    }
}

/// Generation geometry carried by repair shards, cached on first arrival.
#[derive(Debug, Clone, Copy)]
struct GenGeom {
    msg_first_psn: u32,
    msn: u32,
    base_addr: u64,
    rkey: u32,
    msg_len: u64,
}

/// Receiver-side per-generation decode state.
#[derive(Debug, Clone, Copy)]
struct GenState {
    k: u8,
    /// Data shards present (wire arrivals + local reconstructions).
    data_mask: u32,
    /// Repair shards that arrived over the wire.
    repair_mask: u32,
    geom: Option<GenGeom>,
    last_arrival: Nanos,
    nacks: u8,
}

impl GenState {
    fn new(k: u8, now: Nanos) -> Self {
        GenState { k, data_mask: 0, repair_mask: 0, geom: None, last_arrival: now, nacks: 0 }
    }

    fn data_complete(&self) -> bool {
        self.data_mask & gen_mask(self.k) == gen_mask(self.k)
    }
}

/// EC receiver: direct placement, k-of-(k+m) generation decode, staleness
/// NACKs for generations beyond the repair budget.
pub struct EcReceiver {
    nack_delay: Nanos,
    rx: RxCore,
    acks: AckQueue,
    gens: BTreeMap<u32, GenState>,
    jitter: SplitMix64,
    /// At most one scan entry is queued per connection life; a recycled
    /// endpoint's old entries die with its host slot's generation.
    scan_armed: bool,
    nack_scratch: Vec<(u32, u32)>,
}

impl EcReceiver {
    pub fn new(cfg: FlowCfg, ecfg: EcConfig, placement: Placement) -> Self {
        let rx = RxCore::new(cfg.local, cfg.flow, u32::MAX, placement);
        EcReceiver {
            jitter: flow_stream(cfg.flow, cfg.local),
            nack_delay: ecfg.nack_delay,
            rx,
            acks: AckQueue::new(cfg),
            gens: BTreeMap::new(),
            scan_armed: false,
            nack_scratch: Vec::new(),
        }
    }

    /// Decodes generation `gen_psn` if any k of its k+m shards are present:
    /// synthesizes the missing data shards' descriptors from the repair
    /// geometry and feeds them through the recovered (non-wire) path.
    fn try_decode(&mut self, gen_psn: u32, ctx: &mut EndpointCtx) {
        let Some(e) = self.gens.get(&gen_psn) else { return };
        let full = gen_mask(e.k);
        if e.data_mask & full == full {
            return;
        }
        let have = (e.data_mask & full).count_ones() + e.repair_mask.count_ones();
        if have < u32::from(e.k) {
            return;
        }
        // Data incomplete + enough shards ⇒ at least one repair arrived, so
        // the geometry is known.
        let Some(geom) = e.geom else { return };
        let wqe = SendWqe {
            wr_id: u64::from(geom.msn),
            op: WorkReqOp::Write { remote_addr: geom.base_addr, rkey: geom.rkey },
            local_addr: 0,
            len: geom.msg_len,
            msn: geom.msn,
            ssn: None,
            signaled: true,
        };
        let mut bits = !e.data_mask & full;
        while bits != 0 {
            let i = bits.trailing_zeros();
            bits &= bits - 1;
            let psn = gen_psn + i;
            let desc = descriptor_for(&wqe, self.acks.cfg().mtu, psn - geom.msg_first_psn);
            self.rx.on_recovered(psn, geom.msn, &desc, ctx);
        }
        self.gens.get_mut(&gen_psn).expect("entry exists").data_mask = full;
    }

    /// Drops generation state the cumulative pointer has passed. A repair
    /// shard arriving for a dropped generation is a pure duplicate.
    fn gc(&mut self) {
        while let Some((&g, e)) = self.gens.first_key_value() {
            if g + u32::from(e.k) <= self.rx.epsn {
                self.gens.pop_first();
            } else {
                break;
            }
        }
    }

    fn arm_scan(&mut self, ctx: &mut EndpointCtx) {
        if self.scan_armed || !self.gens.values().any(|e| !e.data_complete()) {
            return;
        }
        self.scan_armed = true;
        // Deterministic per-flow jitter desynchronizes NACK bursts across
        // flows without touching the simulator RNG.
        let jitter = self.jitter.next_u64() % (self.nack_delay / 4).max(1);
        ctx.timers.push((ctx.now + self.nack_delay + jitter, tokens::PROBE));
    }
}

impl Endpoint for EcReceiver {
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        if !pkt.is_data() {
            return;
        }
        self.acks.on_ecn(&pkt, 0, ctx);
        let PktExt::EcShard { gen_psn, shard, k, m: _ } = pkt.ext else {
            // Defensive: a non-EC data packet still places and acks.
            self.rx.on_data(&pkt, ctx);
            self.acks.queue(PktExt::GbnAck { epsn: self.rx.epsn }, 0);
            return;
        };
        if shard < k {
            // Wire data shard: the shared core counts/places/completes it.
            let accept = self.rx.on_data(&pkt, ctx);
            if accept != Accept::Duplicate && gen_psn + u32::from(k) > self.rx.epsn {
                let e = self.gens.entry(gen_psn).or_insert_with(|| GenState::new(k, ctx.now));
                e.data_mask |= 1 << shard;
                e.last_arrival = ctx.now;
            }
        } else {
            // Repair shard: RxCore never sees it, so the wire-arrival
            // bookkeeping happens here.
            self.rx.stats.pkts_received += 1;
            if gen_psn + u32::from(k) <= self.rx.epsn {
                // Repair for a finished generation — the common case on a
                // clean wire (repairs trail the data that completed it).
                // Benign, and it must not re-decode anything.
            } else {
                let e = self.gens.entry(gen_psn).or_insert_with(|| GenState::new(k, ctx.now));
                let bit = 1u32 << (shard - k);
                if e.repair_mask & bit != 0 {
                    self.rx.stats.duplicates += 1;
                } else {
                    e.repair_mask |= bit;
                    e.last_arrival = ctx.now;
                    if e.geom.is_none() {
                        let desc = pkt.desc.unpack().expect("repair shard carries descriptor");
                        e.geom = Some(GenGeom {
                            msg_first_psn: gen_psn - desc.index,
                            msn: pkt.msn().expect("repair shard carries MSN"),
                            base_addr: desc.remote_addr.unwrap_or(0),
                            rkey: desc.rkey.unwrap_or(0),
                            msg_len: u64::from(desc.imm.unwrap_or(0)),
                        });
                    }
                }
            }
        }
        self.try_decode(gen_psn, ctx);
        self.gc();
        self.acks.queue(PktExt::GbnAck { epsn: self.rx.epsn }, 0);
        self.arm_scan(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        if tokens::kind(token) != tokens::PROBE || !self.scan_armed {
            return;
        }
        self.scan_armed = false;
        let mut nacks = std::mem::take(&mut self.nack_scratch);
        nacks.clear();
        for (&g, e) in self.gens.iter_mut() {
            if e.data_complete()
                || ctx.now.saturating_sub(e.last_arrival) < self.nack_delay
                || e.nacks >= MAX_NACKS
            {
                continue;
            }
            e.nacks += 1;
            e.last_arrival = ctx.now; // restart the staleness clock
            nacks.push((g, !e.data_mask & gen_mask(e.k)));
        }
        for &(g, missing) in &nacks {
            self.acks.queue(PktExt::EcNack { gen_psn: g, missing }, 0);
        }
        self.nack_scratch = nacks;
        self.arm_scan(ctx);
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
        !self.acks.has_pending()
    }

    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        self.acks.recycle(flow, local, remote);
        self.rx.recycle(local, flow);
        self.gens.clear();
        self.jitter = flow_stream(flow, local);
        self.scan_armed = false;
        true
    }
}

/// Builds a connected EC pair.
pub fn ec_pair(
    cfg: FlowCfg,
    ecfg: EcConfig,
    cc: Box<dyn CongestionControl>,
    placement: Placement,
) -> (EcSender, EcReceiver) {
    let rcfg = FlowCfg::receiver_of(&cfg);
    (EcSender::new(cfg, ecfg, cc), EcReceiver::new(rcfg, ecfg, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::StaticWindow;
    use crate::common::ack_packet;
    use dcp_netsim::endpoint::{deliver, pull_owned, Completion, CompletionKind};
    use dcp_netsim::pool::PacketPool;
    use dcp_netsim::time::US;
    use dcp_rdma::headers::DcpTag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> FlowCfg {
        FlowCfg::sender(FlowId(1), NodeId(0), NodeId(1), DcpTag::NonDcp)
    }

    fn ecfg() -> EcConfig {
        EcConfig { rto: 200 * US, nack_delay: 25 * US }
    }

    fn pair() -> (EcSender, EcReceiver) {
        ec_pair(cfg(), ecfg(), Box::new(StaticWindow { window_bytes: 1 << 20 }), Placement::Virtual)
    }

    struct Harness {
        pool: PacketPool,
        timers: Vec<(Nanos, u64)>,
        comps: Vec<Completion>,
        rng: StdRng,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                pool: PacketPool::new(),
                timers: vec![],
                comps: vec![],
                rng: StdRng::seed_from_u64(0),
            }
        }

        fn drain(&mut self, ep: &mut dyn Endpoint, now: Nanos) -> Vec<Packet> {
            let mut v = vec![];
            while let Some(p) = pull_owned(
                ep,
                &mut self.pool,
                now,
                &mut self.timers,
                &mut self.comps,
                &mut self.rng,
            ) {
                v.push(p);
            }
            v
        }

        fn deliver(&mut self, ep: &mut dyn Endpoint, p: Packet, now: Nanos) {
            deliver(ep, &mut self.pool, p, now, &mut self.timers, &mut self.comps, &mut self.rng);
        }
    }

    #[test]
    fn sender_trails_each_generation_with_repair_shards() {
        let (mut tx, _) = pair();
        // 16 KB = 16 packets = 2 generations of k=8, each trailed by m=2.
        tx.post(1, WorkReqOp::Write { remote_addr: 0x8000, rkey: 3 }, 16 * 1024);
        let mut h = Harness::new();
        let pkts = h.drain(&mut tx, 0);
        let shards: Vec<(u32, u8, u8, u8)> = pkts
            .iter()
            .filter_map(|p| match p.ext {
                PktExt::EcShard { gen_psn, shard, k, m } => Some((gen_psn, shard, k, m)),
                _ => None,
            })
            .collect();
        assert_eq!(shards.len(), 20, "16 data + 4 repair");
        // Generation 0: data 0..8 then repair shards 8,9 before gen 1 data.
        assert_eq!(shards[..8], (0..8).map(|i| (0, i, 8, 2)).collect::<Vec<_>>());
        assert_eq!(&shards[8..10], &[(0, 8, 8, 2), (0, 9, 8, 2)]);
        assert_eq!(shards[10], (8, 0, 8, 2));
        assert_eq!(tx.stats().data_pkts, 20);
        // Repair shards carry the generation geometry.
        let rep = &pkts[8];
        let d = rep.desc.unpack().unwrap();
        assert_eq!(d.remote_addr, Some(0x8000));
        assert_eq!(d.imm, Some(16 * 1024));
        assert_eq!(rep.payload_len, 1024);
    }

    #[test]
    fn short_tail_generation_caps_repair_at_data_count() {
        let (mut tx, _) = pair();
        // 9 packets: gen 0 has k=8 (+2 repair), gen 1 has k=1 (+1 repair).
        tx.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 9 * 1024);
        let mut h = Harness::new();
        let pkts = h.drain(&mut tx, 0);
        assert_eq!(pkts.len(), 9 + 2 + 1);
        let last = pkts.last().unwrap();
        assert_eq!(last.ext, PktExt::EcShard { gen_psn: 8, shard: 1, k: 1, m: 1 });
    }

    #[test]
    fn receiver_decodes_m_losses_without_retransmission() {
        let (mut tx, mut rx) = pair();
        tx.post(7, WorkReqOp::Write { remote_addr: 0x1000, rkey: 1 }, 8 * 1024);
        let mut h = Harness::new();
        let pkts = h.drain(&mut tx, 0);
        assert_eq!(pkts.len(), 10);
        // Drop data shards 1 and 2; deliver 0, 3..8 and both repair shards.
        for ix in [0usize, 3, 4, 5, 6, 7, 8, 9] {
            h.deliver(&mut rx, pkts[ix].clone(), 100 + ix as Nanos);
        }
        assert_eq!(h.comps.len(), 1, "message completed via decode");
        assert_eq!(h.comps[0].kind, CompletionKind::RecvComplete);
        assert_eq!(h.comps[0].bytes, 8 * 1024);
        let s = rx.stats();
        assert_eq!(s.pkts_received, 8, "recovered shards are not wire arrivals");
        assert_eq!(s.goodput_bytes, 8 * 1024, "all eight data shards placed");
        // Final ack carries the fully-advanced cumulative pointer.
        let acks = h.drain(&mut rx, 200);
        assert_eq!(acks.last().unwrap().ext, PktExt::GbnAck { epsn: 8 });
    }

    #[test]
    fn beyond_repair_budget_triggers_bitmap_nack() {
        let (mut tx, mut rx) = pair();
        tx.post(7, WorkReqOp::Write { remote_addr: 0x1000, rkey: 1 }, 8 * 1024);
        let mut h = Harness::new();
        let pkts = h.drain(&mut tx, 0);
        // Lose 3 of 8 data shards (> m = 2): deliver shards 0 and 4..8 and
        // both repairs.
        for ix in [0usize, 4, 5, 6, 7, 8, 9] {
            h.deliver(&mut rx, pkts[ix].clone(), 100);
        }
        assert!(h.comps.is_empty(), "2 repairs can't cover 3 erasures");
        // The staleness scan timer is armed; fire it late enough.
        let (at, token) = *h.timers.last().expect("scan timer armed");
        let mut ctx = EndpointCtx {
            now: at + ecfg().nack_delay,
            pool: &mut h.pool,
            timers: &mut h.timers,
            completions: &mut h.comps,
            rng: &mut h.rng,
            probe: None,
        };
        rx.on_timer(token, &mut ctx);
        let outs = h.drain(&mut rx, at + 1);
        let nack = outs
            .iter()
            .find_map(|p| match p.ext {
                PktExt::EcNack { gen_psn, missing } => Some((gen_psn, missing)),
                _ => None,
            })
            .expect("bitmap NACK sent");
        assert_eq!(nack, (0, 0b1110), "shards 1..3 missing");
        // Sender answers with exactly those retransmits...
        h.deliver(
            &mut tx,
            outs.into_iter().find(|p| matches!(p.ext, PktExt::EcNack { .. })).unwrap(),
            200_000,
        );
        let retx = h.drain(&mut tx, 200_001);
        assert_eq!(retx.iter().filter(|p| p.is_retx).count(), 3);
        assert!(retx.iter().all(|p| p.retx_cause == RetxCause::Nack || !p.is_retx));
        // ...and delivery completes the message exactly once.
        for p in retx {
            h.deliver(&mut rx, p, 200_100);
        }
        assert_eq!(h.comps.iter().filter(|c| c.kind == CompletionKind::RecvComplete).count(), 1);
    }

    #[test]
    fn duplicated_repair_shard_does_not_double_decode() {
        let (mut tx, mut rx) = pair();
        tx.post(7, WorkReqOp::Write { remote_addr: 0x1000, rkey: 1 }, 8 * 1024);
        let mut h = Harness::new();
        let pkts = h.drain(&mut tx, 0);
        // Deliver everything (gen completes on the wire), then replay a
        // repair shard twice more.
        for p in &pkts {
            h.deliver(&mut rx, p.clone(), 50);
        }
        let comps_before = h.comps.len();
        let goodput_before = rx.stats().goodput_bytes;
        h.deliver(&mut rx, pkts[8].clone(), 60);
        h.deliver(&mut rx, pkts[8].clone(), 61);
        assert_eq!(h.comps.len(), comps_before, "no new completions");
        assert_eq!(rx.stats().goodput_bytes, goodput_before, "no re-placement");
        assert_eq!(rx.stats().duplicates, 0, "late repairs are benign, not anomalies");
        assert_eq!(rx.stats().pkts_received, 12, "10 + 2 wire arrivals");
    }

    #[test]
    fn cumulative_ack_retires_and_completes_sender_side() {
        let (mut tx, _) = pair();
        tx.post(9, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 4 * 1024);
        let mut h = Harness::new();
        h.drain(&mut tx, 0);
        let ack = ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::GbnAck { epsn: 4 }, 0, 0);
        h.deliver(&mut tx, ack, 500);
        assert_eq!(h.comps.len(), 1);
        assert_eq!(h.comps[0].wr_id, 9);
        assert!(tx.is_done());
    }

    #[test]
    fn nack_jitter_is_flow_deterministic() {
        let mut a = flow_stream(FlowId(42), NodeId(7));
        let mut b = flow_stream(FlowId(42), NodeId(7));
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(sa, sb, "same flow identity, same stream");
        let mut c = flow_stream(FlowId(43), NodeId(7));
        assert_ne!(sa, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn recycle_resets_both_ends() {
        let (mut tx, mut rx) = pair();
        tx.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 8 * 1024);
        let mut h = Harness::new();
        let pkts = h.drain(&mut tx, 0);
        for p in pkts.into_iter().take(3) {
            h.deliver(&mut rx, p, 10);
        }
        assert!(tx.recycle(FlowId(5), NodeId(2), NodeId(3)));
        assert!(rx.recycle(FlowId(5), NodeId(3), NodeId(2)));
        assert!(tx.is_done());
        assert_eq!(tx.stats().data_pkts, 0);
        assert_eq!(rx.stats().pkts_received, 0);
        assert!(!tx.has_pending() && !rx.has_pending());
        // The recycled pair still moves a message end to end.
        tx.post(0, WorkReqOp::Write { remote_addr: 0x2000, rkey: 1 }, 2 * 1024);
        let mut h2 = Harness::new();
        for p in h2.drain(&mut tx, 0) {
            h2.deliver(&mut rx, p, 5);
        }
        assert_eq!(h2.comps.iter().filter(|c| c.kind == CompletionKind::RecvComplete).count(), 1);
    }
}
