//! Shared scaffolding for endpoint transports: flow configuration, the
//! sender-side PSN ↔ message bookkeeping, packet construction and
//! receiver-side payload placement.

use dcp_netsim::packet::{FlowId, NodeId, Packet, PktDesc, PktExt};
use dcp_netsim::time::{Nanos, US};
use dcp_netsim::RetxCause;
use dcp_rdma::headers::*;
use dcp_rdma::memory::{Mtt, PatternGen};
use dcp_rdma::qp::{Qpn, SendWqe, WorkReqOp};
use dcp_rdma::segment::{descriptor_for, PacketDescriptor};
use std::collections::VecDeque;

/// Static parameters of one connection endpoint.
#[derive(Debug, Clone, Copy)]
pub struct FlowCfg {
    pub flow: FlowId,
    /// This endpoint's host.
    pub local: NodeId,
    /// The peer's host.
    pub remote: NodeId,
    /// Our QPN and the peer's QPN.
    pub local_qpn: Qpn,
    pub remote_qpn: Qpn,
    /// UDP source port used by the requester — the ECMP entropy of the flow.
    pub sport: u16,
    pub mtu: usize,
    /// DCP tag stamped on data packets: `Data` for DCP traffic (trimmable),
    /// `NonDcp` for baseline transports (droppable).
    pub data_tag: DcpTag,
}

impl FlowCfg {
    /// Requester-side config for a flow from `src` to `dst`.
    pub fn sender(flow: FlowId, src: NodeId, dst: NodeId, data_tag: DcpTag) -> Self {
        FlowCfg {
            flow,
            local: src,
            remote: dst,
            local_qpn: Qpn(flow.0 * 2),
            remote_qpn: Qpn(flow.0 * 2 + 1),
            sport: (flow.0 as u16).wrapping_mul(2654435761u32 as u16) | 1,
            mtu: dcp_rdma::MTU,
            data_tag,
        }
    }

    /// The matching responder-side config.
    pub fn receiver_of(sender: &FlowCfg) -> Self {
        FlowCfg {
            flow: sender.flow,
            local: sender.remote,
            remote: sender.local,
            local_qpn: sender.remote_qpn,
            remote_qpn: sender.local_qpn,
            sport: sender.sport,
            mtu: sender.mtu,
            data_tag: sender.data_tag,
        }
    }

    /// Rebinds this config to a new connection identity in place — the
    /// endpoint-recycling path (`Endpoint::recycle`). Derived fields (QPNs,
    /// sport) are recomputed exactly as [`FlowCfg::sender`] /
    /// [`FlowCfg::receiver_of`] would; `mtu` and `data_tag` are transport
    /// properties and survive.
    pub fn rebind(&mut self, flow: FlowId, local: NodeId, remote: NodeId, is_sender: bool) {
        self.flow = flow;
        self.local = local;
        self.remote = remote;
        let (snd, rcv) = (Qpn(flow.0 * 2), Qpn(flow.0 * 2 + 1));
        (self.local_qpn, self.remote_qpn) = if is_sender { (snd, rcv) } else { (rcv, snd) };
        self.sport = (flow.0 as u16).wrapping_mul(2654435761u32 as u16) | 1;
    }
}

/// One outstanding message on the sender: the WQE plus its PSN range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgState {
    pub wqe: SendWqe,
    pub first_psn: u32,
    pub pkt_count: u32,
}

/// Sender-side bookkeeping: posted messages, the flow-level PSN space and
/// the mapping between the two.
///
/// PSNs are assigned contiguously across messages (standard RC behaviour),
/// so `locate(psn)` finds the owning message by range.
#[derive(Debug, Default)]
pub struct TxBook {
    msgs: VecDeque<MsgState>,
    next_msn: u32,
    next_ssn: u32,
    next_psn: u32,
    /// MSN below which everything is acknowledged and retired.
    emsn: u32,
    /// Total payload bytes posted.
    pub posted_bytes: u64,
}

impl TxBook {
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts a message; returns its [`MsgState`].
    pub fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64, mtu: usize) -> MsgState {
        let msn = self.next_msn;
        self.next_msn += 1;
        let ssn = if op.consumes_recv_wqe() {
            let s = self.next_ssn;
            self.next_ssn += 1;
            Some(s)
        } else {
            None
        };
        let wqe = SendWqe { wr_id, op, local_addr: 0, len, msn, ssn, signaled: true };
        let pkt_count = wqe.packet_count(mtu);
        let st = MsgState { wqe, first_psn: self.next_psn, pkt_count };
        self.next_psn += pkt_count;
        self.posted_bytes += len;
        self.msgs.push_back(st);
        st
    }

    /// The message owning `psn`, if still outstanding.
    pub fn locate(&self, psn: u32) -> Option<(&MsgState, u32)> {
        let front = self.msgs.front()?;
        if psn < front.first_psn {
            return None;
        }
        // Binary search over contiguous ranges.
        let ix = self.msgs.partition_point(|m| m.first_psn + m.pkt_count <= psn);
        let m = self.msgs.get(ix)?;
        (psn >= m.first_psn).then(|| (m, psn - m.first_psn))
    }

    /// The message with sequence number `msn`, if still outstanding.
    pub fn by_msn(&self, msn: u32) -> Option<&MsgState> {
        let front = self.msgs.front()?.wqe.msn;
        self.msgs.get(msn.checked_sub(front)? as usize)
    }

    /// Retires messages with `msn < emsn`, appending them to a caller-owned
    /// scratch vector for completion generation (`TxCore` reuses one across
    /// calls, so no ACK allocates).
    pub fn retire_below_into(&mut self, emsn: u32, out: &mut Vec<MsgState>) {
        while let Some(front) = self.msgs.front() {
            if front.wqe.msn < emsn {
                out.push(*front);
                self.msgs.pop_front();
            } else {
                break;
            }
        }
        self.emsn = self.emsn.max(emsn);
    }

    /// Retires every message whose PSN range ends at or below `cum_psn`
    /// (cumulative-ACK transports), appending them to `out` like
    /// [`TxBook::retire_below_into`].
    pub fn retire_psn_below_into(&mut self, cum_psn: u32, out: &mut Vec<MsgState>) {
        while let Some(front) = self.msgs.front() {
            if front.first_psn + front.pkt_count <= cum_psn {
                out.push(*front);
                self.msgs.pop_front();
                self.emsn = self.emsn.max(out.last().unwrap().wqe.msn + 1);
            } else {
                break;
            }
        }
    }

    /// Resets the book to its freshly-constructed state, keeping the
    /// message deque's capacity — the recycling path.
    pub fn clear(&mut self) {
        self.msgs.clear();
        self.next_msn = 0;
        self.next_ssn = 0;
        self.next_psn = 0;
        self.emsn = 0;
        self.posted_bytes = 0;
    }

    pub fn next_psn(&self) -> u32 {
        self.next_psn
    }

    pub fn next_msn(&self) -> u32 {
        self.next_msn
    }

    pub fn una_msn(&self) -> Option<u32> {
        self.msgs.front().map(|m| m.wqe.msn)
    }

    pub fn outstanding(&self) -> usize {
        self.msgs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &MsgState> {
        self.msgs.iter()
    }
}

/// Builds the descriptor for `psn` of message `m`.
pub fn desc_at(m: &MsgState, mtu: usize, psn: u32) -> PacketDescriptor {
    descriptor_for(&m.wqe, mtu, psn - m.first_psn)
}

/// Builds a data packet for one descriptor.
pub fn data_packet(
    cfg: &FlowCfg,
    m: &MsgState,
    desc: PacketDescriptor,
    psn: u32,
    sretry_no: u8,
    is_retx: bool,
    uid: u64,
) -> Packet {
    let reth = desc.remote_addr.map(|vaddr| Reth {
        vaddr,
        rkey: desc.rkey.unwrap_or(0),
        dma_len: desc.payload_len,
    });
    let mut ip = Ipv4Header::new(cfg.local.ip(), cfg.remote.ip(), cfg.data_tag, 0);
    // The retry round rides in the IP header so trimming preserves it.
    ip.set_sretry_no(sretry_no);
    let header = PacketHeader {
        eth: EthHeader::new(MacAddr::from_host(cfg.local.0), MacAddr::from_host(cfg.remote.0)),
        ip,
        udp: UdpHeader::roce(cfg.sport, 0),
        bth: Bth {
            opcode: desc.opcode,
            dest_qpn: cfg.remote_qpn.0,
            psn,
            ack_req: desc.opcode.is_last(),
        },
        dcp: Some(DcpDataExt { msn: m.wqe.msn, ssn: desc.ssn }),
        reth,
        aeth: None,
    };
    Packet {
        uid,
        flow: cfg.flow,
        header,
        payload_len: desc.payload_len,
        desc: PktDesc::some(desc),
        ext: PktExt::None,
        sent_at: 0,
        is_retx,
        // First transmissions stay Unknown; retransmitting transports stamp
        // the triggering signal on the built packet (see each `pull`).
        retx_cause: RetxCause::Unknown,
        ingress: 0,
    }
}

/// Builds an ACK-class packet (cumulative ACK, NAK, SACK, CNP, …) from the
/// receiver back to the sender.
pub fn ack_packet(cfg: &FlowCfg, ext: PktExt, emsn: u32, uid: u64) -> Packet {
    let tag = match cfg.data_tag {
        DcpTag::Data => DcpTag::Ack,
        _ => DcpTag::NonDcp,
    };
    let header = PacketHeader {
        eth: EthHeader::new(MacAddr::from_host(cfg.local.0), MacAddr::from_host(cfg.remote.0)),
        ip: Ipv4Header::new(cfg.local.ip(), cfg.remote.ip(), tag, 0),
        udp: UdpHeader::roce(cfg.sport, 0),
        bth: Bth {
            opcode: RdmaOpcode::Acknowledge,
            dest_qpn: cfg.remote_qpn.0,
            psn: 0,
            ack_req: false,
        },
        dcp: None,
        reth: None,
        aeth: Some(Aeth { syndrome: 0, emsn }),
    };
    Packet {
        uid,
        flow: cfg.flow,
        header,
        payload_len: 0,
        desc: PktDesc::NONE,
        ext,
        sent_at: 0,
        is_retx: false,
        retx_cause: RetxCause::Unknown,
        ingress: 0,
    }
}

/// Receiver-side payload placement.
///
/// `Real` performs actual direct placement into registered memory through an
/// MTT (integrity tests verify the final bytes); `Virtual` skips the byte
/// writes so large-fabric simulations stay fast, while still exercising all
/// header/tracking logic.
pub enum Placement {
    Virtual,
    Real { mtt: Mtt, pattern: PatternGen },
}

impl Placement {
    /// Places one packet's payload. For Write-family packets the address
    /// comes from the RETH; for Send-family packets the caller resolves the
    /// RQ buffer address and passes it as `addr`.
    pub fn place(&mut self, addr: u64, offset_in_msg: u64, len: u32) {
        match self {
            Placement::Virtual => {}
            Placement::Real { mtt, pattern } => {
                if len == 0 {
                    return;
                }
                mtt.local_mut(addr, len as u64)
                    .expect("placement outside registered memory")
                    .write_pattern(addr, len as u64, pattern, addr - offset_in_msg)
                    .expect("bounds already checked");
            }
        }
    }
}

/// Timer token kinds shared across transports: the high byte of a token
/// identifies its purpose. No stale-timer counter rides along: entries of an
/// earlier connection life never reach the endpoint, because the host drops
/// those stamped with a removed slot's generation.
pub mod tokens {
    pub const KIND_SHIFT: u32 = 56;
    pub const RTO: u64 = 1 << KIND_SHIFT;
    pub const PACE: u64 = 2 << KIND_SHIFT;
    pub const CC_TICK: u64 = 3 << KIND_SHIFT;
    pub const PROBE: u64 = 4 << KIND_SHIFT;

    pub fn kind(token: u64) -> u64 {
        token & (0xff << KIND_SHIFT)
    }
}

/// DCQCN NP interval for receiver-side CNP generation: the reference
/// DCQCN NP interval is 50 µs.
const CNP_INTERVAL: Nanos = 50 * US;

/// DCQCN notification point: emits at most one CNP per `CNP_INTERVAL`
/// per flow when ECN-marked data arrives (§6.2's CC integration).
#[derive(Debug, Clone, Copy, Default)]
pub struct CnpGen {
    last: Option<Nanos>,
}

impl CnpGen {
    /// Returns true if a CNP should be sent for an ECN-marked arrival now.
    pub fn should_send(&mut self, now: Nanos) -> bool {
        match self.last {
            Some(t) if now.saturating_sub(t) < CNP_INTERVAL => false,
            _ => {
                self.last = Some(now);
                true
            }
        }
    }

    /// Forgets the last-CNP timestamp (fresh connection on recycle).
    pub fn reset(&mut self) {
        self.last = None;
    }
}

/// Simple exponentially weighted RTT estimator shared by timeout-based
/// transports.
#[derive(Debug, Clone, Copy)]
pub struct RttEstimator {
    pub srtt: f64,
    pub min_rtt: Nanos,
    samples: u64,
}

impl RttEstimator {
    pub fn new(initial: Nanos) -> Self {
        RttEstimator { srtt: initial as f64, min_rtt: initial, samples: 0 }
    }

    pub fn sample(&mut self, rtt: Nanos) {
        if self.samples == 0 {
            self.srtt = rtt as f64;
            self.min_rtt = rtt;
        } else {
            self.srtt = 0.875 * self.srtt + 0.125 * rtt as f64;
            self.min_rtt = self.min_rtt.min(rtt);
        }
        self.samples += 1;
    }

    pub fn srtt_ns(&self) -> Nanos {
        self.srtt as Nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book_with(lens: &[u64]) -> TxBook {
        let mut b = TxBook::new();
        for (i, &l) in lens.iter().enumerate() {
            b.post(i as u64, WorkReqOp::Write { remote_addr: 0x1000 * i as u64, rkey: 1 }, l, 1024);
        }
        b
    }

    #[test]
    fn psn_ranges_are_contiguous() {
        let b = book_with(&[1024, 3000, 500]);
        let ms: Vec<_> = b.iter().collect();
        assert_eq!(ms[0].first_psn, 0);
        assert_eq!(ms[0].pkt_count, 1);
        assert_eq!(ms[1].first_psn, 1);
        assert_eq!(ms[1].pkt_count, 3);
        assert_eq!(ms[2].first_psn, 4);
        assert_eq!(b.next_psn(), 5);
    }

    #[test]
    fn locate_finds_owner_by_range() {
        let b = book_with(&[1024, 3000, 500]);
        assert_eq!(b.locate(0).unwrap().0.wqe.msn, 0);
        assert_eq!(b.locate(1).unwrap().0.wqe.msn, 1);
        assert_eq!(b.locate(3).unwrap(), (b.by_msn(1).unwrap(), 2));
        assert_eq!(b.locate(4).unwrap().0.wqe.msn, 2);
        assert!(b.locate(5).is_none());
    }

    #[test]
    fn msn_spans_all_ops_and_ssn_only_two_sided() {
        let mut b = TxBook::new();
        let write = WorkReqOp::Write { remote_addr: 0x100, rkey: 1 };
        let write_imm = WorkReqOp::WriteImm { remote_addr: 0x200, rkey: 1, imm: 7 };
        let posted: Vec<_> = [WorkReqOp::Send, write, write_imm, WorkReqOp::Send]
            .into_iter()
            .map(|op| b.post(0, op, 100, 1024).wqe)
            .map(|w| (w.msn, w.ssn))
            .collect();
        assert_eq!(posted, [(0, Some(0)), (1, None), (2, Some(1)), (3, Some(2))]);
        assert_eq!(b.next_msn(), 4);

        let mut done = Vec::new();
        b.retire_below_into(3, &mut done);
        assert_eq!(done.len(), 3);
        b.retire_below_into(2, &mut done);
        assert_eq!(done.len(), 3, "re-retiring below a retired MSN is a no-op");
        assert_eq!(b.una_msn(), Some(3));

        b.clear();
        let m = b.post(0, write_imm, 100, 1024).wqe;
        assert_eq!((m.msn, m.ssn), (0, Some(0)), "clear rewinds MSN and SSN");
    }

    #[test]
    fn retire_below_msn_and_locate_after() {
        let mut b = book_with(&[1024, 3000, 500]);
        let mut done = Vec::new();
        b.retire_below_into(2, &mut done);
        assert_eq!(done.len(), 2);
        assert!(b.locate(0).is_none(), "retired PSNs no longer locate");
        assert_eq!(b.locate(4).unwrap().0.wqe.msn, 2);
        assert_eq!(b.una_msn(), Some(2));
    }

    #[test]
    fn retire_by_cumulative_psn() {
        let mut b = book_with(&[1024, 3000, 500]);
        // cum 3 covers msg 0 (psn 0) but not msg 1 (psns 1..4).
        let mut done = Vec::new();
        b.retire_psn_below_into(3, &mut done);
        assert_eq!(done.len(), 1, "msg 1 not fully covered yet");
        b.retire_psn_below_into(4, &mut done);
        assert_eq!(done.len(), 2, "retired messages append to the scratch");
        assert_eq!(b.una_msn(), Some(2));
    }

    #[test]
    fn data_packet_carries_dcp_fields() {
        let cfg = FlowCfg::sender(FlowId(9), NodeId(1), NodeId(2), DcpTag::Data);
        let mut b = TxBook::new();
        let m = b.post(0, WorkReqOp::Write { remote_addr: 0x4000, rkey: 7 }, 2500, 1024);
        let d = desc_at(&m, 1024, 2);
        let p = data_packet(&cfg, &m, d, 2, 1, true, 42);
        assert_eq!(p.psn(), 2);
        assert_eq!(p.header.reth.unwrap().vaddr, 0x4000 + 2048);
        assert_eq!(p.header.ip.sretry_no(), 1);
        assert!(p.is_retx);
        assert_eq!(p.dst_node(), NodeId(2));
        assert_eq!(p.header.bth.dest_qpn, cfg.remote_qpn.0);
    }

    #[test]
    fn ack_packet_tag_follows_data_tag() {
        let dcp = FlowCfg::sender(FlowId(1), NodeId(1), NodeId(2), DcpTag::Data);
        let rx = FlowCfg::receiver_of(&dcp);
        let p = ack_packet(&rx, PktExt::None, 5, 0);
        assert_eq!(p.dcp_tag(), DcpTag::Ack);
        assert_eq!(p.dst_node(), NodeId(1));
        let non = FlowCfg::sender(FlowId(1), NodeId(1), NodeId(2), DcpTag::NonDcp);
        let p = ack_packet(&FlowCfg::receiver_of(&non), PktExt::GbnAck { epsn: 3 }, 0, 0);
        assert_eq!(p.dcp_tag(), DcpTag::NonDcp);
    }

    #[test]
    fn rtt_estimator_tracks_min_and_smooths() {
        let mut e = RttEstimator::new(10_000);
        e.sample(8_000);
        assert_eq!(e.min_rtt, 8_000);
        assert_eq!(e.srtt_ns(), 8_000);
        e.sample(16_000);
        assert!(e.srtt_ns() > 8_000 && e.srtt_ns() < 16_000);
        assert_eq!(e.min_rtt, 8_000);
    }

    #[test]
    fn real_placement_writes_pattern() {
        let mut mtt = Mtt::new();
        mtt.register(0x1000, 4096);
        let mut pl = Placement::Real { mtt, pattern: PatternGen::new(5) };
        pl.place(0x1000 + 1024, 1024, 1024);
        let Placement::Real { mtt, pattern } = &pl else { unreachable!() };
        let got = mtt.local(0x1400, 16).unwrap().read(0x1400, 16).unwrap().to_vec();
        // The message's pattern origin is addr - offset_in_msg = 0x1000.
        let want: Vec<u8> = (0..16).map(|i| pattern.byte_at(0x400 + i)).collect();
        assert_eq!(got, want);
    }
}
