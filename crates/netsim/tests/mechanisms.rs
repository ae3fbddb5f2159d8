//! Mechanism-level fabric tests: QP-scheduler fairness, ECN marking
//! behaviour, PFC hysteresis, and control-queue shallowness under WRR.

use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{SEC, US};
use dcp_netsim::*;
use dcp_rdma::headers::*;
use dcp_rdma::segment::PacketDescriptor;

/// Minimal line-rate sender (copy of the fabric.rs blaster, kept local so
/// each test file is self-contained).
struct Blaster {
    src: NodeId,
    dst: NodeId,
    flow: FlowId,
    n: u32,
    sent: u32,
    tag: DcpTag,
    stats: TransportStats,
}

impl Blaster {
    fn new(src: NodeId, dst: NodeId, flow: FlowId, n: u32, tag: DcpTag) -> Self {
        Blaster { src, dst, flow, n, sent: 0, tag, stats: TransportStats::default() }
    }
}

impl Endpoint for Blaster {
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        ctx.pool.release(pkt);
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        if self.sent >= self.n {
            return None;
        }
        let psn = self.sent;
        self.sent += 1;
        self.stats.data_pkts += 1;
        Some(ctx.pool.insert(Packet {
            uid: psn as u64,
            flow: self.flow,
            header: PacketHeader {
                eth: EthHeader::new(MacAddr::from_host(self.src.0), MacAddr::from_host(self.dst.0)),
                ip: Ipv4Header::new(self.src.ip(), self.dst.ip(), self.tag, 0),
                udp: UdpHeader::roce(self.flow.0 as u16, 0),
                bth: Bth { opcode: RdmaOpcode::WriteMiddle, dest_qpn: 1, psn, ack_req: false },
                dcp: Some(DcpDataExt { msn: 0, ssn: None }),
                reth: Some(Reth { vaddr: 0, rkey: 1, dma_len: 1024 }),
                aeth: None,
            },
            payload_len: 1024,
            desc: PktDesc::some(PacketDescriptor {
                opcode: RdmaOpcode::WriteMiddle,
                index: psn,
                offset: psn as u64 * 1024,
                payload_len: 1024,
                remote_addr: Some(psn as u64 * 1024),
                rkey: Some(1),
                imm: None,
                ssn: None,
            }),
            ext: PktExt::None,
            sent_at: 0,
            is_retx: false,
            retx_cause: dcp_netsim::RetxCause::Unknown,
            ingress: 0,
        }))
    }

    fn has_pending(&self) -> bool {
        self.sent < self.n
    }
    fn stats(&self) -> TransportStats {
        self.stats
    }
    fn is_done(&self) -> bool {
        self.sent >= self.n
    }
}

struct Sink(TransportStats);

impl Endpoint for Sink {
    fn on_packet(&mut self, pr: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pr);
        if pkt.is_data() {
            self.0.pkts_received += 1;
            self.0.goodput_bytes += pkt.payload_len as u64;
            if pkt.header.ip.ecn_ce() {
                self.0.cnps += 1; // reuse the counter to tally CE marks
            }
        }
    }
    fn on_timer(&mut self, _t: u64, _c: &mut EndpointCtx) {}
    fn pull(&mut self, _c: &mut EndpointCtx) -> Option<PktRef> {
        None
    }
    fn has_pending(&self) -> bool {
        false
    }
    fn stats(&self) -> TransportStats {
        self.0
    }
    fn is_done(&self) -> bool {
        true
    }
}

#[test]
fn qp_scheduler_shares_wire_fairly() {
    // Three blasters on one host: the round-robin QP scheduler must
    // interleave them, so all finish within ~1 quota of each other.
    let mut sim = Simulator::new(3);
    let topo = topology::two_switch_testbed(
        &mut sim,
        SwitchConfig::lossy(LoadBalance::Ecmp),
        1,
        100.0,
        &[100.0],
        US,
        US,
    );
    let (src, dst) = (topo.hosts[0], topo.hosts[1]);
    for f in 1..=3u32 {
        sim.install_endpoint(
            src,
            FlowId(f),
            Box::new(Blaster::new(src, dst, FlowId(f), 600, DcpTag::NonDcp)),
        );
        sim.install_endpoint(dst, FlowId(f), Box::new(Sink(TransportStats::default())));
    }
    sim.kick(src);
    // Run until roughly half the packets are through, then compare progress.
    sim.run_until(8 * tx_time(1098, 100.0) * 300);
    let recvd: Vec<u64> =
        (1..=3).map(|f| sim.endpoint_stats(dst, FlowId(f)).pkts_received).collect();
    let (min, max) = (recvd.iter().min().unwrap(), recvd.iter().max().unwrap());
    assert!(*min > 0);
    assert!(max - min <= 32, "round-robin quota keeps flows within ~2 rounds: {recvd:?}");
}

#[test]
fn ecn_marks_ramp_with_occupancy() {
    // Saturate a 10:1 bottleneck with ECN enabled: a healthy fraction of
    // delivered packets must carry CE, and none when the queue is idle.
    let mut cfg = SwitchConfig::lossy(LoadBalance::Ecmp);
    cfg.ecn = Some(EcnConfig { kmin: 8 * 1024, kmax: 64 * 1024 });
    cfg.data_q_threshold = usize::MAX; // no drops: isolate marking
    let mut sim = Simulator::new(5);
    let topo = topology::two_switch_testbed(&mut sim, cfg, 4, 100.0, &[100.0], US, US);
    let dst = topo.hosts[4];
    for f in 0..4u32 {
        sim.install_endpoint(
            topo.hosts[f as usize],
            FlowId(f + 1),
            Box::new(Blaster::new(
                topo.hosts[f as usize],
                dst,
                FlowId(f + 1),
                2000,
                DcpTag::NonDcp,
            )),
        );
        sim.install_endpoint(dst, FlowId(f + 1), Box::new(Sink(TransportStats::default())));
        sim.kick(topo.hosts[f as usize]);
    }
    assert!(sim.run_to_quiescence(SEC));
    let marks: u64 = (1..=4).map(|f| sim.endpoint_stats(dst, FlowId(f)).cnps).sum();
    let total: u64 = (1..=4).map(|f| sim.endpoint_stats(dst, FlowId(f)).pkts_received).sum();
    assert_eq!(total, 8000);
    assert!(marks > total / 2, "sustained 4:1 overload must mark most packets: {marks}/{total}");
    assert_eq!(sim.net_stats().ecn_marks, marks);
}

#[test]
fn pfc_hysteresis_pauses_and_resumes() {
    let cfg = SwitchConfig::lossless(LoadBalance::Ecmp);
    let mut sim = Simulator::new(7);
    let topo = topology::two_switch_testbed(&mut sim, cfg, 2, 100.0, &[100.0], US, US);
    let dst = topo.hosts[2];
    for f in 0..2u32 {
        sim.install_endpoint(
            topo.hosts[f as usize],
            FlowId(f + 1),
            Box::new(Blaster::new(
                topo.hosts[f as usize],
                dst,
                FlowId(f + 1),
                3000,
                DcpTag::NonDcp,
            )),
        );
        sim.install_endpoint(dst, FlowId(f + 1), Box::new(Sink(TransportStats::default())));
        sim.kick(topo.hosts[f as usize]);
    }
    assert!(sim.run_to_quiescence(SEC));
    let ns = sim.net_stats();
    assert!(ns.pauses_sent > 0, "2:1 overload must pause");
    assert!(ns.resumes_sent > 0, "and resume once drained");
    assert!(ns.pauses_sent >= ns.resumes_sent);
    assert_eq!(ns.data_drops + ns.buffer_drops, 0, "lossless");
    let total: u64 = (1..=2).map(|f| sim.endpoint_stats(dst, FlowId(f)).pkts_received).sum();
    assert_eq!(total, 6000);
}

#[test]
fn control_queue_stays_shallow_under_trim_storm() {
    // The deep-dive claim as a regression: with the rule weight, the
    // control queue's peak occupancy stays orders of magnitude below the
    // data queue's.
    let mut cfg = SwitchConfig::dcp(LoadBalance::Ecmp, 4.0);
    cfg.data_q_threshold = 64 * 1024;
    let mut sim = Simulator::new(9);
    let topo = topology::two_switch_testbed(&mut sim, cfg, 4, 100.0, &[100.0], US, US);
    let dst = topo.hosts[4];
    for f in 0..4u32 {
        sim.install_endpoint(
            topo.hosts[f as usize],
            FlowId(f + 1),
            Box::new(Blaster::new(topo.hosts[f as usize], dst, FlowId(f + 1), 3000, DcpTag::Data)),
        );
        sim.install_endpoint(dst, FlowId(f + 1), Box::new(Sink(TransportStats::default())));
        sim.kick(topo.hosts[f as usize]);
    }
    // One slice per sample: a bounded call leaves every shard standing at
    // its limit, so each sample reads one consistent instant at any shard
    // count.
    let (leaf, mut next_at) = (topo.leaves[0], 0);
    let (mut data_peak, mut ctrl_peak) = (0, 0);
    while sim.pending_events() > 0 && sim.now() < SEC {
        sim.run_until(sim.now() + 10 * US);
        while next_at <= sim.now() {
            let port = &sim.switch(leaf).ports[4];
            data_peak = data_peak.max(port.data_queue_bytes());
            ctrl_peak = ctrl_peak.max(port.ctrl_queue_bytes());
            next_at += 10 * US;
        }
    }
    assert!(sim.net_stats().trims > 1000, "trim storm expected");
    assert_eq!(sim.net_stats().ho_drops, 0);
    assert!(data_peak >= 64 * 1024, "data queue reaches the threshold");
    assert!(ctrl_peak < 8 * 1024, "control queue stays shallow: peak {ctrl_peak} B");
}

#[test]
fn flowlet_is_sticky_within_gap_and_repins_after_idle() {
    // One flow over 4 parallel cross links with flowlet switching: a
    // continuous burst must use a single path (no reordering); after an
    // idle period longer than the gap the flow may land elsewhere, but
    // still one path at a time.
    let gap = 20 * US;
    let mut sim = Simulator::new(11);
    let mut cfg = SwitchConfig::lossy(LoadBalance::Flowlet { gap_ns: gap });
    // The single 25G flowlet path queues a 100G burst; don't drop it.
    cfg.data_q_threshold = usize::MAX;
    let topo =
        topology::two_switch_testbed(&mut sim, cfg, 1, 100.0, &[25.0, 25.0, 25.0, 25.0], US, US);
    let (src, dst) = (topo.hosts[0], topo.hosts[1]);
    sim.install_endpoint(
        src,
        FlowId(1),
        Box::new(Blaster::new(src, dst, FlowId(1), 500, DcpTag::NonDcp)),
    );
    sim.install_endpoint(dst, FlowId(1), Box::new(Sink(TransportStats::default())));
    sim.kick(src);
    assert!(sim.run_to_quiescence(SEC));
    let st = sim.endpoint_stats(dst, FlowId(1));
    assert_eq!(st.pkts_received, 500, "all packets delivered");
    // Stickiness ⇒ single 25G path ⇒ completion time ≈ 500 pkts at 25G,
    // not 4×25G. (Spray would finish ~4x faster and reorder.)
    let wire = 1098u64;
    let single_path = 500 * tx_time(wire as usize, 25.0);
    assert!(
        sim.now() >= single_path,
        "burst must be serialized on one path: {} < {single_path}",
        sim.now()
    );
}
