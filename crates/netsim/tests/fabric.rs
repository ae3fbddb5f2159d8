//! Fabric-level integration tests using a minimal unreliable transport:
//! serialization timing, CLOS forwarding, trimming, WRR fairness, PFC
//! back-pressure and determinism.

use dcp_netsim::switch::{Q_CTRL, Q_DATA};
use dcp_netsim::*;
use dcp_rdma::headers::*;
use dcp_rdma::segment::PacketDescriptor;

/// Sends `n` fixed-size packets as fast as the NIC allows; no reliability.
struct Blaster {
    src: NodeId,
    dst: NodeId,
    flow: FlowId,
    qpn: u32,
    n: u32,
    sent: u32,
    payload: u32,
    tag: DcpTag,
    stats: TransportStats,
}

impl Blaster {
    fn new(src: NodeId, dst: NodeId, flow: FlowId, n: u32, payload: u32, tag: DcpTag) -> Self {
        Blaster {
            src,
            dst,
            flow,
            qpn: flow.0,
            n,
            sent: 0,
            payload,
            tag,
            stats: TransportStats::default(),
        }
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
        let header = PacketHeader {
            eth: EthHeader::new(MacAddr::from_host(self.src.0), MacAddr::from_host(self.dst.0)),
            ip: Ipv4Header::new(self.src.ip(), self.dst.ip(), self.tag, 0),
            udp: UdpHeader::roce(self.flow.0 as u16, 0),
            bth: Bth { opcode: RdmaOpcode::WriteMiddle, dest_qpn: self.qpn, psn, ack_req: false },
            dcp: Some(DcpDataExt { msn: 0, ssn: None }),
            reth: Some(Reth { vaddr: psn as u64 * 1024, rkey: 1, dma_len: self.payload }),
            aeth: None,
        };
        Some(ctx.pool.insert(Packet {
            uid: psn as u64,
            flow: self.flow,
            header,
            payload_len: self.payload,
            desc: PktDesc::some(PacketDescriptor {
                opcode: RdmaOpcode::WriteMiddle,
                index: psn,
                offset: psn as u64 * 1024,
                payload_len: self.payload,
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

/// Counts arrivals.
struct Sink {
    stats: TransportStats,
    last_arrival: Nanos,
    ho_seen: u64,
}

impl Sink {
    fn new() -> Self {
        Sink { stats: TransportStats::default(), last_arrival: 0, ho_seen: 0 }
    }
}

impl Endpoint for Sink {
    fn on_packet(&mut self, pr: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pr);
        if pkt.dcp_tag() == DcpTag::HeaderOnly {
            self.ho_seen += 1;
        } else {
            self.stats.pkts_received += 1;
            self.stats.goodput_bytes += pkt.payload_len as u64;
        }
        self.last_arrival = ctx.now;
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}

    fn pull(&mut self, _ctx: &mut EndpointCtx) -> Option<PktRef> {
        None
    }

    fn has_pending(&self) -> bool {
        false
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn is_done(&self) -> bool {
        true
    }
}

fn install_pair(sim: &mut Simulator, src: NodeId, dst: NodeId, flow: FlowId, n: u32, tag: DcpTag) {
    sim.install_endpoint(src, flow, Box::new(Blaster::new(src, dst, flow, n, 1024, tag)));
    sim.install_endpoint(dst, flow, Box::new(Sink::new()));
    sim.kick(src);
}

fn sink_stats(sim: &Simulator, host: NodeId, flow: FlowId) -> TransportStats {
    sim.endpoint_stats(host, flow)
}

#[test]
fn back_to_back_line_rate_delivery() {
    let mut sim = Simulator::new(7);
    let topo = topology::back_to_back(&mut sim, 100.0, 500);
    let (a, b) = (topo.hosts[0], topo.hosts[1]);
    install_pair(&mut sim, a, b, FlowId(1), 1000, DcpTag::Data);
    assert!(sim.run_to_quiescence(SEC));
    let st = sink_stats(&sim, b, FlowId(1));
    assert_eq!(st.pkts_received, 1000);
    assert_eq!(st.goodput_bytes, 1000 * 1024);
    // 1000 packets of (1024 + 74B header) at 100 Gbps ≈ 87.9 µs + 0.5 µs prop.
    let wire = 1024 + 57 + 1 + 16;
    let expect = 1000 * tx_time(wire, 100.0) + 500;
    let sink = sim.host(b);
    let _ = sink;
    assert!(
        (sim.now() as i64 - expect as i64).unsigned_abs() < 2_000,
        "finished at {} vs expected ≈{expect}",
        sim.now()
    );
}

#[test]
fn clos_delivers_across_spines() {
    let mut sim = Simulator::new(3);
    let topo = topology::clos(
        &mut sim,
        SwitchConfig::lossy(LoadBalance::Ecmp),
        2,
        2,
        2,
        100.0,
        100.0,
        US,
        US,
    );
    // host 0 (leaf 0) → host 3 (leaf 1)
    let (src, dst) = (topo.hosts[0], topo.hosts[3]);
    install_pair(&mut sim, src, dst, FlowId(1), 500, DcpTag::Data);
    assert!(sim.run_to_quiescence(SEC));
    assert_eq!(sink_stats(&sim, dst, FlowId(1)).pkts_received, 500);
    assert_eq!(sim.net_stats().data_forwarded, 500 * 3, "3 switch hops per packet");
}

#[test]
fn spray_uses_all_spines() {
    let mut sim = Simulator::new(3);
    let topo = topology::clos(
        &mut sim,
        SwitchConfig::lossy(LoadBalance::Spray),
        4,
        2,
        2,
        100.0,
        100.0,
        US,
        US,
    );
    let (src, dst) = (topo.hosts[0], topo.hosts[3]);
    install_pair(&mut sim, src, dst, FlowId(1), 400, DcpTag::Data);
    assert!(sim.run_to_quiescence(SEC));
    assert_eq!(sink_stats(&sim, dst, FlowId(1)).pkts_received, 400);
    // Every spine should have forwarded a decent share.
    for &sp in &topo.spines {
        let fw = sim.switch(sp).stats.data_forwarded;
        assert!(fw > 50, "spine {sp:?} forwarded only {fw}");
    }
}

#[test]
fn trimming_converts_overflow_to_header_only() {
    let mut sim = Simulator::new(11);
    let mut cfg = SwitchConfig::dcp(LoadBalance::Ecmp, 10.0);
    cfg.data_q_threshold = 8 * 1024; // tiny queue: force trims
                                     // Bottleneck: two senders into one 100G receiver port.
    let topo = topology::two_switch_testbed(&mut sim, cfg, 2, 100.0, &[100.0], US, US);
    let dst = topo.hosts[2];
    install_pair(&mut sim, topo.hosts[0], dst, FlowId(1), 2000, DcpTag::Data);
    install_pair(&mut sim, topo.hosts[1], dst, FlowId(2), 2000, DcpTag::Data);
    assert!(sim.run_to_quiescence(SEC));
    let ns = sim.net_stats();
    assert!(ns.trims > 0, "congestion must trim");
    assert_eq!(ns.ho_drops, 0, "control plane stays lossless");
    assert_eq!(ns.data_drops, 0, "DCP data is trimmed, not dropped");
    // Every packet either arrived as data or as a bounced HO notification.
    let s1 = sink_stats(&sim, dst, FlowId(1));
    let s2 = sink_stats(&sim, dst, FlowId(2));
    let sink1 = sim.host(dst).endpoint(FlowId(1)).unwrap();
    let _ = sink1;
    assert_eq!(s1.pkts_received + s2.pkts_received + ns.trims, 4000);
}

#[test]
fn lossy_switch_drops_at_threshold() {
    let mut sim = Simulator::new(11);
    let mut cfg = SwitchConfig::lossy(LoadBalance::Ecmp);
    cfg.data_q_threshold = 8 * 1024;
    let topo = topology::two_switch_testbed(&mut sim, cfg, 2, 100.0, &[100.0], US, US);
    let dst = topo.hosts[2];
    install_pair(&mut sim, topo.hosts[0], dst, FlowId(1), 2000, DcpTag::NonDcp);
    install_pair(&mut sim, topo.hosts[1], dst, FlowId(2), 2000, DcpTag::NonDcp);
    assert!(sim.run_to_quiescence(SEC));
    let ns = sim.net_stats();
    assert!(ns.data_drops > 0);
    assert_eq!(ns.trims, 0);
}

#[test]
fn pfc_prevents_all_drops() {
    let mut sim = Simulator::new(5);
    let cfg = SwitchConfig::lossless(LoadBalance::Ecmp);
    let topo = topology::two_switch_testbed(&mut sim, cfg, 4, 100.0, &[100.0], US, US);
    let dst = topo.hosts[4];
    // 4-to-1 incast through one cross link.
    for (i, &h) in topo.hosts[..4].iter().enumerate() {
        install_pair(&mut sim, h, dst, FlowId(i as u32 + 1), 3000, DcpTag::NonDcp);
    }
    assert!(sim.run_to_quiescence(10 * SEC));
    let ns = sim.net_stats();
    assert_eq!(ns.data_drops + ns.buffer_drops, 0, "PFC fabric must be lossless");
    assert!(ns.pauses_sent > 0, "incast must trigger PAUSE");
    let total: u64 = (1..=4).map(|f| sink_stats(&sim, dst, FlowId(f)).pkts_received).sum();
    assert_eq!(total, 4 * 3000);
}

#[test]
fn wrr_shares_bandwidth_by_weight() {
    // Saturate one egress port with data packets while HO packets contend:
    // the control queue must receive ≈ w/(1+w) of the bytes when backlogged.
    // Simpler check here: under heavy trimming the control queue never
    // starves and HO packets arrive interleaved with data, not after it.
    let mut sim = Simulator::new(13);
    let mut cfg = SwitchConfig::dcp(LoadBalance::Ecmp, 4.0);
    cfg.data_q_threshold = 16 * 1024;
    let topo = topology::two_switch_testbed(&mut sim, cfg, 2, 100.0, &[100.0], US, US);
    let dst = topo.hosts[2];
    install_pair(&mut sim, topo.hosts[0], dst, FlowId(1), 3000, DcpTag::Data);
    install_pair(&mut sim, topo.hosts[1], dst, FlowId(2), 3000, DcpTag::Data);
    assert!(sim.run_to_quiescence(SEC));
    let ns = sim.net_stats();
    assert!(ns.trims > 100);
    assert_eq!(ns.ho_drops, 0);
}

#[test]
fn queue_accessors_are_consistent() {
    let mut sim = Simulator::new(1);
    let cfg = SwitchConfig::dcp(LoadBalance::Ecmp, 4.0);
    let topo = topology::two_switch_testbed(&mut sim, cfg, 1, 100.0, &[100.0], US, US);
    let s1 = topo.leaves[0];
    let sw = sim.switch(s1);
    for p in &sw.ports {
        assert_eq!(p.queued_bytes(), p.data_queue_bytes() + p.ctrl_queue_bytes());
    }
    let _ = (Q_DATA, Q_CTRL);
}

#[test]
fn same_seed_same_trace() {
    let run = |seed: u64| {
        let mut sim = Simulator::new(seed);
        let topo = topology::clos(
            &mut sim,
            SwitchConfig::dcp(LoadBalance::Spray, 8.0),
            2,
            2,
            2,
            100.0,
            100.0,
            US,
            US,
        );
        let (src, dst) = (topo.hosts[1], topo.hosts[2]);
        install_pair(&mut sim, src, dst, FlowId(1), 700, DcpTag::Data);
        sim.run_to_quiescence(SEC);
        (sim.now(), sink_stats(&sim, dst, FlowId(1)).pkts_received, sim.net_stats().data_forwarded)
    };
    assert_eq!(run(99), run(99));
    // And a different seed still delivers everything (spray order differs).
    assert_eq!(run(99).1, run(100).1);
}

#[test]
fn forced_loss_drops_without_trimming_and_trims_with() {
    for (trim, expect_trims) in [(false, false), (true, true)] {
        let mut sim = Simulator::new(21);
        let mut cfg = if trim {
            SwitchConfig::dcp(LoadBalance::Ecmp, 8.0)
        } else {
            SwitchConfig::lossy(LoadBalance::Ecmp)
        };
        cfg.forced_loss_rate = 0.05;
        let topo = topology::two_switch_testbed(&mut sim, cfg, 1, 100.0, &[100.0], US, US);
        let dst = topo.hosts[1];
        install_pair(&mut sim, topo.hosts[0], dst, FlowId(1), 2000, DcpTag::Data);
        assert!(sim.run_to_quiescence(SEC));
        let ns = sim.net_stats();
        if expect_trims {
            assert!(ns.trims > 50, "5% loss on ~4000 switch passes");
            assert_eq!(ns.data_drops, 0);
        } else {
            assert!(ns.data_drops > 50);
            assert_eq!(ns.trims, 0);
        }
    }
}
