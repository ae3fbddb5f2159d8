//! Property tests over fabric construction: any CLOS dimensions yield
//! complete routing, any install sequence reads back from a routing table,
//! and delivery + determinism hold for arbitrary host pairs and seeds.

use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{SEC, US};
use dcp_netsim::*;
use dcp_rdma::headers::*;
use dcp_rdma::segment::PacketDescriptor;
use proptest::prelude::*;

/// Minimal unreliable sender used to exercise the fabric.
struct Blaster {
    src: NodeId,
    dst: NodeId,
    flow: FlowId,
    n: u32,
    sent: u32,
    stats: TransportStats,
}

impl Endpoint for Blaster {
    fn on_packet(&mut self, p: PktRef, c: &mut EndpointCtx) {
        c.pool.release(p);
    }
    fn on_timer(&mut self, _t: u64, _c: &mut EndpointCtx) {}
    fn pull(&mut self, c: &mut EndpointCtx) -> Option<PktRef> {
        if self.sent >= self.n {
            return None;
        }
        let psn = self.sent;
        self.sent += 1;
        Some(c.pool.insert(Packet {
            uid: psn as u64,
            flow: self.flow,
            header: PacketHeader {
                eth: EthHeader::new(MacAddr::from_host(self.src.0), MacAddr::from_host(self.dst.0)),
                ip: Ipv4Header::new(self.src.ip(), self.dst.ip(), DcpTag::NonDcp, 0),
                udp: UdpHeader::roce(self.flow.0 as u16, 0),
                bth: Bth { opcode: RdmaOpcode::WriteMiddle, dest_qpn: 0, psn, ack_req: false },
                dcp: Some(DcpDataExt { msn: 0, ssn: None }),
                reth: Some(Reth { vaddr: 0, rkey: 0, dma_len: 1024 }),
                aeth: None,
            },
            payload_len: 1024,
            desc: PktDesc::some(PacketDescriptor {
                opcode: RdmaOpcode::WriteMiddle,
                index: psn,
                offset: psn as u64 * 1024,
                payload_len: 1024,
                remote_addr: Some(psn as u64 * 1024),
                rkey: Some(0),
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
    fn on_packet(&mut self, p: PktRef, c: &mut EndpointCtx) {
        if c.pool.take(p).is_data() {
            self.0.pkts_received += 1;
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

fn lb_from(ix: u8) -> LoadBalance {
    match ix % 4 {
        0 => LoadBalance::Ecmp,
        1 => LoadBalance::AdaptiveRouting,
        2 => LoadBalance::Spray,
        _ => LoadBalance::Flowlet { gap_ns: 20_000 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn clos_routes_are_complete(spines in 1usize..5, leaves in 1usize..5, hosts in 1usize..5) {
        let mut sim = Simulator::new(1);
        let topo = topology::clos(
            &mut sim,
            SwitchConfig::lossy(LoadBalance::Ecmp),
            spines, leaves, hosts, 100.0, 100.0, US, US,
        );
        prop_assert_eq!(topo.hosts.len(), leaves * hosts);
        for &leaf in &topo.leaves {
            for &h in &topo.hosts {
                prop_assert!(sim.switch(leaf).routing.candidates(h).is_some());
            }
        }
        for &spine in &topo.spines {
            for &h in &topo.hosts {
                prop_assert_eq!(sim.switch(spine).routing.candidates(h).map(|c| c.len()), Some(1));
            }
        }
    }

    // Sharing equal candidate sets is invisible to lookups: any install
    // sequence, replacements included, reads back exactly what a
    // per-destination copy of each set would.
    #[test]
    fn routing_table_reads_back_every_install(
        installs in prop::collection::vec((0u32..48, prop::collection::vec(0usize..6, 1..4)), 0..200),
    ) {
        let mut table = routing::RoutingTable::new();
        let mut copies = std::collections::HashMap::new();
        for (dst, ports) in &installs {
            table.add_route(NodeId(*dst), ports);
            copies.insert(*dst, ports.clone());
        }
        for dst in 0..64 {
            prop_assert_eq!(table.candidates(NodeId(dst)), copies.get(&dst).map(Vec::as_slice));
        }
        let distinct: std::collections::HashSet<_> = installs.iter().map(|(_, p)| p).collect();
        prop_assert_eq!(table.distinct_sets(), distinct.len());
    }

    #[test]
    fn any_pair_delivers_under_any_lb(
        seed in 0u64..100_000,
        spines in 1usize..4,
        leaves in 2usize..4,
        hosts in 1usize..4,
        src_pick in any::<prop::sample::Index>(),
        dst_pick in any::<prop::sample::Index>(),
        lb_ix in any::<u8>(),
        n in 1u32..300,
    ) {
        let mut sim = Simulator::new(seed);
        let topo = topology::clos(
            &mut sim,
            SwitchConfig::lossy(lb_from(lb_ix)),
            spines, leaves, hosts, 100.0, 100.0, US, US,
        );
        let src = topo.hosts[src_pick.index(topo.hosts.len())];
        let mut dst = topo.hosts[dst_pick.index(topo.hosts.len())];
        if dst == src {
            dst = topo.hosts[(dst_pick.index(topo.hosts.len()) + 1) % topo.hosts.len()];
        }
        prop_assume!(src != dst);
        let flow = FlowId(1);
        sim.install_endpoint(src, flow, Box::new(Blaster {
            src, dst, flow, n, sent: 0, stats: TransportStats::default(),
        }));
        sim.install_endpoint(dst, flow, Box::new(Sink(TransportStats::default())));
        sim.kick(src);
        prop_assert!(sim.run_to_quiescence(SEC));
        // An uncongested single flow loses nothing regardless of LB scheme.
        prop_assert_eq!(sim.endpoint_stats(dst, flow).pkts_received, n as u64);
    }
}
