//! Every [`FaultVerdict`], driven through the engine's one interceptor.
//!
//! A scripted [`FaultPlane`] rules once on each packet it names — data,
//! header-only and ACK-class — on the smallest CLOS that partitions in two
//! (one spine, two leaves, one host each), and the run must book the same
//! counters, emit one `Drop { class: Fault }` record per loss, offer a held
//! or copied packet to the plane exactly once, and end conserved with every
//! pool empty — unsharded, on two shards, and on two shards walked by two
//! workers. The interceptor is reached elsewhere only through `dcp-faults`
//! and `dcp-check`; this is its own test, at its own layer.

use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{SEC, US};
use dcp_netsim::*;
use dcp_rdma::headers::*;
use dcp_rdma::segment::PacketDescriptor;
use dcp_telemetry::{DropClass, Probe, ProbeEvent};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

const FLOW: FlowId = FlowId(1);
const N_DATA: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Data,
    Ho,
    Ack,
}

fn class(pkt: &Packet) -> Class {
    match pkt.dcp_tag() {
        DcpTag::HeaderOnly => Class::Ho,
        _ if pkt.is_data() => Class::Data,
        _ => Class::Ack,
    }
}

fn packet(src: NodeId, dst: NodeId, tag: DcpTag, psn: u32, data: bool) -> Packet {
    let opcode = if data { RdmaOpcode::WriteMiddle } else { RdmaOpcode::Acknowledge };
    let payload_len = if data { 1024 } else { 0 };
    Packet {
        uid: psn as u64,
        flow: FLOW,
        header: PacketHeader {
            eth: EthHeader::new(MacAddr::from_host(src.0), MacAddr::from_host(dst.0)),
            ip: Ipv4Header::new(src.ip(), dst.ip(), tag, 0),
            udp: UdpHeader::roce(FLOW.0 as u16, 0),
            bth: Bth { opcode, dest_qpn: 1, psn, ack_req: false },
            dcp: data.then_some(DcpDataExt { msn: 0, ssn: None }),
            reth: data.then_some(Reth { vaddr: 0, rkey: 1, dma_len: 1024 }),
            aeth: (!data).then_some(Aeth { syndrome: 0, emsn: 0 }),
        },
        payload_len,
        desc: if data {
            PktDesc::some(PacketDescriptor {
                opcode,
                index: psn,
                offset: psn as u64 * 1024,
                payload_len,
                remote_addr: Some(psn as u64 * 1024),
                rkey: Some(1),
                imm: None,
                ssn: None,
            })
        } else {
            PktDesc::NONE
        },
        ext: PktExt::None,
        sent_at: 0,
        is_retx: false,
        retx_cause: RetxCause::Unknown,
        ingress: 0,
    }
}

/// Sends `N_DATA` DCP data packets at line rate; swallows the ACKs.
struct Blaster {
    src: NodeId,
    dst: NodeId,
    sent: u32,
    stats: TransportStats,
}

impl Endpoint for Blaster {
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        ctx.pool.release(pkt);
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        if self.sent >= N_DATA {
            return None;
        }
        self.sent += 1;
        self.stats.data_pkts += 1;
        Some(ctx.pool.insert(packet(self.src, self.dst, DcpTag::Data, self.sent - 1, true)))
    }
    fn has_pending(&self) -> bool {
        self.sent < N_DATA
    }
    fn stats(&self) -> TransportStats {
        self.stats
    }
    fn is_done(&self) -> bool {
        self.sent >= N_DATA
    }
}

/// Counts data and header-only arrivals (logging their order) and answers
/// each data packet with an ACK-class packet carrying its PSN.
struct Echo {
    me: NodeId,
    peer: NodeId,
    acks: VecDeque<u32>,
    arrivals: Arc<Mutex<Vec<(Class, u32)>>>,
    stats: TransportStats,
}

impl Endpoint for Echo {
    fn on_packet(&mut self, pr: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pr);
        self.arrivals.lock().unwrap().push((class(&pkt), pkt.psn()));
        match class(&pkt) {
            Class::Data => {
                self.stats.pkts_received += 1;
                self.acks.push_back(pkt.psn());
            }
            Class::Ho => self.stats.ho_received += 1,
            Class::Ack => unreachable!("nobody ACKs the receiver"),
        }
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        let psn = self.acks.pop_front()?;
        Some(ctx.pool.insert(packet(self.me, self.peer, DcpTag::Ack, psn, false)))
    }
    fn has_pending(&self) -> bool {
        !self.acks.is_empty()
    }
    fn stats(&self) -> TransportStats {
        self.stats
    }
    fn is_done(&self) -> bool {
        true
    }
}

/// An arrival, as the script names it: where, what, which.
type Arrival = (NodeId, Class, u32);

/// Rules once on each [`Arrival`] it names, `Deliver` otherwise, and counts
/// how often each arrival was offered to it.
struct Script {
    rules: Vec<(Arrival, FaultVerdict)>,
    offers: Arc<Mutex<HashMap<Arrival, u32>>>,
}

impl FaultPlane for Script {
    fn on_arrival(
        &mut self,
        _now: Nanos,
        node: NodeId,
        _port: PortId,
        pkt: &Packet,
    ) -> FaultVerdict {
        let key = (node, class(pkt), pkt.psn());
        *self.offers.lock().unwrap().entry(key).or_default() += 1;
        match self.rules.iter().position(|(k, _)| *k == key) {
            Some(i) => self.rules.swap_remove(i).1,
            None => FaultVerdict::Deliver,
        }
    }
    fn on_control(&mut self, _token: u64, _sim: &mut Simulator) {}
}

/// Keeps the `Drop` records.
struct Drops(Arc<Mutex<Vec<ProbeEvent>>>);

impl Probe for Drops {
    fn record(&mut self, _at: u64, ev: &ProbeEvent) {
        if matches!(ev, ProbeEvent::Drop { .. }) {
            self.0.lock().unwrap().push(*ev);
        }
    }
}

/// What one run of the script booked.
#[derive(Debug, PartialEq)]
struct Outcome {
    net: String,
    /// The receiver's `(pkts_received, ho_received)`.
    rx: (u64, u64),
    /// `(node, psn)` of every `Drop { class: Fault }` record, sorted.
    fault_drops: Vec<(u32, u32)>,
    arrivals: Vec<(Class, u32)>,
}

fn run(shards: usize, workers: usize) -> Outcome {
    let mut sim = Simulator::new(7);
    sim.disable_auto_partition();
    let cfg = SwitchConfig::dcp(LoadBalance::Ecmp, 4.0);
    let topo = topology::clos(&mut sim, cfg, 1, 2, 1, 100.0, 100.0, US, US);
    if shards > 1 {
        assert!(sim.partition(&topo, shards), "one spine, two leaves partitions in two");
        assert_eq!(sim.shard_count(), shards);
        sim.set_workers(workers);
    }
    let (h0, h1) = (topo.hosts[0], topo.hosts[1]);
    let (leaf0, leaf1, spine) = (topo.leaves[0], topo.leaves[1], topo.spines[0]);

    use Class::*;
    use FaultVerdict::*;
    let rules = vec![
        ((spine, Data, 0), Deliver),
        // Lost on the wire, once per packet class.
        ((spine, Data, 1), Drop),
        ((spine, Ho, 4), Drop),
        ((spine, Ack, 0), Drop),
        // Corrupt DCP data: a trimming switch forwards the header (→ HO),
        // a host can only lose it.
        ((leaf1, Data, 2), Corrupt),
        ((h1, Data, 3), Corrupt),
        ((leaf0, Data, 4), Corrupt),
        ((leaf0, Data, 6), Corrupt),
        // Copied: a data packet, and the HO that psn 6 became.
        ((spine, Data, 5), Duplicate { after: 500 }),
        ((spine, Ho, 6), Duplicate { after: 500 }),
        // Held on the wire while their successors pass.
        ((leaf1, Data, 7), Delay { by: 3 * US }),
        ((spine, Data, 8), Reorder { by: 2 * US }),
    ];
    let ruled: Vec<Arrival> = rules.iter().map(|r| r.0).collect();
    let offers = Arc::new(Mutex::new(HashMap::new()));
    sim.set_fault_plane(Box::new(Script { rules, offers: offers.clone() }));
    let drops = Arc::new(Mutex::new(Vec::new()));
    sim.set_probe(Box::new(Drops(drops.clone())));

    let arrivals = Arc::new(Mutex::new(Vec::new()));
    let tx = Blaster { src: h0, dst: h1, sent: 0, stats: TransportStats::default() };
    let rx = Echo {
        me: h1,
        peer: h0,
        acks: VecDeque::new(),
        arrivals: arrivals.clone(),
        stats: TransportStats::default(),
    };
    sim.install_endpoint(h0, FLOW, Box::new(tx));
    sim.install_endpoint(h1, FLOW, Box::new(rx));
    sim.kick(h0);
    assert!(sim.run_to_quiescence(SEC), "{shards} shard(s): the script must drain");
    let cons = sim.check_conservation(true);
    assert!(cons.is_ok(), "{shards} shard(s): conservation or a pool leak: {:?}", cons.violations);

    // A ruled-on arrival was offered once: the re-scheduled original of a
    // Delay/Reorder and the copy of a Duplicate arrive without a second
    // ruling. One hop on, both copies of a duplicated packet are packets
    // like any other.
    let offers = offers.lock().unwrap();
    for key in &ruled {
        assert_eq!(offers[key], 1, "{shards} shard(s): {key:?} offered more than once");
    }
    assert_eq!(offers[&(leaf1, Data, 5)], 2, "both data copies travel on");
    assert_eq!(offers[&(leaf1, Ho, 6)], 2, "both HO copies travel on");
    assert_eq!(offers[&(leaf1, Data, 0)], 1);

    sim.probe_mut(); // flush staged records
    let mut fault_drops: Vec<(u32, u32)> = drops
        .lock()
        .unwrap()
        .iter()
        .map(|ev| match *ev {
            ProbeEvent::Drop { node, psn, class: DropClass::Fault, .. } => (node, psn),
            other => panic!("{shards} shard(s): no congestion in this run, yet {other:?}"),
        })
        .collect();
    fault_drops.sort_unstable();
    let arrivals = arrivals.lock().unwrap().clone();
    let rx = sim.endpoint_stats(h1, FLOW);
    Outcome {
        net: format!("{:?}", sim.net_stats()),
        rx: (rx.pkts_received, rx.ho_received),
        fault_drops,
        arrivals,
    }
}

#[test]
fn every_verdict_books_the_same_at_one_shard_and_two() {
    let one = run(1, 1);

    // The bookings, spelled out once.
    let net = &one.net;
    for want in [
        "trims: 3",
        "fault_drops: 2",
        "ho_drops: 1",
        "ack_drops: 1",
        "dup_data_injected: 1",
        "dup_ho_injected: 1",
        "data_drops: 0",
    ] {
        assert!(net.contains(want), "expected {want} in {net}");
    }
    // 10 sent − 5 lost or trimmed + 1 copy; psn 2's HO and psn 6's, twice.
    assert_eq!(one.rx, (6, 3));
    // One record per loss: data 1 at the spine (node 0), data 3 at host 1,
    // HO 4 and ACK 0 at the spine.
    assert_eq!(one.fault_drops.len(), 4);
    assert_eq!(one.fault_drops.iter().filter(|d| d.0 == 0).count(), 3);
    // The held packets really were overtaken: psn 9 lands before 7 and 8.
    let pos = |psn| one.arrivals.iter().position(|&a| a == (Class::Data, psn)).unwrap();
    assert!(pos(9) < pos(8) && pos(8) < pos(7), "arrival order {:?}", one.arrivals);

    assert_eq!(run(2, 1), one, "two shards, one worker");
    assert_eq!(run(2, 2), one, "two shards, two workers");
}
