//! The host QP scheduler's launch order, pinned directly.
//!
//! Scripted endpoints — a fixed packet size, a script of `Some`/`None`
//! pulls, `has_pending()` true for as long as the script has an entry left,
//! whatever the last pull answered — sit on one back-to-back host pair, and
//! a probe records every launch as `(slot, wire_bytes)`. The one-tenant
//! sequences are the round-robin-with-byte-quota schedule (§4.3) every
//! shipped trace digest rests on; the tests after them put tenants with
//! different weights and QP counts on the same wire.

use dcp_netsim::host::ROUND_QUOTA;
use dcp_netsim::*;
use dcp_rdma::headers::*;
use dcp_rdma::qp::WorkReqOp;
use dcp_rdma::segment::PacketDescriptor;
use dcp_telemetry::{Probe, ProbeEvent};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// What a scripted sender answers to one `pull`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pull {
    Send,
    /// `None`, as a sender behind a closed window or a pacer answers.
    Gate,
}
use Pull::{Gate, Send};

fn script(parts: &[(Pull, usize)]) -> VecDeque<Pull> {
    parts.iter().flat_map(|&(p, n)| std::iter::repeat_n(p, n)).collect()
}

struct Scripted {
    src: NodeId,
    dst: NodeId,
    flow: FlowId,
    /// Bytes each packet occupies on the wire.
    wire: u32,
    script: VecDeque<Pull>,
    stats: TransportStats,
}

impl Endpoint for Scripted {
    /// Wakes the endpoint with `len` more `Send`s.
    fn post(&mut self, _wr_id: u64, _op: WorkReqOp, len: u64) {
        self.script.extend(std::iter::repeat_n(Send, len as usize));
    }
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        ctx.pool.release(pkt);
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        if self.script.pop_front()? == Gate {
            return None;
        }
        let psn = self.stats.data_pkts as u32;
        self.stats.data_pkts += 1;
        let opcode = RdmaOpcode::WriteMiddle;
        let header = PacketHeader {
            eth: EthHeader::new(MacAddr::from_host(self.src.0), MacAddr::from_host(self.dst.0)),
            ip: Ipv4Header::new(self.src.ip(), self.dst.ip(), DcpTag::NonDcp, 0),
            udp: UdpHeader::roce(self.flow.0 as u16, 0),
            bth: Bth { opcode, dest_qpn: 1, psn, ack_req: false },
            dcp: Some(DcpDataExt { msn: 0, ssn: None }),
            reth: Some(Reth { vaddr: 0, rkey: 1, dma_len: self.wire }),
            aeth: None,
        };
        let payload_len = self.wire - header.wire_header_bytes() as u32;
        Some(ctx.pool.insert(Packet {
            uid: psn as u64,
            flow: self.flow,
            header,
            payload_len,
            desc: PktDesc::some(PacketDescriptor {
                opcode,
                index: psn,
                offset: 0,
                payload_len,
                remote_addr: Some(0),
                rkey: Some(1),
                imm: None,
                ssn: None,
            }),
            ext: PktExt::None,
            sent_at: 0,
            is_retx: false,
            retx_cause: RetxCause::Unknown,
            ingress: 0,
        }))
    }
    fn has_pending(&self) -> bool {
        !self.script.is_empty()
    }
    fn stats(&self) -> TransportStats {
        self.stats
    }
    fn is_done(&self) -> bool {
        self.script.is_empty()
    }
}

/// The far end of every flow: takes the packets, says nothing.
struct Sink;

impl Endpoint for Sink {
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        ctx.pool.release(pkt);
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
    fn pull(&mut self, _ctx: &mut EndpointCtx) -> Option<PktRef> {
        None
    }
    fn has_pending(&self) -> bool {
        false
    }
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
    fn is_done(&self) -> bool {
        true
    }
}

/// Keeps `(flow, wire_bytes)` of every launch.
struct Launches(Arc<Mutex<Vec<(u32, u32)>>>);

impl Probe for Launches {
    fn record(&mut self, _at: u64, ev: &ProbeEvent) {
        if let ProbeEvent::Tx { flow, bytes, .. } = *ev {
            self.0.lock().unwrap().push((flow, bytes));
        }
    }
}

/// Two hosts back to back at 100 Gbps; every scripted sender is on `tx`.
struct Rig {
    sim: Simulator,
    tx: NodeId,
    rx: NodeId,
    log: Arc<Mutex<Vec<(u32, u32)>>>,
    slot_of: HashMap<u32, u32>,
}

impl Rig {
    fn new() -> Rig {
        let mut sim = Simulator::new(1);
        let (tx, rx) = (sim.add_host(), sim.add_host());
        sim.connect_hosts(tx, rx, 100.0, US);
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.set_probe(Box::new(Launches(log.clone())));
        Rig { sim, tx, rx, log, slot_of: HashMap::new() }
    }

    /// Installs a scripted sender (and its sink) without kicking the NIC.
    fn qp(&mut self, flow: u32, wire: u32, parts: &[(Pull, usize)]) -> QpRef {
        let ep = Scripted {
            src: self.tx,
            dst: self.rx,
            flow: FlowId(flow),
            wire,
            script: script(parts),
            stats: TransportStats::default(),
        };
        let qp = self.sim.install_endpoint(self.tx, FlowId(flow), Box::new(ep));
        self.sim.install_endpoint(self.rx, FlowId(flow), Box::new(Sink));
        self.slot_of.insert(flow, qp.slot);
        qp
    }

    /// Offers the wire and runs until nothing is left to happen.
    fn kick(&mut self) {
        self.sim.kick(self.tx);
        self.sim.run_to_quiescence(SEC);
    }

    fn tag(&mut self, flow: u32, tenant: u8) {
        self.sim.host_mut(self.tx).set_flow_tenant(FlowId(flow), tenant);
    }

    /// Posts on several flows before the scheduler sees any of them.
    fn post_together(&mut self, posts: &[(u32, u64)]) {
        self.sim.host_mut(self.tx).paused = true;
        for &(flow, n) in posts {
            self.sim.post(self.tx, FlowId(flow), 0, WorkReqOp::Send, n);
        }
        self.sim.host_mut(self.tx).paused = false;
    }

    /// The launches since the last call, run-length encoded as
    /// `(slot, wire_bytes, packets)`.
    fn launches(&mut self) -> Vec<(u32, u32, usize)> {
        self.sim.probe_mut(); // flush staged records
        let mut runs: Vec<(u32, u32, usize)> = Vec::new();
        for (flow, bytes) in self.log.lock().unwrap().drain(..) {
            let slot = self.slot_of[&flow];
            match runs.last_mut() {
                Some(r) if (r.0, r.1) == (slot, bytes) => r.2 += 1,
                _ => runs.push((slot, bytes, 1)),
            }
        }
        runs
    }
}

/// Four 4096-byte packets spend the 16 KB quota exactly.
const BIG: u32 = (ROUND_QUOTA / 4) as u32;
/// Seventeen of these spend it.
const SMALL: u32 = 1000;
/// More `SMALL` packets than 100 Gbps carries in a millisecond.
const BACKLOG: &[(Pull, usize)] = &[(Send, 13_000)];

/// Fraction of the launched bytes that left from `slots`.
fn byte_share(runs: &[(u32, u32, usize)], slots: std::ops::Range<u32>) -> f64 {
    let bytes = |keep: &dyn Fn(u32) -> bool| -> f64 {
        runs.iter().filter(|r| keep(r.0)).map(|r| r.1 as f64 * r.2 as f64).sum()
    };
    bytes(&|slot| slots.contains(&slot)) / bytes(&|_| true)
}

#[test]
fn the_cursor_advances_only_when_the_quota_is_spent() {
    let mut rig = Rig::new();
    rig.qp(1, BIG, &[(Send, 6)]);
    rig.qp(2, SMALL, &[(Send, 20)]);
    rig.kick();
    // Slot 0 keeps the wire until its quota reaches zero (not below), slot
    // 1 until its 17th packet takes it there; slot 0's last two leave its
    // quota half spent, which costs slot 1 nothing.
    assert_eq!(rig.launches(), [(0, BIG, 4), (1, SMALL, 17), (0, BIG, 2), (1, SMALL, 3)]);
}

#[test]
fn a_none_pull_moves_on_to_the_next_ready_qp() {
    let mut rig = Rig::new();
    rig.qp(1, BIG, &[(Send, 8)]);
    rig.qp(2, SMALL, &[(Gate, 3), (Send, 1)]);
    rig.qp(3, BIG, &[(Send, 8)]);
    rig.kick();
    // Slot 1 is ready and declines every offer; the same pass goes on to
    // slot 2 with a fresh quota, with no event in between.
    assert_eq!(rig.launches(), [(0, BIG, 4), (2, BIG, 4), (0, BIG, 4), (2, BIG, 4)]);
    rig.kick();
    assert_eq!(rig.launches(), [(1, SMALL, 1)]);
}

#[test]
fn a_lap_that_sends_nothing_leaves_the_cursor_where_it_began() {
    let mut rig = Rig::new();
    rig.qp(1, BIG, &[(Send, 4), (Gate, 1), (Send, 1)]);
    rig.qp(2, BIG, &[(Gate, 1), (Send, 2)]);
    rig.qp(3, BIG, &[(Gate, 1), (Send, 1)]);
    rig.kick();
    // Slot 0 spent its quota, so the cursor is on slot 1 when all three
    // decline.
    assert_eq!(rig.launches(), [(0, BIG, 4)]);
    rig.kick();
    assert_eq!(rig.launches(), [(1, BIG, 2), (2, BIG, 1), (0, BIG, 1)]);
}

#[test]
fn a_lap_cut_short_by_the_last_ready_qp_going_idle_restores_the_cursor() {
    let mut rig = Rig::new();
    rig.qp(1, BIG, &[(Send, 4)]);
    rig.qp(2, BIG, &[]);
    rig.qp(3, BIG, &[(Gate, 1)]);
    rig.kick();
    // The cursor moved to idle slot 1 when slot 0 spent its quota; slot 2's
    // only pull declines and empties the ready set mid-lap.
    assert_eq!(rig.launches(), [(0, BIG, 4)]);
    rig.post_together(&[(1, 1), (2, 1)]);
    rig.kick();
    assert_eq!(rig.launches(), [(1, BIG, 1), (0, BIG, 1)]);
}

#[test]
fn an_empty_pass_refreshes_the_quota_of_the_qp_that_wakes_next() {
    let mut rig = Rig::new();
    rig.qp(1, BIG, &[(Send, 2)]);
    rig.qp(2, SMALL, &[]);
    rig.kick();
    assert_eq!(rig.launches(), [(0, BIG, 2)]);
    // The wire came free with nothing ready: slot 0, still under the
    // cursor, wakes to a whole quota, not the half it left.
    rig.post_together(&[(1, 6), (2, 2)]);
    rig.kick();
    assert_eq!(rig.launches(), [(0, BIG, 4), (1, SMALL, 2), (0, BIG, 2)]);
}

#[test]
fn a_slot_recycled_under_the_cursor_inherits_what_is_left_of_the_quota() {
    let mut rig = Rig::new();
    rig.qp(1, BIG, &[(Send, 4)]);
    let doomed = rig.qp(2, BIG, &[(Send, 2)]);
    rig.sim.kick(rig.tx);
    // Stop while slot 1's second packet is still on the wire: no pass has
    // run since, so the cursor is on slot 1 with half a quota left.
    rig.sim.run_until(5 * tx_time(BIG as usize, 100.0) + 100);
    assert_eq!(rig.launches(), [(0, BIG, 4), (1, BIG, 2)]);
    assert!(rig.sim.remove_endpoint(rig.tx, doomed).is_some());
    let recycled = rig.qp(4, SMALL, &[]);
    assert_eq!((recycled.slot, recycled.gen), (doomed.slot, doomed.gen + 1));
    rig.post_together(&[(1, 1), (4, 12)]);
    rig.kick();
    assert_eq!(rig.launches(), [(1, SMALL, 9), (0, BIG, 1), (1, SMALL, 3)]);
}

#[test]
fn byte_shares_follow_the_weights_whatever_the_qp_counts() {
    let mut rig = Rig::new();
    rig.qp(1, SMALL, BACKLOG);
    for flow in 2..=6 {
        rig.qp(flow, SMALL, BACKLOG);
        rig.tag(flow, 1);
    }
    rig.sim.host_mut(rig.tx).set_tenant_weights(&[4, 2]);
    rig.sim.kick(rig.tx);
    rig.sim.run_until(MS);
    let runs = rig.launches();
    let share = byte_share(&runs, 0..1);
    assert!((share - 2.0 / 3.0).abs() < 0.02 * 2.0 / 3.0, "tenant 0 launched {share} of the bytes");
    // Within tenant 1 the order is the one-tenant round-robin: slots 1..=5
    // in turn, a whole quota each, however tenant 0's launches interleave.
    let mut turns: Vec<(u32, usize)> = Vec::new();
    for &(slot, _, n) in runs.iter().filter(|r| r.0 != 0) {
        match turns.last_mut() {
            Some(turn) if turn.0 == slot => turn.1 += n,
            _ => turns.push((slot, n)),
        }
    }
    turns.pop(); // the millisecond ended mid-turn
    assert!(turns.len() > 40, "{turns:?}");
    for (i, &turn) in turns.iter().enumerate() {
        assert_eq!(turn, (1 + i as u32 % 5, 17), "turn {i} of tenant 1");
    }
}

#[test]
fn a_tagged_flow_is_a_weight_one_tenant_without_any_weights_set() {
    let mut rig = Rig::new();
    for flow in 1..=4 {
        rig.qp(flow, SMALL, BACKLOG);
    }
    rig.tag(4, 3);
    rig.sim.kick(rig.tx);
    rig.sim.run_until(MS);
    // Three QPs against one, and still half the wire each.
    let share = byte_share(&rig.launches(), 3..4);
    assert!((share - 0.5).abs() < 0.01, "tenant 3 launched {share} of the bytes");
}

#[test]
fn retagging_a_ready_qp_takes_its_ready_count_along() {
    let mut rig = Rig::new();
    rig.qp(1, SMALL, BACKLOG);
    rig.qp(2, SMALL, BACKLOG);
    rig.sim.kick(rig.tx);
    rig.sim.run_until(100 * US);
    assert!((byte_share(&rig.launches(), 1..2) - 0.5).abs() < 0.02);
    // Tenant 1 is new and has been served nothing, so it is owed the wire
    // until it catches up — if the scheduler knows it has a ready QP.
    rig.tag(2, 1);
    rig.sim.run_until(150 * US);
    let runs = rig.launches();
    assert_eq!(runs.len(), 1, "{runs:?}");
    assert_eq!(runs[0].0, 1);
    // And back: tenant 0 holds two ready QPs again and takes turns.
    rig.tag(2, 0);
    rig.sim.run_until(250 * US);
    assert!((byte_share(&rig.launches(), 1..2) - 0.5).abs() < 0.02);
}

#[test]
fn a_zero_weight_counts_as_one() {
    let mut rig = Rig::new();
    rig.qp(1, SMALL, BACKLOG);
    rig.qp(2, SMALL, BACKLOG);
    rig.tag(2, 1);
    rig.sim.host_mut(rig.tx).set_tenant_weights(&[0, 1]);
    rig.sim.kick(rig.tx);
    rig.sim.run_until(MS);
    let share = byte_share(&rig.launches(), 0..1);
    assert!((share - 0.5).abs() < 0.01, "tenant 0 launched {share} of the bytes");
}

#[test]
#[should_panic(expected = "tenant ids are u8")]
fn a_weight_table_longer_than_the_tenant_id_space_is_rejected() {
    host::Host::new(NodeId(0)).set_tenant_weights(&[1; 257]);
}
