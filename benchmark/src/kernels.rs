//! Layer kernels: one layer's public functions driven in isolation, with
//! fixed op counts.
//!
//! In-situ spans say where a workload's time goes; a kernel says what one
//! layer costs per operation with nothing else running, so a change to one
//! layer has a number that is its own. Each kernel runs [`ROUNDS`] times
//! and reports the median nanoseconds per operation. Op counts are fixed:
//! the same work every run.

use crate::stats::median;
use dcp_check::DeliveryOracle;
use dcp_core::tracking::MsgTracker;
use dcp_faults::{LinkLoss, LossModel};
use dcp_netsim::host::Host;
use dcp_netsim::packet::{FlowId, NodeId, Packet, PktDesc, PktExt};
use dcp_netsim::switch::Switch;
use dcp_netsim::time::Nanos;
use dcp_netsim::{
    Endpoint, EndpointCtx, Event, EventQueue, Link, LoadBalance, NodeCtx, PacketPool, ReadySet,
    RetxCause, TimerWheel,
};
use dcp_rdma::headers::{
    Bth, DcpDataExt, DcpTag, EthHeader, Ipv4Header, MacAddr, PacketHeader, RdmaOpcode, Reth,
    UdpHeader,
};
use dcp_rdma::qp::{SendWqe, WorkReqOp};
use dcp_rdma::segment::descriptor_for;
use dcp_rdma::wire;
use dcp_telemetry::{CountingProbe, LogHistogram, Probe, ProbeEvent, QueueClass};
use dcp_transport::ec::codec::RsCodec;
use dcp_workloads::{endpoint_pair_opts, CcKind, RunOpts, TransportKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 3;

/// One kernel: the per-layer metric it reports and how to run it once.
pub struct Kernel {
    pub metric: &'static str,
    pub run: fn() -> f64,
}

/// Every kernel, in the order the per-layer metric table lists them.
pub const KERNELS: &[Kernel] = &[
    Kernel { metric: "netsim.equeue.ns_per_op.d1k", run: || equeue_hold(1_000) },
    Kernel { metric: "netsim.equeue.ns_per_op.d20k", run: || equeue_hold(20_000) },
    Kernel { metric: "netsim.equeue.ns_per_op.d320k", run: || equeue_hold(320_000) },
    Kernel { metric: "netsim.twheel.ns_per_op.100k", run: twheel_hold },
    Kernel { metric: "netsim.pool.ns_per_op", run: pool_cycle },
    Kernel { metric: "netsim.ready.ns_per_op", run: ready_cycle },
    Kernel { metric: "netsim.host.qp_ref_ns", run: host_qp_ref },
    Kernel { metric: "netsim.switch.fwd_ns_per_pkt", run: switch_fwd },
    Kernel { metric: "netsim.switch.trim_ns_per_pkt", run: switch_trim },
    Kernel { metric: "core.tracking.ns_per_pkt", run: core_tracking },
    Kernel { metric: "core.loop_ns_per_pkt", run: || endpoint_loop(TransportKind::Dcp, 0) },
    Kernel { metric: "core.loop_ho_ns_per_pkt", run: || endpoint_loop(TransportKind::Dcp, 10) },
    Kernel {
        metric: "transport.gbn.loop_ns_per_pkt",
        run: || endpoint_loop(TransportKind::Gbn, 0),
    },
    Kernel {
        metric: "transport.irn.loop_ns_per_pkt",
        run: || endpoint_loop(TransportKind::Irn, 0),
    },
    Kernel {
        metric: "transport.racktlp.loop_ns_per_pkt",
        run: || endpoint_loop(TransportKind::RackTlp, 0),
    },
    Kernel {
        metric: "transport.timeout_only.loop_ns_per_pkt",
        run: || endpoint_loop(TransportKind::TimeoutOnly, 0),
    },
    Kernel {
        metric: "transport.mprdma.loop_ns_per_pkt",
        run: || endpoint_loop(TransportKind::MpRdma, 0),
    },
    Kernel { metric: "transport.ec.loop_ns_per_pkt", run: || endpoint_loop(TransportKind::Ec, 0) },
    Kernel { metric: "transport.ec.codec.encode_ns_per_kb", run: || ec_codec(false) },
    Kernel { metric: "transport.ec.codec.decode_ns_per_kb", run: || ec_codec(true) },
    Kernel { metric: "faults.loss.ge_roll_ns", run: faults_ge_roll },
    Kernel { metric: "telemetry.probe.dispatch_ns", run: probe_dispatch },
    Kernel { metric: "telemetry.hist.record_ns", run: hist_record },
    Kernel { metric: "check.oracle.record_ns", run: oracle_record },
    Kernel { metric: "rdma.wire.encode_ns", run: || wire_kernel(WireOp::Encode) },
    Kernel { metric: "rdma.wire.decode_ns", run: || wire_kernel(WireOp::Decode) },
    Kernel { metric: "rdma.wire.trim_ns", run: || wire_kernel(WireOp::Trim) },
    Kernel { metric: "rdma.segment.ns_per_pkt", run: segment_kernel },
];

/// Runs every kernel; `(metric, median ns per op)` in table order.
pub fn run_all() -> Vec<(&'static str, f64)> {
    KERNELS
        .iter()
        .map(|k| {
            let rounds: Vec<f64> = (0..ROUNDS).map(|_| (k.run)()).collect();
            (k.metric, median(&rounds))
        })
        .collect()
}

fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Hold model on the calendar queue at a fixed pending depth: pop the
/// earliest entry, insert one a fixed horizon ahead. One op = one pop +
/// one insert. Density is ~100 entries/µs at every depth, as in the
/// repo's `churn_steady` bench.
fn equeue_hold(depth: u64) -> f64 {
    const OPS: u64 = 200_000;
    let span = depth * 10;
    let mut q = EventQueue::<u64>::new();
    for i in 0..depth {
        q.insert((i * 7_919) % span, i, i);
    }
    let mut seq = depth;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (at, ..) = q.pop().expect("hold model never drains");
            seq += 1;
            q.insert(at + span, seq, seq);
        }
        black_box(&q);
    })
}

/// The same hold model on the timer wheel with 100 k armed timers, each
/// re-armed an RTO (200 µs) past its expiry.
fn twheel_hold() -> f64 {
    const OPS: u64 = 200_000;
    const ARMED: u64 = 100_000;
    const RTO: Nanos = 200_000;
    let mut w = TimerWheel::<u64>::new();
    for i in 0..ARMED {
        w.insert((i * 7_919) % RTO, i, i);
    }
    let mut seq = ARMED;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (at, ..) = w.pop().expect("hold model never drains");
            seq += 1;
            w.insert(at + RTO, seq, seq);
        }
        black_box(&w);
    })
}

fn data_header(src: NodeId, dst: NodeId, psn: u32) -> PacketHeader {
    PacketHeader {
        eth: EthHeader::new(MacAddr::from_host(src.0), MacAddr::from_host(dst.0)),
        ip: Ipv4Header::new(src.ip(), dst.ip(), DcpTag::Data, 1098),
        udp: UdpHeader::roce(0x1234, 1078),
        bth: Bth { opcode: RdmaOpcode::WriteMiddle, dest_qpn: 2, psn, ack_req: false },
        dcp: Some(DcpDataExt { msn: 0, ssn: None }),
        reth: Some(Reth { vaddr: 0xdead_b000, rkey: 9, dma_len: 1024 }),
        aeth: None,
    }
}

fn write_wqe(len: u64) -> SendWqe {
    SendWqe {
        wr_id: 1,
        op: WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
        local_addr: 0,
        len,
        msn: 0,
        ssn: None,
        signaled: true,
    }
}

/// A 1 KB DCP data packet as a sender would emit it.
fn data_packet(src: NodeId, dst: NodeId, psn: u32) -> Packet {
    Packet {
        uid: u64::from(psn),
        flow: FlowId(1),
        header: data_header(src, dst, psn),
        payload_len: 1024,
        desc: PktDesc::some(descriptor_for(&write_wqe(1 << 20), 1024, 1)),
        ext: PktExt::None,
        sent_at: 0,
        is_retx: false,
        retx_cause: RetxCause::Unknown,
        ingress: 0,
    }
}

/// Packet pool: insert a packet, take it back (LIFO slot reuse), with 1 k
/// packets resident. One op = insert + take.
fn pool_cycle() -> f64 {
    const OPS: u64 = 1_000_000;
    let mut pool = PacketPool::new();
    let pkt = data_packet(NodeId(0), NodeId(1), 7);
    let resident: Vec<_> = (0..1_000).map(|_| pool.insert(pkt.clone())).collect();
    let t = ns_per_op(OPS, || {
        for _ in 0..OPS {
            let r = pool.insert(black_box(pkt.clone()));
            black_box(pool.take(r));
        }
    });
    black_box(resident);
    t
}

/// Ready ring: 64 k slots, 1 % ready; one op = find the next ready slot,
/// clear it, mark the slot 100 ahead — the host scheduler's step.
fn ready_cycle() -> f64 {
    const OPS: u64 = 1_000_000;
    const SLOTS: usize = 1 << 16;
    let mut set = ReadySet::new();
    for i in (0..SLOTS).step_by(100) {
        set.insert(i);
    }
    let mut cursor = 0usize;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let i = set.next_from(cursor).or_else(|| set.next_from(0)).expect("a slot is ready");
            set.remove(i);
            set.insert((i + 100) % SLOTS);
            cursor = i + 1;
        }
        black_box(&set);
    })
}

/// Connection table: flow id → QP handle on a host with 50 k installed QPs.
fn host_qp_ref() -> f64 {
    const OPS: u64 = 1_000_000;
    const QPS: u32 = 50_000;
    let mut host = Host::new(NodeId(0));
    for f in 1..=QPS {
        let (tx, _) = endpoint_pair_opts(
            TransportKind::Dcp,
            CcKind::None,
            FlowId(f),
            NodeId(0),
            NodeId(1),
            RunOpts::default(),
        );
        host.install(FlowId(f), tx);
    }
    ns_per_op(OPS, || {
        let mut f = 1u32;
        for _ in 0..OPS {
            black_box(host.qp_ref(FlowId(f)));
            // A stride coprime to QPS visits the table out of order.
            f = (f + 7_919) % QPS + 1;
        }
    })
}

/// A bare two-port switch and what a `NodeCtx` borrows, for driving
/// `Switch::on_packet` / `on_port_free` without a simulator.
struct SwitchRig {
    sw: Switch,
    pool: PacketPool,
    rng: StdRng,
    out: Vec<(Nanos, Event)>,
    completions: VecDeque<dcp_netsim::Completion>,
}

const RIG_DST: NodeId = NodeId(9);

impl SwitchRig {
    fn new() -> Self {
        let cfg = dcp_core::dcp_switch_config(LoadBalance::Ecmp, 4);
        let mut sw = Switch::new(NodeId(100), cfg);
        sw.add_port(Link::new(NodeId(8), 0, 100.0, 1_000));
        let egress = sw.add_port(Link::new(RIG_DST, 0, 100.0, 1_000));
        sw.routing.add_route(RIG_DST, vec![egress]);
        SwitchRig {
            sw,
            pool: PacketPool::new(),
            rng: StdRng::seed_from_u64(1),
            out: Vec::new(),
            completions: VecDeque::new(),
        }
    }

    fn with_ctx<R>(&mut self, f: impl FnOnce(&mut Switch, &mut NodeCtx) -> R) -> R {
        let mut ctx = NodeCtx {
            now: 0,
            pool: &mut self.pool,
            rng: &mut self.rng,
            out: &mut self.out,
            completions: &mut self.completions,
            probe: None,
        };
        f(&mut self.sw, &mut ctx)
    }

    fn arrive(&mut self, psn: u32) {
        let pr = self.pool.insert(data_packet(NodeId(8), RIG_DST, psn));
        self.with_ctx(|sw, ctx| sw.on_packet(0, pr, ctx));
    }

    /// Frees the egress port once and releases whatever left the switch.
    fn serve(&mut self) {
        self.with_ctx(|sw, ctx| sw.on_port_free(1, ctx));
        self.release_departed();
    }

    fn release_departed(&mut self) {
        for (_, ev) in self.out.drain(..) {
            if let Event::PacketArrive { pkt, .. } = ev {
                self.pool.release(pkt);
            }
        }
    }
}

/// Forwarding fast path: a data packet arrives at an idle egress, is
/// routed, queued and put on the wire; then the port frees. One op = one
/// `on_packet` + one `on_port_free`.
fn switch_fwd() -> f64 {
    const OPS: u64 = 300_000;
    let mut rig = SwitchRig::new();
    ns_per_op(OPS, || {
        for i in 0..OPS {
            rig.arrive(i as u32);
            rig.serve();
        }
    })
}

/// Trim path: the egress data queue sits over the trim threshold and the
/// port is busy, so every arriving data packet is cut to its header and
/// admitted to the control queue. Only the arrivals are timed; between
/// batches the control queue is drained and the data queue topped up.
fn switch_trim() -> f64 {
    const BATCH: u64 = 2_048;
    const BATCHES: u64 = 100;
    let mut rig = SwitchRig::new();
    let threshold = rig.sw.cfg.data_q_threshold;
    let mut psn = 0u32;
    let mut timed_ns = 0u128;
    for _ in 0..BATCHES {
        while rig.sw.ports[1].data_queue_bytes() <= threshold {
            rig.arrive(psn);
            psn += 1;
        }
        rig.release_departed();
        let trims_before = rig.sw.stats.trims;
        let t0 = Instant::now();
        for _ in 0..BATCH {
            rig.arrive(psn);
            psn += 1;
        }
        timed_ns += t0.elapsed().as_nanos();
        assert_eq!(rig.sw.stats.trims - trims_before, BATCH, "every timed arrival is trimmed");
        while rig.sw.ports[1].ctrl_queue_bytes() > 0 {
            rig.serve();
        }
    }
    timed_ns as f64 / (BATCH * BATCHES) as f64
}

/// DCP receiver tracking: one counter op per packet of 64-packet messages.
fn core_tracking() -> f64 {
    const OPS: u64 = 2_000_000;
    let mut t = MsgTracker::new(64);
    let (mut msn, mut i) = (0u32, 0u32);
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let last = i == 63;
            black_box(t.on_packet(black_box(msn), 0, last, i, 64 * 1024, true, 0));
            if last {
                t.drain_completed();
                msn += 1;
                i = 0;
            } else {
                i += 1;
            }
        }
    })
}

/// A sender and a receiver back to back: whatever one emits is handed to
/// the other at once, timers fire when the clock (80 ns per data packet, a
/// 100 G wire) reaches them. Returns nanoseconds per first-copy data
/// packet delivered. With `ho_every` = n, every n-th DCP data packet is cut
/// to a header-only notification on the way, as a trimming switch would.
fn endpoint_loop(kind: TransportKind, ho_every: u32) -> f64 {
    const MSGS: u64 = 256;
    const MSG_BYTES: u64 = 64 << 10;
    let (a, b) = (NodeId(0), NodeId(1));
    let (mut tx, mut rx) =
        endpoint_pair_opts(kind, CcKind::None, FlowId(1), a, b, RunOpts::default());
    for m in 0..MSGS {
        tx.post(m, WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 }, MSG_BYTES);
    }
    let mut env = LoopEnv {
        now: 0,
        pool: PacketPool::new(),
        rng: StdRng::seed_from_u64(1),
        completions: Vec::new(),
        requested: Vec::new(),
        timers: BinaryHeap::new(),
        armed: 0,
    };
    let mut sent = 0u32;
    let t0 = Instant::now();
    let mut spins = 0u64;
    while !tx.is_done() {
        spins += 1;
        assert!(spins < 50_000_000, "{kind:?} loop does not converge");
        let mut progressed = false;
        let pulled = tx.pull(&mut env.ctx());
        env.arm(0);
        if let Some(pr) = pulled {
            progressed = true;
            if env.pool[pr].is_data() {
                env.now += 80;
                sent += 1;
                if ho_every > 0 && sent.is_multiple_of(ho_every) {
                    let p = &mut env.pool[pr];
                    p.header = p.header.trim_to_header_only();
                    p.payload_len = 0;
                    p.desc = PktDesc::NONE;
                }
            }
            rx.on_packet(pr, &mut env.ctx());
            env.arm(1);
        }
        loop {
            let pulled = rx.pull(&mut env.ctx());
            env.arm(1);
            let Some(pr) = pulled else { break };
            progressed = true;
            tx.on_packet(pr, &mut env.ctx());
            env.arm(0);
        }
        if !progressed {
            // Both sides wait on a timer: jump to the earliest one.
            let Some(&Reverse((at, ..))) = env.timers.peek() else {
                panic!("{kind:?} loop stalled with no timer armed");
            };
            env.now = env.now.max(at);
        }
        while let Some(&Reverse((at, _, owner, token))) = env.timers.peek() {
            if at > env.now {
                break;
            }
            env.timers.pop();
            let ep: &mut Box<dyn Endpoint> = if owner == 0 { &mut tx } else { &mut rx };
            ep.on_timer(token, &mut env.ctx());
            env.arm(owner);
        }
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    assert_eq!(rx.stats().goodput_bytes, MSGS * MSG_BYTES, "{kind:?} loop delivered every byte");
    elapsed / (MSGS * MSG_BYTES / 1024) as f64
}

/// What an `EndpointCtx` borrows, plus the loop's own timer queue.
struct LoopEnv {
    now: Nanos,
    pool: PacketPool,
    rng: StdRng,
    completions: Vec<dcp_netsim::Completion>,
    /// Timer requests of the call just made, not yet queued.
    requested: Vec<(Nanos, u64)>,
    /// `(fire_at, arm order, owner, token)`; owner 0 is the sender.
    timers: BinaryHeap<Reverse<(Nanos, u64, u8, u64)>>,
    armed: u64,
}

impl LoopEnv {
    fn ctx(&mut self) -> EndpointCtx<'_> {
        EndpointCtx {
            now: self.now,
            pool: &mut self.pool,
            timers: &mut self.requested,
            completions: &mut self.completions,
            rng: &mut self.rng,
            probe: None,
        }
    }

    /// Queues the timers the last call requested, on behalf of `owner`.
    fn arm(&mut self, owner: u8) {
        for (at, token) in self.requested.drain(..) {
            self.timers.push(Reverse((at, self.armed, owner, token)));
            self.armed += 1;
        }
    }
}

/// RS(8, 2) over 1 KB shards: encode a generation, or reconstruct it with
/// two data shards erased. Nanoseconds per KB of data payload.
fn ec_codec(decode: bool) -> f64 {
    const GENS: u64 = 2_000;
    let codec = RsCodec::new(8, 2);
    let data: Vec<Vec<u8>> = (0..8u8).map(|s| (0..1024).map(|i| (i as u8) ^ s).collect()).collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let repair = codec.encode(&refs);
    let per_gen = if decode {
        let full: Vec<Option<Vec<u8>>> = data.iter().chain(&repair).cloned().map(Some).collect();
        ns_per_op(GENS, || {
            for _ in 0..GENS {
                let mut shards = full.clone();
                shards[1] = None;
                shards[5] = None;
                codec.reconstruct(&mut shards).expect("two erasures are within budget");
                black_box(&shards);
            }
        })
    } else {
        ns_per_op(GENS, || {
            for _ in 0..GENS {
                black_box(codec.encode(black_box(&refs)));
            }
        })
    };
    per_gen / 8.0
}

/// One Gilbert–Elliott roll of the `fabric_bursty` preset.
fn faults_ge_roll() -> f64 {
    const OPS: u64 = 2_000_000;
    let mut link = LinkLoss::new(LossModel::fabric_bursty(), 0xfa11);
    let mut lost = 0u64;
    let t = ns_per_op(OPS, || {
        for _ in 0..OPS {
            lost += u64::from(link.roll(black_box(1098)));
        }
    });
    black_box(lost);
    t
}

/// One `Probe::record` through a trait object into the cheapest probe.
fn probe_dispatch() -> f64 {
    const OPS: u64 = 4_000_000;
    let mut probe: Box<dyn Probe> = Box::new(CountingProbe::default());
    let ev = ProbeEvent::Enqueue {
        node: 3,
        port: 1,
        queue: QueueClass::Data,
        flow: 9,
        psn: 77,
        bytes: 1098,
    };
    let t = ns_per_op(OPS, || {
        for i in 0..OPS {
            probe.record(i, black_box(&ev));
        }
    });
    black_box(probe.dump());
    t
}

fn hist_record() -> f64 {
    const OPS: u64 = 4_000_000;
    let mut h = LogHistogram::default();
    let t = ns_per_op(OPS, || {
        for i in 0..OPS {
            h.record(black_box(1_000 + (i * 7_919) % 1_000_000));
        }
    });
    black_box(h.count());
    t
}

/// The delivery oracle's probe: one post and one delivery per message.
/// One op = one record.
fn oracle_record() -> f64 {
    const MSGS: u64 = 200_000;
    let oracle = DeliveryOracle::new();
    let mut probe = oracle.probe();
    let t = ns_per_op(2 * MSGS, || {
        for m in 0..MSGS {
            probe.record(m, &ProbeEvent::MsgPosted { node: 0, flow: 1, wr_id: m, bytes: 4096 });
            probe.record(m, &ProbeEvent::Delivery { node: 1, flow: 1, wr_id: m, bytes: 4096 });
        }
    });
    assert!(oracle.final_check().is_ok());
    t
}

enum WireOp {
    Encode,
    Decode,
    Trim,
}

/// The wire codec on a full DCP data header. Not on the simulator's packet
/// path (packets are pooled structs), so no workload should move with it.
fn wire_kernel(op: WireOp) -> f64 {
    const OPS: u64 = 1_000_000;
    let header = data_header(NodeId(1), NodeId(2), 1234);
    let bytes = wire::encode(&header);
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            match op {
                WireOp::Encode => {
                    black_box(wire::encode(black_box(&header)));
                }
                WireOp::Decode => {
                    black_box(wire::decode(black_box(&bytes)).expect("own encoding decodes"));
                }
                WireOp::Trim => {
                    black_box(black_box(&header).trim_to_header_only());
                }
            }
        }
    })
}

/// Segmentation: the descriptor of each packet of a 1 MB Write.
fn segment_kernel() -> f64 {
    const ROUNDS_PER_RUN: u64 = 1_000;
    let wqe = write_wqe(1 << 20);
    let pkts = u64::from(wqe.packet_count(1024));
    ns_per_op(ROUNDS_PER_RUN * pkts, || {
        for _ in 0..ROUNDS_PER_RUN {
            for i in 0..pkts as u32 {
                black_box(descriptor_for(black_box(&wqe), 1024, i));
            }
        }
    })
}
