//! What the connection plane costs a host in heap: the §4.3 / Table 4
//! claim that DCP's per-QP state stays GBN-sized, and the allocation-free
//! connection churn a million-QP host needs (slab slots, flow ids, timer
//! wheel slots and endpoint structures are all reused) — and that the
//! `dcp-scope` capture's owners report the heap they hold. Measured with
//! a counting `#[global_allocator]` local to this test binary; the
//! counters are per thread, so the harness's other test threads do not
//! leak into a measurement.

use dcp_core::dcp_switch_config;
use dcp_netsim::packet::{FlowId, NodeId};
use dcp_netsim::time::{Nanos, MS, SEC, US};
use dcp_netsim::{
    topology, Completion, CompletionKind, Endpoint, Event, EventQueue, LoadBalance, QpRef,
    Simulator, Topology,
};
use dcp_rdma::qp::WorkReqOp;
use dcp_scope::{ScopeProbe, SloBurnMonitor};
use dcp_telemetry::{Probe, ProbeEvent};
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Books `calls` allocator calls and a net `bytes` change against the
/// calling thread. `try_with`: the allocator also runs while a thread's
/// locals are being torn down.
fn book(calls: u64, bytes: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + calls));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// This thread's `alloc` + `realloc` calls so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Net heap bytes this thread currently holds.
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

const WRITE: WorkReqOp = WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 };

/// Two switches, `hosts_per_switch` hosts each, one cross link.
fn two_switch(sim: &mut Simulator, hosts_per_switch: usize, cross_gbps: f64) -> Topology {
    let cfg = dcp_switch_config(LoadBalance::Ecmp, hosts_per_switch + 2);
    topology::two_switch_testbed(sim, cfg, hosts_per_switch, 100.0, &[cross_gbps], US, US)
}

/// Installs `n` connections between the testbed's two hosts.
fn install_qps(sim: &mut Simulator, topo: &Topology, kind: TransportKind, n: usize) {
    let (a, b) = (topo.hosts[0], topo.hosts[1]);
    for i in 0..n {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) = endpoint_pair(kind, CcKind::None, flow, a, b);
        sim.install_endpoint(a, flow, tx);
        sim.install_endpoint(b, flow, rx);
    }
}

/// Poisson flow arrivals on the 8-host testbed, each flow one 16 KB write
/// through install → post → complete → remove → recycle, endpoints reused
/// through FIFO pools after a grace period, on `shards` shards driven by one
/// worker. Returns the allocator calls and engine events of the steady
/// window (past every warm-up, up to the last retirement).
fn churn(target: u64, shards: usize) -> (u64, u64) {
    const MSG: u64 = 16 << 10;
    /// Removal happens this long after both completions — covers any
    /// control packet still on the wire (~3× the testbed RTT).
    const GRACE: Nanos = 20 * US;
    /// Mean Poisson inter-arrival: 2.5 flows/µs, ~40 GB/s of offered 16 KB
    /// flows, well under the 8×100 G host capacity.
    const MEAN_GAP_NS: f64 = 400.0;
    /// Flow ids in rotation — far above the ~100-flow steady concurrency
    /// and the 1024-flow prewarm burst, so the FIFO never runs dry.
    const IDS: u32 = 8192;

    struct LiveFlow {
        src: NodeId,
        dst: NodeId,
        qp_tx: QpRef,
        qp_rx: QpRef,
        /// bit 0: send completion seen, bit 1: recv completion seen.
        done: u8,
    }

    let mut sim = Simulator::new(29);
    // The shard count is the caller's, never `DCP_SHARDS`'. One worker:
    // with two, every parallel window session spawns its threads, which
    // allocates (3 848 times over the steady window) — a cost of the
    // session model, not of the connection plane or the engine's
    // structures.
    sim.disable_auto_partition();
    let topo = two_switch(&mut sim, 4, 400.0);
    if shards > 1 {
        assert!(sim.partition(&topo, shards), "the testbed must split into {shards} shards");
        sim.set_workers(1);
    }
    let n_hosts = topo.hosts.len();
    let mut free_ids: VecDeque<u32> = (1..=IDS).collect();
    let mut live: Vec<Option<LiveFlow>> = (0..=IDS).map(|_| None).collect();
    let mut tx_pool: VecDeque<Box<dyn Endpoint>> = VecDeque::new();
    let mut rx_pool: VecDeque<Box<dyn Endpoint>> = VecDeque::new();

    // Burst prewarm: 1024 simultaneous flows run to completion drive every
    // capacity-retaining structure (slot slabs, ready bitmaps, switch
    // queues, packet pool, event-wheel node arena) past any level
    // the Poisson phase reaches, and leave 1024 endpoint pairs in the pools
    // (steady concurrency is ~100 flows).
    {
        let burst = 1024usize;
        let mut handles = Vec::with_capacity(burst);
        for i in 0..burst {
            let id = free_ids.pop_front().expect("burst within id budget");
            let (src, dst) = (topo.hosts[i % n_hosts], topo.hosts[(i + 1) % n_hosts]);
            let flow = FlowId(id);
            let (tx, rx) = endpoint_pair(TransportKind::Dcp, CcKind::None, flow, src, dst);
            let qt = sim.install_endpoint(src, flow, tx);
            let qr = sim.install_endpoint(dst, flow, rx);
            sim.post(src, flow, 0, WRITE, MSG);
            handles.push((id, src, qt, dst, qr));
        }
        assert!(sim.run_to_quiescence(sim.now() + 60 * SEC), "burst prewarm must drain");
        sim.for_each_completion(|_| {});
        for (id, src, qt, dst, qr) in handles {
            tx_pool.push_back(sim.remove_endpoint(src, qt).expect("burst sender live"));
            rx_pool.push_back(sim.remove_endpoint(dst, qr).expect("burst receiver live"));
            free_ids.push_back(id);
        }
    }
    // Fault in every (host, flow-page) combination: the id FIFO eventually
    // lands every id range on every host, and each first touch would
    // otherwise allocate a page mid-run.
    {
        let (mut ep, _) = endpoint_pair(
            TransportKind::Dcp,
            CcKind::None,
            FlowId(1),
            topo.hosts[0],
            topo.hosts[1],
        );
        for &h in &topo.hosts {
            for id in (1..=IDS).step_by(64) {
                assert!(ep.recycle(FlowId(id), h, topo.hosts[0]), "prewarm recycle");
                let qp = sim.install_endpoint(h, FlowId(id), ep);
                ep = sim.remove_endpoint(h, qp).expect("prewarm handle live");
            }
        }
    }

    let mut retire_at: VecDeque<(Nanos, u32)> = VecDeque::with_capacity(IDS as usize);
    let mut comps: Vec<Completion> = Vec::with_capacity(4096);
    let mut rng = StdRng::seed_from_u64(31);
    let (mut spawned, mut removed) = (0u64, 0u64);
    let mut next_arrival: Nanos = 0;
    let mut pair_ix = 0usize;
    let mut warm: Option<(u64, u64)> = None;
    // Steady state begins once every flow id has been cycled (the id FIFO
    // touches all flow pages on its first lap) and sim time has passed the
    // structural warm-ups: the log-decaying Poisson high-water growth of
    // queues, scratch buffers and the event wheel's node arena (quiet by
    // ~90 ms at this load).
    let warm_after = u64::from(IDS) + target / 5;

    loop {
        if warm.is_none() && removed >= warm_after && sim.now() >= 90 * MS {
            warm = Some((allocations(), sim.events_processed()));
        }
        let next_removal = retire_at.front().map_or(Nanos::MAX, |&(t, _)| t);
        let arrivals_open = spawned < target;
        let t_next = if arrivals_open { next_arrival.min(next_removal) } else { next_removal };
        if t_next == Nanos::MAX {
            break;
        }
        sim.run_until(t_next);

        sim.drain_completions_into(&mut comps);
        for c in &comps {
            let Some(f) = live[c.flow.0 as usize].as_mut() else { continue };
            f.done |= match c.kind {
                CompletionKind::SendComplete => 1,
                CompletionKind::RecvComplete => 2,
            };
            if f.done == 3 {
                retire_at.push_back((c.at + GRACE, c.flow.0));
            }
        }

        while let Some(&(t, id)) = retire_at.front() {
            if t > sim.now() {
                break;
            }
            retire_at.pop_front();
            let f = live[id as usize].take().expect("retiring a live flow");
            tx_pool.push_back(sim.remove_endpoint(f.src, f.qp_tx).expect("sender handle live"));
            rx_pool.push_back(sim.remove_endpoint(f.dst, f.qp_rx).expect("receiver handle live"));
            free_ids.push_back(id);
            removed += 1;
        }

        while next_arrival <= sim.now() && spawned < target {
            let id = free_ids.pop_front().expect("a free flow id");
            // Rotation over the 56 ordered pairs of distinct hosts: the
            // offset `1 + pair_ix / n_hosts` runs 1..=7.
            let src = topo.hosts[pair_ix % n_hosts];
            let dst = topo.hosts[(pair_ix + 1 + pair_ix / n_hosts) % n_hosts];
            pair_ix = (pair_ix + 1) % (n_hosts * (n_hosts - 1));
            let flow = FlowId(id);
            // Every lifetime after the burst runs on a recycled pair.
            let mut tx = tx_pool.pop_front().expect("a pooled sender");
            let mut rx = rx_pool.pop_front().expect("a pooled receiver");
            assert!(tx.recycle(flow, src, dst), "sender recycles in place");
            assert!(rx.recycle(flow, dst, src), "receiver recycles in place");
            let qp_tx = sim.install_endpoint(src, flow, tx);
            let qp_rx = sim.install_endpoint(dst, flow, rx);
            live[id as usize] = Some(LiveFlow { src, dst, qp_tx, qp_rx, done: 0 });
            sim.post(src, flow, id as u64, WRITE, MSG);
            spawned += 1;
            let u: f64 = rng.random::<f64>().max(1e-12);
            next_arrival = sim.now() + ((MEAN_GAP_NS * -u.ln()) as Nanos).max(1);
        }
    }
    assert!(sim.run_to_quiescence(sim.now() + 60 * SEC), "churn must drain");
    // Snapshot before the conservation pass, which allocates.
    let (a_end, ev_end) = (allocations(), sim.events_processed());
    assert_eq!((spawned, removed), (target, target), "every flow lifetime ran and retired");
    let c = sim.check_conservation(true);
    assert!(c.is_ok(), "churn conservation violated: {:?}", c.violations);
    let (a_warm, ev_warm) = warm.expect("the run reaches its steady window");
    (a_end - a_warm, ev_end - ev_warm)
}

/// Past warm-up, a DCP host under flow churn performs zero heap
/// allocations: installs reuse slab slots, removals hand endpoints back,
/// timers reuse wheel slots. Deterministic seed, so the zero is exact.
#[test]
fn dcp_flow_churn_allocates_nothing_at_steady_state() {
    let (allocs, events) = churn(300_000, 1);
    assert!(events > 1_000_000, "steady window too short to mean anything: {events} events");
    assert_eq!(allocs, 0, "{allocs} allocations over {events} steady-state events");
}

/// The same zero on two shards (one worker): each shard's event wheel
/// keeps its slot arrays from construction and recycles popped nodes
/// through its free list, so its arena stops growing once the pending
/// count has peaked.
#[test]
fn dcp_flow_churn_allocates_nothing_at_steady_state_on_two_shards() {
    let (allocs, events) = churn(300_000, 2);
    assert!(events > 1_000_000, "steady window too short to mean anything: {events} events");
    assert_eq!(allocs, 0, "{allocs} allocations over {events} steady-state events");
}

/// Resident heap per installed connection (tx + rx endpoint plus the
/// host's slab slot, flow page and ready bit) at 100 k QPs: DCP's counting
/// tracker and RetransQ head keep it within 1.5× of GBN's, where IRN-style
/// designs must provision BDP bitmaps (the `table4_resources` row itemizes
/// those bytes).
#[test]
fn dcp_resident_bytes_per_qp_stay_gbn_sized() {
    let n = 100_000usize;
    let bytes_per_qp = |kind| {
        let mut sim = Simulator::new(11);
        let topo = two_switch(&mut sim, 1, 100.0);
        let before = live_bytes();
        install_qps(&mut sim, &topo, kind, n);
        assert_eq!(sim.host(topo.hosts[0]).installed(), n);
        (live_bytes() - before) as f64 / n as f64
    };
    let (gbn, dcp) = (bytes_per_qp(TransportKind::Gbn), bytes_per_qp(TransportKind::Dcp));
    assert!(gbn > 0.0, "the allocator hook must see the installs");
    assert!(dcp < gbn * 1.5, "DCP resident bytes/QP ({dcp:.0}) must stay near GBN's ({gbn:.0})");
}

/// The ready-ring scheduler's work tracks the *active* QPs, not the
/// installed ones: with 100 k installed and 100 / 1 000 posted one 8 KB
/// message each, the drain takes exactly 55 events per active QP.
#[test]
fn drain_cost_follows_active_qps_not_installed() {
    let n = 100_000usize;
    for (active, events) in [(100usize, 5_500u64), (1_000, 55_000)] {
        let mut sim = Simulator::new(13);
        let topo = two_switch(&mut sim, 1, 100.0);
        install_qps(&mut sim, &topo, TransportKind::Dcp, n);
        // Spread the active QPs across the slab so the ready ring, not slot
        // adjacency, does the work.
        for i in 0..active {
            let flow = FlowId((i * (n / active)) as u32 + 1);
            sim.post(topo.hosts[0], flow, i as u64, WRITE, 8 << 10);
        }
        assert!(sim.run_to_quiescence(60 * SEC), "scheduler point must drain");
        assert_eq!(sim.events_processed(), events, "{active} active of {n} installed");
    }
}

/// A trimming incast, captured: eight DCP senders behind one switch each
/// write 256 KB to one host behind the other, through a single 100 G
/// cross link that trims most of what it queues.
fn trimming_incast_capture() -> Vec<(u64, ProbeEvent)> {
    let mut sim = Simulator::new(17);
    sim.disable_auto_partition();
    sim.set_probe(Box::new(Vec::<(u64, ProbeEvent)>::new()));
    let topo = two_switch(&mut sim, 8, 100.0);
    let victim = topo.hosts[8];
    for i in 0..8 {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) = endpoint_pair(TransportKind::Dcp, CcKind::None, flow, topo.hosts[i], victim);
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(victim, flow, rx);
        sim.post(topo.hosts[i], flow, 0, WRITE, 256 << 10);
    }
    assert!(sim.run_to_quiescence(SEC), "the incast must drain");
    let probe: &mut dyn Any = sim.probe_mut().expect("capture installed");
    std::mem::take(probe.downcast_mut::<Vec<(u64, ProbeEvent)>>().expect("the Vec capture"))
}

/// `ScopeProbe::heap_bytes` accounts for what the capture holds: replayed
/// on this thread, the span store and monitors report within 10 % of the
/// allocator's live-byte delta. An owner that stops reporting, or a
/// store that grows past its own account, fails here.
#[test]
fn scope_probe_heap_bytes_match_the_allocator() {
    let log = trimming_incast_capture();
    let trims = log.iter().filter(|(_, ev)| matches!(ev, ProbeEvent::Trim { .. })).count();
    assert!(trims > 1_000, "the incast must trim ({trims} trims)");
    let before = live_bytes();
    let mut scope = ScopeProbe::new();
    for (at, ev) in &log {
        scope.record(*at, ev);
    }
    let live = (live_bytes() - before) as f64;
    let reported = scope.heap_bytes() as f64;
    assert!(
        (reported - live).abs() <= 0.1 * live,
        "ScopeProbe reports {reported} heap bytes, the allocator holds {live}"
    );
}

/// `EventQueue::heap_bytes` accounts for what a shard's event wheel holds:
/// after a churn of link-hop events and far-future timers, with the
/// pending count grown to ~50 k and then drained to a steady ~10 k, the
/// node arena and slot arrays report within 10 % of the allocator's
/// live-byte delta.
#[test]
fn event_wheel_heap_bytes_match_the_allocator() {
    let before = live_bytes();
    let mut q: EventQueue<Event> = EventQueue::new();
    let mut rng = StdRng::seed_from_u64(5);
    let (mut seq, mut now) = (0u64, 0);
    for step in 0..400_000u64 {
        let target = if step < 100_000 { 50_000 } else { 10_000 };
        if q.len() < target {
            seq += 1;
            let ahead = if rng.random_bool(0.9) {
                rng.random_range(50..2_000)
            } else {
                rng.random_range(MS..SEC)
            };
            let ev = Event::EndpointTimer { node: NodeId(1), slot: 0, gen: 0, token: seq };
            q.insert(now + ahead, seq, ev);
        } else {
            now = q.pop().expect("the churn keeps entries pending").0;
        }
    }
    assert!(q.peak_len() >= 50_000, "the churn must reach its peak ({})", q.peak_len());
    let live = (live_bytes() - before) as f64;
    let reported = q.heap_bytes() as f64;
    assert!(
        (reported - live).abs() <= 0.1 * live,
        "the event wheel reports {reported} heap bytes, the allocator holds {live}"
    );
}

/// Per-flow SLO histograms hold only their occupied buckets: a thousand
/// flows delivering one message each cost the monitor under 256 KB (a
/// dense 6-bit histogram is 30 KB a flow).
#[test]
fn slo_burn_monitor_holds_occupied_buckets_only() {
    let before = live_bytes();
    let mut slo = SloBurnMonitor::default();
    for flow in 0..1_000u32 {
        let at = u64::from(flow) * 1_000;
        slo.record(at, &ProbeEvent::MsgPosted { node: 0, flow, wr_id: 0, bytes: 4096 });
        let latency = 2_000 + u64::from(flow) * 37;
        slo.record(at + latency, &ProbeEvent::Delivery { node: 1, flow, wr_id: 0, bytes: 4096 });
    }
    assert_eq!(slo.delivered, 1_000);
    let cost = live_bytes() - before;
    assert!(cost < 256 << 10, "1 000 single-delivery flows cost the monitor {cost} bytes");
    let reported = slo.heap_bytes() as f64;
    assert!(
        (reported - cost as f64).abs() <= 0.1 * cost as f64,
        "the monitor reports {reported} heap bytes, the allocator holds {cost}"
    );
}
