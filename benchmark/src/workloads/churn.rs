//! `churn_qp`: Poisson flow lifetimes through install → post → complete →
//! grace → remove → recycle on an 8-host testbed.
//!
//! The streaming workloads install a QP once and push bytes through it;
//! this one uses the host layer the opposite way — each 16 KB flow lives
//! for microseconds, so the connection-table slab, the timer wheel and
//! endpoint `recycle` dominate and the switch queues are nearly idle. The
//! driver is the benchmark's own, modelled on `perf_events::churn`. Past
//! warm-up a flow lifetime must allocate nothing; when the caller has the
//! counting allocator on, the rep reports the steady-state window's count.
//!
//! Open loop in simulated time: arrivals follow the Poisson schedule
//! (400 ns mean gap); only when all flow ids are live is an arrival put
//! off to the next retirement.

use super::{scaled, sub_seed, Extras, Mode, Op, PairFactory, Rep, RunClock, SubRun, Timed};
use crate::alloc;
use crate::trace::{self, Span};
use dcp_core::dcp_switch_config;
use dcp_netsim::packet::{FlowId, NodeId};
use dcp_netsim::time::{Nanos, MS, SEC, US};
use dcp_netsim::{
    topology, Completion, CompletionKind, Endpoint, LoadBalance, QpRef, Simulator, Topology,
};
use dcp_rdma::qp::WorkReqOp;
use dcp_workloads::{CcKind, IdealFct, RunOpts, TransportKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::Instant;

const LIFETIMES: usize = 250_000;
const MSG: u64 = 16 << 10;
/// Removal happens this long after both completions: covers any control
/// packet still on the wire (~3× the testbed RTT).
const GRACE: Nanos = 20 * US;
const MEAN_GAP_NS: f64 = 400.0;
const MAX_LIVE: usize = 4096;
const ID_CAP: usize = MAX_LIVE * 2;
/// Simulated time by which the timer wheel's level-2 cascade and the
/// Poisson high-water growth of queues have happened (`perf_events`).
const STEADY_AFTER: Nanos = 90 * MS;
const WRITE: WorkReqOp = WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 };

/// The arrival schedule: gap to the next arrival and the host pair.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub gap: Nanos,
    pub src: usize,
    pub dst: usize,
}

/// Poisson gaps from the seed; the host pairs rotate through all 56
/// ordered pairs from a seed-chosen start (`perf_events`' rotation, the
/// regime its zero-allocation claim was made in).
pub fn generate(seed: u64, scale: f64, n_hosts: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let pairs = n_hosts * (n_hosts - 1);
    let first = rng.random_range(0..pairs);
    (0..scaled(LIFETIMES, scale, 2000))
        .map(|i| {
            let u: f64 = rng.random::<f64>().max(1e-12);
            let p = (first + i) % pairs;
            let src = p % n_hosts;
            let dst = (src + 1 + p / n_hosts) % n_hosts;
            Arrival { gap: ((MEAN_GAP_NS * -u.ln()) as Nanos).max(1), src, dst }
        })
        .collect()
}

struct LiveFlow {
    src: NodeId,
    dst: NodeId,
    qp_tx: QpRef,
    qp_rx: QpRef,
    /// bit 0: send completion seen, bit 1: recv completion seen.
    done: u8,
    lifetime: usize,
    posted_at: Nanos,
}

type Pool = VecDeque<Box<dyn Endpoint>>;

/// Drives every capacity-retaining structure past the level the Poisson
/// phase reaches, before the timed region: a 1024-flow burst (slot slabs,
/// ready bitmaps, switch queues, packet pool, calendar buckets, timer
/// wheel; leaves 1024 endpoint pairs in the recycling pools), then one
/// install/remove per (host, flow-id page).
fn prewarm(
    sim: &mut Simulator,
    topo: &Topology,
    factory: &PairFactory,
    free_ids: &mut VecDeque<u32>,
    tx_pool: &mut Pool,
    rx_pool: &mut Pool,
) {
    let n_hosts = topo.hosts.len();
    let mut handles = Vec::with_capacity(1024);
    for i in 0..1024usize {
        let id = free_ids.pop_front().expect("burst within id budget");
        let (src, dst) = (topo.hosts[i % n_hosts], topo.hosts[(i + 1) % n_hosts]);
        let flow = FlowId(id);
        let (tx, rx) = factory.pair(flow, src, dst);
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
    let (mut ep, _) = factory.pair(FlowId(1), topo.hosts[0], topo.hosts[1]);
    for &h in &topo.hosts {
        for id in (1..=ID_CAP as u32).step_by(64) {
            assert!(ep.recycle(FlowId(id), h, topo.hosts[0]), "prewarm recycle");
            let qp = sim.install_endpoint(h, FlowId(id), ep);
            ep = sim.remove_endpoint(h, qp).expect("prewarm handle live");
        }
    }
}

pub fn run(seed: u64, scale: f64, mode: Mode) -> Rep {
    let _rep = trace::span(Span::Rep);
    let setup_started = Instant::now();
    let setup_span = trace::span(Span::Setup);
    let fan = 4usize; // 8 hosts across two switches
    let mut sim = Simulator::new(sub_seed(seed, 1));
    sim.disable_auto_partition();
    let cfg = dcp_switch_config(LoadBalance::Ecmp, fan + 2);
    let topo = topology::two_switch_testbed(&mut sim, cfg, fan, 100.0, &[400.0], US, US);
    let arrivals = {
        let _g = trace::span(Span::WorkloadsGen);
        generate(seed, scale, topo.hosts.len())
    };
    let target = arrivals.len();
    let factory =
        PairFactory { kind: TransportKind::Dcp, cc: CcKind::None, opts: RunOpts::default(), mode };
    let mut free_ids: VecDeque<u32> = (1..=ID_CAP as u32).collect();
    let mut live: Vec<Option<LiveFlow>> = (0..=ID_CAP).map(|_| None).collect();
    let (mut tx_pool, mut rx_pool) = (Pool::with_capacity(MAX_LIVE), Pool::with_capacity(MAX_LIVE));
    prewarm(&mut sim, &topo, &factory, &mut free_ids, &mut tx_pool, &mut rx_pool);
    let mut retire_at: VecDeque<(Nanos, u32)> = VecDeque::with_capacity(MAX_LIVE);
    let mut comps: Vec<Completion> = Vec::with_capacity(4096);
    let mut fcts: Vec<Op> = vec![(MSG, None); target];
    let t_origin = sim.now();
    drop(setup_span);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let (mut spawned, mut removed, mut spurious) = (0usize, 0usize, 0usize);
    let mut next_arrival: Nanos = t_origin;
    // Steady state: every flow id cycled once and the first fifth of the
    // run has grown pools and queues to their Poisson high-water marks,
    // and simulated time is past every structural warm-up.
    let warm_after = ID_CAP + target / 5;
    let mut steady_from: Option<(u64, u64)> = None;

    let run_started = RunClock::start();
    let run_span = trace::span(Span::Run);
    loop {
        if steady_from.is_none() && removed >= warm_after && sim.now() - t_origin >= STEADY_AFTER {
            steady_from = Some((alloc::allocations(), sim.events_processed()));
        }
        let next_removal = retire_at.front().map_or(Nanos::MAX, |&(t, _)| t);
        let t_next = if spawned < target { next_arrival.min(next_removal) } else { next_removal };
        if t_next == Nanos::MAX {
            break;
        }
        {
            let _g = trace::span(Span::NetsimRun);
            sim.run_until(t_next);
        }
        sim.drain_completions_into(&mut comps);
        for c in &comps {
            // The delivery oracle keys messages by (flow, wr_id) and flow
            // ids are recycled here, so exactly-once is checked in place:
            // one completion of each kind per lifetime, of the right size.
            let bit = match c.kind {
                CompletionKind::SendComplete => 1,
                CompletionKind::RecvComplete => 2,
            };
            let Some(f) = live[c.flow.0 as usize].as_mut().filter(|f| f.done & bit == 0) else {
                spurious += 1;
                continue;
            };
            f.done |= bit;
            if c.kind == CompletionKind::RecvComplete {
                if c.bytes != MSG {
                    spurious += 1;
                }
                fcts[f.lifetime].1 = Some(c.at - f.posted_at);
            }
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
            let _g = trace::span(Span::NetsimRemove);
            tx_pool.push_back(sim.remove_endpoint(f.src, f.qp_tx).expect("sender handle live"));
            rx_pool.push_back(sim.remove_endpoint(f.dst, f.qp_rx).expect("receiver handle live"));
            free_ids.push_back(id);
            removed += 1;
        }
        while spawned < target && next_arrival <= sim.now() {
            let Some(id) = free_ids.pop_front() else {
                // Concurrency cap: put the arrival off to the next retire.
                let next_retire = retire_at.front().map_or(sim.now() + GRACE, |&(t, _)| t);
                next_arrival = next_retire.max(sim.now() + 1);
                break;
            };
            let a = arrivals[spawned];
            let (src, dst) = (topo.hosts[a.src], topo.hosts[a.dst]);
            let flow = FlowId(id);
            let (tx, rx) = match (tx_pool.pop_front(), rx_pool.pop_front()) {
                (Some(mut tx), Some(mut rx)) => {
                    assert!(tx.recycle(flow, src, dst), "sender recycles in place");
                    assert!(rx.recycle(flow, dst, src), "receiver recycles in place");
                    (tx, rx)
                }
                _ => factory.pair(flow, src, dst),
            };
            let (qp_tx, qp_rx) = {
                let _g = trace::span(Span::NetsimInstall);
                (sim.install_endpoint(src, flow, tx), sim.install_endpoint(dst, flow, rx))
            };
            live[id as usize] = Some(LiveFlow {
                src,
                dst,
                qp_tx,
                qp_rx,
                done: 0,
                lifetime: spawned,
                posted_at: sim.now(),
            });
            {
                let _g = trace::span(Span::NetsimPost);
                sim.post(src, flow, 0, WRITE, MSG);
            }
            spawned += 1;
            next_arrival = sim.now() + a.gap;
        }
    }
    let timed = Timed::drain(&mut sim, run_started);
    drop(run_span);
    // Snapshot before verification: conservation checking allocates and
    // must not be billed to the steady state.
    let steady_allocs = steady_from
        .filter(|_| alloc::counting())
        .map(|(a0, e0)| (alloc::allocations() - a0, sim.events_processed() - e0));

    let ideal = IdealFct { base_delay: 2 * US, ..IdealFct::intra_dc_100g() };
    let mut run = SubRun::verify("dcp", &sim, setup_s, timed, &fcts, &ideal, None);
    if removed != target {
        run.violations.push(format!("churn: {removed} of {target} lifetimes retired"));
    }
    if spurious > 0 {
        run.violations.push(format!("churn: {spurious} duplicate, stray or mis-sized completions"));
    }
    Rep { runs: vec![run], extras: Extras { steady_allocs, ..Default::default() } }
}
