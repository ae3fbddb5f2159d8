//! `websearch_clos256` and `lossy_mix`: Poisson flow lists through the
//! repo's flow runner.
//!
//! Both are open loops in simulated time: flows are injected at their
//! Poisson arrival times whatever the fabric's state. Bare reps call
//! `dcp_workloads::run_flows_opts`; the traced pass needs an endpoint
//! factory the runner does not take, so it uses [`drive_flows`], a copy of
//! the runner's injection loop. The traced rep must reproduce the bare
//! rep's digest, which is the proof that the copy is equivalent.

use super::{
    install_oracle, scaled, sub_seed, Extras, Mode, Op, PairFactory, Rep, RunClock, SubRun, Timed,
    DEADLINE,
};
use crate::trace::{self, Span, TimedFaultPlane};
use dcp_core::dcp_switch_config;
use dcp_faults::{FaultEngine, FaultPlan, LossModel};
use dcp_netsim::packet::{FlowId, NodeId, PortId};
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{Nanos, MS, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator, Topology};
use dcp_rdma::qp::WorkReqOp;
use dcp_workloads::{
    poisson_flows, run_flows_opts, CcKind, FlowSpec, IdealFct, RunOpts, SizeDist, TransportKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

/// The runner's injection loop (`run_flows_hooked` without hook or tenant
/// tags), with endpoints from `factory` and spans around every simulator
/// call. Returns each flow's completion time.
pub fn drive_flows(
    sim: &mut Simulator,
    topo: &Topology,
    flows: &[FlowSpec],
    deadline: Nanos,
    factory: &PairFactory,
) -> Vec<Option<Nanos>> {
    let chunk = factory.opts.chunk;
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by_key(|&i| flows[i].start);
    let mut fct: Vec<Option<Nanos>> = vec![None; flows.len()];
    let mut msgs_left: HashMap<u32, u64> = HashMap::new();
    let mut remaining = flows.len();
    let mut next = 0usize;
    while remaining > 0 {
        while next < order.len() && flows[order[next]].start <= sim.now() {
            let ix = order[next];
            let f = flows[ix];
            let flow_id = FlowId(ix as u32 + 1);
            let (src, dst) = (topo.hosts[f.src], topo.hosts[f.dst]);
            let (tx, rx) = factory.pair(flow_id, src, dst);
            {
                let _g = trace::span(Span::NetsimInstall);
                sim.install_endpoint(src, flow_id, tx);
                sim.install_endpoint(dst, flow_id, rx);
            }
            let bytes = f.bytes.max(1);
            let n = bytes.div_ceil(chunk);
            let mut left = bytes;
            for i in 0..n {
                let len = left.min(chunk);
                left -= len;
                let _g = trace::span(Span::NetsimPost);
                sim.post(
                    src,
                    flow_id,
                    i,
                    WorkReqOp::Write { remote_addr: 0x100_0000 + i * chunk, rkey: 1 },
                    len,
                );
            }
            msgs_left.insert(ix as u32, n);
            next += 1;
        }
        if sim.now() >= deadline {
            break;
        }
        {
            let _g = trace::span(Span::NetsimRun);
            if next < order.len() {
                // To the next arrival: one event if one is due before it,
                // else jump the clock there.
                let next_start = flows[order[next]].start;
                if sim.advance_bounded(next_start).is_none() {
                    sim.run_until(next_start.min(deadline));
                }
            } else if sim.advance().is_none() {
                break;
            }
        }
        sim.for_each_completion(|c| {
            if c.kind == CompletionKind::RecvComplete {
                let ix = c.flow.0 - 1;
                let left = msgs_left.get_mut(&ix).expect("completion for known flow");
                *left -= 1;
                if *left == 0 {
                    fct[ix as usize] = Some(c.at - flows[ix as usize].start);
                    remaining -= 1;
                }
            }
        });
    }
    fct
}

/// One flow list on one two-tier CLOS: what `websearch_clos256` does once a
/// rep and `lossy_mix` four times.
struct ClosRun {
    label: &'static str,
    /// `(spines, leaves, hosts per leaf)`.
    dims: (usize, usize, usize),
    cfg: SwitchConfig,
    n_flows: usize,
    size_cap: u64,
    kind: TransportKind,
    cc: CcKind,
    opts: RunOpts,
    /// Loss model on every fabric cable, if any.
    loss: Option<LossModel>,
}

impl ClosRun {
    fn run(&self, seed: u64, mode: Mode) -> SubRun {
        let setup_started = Instant::now();
        let setup_span = trace::span(Span::Setup);
        let (spines, leaves, per_leaf) = self.dims;
        let flows = {
            let _g = trace::span(Span::WorkloadsGen);
            websearch_flows(seed, leaves * per_leaf, self.n_flows, self.size_cap)
        };
        let mut sim = Simulator::new(sub_seed(seed, 1));
        sim.disable_auto_partition();
        let oracle = install_oracle(&mut sim, mode);
        let topo =
            topology::clos(&mut sim, self.cfg, spines, leaves, per_leaf, 100.0, 100.0, US, US);
        if let Some(model) = self.loss {
            let plan = FaultPlan::new(sub_seed(seed, 3))
                .with_loss_on(&fabric_cables(&sim, &topo, per_leaf), model)
                .sorted();
            FaultEngine::install(&mut sim, plan);
            if mode == Mode::Traced {
                TimedFaultPlane::install_over(&mut sim);
            }
        }
        let factory = PairFactory { kind: self.kind, cc: self.cc, opts: self.opts, mode };
        drop(setup_span);
        let setup_s = setup_started.elapsed().as_secs_f64();

        // Bare reps go through the repo's runner; the traced pass needs
        // the endpoint factory, so it takes the copied loop.
        let run_started = RunClock::start();
        let run_span = trace::span(Span::Run);
        let fcts: Vec<Option<Nanos>> = match mode {
            Mode::Bare => {
                run_flows_opts(&mut sim, &topo, self.kind, self.cc, &flows, DEADLINE, self.opts)
                    .iter()
                    .map(|r| r.fct)
                    .collect()
            }
            Mode::Traced => drive_flows(&mut sim, &topo, &flows, DEADLINE, &factory),
        };
        let timed = Timed::drain(&mut sim, run_started);
        drop(run_span);

        let ops: Vec<Op> = flows.iter().zip(&fcts).map(|(f, &t)| (f.bytes, t)).collect();
        SubRun::verify(
            self.label,
            &sim,
            setup_s,
            timed,
            &ops,
            &IdealFct::intra_dc_100g(),
            oracle.as_ref(),
        )
    }
}

/// Every leaf-side uplink: one entry per leaf↔spine cable.
fn fabric_cables(sim: &Simulator, topo: &Topology, per_leaf: usize) -> Vec<(NodeId, PortId)> {
    topo.leaves
        .iter()
        .flat_map(|&leaf| (per_leaf..sim.switch(leaf).ports.len()).map(move |port| (leaf, port)))
        .collect()
}

const WEBSEARCH_FLOWS: usize = 600;

/// `n` flow sizes at evenly spaced quantiles of the WebSearch distribution
/// truncated at `cap` bytes: every 64th order statistic of a fixed sample.
/// It depends on `n` and `cap` alone, so every seed moves exactly the same
/// bytes and a rep's work does not depend on how many elephants a seed
/// happened to draw.
fn websearch_size_grid(n: usize, cap: u64) -> Vec<u64> {
    const PER_CELL: usize = 64;
    let dist = SizeDist::websearch();
    let mut rng = StdRng::seed_from_u64(0x5EED_517E);
    let mut draws: Vec<u64> = std::iter::repeat_with(|| dist.sample(&mut rng))
        .filter(|&b| b <= cap)
        .take(n * PER_CELL)
        .collect();
    draws.sort_unstable();
    (0..n).map(|i| draws[i * PER_CELL + PER_CELL / 2]).collect()
}

/// Poisson arrivals at load 0.5 between random host pairs, from the seed;
/// the sizes are the fixed WebSearch grid (≤ `cap`) in a seed-shuffled
/// order.
pub fn websearch_flows(seed: u64, n_hosts: usize, n_flows: usize, cap: u64) -> Vec<FlowSpec> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let mut sizes = websearch_size_grid(n_flows, cap);
    // `poisson_flows` spaces arrivals for the untruncated mean; scale the
    // load so the bytes actually offered make up half the access capacity.
    let dist = SizeDist::websearch();
    let grid_mean = sizes.iter().sum::<u64>() as f64 / n_flows as f64;
    let load = 0.5 * dist.mean() / grid_mean;
    let mut flows = poisson_flows(&mut rng, &dist, n_hosts, 100.0, load, n_flows);
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.random_range(0..=i));
    }
    for (f, bytes) in flows.iter_mut().zip(sizes) {
        f.bytes = bytes;
    }
    flows
}

/// `websearch_clos256`: WebSearch Poisson arrivals at load 0.5 on the
/// paper-scale 16×16×16 CLOS, DCP + DCQCN + adaptive routing. Many short
/// flows beside a heavy tail: the flow runner's injection, host QP install
/// and ready ring, adaptive routing, DCQCN and a deep calendar queue do the
/// work; trimming is rare.
pub fn run_websearch(seed: u64, scale: f64, mode: Mode) -> Rep {
    let _rep = trace::span(Span::Rep);
    let n_flows = scaled(WEBSEARCH_FLOWS, scale, 20);
    let run = ClosRun {
        label: "dcp",
        dims: (16, 16, 16),
        cfg: dcp_switch_config(LoadBalance::AdaptiveRouting, 20),
        n_flows,
        size_cap: u64::MAX,
        kind: TransportKind::Dcp,
        cc: CcKind::Dcqcn { gbps: 100.0 },
        opts: RunOpts::default(),
        loss: None,
    }
    .run(seed, mode);
    Rep {
        runs: vec![run],
        extras: Extras { gen_flows: Some(n_flows as u64), ..Default::default() },
    }
}

const LOSSY_FLOWS: usize = 400;
/// Loss recovery shows in the short and medium flows (a lost tail packet
/// costs a small flow an RTO); WebSearch's elephants (its top fifth, above
/// 2 MB) would spend the event budget on 60 flows instead of 400.
const LOSSY_SIZE_CAP: u64 = 2_000_000;

/// The four transports of `lossy_mix`, each on the fabric discipline and
/// congestion control the repo's fault matrix gives it.
fn lossy_schemes() -> [(&'static str, TransportKind, SwitchConfig, CcKind); 4] {
    let bdp = CcKind::Bdp { gbps: 100.0, rtt: 12 * US };
    [
        ("irn", TransportKind::Irn, SwitchConfig::lossy(LoadBalance::AdaptiveRouting), bdp),
        ("racktlp", TransportKind::RackTlp, SwitchConfig::lossy(LoadBalance::Ecmp), bdp),
        ("ec", TransportKind::Ec, SwitchConfig::lossy(LoadBalance::AdaptiveRouting), bdp),
        (
            "dcp",
            TransportKind::Dcp,
            dcp_switch_config(LoadBalance::AdaptiveRouting, 20),
            CcKind::Dcqcn { gbps: 100.0 },
        ),
    ]
}

/// `lossy_mix`: one Poisson WebSearch flow list run once each over IRN,
/// RACK-TLP, EC and DCP on an 8×8×8 CLOS whose every fabric cable loses
/// packets in Gilbert–Elliott bursts. The paper's own question — who
/// survives a lossy fabric — and the only workload where `faults`, the RTO
/// timers and the baseline `transport` endpoints do the work.
pub fn run_lossy_mix(seed: u64, scale: f64, mode: Mode) -> Rep {
    let _rep = trace::span(Span::Rep);
    // The fault matrix's run options: 64 KB messages (a whole-message
    // fallback resend then costs 64 packets, not ~1000) and a coarse DCP
    // fallback timeout in proportion to the 8 µs RTT.
    let mut opts = RunOpts::for_rtt(8 * US);
    opts.chunk = 64 << 10;
    opts.dcp.coarse_timeout = MS;
    let runs = lossy_schemes()
        .into_iter()
        .map(|(label, kind, cfg, cc)| {
            ClosRun {
                label,
                dims: (8, 8, 8),
                cfg,
                n_flows: scaled(LOSSY_FLOWS, scale, 20),
                size_cap: LOSSY_SIZE_CAP,
                kind,
                cc,
                opts,
                loss: Some(LossModel::fabric_bursty()),
            }
            .run(seed, mode)
        })
        .collect();
    Rep { runs, extras: Extras::default() }
}
