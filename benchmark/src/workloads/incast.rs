//! `incast_trim` / `incast_trim_scope`: back-to-back 16→1 bursts on the
//! two-switch testbed.
//!
//! Every burst oversubscribes one cross-switch link sixteen-fold, so the
//! first switch trims almost every data packet it queues and the senders
//! recover from header-only notifications: `netsim::switch` trim/WRR and
//! `core` sender-HO / RetransQ / receiver tracking do nearly all the work.
//! The fabric is tiny and ~1 k events are pending, so event-queue depth,
//! routing and the flow runner do little. The `_scope` variant runs
//! byte-identical inputs with `dcp_scope::ScopeProbe` full capture on.
//!
//! Open loop in simulated time: bursts are posted on a fixed schedule,
//! whether or not the previous burst has drained.

use super::{
    install_oracle, scaled, sub_seed, timed_oracle_probe, Extras, Mode, Op, PairFactory, Rep,
    RunClock, ScopeReport, SubRun, Timed,
};
use crate::trace::{self, Span, TimedProbe};
use dcp_check::DeliveryOracle;
use dcp_core::dcp_switch_config;
use dcp_netsim::packet::FlowId;
use dcp_netsim::time::{Nanos, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_scope::ScopeProbe;
use dcp_telemetry::{Fanout, KindMask, Probe, ProbeEvent};
use dcp_workloads::{CcKind, IdealFct, RunOpts, TransportKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const FAN_IN: usize = 16;
const BURSTS: usize = 64;
const FLOW_BYTES: u64 = 96 << 10;
/// Burst period: the 16 × 128 KB of a burst take ~180 µs of the 100 G
/// bottleneck including headers and header-only notifications, so at this
/// period each burst starts as the last one's tail drains.
const BURST_PERIOD: Nanos = 260 * US;

/// One flow of a burst: sender and victim host indices and its post time.
#[derive(Debug, Clone, Copy)]
pub struct BurstFlow {
    pub src: usize,
    pub dst: usize,
    pub start: Nanos,
}

/// The burst schedule. The seed picks each burst's victim among the hosts
/// behind the second switch and jitters every sender's post by up to 2 µs;
/// the byte count, fan-in and period are fixed, so every seed offers the
/// same load.
pub fn generate(seed: u64, scale: f64) -> Vec<BurstFlow> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let bursts = scaled(BURSTS, scale, 2);
    let mut flows = Vec::with_capacity(bursts * FAN_IN);
    for b in 0..bursts {
        let dst = FAN_IN + rng.random_range(0..FAN_IN);
        for src in 0..FAN_IN {
            let jitter: Nanos = rng.random_range(0..2 * US);
            flows.push(BurstFlow { src, dst, start: b as Nanos * BURST_PERIOD + jitter });
        }
    }
    flows.sort_by_key(|f| f.start);
    flows
}

/// `ScopeProbe` behind a `Box<dyn Probe>` the benchmark can still read:
/// the simulator owns its probe type-erased, so the capture publishes its
/// findings through a shared cell when the driver calls `drain_jsonl`.
struct ScopeCapture {
    scope: ScopeProbe,
    records: u64,
    /// Fold the capture into the span document on publish (traced pass).
    fold: bool,
    out: Arc<Mutex<ScopeReport>>,
}

impl Probe for ScopeCapture {
    #[inline]
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        self.records += 1;
        self.scope.record(at, ev);
    }

    fn interest(&self) -> KindMask {
        self.scope.interest()
    }

    fn drain_jsonl(&mut self) -> Vec<String> {
        let mut report = ScopeReport { records: self.records, ..Default::default() };
        if self.fold {
            let _s = trace::span(Span::ScopeDocBuild);
            let t0 = Instant::now();
            report.packet_spans = self.scope.spans.packets().count() as u64;
            report.message_spans = self.scope.spans.messages().count() as u64;
            report.doc_build_s = t0.elapsed().as_secs_f64();
        }
        *self.out.lock().expect("scope report lock") = report;
        Vec::new()
    }
}

pub fn run(seed: u64, scale: f64, mode: Mode, scope: bool) -> Rep {
    let _rep = trace::span(Span::Rep);
    let setup_started = Instant::now();
    let setup_span = trace::span(Span::Setup);

    let flows = {
        let _g = trace::span(Span::WorkloadsGen);
        generate(seed, scale)
    };
    let mut sim = Simulator::new(sub_seed(seed, 1));
    sim.disable_auto_partition();
    let scope_out = Arc::new(Mutex::new(ScopeReport::default()));
    let oracle = if scope {
        let capture: Box<dyn Probe> = Box::new(ScopeCapture {
            scope: ScopeProbe::new(),
            records: 0,
            fold: mode == Mode::Traced,
            out: Arc::clone(&scope_out),
        });
        match mode {
            Mode::Bare => {
                sim.set_probe(capture);
                None
            }
            Mode::Traced => {
                let oracle = DeliveryOracle::new();
                let mask = capture.interest();
                sim.set_probe(Box::new(Fanout::new(vec![
                    TimedProbe::wrap(capture, mask, Span::ScopeRecord),
                    timed_oracle_probe(&oracle),
                ])));
                Some(oracle)
            }
        }
    } else {
        install_oracle(&mut sim, mode)
    };
    let cfg = dcp_switch_config(LoadBalance::Ecmp, FAN_IN + 2);
    let topo = topology::two_switch_testbed(&mut sim, cfg, FAN_IN, 100.0, &[100.0], US, US);
    let factory =
        PairFactory { kind: TransportKind::Dcp, cc: CcKind::None, opts: RunOpts::default(), mode };
    for (ix, f) in flows.iter().enumerate() {
        let flow = FlowId(ix as u32 + 1);
        let (src, dst) = (topo.hosts[f.src], topo.hosts[f.dst]);
        let (tx, rx) = factory.pair(flow, src, dst);
        let _g = trace::span(Span::NetsimInstall);
        sim.install_endpoint(src, flow, tx);
        sim.install_endpoint(dst, flow, rx);
    }
    drop(setup_span);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let run_started = RunClock::start();
    let run_span = trace::span(Span::Run);
    for (ix, f) in flows.iter().enumerate() {
        {
            let _g = trace::span(Span::NetsimRun);
            sim.run_until(f.start);
        }
        let _g = trace::span(Span::NetsimPost);
        sim.post(
            topo.hosts[f.src],
            FlowId(ix as u32 + 1),
            0,
            WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
            FLOW_BYTES,
        );
    }
    let timed = Timed::drain(&mut sim, run_started);
    drop(run_span);

    // Completions queue up inside the simulator (two per flow); reading
    // them here keeps that out of the timed region.
    let mut ops: Vec<Op> = vec![(FLOW_BYTES, None); flows.len()];
    sim.for_each_completion(|c| {
        if c.kind == CompletionKind::RecvComplete {
            let ix = c.flow.0 as usize - 1;
            ops[ix].1 = Some(c.at - flows[ix].start);
        }
    });
    let ideal = IdealFct { base_delay: 3 * US, ..IdealFct::intra_dc_100g() };
    let mut run = SubRun::verify("dcp", &sim, setup_s, timed, &ops, &ideal, oracle.as_ref());

    let mut extras = Extras::default();
    if scope {
        sim.probe_mut().expect("scope probe installed").drain_jsonl();
        let report = *scope_out.lock().expect("scope report lock");
        if report.records == 0 {
            run.violations.push("scope capture recorded nothing".into());
        }
        if mode == Mode::Traced && (report.packet_spans == 0 || report.message_spans == 0) {
            run.violations.push("span document is empty".into());
        }
        extras.scope = Some(report);
    }
    Rep { runs: vec![run], extras }
}
