//! The six workloads and what one rep of each returns.
//!
//! A rep rebuilds the simulator from the generated inputs, runs it, and
//! checks the outputs after the timed region. `Mode::Traced` installs the
//! passive wrappers of [`crate::trace`] and the delivery oracle; it must
//! reproduce the bare rep's event count and digest exactly.

pub mod allreduce;
pub mod churn;
pub mod flows;
pub mod incast;

use crate::alloc;
use crate::stats::Fnv;
use crate::trace::{self, EndpointSpans, Span, TimedEndpoint, TimedProbe};
use dcp_check::DeliveryOracle;
use dcp_netsim::packet::{FlowId, NodeId};
use dcp_netsim::stats::{NetStats, TransportStats};
use dcp_netsim::time::{Nanos, SEC};
use dcp_netsim::{Endpoint, Simulator};
use dcp_telemetry::{EventKind, KindMask, Probe};
use dcp_workloads::{endpoint_pair_opts, percentile, CcKind, IdealFct, RunOpts, TransportKind};
use std::time::Instant;

/// Simulated deadline: an op without its completion by then has failed.
pub const DEADLINE: Nanos = 60 * SEC;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IncastTrim,
    IncastTrimScope,
    WebsearchClos256,
    LossyMix,
    ChurnQp,
    Allreduce1024Sh8,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::IncastTrim,
        Workload::IncastTrimScope,
        Workload::WebsearchClos256,
        Workload::LossyMix,
        Workload::ChurnQp,
        Workload::Allreduce1024Sh8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IncastTrim => "incast_trim",
            Workload::IncastTrimScope => "incast_trim_scope",
            Workload::WebsearchClos256 => "websearch_clos256",
            Workload::LossyMix => "lossy_mix",
            Workload::ChurnQp => "churn_qp",
            Workload::Allreduce1024Sh8 => "allreduce_1024_sh8",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one rep at `scale` (1.0 is the gated size) from inputs made of
    /// `seed` alone.
    pub fn run_rep(self, seed: u64, scale: f64, mode: Mode) -> Rep {
        match self {
            Workload::IncastTrim => incast::run(seed, scale, mode, false),
            Workload::IncastTrimScope => incast::run(seed, scale, mode, true),
            Workload::WebsearchClos256 => flows::run_websearch(seed, scale, mode),
            Workload::LossyMix => flows::run_lossy_mix(seed, scale, mode),
            Workload::ChurnQp => churn::run(seed, scale, mode),
            Workload::Allreduce1024Sh8 => allreduce::run(seed, scale, mode, allreduce::SHARDS, 1),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Bare,
    Traced,
}

/// Independent sub-seeds of the one `--seed`: SplitMix64's finalizer over
/// the seed and a stream number, so the simulator RNG, the input generator
/// and the loss plan never share a stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Scales a count, keeping at least `floor`.
pub fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale).round() as usize).max(floor)
}

/// One simulator run inside a rep (a rep of `lossy_mix` has four).
#[derive(Debug, Clone)]
pub struct SubRun {
    pub label: &'static str,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Allocations in the timed region (counting allocator on only).
    pub allocs: u64,
    pub events: u64,
    pub peak_pending: u64,
    /// Sum of the completed ops' completion times (flow-nanoseconds).
    pub fct_sum_ns: u64,
    pub net: NetStats,
    pub ep: TransportStats,
    /// Per-op slowdown (FCT ÷ ideal FCT) of every completed op.
    pub slowdowns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Conservation, pool-leak and oracle findings; any entry fails the rep.
    pub violations: Vec<String>,
}

/// `(bytes, completion time)` of one op; `None` = not completed by the
/// deadline. A run hands its ops over in input order.
pub type Op = (u64, Option<Nanos>);

/// The start of a timed region.
#[derive(Debug, Clone, Copy)]
pub struct RunClock {
    started: Instant,
    allocs: u64,
}

impl RunClock {
    pub fn start() -> RunClock {
        RunClock { started: Instant::now(), allocs: alloc::allocations() }
    }
}

/// The end of a timed region: whether the fabric drained, the wall seconds
/// it took, and the allocations in it (0 unless the caller switched the
/// counting allocator on).
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub quiesced: bool,
    pub wall_s: f64,
    pub allocs: u64,
}

impl Timed {
    /// Drains the fabric — the tail of every timed region — and stops the
    /// clock. Everything after this call is output checking.
    pub fn drain(sim: &mut Simulator, clock: RunClock) -> Timed {
        let quiesced = {
            let _s = trace::span(Span::NetsimRun);
            sim.run_to_quiescence(sim.now() + DEADLINE)
        };
        Timed {
            quiesced,
            wall_s: clock.started.elapsed().as_secs_f64(),
            allocs: alloc::allocations() - clock.allocs,
        }
    }
}

impl SubRun {
    /// Checks the outputs of a drained run — conservation, pool leaks, the
    /// oracle — and folds its digest and slowdowns.
    pub fn verify(
        label: &'static str,
        sim: &Simulator,
        setup_s: f64,
        timed: Timed,
        ops: &[Op],
        ideal: &IdealFct,
        oracle: Option<&DeliveryOracle>,
    ) -> SubRun {
        let _v = trace::span(Span::Verify);
        let mut violations = Vec::new();
        if !timed.quiesced {
            violations.push(format!("{label}: fabric did not quiesce"));
        }
        violations.extend(sim.check_conservation(true).violations);
        if let Some(o) = oracle {
            if let Err(e) = o.final_check() {
                violations.push(e);
            }
        }
        let net = sim.net_stats();
        let ep = sim.all_endpoint_stats();
        let mut digest = Fnv::default();
        let mut slowdowns = Vec::with_capacity(ops.len());
        let mut fct_sum_ns = 0u64;
        for &(bytes, fct) in ops {
            digest.u64(fct.unwrap_or(u64::MAX));
            if let Some(t) = fct {
                // Not `IdealFct::slowdown`: that clamps at 1, which would
                // hide any change on a workload running at its ideal.
                slowdowns.push(t as f64 / ideal.ideal(bytes) as f64);
                fct_sum_ns += t;
            }
        }
        digest.bytes(format!("{net:?}").as_bytes());
        digest.u64(sim.events_processed());
        digest.u64(sim.now());
        let attempted = ops.len() as u64;
        SubRun {
            label,
            setup_s,
            wall_s: timed.wall_s,
            allocs: timed.allocs,
            events: sim.events_processed(),
            peak_pending: sim.peak_pending_events() as u64,
            fct_sum_ns,
            net,
            ep,
            failed: attempted - slowdowns.len() as u64,
            slowdowns,
            attempted,
            digest: digest.0,
            violations,
        }
    }
}

/// Workload-specific extras of the traced pass.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    /// `churn_qp`: allocations and events inside the steady-state window.
    pub steady_allocs: Option<(u64, u64)>,
    /// `incast_trim_scope`: records captured and span-document findings.
    pub scope: Option<ScopeReport>,
    /// `websearch_clos256`: flows the generator made (`workloads.gen`).
    pub gen_flows: Option<u64>,
}

/// What the scope capture published at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScopeReport {
    pub records: u64,
    /// Packet and message spans in the folded document (traced pass only;
    /// bare reps skip the fold and leave both at 0).
    pub packet_spans: u64,
    pub message_spans: u64,
    pub doc_build_s: f64,
}

/// One rep: its runs and the metrics pooled over them.
#[derive(Debug, Clone)]
pub struct Rep {
    pub runs: Vec<SubRun>,
    pub extras: Extras,
}

impl Rep {
    pub fn setup_s(&self) -> f64 {
        self.runs.iter().map(|r| r.setup_s).sum()
    }

    pub fn wall_s(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_s).sum()
    }

    pub fn events(&self) -> u64 {
        self.runs.iter().map(|r| r.events).sum()
    }

    pub fn peak_pending(&self) -> u64 {
        self.runs.iter().map(|r| r.peak_pending).max().unwrap_or(0)
    }

    pub fn attempted(&self) -> u64 {
        self.runs.iter().map(|r| r.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.runs.iter().map(|r| r.failed).sum()
    }

    pub fn violations(&self) -> Vec<String> {
        self.runs.iter().flat_map(|r| r.violations.iter().cloned()).collect()
    }

    pub fn net(&self) -> NetStats {
        let mut n = NetStats::default();
        self.runs.iter().for_each(|r| n.merge(&r.net));
        n
    }

    pub fn digest(&self) -> u64 {
        let mut d = Fnv::default();
        self.runs.iter().for_each(|r| d.u64(r.digest));
        d.0
    }
}

/// The simulated end-to-end metrics of a set of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Delivered first-copy payload bits per flow-nanosecond: Σ bytes over
    /// Σ completion time, the byte-weighted per-op goodput. (Bytes over the
    /// time to the *last* completion would instead measure when the largest
    /// flow of an open-loop list happened to arrive.)
    pub goodput_gbps: f64,
    pub slowdown_p50: f64,
    pub slowdown_p99: f64,
    /// Data packets sent, retransmissions included, per first copy
    /// (1 + Fig. 1's retransmission ratio, so it is never 0).
    pub tx_per_pkt: f64,
    pub timeouts: u64,
}

impl SimMetrics {
    /// The ops of every run pooled into one sample.
    pub fn pooled<'a>(runs: impl IntoIterator<Item = &'a SubRun>) -> SimMetrics {
        let mut ep = TransportStats::default();
        let mut fct_sum_ns = 0u64;
        let mut slowdowns: Vec<f64> = Vec::new();
        for r in runs {
            ep.merge(&r.ep);
            fct_sum_ns += r.fct_sum_ns;
            slowdowns.extend_from_slice(&r.slowdowns);
        }
        let (p50, p99) = if slowdowns.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&mut slowdowns, 50.0), percentile(&mut slowdowns, 99.0))
        };
        SimMetrics {
            goodput_gbps: ep.goodput_bytes as f64 * 8.0 / fct_sum_ns.max(1) as f64,
            slowdown_p50: p50,
            slowdown_p99: p99,
            tx_per_pkt: (ep.data_pkts + ep.retx_pkts) as f64 / ep.data_pkts.max(1) as f64,
            timeouts: ep.timeouts,
        }
    }

    /// A run's end-to-end numbers: the ops of all reps pooled per transport,
    /// then the mean over the transports. One transport, one pool; on
    /// `lossy_mix` each of the four weighs a quarter, so one that collapses
    /// moves the number by its share. (One pool over all four would put the
    /// p99 on the step between the transports whose tail starts at 15× and
    /// those at 30×, and a handful of flows would move it by a quarter.)
    pub fn per_transport_mean(runs: &[&SubRun]) -> SimMetrics {
        let mut labels: Vec<&str> = runs.iter().map(|r| r.label).collect();
        labels.sort_unstable();
        labels.dedup();
        let each: Vec<SimMetrics> = labels
            .iter()
            .map(|l| SimMetrics::pooled(runs.iter().copied().filter(|r| r.label == *l)))
            .collect();
        let mean = |f: fn(&SimMetrics) -> f64| each.iter().map(f).sum::<f64>() / each.len() as f64;
        SimMetrics {
            goodput_gbps: mean(|m| m.goodput_gbps),
            slowdown_p50: mean(|m| m.slowdown_p50),
            slowdown_p99: mean(|m| m.slowdown_p99),
            tx_per_pkt: mean(|m| m.tx_per_pkt),
            timeouts: each.iter().map(|m| m.timeouts).sum(),
        }
    }
}

/// Endpoint pairs for one transport, wrapped for timing in the traced pass.
pub struct PairFactory {
    pub kind: TransportKind,
    pub cc: CcKind,
    pub opts: RunOpts,
    pub mode: Mode,
}

impl PairFactory {
    pub fn spans(&self) -> EndpointSpans {
        match self.kind {
            TransportKind::Dcp => EndpointSpans::CORE,
            TransportKind::Irn => EndpointSpans::IRN,
            TransportKind::RackTlp => EndpointSpans::RACKTLP,
            TransportKind::Ec => EndpointSpans::EC,
            other => panic!("no span names for {other:?}: not a benchmark transport"),
        }
    }

    pub fn pair(
        &self,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
    ) -> (Box<dyn Endpoint>, Box<dyn Endpoint>) {
        let (tx, rx) = endpoint_pair_opts(self.kind, self.cc, flow, src, dst, self.opts);
        match self.mode {
            Mode::Bare => (tx, rx),
            Mode::Traced => {
                (TimedEndpoint::wrap(tx, self.spans()), TimedEndpoint::wrap(rx, self.spans()))
            }
        }
    }
}

/// The oracle's probe, timed; the kinds are the two it consumes.
pub fn timed_oracle_probe(oracle: &DeliveryOracle) -> Box<dyn Probe> {
    TimedProbe::wrap(
        oracle.probe(),
        KindMask::of(&[EventKind::MsgPosted, EventKind::Delivery]),
        Span::OracleRecord,
    )
}

/// Installs the delivery oracle as the simulator's probe in the traced
/// pass; bare reps run probe-less.
pub fn install_oracle(sim: &mut Simulator, mode: Mode) -> Option<DeliveryOracle> {
    (mode == Mode::Traced).then(|| {
        let oracle = DeliveryOracle::new();
        sim.set_probe(timed_oracle_probe(&oracle));
        oracle
    })
}
