//! `dcp-bench` — the harness that regenerates every table and figure of
//! the paper's evaluation, behind one `dcp` binary.
//!
//! Each experiment is a row of the scenario table ([`rows::ROWS`]): `dcp
//! <row>` prints the paper's rows/series and checks the paper's *shape*
//! (who wins, by what factor, where crossovers fall) at the laptop scale
//! that preserves it; `--full` runs a row that has a scale at the paper's
//! 256 hosts (minutes to hours). This crate holds the rows, the dispatcher
//! ([`cli`]) and their shared scaffolding.

use dcp_check::{DeliveryOracle, Liveness, Repro, Watchdog};
use dcp_core::dcp_switch_config;
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{Nanos, SEC, US};
use dcp_netsim::{topology, CompletionKind, EcnConfig, Endpoint, FlowId, LoadBalance, NodeId};
use dcp_netsim::{PortId, Simulator, Topology};
use dcp_rdma::qp::WorkReqOp;
use dcp_telemetry::{Fanout, FlightRecorder};
use dcp_workloads::{endpoint_pair, incast_flows, merge, poisson_flows, CcKind, FlowSpec};
use dcp_workloads::{SizeDist, TransportKind};
use rand::{rngs::StdRng, SeedableRng};

pub mod cli;
pub mod digest;
pub mod metrics;
pub mod rows;
pub mod sweep;

pub use cli::{Args, Report};
pub use metrics::{ExportOpts, MetricsDoc};
pub(crate) use sweep::grid;
pub use sweep::{sweep, sweep_with_threads};

/// Experiment scale: `--full` on the rows that have one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds of wall time; preserves shapes.
    Quick,
    /// The paper's scale (16 spines × 16 leaves × 16 hosts, full flow
    /// counts).
    Full,
}

impl Scale {
    /// CLOS dimensions `(spines, leaves, hosts_per_leaf)`.
    pub fn clos_dims(self) -> (usize, usize, usize) {
        match self {
            Scale::Quick => (4, 4, 4),
            Scale::Full => (16, 16, 16),
        }
    }

    pub fn hosts(self) -> usize {
        let (_, leaves, per_leaf) = self.clos_dims();
        leaves * per_leaf
    }

    /// Number of background flows for workload sweeps.
    pub fn flows(self) -> usize {
        match self {
            Scale::Quick => 400,
            Scale::Full => 20_000,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick (--full for paper scale)",
            Scale::Full => "FULL (paper scale)",
        }
    }
}

/// Builds the standard simulation CLOS at the chosen scale.
pub(crate) fn build_clos(
    seed: u64,
    cfg: SwitchConfig,
    scale: Scale,
    leaf_spine_delay: Nanos,
) -> (Simulator, Topology) {
    let (s, l, h) = scale.clos_dims();
    let mut sim = Simulator::new(seed);
    let topo = topology::clos(&mut sim, cfg, s, l, h, 100.0, 100.0, US, leaf_spine_delay);
    (sim, topo)
}

/// Every leaf-side uplink `(leaf, port)` — the fabric cables loss models
/// and flap plans apply to (host-facing ports are `0..hosts_per_leaf`).
pub fn fabric_cables(
    sim: &Simulator,
    topo: &Topology,
    hosts_per_leaf: usize,
) -> Vec<(NodeId, PortId)> {
    let mut cables = Vec::new();
    for &leaf in &topo.leaves {
        for port in hosts_per_leaf..sim.switch(leaf).ports.len() {
            cables.push((leaf, port));
        }
    }
    cables
}

/// Default BDP-window CC for the window-based baselines.
pub(crate) fn bdp_cc() -> CcKind {
    CcKind::Bdp { gbps: 100.0, rtt: 12 * US }
}

/// The CC each transport uses by default in the paper's comparisons:
/// IRN runs its BDP flow control, MP-RDMA brings its own adaptive window,
/// DCP integrates DCQCN (§3), GBN/PFC run BDP-windowed.
pub(crate) fn default_cc(kind: TransportKind) -> CcKind {
    match kind {
        TransportKind::Irn
        | TransportKind::RackTlp
        | TransportKind::TimeoutOnly
        | TransportKind::Ec
        | TransportKind::Gbn => bdp_cc(),
        TransportKind::MpRdma => CcKind::None,
        TransportKind::Dcp => CcKind::Dcqcn { gbps: 100.0 },
    }
}

/// Figs 2 and 16's traffic from `seed`: WebSearch at `load` plus an N-to-1
/// incast of 64 KB flows at `incast_load` over the same horizon — 12-to-1
/// at quick scale (the fabric's width), the paper's 128-to-1 at full.
/// Returns N and the merged flows.
pub(crate) fn websearch_incast(
    scale: Scale,
    seed: u64,
    load: f64,
    incast_load: f64,
) -> (usize, Vec<FlowSpec>) {
    let fan_in = match scale {
        Scale::Quick => 12,
        Scale::Full => 128,
    };
    let n_hosts = scale.hosts();
    let mut rng = StdRng::seed_from_u64(seed);
    let bg = poisson_flows(&mut rng, &SizeDist::websearch(), n_hosts, 100.0, load, scale.flows());
    let horizon = bg.last().expect("background flows").start;
    let inc = incast_flows(&mut rng, n_hosts, 100.0, incast_load, fan_in, 64 * 1024, horizon);
    (fan_in, merge(bg, inc))
}

/// A comparison scheme: its label, transport, and the switch config of the
/// fabric it is measured on.
pub(crate) type Scheme = (&'static str, TransportKind, SwitchConfig);

/// The eight schemes of the fault and conformance matrices (GBN is
/// measured on both fabric disciplines).
pub(crate) fn schemes() -> Vec<Scheme> {
    let mut mp = SwitchConfig::lossless(LoadBalance::Ecmp);
    mp.ecn = Some(EcnConfig::default_100g());
    vec![
        ("DCP (AR)", TransportKind::Dcp, dcp_switch_config(LoadBalance::AdaptiveRouting, 20)),
        ("GBN (lossy)", TransportKind::Gbn, SwitchConfig::lossy(LoadBalance::Ecmp)),
        ("GBN (PFC)", TransportKind::Gbn, SwitchConfig::lossless(LoadBalance::Ecmp)),
        ("IRN (AR)", TransportKind::Irn, SwitchConfig::lossy(LoadBalance::AdaptiveRouting)),
        ("MP-RDMA", TransportKind::MpRdma, mp),
        ("RACK-TLP", TransportKind::RackTlp, SwitchConfig::lossy(LoadBalance::Ecmp)),
        ("Timeout-only", TransportKind::TimeoutOnly, SwitchConfig::lossy(LoadBalance::Ecmp)),
        ("EC (k8m2, AR)", TransportKind::Ec, SwitchConfig::lossy(LoadBalance::AdaptiveRouting)),
    ]
}

/// Figs 13–15's comparison — PFC, IRN, MP-RDMA (+ECN) and DCP, configured
/// as in [`schemes`] — under `labels`, with `lossless_buf` bytes of buffer
/// on the two lossless fabrics (§6.2 sizes it to the PFC headroom).
pub(crate) fn paper_schemes(labels: [&'static str; 4], lossless_buf: usize) -> Vec<Scheme> {
    let all = schemes();
    let pick = |name: &str| *all.iter().find(|s| s.0 == name).expect("listed scheme");
    ["GBN (PFC)", "IRN (AR)", "MP-RDMA", "DCP (AR)"]
        .into_iter()
        .zip(labels)
        .map(|(name, label)| {
            let (_, kind, mut cfg) = pick(name);
            if cfg.pfc.is_some() {
                cfg.buffer_bytes = lossless_buf;
            }
            (label, kind, cfg)
        })
        .collect()
}

/// One flow's sender and receiver.
pub(crate) type EndpointPair = (Box<dyn Endpoint>, Box<dyn Endpoint>);

pub(crate) const MB: u64 = 1 << 20;

/// Installs one flow per `(src, dst)` host pair (flow ids 1, 2, …) from
/// `pair` and posts `sizes` as Write messages on each.
fn post_streams(
    sim: &mut Simulator,
    hosts: &[(NodeId, NodeId)],
    pair: impl Fn(FlowId, NodeId, NodeId) -> EndpointPair,
    sizes: &[u64],
) {
    for (i, &(src, dst)) in hosts.iter().enumerate() {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) = pair(flow, src, dst);
        sim.install_endpoint(src, flow, tx);
        sim.install_endpoint(dst, flow, rx);
        for (wr_id, &len) in sizes.iter().enumerate() {
            let op = WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 };
            sim.post(src, flow, wr_id as u64, op, len);
        }
    }
}

/// The driver behind every goodput and latency point: [`post_streams`],
/// then advance until each flow has received all its messages or
/// `deadline` passes. Returns each flow's last `RecvComplete` time, `None`
/// for a flow that missed the deadline.
pub(crate) fn stream(
    sim: &mut Simulator,
    hosts: &[(NodeId, NodeId)],
    pair: impl Fn(FlowId, NodeId, NodeId) -> EndpointPair,
    sizes: &[u64],
    deadline: Nanos,
) -> Vec<Option<Nanos>> {
    post_streams(sim, hosts, pair, sizes);
    let mut done = vec![0; hosts.len()];
    let mut finish = vec![None; hosts.len()];
    while finish.contains(&None) && sim.now() < deadline {
        if sim.advance().is_none() {
            break;
        }
        sim.for_each_completion(|c| {
            if c.kind == CompletionKind::RecvComplete {
                let ix = (c.flow.0 - 1) as usize;
                done[ix] += 1;
                if done[ix] == sizes.len() {
                    finish[ix] = Some(c.at);
                }
            }
        });
    }
    // Same lenient conservation check `run_flows` applies: the fabric can
    // never account for more packets than were sent.
    #[cfg(debug_assertions)]
    {
        let c = sim.check_conservation(false);
        debug_assert!(c.is_ok(), "stream conservation violated: {:?}", c.violations);
    }
    if finish.contains(&None) {
        eprintln!("warn: stream incomplete at t={} ns: {done:?} messages", sim.now());
    }
    finish
}

/// Gbps of `bytes` delivered by `at`.
pub(crate) fn goodput(bytes: u64, at: Option<Nanos>) -> Option<f64> {
    at.map(|t| bytes as f64 * 8.0 / t as f64)
}

/// The sustained-incast testbed behind Table 5, the WRR-weight ablation
/// and the queue deep dive: `fan_in` DCP senders on switch 1 each post
/// `msgs` 1 MB writes to one victim on switch 2, all funnelled through one
/// 100G cross link — switch 1's port `fan_in`.
pub(crate) fn incast(
    sim: &mut Simulator,
    cfg: SwitchConfig,
    fan_in: usize,
    cc: CcKind,
    msgs: usize,
) -> Topology {
    let topo = topology::two_switch_testbed(sim, cfg, fan_in, 100.0, &[100.0], US, US);
    let hosts: Vec<_> = (0..fan_in).map(|i| (topo.hosts[i], topo.hosts[fan_in])).collect();
    let pair = |flow, src, dst| endpoint_pair(TransportKind::Dcp, cc, flow, src, dst);
    post_streams(sim, &hosts, pair, &vec![MB; msgs]);
    topo
}

/// Formats an optional goodput/slowdown value, `n/a` for missed points.
pub(crate) fn fmt_opt(v: Option<f64>, prec: usize) -> String {
    v.map_or("n/a".to_string(), |v| format!("{v:.prec$}"))
}

/// The correctness gates of the conformance rows (`check_matrix`, `soak`):
/// a delivery oracle and a liveness watchdog, armed on the simulator's
/// probe beside the flight recorder whose story the watchdog reports.
#[derive(Clone)]
pub(crate) struct Gates {
    pub(crate) oracle: DeliveryOracle,
    watchdog: Watchdog,
}

impl Gates {
    pub(crate) fn arm(sim: &mut Simulator) -> Gates {
        let g = Gates { oracle: DeliveryOracle::new(), watchdog: Watchdog::new() };
        let recorder = Box::new(FlightRecorder::default());
        sim.set_probe(Box::new(Fanout::new(vec![g.oracle.probe(), g.watchdog.probe(), recorder])));
        g
    }

    /// The watchdog's verdict now: a stall or livelock as its classified
    /// report.
    pub(crate) fn live(&self, sim: &Simulator) -> Result<(), String> {
        match self.watchdog.check(sim.now(), self.oracle.outstanding()) {
            Liveness::Ok => Ok(()),
            verdict => Err(self.watchdog.report(&verdict, sim)),
        }
    }

    /// The final gates. Liveness first, so a wedge gets the watchdog's
    /// report rather than a bare quiescence failure; then drain,
    /// exactly-once delivery and strict conservation.
    pub(crate) fn finish(&self, sim: &mut Simulator) -> Result<(), String> {
        self.live(sim)?;
        if !sim.run_to_quiescence(3 * SEC) {
            return Err("fabric failed to quiesce".to_string());
        }
        self.oracle.final_check().map_err(|e| format!("delivery oracle violations:\n{e}"))?;
        let cons = sim.check_conservation(true);
        if !cons.is_ok() {
            return Err(format!("strict conservation violated: {:?}", cons.violations));
        }
        Ok(())
    }
}

/// Where a row writes its shrunk failure repro: `--repro-out`, else
/// `default`.
pub(crate) fn repro_path(args: &Args, default: &str) -> String {
    args.get("repro-out").unwrap_or(default).to_string()
}

/// The one failure path of the repro-writing rows: report the first hard
/// violation (`what`, `err`), ddmin-shrink `base` against `trips` (which
/// re-runs the failing case and says whether it still fails), write the
/// minimal replayable repro to `path`, and exit 1.
pub(crate) fn fail_with_repro(
    what: &str,
    err: &str,
    base: Repro,
    path: &str,
    trips: impl FnMut(&Repro) -> bool,
) -> ! {
    eprintln!("{what}:\n{err}\n");
    eprintln!("shrinking the failure to a minimal repro...");
    let minimal = dcp_check::shrink_repro(&base, trips);
    match std::fs::write(path, minimal.save()) {
        Ok(()) => eprintln!(
            "wrote minimal repro ({} fault events, profile {:?}) to {path}",
            minimal.plan.events.len(),
            minimal.profile.name,
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    std::process::exit(1);
}

/// Standard experiment deadline.
pub(crate) const DEADLINE: Nanos = 300 * SEC;
