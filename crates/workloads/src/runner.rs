//! The experiment runner: installs per-flow transport endpoints, injects
//! flows at their arrival times, and collects flow completion times.

use crate::arrivals::FlowSpec;
use dcp_core::{dcp_pair, DcpConfig};
use dcp_netsim::endpoint::{CompletionKind, Endpoint};
use dcp_netsim::packet::{FlowId, NodeId};
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::{Nanos, US};
use dcp_netsim::topology::Topology;
use dcp_netsim::Simulator;
use dcp_rdma::headers::DcpTag;
use dcp_rdma::qp::WorkReqOp;
use dcp_transport::cc::{CongestionControl, Dcqcn, NoCc, StaticWindow};
use dcp_transport::common::{FlowCfg, Placement};
use dcp_transport::ec::ec_pair;
use dcp_transport::gbn::gbn_pair;
use dcp_transport::irn::irn_pair;
use dcp_transport::mprdma::mprdma_pair;
use dcp_transport::racktlp::{rack_pair, RackConfig};
use dcp_transport::timeout_only::timeout_only_pair;
use std::collections::HashMap;

/// Which endpoint protocol a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// RNIC-GBN (the CX5-class baseline).
    Gbn,
    /// IRN (RNIC-SR).
    Irn,
    /// MP-RDMA over PFC.
    MpRdma,
    /// RACK-TLP.
    RackTlp,
    /// Timeout-only (Spectrum-style).
    TimeoutOnly,
    /// DCP.
    Dcp,
    /// Erasure-coded (SDR-RDMA-style k+m generations, SR-NACK fallback).
    Ec,
}

/// Which congestion control senders run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcKind {
    /// No CC (DCP-alone in §6.3, GBN at line rate).
    None,
    /// Static BDP window (IRN's default flow control).
    Bdp { gbps: f64, rtt: Nanos },
    /// DCQCN.
    Dcqcn { gbps: f64 },
}

impl CcKind {
    fn build(self) -> Box<dyn CongestionControl> {
        match self {
            CcKind::None => Box::new(NoCc::default()),
            CcKind::Bdp { gbps, rtt } => Box::new(StaticWindow::bdp(gbps, rtt)),
            CcKind::Dcqcn { gbps } => Box::new(Dcqcn::new(gbps)),
        }
    }
}

/// Per-run tunables beyond transport/CC choice. The timeout knobs exist
/// because cross-DC runs (Fig. 15) have RTTs that dwarf the intra-DC
/// defaults — any real deployment scales its timers with path RTT.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// RTO for the RTO-based baselines (GBN/IRN/MP-RDMA/RACK/timeout-only;
    /// RACK-TLP never goes below its own 400 µs) and EC's last-resort
    /// sender timer.
    pub rto: Nanos,
    /// DCP-RNIC configuration (coarse fallback timeout et al.).
    pub dcp: DcpConfig,
    /// EC receiver staleness before an incomplete generation is NACKed.
    pub nack_delay: Nanos,
    /// Message size flows are chunked into when posted. The default mirrors
    /// [`dcp_core::config::MSG_CHUNK_BYTES`]; fault experiments use smaller
    /// messages because whole-message fallback resends (DCP's coarse
    /// timeout, go-back-N rewinds) price a message's worth of work per
    /// unlucky loss.
    pub chunk: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            rto: 200 * US,
            dcp: DcpConfig::default(),
            nack_delay: 25 * US,
            chunk: dcp_core::config::MSG_CHUNK_BYTES,
        }
    }
}

impl RunOpts {
    /// Timeouts scaled for a fabric whose round-trip time is `rtt`.
    pub fn for_rtt(rtt: Nanos) -> Self {
        let mut o = RunOpts::default();
        o.rto = o.rto.max(2 * rtt);
        o.dcp.coarse_timeout = o.dcp.coarse_timeout.max(4 * rtt);
        // EC's receiver NACK must wait long enough for repair shards that
        // are still in flight.
        o.nack_delay = o.nack_delay.max(rtt / 8);
        o
    }
}

/// Builds a connected endpoint pair of the requested kind with defaults.
pub fn endpoint_pair(
    kind: TransportKind,
    cc: CcKind,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
) -> (Box<dyn Endpoint>, Box<dyn Endpoint>) {
    endpoint_pair_opts(kind, cc, flow, src, dst, RunOpts::default())
}

/// Builds a connected endpoint pair with explicit run options.
pub fn endpoint_pair_opts(
    kind: TransportKind,
    cc: CcKind,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    opts: RunOpts,
) -> (Box<dyn Endpoint>, Box<dyn Endpoint>) {
    let tag = if kind == TransportKind::Dcp { DcpTag::Data } else { DcpTag::NonDcp };
    let cfg = FlowCfg::sender(flow, src, dst, tag);
    match kind {
        TransportKind::Gbn => {
            let (t, r) = gbn_pair(cfg, opts.rto, cc.build(), Placement::Virtual);
            (Box::new(t), Box::new(r))
        }
        TransportKind::Irn => {
            let (t, r) = irn_pair(cfg, opts.rto, cc.build(), Placement::Virtual);
            (Box::new(t), Box::new(r))
        }
        TransportKind::MpRdma => {
            let (t, r) = mprdma_pair(cfg, opts.rto, Placement::Virtual);
            (Box::new(t), Box::new(r))
        }
        TransportKind::RackTlp => {
            let rcfg =
                RackConfig { rto: opts.rto.max(RackConfig::default().rto), ..Default::default() };
            let (t, r) = rack_pair(cfg, rcfg, cc.build(), Placement::Virtual);
            (Box::new(t), Box::new(r))
        }
        TransportKind::TimeoutOnly => {
            let (t, r) = timeout_only_pair(cfg, opts.rto, cc.build(), Placement::Virtual);
            (Box::new(t), Box::new(r))
        }
        TransportKind::Dcp => {
            let (t, r) = dcp_pair(cfg, opts.dcp, cc.build(), Placement::Virtual);
            (Box::new(t), Box::new(r))
        }
        TransportKind::Ec => {
            let (t, r) = ec_pair(cfg, opts.rto, opts.nack_delay, cc.build(), Placement::Virtual);
            (Box::new(t), Box::new(r))
        }
    }
}

/// Outcome of one flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowRecord {
    pub spec: FlowSpec,
    /// Completion time (receiver side), or `None` if the deadline passed.
    pub fct: Option<Nanos>,
    pub tx: TransportStats,
    pub rx: TransportStats,
}

/// Posts `bytes` as a sequence of ≤ 1 MB Write messages — the way verbs
/// applications actually issue large transfers (and what keeps DCP's
/// eMSN-based ACK stream flowing during a long flow). Returns the number of
/// messages posted.
fn post_chunked(sim: &mut Simulator, host: NodeId, flow: FlowId, bytes: u64, chunk: u64) -> u64 {
    let bytes = bytes.max(1);
    let n = bytes.div_ceil(chunk);
    let mut remaining = bytes;
    for i in 0..n {
        let len = remaining.min(chunk);
        remaining -= len;
        sim.post(
            host,
            flow,
            i,
            WorkReqOp::Write { remote_addr: 0x100_0000 + i * chunk, rkey: 1 },
            len,
        );
    }
    n
}

/// Runs `flows` (sorted or not) over the fabric; returns one record each.
///
/// Every flow is one QP carrying its bytes as a chain of ≤ 1 MB Write
/// messages; the flow completes when its last message is delivered.
pub fn run_flows(
    sim: &mut Simulator,
    topo: &Topology,
    kind: TransportKind,
    cc: CcKind,
    flows: &[FlowSpec],
    deadline: Nanos,
) -> Vec<FlowRecord> {
    run_flows_opts(sim, topo, kind, cc, flows, deadline, RunOpts::default())
}

/// [`run_flows`] with explicit [`RunOpts`].
#[allow(clippy::too_many_arguments)]
pub fn run_flows_opts(
    sim: &mut Simulator,
    topo: &Topology,
    kind: TransportKind,
    cc: CcKind,
    flows: &[FlowSpec],
    deadline: Nanos,
    opts: RunOpts,
) -> Vec<FlowRecord> {
    run_flows_hooked(sim, topo, kind, cc, flows, deadline, opts, None)
        .expect("hookless run cannot fail")
}

/// A mid-run window barrier callback: read-only invariant checks (lenient
/// conservation, delivery-oracle scan, liveness verdict) run here while
/// traffic is still flowing. Returning `Err` aborts the run with the
/// violation; the completed-so-far records are discarded by the caller,
/// which typically shrinks the scenario to a repro instead.
pub type WindowHook<'a> = &'a mut dyn FnMut(&mut Simulator) -> Result<(), String>;

/// [`run_flows_opts`] with an optional `(window, hook)` barrier: the hook
/// fires every `window` simulated nanoseconds between event batches.
///
/// Barriers only *bound* how far the engine advances between injections —
/// they never reorder events (the event wheel pops the same `(time, seq)`
/// total order regardless of where the driving loop pauses), so a run with
/// a read-only hook is byte-identical to the same run without one. The
/// `soak_midrun` integration test pins exactly that digest equality.
#[allow(clippy::too_many_arguments)]
pub fn run_flows_hooked(
    sim: &mut Simulator,
    topo: &Topology,
    kind: TransportKind,
    cc: CcKind,
    flows: &[FlowSpec],
    deadline: Nanos,
    opts: RunOpts,
    mut hook: Option<(Nanos, WindowHook)>,
) -> Result<Vec<FlowRecord>, String> {
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by_key(|&i| flows[i].start);
    let mut fct: HashMap<u32, Nanos> = HashMap::new();
    let mut msgs_left: HashMap<u32, u64> = HashMap::new();
    let mut remaining = flows.len();
    let mut next = 0usize;
    let window = hook.as_ref().map_or(Nanos::MAX, |(w, _)| (*w).max(1));
    let mut next_barrier = if hook.is_some() { window } else { Nanos::MAX };
    while remaining > 0 {
        // Inject everything due now.
        while next < order.len() && flows[order[next]].start <= sim.now() {
            let ix = order[next];
            let f = flows[ix];
            let flow_id = FlowId(ix as u32 + 1);
            let (src, dst) = (topo.hosts[f.src], topo.hosts[f.dst]);
            let (tx, rx) = endpoint_pair_opts(kind, cc, flow_id, src, dst, opts);
            sim.install_endpoint(src, flow_id, tx);
            sim.install_endpoint(dst, flow_id, rx);
            if f.tenant.0 != 0 {
                // Both ends carry the tag: data leaves the source under the
                // tenant's egress weight, ACK-class traffic the sink's.
                sim.host_mut(src).set_flow_tenant(flow_id, f.tenant.0);
                sim.host_mut(dst).set_flow_tenant(flow_id, f.tenant.0);
            }
            let n = post_chunked(sim, src, flow_id, f.bytes, opts.chunk);
            msgs_left.insert(ix as u32, n);
            next += 1;
        }
        if sim.now() >= deadline {
            break;
        }
        // Advance: to the next arrival or window barrier if the queue
        // outruns them, else batch to the next completion boundary (whole
        // lookahead windows when the engine is sharded).
        if next < order.len() {
            let next_start = flows[order[next]].start.min(next_barrier);
            // Everything strictly before the next arrival, barrier and
            // deadline runs in one call: no injection, barrier or deadline
            // check can fire in between, and completions keep their times.
            // The step below then meets `next_start` on the same clock as
            // per-event stepping would.
            let before = next_start.min(deadline).saturating_sub(1);
            if before > sim.now() {
                sim.run_until(before);
            }
            if sim.advance_bounded(next_start).is_none() {
                // Queue empty or next event beyond the bound: jump.
                sim.run_until(next_start.min(deadline));
                fire_barrier(sim, &mut hook, &mut next_barrier, window)?;
                continue;
            }
        } else if next_barrier < Nanos::MAX {
            if sim.advance_bounded(next_barrier).is_none() {
                if sim.pending_events() == 0 {
                    break;
                }
                // Next event past the barrier: jump to it and check.
                sim.run_until(next_barrier.min(deadline));
            }
        } else if sim.advance().is_none() {
            break;
        }
        fire_barrier(sim, &mut hook, &mut next_barrier, window)?;
        sim.for_each_completion(|c| {
            if c.kind == CompletionKind::RecvComplete {
                let ix = c.flow.0 - 1;
                let left = msgs_left.get_mut(&ix).expect("completion for known flow");
                *left -= 1;
                if *left == 0 {
                    fct.insert(ix, c.at - flows[ix as usize].start);
                    remaining -= 1;
                }
            }
        });
    }
    // Flow-conservation sanity check (lenient: packets may still be in
    // flight, but the fabric can never account for more packets than were
    // sent). Runs in every figure/table binary via debug assertions; the
    // strict equality check lives in the quiesced integration tests.
    #[cfg(debug_assertions)]
    {
        let c = sim.check_conservation(false);
        debug_assert!(c.is_ok(), "flow conservation violated: {:?}", c.violations);
    }
    Ok(flows
        .iter()
        .enumerate()
        .map(|(ix, &spec)| {
            let flow_id = FlowId(ix as u32 + 1);
            let started = spec.start <= sim.now();
            FlowRecord {
                spec,
                fct: fct.get(&(ix as u32)).copied(),
                tx: if started {
                    sim.endpoint_stats(topo.hosts[spec.src], flow_id)
                } else {
                    TransportStats::default()
                },
                rx: if started {
                    sim.endpoint_stats(topo.hosts[spec.dst], flow_id)
                } else {
                    TransportStats::default()
                },
            }
        })
        .collect())
}

/// Fires the window hook if the clock has crossed the barrier, then
/// re-arms the barrier at the next window boundary past `now`.
fn fire_barrier(
    sim: &mut Simulator,
    hook: &mut Option<(Nanos, WindowHook)>,
    next_barrier: &mut Nanos,
    window: Nanos,
) -> Result<(), String> {
    if let Some((_, h)) = hook {
        if sim.now() >= *next_barrier {
            h(sim)?;
            *next_barrier = (sim.now() / window + 1) * window;
        }
    }
    Ok(())
}
