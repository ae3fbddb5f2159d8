//! `dcp-bench` — the harness that regenerates every table and figure of
//! the paper's evaluation.
//!
//! Each `src/bin/figXX_*` / `src/bin/tableX_*` binary reproduces one
//! experiment and prints the same rows/series the paper reports. Binaries
//! default to a laptop-scale configuration that preserves the *shape* of
//! the result (who wins, by what factor, where crossovers fall); set
//! `DCP_FULL=1` to run at the paper's fabric scale (256 hosts, more flows —
//! minutes to hours of wall time).
//!
//! This library holds the shared scaffolding: scale selection, fabric
//! construction, flow driving and result formatting.

use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{Nanos, SEC, US};
use dcp_netsim::{topology, Simulator, Topology};
use dcp_workloads::{CcKind, TransportKind};

pub mod digest;
pub mod metrics;
pub mod sweep;

pub use metrics::{
    run_entry, run_entry_counters, spans_doc, ExportOpts, MetricsDoc, METRICS_OUT, METRICS_SCHEMA,
    SPANS_OUT, TRACE_OUT,
};
pub use sweep::{sweep, sweep_with_threads};

/// Experiment scale, from the `DCP_FULL` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds of wall time; preserves shapes.
    Quick,
    /// The paper's scale (16 spines × 16 leaves × 16 hosts, full flow
    /// counts).
    Full,
}

impl Scale {
    pub fn from_env() -> Self {
        if std::env::var("DCP_FULL").map(|v| v == "1").unwrap_or(false) {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// CLOS dimensions `(spines, leaves, hosts_per_leaf)`.
    pub fn clos_dims(self) -> (usize, usize, usize) {
        match self {
            Scale::Quick => (4, 4, 4),
            Scale::Full => (16, 16, 16),
        }
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
            Scale::Quick => "quick (set DCP_FULL=1 for paper scale)",
            Scale::Full => "FULL (paper scale)",
        }
    }
}

/// Builds the standard simulation CLOS at the chosen scale.
pub fn build_clos(
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
) -> Vec<(dcp_netsim::NodeId, dcp_netsim::PortId)> {
    let mut cables = Vec::new();
    for &leaf in &topo.leaves {
        for port in hosts_per_leaf..sim.switch(leaf).ports.len() {
            cables.push((leaf, port));
        }
    }
    cables
}

/// Default BDP-window CC for the window-based baselines.
pub fn bdp_cc() -> CcKind {
    CcKind::Bdp { gbps: 100.0, rtt: 12 * US }
}

/// The CC each transport uses by default in the paper's comparisons:
/// IRN runs its BDP flow control, MP-RDMA brings its own adaptive window,
/// DCP integrates DCQCN (§3), GBN/PFC run BDP-windowed.
pub fn default_cc(kind: TransportKind) -> CcKind {
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

/// Streams `total` bytes (as 1 MB messages) over one flow between two
/// directly meaningful hosts and returns goodput in Gbps, or `None` if the
/// stream did not finish by `deadline` (the caller prints `n/a` for that
/// sweep point instead of the whole figure aborting). Shared by the
/// loss-sweep figures (10, 17) and Fig. 11.
#[allow(clippy::too_many_arguments)]
pub fn stream_goodput(
    sim: &mut Simulator,
    topo: &Topology,
    kind: TransportKind,
    cc: CcKind,
    src_ix: usize,
    dst_ix: usize,
    total: u64,
    deadline: Nanos,
) -> Option<f64> {
    use dcp_netsim::packet::FlowId;
    use dcp_netsim::CompletionKind;
    use dcp_rdma::qp::WorkReqOp;
    let flow = FlowId(1);
    let (src, dst) = (topo.hosts[src_ix], topo.hosts[dst_ix]);
    let (tx, rx) = dcp_workloads::endpoint_pair(kind, cc, flow, src, dst);
    sim.install_endpoint(src, flow, tx);
    sim.install_endpoint(dst, flow, rx);
    let chunk = 1u64 << 20;
    let n = total.div_ceil(chunk);
    for i in 0..n {
        sim.post(
            src,
            flow,
            i,
            WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
            chunk.min(total - i * chunk),
        );
    }
    let mut done = 0;
    let mut last = 0;
    while done < n && sim.now() < deadline {
        if sim.advance().is_none() {
            break;
        }
        sim.for_each_completion(|c| {
            if c.kind == CompletionKind::RecvComplete {
                done += 1;
                last = c.at;
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
    if done < n {
        eprintln!("warn: {kind:?}: stream incomplete ({done}/{n} messages) at t={} ns", sim.now());
        return None;
    }
    Some(total as f64 * 8.0 / last as f64)
}

/// Formats an optional goodput/slowdown value, `n/a` for missed points.
pub fn fmt_opt(v: Option<f64>, prec: usize) -> String {
    match v {
        Some(v) => format!("{v:.prec$}"),
        None => "n/a".to_string(),
    }
}

/// Formats a slowdown series as aligned columns.
pub fn print_series(header: &str, rows: &[(String, Vec<f64>)], cols: &[&str]) {
    println!("{header}");
    print!("{:<16}", "");
    for c in cols {
        print!("{c:>12}");
    }
    println!();
    for (label, vals) in rows {
        print!("{label:<16}");
        for v in vals {
            print!("{v:>12.2}");
        }
        println!();
    }
    println!();
}

/// Standard experiment deadline.
pub const DEADLINE: Nanos = 300 * SEC;
