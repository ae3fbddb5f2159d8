//! The scenario table: every experiment `dcp` runs, one module each with a
//! `run` and, for the paper's figures, tables and ablations, a `shape` —
//! the paper's result as it holds at quick scale. A paper claim that does
//! not hold there is left out and recorded in EXPERIMENTS.md as a finding.

use crate::cli::Flag::{Positional, Switch, Value};
use crate::cli::{Row, FULL};
use crate::metrics::{METRICS_OUT, SPANS_OUT, TRACE_OUT};

/// The vocabulary the figure, table and ablation rows share.
mod prelude {
    pub(super) use crate::{bdp_cc, build_clos, default_cc, ensure, fmt_opt, goodput, grid};
    pub(super) use crate::{incast, paper_schemes, stream, sweep, websearch_incast};
    pub(super) use crate::{Args, ExportOpts, MetricsDoc, Report, Scale, DEADLINE, MB};
    pub(super) use dcp_core::dcp_switch_config;
    pub(super) use dcp_netsim::{topology, EcnConfig, LoadBalance, Nanos, Simulator, SwitchConfig};
    pub(super) use dcp_netsim::{MS, SEC, US};
    pub(super) use dcp_workloads::{endpoint_pair, overall_slowdown, run_flows, unfinished};
    pub(super) use dcp_workloads::{CcKind, IdealFct, TransportKind};
    pub(super) use rand::{rngs::StdRng, SeedableRng};
}

/// `module: flags` declares the row's module and its table entry, named
/// after the module; `, shape` when the module has a predicate.
macro_rules! rows {
    ($($m:ident: $flags:expr $(, $shape:ident)?;)*) => {
        $(mod $m;)*
        pub const ROWS: &[Row] = &[$(Row {
            name: stringify!($m),
            flags: $flags,
            run: $m::run,
            shape: rows!(@ $m $($shape)?),
        }),*];
    };
    (@ $m:ident shape) => { Some($m::shape) };
    (@ $m:ident) => { None };
}

rows! {
    table1_lossless_distance: &[], shape;
    table3_tracking_memory: &[], shape;
    table4_resources: &[], shape;
    fig07_packet_rate: &[], shape;
    fig01_spurious_retx: &[FULL, METRICS_OUT], shape;
    fig02_timeouts: &[FULL, METRICS_OUT, TRACE_OUT], shape;
    fig08_perftest: &[], shape;
    fig10_loss_recovery: &[], shape;
    fig11_unequal_paths: &[], shape;
    fig12_testbed_ai: &[], shape;
    fig13_websearch: &[FULL, METRICS_OUT], shape;
    fig14_ai_sim: &[FULL], shape;
    fig15_cross_dc: &[FULL], shape;
    fig16_incast_cc: &[FULL], shape;
    fig17_loss_schemes: &[], shape;
    table5_ho_loss: &[FULL, METRICS_OUT], shape;
    ablation_retrans_batch: &[], shape;
    ablation_wrr_weight: &[], shape;
    ablation_lb_compat: &[], shape;
    ablation_ho_return: &[], shape;
    deepdive_queues: &[METRICS_OUT, TRACE_OUT, SPANS_OUT], shape;
    fault_matrix: &[FULL, Switch("quick"), Switch("ec-smoke"), METRICS_OUT];
    check_matrix: &[FULL, Switch("quick"), Value("repro-out")];
    soak: &[FULL, Switch("quick"), Switch("calibrate"), Value("out"), Value("repro-out")];
    dcp_sim: dcp_sim::FLAGS;
    dcp_trace: &[Positional, Value("perfetto"), Value("spans"), Value("flow"), Switch("stats")];
    validate_metrics: &[Positional];
}
