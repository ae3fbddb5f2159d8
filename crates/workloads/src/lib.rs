//! `dcp-workloads` — traffic generators, experiment runners and statistics
//! for the DCP evaluation (§6).
//!
//! * [`websearch`] — the WebSearch (DCTCP) flow-size distribution;
//! * [`arrivals`] — Poisson background traffic at a target load and
//!   N-to-1 incast bursts;
//! * [`collectives`] — ring AllReduce and AllToAll schedules with
//!   receive-gated pipelining;
//! * [`runner`] — installs per-flow transports (GBN / IRN / MP-RDMA /
//!   RACK-TLP / timeout-only / DCP, with optional DCQCN or BDP-window CC),
//!   injects flows, collects FCTs;
//! * [`stats`] — FCT slowdowns, percentiles and size-bucketed series;
//! * [`tenants`] — multi-tenant mixes (websearch + storage + AllReduce
//!   sharing one fabric), every flow tagged with its [`TenantId`].

pub mod arrivals;
pub mod collectives;
pub mod io;
pub mod runner;
pub mod stats;
pub mod tenants;
pub mod websearch;

pub use arrivals::{
    incast_flows, merge, poisson_flows, poisson_flows_until, tag_tenant, FlowSpec, TenantId,
};
pub use collectives::{run_collective, Collective, Group, GroupResult};
pub use io::to_csv;
pub use runner::{
    endpoint_pair, endpoint_pair_opts, run_flows, run_flows_hooked, run_flows_opts, CcKind,
    FlowRecord, RunOpts, TransportKind, WindowHook,
};
pub use stats::{
    overall_slowdown, percentile, slowdown_by_size, unfinished, BucketRow, FctSummary, IdealFct,
};
pub use tenants::{
    ring_allreduce_flows, tenant_flows, tenant_incast_surge, tenant_mix, TenantKind, TenantSpec,
};
pub use websearch::SizeDist;
