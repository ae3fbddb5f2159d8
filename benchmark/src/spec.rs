//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics with the end-to-end metric each should
//! move. `BENCHMARK.json` at the repo root is [`benchmark_json`] rendered;
//! a test fails if the two drift apart.

use crate::workloads::Workload;
use dcp_telemetry::Json;

/// How long one run measures, nominally: five reps of ~2 s each.
pub const RUN_SECONDS: u64 = 10;

/// The benchmark's own directory, relative to the repo root.
pub const PATH: &str = "benchmark";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Why each workload exists, in one line.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::IncastTrim => {
            "64 back-to-back 16-to-1 DCP bursts on a two-switch fabric: switch trim/WRR and core sender-HO/receiver tracking do the work; queue depth, routing and the runner do little"
        }
        Workload::IncastTrimScope => {
            "incast_trim's inputs with dcp-scope full capture on: the only workload where telemetry/scope work, and the row the <=5% capture target is claimed on"
        }
        Workload::WebsearchClos256 => {
            "WebSearch Poisson arrivals (open loop, load 0.5) on the paper-scale 16x16x16 CLOS, DCP+DCQCN+adaptive routing: runner injection, QP install, AR, DCQCN, deep calendar queue; trimming is rare"
        }
        Workload::LossyMix => {
            "one Poisson flow list over IRN, RACK-TLP, EC and DCP on an 8x8x8 CLOS with Gilbert-Elliott loss on every fabric cable: faults, RTO timers and the baseline transports do the work"
        }
        Workload::ChurnQp => {
            "250k Poisson flow lifetimes (16 KB, 400 ns gap) through install, post, complete, remove, recycle: connection-table slab, timer wheel and endpoint recycle dominate; switch queues idle"
        }
        Workload::Allreduce1024Sh8 => {
            "16 cross-pod ring all-reduce groups on the 1024-host three-tier CLOS, 8 shards on one worker (closed loop): the only workload with shard windows and mailboxes on the blocking path"
        }
    }
}

/// One end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host time: input generation + topology build + up-front installs of one rep, outside the timed region (median over reps)",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host time of one rep's timed region, first post to quiescence (median over reps)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "host memory: VmHWM of the workload's process",
    },
    EndToEnd {
        name: "sim_goodput_gbps",
        unit: "Gbps",
        better: Better::Higher,
        bound: 0.10,
        what: "simulated: delivered first-copy payload bits per flow-nanosecond (sum of bytes over sum of completion times; ops of all reps pooled per transport, mean over transports)",
    },
    EndToEnd {
        name: "sim_slowdown_p50",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        what: "simulated: median of completion time / ideal completion time (pooled per transport, mean over transports)",
    },
    EndToEnd {
        name: "sim_slowdown_p99",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
        what: "simulated: 99th percentile of the same ratio (pooled per transport, mean over transports)",
    },
    EndToEnd {
        name: "sim_tx_per_pkt",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        what: "simulated: data packets sent, retransmissions included, per first copy (1 + Fig. 1's retransmission ratio)",
    },
];

/// One per-layer metric, with the prediction of what it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub layer: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count made by the program: repeats exactly for a fixed seed.
    pub count: bool,
    /// In-situ (from a workload's traced pass) or a kernel.
    pub kernel: bool,
    /// `(end-to-end metric, workload)` it should move; "none" where the
    /// prediction is that nothing moves.
    pub moves: &'static str,
}

const fn situ(
    name: &'static str,
    layer: &'static str,
    unit: &'static str,
    better: Better,
    count: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, layer, unit, better, count, kernel: false, moves }
}

const fn kernel(name: &'static str, layer: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, layer, unit: "ns", better: Better::Lower, count: false, kernel: true, moves }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    situ("netsim.events", "netsim", "count", Lower, true, "wall_s on every workload"),
    situ("netsim.events_per_s", "netsim", "1/s", Higher, false, "wall_s on every workload"),
    situ(
        "netsim.peak_pending",
        "netsim",
        "count",
        Lower,
        true,
        "wall_s on websearch_clos256, allreduce_1024_sh8",
    ),
    situ(
        "netsim.run_self_ns_per_event",
        "netsim",
        "ns",
        Lower,
        false,
        "wall_s on incast_trim, allreduce_1024_sh8",
    ),
    situ(
        "netsim.install_ns",
        "netsim",
        "ns",
        Lower,
        false,
        "wall_s on churn_qp; setup_s on incast_trim",
    ),
    situ("netsim.remove_ns", "netsim", "ns", Lower, false, "wall_s on churn_qp"),
    situ("netsim.post_ns", "netsim", "ns", Lower, false, "wall_s on churn_qp"),
    situ(
        "netsim.steady_allocs_per_mevent",
        "netsim",
        "count",
        Lower,
        true,
        "wall_s, peak_rss_mb on churn_qp",
    ),
    situ(
        "netsim.trims",
        "netsim",
        "count",
        Lower,
        true,
        "sim_tx_per_pkt, sim_slowdown_p99 on incast_trim",
    ),
    situ(
        "netsim.data_drops",
        "netsim",
        "count",
        Lower,
        true,
        "sim_tx_per_pkt, sim_slowdown_p99 on lossy_mix",
    ),
    situ(
        "netsim.fault_drops",
        "netsim",
        "count",
        Lower,
        true,
        "sim_tx_per_pkt, sim_slowdown_p99 on lossy_mix",
    ),
    situ("netsim.ho_drops", "netsim", "count", Lower, true, "sim_slowdown_p99 on lossy_mix"),
    situ(
        "netsim.ecn_marks",
        "netsim",
        "count",
        Lower,
        true,
        "sim_slowdown_p50 on websearch_clos256",
    ),
    situ("netsim.shard.serial_wall_s", "netsim", "s", Lower, false, "wall_s on allreduce_1024_sh8"),
    situ(
        "netsim.shard.speedup_vs_serial",
        "netsim",
        "x",
        Higher,
        false,
        "wall_s on allreduce_1024_sh8",
    ),
    situ(
        "netsim.shard.parallel_wall_s",
        "netsim",
        "s",
        Lower,
        false,
        "none (2 workers; too noisy on 2 vCPUs to gate)",
    ),
    situ(
        "netsim.shard.parallel_speedup",
        "netsim",
        "x",
        Higher,
        false,
        "none (1-worker wall / 2-worker wall)",
    ),
    kernel("netsim.equeue.ns_per_op.d1k", "netsim", "wall_s on incast_trim"),
    kernel(
        "netsim.equeue.ns_per_op.d20k",
        "netsim",
        "wall_s on websearch_clos256, churn_qp, allreduce_1024_sh8",
    ),
    kernel("netsim.equeue.ns_per_op.d320k", "netsim", "none (the clos_4096 regime; no workload)"),
    kernel("netsim.twheel.ns_per_op.100k", "netsim", "wall_s on churn_qp, lossy_mix"),
    kernel("netsim.pool.ns_per_op", "netsim", "wall_s on every workload"),
    kernel("netsim.ready.ns_per_op", "netsim", "wall_s on churn_qp, websearch_clos256"),
    kernel("netsim.host.qp_ref_ns", "netsim", "wall_s on churn_qp"),
    kernel(
        "netsim.switch.fwd_ns_per_pkt",
        "netsim",
        "wall_s on websearch_clos256, allreduce_1024_sh8",
    ),
    kernel("netsim.switch.trim_ns_per_pkt", "netsim", "wall_s on incast_trim"),
    situ(
        "core.pull_ns",
        "core",
        "ns",
        Lower,
        false,
        "wall_s on incast_trim, some on websearch_clos256",
    ),
    situ(
        "core.on_packet_ns",
        "core",
        "ns",
        Lower,
        false,
        "wall_s on incast_trim, some on websearch_clos256",
    ),
    situ("core.on_timer_ns", "core", "ns", Lower, false, "wall_s on churn_qp"),
    situ("core.pull_calls", "core", "count", Lower, true, "wall_s on incast_trim"),
    situ("core.on_packet_calls", "core", "count", Lower, true, "wall_s on incast_trim"),
    situ("core.on_timer_calls", "core", "count", Lower, true, "wall_s on churn_qp"),
    situ("core.pull_useful_ratio", "core", "ratio", Higher, true, "wall_s on incast_trim"),
    situ(
        "core.share",
        "core",
        "ratio",
        Lower,
        false,
        "wall_s on incast_trim most, websearch_clos256 some",
    ),
    situ(
        "core.ho_received",
        "core",
        "count",
        Lower,
        true,
        "sim_tx_per_pkt, sim_slowdown_p99 on incast_trim",
    ),
    situ("core.retx_pkts", "core", "count", Lower, true, "sim_tx_per_pkt on incast_trim"),
    situ(
        "core.timeouts",
        "core",
        "count",
        Lower,
        true,
        "sim_slowdown_p99 on incast_trim, lossy_mix",
    ),
    situ("core.duplicates", "core", "count", Lower, true, "sim_tx_per_pkt on incast_trim"),
    kernel("core.tracking.ns_per_pkt", "core", "wall_s on incast_trim"),
    kernel("core.loop_ns_per_pkt", "core", "wall_s on websearch_clos256, churn_qp"),
    kernel("core.loop_ho_ns_per_pkt", "core", "wall_s on incast_trim"),
    situ("transport.irn.wall_s", "transport", "s", Lower, false, "wall_s on lossy_mix"),
    situ("transport.irn.ns_per_call", "transport", "ns", Lower, false, "wall_s on lossy_mix"),
    situ("transport.irn.share", "transport", "ratio", Lower, false, "wall_s on lossy_mix"),
    situ(
        "transport.irn.tx_per_pkt",
        "transport",
        "ratio",
        Lower,
        true,
        "sim_tx_per_pkt on lossy_mix",
    ),
    situ(
        "transport.irn.timeouts",
        "transport",
        "count",
        Lower,
        true,
        "sim_slowdown_p99 on lossy_mix",
    ),
    situ(
        "transport.irn.slowdown_p50",
        "transport",
        "ratio",
        Lower,
        true,
        "sim_slowdown_p50 on lossy_mix",
    ),
    situ(
        "transport.irn.slowdown_p99",
        "transport",
        "ratio",
        Lower,
        true,
        "sim_slowdown_p99 on lossy_mix",
    ),
    situ("transport.racktlp.wall_s", "transport", "s", Lower, false, "wall_s on lossy_mix"),
    situ("transport.racktlp.ns_per_call", "transport", "ns", Lower, false, "wall_s on lossy_mix"),
    situ("transport.racktlp.share", "transport", "ratio", Lower, false, "wall_s on lossy_mix"),
    situ(
        "transport.racktlp.tx_per_pkt",
        "transport",
        "ratio",
        Lower,
        true,
        "sim_tx_per_pkt on lossy_mix",
    ),
    situ(
        "transport.racktlp.timeouts",
        "transport",
        "count",
        Lower,
        true,
        "sim_slowdown_p99 on lossy_mix",
    ),
    situ(
        "transport.racktlp.slowdown_p50",
        "transport",
        "ratio",
        Lower,
        true,
        "sim_slowdown_p50 on lossy_mix",
    ),
    situ(
        "transport.racktlp.slowdown_p99",
        "transport",
        "ratio",
        Lower,
        true,
        "sim_slowdown_p99 on lossy_mix",
    ),
    situ("transport.ec.wall_s", "transport", "s", Lower, false, "wall_s on lossy_mix"),
    situ("transport.ec.ns_per_call", "transport", "ns", Lower, false, "wall_s on lossy_mix"),
    situ("transport.ec.share", "transport", "ratio", Lower, false, "wall_s on lossy_mix"),
    situ(
        "transport.ec.tx_per_pkt",
        "transport",
        "ratio",
        Lower,
        true,
        "sim_tx_per_pkt on lossy_mix",
    ),
    situ(
        "transport.ec.timeouts",
        "transport",
        "count",
        Lower,
        true,
        "sim_slowdown_p99 on lossy_mix",
    ),
    situ(
        "transport.ec.slowdown_p50",
        "transport",
        "ratio",
        Lower,
        true,
        "sim_slowdown_p50 on lossy_mix",
    ),
    situ(
        "transport.ec.slowdown_p99",
        "transport",
        "ratio",
        Lower,
        true,
        "sim_slowdown_p99 on lossy_mix",
    ),
    kernel("transport.gbn.loop_ns_per_pkt", "transport", "none (GBN is in no workload)"),
    kernel("transport.irn.loop_ns_per_pkt", "transport", "wall_s on lossy_mix"),
    kernel("transport.racktlp.loop_ns_per_pkt", "transport", "wall_s on lossy_mix"),
    kernel(
        "transport.timeout_only.loop_ns_per_pkt",
        "transport",
        "none (timeout-only is in no workload)",
    ),
    kernel("transport.mprdma.loop_ns_per_pkt", "transport", "none (MP-RDMA is in no workload)"),
    kernel("transport.ec.loop_ns_per_pkt", "transport", "wall_s on lossy_mix"),
    kernel(
        "transport.ec.codec.encode_ns_per_kb",
        "transport",
        "none (no payload bytes flow through the codec in-sim)",
    ),
    kernel(
        "transport.ec.codec.decode_ns_per_kb",
        "transport",
        "none (no payload bytes flow through the codec in-sim)",
    ),
    situ("faults.on_arrival_ns", "faults", "ns", Lower, false, "wall_s on lossy_mix"),
    situ(
        "faults.on_arrival_calls",
        "faults",
        "count",
        Lower,
        true,
        "wall_s on lossy_mix; 0 on the other five",
    ),
    situ("faults.loss_ratio", "faults", "ratio", Lower, true, "sim_tx_per_pkt on lossy_mix"),
    kernel("faults.loss.ge_roll_ns", "faults", "wall_s on lossy_mix"),
    situ("scope.record_ns", "scope", "ns", Lower, false, "wall_s on incast_trim_scope"),
    situ("scope.records", "scope", "count", Lower, true, "wall_s on incast_trim_scope"),
    situ(
        "scope.doc_build_s",
        "scope",
        "s",
        Lower,
        false,
        "none (the fold runs after the timed region)",
    ),
    situ("scope.capture_overhead_pct", "scope", "%", Lower, false, "wall_s on incast_trim_scope"),
    kernel("telemetry.probe.dispatch_ns", "telemetry", "wall_s on incast_trim_scope"),
    kernel(
        "telemetry.hist.record_ns",
        "telemetry",
        "none (histograms fill after the timed region)",
    ),
    kernel("check.oracle.record_ns", "check", "none (the oracle runs in the traced pass only)"),
    situ("check.violations", "check", "count", Lower, true, "failed ops on every workload"),
    situ(
        "workloads.gen_ns_per_flow",
        "workloads",
        "ns",
        Lower,
        false,
        "setup_s on websearch_clos256",
    ),
    situ(
        "workloads.drive_self_ns_per_op",
        "workloads",
        "ns",
        Lower,
        false,
        "wall_s on churn_qp, websearch_clos256",
    ),
    kernel(
        "rdma.wire.encode_ns",
        "rdma",
        "none (the wire codec is not on the simulator's packet path)",
    ),
    kernel(
        "rdma.wire.decode_ns",
        "rdma",
        "none (the wire codec is not on the simulator's packet path)",
    ),
    kernel(
        "rdma.wire.trim_ns",
        "rdma",
        "wall_s on incast_trim (header trim is on the switch path)",
    ),
    kernel(
        "rdma.segment.ns_per_pkt",
        "rdma",
        "wall_s on every workload (descriptor per packet sent)",
    ),
    situ(
        "trace.overhead_pct",
        "trace",
        "%",
        Lower,
        false,
        "none (traced wall / bare wall - 1; the price of the traced pass)",
    ),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The one command, as the driver runs it from the repo root.
pub fn command() -> Vec<&'static str> {
    vec!["cargo", "run", "--release", "--offline", "--manifest-path", "benchmark/Cargo.toml", "--"]
}

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn benchmark_json() -> Json {
    let strs = |v: Vec<&str>| Json::Arr(v.into_iter().map(Json::from).collect());
    Json::obj()
        .set("command", strs(command()))
        .set("paths", strs(vec![PATH]))
        .set("run_seconds", RUN_SECONDS)
        .set(
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|&w| Json::obj().set("name", w.name()).set("why", why(w)))
                    .collect(),
            ),
        )
        .set(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .set("name", m.name)
                            .set("unit", m.unit)
                            .set("better", m.better.as_str())
                            .set("bound", m.bound)
                    })
                    .collect(),
            ),
        )
        .set(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .set("name", m.name)
                            .set("unit", m.unit)
                            .set("better", m.better.as_str())
                    })
                    .collect(),
            ),
        )
}

/// The human-readable form of the same tables (`-- list`).
pub fn list_text() -> String {
    let mut out = String::new();
    out.push_str(&format!("command: {}\n", command().join(" ")));
    out.push_str(&format!("run_seconds: {RUN_SECONDS}\n\nworkloads:\n"));
    for w in Workload::ALL {
        out.push_str(&format!("  {:<20} {}\n", w.name(), why(w)));
    }
    out.push_str("\nend-to-end metrics (same set on every workload):\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "  {:<18} {:<6} {:<7} bound {:<5} {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        ));
    }
    out.push_str("\nper-layer metrics (layer, unit, better, count?, source -> should move):\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<40} {:<10} {:<6} {:<7} {:<6} {:<8} -> {}\n",
            m.name,
            m.layer,
            m.unit,
            m.better.as_str(),
            if m.count { "count" } else { "time" },
            if m.kernel { "kernel" } else { "in-situ" },
            m.moves
        ));
    }
    out
}
