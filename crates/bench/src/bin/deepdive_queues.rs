//! Deep dive: the control plane under incast, watched at the bottleneck
//! queue.
//!
//! Samples the victim-port data and control queues every 50 µs during an
//! 8-to-1 incast. The §4.2 mechanism in action: the data queue pins at the
//! trim threshold while the control queue, drained by its WRR share, stays
//! shallow — the visible reason HO packets never die.

use dcp_bench::{run_entry_counters, ExportOpts, MetricsDoc, METRICS_OUT, SPANS_OUT, TRACE_OUT};
use dcp_core::dcp_switch_config;
use dcp_netsim::packet::FlowId;
use dcp_netsim::time::{MS, US};
use dcp_netsim::trace::Sampler;
use dcp_netsim::{topology, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_telemetry::Json;
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

const FAN_IN: usize = 8;

fn main() {
    let export = ExportOpts::from_env_args(&[METRICS_OUT, TRACE_OUT, SPANS_OUT]);
    let mut cfg = dcp_switch_config(LoadBalance::Ecmp, FAN_IN + 2);
    cfg.data_q_threshold = 64 * 1024;
    let mut sim = Simulator::new(53);
    // The sampler below looks at the queues after every event; only an
    // unsharded engine's `advance` is that fine (a sharded one returns at
    // completion boundaries), so `DCP_SHARDS` must not split this run.
    sim.disable_auto_partition();
    export.arm_trace(&mut sim);
    let topo = topology::two_switch_testbed(&mut sim, cfg, FAN_IN, 100.0, &[100.0], US, US);
    let victim = topo.hosts[FAN_IN];
    for i in 0..FAN_IN {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) = endpoint_pair(TransportKind::Dcp, CcKind::None, flow, topo.hosts[i], victim);
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(victim, flow, rx);
        for m in 0..8u64 {
            sim.post(
                topo.hosts[i],
                flow,
                m,
                WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
                1 << 20,
            );
        }
    }
    // The bottleneck is switch 1's cross-link egress (all senders funnel
    // through it): port FAN_IN, the first port added after the host ports.
    let mut sampler = Sampler::new(50 * US)
        .track_port_queues("victim", topo.leaves[0], FAN_IN)
        .track_switch_buffer("leaf0.buffer", topo.leaves[0]);
    while sim.now() < 8 * MS {
        if sim.advance().is_none() {
            break;
        }
        sampler.poll(&sim);
    }
    let (data, ctrl) = (sampler.channel("victim.data"), sampler.channel("victim.ctrl"));
    println!("Deep dive — victim egress queues during an {FAN_IN}-to-1 incast (DCP, no CC)");
    println!("{:>10}{:>14}{:>14}", "t (us)", "data (KB)", "ctrl (KB)");
    for (i, &(at, data_bytes)) in data.samples.iter().enumerate().step_by(4) {
        println!(
            "{:>10}{:>14.1}{:>14.2}",
            at / US,
            data_bytes as f64 / 1024.0,
            ctrl.samples[i].1 as f64 / 1024.0
        );
    }
    let ns = sim.net_stats();
    println!();
    println!(
        "peak data queue {:.0} KB (threshold 64 KB + one burst); peak ctrl queue {:.2} KB;",
        data.peak() as f64 / 1024.0,
        ctrl.peak() as f64 / 1024.0
    );
    let (p50, p99, p999) = data.histogram().p50_p99_p999();
    println!(
        "data-queue depth percentiles: p50 {:.1} KB, p99 {:.1} KB, p999 {:.1} KB; \
         peak shared buffer {:.0} KB.",
        p50 as f64 / 1024.0,
        p99 as f64 / 1024.0,
        p999 as f64 / 1024.0,
        sampler.channel("leaf0.buffer").peak() as f64 / 1024.0
    );
    println!(
        "trims {}, HO drops {} — the WRR share keeps the control plane shallow and lossless.",
        ns.trims, ns.ho_drops
    );
    if export.metrics_out.is_some() {
        let cons = sim.check_conservation(false);
        let entry =
            run_entry_counters("deepdive_incast", 53, &ns, &sim.all_endpoint_stats(), &cons).set(
                "queue_depth_bytes",
                Json::obj()
                    .set("p50", p50 as f64)
                    .set("p99", p99 as f64)
                    .set("p999", p999 as f64)
                    .set("peak", data.peak() as f64),
            );
        let mut doc = MetricsDoc::new("deepdive_queues").config("fan_in", FAN_IN);
        doc.push_run(entry);
        export.write_metrics(doc);
    }
    export.write_trace(&mut sim);
}
