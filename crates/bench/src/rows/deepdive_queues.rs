//! Deep dive: the control plane under incast, watched at the bottleneck
//! queue.
//!
//! Samples the victim-port data and control queues every 50 µs during an
//! 8-to-1 incast. The §4.2 mechanism in action: the data queue pins at the
//! trim threshold while the control queue, drained by its WRR share, stays
//! shallow — the visible reason HO packets never die.

use super::prelude::*;
use dcp_netsim::trace::Sampler;
use dcp_telemetry::Json;

const FAN_IN: usize = 8;

pub fn run(args: &Args) -> Report {
    let export = ExportOpts::from_args(args);
    let mut r = Report::default();
    let mut cfg = dcp_switch_config(LoadBalance::Ecmp, FAN_IN + 2);
    cfg.data_q_threshold = 64 * 1024;
    let mut sim = Simulator::new(53);
    // The sampler below looks at the queues after every event; only an
    // unsharded engine's `advance` is that fine (a sharded one returns at
    // completion boundaries), so `DCP_SHARDS` must not split this run.
    sim.disable_auto_partition();
    export.arm_trace(&mut sim, None);
    let topo = incast(&mut sim, cfg, FAN_IN, CcKind::None, 8);
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
    let bytes = [("data peak", data.peak()), ("ctrl peak", ctrl.peak()), ("data p50", p50)];
    r.put("bytes", bytes.map(|(col, v)| (col, v as f64)));
    r.put("count", [("trims", ns.trims as f64), ("HO drops", ns.ho_drops as f64)]);
    if let Some(entry) = export.entry("deepdive_incast", 53, &sim, None) {
        let depth = Json::obj()
            .set("p50", p50 as f64)
            .set("p99", p99 as f64)
            .set("p999", p999 as f64)
            .set("peak", data.peak() as f64);
        let mut doc = MetricsDoc::new("deepdive_queues").config("fan_in", FAN_IN);
        doc.extend([entry.set("queue_depth_bytes", depth)]);
        export.write_metrics(doc);
    }
    export.finish_trace(&mut sim).print();
    r
}

/// Data queue median and peak within 4 KB of the 64 KB threshold, control
/// queue under 2 KB, trims and no HO drop.
pub fn shape(r: &Report) -> Result<(), String> {
    let (peak, p50, ctrl) =
        (r.get("bytes", "data peak"), r.get("bytes", "data p50"), r.get("bytes", "ctrl peak"));
    let threshold = 64.0 * 1024.0;
    ensure!((p50 - threshold).abs() < 4096.0, "data p50 {p50} B");
    ensure!((peak - threshold).abs() < 4096.0, "data peak {peak} B");
    ensure!(ctrl < 2048.0, "ctrl peak {ctrl} B");
    let (trims, drops) = (r.get("count", "trims"), r.get("count", "HO drops"));
    ensure!(trims > 0.0 && drops == 0.0, "trims {trims}, HO drops {drops}");
    Ok(())
}
