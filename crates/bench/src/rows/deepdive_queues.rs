//! Deep dive: the control plane under incast, watched at the bottleneck
//! queue.
//!
//! Samples the victim-port data and control queues every 50 µs during an
//! 8-to-1 incast. The §4.2 mechanism in action: the data queue pins at the
//! trim threshold while the control queue, drained by its WRR share, stays
//! shallow — the visible reason HO packets never die.

use super::prelude::*;
use dcp_telemetry::{Json, LogHistogram};

const FAN_IN: usize = 8;

pub fn run(args: &Args) -> Report {
    let export = ExportOpts::from_args(args);
    let mut r = Report::default();
    let mut cfg = dcp_switch_config(LoadBalance::Ecmp, FAN_IN + 2);
    cfg.data_q_threshold = 64 * 1024;
    let mut sim = Simulator::new(53);
    // The loop below looks at the queues after every event; only an
    // unsharded engine's `advance` is that fine (a sharded one returns at
    // completion boundaries), so `DCP_SHARDS` must not split this run.
    sim.disable_auto_partition();
    export.arm_trace(&mut sim, None);
    let topo = incast(&mut sim, cfg, FAN_IN, CcKind::None, 8);
    // The bottleneck is switch 1's cross-link egress (all senders funnel
    // through it): port FAN_IN, the first port added after the host ports.
    let leaf = topo.leaves[0];
    // `(t, data bytes, ctrl bytes)` every 50 µs; the data depths also feed
    // a histogram for p50/p99/p999 without sorting the series.
    let mut samples: Vec<(Nanos, u64, u64)> = Vec::new();
    let (mut depth, mut buffer_peak) = (LogHistogram::default(), 0u64);
    let mut next_at = 0;
    while sim.now() < 8 * MS {
        if sim.advance().is_none() {
            break;
        }
        // One sample per period the event jumped past, each reading the
        // state as it stands now.
        while next_at <= sim.now() {
            let sw = sim.switch(leaf);
            let port = &sw.ports[FAN_IN];
            let data = port.data_queue_bytes() as u64;
            samples.push((next_at, data, port.ctrl_queue_bytes() as u64));
            depth.record(data);
            buffer_peak = buffer_peak.max(sw.buffer_used() as u64);
            next_at += 50 * US;
        }
    }
    println!("Deep dive — victim egress queues during an {FAN_IN}-to-1 incast (DCP, no CC)");
    println!("{:>10}{:>14}{:>14}", "t (us)", "data (KB)", "ctrl (KB)");
    for &(at, data_bytes, ctrl_bytes) in samples.iter().step_by(4) {
        println!(
            "{:>10}{:>14.1}{:>14.2}",
            at / US,
            data_bytes as f64 / 1024.0,
            ctrl_bytes as f64 / 1024.0
        );
    }
    let data_peak = samples.iter().map(|s| s.1).max().unwrap_or(0);
    let ctrl_peak = samples.iter().map(|s| s.2).max().unwrap_or(0);
    let ns = sim.net_stats();
    println!();
    println!(
        "peak data queue {:.0} KB (threshold 64 KB + one burst); peak ctrl queue {:.2} KB;",
        data_peak as f64 / 1024.0,
        ctrl_peak as f64 / 1024.0
    );
    let (p50, p99, p999) = depth.p50_p99_p999();
    println!(
        "data-queue depth percentiles: p50 {:.1} KB, p99 {:.1} KB, p999 {:.1} KB; \
         peak shared buffer {:.0} KB.",
        p50 as f64 / 1024.0,
        p99 as f64 / 1024.0,
        p999 as f64 / 1024.0,
        buffer_peak as f64 / 1024.0
    );
    println!(
        "trims {}, HO drops {} — the WRR share keeps the control plane shallow and lossless.",
        ns.trims, ns.ho_drops
    );
    let bytes = [("data peak", data_peak), ("ctrl peak", ctrl_peak), ("data p50", p50)];
    r.put("bytes", bytes.map(|(col, v)| (col, v as f64)));
    r.put("count", [("trims", ns.trims as f64), ("HO drops", ns.ho_drops as f64)]);
    if let Some(entry) = export.entry("deepdive_incast", 53, &sim, None) {
        let depth = Json::obj()
            .set("p50", p50 as f64)
            .set("p99", p99 as f64)
            .set("p999", p999 as f64)
            .set("peak", data_peak as f64);
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
