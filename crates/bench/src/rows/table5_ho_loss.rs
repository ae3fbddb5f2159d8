//! Table 5: robustness of the lossless control plane — HO-packet loss rate
//! under severe incast, for WRR weights configured as if the switch radix
//! were N = 22 and N = 16, with and without DCQCN.
//!
//! The metric is the *ratio of lost HO packets over all HO packets* during
//! a fixed simulated window of sustained incast (the paper measures the
//! same ratio over its run); senders keep their queues full throughout.
//!
//! A second sweep injects *wire* bit errors on the cross-switch cable
//! (`dcp-faults` BER model) and measures loss by packet size: the same BER
//! that corrupts most 1 KB data packets barely touches 57-B header-only
//! packets — the physical footing of the paper's claim that the control
//! plane stays effectively lossless on fabrics that eat data.

use super::prelude::*;
use dcp_core::effective_wrr_weight;
use dcp_faults::{ber_packet_loss, FaultEngine, FaultPlan, LossModel};
use dcp_netsim::{NetStats, TransportStats};
use dcp_telemetry::Json;

/// The incast funnel's switch: §4.2's dispatch for an `n_ports` radix with
/// control weight `weight`, a 16 KB trim threshold and a small 2 MB shared
/// buffer, so control-queue overload can actually drop.
pub fn funnel_switch(n_ports: usize, weight: f64) -> SwitchConfig {
    let mut cfg = dcp_switch_config(LoadBalance::Ecmp, n_ports);
    cfg.ctrl_weight = weight;
    cfg.data_q_threshold = 16 * 1024;
    cfg.buffer_bytes = 2 << 20;
    cfg
}

/// HO drops and all HOs (forwarded + dropped) in `ns`.
pub fn ho_loss(ns: &NetStats) -> (u64, u64) {
    (ns.ho_drops, ns.ho_forwarded + ns.ho_drops)
}

/// One 20 ms window of sustained incast: `fan_in` senders posting `msgs`
/// 1 MB writes each, the control weight derived for `n_cfg` ports, DCQCN
/// with ECN marking when `with_cc`, and `ber` uniform bit errors on both
/// directions of the cross-switch cable. Returns the fabric and endpoint
/// counters and, under `--metrics-out`, the run's entry as `label`.
#[allow(clippy::too_many_arguments)]
fn funnel(
    export: &ExportOpts,
    label: &str,
    fan_in: usize,
    n_cfg: usize,
    with_cc: bool,
    msgs: usize,
    ber: f64,
) -> (NetStats, TransportStats, Option<Json>) {
    let mut cfg = funnel_switch(n_cfg, effective_wrr_weight(n_cfg, dcp_rdma::MTU, 8.0));
    let cc = if with_cc {
        cfg.ecn = Some(EcnConfig { kmin: 8 * 1024, kmax: 16 * 1024, pmax: 0.2 });
        CcKind::Dcqcn { gbps: 100.0 }
    } else {
        CcKind::None
    };
    let mut sim = Simulator::new(41);
    let topo = incast(&mut sim, cfg, fan_in, cc, msgs);
    if ber > 0.0 {
        // The testbed's single cross cable sits on s1's first post-host
        // port; the loss model covers both directions.
        let plan = FaultPlan::new(0x7ab1e5)
            .with_loss_on(&[(topo.leaves[0], fan_in)], LossModel::wire_ber(ber))
            .sorted();
        FaultEngine::install(&mut sim, plan);
    }
    sim.run_until(20 * MS);
    (sim.net_stats(), sim.all_endpoint_stats(), export.entry(label, 41, &sim, None))
}

/// `num / den` as a percentage, `none` when `den` is 0.
fn pct(num: u64, den: u64, none: &str) -> String {
    if den == 0 {
        none.to_string()
    } else {
        format!("{:.3}%", num as f64 / den as f64 * 100.0)
    }
}

pub fn run(args: &Args) -> Report {
    let export = ExportOpts::from_args(args);
    let mut r = Report::default();
    let incasts: &[usize] = match args.scale() {
        Scale::Full => &[128, 255],
        Scale::Quick => &[16, 32],
    };
    println!("Table 5 — HO-packet loss ratio over a 20 ms sustained incast window");
    println!("(trim threshold 16 KB, 2 MB shared buffer, w = (N-1)/(r-N+1), fallback 8.0)");
    println!("{:<24}{:>14}{:>14}", "setting", "w/o CC", "w/ CC");
    let settings: Vec<(usize, usize)> =
        [22, 16].iter().flat_map(|&n_cfg| incasts.iter().map(move |&fan| (n_cfg, fan))).collect();
    let mut doc = MetricsDoc::new("table5_ho_loss");
    // 64 messages per sender keep the incast saturated for the window.
    let results = grid(&settings, &[false, true], |(n_cfg, fan), cc| {
        let label = format!("N={n_cfg} fan={fan} cc={cc}");
        let (ns, _, entry) = funnel(&export, &label, fan, n_cfg, cc, 64, 0.0);
        (ho_loss(&ns), entry)
    });
    for (row, (n_cfg, fan)) in results.iter().zip(settings) {
        let setting = format!("N={n_cfg}; {fan}-to-1");
        let [(without, _), (with, _)] = [&row[0], &row[1]];
        let cols = [without, with].map(|&(drops, total)| pct(drops, total, "no HOs"));
        println!("{setting:<24}{:>14}{:>14}", cols[0], cols[1]);
        let ratio = |&(drops, total): &(u64, u64)| drops as f64 / total as f64;
        r.put(&setting, [("w/o CC", ratio(without)), ("w/ CC", ratio(with))]);
        doc.extend(row.iter().filter_map(|(_, entry)| entry.clone()));
    }
    println!();
    println!("Paper shape: zero HO loss in nearly every configuration; only the most");
    println!("extreme incast without CC loses a fraction of a percent (paper: 0.16% at");
    println!("255-to-1 with N=16), and enabling CC eliminates even that.");

    // Injected wire-BER sweep: loss by packet size on the same testbed, a
    // mild 8-to-1 incast with DCQCN so congestion contributes ~nothing and
    // the counters isolate wire loss. Every trim mints one HO and every HO
    // crosses the corrupting cable exactly once (forward from an s1 trim,
    // or bounced back through it from the victim), so `ho_drops / trims` is
    // the measured HO wire-loss ratio.
    println!();
    println!("Injected cross-link BER (8-to-1 incast, DCQCN) — wire loss by packet size");
    println!(
        "{:<12}{:>16}{:>16}{:>16}{:>16}",
        "BER", "data trimmed", "pred. 1097 B", "HO lost", "pred. 57 B"
    );
    let bers = [0.0, 1e-6, 1e-5, 1e-4];
    let ber_results = sweep(bers.to_vec(), |ber| {
        let label = format!("ber={ber:.0e} fan=8");
        let (ns, ep, entry) = funnel(&export, &label, 8, 22, true, 16, ber);
        (ns.trims, ns.ho_drops, ep.data_pkts + ep.retx_pkts, entry.map(|e| e.set("ber", ber)))
    });
    for (&ber, &(trims, ho_drops, data_attempts, ref entry)) in bers.iter().zip(&ber_results) {
        let pred = |bytes: usize| {
            if ber > 0.0 {
                format!("{:.3}%", ber_packet_loss(ber, bytes) * 100.0)
            } else {
                "-".to_string()
            }
        };
        println!(
            "{:<12}{:>16}{:>16}{:>16}{:>16}",
            if ber > 0.0 { format!("{ber:.0e}") } else { "0 (baseline)".to_string() },
            pct(trims, data_attempts, "-"),
            pred(1097),
            pct(ho_drops, trims, "-"),
            pred(57),
        );
        let data = trims as f64 / data_attempts as f64;
        r.put(ber, [("data", data), ("HO", ho_drops as f64 / trims as f64)]);
        doc.extend(entry.clone());
    }
    println!();
    println!("The baseline row is congestion-only (trims exist, HO loss ~0); under BER the");
    println!("1 KB data packet is an order of magnitude likelier to be corrupted than the");
    println!("57-B HO — the size asymmetry that keeps trimming-based recovery working on");
    println!("fabrics whose links are actively eating packets.");
    export.write_metrics(doc);
    r
}

/// No HO loss within the design incast (N=22, 16-to-1), none added by CC,
/// and under BER data ≥ 10× likelier lost than HOs (32-to-1: see
/// EXPERIMENTS.md).
pub fn shape(r: &Report) -> Result<(), String> {
    for col in ["w/o CC", "w/ CC"] {
        let v = r.get("N=22; 16-to-1", col);
        ensure!(v == 0.0, "N=22; 16-to-1 {col}: {:.3}%", v * 100.0);
    }
    for (setting, without) in r.column("w/o CC") {
        let with = r.get(setting, "w/ CC");
        ensure!(with <= without, "{setting}: w/ CC {with:.5} vs w/o {without:.5}");
    }
    ensure!(r.get("0", "HO") == 0.0, "baseline HO loss {}", r.get("0", "HO"));
    for ber in ["0.000001", "0.00001", "0.0001"] {
        let (data, ho) = (r.get(ber, "data"), r.get(ber, "HO"));
        ensure!(10.0 * ho < data, "BER {ber}: data {data:.5} vs HO {ho:.5}");
    }
    Ok(())
}
