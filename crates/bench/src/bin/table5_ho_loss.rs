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

use dcp_bench::{run_entry_counters, sweep, ExportOpts, MetricsDoc, Scale, METRICS_OUT};
use dcp_core::{dcp_switch_config, effective_wrr_weight};
use dcp_faults::{ber_packet_loss, FaultEngine, FaultPlan, LossModel};
use dcp_netsim::packet::FlowId;
use dcp_netsim::time::MS;
use dcp_netsim::{topology, EcnConfig, LoadBalance, Simulator, US};
use dcp_rdma::qp::WorkReqOp;
use dcp_telemetry::Json;
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

/// Sustains a `fan_in`-to-1 incast for 20 ms of simulated time with the
/// weight derived for `n_cfg` ports; returns (HO drops, total HOs) plus a
/// structured-export entry when requested.
fn run(fan_in: usize, n_cfg: usize, with_cc: bool, with_entry: bool) -> (u64, u64, Option<Json>) {
    let mut cfg = dcp_switch_config(LoadBalance::Ecmp, n_cfg);
    cfg.ctrl_weight = effective_wrr_weight(n_cfg, dcp_rdma::MTU, 8.0);
    cfg.data_q_threshold = 16 * 1024;
    // Small shared buffer so control-queue overload can actually drop.
    cfg.buffer_bytes = 2 << 20;
    if with_cc {
        cfg.ecn = Some(EcnConfig { kmin: 8 * 1024, kmax: 16 * 1024, pmax: 0.2 });
    }
    let mut sim = Simulator::new(41);
    let topo = topology::two_switch_testbed(&mut sim, cfg, fan_in, 100.0, &[100.0], US, US);
    let victim = topo.hosts[fan_in];
    let cc = if with_cc { CcKind::Dcqcn { gbps: 100.0 } } else { CcKind::None };
    for i in 0..fan_in {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) = endpoint_pair(TransportKind::Dcp, cc, flow, topo.hosts[i], victim);
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(victim, flow, rx);
        // Enough messages to keep the incast saturated for the window.
        for m in 0..64u64 {
            sim.post(
                topo.hosts[i],
                flow,
                m,
                WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
                1 << 20,
            );
        }
    }
    sim.run_until(20 * MS);
    let ns = sim.net_stats();
    let entry = with_entry.then(|| {
        let cons = sim.check_conservation(false);
        run_entry_counters(
            &format!("N={n_cfg} fan={fan_in} cc={with_cc}"),
            41,
            &ns,
            &sim.all_endpoint_stats(),
            &cons,
        )
    });
    (ns.ho_drops, ns.ho_forwarded + ns.ho_drops, entry)
}

/// One row of the injected-BER sweep: a mild 8-to-1 incast with DCQCN (so
/// congestion contributes ~nothing and the counters isolate wire loss),
/// uniform bit errors on both directions of the cross-switch cable.
/// Returns `(trims, ho_drops, data_attempts, entry)` — every trim mints one
/// HO and every HO crosses the corrupting cable exactly once (forward from
/// an s1 trim, or bounced back through it from the victim), so
/// `ho_drops / trims` is the measured HO wire-loss ratio.
fn run_ber(fan_in: usize, ber: f64, with_entry: bool) -> (u64, u64, u64, Option<Json>) {
    let mut cfg = dcp_switch_config(LoadBalance::Ecmp, 22);
    cfg.ctrl_weight = effective_wrr_weight(22, dcp_rdma::MTU, 8.0);
    cfg.data_q_threshold = 16 * 1024;
    cfg.buffer_bytes = 2 << 20;
    cfg.ecn = Some(EcnConfig { kmin: 8 * 1024, kmax: 16 * 1024, pmax: 0.2 });
    let mut sim = Simulator::new(41);
    let topo = topology::two_switch_testbed(&mut sim, cfg, fan_in, 100.0, &[100.0], US, US);
    if ber > 0.0 {
        // The testbed's single cross cable sits on s1's first post-host
        // port; the loss model covers both directions.
        let plan = FaultPlan::new(0x7ab1e5)
            .with_loss_on(&[(topo.leaves[0], fan_in)], LossModel::wire_ber(ber))
            .sorted();
        FaultEngine::install(&mut sim, plan);
    }
    let victim = topo.hosts[fan_in];
    for i in 0..fan_in {
        let flow = FlowId(i as u32 + 1);
        let cc = CcKind::Dcqcn { gbps: 100.0 };
        let (tx, rx) = endpoint_pair(TransportKind::Dcp, cc, flow, topo.hosts[i], victim);
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(victim, flow, rx);
        for m in 0..16u64 {
            sim.post(
                topo.hosts[i],
                flow,
                m,
                WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
                1 << 20,
            );
        }
    }
    sim.run_until(20 * MS);
    let ns = sim.net_stats();
    let ep = sim.all_endpoint_stats();
    let entry = with_entry.then(|| {
        let cons = sim.check_conservation(false);
        run_entry_counters(&format!("ber={ber:.0e} fan={fan_in}"), 41, &ns, &ep, &cons)
            .set("ber", ber)
    });
    (ns.trims, ns.ho_drops, ep.data_pkts + ep.retx_pkts, entry)
}

fn main() {
    let export = ExportOpts::from_env_args(&[METRICS_OUT]);
    let incasts: &[usize] = match Scale::from_env() {
        Scale::Full => &[128, 255],
        Scale::Quick => &[16, 32],
    };
    println!("Table 5 — HO-packet loss ratio over a 20 ms sustained incast window");
    println!("(trim threshold 16 KB, 2 MB shared buffer, w = (N-1)/(r-N+1), fallback 8.0)");
    println!("{:<24}{:>14}{:>14}", "setting", "w/o CC", "w/ CC");
    let points: Vec<(usize, usize, bool)> = [22usize, 16]
        .iter()
        .flat_map(|&n_cfg| {
            incasts.iter().flat_map(move |&fan| [(n_cfg, fan, false), (n_cfg, fan, true)])
        })
        .collect();
    let with_entry = export.metrics_out.is_some();
    let mut doc = MetricsDoc::new("table5_ho_loss");
    let results =
        sweep(points.clone(), |(n_cfg, fan, with_cc)| run(fan, n_cfg, with_cc, with_entry));
    for (row, p) in results.chunks(2).zip(points.chunks(2)) {
        let (n_cfg, fan, _) = p[0];
        let cols: Vec<String> = row
            .iter()
            .map(|(drops, total, _)| {
                let (drops, total) = (*drops, *total);
                if total == 0 {
                    "no HOs".to_string()
                } else {
                    format!("{:.3}%", drops as f64 / total as f64 * 100.0)
                }
            })
            .collect();
        println!("{:<24}{:>14}{:>14}", format!("N={n_cfg}; {fan}-to-1"), cols[0], cols[1]);
        for (_, _, entry) in row {
            if let Some(e) = entry {
                doc.push_run(e.clone());
            }
        }
    }
    println!();
    println!("Paper shape: zero HO loss in nearly every configuration; only the most");
    println!("extreme incast without CC loses a fraction of a percent (paper: 0.16% at");
    println!("255-to-1 with N=16), and enabling CC eliminates even that.");

    // Injected wire-BER sweep: loss by packet size on the same testbed.
    println!();
    println!("Injected cross-link BER (8-to-1 incast, DCQCN) — wire loss by packet size");
    println!(
        "{:<12}{:>16}{:>16}{:>16}{:>16}",
        "BER", "data trimmed", "pred. 1097 B", "HO lost", "pred. 57 B"
    );
    let bers = [0.0, 1e-6, 1e-5, 1e-4];
    let ber_results = sweep(bers.to_vec(), |ber| run_ber(8, ber, with_entry));
    for (&ber, (trims, ho_drops, data_attempts, entry)) in bers.iter().zip(&ber_results) {
        let pct = |num: u64, den: u64| {
            if den == 0 {
                "-".to_string()
            } else {
                format!("{:.3}%", num as f64 / den as f64 * 100.0)
            }
        };
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
            pct(*trims, *data_attempts),
            pred(1097),
            pct(*ho_drops, *trims),
            pred(57),
        );
        if let Some(e) = entry {
            doc.push_run(e.clone());
        }
    }
    println!();
    println!("The baseline row is congestion-only (trims exist, HO loss ~0); under BER the");
    println!("1 KB data packet is an order of magnitude likelier to be corrupted than the");
    println!("57-B HO — the size asymmetry that keeps trimming-based recovery working on");
    println!("fabrics whose links are actively eating packets.");
    export.write_metrics(doc);
}
