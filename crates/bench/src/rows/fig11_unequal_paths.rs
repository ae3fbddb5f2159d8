//! Fig. 11: adapting to unequal paths via adaptive routing.
//!
//! Two senders on switch 1 stream to two receivers on switch 2 over two
//! cross-switch paths whose capacities are set to 1:1, 1:4 and 1:10 (the
//! testbed methodology of §6.1). Adaptive routing spreads traffic by queue
//! depth. DCP keeps goodput at the aggregate capacity (order-tolerant
//! reception); CX5-class GBN collapses once asymmetry causes persistent
//! reordering.

use super::prelude::*;

/// Returns the average goodput of the two 16 MB flows in Gbps, or `None` if
/// a flow missed the deadline.
fn two_flows(kind: TransportKind, caps: &[f64]) -> Option<f64> {
    // The testbed DCP-RNIC integrates DCQCN (§3); give it ECN marking.
    let (cfg, cc) = match kind {
        TransportKind::Dcp => {
            let mut c = dcp_switch_config(LoadBalance::AdaptiveRouting, 16);
            c.ecn = Some(dcp_netsim::EcnConfig::default_100g());
            (c, CcKind::Dcqcn { gbps: 100.0 })
        }
        _ => (SwitchConfig::lossy(LoadBalance::AdaptiveRouting), bdp_cc()),
    };
    let mut sim = Simulator::new(13);
    let topo = topology::two_switch_testbed(&mut sim, cfg, 2, 100.0, caps, US, US);
    let hosts = [(topo.hosts[0], topo.hosts[2]), (topo.hosts[1], topo.hosts[3])];
    let pair = |flow, src, dst| endpoint_pair(kind, cc, flow, src, dst);
    let finish = stream(&mut sim, &hosts, pair, &[MB; 16], 600 * SEC);
    let g: Option<Vec<f64>> = finish.into_iter().map(|at| goodput(16 * MB, at)).collect();
    g.map(|g| (g[0] + g[1]) / 2.0)
}

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Fig. 11 — avg goodput (Gbps) of two flows over two AR paths");
    println!("{:>10}{:>12}{:>12}", "ratio", "CX5(GBN)", "DCP");
    // Aggregate cross-section stays ≈ 2×100G; only the split varies.
    const RATIOS: [(&str, [f64; 2]); 3] =
        [("1:1", [100.0, 100.0]), ("1:4", [40.0, 160.0]), ("1:10", [18.0, 182.0])];
    let kinds = [TransportKind::Gbn, TransportKind::Dcp];
    let results = grid(&RATIOS, &kinds, |(_, caps), kind| two_flows(kind, &caps));
    for (row, &(label, _)) in results.iter().zip(&RATIOS) {
        println!("{label:>10}{:>12}{:>12}", fmt_opt(row[0], 1), fmt_opt(row[1], 1));
        r.put("CX5(GBN)", [(label, row[0])]);
        r.put("DCP", [(label, row[1])]);
    }
    println!();
    println!("Paper shape: DCP is stable across all ratios; CX5 goodput collapses as");
    println!("capacity asymmetry (and therefore AR-induced reordering) grows.");
    r
}

/// DCP within 5 % of its 1:1 goodput at every ratio; CX5 matches it at 1:1
/// and has lost over a third by 1:4.
pub fn shape(r: &Report) -> Result<(), String> {
    let (dcp1, cx1) = (r.get("DCP", "1:1"), r.get("CX5(GBN)", "1:1"));
    for ratio in ["1:4", "1:10"] {
        let (dcp, cx5) = (r.get("DCP", ratio), r.get("CX5(GBN)", ratio));
        ensure!(dcp > 0.95 * dcp1 && cx5 < 2.0 / 3.0 * cx1, "{ratio}: DCP {dcp:.1}, CX5 {cx5:.1}");
    }
    ensure!((cx1 / dcp1 - 1.0).abs() < 0.01, "1:1: DCP {dcp1:.1}, CX5 {cx1:.1}");
    Ok(())
}
