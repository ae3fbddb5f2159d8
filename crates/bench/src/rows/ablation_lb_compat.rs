//! Ablation: transport × load-balancer compatibility (Table 2's R2 column,
//! measured).
//!
//! One 16 MB stream over four parallel 25 G paths under each LB scheme.
//! In-order transports (GBN) only tolerate flow-stable LBs; IRN survives
//! but retransmits spuriously under packet-level LBs; DCP is order-
//! tolerant everywhere and uses the full aggregate capacity.

use super::prelude::*;
use dcp_netsim::FlowId;

fn lb_goodput(kind: TransportKind, lb: LoadBalance) -> (Option<f64>, u64) {
    let (cfg, cc) = match kind {
        TransportKind::Dcp => (dcp_switch_config(lb, 16), CcKind::Dcqcn { gbps: 100.0 }),
        _ => (SwitchConfig::lossy(lb), bdp_cc()),
    };
    let mut sim = Simulator::new(59);
    let topo = topology::two_switch_testbed(&mut sim, cfg, 1, 100.0, &[25.0; 4], US, US);
    let pair = |flow, src, dst| endpoint_pair(kind, cc, flow, src, dst);
    let hosts = [(topo.hosts[0], topo.hosts[1])];
    let g = goodput(16 * MB, stream(&mut sim, &hosts, pair, &[MB; 16], 600 * SEC)[0]);
    (g, sim.endpoint_stats(topo.hosts[0], FlowId(1)).retx_pkts)
}

const LBS: [(&str, LoadBalance); 4] = [
    ("ECMP", LoadBalance::Ecmp),
    ("Flowlet", LoadBalance::Flowlet { gap_ns: 50_000 }),
    ("AR", LoadBalance::AdaptiveRouting),
    ("Spray", LoadBalance::Spray),
];

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Ablation — transport x load balancer: goodput (Gbps) / retransmissions");
    println!("(one flow, four parallel 25G paths; aggregate capacity 100G)");
    print!("{:<10}", "");
    for (n, _) in &LBS {
        print!("{n:>18}");
    }
    println!();
    let kinds =
        [("GBN", TransportKind::Gbn), ("IRN", TransportKind::Irn), ("DCP", TransportKind::Dcp)];
    let results = grid(&kinds, &LBS, |(_, kind), (_, lb)| lb_goodput(kind, lb));
    for (row, &(label, _)) in results.iter().zip(&kinds) {
        print!("{label:<10}");
        for (&(g, retx), (lb, _)) in row.iter().zip(LBS) {
            print!("{:>12} /{retx:>4}", fmt_opt(g, 1));
            r.put(label, [(lb.to_string(), g), (format!("{lb} retx"), Some(retx as f64))]);
        }
        println!();
    }
    println!();
    println!("Expected shape (Table 2): GBN collapses under packet-level LB (AR/Spray);");
    println!("IRN completes but with spurious retransmissions; DCP reaches the aggregate");
    println!("capacity with zero spurious retransmissions under every scheme. ECMP and");
    println!("flowlet pin a single flow to one 25G path by design.");
    r
}

/// AR and Spray: DCP > 80 Gbps without retx, IRN below it with retx, GBN
/// under 5 Gbps; ECMP pins everyone to one 25G path.
pub fn shape(r: &Report) -> Result<(), String> {
    for lb in ["AR", "Spray"] {
        let [gbn, irn, dcp] = ["GBN", "IRN", "DCP"].map(|k| r.get(k, lb));
        let retx = ["IRN", "DCP"].map(|k| r.get(k, &format!("{lb} retx")));
        ensure!(dcp > 80.0 && retx[1] == 0.0, "{lb}: DCP {dcp:.1} Gbps, {} retx", retx[1]);
        ensure!(gbn < 5.0 && gbn < irn && irn < dcp && retx[0] > 0.0, "{lb}: {gbn:.1} {irn:.1}");
    }
    for k in ["GBN", "IRN", "DCP"] {
        ensure!(r.get(k, "ECMP") <= 25.0, "{k} ECMP {:.1}", r.get(k, "ECMP"));
    }
    Ok(())
}
