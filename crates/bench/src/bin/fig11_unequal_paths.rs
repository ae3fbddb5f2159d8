//! Fig. 11: adapting to unequal paths via adaptive routing.
//!
//! Two senders on switch 1 stream to two receivers on switch 2 over two
//! cross-switch paths whose capacities are set to 1:1, 1:4 and 1:10 (the
//! testbed methodology of §6.1). Adaptive routing spreads traffic by queue
//! depth. DCP keeps goodput at the aggregate capacity (order-tolerant
//! reception); CX5-class GBN collapses once asymmetry causes persistent
//! reordering.

use dcp_bench::{fmt_opt, sweep};
use dcp_core::dcp_switch_config;
use dcp_netsim::packet::FlowId;
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

const TOTAL: u64 = 16 << 20;

/// Returns the average goodput of the two flows in Gbps, or `None` if a
/// flow missed the deadline.
fn run(kind: TransportKind, caps: &[f64]) -> Option<f64> {
    // The testbed DCP-RNIC integrates DCQCN (§3); give it ECN marking.
    let cfg = match kind {
        TransportKind::Dcp => {
            let mut c = dcp_switch_config(LoadBalance::AdaptiveRouting, 16);
            c.ecn = Some(dcp_netsim::EcnConfig::default_100g());
            c
        }
        _ => SwitchConfig::lossy(LoadBalance::AdaptiveRouting),
    };
    let mut sim = Simulator::new(13);
    let topo = topology::two_switch_testbed(&mut sim, cfg, 2, 100.0, caps, US, US);
    let cc = if kind == TransportKind::Dcp {
        CcKind::Dcqcn { gbps: 100.0 }
    } else {
        CcKind::Bdp { gbps: 100.0, rtt: 12 * US }
    };
    let chunk = 1u64 << 20;
    let n = TOTAL / chunk;
    for f in 0..2u32 {
        let flow = FlowId(f + 1);
        let (src, dst) = (topo.hosts[f as usize], topo.hosts[2 + f as usize]);
        let (tx, rx) = endpoint_pair(kind, cc, flow, src, dst);
        sim.install_endpoint(src, flow, tx);
        sim.install_endpoint(dst, flow, rx);
        for i in 0..n {
            sim.post(src, flow, i, WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 }, chunk);
        }
    }
    let mut done = [0u64; 2];
    let mut finish = [0u64; 2];
    while (finish[0] == 0 || finish[1] == 0) && sim.now() < 600 * SEC {
        if sim.advance().is_none() {
            break;
        }
        sim.for_each_completion(|c| {
            if c.kind == CompletionKind::RecvComplete {
                let ix = (c.flow.0 - 1) as usize;
                done[ix] += 1;
                if done[ix] == n {
                    finish[ix] = c.at;
                }
            }
        });
    }
    if finish.contains(&0) {
        eprintln!("warn: {kind:?}: flows incomplete at t={} ns", sim.now());
        return None;
    }
    let g0 = TOTAL as f64 * 8.0 / finish[0] as f64;
    let g1 = TOTAL as f64 * 8.0 / finish[1] as f64;
    Some((g0 + g1) / 2.0)
}

fn main() {
    println!("Fig. 11 — avg goodput (Gbps) of two flows over two AR paths");
    println!("{:>10}{:>12}{:>12}", "ratio", "CX5(GBN)", "DCP");
    // Aggregate cross-section stays ≈ 2×100G; only the split varies.
    const RATIOS: [(&str, [f64; 2]); 3] =
        [("1:1", [100.0, 100.0]), ("1:4", [40.0, 160.0]), ("1:10", [18.0, 182.0])];
    let points: Vec<(TransportKind, [f64; 2])> = RATIOS
        .iter()
        .flat_map(|&(_, caps)| [(TransportKind::Gbn, caps), (TransportKind::Dcp, caps)])
        .collect();
    let results = sweep(points, |(kind, caps)| run(kind, &caps));
    for (row, &(label, _)) in results.chunks(2).zip(&RATIOS) {
        println!("{label:>10}{:>12}{:>12}", fmt_opt(row[0], 1), fmt_opt(row[1], 1));
    }
    println!();
    println!("Paper shape: DCP is stable across all ratios; CX5 goodput collapses as");
    println!("capacity asymmetry (and therefore AR-induced reordering) grows.");
}
