//! Ablation: batched vs per-HO retransmission fetch (§4.3 challenge #1).
//!
//! Streams data through a forced-loss link and reports recovery goodput for
//! the per-HO strawman (two serialized PCIe round trips per retransmitted
//! packet — footnote 9's ≈4 Gbps bound at 1 µs PCIe RTT) against the
//! batched design, across PCIe latencies.

use dcp_bench::{fmt_opt, sweep};
use dcp_core::{dcp_pair, dcp_switch_config, DcpConfig, PcieConfig, RetransMode};
use dcp_netsim::packet::FlowId;
use dcp_netsim::time::{Nanos, SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::headers::DcpTag;
use dcp_rdma::qp::WorkReqOp;
use dcp_transport::cc::NoCc;
use dcp_transport::common::{FlowCfg, Placement};

fn run(mode: RetransMode, pcie_rtt: Nanos, loss: f64) -> Option<f64> {
    let mut cfg = dcp_switch_config(LoadBalance::Ecmp, 16);
    cfg.forced_loss_rate = loss;
    let mut sim = Simulator::new(47);
    let topo = topology::two_switch_testbed(&mut sim, cfg, 1, 100.0, &[100.0], US, US);
    let flow = FlowId(1);
    let fc = FlowCfg::sender(flow, topo.hosts[0], topo.hosts[1], DcpTag::Data);
    let dcfg = DcpConfig {
        retrans_mode: mode,
        pcie: PcieConfig { rtt: pcie_rtt, batch: 16 },
        ..Default::default()
    };
    let (tx, rx) = dcp_pair(fc, dcfg, Box::new(NoCc::default()), Placement::Virtual);
    sim.install_endpoint(topo.hosts[0], flow, Box::new(tx));
    sim.install_endpoint(topo.hosts[1], flow, Box::new(rx));
    let total = 16u64 << 20;
    for i in 0..16u64 {
        sim.post(
            topo.hosts[0],
            flow,
            i,
            WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
            1 << 20,
        );
    }
    let (mut done, mut last) = (0u64, 0);
    while done < 16 && sim.now() < 600 * SEC {
        if sim.advance().is_none() {
            break;
        }
        sim.for_each_completion(|c| {
            if c.kind == CompletionKind::RecvComplete {
                done += 1;
                last = c.at;
            }
        });
    }
    if done < 16 {
        eprintln!(
            "warn: {mode:?} @ {pcie_rtt} ns: stream incomplete ({done}/16) at t={} ns",
            sim.now()
        );
        return None;
    }
    Some(total as f64 * 8.0 / last as f64)
}

fn main() {
    println!("Ablation — HO retransmission fetch strategy (16 MB stream, 5% forced loss)");
    println!("{:>12}{:>16}{:>14}", "PCIe RTT", "per-HO (Gbps)", "batched (Gbps)");
    const RTTS: [Nanos; 3] = [500, 1_000, 2_000];
    let points: Vec<(RetransMode, Nanos)> = RTTS
        .iter()
        .flat_map(|&rtt| [(RetransMode::PerHo, rtt), (RetransMode::Batched, rtt)])
        .collect();
    let results = sweep(points, |(mode, rtt)| run(mode, rtt, 0.05));
    for (row, &rtt) in results.chunks(2).zip(&RTTS) {
        println!("{rtt:>9} ns{:>16}{:>14}", fmt_opt(row[0], 1), fmt_opt(row[1], 1));
    }
    println!();
    println!("Design-claim shape: batched fetches keep recovery near line rate regardless");
    println!("of PCIe latency; the per-HO strawman degrades as loss forces serialized");
    println!("round trips (§4.3, footnote 9).");
}
