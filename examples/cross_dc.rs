//! Long-haul communication (§6.1's 10 km experiment, Fig. 15's premise):
//! DCP needs no PFC headroom, so a long lossy link sustains throughput with
//! ordinary switch buffers, while a PFC fabric must reserve a full
//! RTT × bandwidth of headroom per queue (Table 1's distance wall).
//!
//! Run with: `cargo run --release -p dcp-bench --example cross_dc`

use dcp_bench::rows::ROWS;
use dcp_bench::Args;
use dcp_core::dcp_switch_config;
use dcp_netsim::packet::FlowId;
use dcp_netsim::time::{fiber_delay_km, SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

fn long_haul_goodput(km: f64) -> f64 {
    let mut sim = Simulator::new(3);
    let cfg = dcp_switch_config(LoadBalance::Ecmp, 16);
    let topo =
        topology::two_switch_testbed(&mut sim, cfg, 1, 100.0, &[100.0], US, fiber_delay_km(km));
    let (a, b) = (topo.hosts[0], topo.hosts[1]);
    let flow = FlowId(1);
    let (tx, rx) = endpoint_pair(TransportKind::Dcp, CcKind::None, flow, a, b);
    sim.install_endpoint(a, flow, tx);
    sim.install_endpoint(b, flow, rx);
    // 64 MB as 1 MB messages, streaming.
    let total = 64u64 << 20;
    for i in 0..64 {
        sim.post(a, flow, i, WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 }, 1 << 20);
    }
    let mut done = 0;
    let mut last = 0;
    while done < 64 && sim.now() < 10 * SEC {
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
    assert_eq!(done, 64);
    total as f64 * 8.0 / last as f64
}

fn main() {
    println!("Long-haul DCP throughput over a single lossy cross-switch link:");
    for km in [1.0, 10.0, 100.0] {
        println!("  {:>5} km: {:>6.1} Gbps", km, long_haul_goodput(km));
    }
    println!();
    println!("For contrast, the maximum *lossless* (PFC) distance of commodity ASICs:");
    let table1 = ROWS.iter().find(|r| r.name == "table1_lossless_distance").expect("row");
    (table1.run)(&Args::default());
    println!();
    println!("Expected shape (paper §6.1): DCP sustains high goodput at 10 km and beyond");
    println!("with 32 MB of buffer, while PFC cannot even guarantee losslessness past a");
    println!("few km without DRAM-backed buffers.");
}
