//! Incast recovery: watch the lossless control plane at work.
//!
//! An 8-to-1 incast squeezes through one 100 G cross-switch link with a
//! small trim threshold. Under DCP, overflow packets are trimmed to 57-byte
//! header-only notifications, bounced by the receiver, and retransmitted
//! precisely — no retransmission timeout ever fires. The same scenario on
//! RNIC-GBN drops packets at the threshold and recovers by go-back-N and
//! RTOs.
//!
//! Run with: `cargo run --release -p dcp-bench --example incast_recovery`

use dcp_core::dcp_switch_config;
use dcp_netsim::packet::FlowId;
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{MS, SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

const FAN_IN: usize = 8;
const BYTES: u64 = 1 << 20;

fn run(kind: TransportKind, cfg: SwitchConfig) {
    let mut sim = Simulator::new(7);
    let mut cfg = cfg;
    cfg.data_q_threshold = 32 * 1024;
    let topo = topology::two_switch_testbed(&mut sim, cfg, FAN_IN, 100.0, &[100.0], US, US);
    let victim = topo.hosts[FAN_IN];
    for i in 0..FAN_IN {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) = endpoint_pair(
            kind,
            CcKind::Bdp { gbps: 100.0, rtt: 12 * US },
            flow,
            topo.hosts[i],
            victim,
        );
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(victim, flow, rx);
        sim.post(
            topo.hosts[i],
            flow,
            0,
            WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
            BYTES,
        );
    }
    let mut done = 0;
    let mut jct = 0;
    while done < FAN_IN && sim.now() < 10 * SEC {
        if sim.advance().is_none() {
            break;
        }
        sim.for_each_completion(|c| {
            if c.kind == CompletionKind::RecvComplete {
                done += 1;
                jct = c.at;
            }
        });
    }
    let ns = sim.net_stats();
    let mut retx = 0;
    let mut timeouts = 0;
    let mut ho = 0;
    for i in 0..FAN_IN {
        let st = sim.endpoint_stats(topo.hosts[i], FlowId(i as u32 + 1));
        retx += st.retx_pkts;
        timeouts += st.timeouts;
        ho += st.ho_received;
    }
    println!(
        "{:<12} jct={:>7.3} ms  trims={:<6} drops={:<6} HO-notifs={:<6} retx={:<6} RTOs={}",
        format!("{kind:?}"),
        jct as f64 / MS as f64,
        ns.trims,
        ns.data_drops,
        ho,
        retx,
        timeouts
    );
}

fn main() {
    println!(
        "8-to-1 incast of {} x {} MB through one 100G link (trim threshold 32 KB)",
        FAN_IN,
        BYTES >> 20
    );
    run(TransportKind::Dcp, dcp_switch_config(LoadBalance::Ecmp, 16));
    run(TransportKind::Gbn, SwitchConfig::lossy(LoadBalance::Ecmp));
    run(TransportKind::Irn, SwitchConfig::lossy(LoadBalance::Ecmp));
    println!();
    println!("Expected shape (paper §4/§6): DCP converts every drop into a header-only");
    println!("notification (drops=0, RTOs=0, retx == HO-notifs); GBN/IRN drop packets and");
    println!("lean on timeouts, inflating completion time.");
}
