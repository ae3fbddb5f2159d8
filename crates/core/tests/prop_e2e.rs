//! Randomized end-to-end property: for arbitrary seeds, loss rates and
//! message sizes, a DCP transfer over a sprayed lossy fabric delivers
//! exactly once, never RTOs while the control plane holds, and the
//! retransmission count never exceeds the trim count.

use dcp_core::{dcp_pair, dcp_switch_config, DcpConfig};
use dcp_netsim::packet::FlowId;
use dcp_netsim::time::{SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::headers::DcpTag;
use dcp_rdma::qp::WorkReqOp;
use dcp_transport::cc::NoCc;
use dcp_transport::common::{FlowCfg, Placement};
use proptest::prelude::*;

fn run_case(seed: u64, loss_bp: u32, msgs: u8, msg_kb: u16) -> Result<(), TestCaseError> {
    let mut cfg = dcp_switch_config(LoadBalance::Spray, 16);
    cfg.forced_loss_rate = loss_bp as f64 / 10_000.0;
    let mut sim = Simulator::new(seed);
    let topo = topology::two_switch_testbed(&mut sim, cfg, 1, 100.0, &[50.0, 50.0], US, US);
    let (a, b) = (topo.hosts[0], topo.hosts[1]);
    let flow = FlowId(1);
    let fc = FlowCfg::sender(flow, a, b, DcpTag::Data);
    let (tx, rx) =
        dcp_pair(fc, DcpConfig::default(), Box::new(NoCc::default()), Placement::Virtual);
    sim.install_endpoint(a, flow, Box::new(tx));
    sim.install_endpoint(b, flow, Box::new(rx));
    let msg_bytes = msg_kb as u64 * 1024;
    for i in 0..msgs as u64 {
        sim.post(a, flow, i, WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 }, msg_bytes);
    }
    let mut done = 0u32;
    let mut bytes = 0u64;
    while done < msgs as u32 && sim.now() < 30 * SEC {
        if sim.advance().is_none() {
            break;
        }
        sim.for_each_completion(|c| {
            if c.kind == CompletionKind::RecvComplete {
                done += 1;
                bytes += c.bytes;
            }
        });
    }
    prop_assert_eq!(done, msgs as u32, "all messages delivered");
    prop_assert_eq!(bytes, msgs as u64 * msg_bytes, "byte totals match");
    let st_tx = sim.endpoint_stats(a, flow);
    let st_rx = sim.endpoint_stats(b, flow);
    let ns = sim.net_stats();
    prop_assert_eq!(ns.ho_drops, 0, "control plane lossless");
    prop_assert_eq!(st_tx.timeouts, 0, "no RTO while the control plane holds");
    prop_assert_eq!(st_rx.duplicates, 0, "exactly-once delivery");
    prop_assert!(st_tx.retx_pkts <= ns.trims, "retx bounded by trims");
    prop_assert_eq!(st_tx.ho_received, st_tx.retx_pkts, "one retx per notification");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
    #[test]
    fn dcp_invariants_hold_under_random_loss_and_reorder(
        seed in 0u64..1_000_000,
        loss_bp in 0u32..500,      // 0–5% forced loss
        msgs in 1u8..6,
        msg_kb in 1u16..512,
    ) {
        run_case(seed, loss_bp, msgs, msg_kb)?;
    }
}
