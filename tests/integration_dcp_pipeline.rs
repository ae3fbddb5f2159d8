//! Whole-stack integration: DCP endpoints + DCP-Switch policy + analytics
//! agreeing with the fabric, across crates.

use dcp_core::switch::effective_wrr_weight;
use dcp_core::{dcp_pair, dcp_switch_config, DcpConfig, RetransMode};
use dcp_netsim::packet::FlowId;
use dcp_netsim::time::{Nanos, SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::headers::DcpTag;
use dcp_rdma::qp::WorkReqOp;
use dcp_transport::cc::{Dcqcn, NoCc};
use dcp_transport::common::{FlowCfg, Placement};

fn drive_to(sim: &mut Simulator, want: usize, deadline: Nanos) -> (usize, Nanos) {
    let mut done = 0;
    let mut last = 0;
    while done < want && sim.now() < deadline {
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
    (done, last)
}

#[test]
fn wrr_weight_from_analytics_keeps_control_plane_lossless() {
    // Program the fabric with the §4.2 analytical weight for its actual
    // radix and verify zero HO losses under a radix-filling incast.
    let fan_in = 8;
    let n_ports = fan_in + 1 + 1; // hosts + cross + margin
    let w = effective_wrr_weight(n_ports, dcp_rdma::MTU, 8.0);
    let mut cfg = dcp_switch_config(LoadBalance::Ecmp, n_ports);
    cfg.ctrl_weight = w;
    cfg.data_q_threshold = 8 * 1024;
    let mut sim = Simulator::new(1);
    let topo = topology::two_switch_testbed(&mut sim, cfg, fan_in, 100.0, &[100.0], US, US);
    let victim = topo.hosts[fan_in];
    for i in 0..fan_in {
        let flow = FlowId(i as u32 + 1);
        let fc = FlowCfg::sender(flow, topo.hosts[i], victim, DcpTag::Data);
        let (tx, rx) =
            dcp_pair(fc, DcpConfig::default(), Box::new(NoCc::default()), Placement::Virtual);
        sim.install_endpoint(topo.hosts[i], flow, Box::new(tx));
        sim.install_endpoint(victim, flow, Box::new(rx));
        sim.post(
            topo.hosts[i],
            flow,
            0,
            WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
            1 << 20,
        );
    }
    let (done, _) = drive_to(&mut sim, fan_in, 30 * SEC);
    assert_eq!(done, fan_in);
    let ns = sim.net_stats();
    assert!(ns.trims > 1000, "incast must trim heavily, got {}", ns.trims);
    assert_eq!(ns.ho_drops, 0, "analytical weight keeps the control plane lossless");
}

#[test]
fn dcqcn_integration_reduces_retransmission_pressure() {
    // §6.3: DCP alone floods retransmissions under incast; DCP+DCQCN tames
    // them. Compare total retransmitted packets.
    let run = |with_cc: bool| {
        let mut cfg = dcp_switch_config(LoadBalance::Ecmp, 16);
        cfg.data_q_threshold = 32 * 1024;
        cfg.ecn = Some(dcp_netsim::EcnConfig { kmin: 8 * 1024, kmax: 24 * 1024, pmax: 0.2 });
        let mut sim = Simulator::new(2);
        let fan_in = 8;
        let topo = topology::two_switch_testbed(&mut sim, cfg, fan_in, 100.0, &[100.0], US, US);
        let victim = topo.hosts[fan_in];
        for i in 0..fan_in {
            let flow = FlowId(i as u32 + 1);
            let fc = FlowCfg::sender(flow, topo.hosts[i], victim, DcpTag::Data);
            let cc: Box<dyn dcp_transport::cc::CongestionControl> =
                if with_cc { Box::new(Dcqcn::new(100.0)) } else { Box::new(NoCc::default()) };
            let (tx, rx) = dcp_pair(fc, DcpConfig::default(), cc, Placement::Virtual);
            sim.install_endpoint(topo.hosts[i], flow, Box::new(tx));
            sim.install_endpoint(victim, flow, Box::new(rx));
            sim.post(
                topo.hosts[i],
                flow,
                0,
                WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
                2 << 20,
            );
        }
        let (done, _) = drive_to(&mut sim, fan_in, 60 * SEC);
        assert_eq!(done, fan_in, "with_cc={with_cc}");
        (0..fan_in)
            .map(|i| sim.endpoint_stats(topo.hosts[i], FlowId(i as u32 + 1)).retx_pkts)
            .sum::<u64>()
    };
    let without = run(false);
    let with = run(true);
    assert!(
        with * 2 < without,
        "DCQCN must at least halve retransmission pressure: {with} vs {without}"
    );
}

#[test]
fn per_ho_mode_is_pcie_bound_batched_is_not() {
    // The §4.3 challenge-vs-solution ablation end-to-end: with heavy forced
    // loss, the per-HO strawman recovers at PCIe-bound throughput while the
    // batched design keeps goodput high.
    let run = |mode: RetransMode| {
        let mut cfg = dcp_switch_config(LoadBalance::Ecmp, 16);
        cfg.forced_loss_rate = 0.05;
        let mut sim = Simulator::new(3);
        let topo = topology::two_switch_testbed(&mut sim, cfg, 1, 100.0, &[100.0], US, US);
        let (a, b) = (topo.hosts[0], topo.hosts[1]);
        let flow = FlowId(1);
        let fc = FlowCfg::sender(flow, a, b, DcpTag::Data);
        let dcfg = DcpConfig { retrans_mode: mode, ..Default::default() };
        let (tx, rx) = dcp_pair(fc, dcfg, Box::new(NoCc::default()), Placement::Virtual);
        sim.install_endpoint(a, flow, Box::new(tx));
        sim.install_endpoint(b, flow, Box::new(rx));
        for i in 0..8u64 {
            sim.post(a, flow, i, WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 }, 1 << 20);
        }
        let (done, last) = drive_to(&mut sim, 8, 60 * SEC);
        assert_eq!(done, 8, "{mode:?}");
        (8u64 << 20) as f64 * 8.0 / last as f64
    };
    let batched = run(RetransMode::Batched);
    let per_ho = run(RetransMode::PerHo);
    assert!(
        batched > per_ho,
        "batched fetch must outperform per-HO fetches: {batched:.1} vs {per_ho:.1} Gbps"
    );
}
