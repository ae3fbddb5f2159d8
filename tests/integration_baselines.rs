//! Cross-scheme shape regressions: the relative orderings the paper's
//! evaluation establishes must hold in the reproduction.

use dcp_core::dcp_switch_config;
use dcp_netsim::packet::FlowId;
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{Nanos, SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

/// Streams 8 MB through a forced-loss dumbbell; returns goodput in Gbps.
fn goodput(kind: TransportKind, loss: f64, trimming: bool) -> f64 {
    let mut cfg = if trimming {
        dcp_switch_config(LoadBalance::Ecmp, 16)
    } else {
        SwitchConfig::lossy(LoadBalance::Ecmp)
    };
    cfg.forced_loss_rate = loss;
    let mut sim = Simulator::new(5);
    let topo = topology::two_switch_testbed(&mut sim, cfg, 1, 100.0, &[100.0], US, US);
    let (a, b) = (topo.hosts[0], topo.hosts[1]);
    let flow = FlowId(1);
    let (tx, rx) = endpoint_pair(kind, CcKind::Bdp { gbps: 100.0, rtt: 12 * US }, flow, a, b);
    sim.install_endpoint(a, flow, tx);
    sim.install_endpoint(b, flow, rx);
    let total: u64 = 8 << 20;
    for i in 0..8u64 {
        sim.post(a, flow, i, WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 }, 1 << 20);
    }
    let mut done = 0;
    let mut last: Nanos = 0;
    while done < 8 && sim.now() < 120 * SEC {
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
    assert_eq!(done, 8, "{kind:?} at loss {loss}");
    total as f64 * 8.0 / last as f64
}

#[test]
fn fig17_ordering_dcp_rack_irn_timeout() {
    // Fig. 17 at 2% loss: DCP > RACK-TLP > IRN > timeout-only.
    let dcp = goodput(TransportKind::Dcp, 0.02, true);
    let rack = goodput(TransportKind::RackTlp, 0.02, false);
    let irn = goodput(TransportKind::Irn, 0.02, false);
    let timeout = goodput(TransportKind::TimeoutOnly, 0.02, false);
    assert!(dcp > rack, "DCP {dcp:.1} vs RACK {rack:.1}");
    assert!(rack > irn, "RACK {rack:.1} vs IRN {irn:.1}");
    assert!(irn > timeout, "IRN {irn:.1} vs timeout {timeout:.1}");
}

#[test]
fn fig10_dcp_degrades_gracefully_gbn_collapses() {
    // Fig. 10's shape: at 5% loss GBN goodput collapses by an order of
    // magnitude while DCP stays near line rate.
    let dcp = goodput(TransportKind::Dcp, 0.05, true);
    let gbn = goodput(TransportKind::Gbn, 0.05, false);
    assert!(dcp > 50.0, "DCP at 5% loss: {dcp:.1} Gbps");
    assert!(dcp > 3.0 * gbn, "DCP {dcp:.1} must be multiples of GBN {gbn:.1}");
}

#[test]
fn clean_fabric_all_schemes_near_line_rate() {
    for kind in [TransportKind::Dcp, TransportKind::Gbn, TransportKind::Irn, TransportKind::RackTlp]
    {
        let g = goodput(kind, 0.0, kind == TransportKind::Dcp);
        assert!(g > 80.0, "{kind:?} clean goodput {g:.1}");
    }
}
