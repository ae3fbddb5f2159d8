//! A tenant that is ready but gated must not idle the NIC (DESIGN.md
//! Finding 11).
//!
//! Real GBN endpoints on two back-to-back hosts: tenant 0's flow is held to
//! a 4 KB window — `has_pending()` stays true while every `pull` between two
//! ACK arrivals answers `None` — beside a line-rate flow in tenant 1. The
//! host scheduler must hand the wire to tenant 1 whenever tenant 0 declines
//! it, whatever the weights say about who is *owed* it.

use dcp_netsim::time::{MS, US};
use dcp_netsim::{FlowId, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

const GATED: FlowId = FlowId(1);
const BACKLOGGED: FlowId = FlowId(2);

/// 100 Gbps, 50 µs each way, 2 ms: `data_pkts` of `(gated, backlogged)`.
/// `None` leaves both flows untagged — the one-tenant schedule.
fn gated_beside_backlogged(weights: Option<&[u64]>) -> (u64, u64) {
    let mut sim = Simulator::new(1);
    let (a, b) = (sim.add_host(), sim.add_host());
    sim.connect_hosts(a, b, 100.0, 50 * US);
    let window_4k = CcKind::Bdp { gbps: 32.768, rtt: US };
    for (flow, cc, tenant) in [(GATED, window_4k, 0), (BACKLOGGED, CcKind::None, 1)] {
        let (tx, rx) = endpoint_pair(TransportKind::Gbn, cc, flow, a, b);
        sim.install_endpoint(a, flow, tx);
        sim.install_endpoint(b, flow, rx);
        if weights.is_some() {
            sim.host_mut(a).set_flow_tenant(flow, tenant);
            sim.host_mut(b).set_flow_tenant(flow, tenant);
        }
    }
    if let Some(w) = weights {
        sim.host_mut(a).set_tenant_weights(w);
        sim.host_mut(b).set_tenant_weights(w);
    }
    for flow in [GATED, BACKLOGGED] {
        // More than 2 ms of line rate, so neither flow runs dry.
        sim.post(a, flow, 0, WorkReqOp::Write { remote_addr: 0x100_0000, rkey: 1 }, 64 << 20);
    }
    sim.run_until(2 * MS);
    (sim.endpoint_stats(a, GATED).data_pkts, sim.endpoint_stats(a, BACKLOGGED).data_pkts)
}

#[test]
fn a_gated_tenant_does_not_throttle_a_backlogged_one() {
    let (gated0, backlogged0) = gated_beside_backlogged(None);
    assert!(backlogged0 > 20_000, "line rate for 2 ms is ~22 600 packets, got {backlogged0}");
    for weights in [&[1, 1][..], &[4, 2]] {
        let (gated, backlogged) = gated_beside_backlogged(Some(weights));
        // The window, not the scheduler, sets the gated flow's pace.
        assert_eq!(gated, gated0, "weights {weights:?}");
        assert!(
            backlogged.abs_diff(backlogged0) * 100 <= backlogged0,
            "weights {weights:?}: backlogged tenant sent {backlogged} packets, \
             {backlogged0} untagged",
        );
    }
}
