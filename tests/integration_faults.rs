//! Fault-plane integration tests: every fault type must drain to
//! quiescence with strict conservation, same-plan runs must be
//! byte-identical regardless of sweep thread count (per-link RNG streams
//! never touch the simulator RNG), a JSON round-tripped plan must replay
//! the exact same trace, and adaptive routing must route *around* a downed
//! uplink that blackholes static ECMP until the repair.

use dcp_bench::digest::{fnv_bytes, fnv_u64, FNV_OFFSET};
use dcp_bench::sweep_with_threads;
use dcp_core::dcp_switch_config;
use dcp_faults::{FaultEngine, FaultEvent, FaultPlan, LossModel};
use dcp_netsim::packet::FlowId;
use dcp_netsim::time::{Nanos, MS, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

/// The fault scenarios under test, one per mechanism the plane exposes.
/// Each plan targets the first cross cable of a 2-sender two-switch
/// testbed: `s1` port 2 (ports 0..2 are hosts), repaired or cleared at
/// 2 ms so the run always has a path back to health.
fn scenarios() -> Vec<(&'static str, FaultPlan)> {
    let s1 = dcp_netsim::packet::NodeId(0);
    let s2 = dcp_netsim::packet::NodeId(1);
    let cross = 2; // first post-host port on s1
    vec![
        ("ber", FaultPlan::new(0xbe7).with_loss_on(&[(s1, cross)], LossModel::Ber { ber: 1e-5 })),
        (
            "bursty",
            FaultPlan::new(0xb57).with_loss_on(&[(s1, cross)], LossModel::bursty(0.001, 0.1)),
        ),
        (
            "uniform-then-clear",
            FaultPlan::new(0x0ff)
                .at(
                    200 * US,
                    FaultEvent::SetLossModel {
                        sw: s1,
                        port: cross,
                        model: Some(LossModel::Uniform { rate: 0.05 }),
                    },
                )
                .at(2 * MS, FaultEvent::SetLossModel { sw: s1, port: cross, model: None }),
        ),
        (
            "link-flap",
            FaultPlan::new(0xf1a)
                .at(200 * US, FaultEvent::LinkDown { sw: s1, port: cross })
                .at(2 * MS, FaultEvent::LinkUp { sw: s1, port: cross }),
        ),
        (
            "degrade",
            FaultPlan::new(0xde6)
                .at(
                    200 * US,
                    FaultEvent::LinkDegrade { sw: s1, port: cross, gbps: 10.0, delay: 5 * US },
                )
                .at(
                    2 * MS,
                    FaultEvent::LinkDegrade { sw: s1, port: cross, gbps: 100.0, delay: US },
                ),
        ),
        (
            "switch-fail",
            FaultPlan::new(0x5f0)
                .at(200 * US, FaultEvent::SwitchFail { sw: s2 })
                .at(2 * MS, FaultEvent::SwitchRecover { sw: s2 }),
        ),
        (
            "pause-storm",
            FaultPlan::new(0x9a5)
                .at(200 * US, FaultEvent::PauseStorm { sw: s1, port: 0, duration: MS }),
        ),
    ]
}

/// Runs 2 DCP flows across the faulted testbed to quiescence; asserts
/// every message completes and the strict conservation identities hold,
/// then returns the completion-stream digest.
fn run_faulted(label: &str, plan: FaultPlan) -> u64 {
    let fan = 2;
    let cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, fan + 2);
    let mut sim = Simulator::new(7);
    let topo = topology::two_switch_testbed(&mut sim, cfg, fan, 100.0, &[100.0; 2], US, US);
    FaultEngine::install(&mut sim, plan.sorted());
    let msgs = 4u64;
    for i in 0..fan {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) = endpoint_pair(
            TransportKind::Dcp,
            CcKind::None,
            flow,
            topo.hosts[i],
            topo.hosts[fan + i],
        );
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(topo.hosts[fan + i], flow, rx);
        for m in 0..msgs {
            sim.post(
                topo.hosts[i],
                flow,
                m,
                WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
                256 * 1024,
            );
        }
    }
    let mut h = FNV_OFFSET;
    let mut done = 0u64;
    while sim.advance().is_some() {
        sim.for_each_completion(|c| {
            h = fnv_u64(h, c.host.0 as u64);
            h = fnv_u64(h, c.flow.0 as u64);
            h = fnv_u64(h, c.wr_id);
            h = fnv_u64(h, c.bytes);
            h = fnv_u64(h, c.at);
            if c.kind == CompletionKind::RecvComplete {
                done += 1;
            }
        });
        assert!(sim.now() < 2_000 * MS, "{label}: fabric failed to drain");
    }
    assert_eq!(done, fan as u64 * msgs, "{label}: every message must complete");
    let cons = sim.check_conservation(true);
    assert!(cons.is_ok(), "{label}: strict conservation violated: {:?}", cons.violations);
    h = fnv_bytes(h, format!("{:?}", sim.net_stats()).as_bytes());
    h = fnv_u64(h, sim.events_processed());
    fnv_u64(h, sim.now())
}

#[test]
fn every_fault_type_drains_with_strict_conservation() {
    for (label, plan) in scenarios() {
        run_faulted(label, plan);
    }
}

#[test]
fn fault_digests_are_identical_across_sweep_thread_counts() {
    let serial = sweep_with_threads(scenarios(), 1, |(label, plan)| run_faulted(label, plan));
    let parallel = sweep_with_threads(scenarios(), 4, |(label, plan)| run_faulted(label, plan));
    assert_eq!(serial, parallel, "fault traces must not depend on sweep threading");
}

#[test]
fn json_round_tripped_plan_replays_identically() {
    for (label, plan) in scenarios() {
        let reloaded = FaultPlan::load(&plan.save()).expect("plan survives its own JSON");
        assert_eq!(
            run_faulted(label, plan),
            run_faulted(label, reloaded),
            "{label}: a saved+loaded plan must replay the exact same trace"
        );
    }
}

/// One route-around run on a dual-homed two-switch testbed (two parallel
/// cross cables): 4 DCP flows s1→s2, cross cable 0 goes down mid-transfer
/// and comes back at `link_up`. Both ends of the dead cable are *local*
/// ports of the two switches, so adaptive routing can observe the failure
/// (the dead port's queue only grows) in both directions — the scenario AR
/// genuinely handles, unlike a failure two hops away, which only a routing
/// protocol can see. Returns (last completion time, completed messages).
fn run_route_around(lb: LoadBalance, link_up: Nanos) -> (Nanos, u64) {
    let fan = 4;
    let cfg = dcp_switch_config(lb, fan + 2);
    let mut sim = Simulator::new(13);
    let topo = topology::two_switch_testbed(&mut sim, cfg, fan, 100.0, &[100.0; 2], US, US);
    let cross0 = fan; // first post-host port on s1
    let plan = FaultPlan::new(0xa2)
        .at(100 * US, FaultEvent::LinkDown { sw: topo.leaves[0], port: cross0 })
        .at(link_up, FaultEvent::LinkUp { sw: topo.leaves[0], port: cross0 })
        .sorted();
    FaultEngine::install(&mut sim, plan);
    // Four flows across two cables, so ECMP cannot get lucky and hash
    // every flow (in both directions) onto the surviving cable.
    let msgs = 4u64;
    for i in 0..fan {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) = endpoint_pair(
            TransportKind::Dcp,
            CcKind::None,
            flow,
            topo.hosts[i],
            topo.hosts[fan + i],
        );
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(topo.hosts[fan + i], flow, rx);
        for m in 0..msgs {
            sim.post(
                topo.hosts[i],
                flow,
                m,
                WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
                256 * 1024,
            );
        }
    }
    let mut last_fct = 0;
    let mut done = 0u64;
    while sim.advance().is_some() {
        sim.for_each_completion(|c| {
            if c.kind == CompletionKind::RecvComplete {
                done += 1;
                last_fct = last_fct.max(c.at);
            }
        });
        assert!(sim.now() < 2_000 * MS, "{lb:?}: fabric failed to drain");
    }
    let cons = sim.check_conservation(true);
    assert!(cons.is_ok(), "{lb:?}: strict conservation violated: {:?}", cons.violations);
    assert_eq!(done, fan as u64 * msgs, "{lb:?}: every message must complete");
    (last_fct, done)
}

#[test]
fn adaptive_routing_routes_around_a_downed_cross_link_that_blackholes_ecmp() {
    let link_up = 50 * MS;
    let (ar_fct, _) = run_route_around(LoadBalance::AdaptiveRouting, link_up);
    let (ecmp_fct, _) = run_route_around(LoadBalance::Ecmp, link_up);
    // Adaptive routing steers new and retransmitted packets onto the
    // surviving uplink (the dead port's queue only grows, so it always
    // loses the least-loaded comparison) and finishes long before the
    // repair; static ECMP keeps hashing at least one flow onto the dead
    // uplink and cannot finish until the link returns.
    assert!(
        ar_fct < link_up,
        "adaptive routing should finish before the repair (finished at {ar_fct} ns)"
    );
    assert!(
        ecmp_fct > link_up,
        "ECMP should be blackholed until the repair (finished at {ecmp_fct} ns)"
    );
}
