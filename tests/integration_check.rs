//! Conformance & liveness integration tests for `dcp-check`:
//!
//! * a deliberately cyclic lossless ring must PFC-deadlock, and
//!   [`pfc_deadlock_cycle`] must name the ring — while a lossless *tree*
//!   under incast pauses plenty but never cycles;
//! * re-enabling the pre-fix RACK-TLP RTO discipline
//!   (`RackConfig::broken_rto_restart`, DESIGN.md Finding 5) must be
//!   caught *by the liveness watchdog as a classified `Livelock`*, not by
//!   a harness timeout, while the fixed build recovers through its
//!   (undeferred) RTO on the identical schedule;
//! * the ddmin shrinker must reduce the padded fault plan that triggers
//!   that livelock to ≤ 3 events and emit a replayable JSON repro;
//! * dropping the *final* eMSN ACK of a DCP flow (DESIGN.md Finding 2)
//!   must recover via coarse timeout + re-ACK-on-stale with the delivery
//!   oracle confirming exactly-once completion;
//! * adversarial runs must be byte-identical across `DCP_THREADS`.

use dcp_bench::digest::{fnv_u64, FNV_OFFSET};
use dcp_bench::sweep_with_threads;
use dcp_check::{
    pfc_deadlock_cycle, shrink_plan, shrink_repro, Adversary, AdversaryProfile, DeliveryOracle,
    Liveness, Repro, Watchdog,
};
use dcp_core::dcp_switch_config;
use dcp_faults::{FaultEngine, FaultEvent, FaultPlan, LossModel};
use dcp_netsim::packet::{FlowId, NodeId};
use dcp_netsim::switch::{PfcConfig, SwitchConfig};
use dcp_netsim::time::{Nanos, MS, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::headers::DcpTag;
use dcp_rdma::qp::WorkReqOp;
use dcp_telemetry::{Fanout, FlightRecorder};
use dcp_transport::cc::NoCc;
use dcp_transport::common::{FlowCfg, Placement};
use dcp_transport::racktlp::{rack_pair, RackConfig};
use dcp_workloads::{endpoint_pair_opts, CcKind, RunOpts, TransportKind};

fn checkers(sim: &mut Simulator) -> (DeliveryOracle, Watchdog) {
    let oracle = DeliveryOracle::new();
    let watchdog = Watchdog::new();
    sim.set_probe(Box::new(Fanout::new(vec![
        oracle.probe(),
        watchdog.probe(),
        Box::new(FlightRecorder::default()),
    ])));
    (oracle, watchdog)
}

fn post_write(sim: &mut Simulator, host: NodeId, flow: FlowId, wr_id: u64, bytes: u64) {
    sim.post(host, flow, wr_id, WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 }, bytes);
}

// ---------------------------------------------------------------------------
// PFC deadlock: the cyclic ring trips the detector, the tree never does.
// ---------------------------------------------------------------------------

/// Three switches wired in a clockwise ring (the canonical circular-buffer-
/// dependency topology PFC folklore warns about), two hosts each, with
/// deliberately tight PAUSE thresholds. Every flow crosses *two* ring hops,
/// so each ring link carries transit traffic whose egress is the next ring
/// link — the cyclic dependency.
#[test]
fn cyclic_lossless_ring_deadlocks_and_the_cycle_detector_names_the_ring() {
    let mut cfg = SwitchConfig::lossless(LoadBalance::Ecmp);
    cfg.pfc = Some(PfcConfig { xoff_bytes: 64 * 1024, xon_bytes: 48 * 1024 });
    let mut sim = Simulator::new(3);
    let sw: Vec<NodeId> = (0..3).map(|_| sim.add_switch(cfg)).collect();
    let mut hosts = Vec::new();
    let mut access = Vec::new();
    for &s in &sw {
        for _ in 0..2 {
            let h = sim.add_host();
            access.push((h, s, sim.connect_host_switch(h, s, 100.0, US)));
            hosts.push(h);
        }
    }
    // Clockwise ring cables; cw[s] is s's egress port toward switch s+1.
    let mut cw = [0usize; 3];
    for s in 0..3 {
        let (pa, _) = sim.connect_switches(sw[s], sw[(s + 1) % 3], 100.0, US);
        cw[s] = pa;
    }
    // Clockwise-only routing: local hosts via their access port, every
    // remote host via the ring.
    for s in 0..3 {
        for (i, &h) in hosts.iter().enumerate() {
            if i / 2 == s {
                let (_, _, port) = access[i];
                sim.switch_mut(sw[s]).routing.add_route(h, [port]);
            } else {
                sim.switch_mut(sw[s]).routing.add_route(h, [cw[s]]);
            }
        }
    }
    let (oracle, watchdog) = checkers(&mut sim);
    // Each host sends two ring hops clockwise: switch s's hosts target
    // switch (s+2)%3's hosts, so every ring link carries both final-hop
    // and transit traffic and the buffer dependency closes on itself.
    for (i, &src) in hosts.iter().enumerate() {
        let dst = hosts[(i + 4) % 6];
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) = endpoint_pair_opts(
            TransportKind::Gbn,
            CcKind::None,
            flow,
            src,
            dst,
            RunOpts::default(),
        );
        sim.install_endpoint(src, flow, tx);
        sim.install_endpoint(dst, flow, rx);
        post_write(&mut sim, src, flow, 0, 4 << 20);
    }
    let mut detected = None;
    let mut steps = 0u64;
    while sim.advance().is_some() {
        steps += 1;
        if steps.is_multiple_of(512) {
            if let Some(cycle) = pfc_deadlock_cycle(&sim) {
                detected = Some((cycle, sim.now()));
                break;
            }
        }
        assert!(sim.now() < 200 * MS, "ring neither deadlocked nor drained");
    }
    let (mut cycle, at) = detected.expect("a cyclic lossless ring must PFC-deadlock");
    cycle.sort_unstable_by_key(|n| n.0);
    assert_eq!(cycle, sw, "the detected cycle should be exactly the three ring switches");
    // The fabric deadlock also shows up endpoint-side: give the run a
    // stall window and the liveness watchdog must flag it (either flavour
    // — GBN may or may not manage to push retransmissions into the wedge).
    sim.run_until(at + 8 * MS);
    let verdict = watchdog.check(at + 8 * MS, oracle.outstanding());
    assert!(
        matches!(verdict, Liveness::Stall { .. } | Liveness::Livelock { .. }),
        "a PFC deadlock must register as a liveness failure, got {verdict:?}"
    );
}

#[test]
fn lossless_tree_under_incast_pauses_but_never_cycles() {
    let mut cfg = SwitchConfig::lossless(LoadBalance::Ecmp);
    cfg.pfc = Some(PfcConfig { xoff_bytes: 64 * 1024, xon_bytes: 48 * 1024 });
    let mut sim = Simulator::new(4);
    let fan = 2;
    let topo = topology::two_switch_testbed(&mut sim, cfg, fan, 100.0, &[100.0], US, US);
    let (oracle, _) = checkers(&mut sim);
    // 2:1 incast onto one receiver: plenty of backpressure, zero cycles.
    for i in 0..fan {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) = endpoint_pair_opts(
            TransportKind::Gbn,
            CcKind::None,
            flow,
            topo.hosts[i],
            topo.hosts[fan],
            RunOpts::default(),
        );
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(topo.hosts[fan], flow, rx);
        post_write(&mut sim, topo.hosts[i], flow, 0, 2 << 20);
    }
    // Look every 10 µs: a bounded slice leaves every shard standing at its
    // limit, so the pause graph is read at one instant at any shard count.
    let mut saw_pause = false;
    while sim.pending_events() > 0 {
        sim.run_until(sim.now() + 10 * US);
        saw_pause |= !sim.pause_edges().is_empty();
        assert_eq!(
            pfc_deadlock_cycle(&sim),
            None,
            "a tree topology must never produce a pause cycle"
        );
        assert!(sim.now() < 500 * MS, "incast failed to drain");
    }
    assert!(saw_pause, "the control is vacuous unless PFC actually engaged");
    assert_eq!(oracle.outstanding(), 0);
    oracle.final_check().expect("incast must deliver exactly once");
    let cons = sim.check_conservation(true);
    assert!(cons.is_ok(), "strict conservation violated: {:?}", cons.violations);
}

// ---------------------------------------------------------------------------
// The RACK-TLP livelock regression (DESIGN.md Finding 5), pinned via
// `RackConfig::broken_rto_restart` against the liveness watchdog.
// ---------------------------------------------------------------------------

/// Host 0 of the fan=1 two-switch testbed (`s1`=0, `s2`=1, hosts 2 and 3).
const RACK_SRC: NodeId = NodeId(2);
/// The cross cable, named from `s1`: port 1 (port 0 faces the host).
const RACK_CROSS: (NodeId, usize) = (NodeId(0), 1);
const RACK_MSG: u64 = 32 * 1024;

/// The livelock needs two ingredients: an initial hole (so the receiver
/// can never complete) and ACK starvation (so RACK's ACK-driven loss
/// detection stays blind and only the timers act). A rate-1.0 loss window
/// over the initial flight supplies the hole; the adversary holding every
/// ACK-class arrival at the sender for 50 ms supplies the starvation.
/// The fixed sender escapes through its RTO long before either watchdog
/// bound; the broken sender re-arms that RTO on every probe it sends and
/// spins on TLP probes forever.
fn rack_scenario() -> (FaultPlan, AdversaryProfile) {
    let (sw, port) = RACK_CROSS;
    let plan = FaultPlan::new(0xbad)
        .at(
            US,
            FaultEvent::SetLossModel { sw, port, model: Some(LossModel::Uniform { rate: 1.0 }) },
        )
        .at(50 * US, FaultEvent::SetLossModel { sw, port, model: None });
    // Hold every ACK-class arrival at the sender's NIC for 50 ms.
    (plan, AdversaryProfile::ack_delay((RACK_SRC, 0), 50 * MS))
}

struct RackOutcome {
    verdict: Liveness,
    report: String,
    completed: u64,
    ended_at: Nanos,
}

fn run_rack(broken: bool, plan: &FaultPlan, profile: &AdversaryProfile) -> RackOutcome {
    let mut sim = Simulator::new(11);
    let topo = topology::two_switch_testbed(
        &mut sim,
        SwitchConfig::lossy(LoadBalance::Ecmp),
        1,
        100.0,
        &[100.0],
        US,
        US,
    );
    let (src, dst) = (topo.hosts[0], topo.hosts[1]);
    assert_eq!(src, RACK_SRC);
    let (oracle, watchdog) = checkers(&mut sim);
    FaultEngine::try_install(&mut sim, plan.clone().sorted()).expect("rack plan is valid");
    Adversary::install(&mut sim, profile.clone(), 0xacde);
    let flow = FlowId(1);
    let rcfg = RackConfig { broken_rto_restart: broken, ..Default::default() };
    let cfg = FlowCfg::sender(flow, src, dst, DcpTag::NonDcp);
    let (tx, rx) = rack_pair(cfg, rcfg, Box::new(NoCc::default()), Placement::Virtual);
    sim.install_endpoint(src, flow, Box::new(tx));
    sim.install_endpoint(dst, flow, Box::new(rx));
    post_write(&mut sim, src, flow, 0, RACK_MSG);
    // The watchdog looks every 250 µs of virtual time. (Not `advance()`:
    // a livelocked flow never completes anything, and a sharded engine's
    // unbounded `advance` only returns at a completion boundary.)
    while sim.pending_events() > 0 {
        sim.run_until(sim.now() + 250 * US);
        let verdict = watchdog.check(sim.now(), oracle.outstanding());
        if verdict != Liveness::Ok {
            return RackOutcome {
                report: watchdog.report(&verdict, &sim),
                verdict,
                completed: oracle.completed(),
                ended_at: sim.now(),
            };
        }
        // The watchdog, not this guard, is the intended failure detector.
        assert!(sim.now() < 400 * MS, "harness hang guard tripped before the watchdog");
    }
    oracle.final_check().expect("drained rack run must be oracle-clean");
    let cons = sim.check_conservation(true);
    assert!(cons.is_ok(), "strict conservation violated: {:?}", cons.violations);
    RackOutcome {
        verdict: Liveness::Ok,
        report: String::new(),
        completed: oracle.completed(),
        ended_at: sim.now(),
    }
}

#[test]
fn broken_rack_rto_livelocks_where_the_fixed_build_recovers() {
    let (plan, profile) = rack_scenario();
    let fixed = run_rack(false, &plan, &profile);
    assert_eq!(fixed.verdict, Liveness::Ok, "fixed build must stay watchdog-quiet");
    assert_eq!(fixed.completed, 1, "fixed build must deliver the message");
    let broken = run_rack(true, &plan, &profile);
    assert!(
        matches!(broken.verdict, Liveness::Livelock { retx, .. } if retx >= 8),
        "the pre-fix RTO discipline must be classified as a livelock \
         (retx advancing, zero delivery), got {:?}",
        broken.verdict
    );
    assert_eq!(broken.completed, 0);
    // Flagged mid-run by the watchdog's virtual-time bound — well before
    // any harness timeout, with the flight recorder's story attached.
    assert!(
        broken.ended_at < 10 * MS,
        "watchdog should trip shortly after the 5 ms stall bound, not at {}",
        broken.ended_at
    );
    assert!(broken.report.contains("liveness watchdog tripped"), "{}", broken.report);
}

#[test]
fn livelock_repro_shrinks_to_at_most_three_events() {
    let (essential, profile) = rack_scenario();
    let (sw, _) = RACK_CROSS;
    let s2 = NodeId(1);
    // Pad the triggering plan with plausible-looking noise the shrinker
    // must strip: no-op clears/degrades and post-trip link flaps.
    let padded = essential
        .at(3 * MS, FaultEvent::SetLossModel { sw, port: 0, model: None })
        .at(10 * MS, FaultEvent::PauseStorm { sw: s2, port: 0, duration: 5 * US })
        .at(20 * MS, FaultEvent::LinkDegrade { sw: s2, port: 1, gbps: 100.0, delay: US })
        .at(300 * MS, FaultEvent::LinkDown { sw, port: 0 })
        .at(301 * MS, FaultEvent::LinkUp { sw, port: 0 })
        .sorted();
    assert_eq!(padded.events.len(), 7);
    let trips =
        |p: &FaultPlan| matches!(run_rack(true, p, &profile).verdict, Liveness::Livelock { .. });
    let shrunk = shrink_plan(&padded, trips);
    assert!(
        shrunk.events.len() <= 3,
        "ddmin must reduce the 7-event plan to ≤ 3 events, kept {}",
        shrunk.events.len()
    );
    assert!(trips(&shrunk), "the shrunken plan must still reproduce the livelock");
    assert!(
        shrunk.events.iter().all(|t| matches!(t.event, FaultEvent::SetLossModel { .. })),
        "only the loss window is essential: {shrunk:?}"
    );
    // The CI artifact format: a self-contained, replayable repro. Shrink
    // it under the *differential* criterion — broken build livelocks AND
    // fixed build recovers — which is the bug's actual signature. (A bare
    // permanent-loss plan livelocks either build, so the broken-only
    // criterion above legitimately shrinks past the window; the
    // differential one must keep the loss *window* and the ACK hold.)
    let differential = |p: &FaultPlan, prof: &AdversaryProfile| {
        matches!(run_rack(true, p, prof).verdict, Liveness::Livelock { .. }) && {
            let fixed = run_rack(false, p, prof);
            fixed.verdict == Liveness::Ok && fixed.completed == 1
        }
    };
    let repro = Repro { plan: padded, profile: profile.clone(), adversary_seed: 0xacde };
    let repro = shrink_repro(&repro, |r| differential(&r.plan, &r.profile));
    assert!(
        repro.plan.events.len() <= 3,
        "differential shrink must also land ≤ 3 events, kept {}",
        repro.plan.events.len()
    );
    assert!(
        (repro.profile.delay_prob - 1.0).abs() < f64::EPSILON,
        "the ACK hold is load-bearing for the differential repro and must survive ablation"
    );
    let loaded = Repro::load(&repro.save()).expect("repro JSON must round-trip");
    assert_eq!(loaded, repro);
    assert!(
        differential(&loaded.plan, &loaded.profile),
        "the saved artifact must replay the failure"
    );
}

// ---------------------------------------------------------------------------
// DESIGN.md Finding 2: losing the final eMSN ACK must not strand the flow
// (coarse timeout + re-ACK-on-stale) nor double-complete it.
// ---------------------------------------------------------------------------

struct DcpOutcome {
    recv_completes: u64,
    last_recv_at: Nanos,
    send_complete_at: Nanos,
    timeouts: u64,
    retx: u64,
}

fn run_dcp_final_ack(plan: Option<FaultPlan>) -> DcpOutcome {
    let mut sim = Simulator::new(7);
    let topo = topology::two_switch_testbed(
        &mut sim,
        dcp_switch_config(LoadBalance::Ecmp, 4),
        1,
        100.0,
        &[100.0],
        US,
        US,
    );
    let (oracle, _) = checkers(&mut sim);
    if let Some(plan) = plan {
        FaultEngine::try_install(&mut sim, plan.sorted()).expect("finding-2 plan is valid");
    }
    let flow = FlowId(1);
    let mut opts = RunOpts::default();
    opts.dcp.coarse_timeout = MS;
    let (tx, rx) = endpoint_pair_opts(
        TransportKind::Dcp,
        CcKind::None,
        flow,
        topo.hosts[0],
        topo.hosts[1],
        opts,
    );
    sim.install_endpoint(topo.hosts[0], flow, tx);
    sim.install_endpoint(topo.hosts[1], flow, rx);
    post_write(&mut sim, topo.hosts[0], flow, 0, 256 * 1024);
    let mut out = DcpOutcome {
        recv_completes: 0,
        last_recv_at: 0,
        send_complete_at: 0,
        timeouts: 0,
        retx: 0,
    };
    while sim.advance().is_some() {
        sim.for_each_completion(|c| match c.kind {
            CompletionKind::RecvComplete => {
                out.recv_completes += 1;
                out.last_recv_at = out.last_recv_at.max(c.at);
            }
            CompletionKind::SendComplete => out.send_complete_at = c.at,
        });
        assert!(sim.now() < 200 * MS, "finding-2 run failed to drain");
    }
    oracle.final_check().expect("delivery must be exactly-once");
    let cons = sim.check_conservation(true);
    assert!(cons.is_ok(), "strict conservation violated: {:?}", cons.violations);
    let eps = sim.all_endpoint_stats();
    out.timeouts = eps.timeouts;
    out.retx = eps.retx_pkts;
    out
}

#[test]
fn dropped_final_emsn_ack_recovers_via_coarse_timeout_exactly_once() {
    // Calibrate: where does the final eMSN ACK fly on a clean run? It is
    // emitted at receiver completion and crosses the inter-switch cable
    // within a couple of link delays.
    let clean = run_dcp_final_ack(None);
    assert_eq!(clean.recv_completes, 1);
    assert_eq!(clean.timeouts, 0, "the clean run must not need the coarse timeout");
    // A rate-1.0 window on the cross cable opening exactly at receiver
    // completion eats every ACK crossing in the next 8 µs — the final
    // eMSN ACK included. All data is already across; nothing else flies.
    let (sw, port) = RACK_CROSS;
    let plan = FaultPlan::new(0xf2)
        .at(
            clean.last_recv_at,
            FaultEvent::SetLossModel { sw, port, model: Some(LossModel::Uniform { rate: 1.0 }) },
        )
        .at(clean.last_recv_at + 8 * US, FaultEvent::SetLossModel { sw, port, model: None });
    let faulted = run_dcp_final_ack(Some(plan));
    // The receiver completed once, on time, and never re-completed when
    // the whole-message resend arrived (the tracker judges it stale and
    // re-ACKs instead — exactly-once also asserted by the oracle).
    assert_eq!(faulted.recv_completes, 1);
    assert_eq!(faulted.last_recv_at, clean.last_recv_at);
    // The sender was stranded until the coarse timeout resent the message
    // and the stale re-ACK retired it.
    assert!(faulted.timeouts >= 1, "the coarse timeout must fire");
    assert!(faulted.retx > clean.retx, "the whole-message resend must hit the wire");
    assert!(
        faulted.send_complete_at > clean.send_complete_at + MS / 2,
        "sender completion must wait for the coarse timeout: clean {} vs faulted {}",
        clean.send_complete_at,
        faulted.send_complete_at
    );
}

// ---------------------------------------------------------------------------
// Determinism: adversarial runs are byte-identical across sweep threads.
// ---------------------------------------------------------------------------

fn adversary_digest((kind, pname): (TransportKind, &'static str)) -> u64 {
    let profile = match pname {
        "duplicate" => AdversaryProfile::duplicate(),
        "reorder" => AdversaryProfile::reorder(),
        "delay-jitter" => AdversaryProfile::delay_jitter(),
        other => panic!("unknown profile {other}"),
    };
    let cfg = if kind == TransportKind::Dcp {
        dcp_switch_config(LoadBalance::AdaptiveRouting, 6)
    } else {
        SwitchConfig::lossy(LoadBalance::Ecmp)
    };
    let mut sim = Simulator::new(5);
    let fan = 2;
    let topo = topology::two_switch_testbed(&mut sim, cfg, fan, 100.0, &[100.0; 2], US, US);
    let (oracle, _) = checkers(&mut sim);
    Adversary::install(&mut sim, profile, 0x7157);
    for i in 0..fan {
        let flow = FlowId(i as u32 + 1);
        let mut opts = RunOpts::default();
        opts.dcp.coarse_timeout = MS;
        let (tx, rx) =
            endpoint_pair_opts(kind, CcKind::None, flow, topo.hosts[i], topo.hosts[fan + i], opts);
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(topo.hosts[fan + i], flow, rx);
        for m in 0..2 {
            post_write(&mut sim, topo.hosts[i], flow, m, 128 * 1024);
        }
    }
    while sim.advance().is_some() {
        assert!(sim.now() < 2_000 * MS, "{kind:?}/{pname}: failed to drain");
    }
    oracle.final_check().unwrap_or_else(|e| panic!("{kind:?}/{pname}: oracle violations:\n{e}"));
    let cons = sim.check_conservation(true);
    assert!(cons.is_ok(), "{kind:?}/{pname}: strict conservation violated: {:?}", cons.violations);
    let net = sim.net_stats();
    let eps = sim.all_endpoint_stats();
    [
        oracle.posted(),
        oracle.completed(),
        eps.pkts_received,
        eps.retx_pkts,
        net.dup_data_injected,
        net.dup_ho_injected,
        sim.now(),
    ]
    .iter()
    .fold(FNV_OFFSET, |h, &v| fnv_u64(h, v))
}

#[test]
fn adversarial_runs_are_identical_across_sweep_threads() {
    let points: Vec<(TransportKind, &'static str)> = vec![
        (TransportKind::Dcp, "duplicate"),
        (TransportKind::Dcp, "reorder"),
        (TransportKind::Irn, "duplicate"),
        (TransportKind::Gbn, "delay-jitter"),
        (TransportKind::RackTlp, "reorder"),
    ];
    let serial = sweep_with_threads(points.clone(), 1, adversary_digest);
    let parallel = sweep_with_threads(points, 4, adversary_digest);
    assert_eq!(serial, parallel, "adversary streams must never touch shared RNG state");
}
