//! Telemetry integration tests: probes must be invisible to the
//! simulation (same-seed digests identical with telemetry off, on, or
//! absent), the flight recorder must capture the tail of a wedged run,
//! and the strict conservation identities must hold at quiescence for
//! every transport.

use dcp_bench::digest::{fnv_bytes, fnv_u64, FNV_OFFSET};
use dcp_core::dcp_switch_config;
use dcp_netsim::packet::FlowId;
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{MS, SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_telemetry::{EventLog, FlightRecorder, NullProbe, Probe};
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

/// The determinism-suite workload (4-to-1 DCP incast over adaptive
/// routing: trimming, HO recovery and RNG port choices all active), with
/// an optional probe installed. Returns the completion-stream digest and
/// the number of trace lines the probe captured (0 without an `EventLog`).
fn run_digest(seed: u64, probe: Option<Box<dyn Probe>>) -> (u64, usize) {
    let fan_in = 4;
    let cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, fan_in + 2);
    let mut sim = Simulator::new(seed);
    if let Some(p) = probe {
        sim.set_probe(p);
    }
    let topo = topology::two_switch_testbed(&mut sim, cfg, fan_in, 100.0, &[25.0; 2], US, US);
    let victim = topo.hosts[fan_in];
    for i in 0..fan_in {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) = endpoint_pair(TransportKind::Dcp, CcKind::None, flow, topo.hosts[i], victim);
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(victim, flow, rx);
        for m in 0..8u64 {
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
    while sim.now() < SEC {
        if sim.advance().is_none() {
            break;
        }
        sim.for_each_completion(|c| {
            h = fnv_u64(h, c.host.0 as u64);
            h = fnv_u64(h, c.flow.0 as u64);
            h = fnv_u64(h, c.wr_id);
            h = fnv_u64(h, matches!(c.kind, CompletionKind::RecvComplete) as u64);
            h = fnv_u64(h, c.bytes);
            h = fnv_u64(h, c.at);
        });
    }
    h = fnv_bytes(h, format!("{:?}", sim.net_stats()).as_bytes());
    h = fnv_u64(h, sim.events_processed());
    h = fnv_u64(h, sim.now());
    let lines = sim.probe_mut().map(|p| p.drain_jsonl().len()).unwrap_or(0);
    (h, lines)
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    let (bare, n0) = run_digest(5, None);
    let (with_null, n1) = run_digest(5, Some(Box::new(NullProbe)));
    let (with_recorder, n2) = run_digest(5, Some(Box::new(FlightRecorder::default())));
    let (with_log, n3) = run_digest(5, Some(Box::new(EventLog::default())));
    assert_eq!(bare, with_null, "NullProbe must not change the trace");
    assert_eq!(bare, with_recorder, "FlightRecorder must not change the trace");
    assert_eq!(bare, with_log, "EventLog must not change the trace");
    assert_eq!((n0, n1, n2), (0, 0, 0), "only EventLog retains lines");
    assert!(n3 > 0, "the probes must actually have fired ({n3} lines)");
}

#[test]
fn flight_recorder_captures_a_wedged_run() {
    // A fabric that drops every data packet: senders retransmit forever,
    // nothing completes, and the deadline passes with events pending.
    let mut cfg = SwitchConfig::lossy(LoadBalance::Ecmp);
    cfg.forced_loss_rate = 1.0;
    let mut sim = Simulator::new(9);
    sim.set_probe(Box::new(FlightRecorder::default()));
    let topo = topology::two_switch_testbed(&mut sim, cfg, 2, 100.0, &[100.0; 2], US, US);
    let flow = FlowId(1);
    let (tx, rx) =
        endpoint_pair(TransportKind::Gbn, CcKind::None, flow, topo.hosts[0], topo.hosts[2]);
    sim.install_endpoint(topo.hosts[0], flow, tx);
    sim.install_endpoint(topo.hosts[2], flow, rx);
    sim.post(topo.hosts[0], flow, 0, WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 }, 1 << 20);
    let quiesced = sim.run_to_quiescence(5 * MS);
    assert!(!quiesced, "a 100%-loss fabric must not quiesce");
    let dump = sim.flight_dump().expect("recorder installed, events recorded");
    assert!(dump.contains("drop"), "dump should show the drops: {dump}");
    assert!(dump.contains("retx"), "dump should show the retransmissions: {dump}");
}

#[test]
fn strict_conservation_at_quiescence_for_every_transport() {
    let kinds = [
        TransportKind::Gbn,
        TransportKind::Irn,
        TransportKind::MpRdma,
        TransportKind::RackTlp,
        TransportKind::TimeoutOnly,
        TransportKind::Dcp,
    ];
    for kind in kinds {
        // The transport's natural fabric, plus forced loss so the drop
        // accounting is exercised, not just the happy path.
        let mut cfg = match kind {
            TransportKind::Dcp => dcp_switch_config(LoadBalance::AdaptiveRouting, 6),
            TransportKind::MpRdma => {
                let mut c = SwitchConfig::lossless(LoadBalance::Ecmp);
                c.ecn = Some(dcp_netsim::EcnConfig::default_100g());
                c
            }
            _ => SwitchConfig::lossy(LoadBalance::Ecmp),
        };
        if kind != TransportKind::MpRdma {
            cfg.forced_loss_rate = 0.02;
        }
        let mut sim = Simulator::new(11);
        let topo = topology::two_switch_testbed(&mut sim, cfg, 2, 100.0, &[25.0; 2], US, US);
        for i in 0..2 {
            let flow = FlowId(i as u32 + 1);
            let (tx, rx) = endpoint_pair(
                kind,
                CcKind::Bdp { gbps: 100.0, rtt: 12 * US },
                flow,
                topo.hosts[i],
                topo.hosts[2 + i],
            );
            sim.install_endpoint(topo.hosts[i], flow, tx);
            sim.install_endpoint(topo.hosts[2 + i], flow, rx);
            sim.post(
                topo.hosts[i],
                flow,
                0,
                WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
                1 << 20,
            );
        }
        assert!(sim.run_to_quiescence(10 * SEC), "{kind:?} must drain");
        let cons = sim.check_conservation(true);
        assert!(cons.is_ok(), "{kind:?}: {:?}", cons.violations);
    }
}
