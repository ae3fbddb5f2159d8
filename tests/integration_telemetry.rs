//! Telemetry integration tests: probes must be invisible to the
//! simulation (same-seed digests identical with telemetry off, on, or
//! absent), the flight recorder must capture the tail of a wedged run,
//! the strict conservation identities must hold at quiescence for
//! every transport, and a JSONL trace line must read back as exactly the
//! event it was written from, or as nothing — any variant, any field value.

use dcp_bench::digest::{fnv_bytes, fnv_u64, FNV_OFFSET};
use dcp_core::dcp_switch_config;
use dcp_netsim::packet::FlowId;
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{MS, SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_telemetry::{
    DropClass, EventKind, FaultKind, FlightRecorder, NullProbe, Probe, ProbeEvent, QueueClass,
    RetxCause,
};
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};
use proptest::prelude::*;

/// The determinism-suite workload (4-to-1 DCP incast over adaptive
/// routing: trimming, HO recovery and RNG port choices all active), with
/// an optional probe installed. Returns the completion-stream digest and
/// the number of trace lines the probe captured (0 without a capture).
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
    let (with_log, n3) = run_digest(5, Some(Box::new(Vec::<(u64, ProbeEvent)>::new())));
    assert_eq!(bare, with_null, "NullProbe must not change the trace");
    assert_eq!(bare, with_recorder, "FlightRecorder must not change the trace");
    assert_eq!(bare, with_log, "a full capture must not change the trace");
    assert_eq!((n0, n1, n2), (0, 0, 0), "only the capture retains lines");
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

/// A value for a field whose usual range is `bits` wide: inside it seven
/// times in eight (the last in-range value included), otherwise past it —
/// from exactly `2^bits` up to `max`, the type's whole range.
fn lane(bits: u32, max: u64) -> impl Strategy<Value = u64> {
    let edge = 1u64 << bits;
    (0u8..16, 0..edge, edge..=max).prop_map(move |(pick, inside, outside)| match pick {
        0 => outside,
        1 => edge,
        2 => edge - 1,
        _ => inside,
    })
}

prop_compose! {
    /// Any variant with any field values, each field independently in or
    /// past its usual range.
    fn any_event()(
        kind in 0..EventKind::COUNT,
        at in lane(40, u64::MAX),
        node in lane(19, u32::MAX.into()),
        flow in lane(18, u32::MAX.into()),
        psn in lane(24, u32::MAX.into()),
        bytes in lane(12, u32::MAX.into()),
        port in lane(8, u32::MAX.into()),
        wr_id in lane(22, u64::MAX),
        msg_bytes in lane(24, u64::MAX),
        tag in 0usize..8,
    ) -> (u64, ProbeEvent) {
        use ProbeEvent as E;
        let (node, flow, psn, bytes, port) =
            (node as u32, flow as u32, psn as u32, bytes as u32, port as u32);
        let queue = [QueueClass::Data, QueueClass::Ctrl][tag % 2];
        let class = [
            DropClass::Data,
            DropClass::HeaderOnly,
            DropClass::Ack,
            DropClass::Buffer,
            DropClass::Fault,
        ][tag % 5];
        let cause = [
            RetxCause::Unknown,
            RetxCause::Ho,
            RetxCause::Nack,
            RetxCause::Sack,
            RetxCause::Rack,
            RetxCause::DupAck,
            RetxCause::Tlp,
            RetxCause::Timeout,
        ][tag];
        let fault = [
            FaultKind::Link,
            FaultKind::Degrade,
            FaultKind::Switch,
            FaultKind::LossModel,
            FaultKind::PauseStorm,
        ][tag % 5];
        let ev = match EventKind::ALL[kind] {
            EventKind::Enqueue => E::Enqueue { node, port, queue, flow, psn, bytes },
            EventKind::Dequeue => E::Dequeue { node, port, queue, flow, psn, bytes },
            EventKind::Trim => E::Trim { node, port, flow, psn },
            EventKind::Drop => E::Drop { node, port, flow, psn, class },
            EventKind::EcnMark => E::EcnMark { node, port, flow, psn },
            EventKind::PfcPause => E::PfcPause { node, port },
            EventKind::PfcResume => E::PfcResume { node, port },
            EventKind::Tx => E::Tx { node, flow, psn, bytes },
            EventKind::Retx => E::Retx { node, flow, psn, bytes, cause },
            EventKind::Timeout => E::Timeout { node, flow },
            EventKind::HoReceived => E::HoReceived { node, flow },
            EventKind::Duplicate => E::Duplicate { node, flow },
            EventKind::MsgPosted => E::MsgPosted { node, flow, wr_id, bytes: msg_bytes },
            EventKind::Delivery => E::Delivery { node, flow, wr_id, bytes: msg_bytes },
            EventKind::Fault => E::Fault { node, port, kind: fault },
            EventKind::FaultCleared => E::FaultCleared { node, port, kind: fault },
        };
        (at, ev)
    }
}

/// Whether `f64` — what a JSON number parses through — carries every
/// integer of `(at, ev)` exactly: each `u64` field below 2^53 (`u32`
/// fields always fit).
fn exact(at: u64, ev: &ProbeEvent) -> bool {
    let widest = match *ev {
        ProbeEvent::MsgPosted { wr_id, bytes, .. } | ProbeEvent::Delivery { wr_id, bytes, .. } => {
            wr_id.max(bytes)
        }
        _ => 0,
    };
    at.max(widest) < 1 << 53
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    // Writes `events` as `--trace-out` does and reads the text back: each
    // line returns its event exactly when every field is in range, and
    // reads as `None` otherwise — never as a different event.
    #[test]
    fn jsonl_reads_back_what_was_written(
        events in proptest::collection::vec(any_event(), 0..300),
    ) {
        let text: String = events.iter().map(|(at, ev)| ev.to_jsonl(*at) + "\n").collect();
        let back: Vec<_> = ProbeEvent::read_jsonl(&text).collect();
        prop_assert_eq!(back.len(), events.len());
        for (&(at, ev), got) in events.iter().zip(back) {
            prop_assert_eq!(got, exact(at, &ev).then_some((at, ev)), "{}", ev.to_jsonl(at));
        }
    }
}
