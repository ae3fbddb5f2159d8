//! dcp-scope integration: span reconstruction determinism, tracing
//! transparency, and the anomaly monitors firing on purpose-built fault
//! scenarios.
//!
//! Pinned contracts:
//!
//! 1. **Span output is engine-invariant.** The `dcp-trace/v1` document a
//!    run produces is byte-identical whether the engine is serial, 2-shard
//!    on one worker, or 2-shard on four workers — the sharded engine's
//!    timestamp-merged probe flush plus the span builder's sorted maps.
//! 2. **Tracing is invisible.** Full span + monitor capture leaves the
//!    completion/counter digest identical to a bare run.
//! 3. **Sharded trace lines stay time-ordered.** The regression pin for
//!    the per-shard probe-buffer merge: JSONL `at` fields never decrease.
//! 4. **Monitors fire when they should.** A BER-storm fault plan trips
//!    the retx-storm detector (with a named dominant cause); a pause-storm
//!    plan on a lossless fabric trips the PFC pause-tree monitor.
//! 5. **The Perfetto export is real JSON** with slices, instants and
//!    matched flow-arrow pairs.
//! 6. **The span document's bytes are pinned.** FNV-1a digests of the
//!    rendered `dcp-trace/v1` document for the serial reference run and
//!    the BER-storm run (drops, timeouts, RTO retransmissions): a change
//!    to how spans are stored or folded must not move a byte.

use dcp_bench::digest::{fnv_bytes, fnv_u64, FNV_OFFSET};
use dcp_core::dcp_switch_config;
use dcp_faults::engine::FaultEngine;
use dcp_faults::loss::LossModel;
use dcp_faults::plan::{FaultEvent, FaultPlan};
use dcp_netsim::packet::FlowId;
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{MS, SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_scope::{chrome_trace, Monitors, ScopeProbe, SpanBuilder};
use dcp_telemetry::{Fanout, Json, ObjWriter, Probe, ProbeEvent};
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

/// The reference scenario: 2-spine/4-leaf CLOS, cross-leaf DCP flows under
/// adaptive routing — trimming, header-only recovery and RNG port choices
/// all active. Runs to `SEC`, returns the completion digest plus whatever
/// trace lines the probe captured.
fn run_reference(
    seed: u64,
    probe: Option<Box<dyn Probe>>,
    shards: usize,
    workers: usize,
) -> (u64, Vec<String>) {
    let cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, 6);
    let mut sim = Simulator::new(seed);
    sim.disable_auto_partition();
    if let Some(p) = probe {
        sim.set_probe(p);
    }
    let topo = topology::clos(&mut sim, cfg, 2, 4, 2, 100.0, 100.0, US, US);
    if shards > 1 {
        assert!(sim.partition(&topo, shards), "reference clos must partition");
        sim.set_workers(workers);
    }
    for i in 0..4usize {
        let flow = FlowId(i as u32 + 1);
        let (src, dst) = (topo.hosts[i], topo.hosts[(i + 3) % 8]);
        let (tx, rx) = endpoint_pair(TransportKind::Dcp, CcKind::None, flow, src, dst);
        sim.install_endpoint(src, flow, tx);
        sim.install_endpoint(dst, flow, rx);
        for m in 0..4u64 {
            sim.post(
                src,
                flow,
                m,
                WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
                128 * 1024,
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
    let lines = sim.probe_mut().map(|p| p.drain_jsonl()).unwrap_or_default();
    (h, lines)
}

/// A probe that keeps every event (`drain_jsonl` renders them).
fn capture() -> Box<dyn Probe> {
    Box::new(Vec::<(u64, ProbeEvent)>::new())
}

/// The span builder's document fields as one compact JSON object.
fn render(b: &SpanBuilder) -> String {
    let mut w = ObjWriter::new(Vec::new(), None);
    b.write_fields(&mut w).expect("write to memory");
    String::from_utf8(w.finish().expect("write to memory")).expect("UTF-8")
}

/// Span document for one engine configuration of the reference scenario,
/// rebuilt offline from the run's JSONL lines.
fn span_doc(seed: u64, shards: usize, workers: usize) -> (u64, String) {
    let (digest, lines) = run_reference(seed, Some(capture()), shards, workers);
    let events = read_events(&lines);
    assert!(!events.is_empty(), "trace must contain events");
    let mut b = SpanBuilder::new();
    for (at, ev) in &events {
        b.record(*at, ev);
    }
    (digest, render(&b))
}

/// Trace lines back as `(at, event)` pairs; every line must be an event.
fn read_events(lines: &[String]) -> Vec<(u64, ProbeEvent)> {
    let text = lines.join("\n");
    lines
        .iter()
        .zip(ProbeEvent::read_jsonl(&text))
        .map(|(line, ev)| ev.unwrap_or_else(|| panic!("unparseable trace line: {line}")))
        .collect()
}

#[test]
fn span_document_is_identical_across_engines() {
    // As in `integration_sharded`: the partition itself may legitimately
    // reshape the run (per-shard RNG streams), but for a FIXED partition
    // the worker count must be invisible — digest and the full rendered
    // span document alike, and repeats must be stable.
    let (d_sh2w1, sh2w1) = span_doc(3, 2, 1);
    let (d_sh2w4, sh2w4) = span_doc(3, 2, 4);
    assert_eq!(d_sh2w1, d_sh2w4, "workers must be invisible to the digest");
    assert_eq!(sh2w1, sh2w4, "span doc must not depend on worker count");
    let (d_again, again) = span_doc(3, 2, 4);
    assert_eq!(d_sh2w4, d_again, "4-worker digest must repeat");
    assert_eq!(sh2w4, again, "4-worker span doc must repeat");
}

#[test]
fn span_capture_does_not_change_the_digest() {
    let (bare, _) = run_reference(5, None, 1, 1);
    // Once through the fused capture probe (what the benchmark's
    // `incast_trim_scope` row installs) and once through an explicit Fanout
    // of the two halves: both must be invisible to the simulation.
    let (fused, _) = run_reference(5, Some(Box::new(ScopeProbe::new())), 1, 1);
    assert_eq!(bare, fused, "fused span + monitor capture must be passive");
    let probe: Box<dyn Probe> = Box::new(Fanout::new(vec![
        Box::new(SpanBuilder::new()),
        Box::new(Monitors::with_defaults()),
    ]));
    let (probed, _) = run_reference(5, Some(probe), 1, 1);
    assert_eq!(bare, probed, "span + monitor capture must be passive");
}

#[test]
fn sharded_trace_lines_are_time_ordered() {
    let (_, lines) = run_reference(7, Some(capture()), 2, 4);
    assert!(!lines.is_empty());
    let mut last = 0u64;
    for (at, _) in read_events(&lines) {
        assert!(at >= last, "timestamps regressed: {at} after {last}");
        last = at;
    }
}

/// Drains a run's capture into parsed `(at, event)` pairs.
fn drain_events(sim: &mut Simulator) -> Vec<(u64, ProbeEvent)> {
    read_events(&sim.probe_mut().expect("probe installed").drain_jsonl())
}

/// Purpose-built fault plan: a brutal BER on every sender access link
/// turns GBN's whole-window rewinds into a retransmission storm. Returns
/// the run's events.
fn ber_storm_events() -> Vec<(u64, ProbeEvent)> {
    let cfg = SwitchConfig::lossy(LoadBalance::Ecmp);
    let mut sim = Simulator::new(21);
    sim.set_probe(capture());
    let topo = topology::two_switch_testbed(&mut sim, cfg, 4, 100.0, &[100.0; 2], US, US);
    let s1 = topo.leaves[0];
    let plan = FaultPlan::new(0xBE)
        .with_loss_on(&[(s1, 0), (s1, 1), (s1, 2), (s1, 3)], LossModel::Ber { ber: 1e-5 })
        .sorted();
    FaultEngine::install(&mut sim, plan);
    for i in 0..4 {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) =
            endpoint_pair(TransportKind::Gbn, CcKind::None, flow, topo.hosts[i], topo.hosts[4 + i]);
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(topo.hosts[4 + i], flow, rx);
        sim.post(
            topo.hosts[i],
            flow,
            0,
            WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
            2 << 20,
        );
    }
    sim.run_until(200 * MS);
    drain_events(&mut sim)
}

#[test]
fn retx_storm_monitor_fires_under_a_ber_storm() {
    let events = ber_storm_events();
    let mut monitors = Monitors::with_defaults();
    monitors.retx_storm = dcp_scope::RetxStormMonitor::new(MS, 32);
    for (at, ev) in &events {
        monitors.record(*at, ev);
    }
    assert!(
        monitors.retx_storm.tripped(),
        "BER storm must trip the detector: {:?}",
        monitors.retx_storm.dump()
    );
    // GBN recovers by NAK-triggered rewind and RTO: the dominant cause is
    // a real transport signal, never left unattributed.
    let mut b = SpanBuilder::new();
    for (at, ev) in &events {
        b.record(*at, ev);
    }
    let causes: Vec<&'static str> =
        b.packets().flat_map(|(_, s)| s.retx.into_iter().map(|(_, c)| c.name())).collect();
    assert!(!causes.is_empty(), "BER storm must retransmit");
    assert!(causes.iter().all(|&c| c != "unknown"), "unattributed retx in {causes:?}");
}

#[test]
fn pfc_tree_monitor_fires_under_a_pause_storm() {
    // Lossless fabric + a long PauseStorm wedging a cross-switch link:
    // backpressure must reach distinct switches, growing the pause tree.
    let cfg = SwitchConfig::lossless(LoadBalance::Ecmp);
    let mut sim = Simulator::new(23);
    sim.set_probe(capture());
    let topo = topology::two_switch_testbed(&mut sim, cfg, 4, 100.0, &[100.0; 2], US, US);
    let plan = FaultPlan::new(0xFA)
        .at(50 * US, FaultEvent::PauseStorm { sw: topo.leaves[1], port: 4, duration: 5 * MS })
        .sorted();
    FaultEngine::install(&mut sim, plan);
    for i in 0..4 {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) = endpoint_pair(
            TransportKind::TimeoutOnly,
            CcKind::None,
            flow,
            topo.hosts[i],
            topo.hosts[4],
        );
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(topo.hosts[4], flow, rx);
        sim.post(
            topo.hosts[i],
            flow,
            0,
            WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
            4 << 20,
        );
    }
    sim.run_until(20 * MS);
    let events = drain_events(&mut sim);

    let mut monitors = Monitors::with_defaults();
    monitors.pfc_tree = dcp_scope::PfcTreeMonitor::new(2);
    for (at, ev) in &events {
        monitors.record(*at, ev);
    }
    assert!(
        monitors.pfc_tree.tripped(),
        "pause storm must spread across switches: {:?}",
        monitors.pfc_tree.dump()
    );
    assert!(monitors.pfc_tree.max_nodes >= 2, "tree must span both switches");
}

#[test]
fn perfetto_export_is_valid_and_causally_linked() {
    // A lossy DCP run: trims feed flow arrows ending at retransmissions.
    let mut cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, 6);
    cfg.forced_loss_rate = 0.01;
    let mut sim = Simulator::new(31);
    sim.set_probe(capture());
    let topo = topology::two_switch_testbed(&mut sim, cfg, 2, 100.0, &[25.0; 2], US, US);
    for i in 0..2 {
        let flow = FlowId(i as u32 + 1);
        let (tx, rx) =
            endpoint_pair(TransportKind::Dcp, CcKind::None, flow, topo.hosts[i], topo.hosts[2 + i]);
        sim.install_endpoint(topo.hosts[i], flow, tx);
        sim.install_endpoint(topo.hosts[2 + i], flow, rx);
        sim.post(
            topo.hosts[i],
            flow,
            0,
            WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
            128 * 1024,
        );
    }
    assert!(sim.run_to_quiescence(10 * SEC));
    let events = drain_events(&mut sim);
    assert!(!events.is_empty());

    let doc = chrome_trace(&events, None);
    let parsed = Json::parse(&doc.render()).expect("perfetto doc is valid JSON");
    let evs = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    let ph = |p: &str| evs.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some(p)).count();
    assert!(ph("X") > 0, "queue-residency slices");
    assert!(ph("i") > 0, "instant markers");
    assert!(ph("M") > 0, "process metadata");
    // Every finished arrow has a matching start (ids pair up).
    assert!(ph("f") <= ph("s"), "arrow finishes need starts");
    assert!(ph("f") > 0, "forced loss must produce at least one causal retx arrow");

    // The span side of the same capture: recovery time is observable and
    // every retransmission is cause-attributed.
    let mut b = SpanBuilder::new();
    for (at, ev) in &events {
        b.record(*at, ev);
    }
    let retx_causes: Vec<&'static str> =
        b.packets().flat_map(|(_, s)| s.retx.into_iter().map(|(_, c)| c.name())).collect();
    assert!(!retx_causes.is_empty(), "forced loss must retransmit");
    assert!(retx_causes.iter().all(|&c| c != "unknown"), "causes: {retx_causes:?}");
}

/// FNV-1a of the rendered span document folded from `events`.
fn span_doc_digest(events: &[(u64, ProbeEvent)]) -> u64 {
    let mut b = SpanBuilder::new();
    for (at, ev) in events {
        b.record(*at, ev);
    }
    fnv_bytes(FNV_OFFSET, render(&b).as_bytes())
}

#[test]
fn span_document_bytes_are_pinned() {
    let (_, lines) = run_reference(3, Some(capture()), 1, 1);
    let reference = span_doc_digest(&read_events(&lines));
    // The storm emits 1 092 135 events; its pin was taken when the capture
    // stopped at 1 000 000, so it holds for that prefix.
    let storm = ber_storm_events();
    assert_eq!(storm.len(), 1_092_135, "BER-storm event count moved");
    let storm = span_doc_digest(&storm[..1_000_000]);
    assert_eq!(reference, 0x6a49_2e3e_4dd8_0658, "serial reference (seed 3) span document moved");
    assert_eq!(storm, 0x69e5_d9d7_a2f8_4266, "BER-storm span document moved");
}
