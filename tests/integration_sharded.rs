//! Sharded-engine determinism matrix.
//!
//! The conservative-lookahead engine's contract, pinned here:
//!
//! 1. **One shard is the serial engine.** An unsharded run of the reference
//!    scenario reproduces the completions and counters captured on the
//!    pre-sharding engine, byte for byte (hardcoded below) — plain,
//!    fault-injected and adversarial.
//! 2. **Worker threads are invisible.** With a fixed shard count, the
//!    digest is identical whether windows run on one worker or four, and
//!    identical across repeats — including under a fault plan and a wire
//!    adversary, whose RNG streams must not be perturbed by the partition.
//! 3. **Sharded runs still conserve.** A partitioned run drains to
//!    quiescence and passes the strict conservation identities.
//!
//! The scenario is the 2-spine/4-leaf CLOS with cross-leaf DCP flows under
//! adaptive routing: trimming, header-only recovery and RNG-driven port
//! choices all feed the trace.

use dcp_bench::digest::{fnv_bytes, fnv_u64, FNV_OFFSET};
use dcp_check::adversary::{Adversary, AdversaryProfile};
use dcp_core::dcp_switch_config;
use dcp_faults::engine::FaultEngine;
use dcp_faults::loss::LossModel;
use dcp_faults::plan::{FaultEvent, FaultPlan};
use dcp_netsim::packet::{FlowId, NodeId};
use dcp_netsim::time::{SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_telemetry::{Probe, ProbeEvent};
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};
use std::sync::{Arc, Mutex};

/// What a run concludes, in two halves: the `behaviour` digest folds every
/// completion, the merged endpoint counters and the fabric counters; the
/// engine pair is the event count and the final clock. Engine bookkeeping
/// (how many timer entries fire as no-ops, and so when the last event
/// lands) moves only the engine pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    behaviour: u64,
    events: u64,
    end: u64,
}

/// The reference scenario's outcomes on the serial engine. Rule 1: the
/// behaviour halves must never change (the completions and fabric counters
/// they fold have held since before sharding existed).
const GOLDEN_PLAIN: Outcome =
    Outcome { behaviour: 0x09294fb225793975, events: 25267, end: 10000000 };
const GOLDEN_FAULTED: Outcome =
    Outcome { behaviour: 0xefeda03703b48599, events: 25651, end: 40070200 };
const GOLDEN_ADVERSARY: Outcome =
    Outcome { behaviour: 0x4ae43b7d1d908548, events: 26104, end: 10000000 };

/// FNV over the rendered JSONL of every probe record of the same three
/// one-shard runs, captured on the commit before the serial loop became
/// the one-shard case of the windowed one. The digests above fold what a
/// run *concludes*; these fold every record on the way there, in order —
/// the unsharded probe path (straight into the attached probe, no staging)
/// is part of what rule 1 promises.
const PROBE_PLAIN: u64 = 0x75e860b43c3c6eeb;
const PROBE_FAULTED: u64 = 0x8582353584c200f8;
const PROBE_ADVERSARY: u64 = 0x21123d31de72d490;

#[derive(Clone, Copy)]
enum Mode {
    Plain,
    Faulted,
    Adversarial,
}

/// Builds the reference scenario with an explicit engine configuration,
/// every message posted. `shards = 1` leaves the engine unsharded.
fn build(seed: u64, mode: Mode, shards: usize, workers: usize) -> Simulator {
    build_probed(seed, mode, shards, workers, None).0
}

/// [`build`] with `probe` attached before the first post, so the stream
/// starts at the first `MsgPosted`; also returns the hosts.
fn build_probed(
    seed: u64,
    mode: Mode,
    shards: usize,
    workers: usize,
    probe: Option<Box<dyn Probe>>,
) -> (Simulator, Vec<NodeId>) {
    let cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, 6);
    let mut sim = Simulator::new(seed);
    sim.disable_auto_partition();
    if let Some(p) = probe {
        sim.set_probe(p);
    }
    let topo = topology::clos(&mut sim, cfg, 2, 4, 2, 100.0, 100.0, US, US);
    if shards > 1 {
        assert!(sim.partition(&topo, shards), "reference clos must partition");
        assert_eq!(sim.shard_count(), shards);
        sim.set_workers(workers);
    }
    match mode {
        Mode::Plain => {}
        Mode::Faulted => {
            let plan = FaultPlan::new(0xFA)
                .with_loss_on(&[(topo.leaves[1], 2)], LossModel::Ber { ber: 2e-7 })
                .at(50 * US, FaultEvent::LinkDown { sw: topo.leaves[0], port: 3 })
                .at(150 * US, FaultEvent::LinkUp { sw: topo.leaves[0], port: 3 })
                .sorted();
            FaultEngine::install(&mut sim, plan);
        }
        Mode::Adversarial => {
            Adversary::install(&mut sim, AdversaryProfile::duplicate(), 0xAD);
        }
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
    (sim, topo.hosts)
}

/// Folds the completions surfaced since the last drain into `h`.
fn fold_completions(sim: &mut Simulator, mut h: u64) -> u64 {
    sim.for_each_completion(|c| {
        h = fnv_u64(h, c.host.0 as u64);
        h = fnv_u64(h, c.flow.0 as u64);
        h = fnv_u64(h, c.wr_id);
        h = fnv_u64(h, matches!(c.kind, CompletionKind::RecvComplete) as u64);
        h = fnv_u64(h, c.bytes);
        h = fnv_u64(h, c.imm as u64);
        h = fnv_u64(h, c.at);
    });
    h
}

/// Folds the merged endpoint counters and the fabric counters into `h`.
fn fold_counters(sim: &Simulator, h: u64) -> u64 {
    let h = fnv_bytes(h, format!("{:?}", sim.all_endpoint_stats()).as_bytes());
    fnv_bytes(h, format!("{:?}", sim.net_stats()).as_bytes())
}

/// Runs the reference scenario to its outcome.
fn run_digest(seed: u64, mode: Mode, shards: usize, workers: usize) -> Outcome {
    let mut sim = build(seed, mode, shards, workers);
    let mut h = FNV_OFFSET;
    while sim.now() < SEC {
        if sim.advance().is_none() {
            break;
        }
        h = fold_completions(&mut sim, h);
    }
    Outcome { behaviour: fold_counters(&sim, h), events: sim.events_processed(), end: sim.now() }
}

#[test]
fn one_shard_reproduces_presharding_goldens() {
    for (mode, name, want) in [
        (Mode::Plain, "plain", GOLDEN_PLAIN),
        (Mode::Faulted, "faulted", GOLDEN_FAULTED),
        (Mode::Adversarial, "adversarial", GOLDEN_ADVERSARY),
    ] {
        let got = run_digest(11, mode, 1, 1);
        let Outcome { behaviour, events, end } = got;
        let got_s =
            format!("Outcome {{ behaviour: {behaviour:#018x}, events: {events}, end: {end} }}");
        assert_eq!(got.behaviour, want.behaviour, "{name}: behaviour moved (got {got_s})");
        assert_eq!(got, want, "{name}: engine pair moved (got {got_s})");
    }
}

#[test]
fn one_shard_probe_stream_goldens() {
    for (mode, name, want) in [
        (Mode::Plain, "plain", PROBE_PLAIN),
        (Mode::Faulted, "faulted", PROBE_FAULTED),
        (Mode::Adversarial, "adversarial", PROBE_ADVERSARY),
    ] {
        let (mut sim, _) =
            build_probed(11, mode, 1, 1, Some(Box::new(Vec::<(u64, ProbeEvent)>::new())));
        while sim.advance().is_some() {}
        let lines = sim.probe_mut().expect("probe attached").drain_jsonl();
        assert!(lines.len() > 10_000, "{name}: only {} records", lines.len());
        let got = lines.iter().fold(FNV_OFFSET, |h, l| fnv_bytes(h, l.as_bytes()));
        assert_eq!(got, want, "{name}: one-shard probe stream moved (got {got:#018x})");
    }
}

#[test]
fn sharded_digest_independent_of_worker_count() {
    for (mode, name) in
        [(Mode::Plain, "plain"), (Mode::Faulted, "faulted"), (Mode::Adversarial, "adversarial")]
    {
        let w1 = run_digest(11, mode, 4, 1);
        let w4 = run_digest(11, mode, 4, 4);
        assert_eq!(w1, w4, "{name}: 4-shard digest must not depend on worker count");
        assert_eq!(w1, run_digest(11, mode, 4, 1), "{name}: 4-shard digest must repeat");
        assert_eq!(w4, run_digest(11, mode, 4, 4), "{name}: 4-shard digest must repeat");
    }
}

#[test]
fn sharded_digest_depends_on_trace_not_noise() {
    // Different seeds must still diverge when sharded (the digest is not
    // collapsing to a constant), and 2-shard vs 4-shard cuts are allowed to
    // differ (per-shard RNG streams) but must each be self-stable.
    let a = run_digest(11, Mode::Plain, 4, 4);
    let b = run_digest(12, Mode::Plain, 4, 4);
    assert_ne!(a, b, "digest must depend on the seed");
    let two = run_digest(11, Mode::Plain, 2, 2);
    assert_eq!(two, run_digest(11, Mode::Plain, 2, 1));
}

/// Every probe record with its timestamp, in delivery order.
type Log = Arc<Mutex<Vec<(u64, ProbeEvent)>>>;

/// Collects the records into a [`Log`] shared with the test.
struct Records(Log);

impl Probe for Records {
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        self.0.lock().unwrap().push((at, *ev));
    }
}

/// The reference scenario with a [`Records`] probe attached, its hosts,
/// and the shared record vector (complete up to the last `probe_mut()`
/// flush).
fn build_recorded(shards: usize, workers: usize) -> (Simulator, Vec<NodeId>, Log) {
    let log = Log::default();
    let probe = Box::new(Records(log.clone()));
    let (sim, hosts) = build_probed(11, Mode::Plain, shards, workers, Some(probe));
    (sim, hosts, log)
}

/// However a driver slices a run — `advance`, `advance_bounded`,
/// `run_until`, at limits one below, equal to and one above an instant at
/// which something happens — the outcome is `run_to_quiescence`'s, and at
/// every shard count a bounded slice stops *exactly* at its limit: every
/// record the unsliced run stamps at or before `limit` has been delivered
/// when the call returns, and none stamped `limit + 1`. (The final clock
/// is left out of the outcome: `run_until` pushes it to its limit.)
#[test]
fn slicing_a_run_never_changes_its_outcome() {
    let outcome = |sim: &mut Simulator| {
        let h = fold_completions(sim, FNV_OFFSET);
        (fold_counters(sim, h), sim.events_processed())
    };
    for shards in [1, 2, 4] {
        // The unsliced run: its record timestamps, in stream order, and
        // its outcome.
        let (stream, want) = {
            let (mut sim, _, log) = build_recorded(shards, 1);
            assert!(sim.run_to_quiescence(SEC));
            sim.probe_mut();
            let at: Vec<u64> = log.lock().unwrap().iter().map(|r| r.0).collect();
            (at, outcome(&mut sim))
        };
        assert!(stream.is_sorted(), "{shards} shard(s): the unsliced stream is in time order");
        let mut instants = stream.clone();
        instants.dedup();
        // One shard, one event per `advance`: there every event's own
        // timestamp is known, and the event count is checked as well.
        let times: Option<Vec<u64>> = (shards == 1).then(|| {
            let mut sim = build(11, Mode::Plain, 1, 1);
            std::iter::from_fn(|| sim.advance()).collect()
        });
        for offset in [-1i64, 0, 1] {
            let (mut sim, _, log) = build_recorded(shards, 1);
            for (k, &t) in instants.iter().step_by(61).enumerate() {
                let limit = t.saturating_add_signed(offset);
                sim.probe_mut();
                let before = (log.lock().unwrap().len(), sim.events_processed());
                match k % 3 {
                    0 => sim.run_until(limit),
                    1 => while sim.advance_bounded(limit).is_some() {},
                    _ => {
                        // Unbounded: stops at the next completion boundary,
                        // wherever that is — possibly past later limits.
                        sim.advance();
                        continue;
                    }
                }
                sim.probe_mut();
                let what = format!("{shards} shard(s): slice {k} (limit {limit})");
                let due = stream.partition_point(|&x| x <= limit);
                assert_eq!(log.lock().unwrap().len(), before.0.max(due), "{what}: records");
                if let Some(times) = &times {
                    let due = times.partition_point(|&x| x <= limit) as u64;
                    assert_eq!(sim.events_processed(), before.1.max(due), "{what}: events");
                }
            }
            assert!(sim.run_to_quiescence(SEC));
            assert_eq!(outcome(&mut sim), want, "{shards} shard(s), limits at instant{offset:+}");
        }
    }
}

/// A bounded slice leaves nothing behind: once `run_until(t)` (or a loop
/// of `advance_bounded(t)`) returns, every record at or before `t` has been
/// delivered — none turns up later — and the engine has processed the same
/// events whichever way the slice was cut. Before the one-loop engine a
/// sharded slice stopped at the first shard the limit cut and left the
/// others up to a lookahead behind: 114 late records at two shards and 203
/// at four for `t = 20 137`.
#[test]
fn a_bounded_slice_leaves_nothing_behind() {
    for (shards, workers) in [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2)] {
        for t in [20_137u64, 60_001] {
            let mut counts = Vec::new();
            for cut in ["run_until(t)", "run_until(t - 1), run_until(t)", "advance_bounded(t)*"] {
                let (mut sim, _, log) = build_recorded(shards, workers);
                match cut {
                    "run_until(t)" => sim.run_until(t),
                    "advance_bounded(t)*" => while sim.advance_bounded(t).is_some() {},
                    _ => {
                        sim.run_until(t - 1);
                        sim.run_until(t);
                    }
                }
                counts.push(sim.events_processed());
                sim.probe_mut();
                let seen = log.lock().unwrap().len();
                assert!(sim.run_to_quiescence(SEC));
                sim.probe_mut();
                let log = log.lock().unwrap();
                let what = format!("{shards} shard(s), {workers} worker(s), {cut}, t = {t}");
                assert!(log[..seen].iter().all(|r| r.0 <= t), "{what}: ran past the limit");
                let late = log[seen..].iter().filter(|r| r.0 <= t).count();
                assert_eq!(late, 0, "{what}: records at or before t delivered after the slice");
                assert!(log.windows(2).all(|w| w[0].0 <= w[1].0), "{what}: stream out of order");
            }
            assert!(
                counts.iter().all(|&c| c == counts[0]),
                "{shards} shard(s), {workers} worker(s), t = {t}: events at t depend on the cut: {counts:?}"
            );
        }
    }
}

/// A message posted at `now()` is never transmitted before `now()`. Before
/// the one-loop engine, `run_until(20 137)` at four shards returned with
/// `hosts[2]`'s shard still 337 ns behind, and the post's first packet left
/// at 19 800.
#[test]
fn a_post_after_a_bounded_slice_transmits_no_earlier_than_now() {
    let (mut sim, hosts, log) = build_recorded(4, 1);
    sim.run_until(20_137);
    assert_eq!(sim.now(), 20_137);
    let (src, dst) = (hosts[2], hosts[7]);
    let flow = FlowId(5);
    let (tx, rx) = endpoint_pair(TransportKind::Dcp, CcKind::None, flow, src, dst);
    sim.install_endpoint(src, flow, tx);
    sim.install_endpoint(dst, flow, rx);
    sim.post(src, flow, 0, WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 }, 128 * 1024);
    assert!(sim.run_to_quiescence(SEC));
    sim.probe_mut();
    let first_tx = log
        .lock()
        .unwrap()
        .iter()
        .find_map(|&(at, ev)| matches!(ev, ProbeEvent::Tx { flow: 5, .. }).then_some(at))
        .expect("the fifth flow transmits");
    assert!(first_tx >= 20_137, "posted at 20137, first transmitted at {first_tx}");
}

#[test]
fn sharded_run_drains_and_conserves() {
    let cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, 6);
    let mut sim = Simulator::new(21);
    sim.disable_auto_partition();
    let topo = topology::clos(&mut sim, cfg, 2, 4, 2, 100.0, 100.0, US, US);
    assert!(sim.partition(&topo, 4));
    sim.set_workers(4);
    for i in 0..4usize {
        let flow = FlowId(i as u32 + 1);
        let (src, dst) = (topo.hosts[i], topo.hosts[(i + 3) % 8]);
        let (tx, rx) = endpoint_pair(TransportKind::Dcp, CcKind::None, flow, src, dst);
        sim.install_endpoint(src, flow, tx);
        sim.install_endpoint(dst, flow, rx);
        sim.post(src, flow, 0, WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 }, 512 * 1024);
    }
    assert!(sim.run_to_quiescence(SEC), "sharded run must drain");
    let c = sim.check_conservation(true);
    assert!(c.is_ok(), "sharded conservation violated: {:?}", c.violations);
}

#[test]
fn partition_refuses_degenerate_cuts() {
    let cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, 6);
    let mut sim = Simulator::new(1);
    sim.disable_auto_partition();
    let topo = topology::clos(&mut sim, cfg, 2, 4, 2, 100.0, 100.0, US, US);
    assert!(!sim.partition(&topo, 1), "1 shard is not a partition");
    assert!(sim.partition(&topo, 4));
    assert!(!sim.partition(&topo, 4), "re-partitioning must refuse");
    assert_eq!(sim.shard_count(), 4);
    assert_eq!(sim.lookahead_ns(), US, "lookahead is the min cross-shard delay");
}
