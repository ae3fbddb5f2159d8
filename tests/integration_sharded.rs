//! Sharded-engine determinism matrix.
//!
//! The conservative-lookahead engine's contract, pinned here:
//!
//! 1. **One shard is the serial engine.** An unsharded run of the reference
//!    scenario reproduces the digests captured on the pre-sharding engine,
//!    byte for byte (hardcoded below) — plain, fault-injected and
//!    adversarial.
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

use dcp_check::adversary::{Adversary, AdversaryProfile};
use dcp_core::dcp_switch_config;
use dcp_faults::engine::FaultEngine;
use dcp_faults::loss::LossModel;
use dcp_faults::plan::{FaultEvent, FaultPlan};
use dcp_netsim::packet::FlowId;
use dcp_netsim::time::{SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_telemetry::{EventLog, Probe};
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

/// Digests of the reference scenario captured on the serial engine before
/// sharding existed (PR 5). Rule 1: these must never change.
const GOLDEN_PLAIN: u64 = 0x48f926afeb0f3883;
const GOLDEN_FAULTED: u64 = 0xb27fc2975b9ba620;
const GOLDEN_ADVERSARY: u64 = 0x46228f1527b7e1c0;

/// FNV over the rendered JSONL of every probe record of the same three
/// one-shard runs, captured on the commit before the serial loop became
/// the one-shard case of the windowed one. The digests above fold what a
/// run *concludes*; these fold every record on the way there, in order —
/// the unsharded probe path (straight into the attached probe, no staging)
/// is part of what rule 1 promises.
const PROBE_PLAIN: u64 = 0x75e860b43c3c6eeb;
const PROBE_FAULTED: u64 = 0x8582353584c200f8;
const PROBE_ADVERSARY: u64 = 0x21123d31de72d490;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

#[derive(Clone, Copy)]
enum Mode {
    Plain,
    Faulted,
    Adversarial,
}

/// Builds the reference scenario with an explicit engine configuration,
/// every message posted. `shards = 1` leaves the engine unsharded.
fn build(seed: u64, mode: Mode, shards: usize, workers: usize) -> Simulator {
    build_probed(seed, mode, shards, workers, None)
}

/// [`build`] with `probe` attached before the first post, so the stream
/// starts at the first `MsgPosted`.
fn build_probed(
    seed: u64,
    mode: Mode,
    shards: usize,
    workers: usize,
    probe: Option<Box<dyn Probe>>,
) -> Simulator {
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
    sim
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

/// Folds the fabric counters and the event count into `h`.
fn fold_counters(sim: &Simulator, h: u64) -> u64 {
    let h = fnv_bytes(h, format!("{:?}", sim.net_stats()).as_bytes());
    fnv_u64(h, sim.events_processed())
}

/// Runs the reference scenario and digests every completion, the fabric
/// counters, the event count and the final clock.
fn run_digest(seed: u64, mode: Mode, shards: usize, workers: usize) -> u64 {
    let mut sim = build(seed, mode, shards, workers);
    let mut h = FNV_OFFSET;
    while sim.now() < SEC {
        if sim.advance().is_none() {
            break;
        }
        h = fold_completions(&mut sim, h);
    }
    fnv_u64(fold_counters(&sim, h), sim.now())
}

#[test]
fn one_shard_reproduces_presharding_goldens() {
    assert_eq!(run_digest(11, Mode::Plain, 1, 1), GOLDEN_PLAIN);
    assert_eq!(run_digest(11, Mode::Faulted, 1, 1), GOLDEN_FAULTED);
    assert_eq!(run_digest(11, Mode::Adversarial, 1, 1), GOLDEN_ADVERSARY);
}

#[test]
fn one_shard_probe_stream_goldens() {
    for (mode, name, want) in [
        (Mode::Plain, "plain", PROBE_PLAIN),
        (Mode::Faulted, "faulted", PROBE_FAULTED),
        (Mode::Adversarial, "adversarial", PROBE_ADVERSARY),
    ] {
        let mut sim = build_probed(11, mode, 1, 1, Some(Box::new(EventLog::default())));
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

/// However a driver slices a run — `step`, `step_bounded`, `run_until`,
/// `advance_bounded`, at limits one below, equal to and one above an
/// event's timestamp — the outcome is `run_to_quiescence`'s. On the serial
/// engine every bounded slice must also stop *exactly* at its limit: an
/// event at `limit` is processed, one at `limit + 1` is left. (A sharded
/// slice may leave events at or before the limit in shards the window walk
/// has not reached yet, and its completions are only in canonical order at
/// window closes, so there only the final outcome is compared. The final
/// clock is left out: `run_until` pushes it to its limit.)
#[test]
fn slicing_a_run_never_changes_its_outcome() {
    let outcome = |sim: &mut Simulator| {
        let h = fold_completions(sim, FNV_OFFSET);
        fold_counters(sim, h)
    };
    for shards in [1, 2] {
        let times: Vec<u64> = {
            let mut sim = build(11, Mode::Plain, shards, 1);
            std::iter::from_fn(|| sim.step()).collect()
        };
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let want = {
            let mut sim = build(11, Mode::Plain, shards, 1);
            assert!(sim.run_to_quiescence(SEC));
            outcome(&mut sim)
        };
        for offset in [-1i64, 0, 1] {
            let mut sim = build(11, Mode::Plain, shards, 1);
            for (k, &t) in times.iter().step_by(61).enumerate() {
                let limit = t.saturating_add_signed(offset);
                let before = sim.events_processed();
                let due = sorted.partition_point(|&x| x <= limit) as u64;
                let expect = match k % 4 {
                    0 => {
                        while sim.step_bounded(limit).is_some() {}
                        before.max(due)
                    }
                    1 => {
                        sim.run_until(limit);
                        before.max(due)
                    }
                    2 => {
                        while sim.advance_bounded(limit).is_some() {}
                        before.max(due)
                    }
                    _ => before + u64::from(sim.step().is_some()),
                };
                if shards == 1 {
                    assert_eq!(
                        sim.events_processed(),
                        expect,
                        "slice {k} (limit {limit}, event at {t}) stopped in the wrong place"
                    );
                }
            }
            assert!(sim.run_to_quiescence(SEC));
            assert_eq!(outcome(&mut sim), want, "{shards} shard(s), limits at event{offset:+}");
        }
    }
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
