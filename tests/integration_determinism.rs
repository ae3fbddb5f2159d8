//! Determinism regression tests: the same seed must produce a
//! byte-identical packet trace — here digested as every completion the
//! simulator emits (host, flow, wr_id, kind, bytes, time) plus the final
//! fabric counters, event count and clock — across repeated runs and
//! across sweep thread counts.

use dcp_bench::digest::{fnv_bytes, fnv_u64, FNV_OFFSET};
use dcp_bench::sweep_with_threads;
use dcp_core::dcp_switch_config;
use dcp_netsim::packet::FlowId;
use dcp_netsim::time::{SEC, US};
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

/// A 4-to-1 DCP incast over adaptive routing — trimming, HO recovery and
/// RNG-driven port choices all feed the trace. Returns an FNV-1a digest
/// of the completion stream, the `NetStats` debug rendering, the event
/// count and the final clock.
fn run_digest(seed: u64) -> u64 {
    let fan_in = 4;
    let cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, fan_in + 2);
    let mut sim = Simulator::new(seed);
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
            h = fnv_u64(h, c.imm as u64);
            h = fnv_u64(h, c.at);
        });
    }
    h = fnv_bytes(h, format!("{:?}", sim.net_stats()).as_bytes());
    h = fnv_u64(h, sim.events_processed());
    fnv_u64(h, sim.now())
}

#[test]
fn same_seed_identical_digest_repeated_runs() {
    assert_eq!(run_digest(5), run_digest(5), "same seed must replay byte-identically");
    assert_eq!(run_digest(17), run_digest(17));
    assert_ne!(run_digest(5), run_digest(17), "digest must actually depend on the trace");
}

#[test]
fn net_stats_identical_repeated_runs() {
    let stats = |seed: u64| {
        let cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, 6);
        let mut sim = Simulator::new(seed);
        let topo = topology::two_switch_testbed(&mut sim, cfg, 2, 100.0, &[25.0; 2], US, US);
        for i in 0..2 {
            let flow = FlowId(i as u32 + 1);
            let (tx, rx) = endpoint_pair(
                TransportKind::Dcp,
                CcKind::None,
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
        sim.run_to_quiescence(SEC);
        format!("{:?}", sim.net_stats())
    };
    assert_eq!(stats(3), stats(3), "NetStats must be byte-identical for the same seed");
}

#[test]
fn sweep_digest_identical_across_thread_counts() {
    let seeds: Vec<u64> = (1..=6).collect();
    let serial = sweep_with_threads(seeds.clone(), 1, run_digest);
    let parallel = sweep_with_threads(seeds, 8, run_digest);
    assert_eq!(serial, parallel, "DCP_THREADS must not change any per-run result");
}
