//! `allreduce_1024_sh8`: 16 cross-pod RingAllReduce groups on the
//! 1024-host three-tier CLOS, on the 8-shard engine.
//!
//! The only workload where `netsim::shard` windows and mailboxes are on the
//! blocking path; the ROADMAP's `fig14_clos_1024_sh8` row. Closed loop: a
//! ring member posts its next slice only once it has received the previous
//! one. `run_collective` owns endpoint construction, so the traced pass gets
//! the whole-run span, the counts, the delivery oracle and the engine
//! comparisons, but no endpoint wrappers.
//!
//! The gated reps run the eight shards on **one** worker: with two workers
//! on the two vCPUs of the reference box, `wall_s` spread 33 % between runs
//! of the same commit (a thread is spawned per window session and every
//! window crosses three barriers), which no bound the contract allows can
//! tell from a regression. The digest does not depend on the worker count.
//! The traced pass runs the same inputs once on the serial engine and once
//! on `min(nproc, 2)` workers and reports both as per-layer metrics.

use super::{install_oracle, sub_seed, Extras, Mode, Rep, RunClock, SubRun, Timed, DEADLINE};
use crate::trace::{self, Span};
use dcp_core::dcp_switch_config;
use dcp_netsim::time::US;
use dcp_netsim::{topology, LoadBalance, Simulator};
use dcp_workloads::{run_collective, CcKind, Collective, Group, IdealFct, TransportKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

pub const SHARDS: usize = 8;
const N_HOSTS: usize = 1024;
const GROUPS: usize = 16;
const GROUP_SIZE: usize = 16;
const GROUP_BYTES: u64 = 3 << 19;

/// Worker threads of the parallel comparison: both vCPUs of the reference
/// box, never more.
pub fn parallel_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// The groups: members stride 64 hosts, so every ring hop crosses pods
/// through the core tier. The seed rotates each group's placement; the
/// group count, size and bytes are fixed.
pub fn generate(seed: u64, scale: f64) -> Vec<Group> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let total_bytes = ((GROUP_BYTES as f64 * scale) as u64).max(GROUP_SIZE as u64 * 4096);
    // Distinct offsets below the stride keep the groups host-disjoint.
    let mut offsets: Vec<usize> = (0..64).collect();
    for i in 0..GROUPS {
        let j = rng.random_range(i..offsets.len());
        offsets.swap(i, j);
    }
    offsets[..GROUPS]
        .iter()
        .map(|&g| Group {
            members: (0..GROUP_SIZE).map(|m| (g + m * 64) % N_HOSTS).collect(),
            total_bytes,
        })
        .collect()
}

/// `shards` = 1 runs the same inputs on the serial engine and `workers` > 1
/// on threads: the traced pass's comparison points.
pub fn run(seed: u64, scale: f64, mode: Mode, shards: usize, workers: usize) -> Rep {
    let _rep = trace::span(Span::Rep);
    let setup_started = Instant::now();
    let setup_span = trace::span(Span::Setup);
    let groups = {
        let _g = trace::span(Span::WorkloadsGen);
        generate(seed, scale)
    };
    let mut sim = Simulator::new(sub_seed(seed, 1));
    sim.disable_auto_partition();
    let oracle = install_oracle(&mut sim, mode);
    let cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, 24);
    let topo = topology::clos3(&mut sim, cfg, 8, 4, 8, 16, 8, 100.0, 400.0, US, US);
    if shards > 1 {
        assert!(sim.partition(&topo, shards), "1024-host clos3 must partition");
        sim.set_workers(workers);
    }
    drop(setup_span);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let run_started = RunClock::start();
    let run_span = trace::span(Span::Run);
    let results = {
        let _g = trace::span(Span::NetsimRun);
        run_collective(
            &mut sim,
            &topo,
            TransportKind::Dcp,
            CcKind::Dcqcn { gbps: 100.0 },
            &groups,
            Collective::RingAllReduce,
            DEADLINE,
        )
    };
    let timed = Timed::drain(&mut sim, run_started);
    drop(run_span);

    // The collective reports each message's completion time, not when it
    // was posted. In an uncontended ring the `n` messages of step `s` all
    // complete at `(s + 1) × T`, with `T` one slice's ideal FCT; an op's
    // slowdown is its completion time over that of its rank.
    let ideal = IdealFct { base_delay: 6 * US, ..IdealFct::intra_dc_100g() };
    let slice = groups[0].total_bytes / GROUP_SIZE as u64;
    let mut fcts = Vec::new();
    for r in &results {
        let mut done = r.fcts.clone();
        done.sort_unstable();
        for (rank, &at) in done.iter().enumerate() {
            let step = (rank / GROUP_SIZE) as u64 + 1;
            // Scale to a single-slice FCT so `IdealFct::slowdown(slice, ·)`
            // yields completion ÷ ideal completion of the rank.
            fcts.push((slice, Some(at / step)));
        }
    }
    let chunks = slice.div_ceil(dcp_core::config::MSG_CHUNK_BYTES) as usize;
    let expected = GROUPS * GROUP_SIZE * 2 * (GROUP_SIZE - 1) * chunks;
    let mut run = SubRun::verify("dcp", &sim, setup_s, timed, &fcts, &ideal, oracle.as_ref());
    if run.attempted != expected as u64 {
        run.violations.push(format!("allreduce: {} of {expected} messages done", run.attempted));
    }
    Rep { runs: vec![run], extras: Extras::default() }
}
