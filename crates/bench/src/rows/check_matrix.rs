//! Conformance matrix: every transport × every wire-adversary profile.
//!
//! Where `fault_matrix` measures *performance* under faults, this matrix
//! checks *correctness* under misbehaviour no loss model produces:
//! duplication, delay jitter and adversarial reordering (plus BER loss
//! composed with reordering), driven by `dcp-check`'s per-link seeded
//! adversary. Every cell must end with:
//!
//! * a **silent delivery oracle** — every posted message completed exactly
//!   once with the right byte count, nothing spurious (the paper's
//!   Finding 1 failure class);
//! * a **quiet liveness watchdog** — no stall and no livelock verdict;
//! * a drained fabric and a *strict* conservation balance, duplicate
//!   injections included (`dup_data_injected` / `dup_ho_injected`).
//!
//! The run is deterministic: the summary digest printed at the end is
//! byte-identical across `DCP_THREADS` settings. `--quick` shrinks the
//! workload for the CI smoke run, which fails on any oracle or liveness
//! violation.

use crate::digest::{fnv_u64, FNV_OFFSET};
use crate::{build_clos, default_cc, fabric_cables, fail_with_repro, repro_path, schemes, sweep};
use crate::{Args, Gates, Report, Scale, Scheme};
use dcp_check::{Adversary, AdversaryProfile, Repro};
use dcp_faults::{FaultEngine, FaultPlan, LossModel};
use dcp_netsim::{LoadBalance, MS, SEC, SwitchConfig, US};
use dcp_workloads::{poisson_flows, run_flows_opts, unfinished, RunOpts, SizeDist};
use rand::{rngs::StdRng, SeedableRng};

/// Workload seed (flows + simulator) — one seed, whole matrix.
const SEED: u64 = 23;
/// Adversary stream root seed, independent of the workload on purpose.
const ADV_SEED: u64 = 0xad5e;
/// Loss-model root seed for the BER+reorder composition.
const PLAN_SEED: u64 = 0xfa11;

/// The adversary profiles; `with_ber` additionally installs a 1e-5 BER
/// loss model on every fabric cable underneath the adversary.
fn profiles() -> Vec<(&'static str, AdversaryProfile, bool)> {
    vec![
        ("clean", AdversaryProfile::clean(), false),
        ("reorder", AdversaryProfile::reorder(), false),
        ("duplicate", AdversaryProfile::duplicate(), false),
        ("delay-jitter", AdversaryProfile::delay_jitter(), false),
        ("ber+reorder", AdversaryProfile::reorder(), true),
    ]
}

struct Cell {
    posted: u64,
    completed: u64,
    retx: u64,
    dup_injected: u64,
    digest: u64,
}

/// The BER loss plan for the composed `ber+reorder` profile, as plain
/// data (built against a throwaway topology — the CLOS wiring, and so the
/// cable list, is identical for every switch config at a given scale).
fn matrix_ber_plan(scale: Scale) -> FaultPlan {
    let (_, _, hosts_per_leaf) = scale.clos_dims();
    let (sim, topo) = build_clos(SEED, SwitchConfig::lossy(LoadBalance::Ecmp), scale, US);
    FaultPlan::new(PLAN_SEED)
        .with_loss_on(&fabric_cables(&sim, &topo, hosts_per_leaf), LossModel::wire_ber(1e-5))
        .sorted()
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    scale: Scale,
    n_flows: usize,
    load: f64,
    (label, kind, cfg): Scheme,
    profile_label: &str,
    profile: AdversaryProfile,
    adversary_seed: u64,
    plan: Option<&FaultPlan>,
) -> Result<Cell, String> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let flows =
        poisson_flows(&mut rng, &SizeDist::websearch(), scale.hosts(), 100.0, load, n_flows);
    let (mut sim, topo) = build_clos(SEED, cfg, scale, US);
    let gates = Gates::arm(&mut sim);
    if let Some(plan) = plan {
        FaultEngine::try_install(&mut sim, plan.clone().sorted())?;
    }
    // The adversary stacks over whatever plane is installed (the BER engine
    // in the composed profile, nothing otherwise).
    Adversary::install(&mut sim, profile, adversary_seed);
    let mut opts = RunOpts { chunk: 64 << 10, ..Default::default() };
    opts.dcp.coarse_timeout = MS;
    let records = run_flows_opts(&mut sim, &topo, kind, default_cc(kind), &flows, 2 * SEC, opts);
    // Conformance: live, drained, exactly-once, correctly-sized delivery for
    // everything, and strictly conserved.
    gates.finish(&mut sim).map_err(|e| {
        format!("{label}/{profile_label}: {e}\nunfinished flows: {}", unfinished(&records))
    })?;
    let net = sim.net_stats();
    let eps = sim.all_endpoint_stats();
    let oracle = gates.oracle;
    let digest = [
        oracle.posted(),
        oracle.completed(),
        eps.pkts_received,
        net.dup_data_injected,
        net.dup_ho_injected,
        net.fault_drops,
        eps.retx_pkts,
        sim.now(),
    ]
    .iter()
    .fold(FNV_OFFSET, |h, &v| fnv_u64(h, v));
    Ok(Cell {
        posted: oracle.posted(),
        completed: oracle.completed(),
        retx: eps.retx_pkts,
        dup_injected: net.dup_data_injected + net.dup_ho_injected,
        digest,
    })
}

pub fn run(args: &Args) -> Report {
    let scale = args.scale();
    let quick = args.has("quick");
    let (n_flows, load) = if quick { (80, 0.2) } else { (scale.flows().min(1200), 0.25) };
    println!(
        "Conformance matrix — 8 transports × 5 adversary profiles, CLOS {} ({} flows{})",
        scale.label(),
        n_flows,
        if quick { ", --quick smoke" } else { "" },
    );
    println!("gates per cell: oracle silent, watchdog quiet, strict conservation\n");
    let profs = profiles();
    let ber_plan = matrix_ber_plan(scale);
    let points: Vec<(Scheme, usize)> =
        schemes().into_iter().flat_map(|s| (0..profs.len()).map(move |p| (s, p))).collect();
    let run = |(scheme, p): (Scheme, usize),
               profile: AdversaryProfile,
               seed: u64,
               plan: Option<&FaultPlan>| {
        run_cell(scale, n_flows, load, scheme, profs[p].0, profile, seed, plan)
    };
    let results: Vec<Result<Cell, String>> = sweep(points.clone(), |pt| {
        let (_, profile, with_ber) = profs[pt.1].clone();
        run(pt, profile, ADV_SEED, with_ber.then_some(&ber_plan))
    });

    // On any violation: report it, ddmin the failing cell's fault plan and
    // ablate the adversary down to a minimal replayable repro, write the
    // JSON artifact (CI uploads it), and fail.
    if let Some(ix) = results.iter().position(Result::is_err) {
        let pt = points[ix];
        let (plabel, profile, with_ber) = profs[pt.1].clone();
        let base = Repro {
            plan: if with_ber { ber_plan.clone() } else { FaultPlan::new(PLAN_SEED) },
            profile,
            adversary_seed: ADV_SEED,
        };
        fail_with_repro(
            &format!("conformance violation in {}/{plabel}", pt.0 .0),
            results[ix].as_ref().err().expect("failing cell"),
            base,
            &repro_path(args, "check_repro.json"),
            |r| run(pt, r.profile.clone(), r.adversary_seed, Some(&r.plan)).is_err(),
        );
    }
    let results: Vec<Cell> = results.into_iter().map(Result::unwrap).collect();

    print!("{:<14}", "completed");
    for (plabel, _, _) in &profs {
        print!("{plabel:>14}");
    }
    println!();
    let per_scheme = profs.len();
    for (chunk, pchunk) in results.chunks(per_scheme).zip(points.chunks(per_scheme)) {
        print!("{:<14}", pchunk[0].0 .0);
        for cell in chunk {
            print!("{:>14}", format!("{}/{}", cell.completed, cell.posted));
        }
        println!();
    }
    println!("\nper-cell detail (retransmissions | injected duplicate copies):");
    for (cell, ((label, ..), p)) in results.iter().zip(&points) {
        println!(
            "  {:<14}{:<14} retx {:>8}  dups {:>6}",
            label, profs[*p].0, cell.retx, cell.dup_injected
        );
    }
    let digest = results.iter().fold(FNV_OFFSET, |h, c| fnv_u64(h, c.digest));
    println!("\nall {} cells conform; matrix digest {digest:#018x}", results.len());
    Report::default()
}
