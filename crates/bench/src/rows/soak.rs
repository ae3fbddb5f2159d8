//! Always-on production soak: multi-tenant traffic under live chaos with
//! per-tenant SLO enforcement.
//!
//! Three tenants — **websearch** (latency-sensitive Poisson over the DCTCP
//! CDF), **storage** (block/object mix with incast surges) and a ring
//! **allreduce** job — share one CLOS fabric over DCP, isolated at host
//! egress by per-tenant WRR weights. While traffic flows, each named
//! recipe overlays a `dcp-faults` plan (link flaps, GE loss bursts, ToR
//! death, pause storms) and a `dcp-check` wire adversary, and the driving
//! loop re-asserts at every window barrier:
//!
//! * **conservation** (lenient: the fabric never accounts for more packets
//!   than were sent);
//! * the **delivery oracle** silent so far (no duplicate/corrupt/spurious
//!   completion);
//! * the **liveness watchdog** quiet (no stall, no livelock).
//!
//! At quiescence the strict versions gate the run, then per-tenant FCT
//! histograms are checked against each tenant's p99.9-slowdown SLO budget.
//! In a recipe whose chaos is aimed at one tenant (the storage incast
//! surge under `flap_storm`), a *non-target* tenant blowing its budget is
//! classified as an **isolation breach** — host-egress WRR failed to
//! shield it. Any violation is ddmin-shrunk via `dcp-check::shrink` into a
//! minimal replayable repro JSON (CI uploads it as a failure artifact).
//! `--calibrate` reports the same table without enforcing the soft SLO
//! gates — how the budgets below were sized against observed tails.
//!
//! Results export as `BENCH_soak.json` (schema `schemas/soak.schema.json`,
//! checked by `validate_metrics`). The run is deterministic: the digest
//! printed at the end is byte-identical across `DCP_THREADS` settings.
//! `--quick` runs two tenants and two recipes on a short horizon for CI.

use crate::digest::{fnv_u64, FNV_OFFSET};
use crate::{build_clos, default_cc, fabric_cables, fail_with_repro, repro_path, sweep};
use crate::{Args, Gates, Report, Scale};
use dcp_check::{Adversary, AdversaryProfile, Repro};
use dcp_core::dcp_switch_config;
use dcp_faults::{FaultEngine, FaultEvent, FaultPlan, LossModel};
use dcp_netsim::{LoadBalance, Nanos, Simulator, MS, SEC, US};
use dcp_telemetry::Json;
use dcp_workloads::{
    merge, run_flows_hooked, tenant_incast_surge, tenant_mix, FctSummary, FlowRecord, IdealFct,
    RunOpts, SizeDist, TenantId, TenantKind, TenantSpec, TransportKind,
};
use rand::{rngs::StdRng, SeedableRng};

/// Workload seed (tenant mix + simulator) — every recipe replays the same
/// traffic, so chaos recipes differ from `steady_mix` only by their chaos.
const SEED: u64 = 77;
/// Adversary stream root seed, independent of the workload.
const ADV_SEED: u64 = 0x50ac;
/// Fault-plan root seed (per-link loss streams derive from it).
const PLAN_SEED: u64 = 0xfade;

/// The tenant mix. Weights are host-egress WRR shares; `slo_p999` is each
/// tenant's p99.9-slowdown budget, calibrated from `--calibrate` runs at
/// both scales with ~1.5× headroom over the worst observed recipe — loose
/// enough that a healthy fabric passes, tight enough that an isolation
/// failure (one tenant starving another) does not.
fn tenant_specs(quick: bool, scale: Scale) -> Vec<TenantSpec> {
    let (_, n_leaf, hosts_per_leaf) = scale.clos_dims();
    let mut specs = vec![
        TenantSpec {
            id: TenantId(0),
            name: "websearch",
            weight: 4,
            slo_p999: 360.0,
            kind: TenantKind::Poisson { dist: SizeDist::websearch(), load: 0.15 },
        },
        TenantSpec {
            id: TenantId(1),
            name: "storage",
            weight: 2,
            slo_p999: 600.0,
            kind: TenantKind::Poisson { dist: SizeDist::storage(), load: 0.10 },
        },
    ];
    if !quick {
        // One ring participant per leaf, so every step crosses the fabric.
        specs.push(TenantSpec {
            id: TenantId(2),
            name: "allreduce",
            weight: 2,
            slo_p999: 220.0,
            kind: TenantKind::AllReduce {
                group: (0..n_leaf).map(|l| l * hosts_per_leaf).collect(),
                bytes: 512 << 10,
                period: MS,
            },
        });
    }
    specs
}

/// One soak scenario: a fault plan plus a wire adversary, optionally with
/// an incast surge by a target tenant (whose neighbours then get the
/// isolation assert).
#[derive(Clone)]
struct Recipe {
    name: &'static str,
    profile: AdversaryProfile,
    plan: FaultPlan,
    surge: Option<TenantId>,
}

/// The named recipes over `[0, horizon)`. Fault times are fractions of the
/// horizon so quick and full runs exercise the same shapes.
fn recipes(scale: Scale, horizon: Nanos, quick: bool) -> Vec<Recipe> {
    // Throwaway fabric: the CLOS wiring (and so the cable list and leaf
    // ids) is identical for every switch config at a given scale.
    let (sim, topo) =
        build_clos(SEED, dcp_switch_config(LoadBalance::AdaptiveRouting, 20), scale, US);
    let cables = fabric_cables(&sim, &topo, scale.clos_dims().2);
    let h = horizon;

    // Two uplinks flapping out of phase (down h/10, three flaps each)
    // while a PFC pause storm pins one host's egress, under adversarial
    // reordering — and the storage tenant's backup surge on top.
    let mut flap = FaultPlan::new(PLAN_SEED);
    for k in 0..3u64 {
        let t0 = h / 8 + k * (h / 4);
        let (sw, port) = cables[0];
        flap = flap
            .at(t0, FaultEvent::LinkDown { sw, port })
            .at(t0 + h / 10, FaultEvent::LinkUp { sw, port });
        let (sw, port) = cables[cables.len() / 2];
        flap = flap
            .at(t0 + h / 8, FaultEvent::LinkDown { sw, port })
            .at(t0 + h / 8 + h / 10, FaultEvent::LinkUp { sw, port });
    }
    let flap =
        flap.at(h / 2, FaultEvent::PauseStorm { sw: topo.leaves[0], port: 0, duration: h / 10 });

    // A ToR dies under load and comes back: everything behind it
    // blackholes (booked as fault drops), the rest of the fabric must keep
    // its SLOs, and the victims must finish after recovery. The outage is
    // capped at 1 ms absolute — a reboot does not take longer because the
    // observation horizon grew, and an uncapped h/5 at `--full` would put
    // every fixed SLO budget at the mercy of the horizon.
    let tor = FaultPlan::new(PLAN_SEED)
        .at(h / 3, FaultEvent::SwitchFail { sw: topo.leaves[1] })
        .at(h / 3 + (h / 5).min(MS), FaultEvent::SwitchRecover { sw: topo.leaves[1] });

    // Long-haul degradation: every uplink of leaf 0 picks up
    // Gilbert–Elliott WAN-style burst loss (adaptive routing cannot steer
    // around a whole pod), one uplink elsewhere drops to 40 Gbps at 5 µs —
    // all heal at 3h/4 — with duplicating middleboxes throughout.
    let n_spine = scale.clos_dims().0;
    let mut wan = FaultPlan::new(PLAN_SEED);
    for &(sw, port) in &cables[..n_spine] {
        wan = wan
            .at(h / 4, FaultEvent::SetLossModel { sw, port, model: Some(LossModel::wan_burst()) })
            .at(3 * h / 4, FaultEvent::SetLossModel { sw, port, model: None });
    }
    let (dsw, dport) = cables[cables.len() - 1];
    let wan = wan
        .at(h / 4, FaultEvent::LinkDegrade { sw: dsw, port: dport, gbps: 40.0, delay: 5 * US })
        .at(3 * h / 4, FaultEvent::LinkDegrade { sw: dsw, port: dport, gbps: 100.0, delay: US });

    let mut out = vec![
        Recipe {
            name: "steady_mix",
            profile: AdversaryProfile::clean(),
            plan: FaultPlan::new(PLAN_SEED),
            surge: None,
        },
        Recipe {
            name: "flap_storm",
            profile: AdversaryProfile::reorder(),
            plan: flap.sorted(),
            surge: Some(TenantId(1)),
        },
    ];
    if !quick {
        out.push(Recipe {
            name: "tor_death_under_load",
            profile: AdversaryProfile::delay_jitter(),
            plan: tor.sorted(),
            surge: None,
        });
        out.push(Recipe {
            name: "wan_degrade",
            profile: AdversaryProfile::duplicate(),
            plan: wan.sorted(),
            surge: None,
        });
    }
    out
}

struct RecipeResult {
    barriers: u64,
    posted: u64,
    completed: u64,
    fault_drops: u64,
    retx: u64,
    /// One FCT summary per tenant, in spec order.
    tenants: Vec<FctSummary>,
    digest: u64,
}

/// Slowdowns carry four decimal digits; hashing the fixed-point form keeps
/// the digest integral.
fn fixed(v: f64) -> u64 {
    (v * 1e4).round() as u64
}

#[allow(clippy::too_many_arguments)]
fn run_recipe(
    scale: Scale,
    specs: &[TenantSpec],
    horizon: Nanos,
    window: Nanos,
    name: &str,
    surge: Option<TenantId>,
    plan: &FaultPlan,
    profile: AdversaryProfile,
    adversary_seed: u64,
) -> Result<RecipeResult, String> {
    let n_hosts = scale.hosts();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut flows = tenant_mix(&mut rng, specs, n_hosts, 100.0, horizon);
    if let Some(t) = surge {
        // The target tenant's backup surge occupies the middle half of the
        // horizon — chaos aimed at one tenant, stacked on its base load.
        let fan_in = (n_hosts / 2).min(8);
        let mut s =
            tenant_incast_surge(&mut rng, t, n_hosts, 100.0, 0.3, fan_in, 128 << 10, horizon / 2);
        for f in &mut s {
            f.start += horizon / 4;
        }
        flows = merge(flows, s);
    }
    let (mut sim, topo) =
        build_clos(SEED, dcp_switch_config(LoadBalance::AdaptiveRouting, 20), scale, US);
    // Per-tenant egress isolation at every host.
    let max_id = specs.iter().map(|s| s.id.0).max().unwrap_or(0) as usize;
    let mut weights = vec![1u64; max_id + 1];
    for s in specs {
        weights[s.id.0 as usize] = s.weight;
    }
    for &host in &topo.hosts {
        sim.host_mut(host).set_tenant_weights(&weights);
    }
    let gates = Gates::arm(&mut sim);
    FaultEngine::try_install(&mut sim, plan.clone().sorted())?;
    Adversary::install(&mut sim, profile, adversary_seed);
    let mut opts = RunOpts { chunk: 64 << 10, ..Default::default() };
    opts.dcp.coarse_timeout = MS;
    // The rolling in-run assertions: fired at every window barrier while
    // faults and adversaries are live. All three reads are passive — the
    // digest-pin test in dcp-check proves a hooked run is byte-identical
    // to an unhooked one.
    let mut barriers = 0u64;
    let g = gates.clone();
    let mut hook = |sim: &mut Simulator| -> Result<(), String> {
        barriers += 1;
        let c = sim.check_conservation(false);
        if !c.is_ok() {
            return Err(format!(
                "in-run conservation violated at t={} ns: {:?}",
                sim.now(),
                c.violations
            ));
        }
        let v = g.oracle.violations();
        if !v.is_empty() {
            return Err(format!(
                "in-run delivery violations at t={} ns:\n{}",
                sim.now(),
                v.join("\n")
            ));
        }
        g.live(sim)
    };
    let records = run_flows_hooked(
        &mut sim,
        &topo,
        TransportKind::Dcp,
        default_cc(TransportKind::Dcp),
        &flows,
        2 * SEC,
        opts,
        Some((window, &mut hook)),
    )
    .map_err(|e| format!("{name}: {e}"))?;
    // Final gates, same discipline as the conformance matrix.
    gates.finish(&mut sim).map_err(|e| format!("{name}: {e}"))?;

    let tenants: Vec<FctSummary> = specs
        .iter()
        .map(|spec| {
            let sub: Vec<FlowRecord> =
                records.iter().filter(|r| r.spec.tenant == spec.id).copied().collect();
            FctSummary::from_records(&sub, &IdealFct::intra_dc_100g())
        })
        .collect();
    let net = sim.net_stats();
    let eps = sim.all_endpoint_stats();
    let oracle = gates.oracle;
    let mut digest = [
        oracle.posted(),
        oracle.completed(),
        eps.pkts_received,
        net.fault_drops,
        eps.retx_pkts,
        sim.now(),
        barriers,
    ]
    .iter()
    .fold(FNV_OFFSET, |h, &v| fnv_u64(h, v));
    for t in &tenants {
        let p999 = fixed(t.slowdown_p(99.9));
        digest = fnv_u64(fnv_u64(fnv_u64(digest, t.flows()), t.unfinished as u64), p999);
    }
    Ok(RecipeResult {
        barriers,
        posted: oracle.posted(),
        completed: oracle.completed(),
        fault_drops: net.fault_drops,
        retx: eps.retx_pkts,
        tenants,
        digest,
    })
}

/// SLO verdicts for one finished recipe. A non-target tenant blowing its
/// budget in a surge recipe is the isolation failure mode — chaos aimed at
/// tenant A must not blow tenant B's budget — and is classified as such.
fn slo_violations(recipe: &Recipe, specs: &[TenantSpec], res: &RecipeResult) -> Vec<String> {
    let mut out = Vec::new();
    for (t, s) in specs.iter().zip(&res.tenants) {
        let p999 = s.slowdown_p(99.9);
        if p999 > t.slo_p999 {
            match recipe.surge {
                Some(target) if t.id != target => out.push(format!(
                    "{}: isolation breach — chaos aimed at tenant {} blew tenant {}'s \
                     p99.9 budget ({:.1} > {:.1})",
                    recipe.name, target.0, t.name, p999, t.slo_p999
                )),
                _ => out.push(format!(
                    "{}: tenant {} p99.9 slowdown {:.1} blew its SLO budget {:.1}",
                    recipe.name, t.name, p999, t.slo_p999
                )),
            }
        }
        if s.unfinished > 0 {
            out.push(format!(
                "{}: tenant {} left {} flows unfinished",
                recipe.name, t.name, s.unfinished
            ));
        }
    }
    out
}

fn soak_json(
    scale: Scale,
    horizon: Nanos,
    window: Nanos,
    specs: &[TenantSpec],
    recipes: &[Recipe],
    results: &[RecipeResult],
    digest: u64,
) -> Json {
    let tenants_cfg: Vec<Json> = specs
        .iter()
        .map(|s| {
            Json::obj()
                .set("id", s.id.0 as f64)
                .set("name", s.name)
                .set("weight", s.weight as f64)
                .set("slo_p999", s.slo_p999)
        })
        .collect();
    let runs: Vec<Json> = recipes
        .iter()
        .zip(results)
        .map(|(r, res)| {
            let tenants: Vec<Json> = specs
                .iter()
                .zip(&res.tenants)
                .map(|(t, s)| {
                    let [p50, p99, p999] = [50.0, 99.0, 99.9].map(|p| s.slowdown_p(p));
                    Json::obj()
                        .set("id", t.id.0 as f64)
                        .set("name", t.name)
                        .set("flows", s.flows() as f64)
                        .set("unfinished", s.unfinished as f64)
                        .set("fct_p999_ns", s.fct_p(99.9) as f64)
                        .set("slowdown", Json::obj().set("p50", p50).set("p99", p99).set("p999", p999))
                        .set("slo_p999", t.slo_p999)
                        .set("slo_burn", s.slo_burn(t.slo_p999))
                        .set("slo_ok", p999 <= t.slo_p999)
                })
                .collect();
            Json::obj()
                .set("name", r.name)
                .set("adversary", r.profile.name.as_str())
                .set("fault_events", r.plan.events.len() as f64)
                .set("surge_tenant", r.surge.map_or(Json::Null, |t| Json::from(t.0 as f64)))
                .set("barriers", res.barriers as f64)
                .set("posted", res.posted as f64)
                .set("completed", res.completed as f64)
                .set("fault_drops", res.fault_drops as f64)
                .set("retx", res.retx as f64)
                .set("tenants", Json::Arr(tenants))
                .set("digest", format!("{:#018x}", res.digest))
        })
        .collect();
    Json::obj()
        .set("schema", "dcp-soak/v1")
        .set("binary", "soak")
        .set(
            "config",
            Json::obj()
                .set("scale", scale.label())
                .set("seed", SEED as f64)
                .set("horizon_ns", horizon as f64)
                .set("window_ns", window as f64)
                .set("tenants", Json::Arr(tenants_cfg)),
        )
        .set("recipes", Json::Arr(runs))
        .set("digest", format!("{digest:#018x}"))
}

pub fn run(args: &Args) -> Report {
    let scale = args.scale();
    let quick = args.has("quick");
    let calibrate = args.has("calibrate");
    let out_path = args.get("out").unwrap_or("BENCH_soak.json");
    let repro_out = repro_path(args, "soak_repro.json");
    let horizon: Nanos = match (quick, scale) {
        (true, _) => 2 * MS,
        (false, Scale::Quick) => 4 * MS,
        (false, Scale::Full) => 20 * MS,
    };
    let window = horizon / 8;
    let specs = tenant_specs(quick, scale);
    let recipes = recipes(scale, horizon, quick);
    println!(
        "Production soak — {} tenants × {} recipes, CLOS {}, horizon {} ms, barrier every {} µs{}",
        specs.len(),
        recipes.len(),
        scale.label(),
        horizon / MS,
        window / US,
        if quick { " [--quick smoke]" } else { "" },
    );
    println!(
        "in-run gates per barrier: conservation, delivery oracle, watchdog; \
         per-tenant p99.9 SLO + isolation at the end\n"
    );
    let run = |r: &Recipe, plan: &FaultPlan, profile: AdversaryProfile, seed: u64| {
        run_recipe(scale, &specs, horizon, window, r.name, r.surge, plan, profile, seed)
    };
    let results: Vec<Result<RecipeResult, String>> =
        sweep(recipes.clone(), |r| run(&r, &r.plan, r.profile.clone(), ADV_SEED));

    // Shrink-and-fail on the first hard violation (oracle, watchdog,
    // conservation, or a wedge): ddmin the fault plan and ablate the
    // adversary down to a minimal replayable repro.
    let shrink_and_exit = |recipe: &Recipe, err: &str, trips: &mut dyn FnMut(&Repro) -> bool| {
        let base = Repro {
            plan: recipe.plan.clone(),
            profile: recipe.profile.clone(),
            adversary_seed: ADV_SEED,
        };
        fail_with_repro(&format!("soak violation in {}", recipe.name), err, base, &repro_out, trips)
    };
    if let Some(ix) = results.iter().position(Result::is_err) {
        let recipe = &recipes[ix];
        shrink_and_exit(recipe, results[ix].as_ref().err().expect("failing recipe"), &mut |r| {
            run(recipe, &r.plan, r.profile.clone(), r.adversary_seed).is_err()
        });
    }
    let results: Vec<RecipeResult> = results.into_iter().map(Result::unwrap).collect();

    for (recipe, res) in recipes.iter().zip(&results) {
        println!(
            "{:<22} adversary {:<12} faults {:>2}  barriers {:>3}  completed {}/{}  \
             fault-drops {:>6}  retx {:>6}",
            recipe.name,
            recipe.profile.name,
            recipe.plan.events.len(),
            res.barriers,
            res.completed,
            res.posted,
            res.fault_drops,
            res.retx,
        );
        for (t, s) in specs.iter().zip(&res.tenants) {
            let [p50, p99, p999] = [50.0, 99.0, 99.9].map(|p| s.slowdown_p(p));
            println!(
                "    tenant {:<10} w{:<2} flows {:>5}  slowdown p50 {:>6.2}  p99 {:>7.2}  \
                 p99.9 {:>7.2} (SLO {:>5.1}, burn {:>6.4})",
                t.name,
                t.weight,
                s.flows(),
                p50,
                p99,
                p999,
                t.slo_p999,
                s.slo_burn(t.slo_p999),
            );
        }
    }
    let digest = results.iter().fold(FNV_OFFSET, |h, r| fnv_u64(h, r.digest));
    let doc = soak_json(scale, horizon, window, &specs, &recipes, &results, digest);
    std::fs::write(out_path, doc.render_pretty()).expect("write soak metrics");
    println!("\nresult metrics={out_path}");

    // Soft gates: per-tenant SLO budgets (isolation-classified in surge
    // recipes). A breach shrinks too — the predicate re-runs the recipe
    // and re-evaluates the same verdicts. `--calibrate` reports only.
    if calibrate {
        println!("calibrate mode: SLO budgets reported, not enforced; soak digest {digest:#018x}");
        return Report::default();
    }
    for (recipe, res) in recipes.iter().zip(&results) {
        let viols = slo_violations(recipe, &specs, res);
        if !viols.is_empty() {
            let err = viols.join("\n");
            shrink_and_exit(recipe, &err, &mut |r: &Repro| match run(
                recipe,
                &r.plan,
                r.profile.clone(),
                r.adversary_seed,
            ) {
                Err(_) => true,
                Ok(res) => !slo_violations(recipe, &specs, &res).is_empty(),
            });
        }
    }
    println!("all {} recipes within SLO; soak digest {digest:#018x}", results.len());
    Report::default()
}
