//! Fault matrix: every transport × every fault scenario on the CLOS.
//!
//! Runs 8 schemes (DCP, GBN over lossy and PFC-lossless fabrics, IRN,
//! MP-RDMA, RACK-TLP, timeout-only, EC) through 6 scenarios — clean, a
//! 1e-5 fabric-link BER arriving 2 ms in, Gilbert–Elliott bursty loss, a
//! mid-run leaf-uplink flap, a ToR (leaf) switch failure, and a 100 km WAN
//! fabric under Gilbert–Elliott burst loss — under the same Poisson WebSearch
//! workload, and reports FCT slowdowns plus fault-recovery metrics
//! (time-to-first-retransmit, goodput-recovery time).
//!
//! Every cell ends with a drained fabric and a *strict* conservation check:
//! injected losses are booked (`fault_drops` / `ho_drops` / `ack_drops`),
//! never silently vanished. The whole matrix is deterministic — metrics
//! output is byte-identical across `DCP_THREADS` settings.
//!
//! The full metrics document is always written to `BENCH_fault_matrix.json`
//! (`dcp-metrics/v1`, validated in CI; `--out PATH` writes it elsewhere,
//! `--metrics-out PATH` adds a copy).
//!
//! `--quick` shrinks the workload for CI smoke runs; `--ec-smoke` restricts
//! to the DCP/EC × {BER, ToR-fail} cells CI gates on; `--full` scales the
//! fabric to the paper's dimensions.

use crate::metrics::{run_entry, ExportOpts};
use crate::{build_clos, default_cc, fabric_cables, schemes, sweep, Args, MetricsDoc, Report};
use crate::{Scale, Scheme};
use dcp_faults::{FaultEngine, FaultEvent, FaultPlan, LossModel, RecoveryTracker};
use dcp_netsim::{fiber_delay_km, Nanos, Simulator, Topology, MS, SEC, US};
use dcp_telemetry::Json;
use dcp_workloads::{
    poisson_flows, run_flows_opts, unfinished, CcKind, FctSummary, IdealFct, RunOpts, SizeDist,
};
use rand::{rngs::StdRng, SeedableRng};

/// Workload seed (flows + simulator) — one seed, whole matrix.
const SEED: u64 = 11;
/// Loss-model RNG root seed, independent of the workload on purpose.
const PLAN_SEED: u64 = 0xfa11;
/// When the structural faults strike and heal.
const FAULT_AT: Nanos = 2 * MS;
const CLEAR_AT: Nanos = 6 * MS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Clean,
    /// 1e-5 bit-error rate on every leaf↔spine cable, switched on at
    /// `FAULT_AT` and left on — the clean 2 ms head gives the recovery
    /// tracker a goodput baseline to measure degradation against, and the
    /// persistent loss preserves PR-4's always-on-BER comparison for the
    /// rest of the run. The long fabric links are the ones that degrade;
    /// host cables stay clean.
    Ber,
    /// Bursty Gilbert–Elliott loss on the same cables, always on (~0.45%
    /// stationary loss arriving in ~10-packet bursts).
    Bursty,
    /// The leaf0→spine0 cable goes dark mid-run and returns 4 ms later.
    Flap,
    /// Leaf0 (a ToR) dies mid-run — queues drained, ports dark — and
    /// recovers 4 ms later. With the trimmer dead there is no HO signal:
    /// DCP recovers by RTO only, the cell where EC's repair shards and
    /// receiver-driven NACKs should win.
    TorFail,
    /// 100 km leaf↔spine fibers (2 ms base RTT) under the `wan_burst`
    /// Gilbert–Elliott preset, always on: the SDR-RDMA regime where every
    /// retransmission costs a WAN RTT but erasure repair costs zero.
    WanGe,
}

const SCENARIOS: [Scenario; 6] = {
    use Scenario::*;
    [Clean, Ber, Bursty, Flap, TorFail, WanGe]
};

impl Scenario {
    fn label(self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::Ber => "ber-1e-5",
            Scenario::Bursty => "bursty",
            Scenario::Flap => "link-flap",
            Scenario::TorFail => "tor-fail",
            Scenario::WanGe => "wan-100km",
        }
    }

    /// Leaf↔spine cable delay: 1 µs intra-DC, 500 µs (100 km of fiber) for
    /// the WAN cell.
    fn leaf_spine_delay(self) -> Nanos {
        match self {
            Scenario::WanGe => fiber_delay_km(100.0),
            _ => US,
        }
    }

    fn plan(self, sim: &Simulator, topo: &Topology, hosts_per_leaf: usize) -> Option<FaultPlan> {
        let fabric = |model: LossModel| {
            Some(
                FaultPlan::new(PLAN_SEED)
                    .with_loss_on(&fabric_cables(sim, topo, hosts_per_leaf), model)
                    .sorted(),
            )
        };
        // Same cables, but the model switches on mid-run (and stays on), so
        // a Fault probe event marks the onset and the pre-fault bins hold a
        // clean goodput baseline.
        let delayed = |model: LossModel| {
            let mut plan = FaultPlan::new(PLAN_SEED);
            for (sw, port) in fabric_cables(sim, topo, hosts_per_leaf) {
                plan = plan.at(FAULT_AT, FaultEvent::SetLossModel { sw, port, model: Some(model) });
            }
            Some(plan.sorted())
        };
        match self {
            Scenario::Clean => None,
            Scenario::Ber => delayed(LossModel::wire_ber(1e-5)),
            Scenario::Bursty => fabric(LossModel::fabric_bursty()),
            Scenario::Flap => {
                let (sw, port) = (topo.leaves[0], hosts_per_leaf); // first uplink: → spine0
                Some(
                    FaultPlan::new(PLAN_SEED)
                        .at(FAULT_AT, FaultEvent::LinkDown { sw, port })
                        .at(CLEAR_AT, FaultEvent::LinkUp { sw, port })
                        .sorted(),
                )
            }
            Scenario::TorFail => {
                let sw = topo.leaves[0];
                Some(
                    FaultPlan::new(PLAN_SEED)
                        .at(FAULT_AT, FaultEvent::SwitchFail { sw })
                        .at(CLEAR_AT, FaultEvent::SwitchRecover { sw })
                        .sorted(),
                )
            }
            Scenario::WanGe => fabric(LossModel::wan_burst()),
        }
    }
}

struct Cell {
    mean_slowdown: f64,
    p99_slowdown: f64,
    unfinished: usize,
    fault_drops: u64,
    ttfr_ns: Option<Nanos>,
    recovery_ns: Option<Nanos>,
    degraded_ns: Option<Nanos>,
    entry: Json,
}

fn run_cell(
    scale: Scale,
    n_flows: usize,
    load: f64,
    (label, kind, cfg): Scheme,
    scenario: Scenario,
) -> Cell {
    let delay = scenario.leaf_spine_delay();
    // Host-to-host base RTT: two leaf↔spine hops out, two back, plus the
    // host access cables.
    let rtt = 4 * delay + 4 * US;
    // Slowdowns are measured against the empty-network ideal *of that
    // fabric*, so WAN-cell slowdowns stay comparable across transports
    // instead of being dominated by propagation.
    let ideal = IdealFct { base_delay: 2 * US + 2 * delay, ..IdealFct::intra_dc_100g() };
    let mut rng = StdRng::seed_from_u64(SEED);
    let flows =
        poisson_flows(&mut rng, &SizeDist::websearch(), scale.hosts(), 100.0, load, n_flows);
    let (mut sim, topo) = build_clos(SEED, cfg, scale, delay);
    let tracker = RecoveryTracker::new(100 * US);
    sim.set_probe(tracker.probe());
    if let Some(plan) = scenario.plan(&sim, &topo, scale.clos_dims().2) {
        FaultEngine::install(&mut sim, plan);
    }
    // Matrix-wide run options, identical for every transport. Messages are
    // 64 KB (the 1 MB default makes any whole-message fallback resend —
    // DCP's coarse round, GBN's rewind — price ~950 packets per unlucky
    // loss) and DCP's coarse fallback is RTT-proportionate (~80 RTTs on the
    // intra-DC fabric, 4 RTTs under `for_rtt` on the WAN one) rather than
    // the WAN-conservative 10 ms default: under injected wire loss the
    // fallback actually fires, so its scale is part of the result.
    let mut opts = RunOpts::for_rtt(rtt);
    opts.chunk = 64 << 10;
    if delay == US {
        opts.dcp.coarse_timeout = MS;
    }
    // Window-based baselines get a window sized to the fabric's actual BDP;
    // 12 µs of window on a 2 ms RTT would measure starvation, not loss
    // recovery.
    let cc = match default_cc(kind) {
        CcKind::Bdp { gbps, rtt: base } => CcKind::Bdp { gbps, rtt: base.max(rtt) },
        other => other,
    };
    // RTO-recovered losses on a 2 ms RTT cost ~10 ms each; the slowest
    // baselines need thousands of RTTs of headroom to finish honestly
    // rather than being scored on truncated tails.
    let deadline = 2 * SEC + 2000 * rtt;
    let records = run_flows_opts(&mut sim, &topo, kind, cc, &flows, deadline, opts);
    // Acceptance gate: every cell must drain and balance *strictly* — an
    // injected fault may slow a transport down, but it may never wedge the
    // fabric or leak a packet from the books.
    let quiesced = sim.run_to_quiescence(deadline + SEC + 1000 * rtt);
    assert!(quiesced, "{label}/{}: fabric failed to quiesce", scenario.label());
    let cons = sim.check_conservation(true);
    assert!(
        cons.is_ok(),
        "{label}/{}: strict conservation violated: {:?}",
        scenario.label(),
        cons.violations
    );
    let net = sim.net_stats();
    let fct = FctSummary::from_records(&records, &ideal);
    let ttfr = tracker.time_to_first_retx();
    let recovery = tracker.goodput_recovery_time(0.7);
    let degraded = tracker.degraded_time(0.7);
    let recovery_json = Json::obj()
        .set("fault_at_ns", tracker.fault_at().map_or(Json::Null, Json::from))
        .set("cleared_at_ns", tracker.cleared_at().map_or(Json::Null, Json::from))
        .set("time_to_first_retx_ns", ttfr.map_or(Json::Null, Json::from))
        .set("goodput_recovery_ns", recovery.map_or(Json::Null, Json::from))
        .set("goodput_degraded_ns", degraded.map_or(Json::Null, Json::from));
    let entry = run_entry(
        &format!("{label} × {}", scenario.label()),
        SEED,
        Some(&fct),
        &net,
        &sim.all_endpoint_stats(),
        &cons,
    )
    .set("scenario", scenario.label())
    .set("recovery", recovery_json);
    Cell {
        mean_slowdown: fct.mean_slowdown(),
        p99_slowdown: fct.slowdown_p(99.0),
        unfinished: unfinished(&records),
        fault_drops: net.fault_drops,
        ttfr_ns: ttfr,
        recovery_ns: recovery,
        degraded_ns: degraded,
        entry,
    }
}

fn fmt_ns(v: Option<Nanos>) -> String {
    v.map_or("-".to_string(), |ns| format!("{:.1}µs", ns as f64 / 1e3))
}

pub fn run(args: &Args) -> Report {
    let export = ExportOpts::from_args(args);
    let scale = args.scale();
    let quick = args.has("quick");
    // CI's EC gate: just the DCP/EC schemes through the two cells where
    // PR-4 found DCP structurally weakest (episodic wire BER, dead-trimmer
    // ToR death), with the EC-beats-DCP recovery asserts live.
    let ec_smoke = args.has("ec-smoke");
    let (n_flows, load) = if quick { (100, 0.25) } else { (scale.flows().min(2000), 0.3) };
    let schemes: Vec<_> = schemes()
        .into_iter()
        .filter(|(l, _, _)| !ec_smoke || *l == "DCP (AR)" || *l == "EC (k8m2, AR)")
        .collect();
    let scenarios: Vec<Scenario> = SCENARIOS
        .into_iter()
        .filter(|s| !ec_smoke || matches!(s, Scenario::Ber | Scenario::TorFail))
        .collect();
    println!(
        "Fault matrix — {} transports × {} fault scenarios, CLOS {} ({} flows{}{})",
        schemes.len(),
        scenarios.len(),
        scale.label(),
        n_flows,
        if quick { ", --quick smoke" } else { "" },
        if ec_smoke { ", --ec-smoke" } else { "" },
    );
    println!(
        "faults: BER 1e-5 from {} ms / GE bursts on fabric cables; flap & ToR-fail at {}–{} ms; 100 km WAN GE\n",
        FAULT_AT / MS,
        FAULT_AT / MS,
        CLEAR_AT / MS
    );
    let points: Vec<(Scheme, Scenario)> =
        schemes.iter().flat_map(|&s| scenarios.iter().map(move |&c| (s, c))).collect();
    let results = sweep(points.clone(), |(scheme, scenario)| {
        run_cell(scale, n_flows, load, scheme, scenario)
    });

    // Matrix: mean slowdown per (scheme, scenario).
    print!("{:<14}", "mean slowdown");
    for s in &scenarios {
        print!("{:>12}", s.label());
    }
    println!();
    let per_scheme = scenarios.len();
    let mut doc = MetricsDoc::new("fault_matrix")
        .config("flows", n_flows)
        .config("load", load)
        .config("fault_at_ns", FAULT_AT)
        .config("clear_at_ns", CLEAR_AT);
    for (chunk, pchunk) in results.chunks(per_scheme).zip(points.chunks(per_scheme)) {
        let label = pchunk[0].0 .0;
        print!("{label:<14}");
        for cell in chunk {
            let mark = if cell.unfinished > 0 { "!" } else { "" };
            print!("{:>12}", format!("{:.2}{mark}", cell.mean_slowdown));
        }
        println!();
        doc.extend(chunk.iter().map(|cell| cell.entry.clone()));
    }

    println!("\nper-cell detail (p99 slowdown | fault drops | first retx after fault | goodput recovery | time degraded):");
    for (cell, ((label, ..), scenario)) in results.iter().zip(&points) {
        println!(
            "  {:<14}{:<10} p99 {:>8.2}  faultdrops {:>8}  ttfr {:>10}  recovery {:>10}  degraded {:>10}{}",
            label,
            scenario.label(),
            cell.p99_slowdown,
            cell.fault_drops,
            fmt_ns(cell.ttfr_ns),
            fmt_ns(cell.recovery_ns),
            fmt_ns(cell.degraded_ns),
            if cell.unfinished > 0 {
                format!("  [{} unfinished]", cell.unfinished)
            } else {
                String::new()
            },
        );
    }

    // The full document always lands in BENCH_fault_matrix.json (CI
    // validates it against schemas/metrics.schema.json and uploads it);
    // --metrics-out adds a copy wherever the caller wants one.
    let rendered = doc.finish().render_pretty();
    let bench_path = args.get("out").unwrap_or("BENCH_fault_matrix.json");
    std::fs::write(bench_path, &rendered).expect("write bench json");
    println!("\nwrote {bench_path}");
    if let Some(path) = &export.metrics_out {
        std::fs::write(path, &rendered).expect("write metrics");
        println!("result metrics={}", path.display());
    }

    let cell = |scheme: &str, scen: Scenario| {
        points
            .iter()
            .position(|((l, ..), s)| *l == scheme && *s == scen)
            .map(|i| &results[i])
            .expect("matrix cell")
    };

    // The headline claim this matrix exists to check: DCP's HO-based
    // recovery (corrupt data → trimmed to a 57-B notification → one-RTT
    // selective retransmit) beats GBN's go-back-N + RTO under wire BER.
    if !ec_smoke {
        let dcp = cell("DCP (AR)", Scenario::Ber);
        let gbn = cell("GBN (lossy)", Scenario::Ber);
        println!(
            "\nBER 1e-5: DCP mean slowdown {:.2} vs GBN {:.2} ({:.1}× better)",
            dcp.mean_slowdown,
            gbn.mean_slowdown,
            gbn.mean_slowdown / dcp.mean_slowdown
        );
        assert!(
            dcp.mean_slowdown < gbn.mean_slowdown,
            "acceptance: DCP must beat GBN under injected BER"
        );
    }

    // EC acceptance: zero-RTT repair must recover goodput faster than DCP
    // exactly where PR-4 found DCP weakest — uniform wire BER (RACK/IRN
    // already beat it there) and the dead-trimmer ToR death (no trimmer →
    // no HO signal → RTO-only recovery).
    for scen in [Scenario::Ber, Scenario::TorFail] {
        let ec = cell("EC (k8m2, AR)", scen);
        let dcp = cell("DCP (AR)", scen);
        println!(
            "{}: goodput degraded EC {} vs DCP {} (post-clear recovery EC {} vs DCP {})",
            scen.label(),
            fmt_ns(ec.degraded_ns),
            fmt_ns(dcp.degraded_ns),
            fmt_ns(ec.recovery_ns),
            fmt_ns(dcp.recovery_ns),
        );
        let ec_deg = ec.degraded_ns.expect("EC cell has a degraded-time figure");
        // `None` for DCP would mean the tracker saw no baseline at all —
        // treat it as a broken cell, not a win.
        let dcp_deg = dcp.degraded_ns.expect("DCP cell has a degraded-time figure");
        assert!(
            ec_deg < dcp_deg,
            "acceptance: EC must recover goodput faster than DCP in {} ({ec_deg} vs {dcp_deg} ns degraded)",
            scen.label()
        );
    }

    // And on the 100 km Gilbert–Elliott fabric, where every retransmission
    // is a 2 ms round trip, EC's repair shards must beat all of DCP, IRN
    // and RACK-TLP on mean slowdown.
    if !ec_smoke {
        let ec = cell("EC (k8m2, AR)", Scenario::WanGe);
        for rival in ["DCP (AR)", "IRN (AR)", "RACK-TLP"] {
            let rv = cell(rival, Scenario::WanGe);
            println!(
                "wan-100km: EC mean slowdown {:.2} vs {rival} {:.2}",
                ec.mean_slowdown, rv.mean_slowdown
            );
            assert!(
                ec.mean_slowdown < rv.mean_slowdown,
                "acceptance: EC must beat {rival} on the WAN GE fabric"
            );
        }
    }
    Report::default()
}
