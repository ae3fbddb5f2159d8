//! Fig. 13: WebSearch FCT slowdown on the CLOS — PFC(ECMP), IRN(AR),
//! MP-RDMA, DCP(AR) at loads 0.3 and 0.5, P50 and P95 per flow-size bucket.

use dcp_bench::{
    build_clos, default_cc, run_entry, sweep, ExportOpts, MetricsDoc, Scale, DEADLINE, METRICS_OUT,
};
use dcp_core::dcp_switch_config;
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::{LoadBalance, US};
use dcp_telemetry::Json;
use dcp_workloads::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schemes() -> Vec<(&'static str, TransportKind, SwitchConfig)> {
    let mut pfc = SwitchConfig::lossless(LoadBalance::Ecmp);
    pfc.ecn = None;
    vec![
        ("PFC (ECMP)", TransportKind::Gbn, pfc),
        ("IRN (AR)", TransportKind::Irn, SwitchConfig::lossy(LoadBalance::AdaptiveRouting)),
        ("MP-RDMA", TransportKind::MpRdma, SwitchConfig::lossless(LoadBalance::Ecmp)),
        ("DCP (AR)", TransportKind::Dcp, dcp_switch_config(LoadBalance::AdaptiveRouting, 20)),
    ]
}

struct Row {
    p50: f64,
    p95: f64,
    p99: f64,
    bucket_p95: Vec<f64>,
    unfinished: usize,
    /// Structured-export entry, built only under `--metrics-out`.
    entry: Option<Json>,
}

/// One (load, scheme) sweep point. Flows are regenerated from the same
/// seed per point, so every scheme within a load sees the identical
/// workload, exactly as the shared-workload serial loop did.
fn run_point(
    scale: Scale,
    load: f64,
    label: &str,
    kind: TransportKind,
    cfg: SwitchConfig,
    with_entry: bool,
) -> Row {
    let n_hosts = scale.clos_dims().1 * scale.clos_dims().2;
    let ideal = IdealFct::intra_dc_100g();
    let mut rng = StdRng::seed_from_u64(23);
    let flows =
        poisson_flows(&mut rng, &SizeDist::websearch(), n_hosts, 100.0, load, scale.flows());
    let (mut sim, topo) = build_clos(3, cfg, scale, US);
    let records = run_flows(&mut sim, &topo, kind, default_cc(kind), &flows, DEADLINE);
    let entry = with_entry.then(|| {
        let fct = FctSummary::from_records(&records, &ideal);
        let cons = sim.check_conservation(false);
        run_entry(
            &format!("{label} load={load}"),
            3,
            &fct,
            &sim.net_stats(),
            &sim.all_endpoint_stats(),
            &cons,
        )
    });
    Row {
        p50: overall_slowdown(&records, &ideal, 50.0),
        p95: overall_slowdown(&records, &ideal, 95.0),
        p99: overall_slowdown(&records, &ideal, 99.0),
        bucket_p95: slowdown_by_size(&records, &ideal, 6).iter().map(|b| b.p95).collect(),
        unfinished: unfinished(&records),
        entry,
    }
}

fn main() {
    let export = ExportOpts::from_env_args(&[METRICS_OUT]);
    let scale = Scale::from_env();
    println!("Fig. 13 — WebSearch FCT slowdown ({})", scale.label());
    const LOADS: [f64; 2] = [0.3, 0.5];
    let points: Vec<(f64, &'static str, TransportKind, SwitchConfig)> = LOADS
        .iter()
        .flat_map(|&load| {
            schemes().into_iter().map(move |(label, kind, mut cfg)| {
                // MP-RDMA needs ECN on its lossless fabric for window
                // feedback.
                if kind == TransportKind::MpRdma {
                    cfg.ecn = Some(dcp_netsim::EcnConfig::default_100g());
                }
                (load, label, kind, cfg)
            })
        })
        .collect();
    let with_entry = export.metrics_out.is_some();
    let mut doc = MetricsDoc::new("fig13_websearch");
    let results = sweep(points.clone(), |(load, label, kind, cfg)| {
        run_point(scale, load, label, kind, cfg, with_entry)
    });
    let per_load = schemes().len();
    for (chunk, pchunk) in results.chunks(per_load).zip(points.chunks(per_load)) {
        let load = pchunk[0].0;
        println!("\nload {load}: overall slowdown percentiles + per-size buckets");
        println!(
            "{:<12}{:>8}{:>8}{:>8} | per-bucket P95 (small→large)",
            "scheme", "P50", "P95", "P99"
        );
        for (row, (_, label, ..)) in chunk.iter().zip(pchunk) {
            if let Some(e) = &row.entry {
                doc.push_run(e.clone());
            }
            print!("{label:<12}{:>8.2}{:>8.2}{:>8.2} |", row.p50, row.p95, row.p99);
            for b in &row.bucket_p95 {
                print!(" {b:>6.1}");
            }
            if row.unfinished > 0 {
                print!("  [{} unfinished]", row.unfinished);
            }
            println!();
        }
    }
    export.write_metrics(doc);
    println!();
    println!("Paper shape: fine-grained LB (DCP, MP-RDMA) beats ECMP; DCP has the best");
    println!("tail (≈5–16% below IRN/MP-RDMA at 0.3, ≈10–12% at 0.5).");
}
