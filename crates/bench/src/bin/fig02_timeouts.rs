//! Fig. 2: retransmission timeouts under WebSearch + incast.
//!
//! WebSearch at 0.3 plus N-to-1 incast at 0.1; IRN-ECMP, IRN-AR and DCP.
//! Reports RTO counts for background and incast flows separately.

use dcp_bench::{
    build_clos, default_cc, run_entry, ExportOpts, MetricsDoc, Scale, DEADLINE, METRICS_OUT,
    TRACE_OUT,
};
use dcp_core::dcp_switch_config;
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::LoadBalance;
use dcp_workloads::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let export = ExportOpts::from_env_args(&[METRICS_OUT, TRACE_OUT]);
    let scale = Scale::from_env();
    // Paper: 128-to-1 incast; quick scale uses the fabric's width.
    let fan_in = match scale {
        Scale::Quick => 12,
        Scale::Full => 128,
    };
    println!(
        "Fig. 2 — timeout counts under WebSearch(0.3) + {fan_in}-to-1 incast(0.1) ({})",
        scale.label()
    );
    let n_hosts = scale.clos_dims().1 * scale.clos_dims().2;
    let mut rng = StdRng::seed_from_u64(7);
    let bg = poisson_flows(&mut rng, &SizeDist::websearch(), n_hosts, 100.0, 0.3, scale.flows());
    let horizon = bg.last().unwrap().start;
    let inc = incast_flows(&mut rng, n_hosts, 100.0, 0.1, fan_in, 64 * 1024, horizon);
    let flows = merge(bg, inc);

    let mut doc =
        MetricsDoc::new("fig02_timeouts").config("load", 0.3).config("fan_in", fan_in as f64);
    println!(
        "{:<12}{:>16}{:>16}{:>18}{:>14}",
        "scheme", "bg RTOs", "incast RTOs", "flows w/ RTO (%)", "max RTO/flow"
    );
    for (label, kind, cfg) in [
        ("IRN-ECMP", TransportKind::Irn, SwitchConfig::lossy(LoadBalance::Ecmp)),
        ("IRN-AR", TransportKind::Irn, SwitchConfig::lossy(LoadBalance::AdaptiveRouting)),
        ("DCP", TransportKind::Dcp, dcp_switch_config(LoadBalance::AdaptiveRouting, 20)),
    ] {
        let (mut sim, topo) = build_clos(2, cfg, scale, dcp_netsim::US);
        export.arm_trace(&mut sim);
        let records = run_flows(&mut sim, &topo, kind, default_cc(kind), &flows, DEADLINE);
        assert_eq!(unfinished(&records), 0, "{label}");
        let bg_rtos: u64 = records.iter().filter(|r| !r.spec.incast).map(|r| r.tx.timeouts).sum();
        let inc_rtos: u64 = records.iter().filter(|r| r.spec.incast).map(|r| r.tx.timeouts).sum();
        let with =
            records.iter().filter(|r| r.tx.timeouts > 0).count() as f64 / records.len() as f64;
        let peak = records.iter().map(|r| r.tx.timeouts).max().unwrap_or(0);
        println!("{label:<12}{bg_rtos:>16}{inc_rtos:>16}{:>18.1}{peak:>14}", with * 100.0);
        if export.metrics_out.is_some() {
            let fct = FctSummary::from_records(&records, &IdealFct::intra_dc_100g());
            let cons = sim.check_conservation(false);
            doc.push_run(run_entry(
                label,
                2,
                &fct,
                &sim.net_stats(),
                &sim.all_endpoint_stats(),
                &cons,
            ));
        }
        let trace = export.take_trace(&mut sim);
        export.write_trace_lines(&trace, Some(label));
    }
    export.write_metrics(doc);
    println!();
    println!("Paper shape: IRN suffers RTOs in both traffic classes (AR worse than ECMP");
    println!("due to spurious-retransmission load); DCP experiences none. At quick scale");
    println!("DCP may show a handful of coarse-fallback firings (max 1 per flow): these are");
    println!("final eMSN ACKs dropped at over-threshold data queues (§4.2 drops ACK-class");
    println!("packets), a congestion level the paper's 256-host fabric does not reach. The");
    println!("header-only control plane itself records zero losses.");
}
