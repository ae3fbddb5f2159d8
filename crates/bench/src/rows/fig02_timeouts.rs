//! Fig. 2: retransmission timeouts under WebSearch + incast.
//!
//! WebSearch at 0.3 plus N-to-1 incast at 0.1; IRN-ECMP, IRN-AR and DCP.
//! Reports RTO counts for background and incast flows separately.

use super::prelude::*;

pub fn run(args: &Args) -> Report {
    let export = ExportOpts::from_args(args);
    let scale = args.scale();
    let mut r = Report::default();
    let (fan_in, flows) = websearch_incast(scale, 7, 0.3, 0.1);
    println!(
        "Fig. 2 — timeout counts under WebSearch(0.3) + {fan_in}-to-1 incast(0.1) ({})",
        scale.label()
    );

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
        export.arm_trace(&mut sim, Some(label));
        let records = run_flows(&mut sim, &topo, kind, default_cc(kind), &flows, DEADLINE);
        assert_eq!(unfinished(&records), 0, "{label}");
        let rtos = |incast| {
            records.iter().filter(|r| r.spec.incast == incast).map(|r| r.tx.timeouts).sum::<u64>()
        };
        let (bg_rtos, inc_rtos) = (rtos(false), rtos(true));
        let with =
            records.iter().filter(|r| r.tx.timeouts > 0).count() as f64 / records.len() as f64;
        let peak = records.iter().map(|r| r.tx.timeouts).max().unwrap_or(0);
        println!("{label:<12}{bg_rtos:>16}{inc_rtos:>16}{:>18.1}{peak:>14}", with * 100.0);
        let rtos = [("bg", bg_rtos), ("incast", inc_rtos), ("max", peak)];
        r.put(label, rtos.map(|(c, v)| (c, v as f64)));
        doc.extend(export.entry(label, 2, &sim, Some((&records, &IdealFct::intra_dc_100g()))));
        export.finish_trace(&mut sim).print();
    }
    export.write_metrics(doc);
    println!();
    println!("Paper shape: IRN suffers RTOs in both traffic classes (AR worse than ECMP");
    println!("due to spurious-retransmission load); DCP experiences none. At quick scale");
    println!("DCP may show a handful of coarse-fallback firings (max 1 per flow): these are");
    println!("final eMSN ACKs dropped at over-threshold data queues (§4.2 drops ACK-class");
    println!("packets), a congestion level the paper's 256-host fabric does not reach. The");
    println!("header-only control plane itself records zero losses.");
    r
}

/// IRN times out in both classes, more under AR; DCP at most once per flow
/// and 10× less than IRN (not the paper's 0: see EXPERIMENTS.md).
pub fn shape(r: &Report) -> Result<(), String> {
    let total = |l| r.get(l, "bg") + r.get(l, "incast");
    let (ecmp, ar, dcp) = (total("IRN-ECMP"), total("IRN-AR"), total("DCP"));
    for l in ["IRN-ECMP", "IRN-AR"] {
        ensure!(r.get(l, "bg") > 0.0 && r.get(l, "incast") > 0.0, "{l}: {}", total(l));
    }
    ensure!(ar > ecmp, "IRN-AR {ar} vs IRN-ECMP {ecmp} RTOs");
    ensure!(10.0 * dcp < ecmp && r.get("DCP", "max") <= 1.0, "DCP {dcp} vs IRN-ECMP {ecmp}");
    Ok(())
}
