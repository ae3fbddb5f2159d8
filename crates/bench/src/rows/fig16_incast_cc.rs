//! Fig. 16: incast with and without congestion control — WebSearch at 0.5
//! plus N-to-1 incast at 0.05; IRN, MP-RDMA and DCP, P50 and P99 slowdown.
//!
//! The §6.3 story: DCP alone wins P50 but loses P99 under extreme incast
//! (HO-triggered retransmissions feed the congestion); DCP+DCQCN wins both.

use super::prelude::*;

pub fn run(args: &Args) -> Report {
    let scale = args.scale();
    let mut r = Report::default();
    let (fan_in, flows) = websearch_incast(scale, 31, 0.5, 0.05);
    println!(
        "Fig. 16 — WebSearch(0.5) + {fan_in}-to-1 incast(0.05), w/ and w/o DCQCN ({})",
        scale.label()
    );
    let ideal = IdealFct::intra_dc_100g();

    let with_ecn = |mut c: SwitchConfig| {
        c.ecn = Some(EcnConfig::default_100g());
        c
    };
    let dcqcn = CcKind::Dcqcn { gbps: 100.0 };
    let irn = SwitchConfig::lossy(LoadBalance::AdaptiveRouting);
    let dcp = dcp_switch_config(LoadBalance::AdaptiveRouting, 20);
    let rows: Vec<(&str, TransportKind, SwitchConfig, CcKind)> = vec![
        ("IRN", TransportKind::Irn, irn, bdp_cc()),
        ("IRN+CC", TransportKind::Irn, with_ecn(irn), dcqcn),
        (
            "MP-RDMA",
            TransportKind::MpRdma,
            with_ecn(SwitchConfig::lossless(LoadBalance::Ecmp)),
            CcKind::None,
        ),
        ("DCP", TransportKind::Dcp, dcp, CcKind::None),
        ("DCP+CC", TransportKind::Dcp, with_ecn(dcp), dcqcn),
    ];
    println!("{:<10}{:>8}{:>8}{:>10}", "scheme", "P50", "P99", "retx");
    let results = sweep(rows.clone(), |(_, kind, cfg, cc)| {
        let (mut sim, topo) = build_clos(7, cfg, scale, US);
        let records = run_flows(&mut sim, &topo, kind, cc, &flows, DEADLINE);
        let retx: u64 = records.iter().map(|r| r.tx.retx_pkts).sum();
        (
            overall_slowdown(&records, &ideal, 50.0),
            overall_slowdown(&records, &ideal, 99.0),
            retx,
            unfinished(&records),
        )
    });
    for ((p50, p99, retx, unfin), (label, ..)) in results.into_iter().zip(&rows) {
        println!(
            "{label:<10}{p50:>8.2}{p99:>8.2}{retx:>10}{}",
            if unfin > 0 { format!("  [{unfin} unfinished]") } else { String::new() }
        );
        r.put(label, [("P50", p50), ("P99", p99), ("retx", retx as f64)]);
    }
    println!();
    println!("Paper shape: DCP has the best P50 with or without CC; without CC its P99 is");
    println!("the worst (retransmission storms feed the incast); with DCQCN integrated DCP");
    println!("achieves the best P99 too (≈29–31% below IRN+CC / MP-RDMA).");
    r
}

/// §6.3: DCQCN more than halves DCP's P99 and cuts its retx; DCP+CC beats
/// both IRN rows on P50 and P99 (MP-RDMA beats it: see EXPERIMENTS.md).
pub fn shape(r: &Report) -> Result<(), String> {
    let (dcp, cc) = (r.get("DCP", "P99"), r.get("DCP+CC", "P99"));
    ensure!(2.0 * cc < dcp, "P99: DCP+CC {cc:.2} vs DCP {dcp:.2}");
    let (retx, retx_cc) = (r.get("DCP", "retx"), r.get("DCP+CC", "retx"));
    ensure!(retx_cc < retx, "retx: DCP+CC {retx_cc} vs DCP {retx}");
    for irn in ["IRN", "IRN+CC"] {
        for p in ["P50", "P99"] {
            let (v, dcp_cc) = (r.get(irn, p), r.get("DCP+CC", p));
            ensure!(dcp_cc < v, "{p}: DCP+CC {dcp_cc:.2} vs {irn} {v:.2}");
        }
    }
    Ok(())
}
