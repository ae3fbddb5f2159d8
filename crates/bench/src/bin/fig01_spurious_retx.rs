//! Fig. 1: spurious retransmissions under packet-level load balancing.
//!
//! WebSearch at 0.3 load on the CLOS with adaptive routing; IRN vs DCP.
//! (a) retransmission ratio by flow size; (b) share of flows with any
//! spurious retransmission, per size class.

use dcp_bench::{
    build_clos, default_cc, run_entry, ExportOpts, MetricsDoc, Scale, DEADLINE, METRICS_OUT,
};
use dcp_core::dcp_switch_config;
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::LoadBalance;
use dcp_workloads::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let export = ExportOpts::from_env_args(&[METRICS_OUT]);
    let scale = Scale::from_env();
    println!("Fig. 1 — spurious retransmissions with adaptive routing ({})", scale.label());
    let (_, _, hosts_per_leaf) = scale.clos_dims();
    let n_hosts = scale.clos_dims().1 * hosts_per_leaf;
    let mut rng = StdRng::seed_from_u64(42);
    let flows = poisson_flows(&mut rng, &SizeDist::websearch(), n_hosts, 100.0, 0.3, scale.flows());

    // Spurious retransmissions are measured directly: a retransmission is
    // spurious exactly when its original copy also arrived, i.e. the
    // receiver observes a duplicate. (In the paper's 256-host fabric there
    // is no real loss at 0.3 load, so retx ratio == spurious ratio; the
    // quick-scale fabric does congest, so we separate the two.)
    let mut doc = MetricsDoc::new("fig01_spurious_retx").config("load", 0.3);
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    let mut class_share: Vec<(String, [f64; 3])> = Vec::new();
    for (label, kind, cfg) in [
        ("IRN (AR)", TransportKind::Irn, SwitchConfig::lossy(LoadBalance::AdaptiveRouting)),
        ("DCP (AR)", TransportKind::Dcp, dcp_switch_config(LoadBalance::AdaptiveRouting, 20)),
    ] {
        let (mut sim, topo) = build_clos(1, cfg, scale, dcp_netsim::US);
        let records = run_flows(&mut sim, &topo, kind, default_cc(kind), &flows, DEADLINE);
        let unfin = unfinished(&records);
        assert_eq!(unfin, 0, "{label}: {unfin} unfinished");
        let mut by_class: [Vec<(f64, u64)>; 3] = [vec![], vec![], vec![]];
        for r in &records {
            let c = match SizeDist::size_class(r.spec.bytes) {
                "small" => 0,
                "medium" => 1,
                _ => 2,
            };
            let spurious_ratio = if r.rx.pkts_received == 0 {
                0.0
            } else {
                r.rx.duplicates as f64 / (r.rx.pkts_received - r.rx.duplicates) as f64
            };
            by_class[c].push((spurious_ratio, r.rx.duplicates));
        }
        let means: Vec<f64> = by_class
            .iter()
            .map(|v| {
                if v.is_empty() {
                    0.0
                } else {
                    v.iter().map(|x| x.0).sum::<f64>() / v.len() as f64
                }
            })
            .collect();
        table.push((label.to_string(), means));
        let share = |c: usize| {
            if by_class[c].is_empty() {
                0.0
            } else {
                by_class[c].iter().filter(|x| x.1 > 0).count() as f64 / by_class[c].len() as f64
            }
        };
        class_share.push((label.to_string(), [share(0), share(1), share(2)]));
        let total_retx: u64 = records.iter().map(|r| r.tx.retx_pkts).sum();
        let spurious: u64 = records.iter().map(|r| r.rx.duplicates).sum();
        let trims = sim.net_stats().trims;
        let drops = sim.net_stats().data_drops;
        println!(
            "  {label}: retx {total_retx} of which spurious {spurious}; real losses (drops+trims) {}",
            drops + trims
        );
        if export.metrics_out.is_some() {
            let fct = FctSummary::from_records(&records, &IdealFct::intra_dc_100g());
            let cons = sim.check_conservation(false);
            doc.push_run(run_entry(
                label,
                1,
                &fct,
                &sim.net_stats(),
                &sim.all_endpoint_stats(),
                &cons,
            ));
        }
    }
    export.write_metrics(doc);
    println!();
    println!("(a) mean spurious-retransmission ratio by size class");
    println!("{:<12}{:>10}{:>10}{:>10}", "", "small", "medium", "large");
    for (l, v) in &table {
        println!("{l:<12}{:>10.3}{:>10.3}{:>10.3}", v[0], v[1], v[2]);
    }
    println!();
    println!("(b) fraction of flows with spurious retransmissions");
    println!("    (paper: ~50%/80%/90% small/medium/large for IRN; identically 0 for DCP)");
    println!("{:<12}{:>10}{:>10}{:>10}", "", "small", "medium", "large");
    for (l, v) in &class_share {
        println!("{l:<12}{:>10.2}{:>10.2}{:>10.2}", v[0], v[1], v[2]);
    }
}
