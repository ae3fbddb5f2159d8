//! Fig. 14: large-scale AI workloads — groups running AllReduce/AllToAll
//! simultaneously on the CLOS; JCT per group and FCT distribution.

use super::prelude::*;
use dcp_workloads::*;

pub fn run(args: &Args) -> Report {
    let scale = args.scale();
    let mut r = Report::default();
    // Paper: 16 groups × 16 hosts, 300 MB per collective. Quick: 4 × 4,
    // 48 MB.
    let (n_groups, group_size, bytes) = match scale {
        Scale::Quick => (4usize, 4usize, 48u64 << 20),
        Scale::Full => (16, 16, 300 << 20),
    };
    println!(
        "Fig. 14 — AI workloads: {n_groups} groups x {group_size}, {} MB each ({})",
        bytes >> 20,
        scale.label()
    );
    let schemes = paper_schemes(["PFC", "IRN", "MP-RDMA", "DCP"], 32 << 20);
    // Groups stripe across leaves so collectives cross the spine layer.
    let groups: Vec<Group> = (0..n_groups)
        .map(|g| Group {
            members: (0..group_size).map(|m| (g + m * n_groups) % scale.hosts()).collect(),
            total_bytes: bytes,
        })
        .collect();
    let collectives = [Collective::RingAllReduce, Collective::AllToAll];
    let results = grid(&collectives, &schemes, |which, (_, kind, cfg)| {
        let (mut sim, topo) = build_clos(5, cfg, scale, US);
        let res =
            run_collective(&mut sim, &topo, kind, default_cc(kind), &groups, which, 600 * SEC);
        let jcts: Vec<f64> = res.iter().map(|r| r.jct as f64 / MS as f64).collect();
        let min = jcts.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = jcts.iter().cloned().fold(0.0, f64::max);
        let mean = jcts.iter().sum::<f64>() / jcts.len() as f64;
        let mut fcts: Vec<f64> =
            res.iter().flat_map(|r| r.fcts.iter().map(|&f| f as f64 / MS as f64)).collect();
        [min, max, mean, percentile(&mut fcts, 95.0)]
    });
    for (row, which) in results.iter().zip(collectives) {
        println!("\n{which:?}: JCT (ms) per scheme");
        println!("{:<10}{:>10}{:>10}{:>12}{:>16}", "scheme", "min", "max", "mean", "FCT P95 (ms)");
        for (&[min, max, mean, p95], &(label, ..)) in row.iter().zip(&schemes) {
            println!("{label:<10}{min:>10.2}{max:>10.2}{mean:>12.2}{p95:>16.2}");
            r.put(label, [(format!("{which:?} mean"), mean), (format!("{which:?} P95"), p95)]);
        }
    }
    println!();
    println!("Paper shape: DCP has the lowest JCT (38–61% below the baselines on");
    println!("AllReduce), driven by the best per-flow tail; collectives are gated by");
    println!("their slowest flow.");
    r
}

/// AllReduce: DCP's mean JCT ≥ 25 % below every baseline, its FCT P95 the
/// best; AllToAll: DCP beats PFC and MP-RDMA (not IRN: see EXPERIMENTS.md).
pub fn shape(r: &Report) -> Result<(), String> {
    let (dcp, dcp_p95) = (r.get("DCP", "RingAllReduce mean"), r.get("DCP", "RingAllReduce P95"));
    for rival in ["PFC", "IRN", "MP-RDMA"] {
        let (v, p95) = (r.get(rival, "RingAllReduce mean"), r.get(rival, "RingAllReduce P95"));
        ensure!(dcp < 0.75 * v && dcp_p95 < p95, "AllReduce: DCP {dcp:.2} vs {rival} {v:.2} ms");
    }
    let dcp = r.get("DCP", "AllToAll mean");
    for rival in ["PFC", "MP-RDMA"] {
        let v = r.get(rival, "AllToAll mean");
        ensure!(dcp < v, "AllToAll: DCP {dcp:.2} vs {rival} {v:.2} ms");
    }
    Ok(())
}
