//! Fig. 15: cross-datacenter scenarios — the CLOS with 500 µs (100 km) and
//! 5 ms (1000 km) leaf–spine delay, WebSearch at 0.5.
//!
//! Lossless schemes (PFC, MP-RDMA) get their buffers enlarged to cover the
//! PFC headroom (600 MB / 6 GB as in §6.2); IRN and DCP keep 32 MB.

use super::prelude::*;
use dcp_workloads::*;

const DISTANCES: [(&str, Nanos, usize); 2] =
    [("100 km", 500 * US, 600 << 20), ("1000 km", 5 * MS, 6 << 30)];

pub fn run(args: &Args) -> Report {
    let scale = args.scale();
    let mut r = Report::default();
    println!("Fig. 15 — cross-DC WebSearch (load 0.5) FCT slowdown ({})", scale.label());
    let ideal_base: Nanos = 4_000;
    for (dist, delay, lossless_buf) in DISTANCES {
        let mut rng = StdRng::seed_from_u64(29);
        // Cross-DC BDP is large; keep the flow count moderate.
        let flows = poisson_flows(
            &mut rng,
            &SizeDist::websearch(),
            scale.hosts(),
            100.0,
            0.5,
            scale.flows() / 2,
        );
        let ideal =
            IdealFct { base_delay: ideal_base + 2 * delay, gbps: 100.0, mtu: 1024, header: 74 };
        println!("\n{dist} (leaf–spine delay {delay} ns):");
        println!("{:<12}{:>8}{:>8}{:>8}", "scheme", "P50", "P95", "P99");
        let schemes = paper_schemes(["PFC", "IRN", "MP-RDMA", "DCP"], lossless_buf);
        let results = sweep(schemes.clone(), |(_, kind, cfg)| {
            // Window-based schemes need the cross-DC BDP, and every timer
            // must scale with the path RTT (≈ 4 × leaf–spine delay).
            let cc = match kind {
                TransportKind::Irn | TransportKind::Gbn => {
                    CcKind::Bdp { gbps: 100.0, rtt: 4 * delay }
                }
                k => default_cc(k),
            };
            let opts = RunOpts::for_rtt(4 * delay);
            let (mut sim, topo) = build_clos(6, cfg, scale, delay);
            let deadline = DEADLINE + 20 * delay * 1000;
            let records = run_flows_opts(&mut sim, &topo, kind, cc, &flows, deadline, opts);
            let p = [50.0, 95.0, 99.0].map(|p| overall_slowdown(&records, &ideal, p));
            (p, unfinished(&records))
        });
        for (([p50, p95, p99], unfin), (label, ..)) in results.into_iter().zip(&schemes) {
            println!(
                "{label:<12}{p50:>8.2}{p95:>8.2}{p99:>8.2}{}",
                if unfin > 0 { format!("  [{unfin} unfinished]") } else { String::new() }
            );
            r.put(format!("{label} {dist}"), [("P99", p99)]);
        }
    }
    println!();
    println!("Paper shape: DCP's advantage widens cross-DC (≈46–95% lower tail than the");
    println!("baselines) because larger BDPs mean more outstanding traffic and congestion.");
    r
}

/// At both distances DCP's P99 is at least 40 % below IRN's and MP-RDMA's.
/// (PFC's tail beats everyone's at quick scale: see EXPERIMENTS.md.)
pub fn shape(r: &Report) -> Result<(), String> {
    for (dist, ..) in DISTANCES {
        let dcp = r.get(&format!("DCP {dist}"), "P99");
        for rival in ["IRN", "MP-RDMA"] {
            let v = r.get(&format!("{rival} {dist}"), "P99");
            ensure!(dcp < 0.6 * v, "{dist} P99: DCP {dcp:.2} vs {rival} {v:.2}");
        }
    }
    Ok(())
}
