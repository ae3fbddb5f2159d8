//! Fig. 12: testbed AI workloads — 16 RNICs on two switches, four groups of
//! four, AllReduce and AllToAll; DCP+AR vs CX5(GBN)+ECMP.

use super::prelude::*;
use dcp_workloads::{run_collective, Collective, Group};

fn jcts(kind: TransportKind, which: Collective) -> Vec<f64> {
    let (cfg, cc) = match kind {
        TransportKind::Dcp => (dcp_switch_config(LoadBalance::AdaptiveRouting, 20), CcKind::None),
        _ => (SwitchConfig::lossy(LoadBalance::Ecmp), bdp_cc()),
    };
    let mut sim = Simulator::new(17);
    // Fig. 9 testbed: 8 hosts per switch, 8 parallel 100G cross links.
    let topo = topology::two_switch_testbed(&mut sim, cfg, 8, 100.0, &[100.0; 8], US, US);
    // Groups straddle the two switches (members i, i+4 from each side).
    let groups: Vec<Group> = (0..4)
        .map(|g| Group { members: vec![g, g + 4, g + 8, g + 12], total_bytes: 64 << 20 })
        .collect();
    let res = run_collective(&mut sim, &topo, kind, cc, &groups, which, 600 * SEC);
    res.iter().map(|r| r.jct as f64 / MS as f64).collect()
}

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Fig. 12 — testbed AI workloads: 4 groups x 4 RNICs, 64 MB per group");
    for which in [Collective::RingAllReduce, Collective::AllToAll] {
        println!("\n{which:?}: JCT per group (ms)");
        println!("{:<14}{:>9}{:>9}{:>9}{:>9}{:>10}", "scheme", "g1", "g2", "g3", "g4", "max");
        for (label, kind) in [("DCP (AR)", TransportKind::Dcp), ("CX5 (ECMP)", TransportKind::Gbn)]
        {
            let jcts = jcts(kind, which);
            let max = jcts.iter().cloned().fold(0.0, f64::max);
            println!(
                "{label:<14}{:>9.2}{:>9.2}{:>9.2}{:>9.2}{max:>10.2}",
                jcts[0], jcts[1], jcts[2], jcts[3]
            );
            r.put(label, [(format!("{which:?}"), max)]);
        }
    }
    println!();
    println!("Paper shape: DCP reduces AllReduce/AllToAll completion time by up to");
    println!("33%/42% vs CX5, mainly by flattening the slowest group.");
    r
}

/// DCP's slowest group finishes at least a third sooner than CX5's, in both
/// collectives.
pub fn shape(r: &Report) -> Result<(), String> {
    for which in ["RingAllReduce", "AllToAll"] {
        let (dcp, cx5) = (r.get("DCP (AR)", which), r.get("CX5 (ECMP)", which));
        ensure!(dcp < 2.0 / 3.0 * cx5, "{which}: max JCT DCP {dcp:.2} vs CX5 {cx5:.2} ms");
    }
    Ok(())
}
