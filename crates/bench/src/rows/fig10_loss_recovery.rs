//! Fig. 10: loss recovery efficiency — goodput of a long-running flow under
//! artificially enforced loss rates, DCP vs CX5 (RNIC-GBN).

use super::prelude::*;

pub const LOSSES: [f64; 7] = [0.0, 0.0001, 0.001, 0.005, 0.01, 0.02, 0.05];

/// One Fig. 10/17 point: a 16 MB stream through a dumbbell with `loss`
/// forced loss — DCP on a trimming switch with CC off, every other scheme
/// BDP-windowed on a lossy one. `None` if it missed the deadline.
pub fn loss_goodput(seed: u64, kind: TransportKind, loss: f64) -> Option<f64> {
    let mut cfg = match kind {
        TransportKind::Dcp => dcp_switch_config(LoadBalance::Ecmp, 16),
        _ => SwitchConfig::lossy(LoadBalance::Ecmp),
    };
    cfg.forced_loss_rate = loss;
    let mut sim = Simulator::new(seed);
    let topo = topology::two_switch_testbed(&mut sim, cfg, 1, 100.0, &[100.0], US, US);
    let cc = if kind == TransportKind::Dcp { CcKind::None } else { bdp_cc() };
    let pair = |flow, src, dst| endpoint_pair(kind, cc, flow, src, dst);
    let hosts = [(topo.hosts[0], topo.hosts[1])];
    goodput(16 * MB, stream(&mut sim, &hosts, pair, &[MB; 16], 600 * SEC)[0])
}

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Fig. 10 — goodput (Gbps) vs enforced loss rate, 16 MB stream");
    println!("{:>8}{:>12}{:>12}{:>12}", "loss", "CX5(GBN)", "DCP", "DCP/CX5");
    let kinds = [TransportKind::Gbn, TransportKind::Dcp];
    let results = grid(&LOSSES, &kinds, |loss, kind| loss_goodput(11, kind, loss));
    for (row, &loss) in results.iter().zip(&LOSSES) {
        let (cx5, dcp) = (row[0], row[1]);
        let ratio = match (dcp, cx5) {
            (Some(d), Some(c)) => Some(d / c.max(1e-9)),
            _ => None,
        };
        println!(
            "{:>7.2}%{:>12}{:>12}{:>11}x",
            loss * 100.0,
            fmt_opt(cx5, 1),
            fmt_opt(dcp, 1),
            fmt_opt(ratio, 1)
        );
        r.put("CX5(GBN)", [(loss, cx5)]);
        r.put("DCP", [(loss, dcp)]);
    }
    println!();
    println!("Paper shape: 1.6x at 0.01% rising to ~72x at 5%; DCP stays near line rate");
    println!("while GBN collapses.");
    r
}

/// Both schemes above 80 Gbps on a clean link; DCP above 80 Gbps at every
/// loss rate while its lead over GBN widens with loss, to over 3× at 5 %.
pub fn shape(r: &Report) -> Result<(), String> {
    let (dcp0, gbn0) = (r.get("DCP", "0"), r.get("CX5(GBN)", "0"));
    ensure!(dcp0 > 80.0 && gbn0 > 80.0, "clean: DCP {dcp0:.1}, GBN {gbn0:.1}");
    let mut lead = 0.0;
    for loss in LOSSES.map(|l| l.to_string()) {
        let (dcp, gbn) = (r.get("DCP", &loss), r.get("CX5(GBN)", &loss));
        ensure!(dcp > 80.0 && dcp / gbn >= lead, "loss {loss}: DCP {dcp:.1}, GBN {gbn:.1}");
        lead = dcp / gbn;
    }
    let (dcp, gbn) = (r.get("DCP", "0.05"), r.get("CX5(GBN)", "0.05"));
    ensure!(dcp > 50.0 && dcp > 3.0 * gbn, "5% loss: DCP {dcp:.1}, GBN {gbn:.1}");
    Ok(())
}
