//! Fig. 17: loss-recovery efficiency of DCP, RACK-TLP, IRN and a
//! timeout-only scheme under enforced loss (ECMP single path).

use super::prelude::*;
use super::fig10_loss_recovery::{loss_goodput, LOSSES};

const SCHEMES: [(&str, TransportKind); 4] = [
    ("DCP", TransportKind::Dcp),
    ("RACK-TLP", TransportKind::RackTlp),
    ("IRN", TransportKind::Irn),
    ("Timeout", TransportKind::TimeoutOnly),
];

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Fig. 17 — goodput (Gbps) vs loss rate for four recovery schemes");
    println!("{:>8}{:>10}{:>12}{:>8}{:>10}", "loss", "DCP", "RACK-TLP", "IRN", "Timeout");
    let results = grid(&LOSSES, &SCHEMES, |loss, (_, kind)| loss_goodput(37, kind, loss));
    for (row, &loss) in results.iter().zip(&LOSSES) {
        let [dcp, rack, irn, to] = [row[0], row[1], row[2], row[3]].map(|v| fmt_opt(v, 1));
        println!("{:>7.2}%{dcp:>10}{rack:>12}{irn:>8}{to:>10}", loss * 100.0);
        for ((label, _), v) in SCHEMES.iter().zip(row) {
            r.put(label, [(loss, *v)]);
        }
    }
    println!();
    println!("Paper shape: DCP ≥ RACK-TLP > IRN ≫ timeout-only; the timeout scheme");
    println!("collapses fastest, IRN suffers from re-dropped retransmissions, RACK pays");
    println!("one RTT per recovery, DCP stays near line rate.");
    r
}

/// All above 80 Gbps on a clean link; DCP the best from 0.5 % loss up, and
/// DCP > RACK-TLP > IRN > timeout-only from 2 %. (Where IRN falls between
/// 0.5 and 2 % depends on the event order: see EXPERIMENTS.md.)
pub fn shape(r: &Report) -> Result<(), String> {
    for (label, _) in SCHEMES {
        let g = r.get(label, "0");
        ensure!(g > 80.0, "clean: {label} {g:.1}");
    }
    for &loss in LOSSES.iter().filter(|&&l| l >= 0.005) {
        let g = SCHEMES.map(|(label, _)| r.get(label, &loss.to_string()));
        ensure!(g[0] > g[1].max(g[2]).max(g[3]), "loss {loss}: {g:.1?}");
        ensure!(loss < 0.02 || (g[1] > g[2] && g[2] > g[3]), "loss {loss}: {g:.1?}");
    }
    Ok(())
}
