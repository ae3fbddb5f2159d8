//! Ablation: the §4.2 WRR weight rule.
//!
//! Sweeps the control-queue weight under a sustained incast and reports the
//! HO loss ratio, bracketing the analytical weight `w = (N−1)/(r−N+1)`. The
//! design claim: weights at or above the rule keep the control plane
//! lossless; starving weights lose HO packets.

use super::prelude::*;
use super::table5_ho_loss::{funnel_switch, ho_loss};
use dcp_core::{ho_size_ratio, wrr_weight};

const FAN_IN: usize = 8;

/// 20 ms sustained incast at the given control weight → (HO loss ratio,
/// HOs seen).
fn weight_loss(weight: f64) -> (f64, u64) {
    let mut sim = Simulator::new(43);
    incast(&mut sim, funnel_switch(FAN_IN + 2, weight), FAN_IN, CcKind::None, 32);
    sim.run_until(20 * MS);
    let (drops, total) = ho_loss(&sim.net_stats());
    (if total == 0 { 0.0 } else { drops as f64 / total as f64 }, total)
}

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    let ratio = ho_size_ratio(dcp_rdma::MTU);
    let rule = wrr_weight(FAN_IN + 2, ratio);
    println!("Ablation — control-queue WRR weight vs HO loss ({FAN_IN}-to-1 incast, 20 ms)");
    println!(
        "size ratio r = {ratio:.1}; rule weight for N = {} ports: {:?}",
        FAN_IN + 2,
        rule.map(|w| (w * 1000.0).round() / 1000.0)
    );
    println!("{:>10}{:>14}{:>12}", "weight", "HO loss", "HOs seen");
    let weights = vec![0.05, 0.1, 0.2, 0.5, rule.unwrap_or(1.0), 2.0, 8.0];
    let results = sweep(weights.clone(), weight_loss);
    for ((loss, total), w) in results.into_iter().zip(weights) {
        let at_rule = rule.is_some_and(|r| (w - r).abs() < 1e-6);
        let marker = if at_rule { "  <- rule" } else { "" };
        println!("{w:>10.3}{:>13.3}%{total:>12}{marker}", loss * 100.0);
        r.put(w, [("loss", loss)]);
        if at_rule {
            r.put("rule", [("weight", w), ("rule loss", loss)]);
        }
    }
    println!();
    println!("Design-claim shape: HO loss is substantial at starving weights and goes to");
    println!("zero at (or before) the analytical weight.");
    r
}

/// Over 10 % HO loss at the most starving weight, loss never rising with
/// the weight, and exactly zero at the analytical weight and above it.
pub fn shape(r: &Report) -> Result<(), String> {
    let (rule, at_rule) = (r.get("rule", "weight"), r.get("rule", "rule loss"));
    ensure!(at_rule == 0.0, "HO loss {:.3}% at the rule weight {rule:.3}", at_rule * 100.0);
    let sweep: Vec<(f64, f64)> =
        r.column("loss").map(|(w, l)| (w.parse().unwrap_or(f64::NAN), l)).collect();
    ensure!(sweep[0].1 > 0.1, "HO loss {:.3}% at weight {}", sweep[0].1 * 100.0, sweep[0].0);
    for w in sweep.windows(2) {
        ensure!(w[1].1 <= w[0].1, "HO loss rises from weight {} to {}", w[0].0, w[1].0);
    }
    for &(w, loss) in sweep.iter().filter(|s| s.0 >= rule) {
        ensure!(loss == 0.0, "HO loss {:.3}% at weight {w} >= rule {rule:.3}", loss * 100.0);
    }
    Ok(())
}
