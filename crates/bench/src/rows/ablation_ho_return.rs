//! Ablation: §7's hypothetical direct HO return vs the deployed
//! bounce-via-receiver path.
//!
//! The deployed design sends a trimmed notification on to the receiver,
//! which swaps addresses and returns it — costing up to a full extra
//! receiver leg before the sender learns of the loss. §7 sketches (and
//! rejects, for ASIC state reasons) returning it straight from the trimming
//! switch. The simulator can afford the mapping table, so this row
//! quantifies what the paper left on the table: transfer time under forced
//! loss, with the sender→switch→receiver legs made asymmetric by a long
//! cross-switch link.

use super::prelude::*;
use dcp_netsim::fiber_delay_km;

/// One 8 MB stream over a `km`-long cross link; 2% forced loss at the
/// sender-side switch (the trim point far from the receiver, where §7's
/// saving is largest). Returns goodput in Gbps, or `None` if the stream
/// missed the deadline.
fn return_goodput(direct: bool, km: f64) -> Option<f64> {
    let mut cfg = dcp_switch_config(LoadBalance::Ecmp, 16);
    cfg.ho_direct_return = direct;
    let mut sim = Simulator::new(67);
    let topo =
        topology::two_switch_testbed(&mut sim, cfg, 1, 100.0, &[100.0], US, fiber_delay_km(km));
    sim.switch_mut(topo.leaves[0]).cfg.forced_loss_rate = 0.02;
    let pair = |flow, src, dst| endpoint_pair(TransportKind::Dcp, CcKind::None, flow, src, dst);
    let hosts = [(topo.hosts[0], topo.hosts[1])];
    goodput(8 * MB, stream(&mut sim, &hosts, pair, &[MB; 8], 600 * SEC)[0])
}

const KMS: [f64; 3] = [0.2, 10.0, 100.0];

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Ablation — §7 back-to-sender HO return (8 MB stream, 2% forced loss)");
    println!("{:>12}{:>18}{:>16}{:>10}", "link", "bounce (Gbps)", "direct (Gbps)", "gain");
    let results = grid(&KMS, &[false, true], |km, direct| return_goodput(direct, km));
    for (row, &km) in results.iter().zip(&KMS) {
        let (bounce, direct) = (row[0], row[1]);
        let gain = match (bounce, direct) {
            (Some(b), Some(d)) => format!("{:>9.1}%", (d / b - 1.0) * 100.0),
            _ => format!("{:>10}", "n/a"),
        };
        println!("{km:>9} km{:>18}{:>16}{gain}", fmt_opt(bounce, 1), fmt_opt(direct, 1));
        r.put("gain", [(km, direct.zip(bounce).map(|(d, b)| d / b - 1.0))]);
    }
    println!();
    println!("Expected shape: negligible difference intra-DC (the receiver leg is ~µs),");
    println!("growing with distance — the loss notification saves one receiver leg per");
    println!("retransmission. This is the latency the paper trades away to keep switches");
    println!("stateless (§7).");
    r
}

/// The direct return gains under 5 % intra-DC and more with every step of
/// distance.
pub fn shape(r: &Report) -> Result<(), String> {
    let gains: Vec<f64> = KMS.iter().map(|km| r.get("gain", &km.to_string())).collect();
    ensure!(
        gains[0].abs() < 0.05 && gains[0] < gains[1] && gains[1] < gains[2],
        "gains {gains:.3?}"
    );
    Ok(())
}
