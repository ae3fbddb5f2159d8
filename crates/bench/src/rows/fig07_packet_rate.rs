//! Fig. 7: theoretical packet rate vs out-of-order degree at a 300 MHz
//! RNIC clock.

use super::prelude::*;
use dcp_analytic::fig7_series;

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Fig. 7 — theoretical packet rate (Mpps) vs OOO degree, 300 MHz clock");
    println!("{:>6}{:>14}{:>16}{:>10}", "OOO", "BDP-sized", "Linked chunk", "DCP");
    for (ooo, bdp, chunk, dcp) in fig7_series() {
        println!("{ooo:>6}{bdp:>14.1}{chunk:>16.1}{dcp:>10.1}");
        r.put(ooo, [("BDP", bdp), ("chunk", chunk), ("DCP", dcp)]);
    }
    println!();
    println!("Paper shape: BDP-sized and DCP stay flat above the 50 Mpps line-rate");
    println!("requirement; linked chunks degrade linearly with OOO degree.");
    r
}

/// BDP-sized and DCP flat and above 50 Mpps at every degree, DCP the
/// highest; linked chunks never recover and end below 50 Mpps.
pub fn shape(r: &Report) -> Result<(), String> {
    for (ooo, dcp) in r.column("DCP") {
        let (bdp, bdp0) = (r.get(ooo, "BDP"), r.get("0", "BDP"));
        ensure!(dcp == r.get("0", "DCP") && bdp == bdp0, "OOO {ooo}: DCP {dcp}, BDP {bdp}");
        ensure!(dcp > bdp && bdp > 50.0, "OOO {ooo}: DCP {dcp}, BDP {bdp}");
    }
    let chunk: Vec<f64> = r.column("chunk").map(|c| c.1).collect();
    ensure!(chunk.windows(2).all(|w| w[1] <= w[0]), "linked chunk {chunk:?}");
    ensure!(chunk.last() < Some(&50.0), "linked chunk {chunk:?}");
    Ok(())
}
