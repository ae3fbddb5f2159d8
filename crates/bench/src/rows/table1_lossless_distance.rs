//! Table 1: maximum lossless communication distance with PFC enabled, per
//! commodity switching ASIC.

use super::prelude::*;
use dcp_analytic::table1;

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Table 1 — maximum lossless distance under PFC (Eq. 1)");
    println!(
        "{:<14}{:>22}{:>16}{:>16}",
        "ASIC", "buffer/port/100G (MB)", "1 queue (km)", "8 queues (km)"
    );
    for (name, per_port, km1, km8) in table1() {
        println!("{name:<14}{per_port:>22.2}{km1:>16.2}{km8:>16.3}");
        r.put(&name, [("MB", per_port), ("km1", km1), ("km8", km8)]);
    }
    println!();
    println!("Paper row check: Tomahawk 3 → 0.5 MB, 4.1 km, 512 m.");
    r
}

/// The paper's Tomahawk 3 row to within its rounding, and no commodity ASIC
/// lossless past 10 km.
pub fn shape(r: &Report) -> Result<(), String> {
    for (col, paper) in [("MB", 0.5), ("km1", 4.1), ("km8", 0.512)] {
        let v = r.get("Tomahawk 3", col);
        ensure!((v / paper - 1.0).abs() < 0.03, "Tomahawk 3 {col} {v:.3} vs paper {paper}");
    }
    for (asic, km) in r.column("km1") {
        ensure!(km < 10.0, "{asic} {km:.2} km");
    }
    Ok(())
}
