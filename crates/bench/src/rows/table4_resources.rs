//! Table 4 substitute: per-QP hardware state accounting (the
//! software-reproducible proxy for the paper's FPGA LUT/BRAM table; see
//! DESIGN.md's substitution note).

use super::prelude::*;
use dcp_analytic::table4_equivalent;

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Table 4 (substitute) — per-QP hardware-resident transport state");
    for acc in table4_equivalent() {
        println!("\n{} — total {} B", acc.scheme, acc.total());
        for (item, bytes) in &acc.items {
            println!("  {item:<38}{bytes:>8} B");
        }
        r.put(acc.scheme, [("total", acc.total() as f64)]);
    }
    println!();
    println!("Paper shape: DCP-RNIC adds only a small constant over RNIC-GBN (the paper");
    println!("measures +1.7% LUTs / +1.1% BRAM); bitmap-based RNIC-SR state dwarfs both.");
    r
}

/// DCP's state is GBN-class (under 1.5× GBN's), the bitmap scheme's is not
/// (over 1.5× DCP's).
pub fn shape(r: &Report) -> Result<(), String> {
    let total = |s| r.get(s, "total");
    let (gbn, irn, dcp) = (total("RNIC-GBN"), total("RNIC-SR (IRN)"), total("DCP-RNIC"));
    ensure!(dcp < 1.5 * gbn && irn > 1.5 * dcp, "GBN {gbn} B, DCP {dcp} B, IRN {irn} B");
    Ok(())
}
