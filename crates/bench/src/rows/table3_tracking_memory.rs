//! Table 3: receiver packet-tracking memory — BDP-sized bitmaps vs linked
//! chunks vs DCP's bitmap-free counters.

use super::prelude::*;
use dcp_analytic::{table3_10k_qps, table3_per_qp};

fn fmt(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1024 {
        format!("{:.1} KB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Table 3 — packet-tracking memory (intra-DC: 400 Gbps, 10 us RTT, 1 KB MTU)");
    println!("{:<22}{:>14}{:>22}{:>12}", "", "BDP-sized", "Linked chunk", "DCP");
    for (label, (bdp, (lmin, lmax), dcp)) in
        [("Per-QP", table3_per_qp()), ("10k QPs", table3_10k_qps())]
    {
        println!(
            "{:<22}{:>14}{:>22}{:>12}",
            label,
            fmt(bdp),
            format!("{}~{}", fmt(lmin), fmt(lmax)),
            fmt(dcp)
        );
        r.put(label, [("BDP", bdp), ("chunk min", lmin), ("DCP", dcp)].map(|(c, v)| (c, v as f64)));
    }
    println!();
    println!("Paper shape: DCP per-QP tracking is an order of magnitude below BDP bitmaps;");
    println!("10k QPs of bitmaps exceed typical ~2 MB RNIC SRAM, DCP stays well under 0.5 MB.");
    r
}

/// DCP smallest in both rows, under 0.5 MB at 10k QPs (raw bitmap bits: no
/// order-of-magnitude margin, no 2 MB SRAM overflow).
pub fn shape(r: &Report) -> Result<(), String> {
    for row in ["Per-QP", "10k QPs"] {
        let (dcp, bdp, chunk) = (r.get(row, "DCP"), r.get(row, "BDP"), r.get(row, "chunk min"));
        ensure!(dcp < bdp.min(chunk), "{row}: DCP {dcp} B vs BDP {bdp} B, chunk {chunk} B");
    }
    let dcp_10k = r.get("10k QPs", "DCP");
    ensure!(dcp_10k < 512.0 * 1024.0, "{dcp_10k} B");
    Ok(())
}
