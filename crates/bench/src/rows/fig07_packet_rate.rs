//! Fig. 7: theoretical packet rate vs out-of-order degree at a 300 MHz
//! RNIC clock, counting pipeline cycles per packet for each tracking
//! scheme.

use super::prelude::*;

const CLOCK_MHZ: f64 = 300.0;

/// A BDP-sized bitmap computes the slot's address, then accesses it.
const BDP_CYCLES: u64 = 2;

/// DCP increments one counter; the completion check shares the cycle.
const DCP_CYCLES: u64 = 1;

/// A linked chunk pays a bitmap's two cycles plus one membership check and
/// one pointer chase per 128-packet chunk it walks past to reach degree
/// `ooo`.
fn chunk_cycles(ooo: u64) -> u64 {
    2 + 2 * (ooo / 128)
}

fn mpps(cycles: u64) -> f64 {
    CLOCK_MHZ / cycles as f64
}

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Fig. 7 — theoretical packet rate (Mpps) vs OOO degree, 300 MHz clock");
    println!("{:>6}{:>14}{:>16}{:>10}", "OOO", "BDP-sized", "Linked chunk", "DCP");
    for ooo in (0..=448).step_by(64) {
        let (bdp, chunk, dcp) = (mpps(BDP_CYCLES), mpps(chunk_cycles(ooo)), mpps(DCP_CYCLES));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linked_chunk_degrades_linearly() {
        let (c0, c128, c256) = (chunk_cycles(0), chunk_cycles(128), chunk_cycles(256));
        assert!(c0 < c128 && c128 < c256);
        assert_eq!(c256 - c128, c128 - c0, "linear in chunks traversed");
    }

    #[test]
    fn rates_support_400g_line_rate_only_for_constant_schemes() {
        // §4.5: 50 Mpps ≈ 400 Gbps at 1 KB MTU. At 300 MHz, both constant
        // schemes exceed it at any OOO degree; linked chunks fall below it
        // once the OOO degree grows past a few chunks.
        let line = 50.0;
        assert!(mpps(DCP_CYCLES) > line);
        assert!(mpps(BDP_CYCLES) > line);
        assert!(mpps(chunk_cycles(0)) > line);
        assert!(mpps(chunk_cycles(448)) < line);
    }
}
