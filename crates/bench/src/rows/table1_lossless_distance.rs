//! Table 1: maximum lossless communication distance with PFC enabled, per
//! commodity switching ASIC, by Eq. (1) of the paper:
//!
//! ```text
//! L = buffer / (bandwidth × one-hop-delay-per-km × 2)
//! ```
//!
//! The buffer share of each paused (port, queue) must absorb one RTT of
//! in-flight bytes, and a kilometre of fibre costs `fiber_delay_km(1.0)`
//! one way (footnote 3: 5 µs).

use super::prelude::*;
use dcp_netsim::{bdp_bytes, fiber_delay_km};

/// A switching ASIC: name, ports, Gbps per port, total buffer bytes.
type Asic = (&'static str, u32, f64, u64);

const ASICS: [Asic; 6] = [
    ("Tomahawk 3", 32, 400.0, 64 * MB),
    ("Tomahawk 5", 64, 800.0, 165 * MB),
    ("Tofino 1", 32, 100.0, 20 * MB),
    ("Tofino 2", 32, 400.0, 64 * MB),
    ("Spectrum", 32, 100.0, 16 * MB),
    ("Spectrum-4", 64, 800.0, 160 * MB),
];

/// Buffer per port per 100 Gbps, in MB: Table 1's third row.
fn mb_per_port_per_100g((_, ports, gbps, buffer): Asic) -> f64 {
    buffer as f64 / MB as f64 / ports as f64 / (gbps / 100.0)
}

/// Eq. (1): the km of fibre over whose round trip the bytes in flight fill
/// the buffer share of one of `queues` lossless queues per port.
fn max_lossless_km((_, ports, gbps, buffer): Asic, queues: u32) -> f64 {
    let per_queue = buffer as f64 / (ports * queues) as f64;
    per_queue / bdp_bytes(gbps, 2 * fiber_delay_km(1.0)) as f64
}

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Table 1 — maximum lossless distance under PFC (Eq. 1)");
    println!(
        "{:<14}{:>22}{:>16}{:>16}",
        "ASIC", "buffer/port/100G (MB)", "1 queue (km)", "8 queues (km)"
    );
    for asic in ASICS {
        let (name, per_port) = (asic.0, mb_per_port_per_100g(asic));
        let (km1, km8) = (max_lossless_km(asic, 1), max_lossless_km(asic, 8));
        println!("{name:<14}{per_port:>22.2}{km1:>16.2}{km8:>16.3}");
        r.put(name, [("MB", per_port), ("km1", km1), ("km8", km8)]);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn asic(name: &str) -> Asic {
        *ASICS.iter().find(|a| a.0 == name).unwrap()
    }

    #[test]
    fn buffer_per_port_matches_table1() {
        // Table 1: TH3 0.5 MB, TH5 0.32 MB, Tofino1 0.62 MB, Spectrum-4 0.31.
        assert!((mb_per_port_per_100g(asic("Tomahawk 3")) - 0.5).abs() < 0.01);
        assert!((mb_per_port_per_100g(asic("Tomahawk 5")) - 0.32).abs() < 0.01);
        assert!((mb_per_port_per_100g(asic("Tofino 1")) - 0.62).abs() < 0.01);
        assert!((mb_per_port_per_100g(asic("Spectrum-4")) - 0.31).abs() < 0.01);
    }

    #[test]
    fn lossless_distance_matches_table1_single_queue() {
        // Table 1: TH3 4.1 km, TH5 2.62 km, Tofino1 5.08 km, Spectrum 4.1 km.
        assert!((max_lossless_km(asic("Tomahawk 3"), 1) - 4.1).abs() < 0.15);
        assert!((max_lossless_km(asic("Tomahawk 5"), 1) - 2.62).abs() < 0.12);
        assert!((max_lossless_km(asic("Tofino 1"), 1) - 5.08).abs() < 0.2);
        assert!((max_lossless_km(asic("Spectrum"), 1) - 4.1).abs() < 0.15);
        assert!((max_lossless_km(asic("Spectrum-4"), 1) - 2.56).abs() < 0.12);
    }

    #[test]
    fn eight_queues_divide_distance_by_eight() {
        for a in ASICS {
            let r = max_lossless_km(a, 1) / max_lossless_km(a, 8);
            assert!((r - 8.0).abs() < 1e-9, "{}: ratio {r}", a.0);
        }
        // Table 1: TH3 @ 8 queues = 512 m.
        assert!((max_lossless_km(asic("Tomahawk 3"), 8) - 0.512).abs() < 0.02);
    }
}
