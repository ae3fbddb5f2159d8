//! Simulated time: nanosecond ticks and transmission-time arithmetic.

/// Simulated time in nanoseconds since simulation start.
pub type Nanos = u64;

pub const NS: Nanos = 1;
pub const US: Nanos = 1_000;
pub const MS: Nanos = 1_000_000;
pub const SEC: Nanos = 1_000_000_000;

/// Serialization delay of `bytes` on a link of `gbps` gigabits per second,
/// rounded up to the next nanosecond so a busy port can never emit faster
/// than line rate.
///
/// The ceiling is taken in integers: `f64::ceil` is a library call on the
/// x86-64 baseline, and this runs once per packet per hop. The truncation
/// is exact for every quotient below 2^64, so `t + (t < q)` is the same
/// value `q.ceil() as Nanos` gives, saturating casts included.
#[inline]
pub fn tx_time(bytes: usize, gbps: f64) -> Nanos {
    debug_assert!(gbps > 0.0);
    let q = (bytes as f64 * 8.0) / gbps;
    let t = q as Nanos;
    t.saturating_add(Nanos::from((t as f64) < q))
}

/// Bandwidth-delay product in bytes for a link of `gbps` and a round-trip
/// time of `rtt` nanoseconds.
pub fn bdp_bytes(gbps: f64, rtt: Nanos) -> u64 {
    (gbps * rtt as f64 / 8.0) as u64
}

/// One-hop propagation delay of `km` kilometres of fibre at 2×10⁸ m/s
/// (the paper's footnote 3: 1 km ≈ 5 µs).
pub fn fiber_delay_km(km: f64) -> Nanos {
    (km * 5_000.0) as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_at_line_rates() {
        // 1 KB at 100 Gbps = 81.92 ns, rounded up.
        assert_eq!(tx_time(1024, 100.0), 82);
        // 57 B header-only packet at 100 Gbps = 4.56 ns.
        assert_eq!(tx_time(57, 100.0), 5);
        // 1 KB at 400 Gbps.
        assert_eq!(tx_time(1024, 400.0), 21);
    }

    /// The integer ceiling equals `f64::ceil` of the same quotient for
    /// every frame size up to a 9 KB jumbo, at each line rate the
    /// topologies use and at a fractional (degraded) one.
    #[test]
    fn tx_time_is_the_f64_ceiling() {
        for gbps in [10.0, 25.0, 40.0, 100.0, 200.0, 400.0, 37.5] {
            for bytes in 0..=9_216usize {
                let want = ((bytes as f64 * 8.0) / gbps).ceil() as Nanos;
                assert_eq!(tx_time(bytes, gbps), want, "{bytes} B at {gbps} Gbps");
            }
        }
    }

    #[test]
    fn bdp_matches_paper_intra_dc_example() {
        // §4.5: 400 Gbps, 10 µs RTT → BDP-sized bitmap of BDP/MTU bits.
        // BDP = 400e9 * 10e-6 / 8 = 500 KB → 500 packets of 1 KB.
        assert_eq!(bdp_bytes(400.0, 10 * US), 500_000);
    }

    #[test]
    fn fiber_delay_examples() {
        assert_eq!(fiber_delay_km(1.0), 5 * US);
        // The testbed's 10 km link: 50 µs one-hop delay (§6.1).
        assert_eq!(fiber_delay_km(10.0), 50 * US);
    }
}
