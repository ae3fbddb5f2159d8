//! DCP-Switch policy: the lossless control plane of §4.2.
//!
//! The forwarding mechanism itself (trim + classify + WRR) executes inside
//! `dcp-netsim`'s switch, which is the simulator's stand-in for the P4
//! program. This module owns the *policy*: the WRR weight rule that makes
//! the control queue lossless, and constructors producing correctly
//! configured fabrics.

use dcp_netsim::routing::LoadBalance;
use dcp_netsim::switch::SwitchConfig;
use dcp_rdma::{HO_PACKET_BYTES, MTU};

/// Size ratio `r` between a full data packet and a header-only packet
/// (1 : r in §4.2's analysis). With a 1 KB MTU and the 74-byte full data
/// header this is ≈ 19.3.
pub fn ho_size_ratio(mtu: usize) -> f64 {
    let data_wire = mtu + HO_PACKET_BYTES + 1 + 16; // payload + base hdr + sRetryNo + RETH
    data_wire as f64 / HO_PACKET_BYTES as f64
}

/// The §4.2 WRR weight rule: to guarantee a lossless control queue under an
/// (N−1)-to-1 incast of fully trimmed traffic, the control queue needs a
/// scheduling share of `w : 1` with `w = (N−1)/(r−N+1)`.
///
/// Returns `None` when `r ≤ N−1`, where no weight setting is theoretically
/// sufficient (the paper's §4.2 note); callers fall back to a configured
/// weight and rely on CC to keep the incast survivable (Table 5 shows a
/// small `w` handles 255-to-1 in practice).
///
/// # Examples
/// ```
/// use dcp_core::switch::{ho_size_ratio, wrr_weight};
/// let r = ho_size_ratio(1024);            // ≈ 19.3 with a 1 KB MTU
/// let w = wrr_weight(16, r).unwrap();     // 15 / (r − 15)
/// assert!(w > 3.0 && w < 4.0);
/// assert_eq!(wrr_weight(22, r), None);    // rule undefined past r ≤ N−1
/// ```
pub fn wrr_weight(n_ports: usize, r: f64) -> Option<f64> {
    let n1 = (n_ports - 1) as f64;
    if r > n1 {
        Some(n1 / (r - n1))
    } else {
        None
    }
}

/// Weight actually programmed into the fabric: the theoretical value when
/// it exists, otherwise `fallback`.
pub fn effective_wrr_weight(n_ports: usize, mtu: usize, fallback: f64) -> f64 {
    wrr_weight(n_ports, ho_size_ratio(mtu)).unwrap_or(fallback)
}

/// Switch configuration for a DCP fabric: trimming enabled, no PFC, control
/// queue weighted per §4.2 for a switch of `n_ports`, and ECN marking on
/// (DCP integrates DCQCN, §3; the marks are inert when no CC is attached).
pub fn dcp_switch_config(lb: LoadBalance, n_ports: usize) -> SwitchConfig {
    let mut cfg = SwitchConfig::dcp(lb, effective_wrr_weight(n_ports, MTU, 8.0));
    cfg.ecn = Some(dcp_netsim::switch::EcnConfig::default_100g());
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_ratio_near_paper_value() {
        let r = ho_size_ratio(1024);
        assert!((19.0..20.0).contains(&r), "r = {r}");
    }

    #[test]
    fn weight_rule_matches_formula() {
        // N = 16, r ≈ 19.3 → w = 15 / (19.3 - 15) ≈ 3.5.
        let w = wrr_weight(16, ho_size_ratio(1024)).unwrap();
        assert!((3.0..4.0).contains(&w), "w = {w}");
        // Small switch: N = 4, r = 19.3 → w = 3/16.3 ≈ 0.18.
        let w = wrr_weight(4, ho_size_ratio(1024)).unwrap();
        assert!((0.15..0.25).contains(&w), "w = {w}");
    }

    #[test]
    fn weight_rule_undefined_beyond_ratio() {
        // N = 22 > r + 1: the paper's §4.2 caveat.
        assert_eq!(wrr_weight(22, ho_size_ratio(1024)), None);
        assert_eq!(effective_wrr_weight(22, 1024, 8.0), 8.0);
    }

    #[test]
    fn drain_rate_covers_worst_case_incast() {
        // With w from the rule, the control queue's guaranteed share
        // w/(1+w) must be at least the worst-case HO generation rate
        // (N-1)/r of a port's bandwidth.
        for n in [4usize, 8, 12, 16, 20] {
            let r = ho_size_ratio(1024);
            if let Some(w) = wrr_weight(n, r) {
                let share = w / (1.0 + w);
                let demand = (n as f64 - 1.0) / r;
                assert!(share + 1e-9 >= demand, "N={n}: share {share:.4} < demand {demand:.4}");
            }
        }
    }

    #[test]
    fn dcp_config_has_trimming_and_no_pfc() {
        let cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, 16);
        assert!(cfg.trimming);
        assert!(!cfg.pfc);
        assert!(cfg.ctrl_weight > 0.0);
    }
}
