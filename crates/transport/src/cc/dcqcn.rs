//! DCQCN (Zhu et al., SIGCOMM '15) — the congestion control the paper
//! integrates with DCP, IRN and PFC (§6.2, §6.3).
//!
//! Reaction point (sender) algorithm:
//! * On CNP: `alpha` is refreshed, the target rate is remembered and the
//!   current rate is cut multiplicatively: `Rc ← Rc(1 − α/2)`.
//! * `alpha` decays every [`ALPHA_TIMER`] without CNPs.
//! * Rate increases run every [`RATE_TIMER`] (and every [`BYTE_COUNTER`]
//!   bytes): five fast-recovery iterations move `Rc` halfway back to the
//!   target rate, then additive increase raises the target by
//!   [`RAI_GBPS`], then hyper increase by [`RHAI_GBPS`].
//!
//! Every parameter but the line rate is a constant (the paper's 100 Gbps
//! NS3 setups). The notification point (receiver) side — "send at most
//! one CNP per `CNP_INTERVAL` per flow when ECN-marked packets arrive" —
//! lives in the transports' receiver endpoints
//! ([`crate::common::CnpGen`]); this module only models the sender.

use super::CongestionControl;
use dcp_netsim::time::{Nanos, US};

/// Minimum rate floor.
const MIN_RATE_GBPS: f64 = 0.1;

/// `g`: weight of new congestion information in the alpha EWMA.
const G: f64 = 1.0 / 16.0;

/// Alpha decay / update period (55 µs in the reference).
const ALPHA_TIMER: Nanos = 55 * US;

/// Rate-increase period (55 µs in the reference implementation).
const RATE_TIMER: Nanos = 55 * US;

/// Bytes per byte-counter increase stage.
const BYTE_COUNTER: u64 = 10 << 20;

/// Additive increase step (Gbps). Reference: 40 Mbps, scaled ×5 for
/// 100 G fabrics.
const RAI_GBPS: f64 = 1.0;

/// Hyper increase step (Gbps).
const RHAI_GBPS: f64 = 5.0;

/// Fast-recovery stage threshold (F = 5).
const FR_THRESHOLD: u32 = 5;

/// DCQCN reaction-point state.
#[derive(Debug, Clone)]
pub struct Dcqcn {
    /// Line rate; also the initial rate (RoCE deployments start at line
    /// rate).
    line_rate_gbps: f64,
    /// Current rate (Gbps).
    rc: f64,
    /// Target rate remembered at the last cut (Gbps).
    rt: f64,
    alpha: f64,
    /// Rate-timer increase iterations since the last cut.
    t_iter: u32,
    /// Byte-counter increase iterations since the last cut.
    b_iter: u32,
    bytes_since_cut: u64,
    /// Whether a CNP arrived since the last alpha update.
    cnp_since_alpha: bool,
    last_alpha_update: Nanos,
    last_rate_update: Nanos,
    /// Virtual clock: when the wire credit of previously sent bytes runs out.
    next_free: Nanos,
}

impl Dcqcn {
    pub fn new(line_rate_gbps: f64) -> Self {
        Dcqcn {
            line_rate_gbps,
            rc: line_rate_gbps,
            rt: line_rate_gbps,
            alpha: 1.0,
            t_iter: 0,
            b_iter: 0,
            bytes_since_cut: 0,
            cnp_since_alpha: false,
            last_alpha_update: 0,
            last_rate_update: 0,
            next_free: 0,
        }
    }

    /// Current sending rate in Gbps.
    pub fn rate_gbps(&self) -> f64 {
        self.rc
    }

    fn increase(&mut self) {
        let stage = self.t_iter.max(self.b_iter);
        if stage < FR_THRESHOLD {
            // Fast recovery: move halfway back toward the target.
        } else if self.t_iter >= FR_THRESHOLD && self.b_iter >= FR_THRESHOLD {
            // Hyper increase.
            self.rt = (self.rt + RHAI_GBPS).min(self.line_rate_gbps);
        } else {
            // Additive increase.
            self.rt = (self.rt + RAI_GBPS).min(self.line_rate_gbps);
        }
        self.rc = ((self.rt + self.rc) / 2.0).min(self.line_rate_gbps);
    }
}

impl CongestionControl for Dcqcn {
    fn on_send(&mut self, now: Nanos, bytes: usize) {
        // Advance the pacing clock by this packet's serialization time at
        // the current rate.
        let tx = (bytes as f64 * 8.0 / self.rc).ceil() as Nanos;
        self.next_free = self.next_free.max(now) + tx;
        self.bytes_since_cut += bytes as u64;
        if self.bytes_since_cut >= BYTE_COUNTER {
            self.bytes_since_cut = 0;
            self.b_iter += 1;
            self.increase();
        }
    }

    fn on_congestion(&mut self, now: Nanos) {
        // Alpha refresh and multiplicative decrease.
        self.alpha = (1.0 - G) * self.alpha + G;
        self.cnp_since_alpha = true;
        self.last_alpha_update = now;
        self.rt = self.rc;
        self.rc = (self.rc * (1.0 - self.alpha / 2.0)).max(MIN_RATE_GBPS);
        self.t_iter = 0;
        self.b_iter = 0;
        self.bytes_since_cut = 0;
        self.last_rate_update = now;
    }

    fn on_ack(&mut self, _now: Nanos, _bytes: u64) {}

    fn awin(&self, _inflight: u64) -> u64 {
        u64::MAX
    }

    fn next_send_time(&self, now: Nanos) -> Nanos {
        self.next_free.max(now)
    }

    fn on_tick(&mut self, now: Nanos) -> Option<Nanos> {
        if now.saturating_sub(self.last_alpha_update) >= ALPHA_TIMER {
            if !self.cnp_since_alpha {
                self.alpha *= 1.0 - G;
            }
            self.cnp_since_alpha = false;
            self.last_alpha_update = now;
        }
        if now.saturating_sub(self.last_rate_update) >= RATE_TIMER {
            self.t_iter += 1;
            self.increase();
            self.last_rate_update = now;
        }
        Some(now + ALPHA_TIMER.min(RATE_TIMER))
    }

    fn reset(&mut self) {
        *self = Dcqcn::new(self.line_rate_gbps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_line_rate() {
        let d = Dcqcn::new(100.0);
        assert_eq!(d.rate_gbps(), 100.0);
        assert_eq!(d.next_send_time(1234), 1234);
    }

    #[test]
    fn cnp_cuts_rate_multiplicatively() {
        let mut d = Dcqcn::new(100.0);
        d.on_congestion(1000);
        // alpha = 1 after refresh from initial 1.0 → cut by α/2 = 0.5.
        assert!(d.rate_gbps() < 100.0);
        let r1 = d.rate_gbps();
        d.on_congestion(2000);
        assert!(d.rate_gbps() < r1);
    }

    #[test]
    fn rate_recovers_via_ticks() {
        let mut d = Dcqcn::new(100.0);
        d.on_congestion(0);
        let cut = d.rate_gbps();
        let mut now = 0;
        for _ in 0..200 {
            now += 55 * US;
            d.on_tick(now);
        }
        assert!(d.rate_gbps() > cut, "rate must climb back");
        assert!(d.rate_gbps() <= 100.0, "never exceeds line rate");
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut d = Dcqcn::new(100.0);
        d.on_congestion(0);
        let mut now = 0;
        for _ in 0..100 {
            now += 55 * US;
            d.on_tick(now);
        }
        // After decay, a new CNP cuts much less than α=1 would.
        let before = d.rate_gbps();
        d.on_congestion(now);
        assert!(d.rate_gbps() > before * 0.5, "decayed alpha means gentler cut");
    }

    #[test]
    fn pacing_spaces_packets_at_current_rate() {
        let mut d = Dcqcn::new(100.0);
        d.on_send(0, 1024);
        // 1 KB at 100 Gbps ≈ 82 ns.
        assert_eq!(d.next_send_time(0), 82);
        d.on_congestion(100); // cut to ~50
        d.on_send(100, 1024);
        let gap = d.next_send_time(100) - 100;
        assert!(gap > 120, "paced slower after cut, got {gap}");
    }

    #[test]
    fn rate_never_below_floor() {
        let mut d = Dcqcn::new(100.0);
        for i in 0..1000 {
            d.on_congestion(i * 1000);
        }
        assert!(d.rate_gbps() >= 0.1);
    }
}
