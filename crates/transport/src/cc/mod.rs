//! Congestion control, decoupled from reliability exactly as the paper
//! requires ("DCP's retransmission and CC modules are designed to operate
//! in a decoupled manner", §3).
//!
//! Two families are provided:
//! * [`StaticWindow`] — the BDP-bounded flow control IRN uses (§6.2 "IRN
//!   only employs a BDP-based flow control");
//! * [`Dcqcn`] — the reference rate-based scheme the paper integrates
//!   (§6.3 "we integrate DCQCN into DCP and IRN").
//!
//! Transports talk to CC through the [`CongestionControl`] trait: a byte
//! window gate (`awin`), a pacing gate (`next_send_time`) and event
//! callbacks. A scheme uses whichever gates apply and leaves the others
//! permissive.

mod dcqcn;

pub use dcqcn::Dcqcn;

use dcp_netsim::time::Nanos;

/// The interface between a transport's Tx path and its CC module.
pub trait CongestionControl: Send {
    /// A data packet of `bytes` left the NIC.
    fn on_send(&mut self, now: Nanos, bytes: usize);

    /// A congestion notification arrived (CNP, or an ECN-echoing ACK).
    fn on_congestion(&mut self, now: Nanos);

    /// An acknowledgment for `bytes` of new data arrived.
    fn on_ack(&mut self, now: Nanos, bytes: u64);

    /// Bytes the transport may currently have in flight beyond `inflight`.
    /// Window-based schemes bound this; rate-based schemes return `u64::MAX`.
    fn awin(&self, inflight: u64) -> u64;

    /// Earliest time the next packet may be put on the wire. Rate-based
    /// schemes pace here; window-based schemes return `now`.
    fn next_send_time(&self, now: Nanos) -> Nanos;

    /// Periodic update hook; returns the next time it wants to be called,
    /// or `None` if it needs no timer.
    fn on_tick(&mut self, now: Nanos) -> Option<Nanos>;

    /// Returns the scheme to its initial state (fresh connection on the
    /// endpoint-recycling path). Stateless schemes keep the no-op default.
    fn reset(&mut self) {}
}

/// BDP-bounded static window: at most `window_bytes` outstanding.
#[derive(Debug, Clone, Copy)]
pub struct StaticWindow {
    pub window_bytes: u64,
}

impl StaticWindow {
    /// Window sized to one bandwidth-delay product.
    pub fn bdp(gbps: f64, rtt: Nanos) -> Self {
        StaticWindow { window_bytes: dcp_netsim::time::bdp_bytes(gbps, rtt).max(1) }
    }
}

impl CongestionControl for StaticWindow {
    fn on_send(&mut self, _now: Nanos, _bytes: usize) {}
    fn on_congestion(&mut self, _now: Nanos) {}
    fn on_ack(&mut self, _now: Nanos, _bytes: u64) {}

    fn awin(&self, inflight: u64) -> u64 {
        self.window_bytes.saturating_sub(inflight)
    }

    fn next_send_time(&self, now: Nanos) -> Nanos {
        now
    }

    fn on_tick(&mut self, _now: Nanos) -> Option<Nanos> {
        None
    }
}

/// No congestion control at all (the paper's "DCP alone" configuration in
/// §6.3): only a large safety window to bound sender state.
#[derive(Debug, Clone, Copy)]
pub struct NoCc {
    pub cap_bytes: u64,
}

impl Default for NoCc {
    fn default() -> Self {
        // Large enough to never bind on intra-DC paths.
        NoCc { cap_bytes: 4 << 20 }
    }
}

impl CongestionControl for NoCc {
    fn on_send(&mut self, _now: Nanos, _bytes: usize) {}
    fn on_congestion(&mut self, _now: Nanos) {}
    fn on_ack(&mut self, _now: Nanos, _bytes: u64) {}

    fn awin(&self, inflight: u64) -> u64 {
        self.cap_bytes.saturating_sub(inflight)
    }

    fn next_send_time(&self, now: Nanos) -> Nanos {
        now
    }

    fn on_tick(&mut self, _now: Nanos) -> Option<Nanos> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_window_bounds_inflight() {
        let w = StaticWindow { window_bytes: 10_000 };
        assert_eq!(w.awin(0), 10_000);
        assert_eq!(w.awin(9_000), 1_000);
        assert_eq!(w.awin(20_000), 0);
    }

    #[test]
    fn bdp_window_matches_link() {
        // 100 Gbps, 8 µs RTT → 100 KB.
        let w = StaticWindow::bdp(100.0, 8 * dcp_netsim::time::US);
        assert_eq!(w.window_bytes, 100_000);
    }

    #[test]
    fn no_cc_is_permissive() {
        let c = NoCc::default();
        assert!(c.awin(1 << 20) > 0);
        assert_eq!(c.next_send_time(55), 55);
    }
}
