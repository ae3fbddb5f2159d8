//! Recovery metrics: how fast the transport notices and heals a fault.
//!
//! [`RecoveryTracker`] is a passive [`Probe`] (install alongside others via
//! `Fanout`) that watches the event stream for `Fault`/`FaultCleared`
//! markers, the first retransmission after a fault (detection latency) and
//! time-binned delivery goodput (restoration latency). It is a shared
//! handle: keep a clone outside the simulator and read the metrics after
//! the run. A probe installed alone can be read back through
//! `Simulator::probe_mut` and downcast, but one inside a `Fanout` cannot
//! be reached again, and a recovery tracker usually rides in one.

use dcp_netsim::Nanos;
use dcp_telemetry::{Probe, ProbeEvent};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct State {
    bin_ns: Nanos,
    /// Delivered goodput bytes per `bin_ns` window, indexed by `now / bin_ns`.
    bins: Vec<u64>,
    first_fault_at: Option<Nanos>,
    last_clear_at: Option<Nanos>,
    first_retx_after_fault: Option<Nanos>,
}

/// Shared-handle probe measuring time-to-first-retransmit and
/// goodput-recovery time around injected faults.
#[derive(Debug, Clone)]
pub struct RecoveryTracker {
    state: Arc<Mutex<State>>,
}

impl RecoveryTracker {
    /// `bin_ns` is the goodput histogram resolution (e.g. `100 * US`);
    /// recovery time is quantized to it.
    pub fn new(bin_ns: Nanos) -> Self {
        assert!(bin_ns > 0, "bin width must be positive");
        RecoveryTracker { state: Arc::new(Mutex::new(State { bin_ns, ..State::default() })) }
    }

    /// The probe half to install on the simulator (possibly inside a
    /// `Fanout`); metrics stay readable through `self`.
    pub fn probe(&self) -> Box<dyn Probe> {
        Box::new(RecoveryProbe { state: Arc::clone(&self.state) })
    }

    /// When the first fault fired, if any did.
    pub fn fault_at(&self) -> Option<Nanos> {
        self.state.lock().unwrap().first_fault_at
    }

    /// When the last fault cleared, if any did.
    pub fn cleared_at(&self) -> Option<Nanos> {
        self.state.lock().unwrap().last_clear_at
    }

    /// Latency from the first fault to the transport's first
    /// retransmission — how long loss detection took under the fault.
    pub fn time_to_first_retx(&self) -> Option<Nanos> {
        let s = self.state.lock().unwrap();
        Some(s.first_retx_after_fault? - s.first_fault_at?)
    }

    /// Latency from the last `FaultCleared` until delivered goodput first
    /// sustains `frac` of its pre-fault baseline (mean bin over the window
    /// before the fault). `None` when there was no fault, no pre-fault
    /// baseline, or goodput never recovered.
    ///
    /// Within the first qualifying bin the recovery instant is
    /// interpolated assuming uniform delivery: a bin that accumulated `b ≥
    /// threshold` bytes crossed the threshold `bin_ns · threshold / b` into
    /// the bin. Without this, every transport that heals within one bin of
    /// the clear reports the identical quantized figure and the metric
    /// can't rank them.
    pub fn goodput_recovery_time(&self, frac: f64) -> Option<Nanos> {
        let s = self.state.lock().unwrap();
        let fault_bin = (s.first_fault_at? / s.bin_ns) as usize;
        let clear = s.last_clear_at?;
        if fault_bin == 0 {
            return None; // No pre-fault window to baseline against.
        }
        let baseline =
            s.bins[..fault_bin.min(s.bins.len())].iter().sum::<u64>() as f64 / fault_bin as f64;
        if baseline <= 0.0 {
            return None;
        }
        let clear_bin = (clear / s.bin_ns) as usize;
        // First bin strictly after the clear instant's bin, so a partially
        // faulted bin can't count as recovered.
        let threshold = frac * baseline;
        for (i, &b) in s.bins.iter().enumerate().skip(clear_bin + 1) {
            if b as f64 >= threshold {
                let within = (s.bin_ns as f64 * threshold / b as f64) as Nanos;
                return Some((i as Nanos) * s.bin_ns + within.min(s.bin_ns) - clear);
            }
        }
        None
    }

    /// Total time delivered goodput sat below `frac` of its pre-fault
    /// baseline, from the first fault to the last delivery — the integral
    /// form of recovery. [`RecoveryTracker::goodput_recovery_time`] times
    /// the first post-clear return to baseline and so quantizes to one bin
    /// for any transport that heals quickly; this metric instead charges
    /// every depressed bin, so a transport that rides *through* the fault
    /// (zero-RTT erasure repair) scores near zero while one that stalls
    /// and heals by RTO pays for the whole outage. `None` when there was
    /// no fault or no pre-fault baseline.
    pub fn degraded_time(&self, frac: f64) -> Option<Nanos> {
        let s = self.state.lock().unwrap();
        let fault_bin = (s.first_fault_at? / s.bin_ns) as usize;
        if fault_bin == 0 {
            return None; // No pre-fault window to baseline against.
        }
        let baseline =
            s.bins[..fault_bin.min(s.bins.len())].iter().sum::<u64>() as f64 / fault_bin as f64;
        if baseline <= 0.0 {
            return None;
        }
        // Trailing empty bins are the run winding down, not the fault.
        let last = s.bins.iter().rposition(|&b| b > 0)?;
        if last < fault_bin {
            return Some(0);
        }
        let depressed = s.bins[fault_bin..=last].iter().filter(|&&b| (b as f64) < frac * baseline);
        Some(depressed.count() as Nanos * s.bin_ns)
    }

    /// Total delivered bytes seen (sanity hook for tests).
    pub fn delivered_bytes(&self) -> u64 {
        self.state.lock().unwrap().bins.iter().sum()
    }
}

struct RecoveryProbe {
    state: Arc<Mutex<State>>,
}

impl Probe for RecoveryProbe {
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        let mut s = self.state.lock().unwrap();
        match ev {
            ProbeEvent::Fault { .. } if s.first_fault_at.is_none() => {
                s.first_fault_at = Some(at);
            }
            ProbeEvent::FaultCleared { .. } => s.last_clear_at = Some(at),
            ProbeEvent::Retx { .. }
                if s.first_fault_at.is_some() && s.first_retx_after_fault.is_none() =>
            {
                s.first_retx_after_fault = Some(at);
            }
            ProbeEvent::Delivery { bytes, .. } => {
                let ix = (at / s.bin_ns) as usize;
                if s.bins.len() <= ix {
                    s.bins.resize(ix + 1, 0);
                }
                s.bins[ix] += *bytes;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_telemetry::{FaultKind, RetxCause};

    fn feed(tracker: &RecoveryTracker, events: &[(u64, ProbeEvent)]) {
        let mut probe = tracker.probe();
        for (at, ev) in events {
            probe.record(*at, ev);
        }
    }

    fn delivery(bytes: u64) -> ProbeEvent {
        ProbeEvent::Delivery { node: 0, flow: 0, wr_id: 0, bytes }
    }

    #[test]
    fn detects_first_retx_after_fault() {
        let t = RecoveryTracker::new(100);
        feed(
            &t,
            &[
                (
                    50,
                    ProbeEvent::Retx {
                        node: 0,
                        flow: 0,
                        psn: 1,
                        bytes: 1000,
                        cause: RetxCause::Timeout,
                    },
                ), // pre-fault: ignored
                (200, ProbeEvent::Fault { node: 8, port: 4, kind: FaultKind::Link }),
                (
                    450,
                    ProbeEvent::Retx {
                        node: 0,
                        flow: 0,
                        psn: 2,
                        bytes: 1000,
                        cause: RetxCause::Timeout,
                    },
                ),
                (
                    500,
                    ProbeEvent::Retx {
                        node: 0,
                        flow: 0,
                        psn: 3,
                        bytes: 1000,
                        cause: RetxCause::Timeout,
                    },
                ),
            ],
        );
        assert_eq!(t.fault_at(), Some(200));
        assert_eq!(t.time_to_first_retx(), Some(250));
    }

    #[test]
    fn goodput_recovery_measures_against_pre_fault_baseline() {
        let t = RecoveryTracker::new(100);
        let mut events = Vec::new();
        // Bins 0..5: healthy 1000 B/bin baseline.
        for b in 0..5u64 {
            events.push((b * 100 + 10, delivery(1000)));
        }
        events.push((500, ProbeEvent::Fault { node: 8, port: 4, kind: FaultKind::Link }));
        // Bins 5..8: starved.
        events.push((710, delivery(10)));
        events.push((800, ProbeEvent::FaultCleared { node: 8, port: 4, kind: FaultKind::Link }));
        // Bin 9 recovers to 90% of baseline; bin 10 full.
        events.push((910, delivery(900)));
        events.push((1010, delivery(1000)));
        feed(&t, &events);
        assert_eq!(t.cleared_at(), Some(800));
        // 80% threshold first met in bin 9 (900 B ≥ 800 B), crossed
        // 100·800/900 = 88 ns into the bin ⇒ 900 + 88 − 800 = 188 ns.
        assert_eq!(t.goodput_recovery_time(0.8), Some(188));
        // 100% threshold not met until bin 10, crossed exactly at its end.
        assert_eq!(t.goodput_recovery_time(1.0), Some(300));
        assert_eq!(t.delivered_bytes(), 5000 + 10 + 900 + 1000);
    }

    #[test]
    fn goodput_recovery_separates_within_bin_speeds() {
        // Two transports both qualify in the bin right after the clear;
        // the faster one (more bytes in that bin) must score lower. Before
        // interpolation both collapsed to the same quantized figure.
        let run = |recovered_bytes: u64| {
            let t = RecoveryTracker::new(100);
            let mut events = Vec::new();
            for b in 0..5u64 {
                events.push((b * 100 + 10, delivery(1000)));
            }
            events.push((500, ProbeEvent::Fault { node: 8, port: 4, kind: FaultKind::Link }));
            events
                .push((590, ProbeEvent::FaultCleared { node: 8, port: 4, kind: FaultKind::Link }));
            events.push((610, delivery(recovered_bytes)));
            feed(&t, &events);
            t.goodput_recovery_time(0.8).expect("both recover in bin 6")
        };
        let fast = run(1600); // crossed 800 B at 50 ns into the bin
        let slow = run(800); // needed the whole bin
        assert_eq!(fast, 600 + 50 - 590);
        assert_eq!(slow, 600 + 100 - 590);
        assert!(fast < slow);
    }

    #[test]
    fn degraded_time_charges_every_depressed_bin() {
        let t = RecoveryTracker::new(100);
        let mut events = Vec::new();
        // Bins 0..5: healthy 1000 B/bin baseline.
        for b in 0..5u64 {
            events.push((b * 100 + 10, delivery(1000)));
        }
        events.push((500, ProbeEvent::Fault { node: 8, port: 4, kind: FaultKind::Link }));
        // Bins 5,6 starved, bin 7 partially back, bins 8,9 healthy, then
        // the run winds down (trailing emptiness is not degradation).
        events.push((610, delivery(10)));
        events.push((710, delivery(700)));
        events.push((810, delivery(1000)));
        events.push((910, delivery(1000)));
        feed(&t, &events);
        // At 80%: bins 5 (0 B — nothing recorded), 6 (10 B) and 7 (700 B)
        // are below 800 B ⇒ 3 bins × 100 ns.
        assert_eq!(t.degraded_time(0.8), Some(300));
        // At 50%: bin 7's 700 B clears the bar ⇒ 2 bins.
        assert_eq!(t.degraded_time(0.5), Some(200));
        // A transport that rides through the fault scores zero.
        let t2 = RecoveryTracker::new(100);
        let mut events = Vec::new();
        for b in 0..8u64 {
            events.push((b * 100 + 10, delivery(1000)));
        }
        events.push((500, ProbeEvent::Fault { node: 8, port: 4, kind: FaultKind::Link }));
        feed(&t2, &events);
        assert_eq!(t2.degraded_time(0.8), Some(0));
        // No fault ⇒ no figure.
        let t3 = RecoveryTracker::new(100);
        feed(&t3, &[(10, delivery(1000))]);
        assert_eq!(t3.degraded_time(0.8), None);
    }

    #[test]
    fn no_fault_or_no_recovery_yields_none() {
        let t = RecoveryTracker::new(100);
        feed(&t, &[(10, delivery(1000))]);
        assert_eq!(t.time_to_first_retx(), None);
        assert_eq!(t.goodput_recovery_time(0.8), None);

        // Fault that never clears → no recovery figure.
        let t = RecoveryTracker::new(100);
        feed(
            &t,
            &[
                (10, delivery(1000)),
                (150, ProbeEvent::Fault { node: 1, port: 0, kind: FaultKind::Switch }),
            ],
        );
        assert_eq!(t.goodput_recovery_time(0.8), None);
    }
}
