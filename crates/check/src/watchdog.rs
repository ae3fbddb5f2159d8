//! Liveness: bounded no-forward-progress detection and PFC deadlock
//! discovery.
//!
//! A deterministic simulator cannot "time out" in wall-clock terms, so
//! hangs historically surfaced as a test harness giving up — with no
//! diagnosis. The [`Watchdog`] replaces that with a *virtual-time* bound:
//! if `STALL_AFTER` nanoseconds pass with work outstanding and not one new
//! byte delivered, the run is declared stuck. The classification matters:
//!
//! * **Stall** — delivery frozen and the transport silent: a blackhole, a
//!   lost wakeup, a dead timer.
//! * **Livelock** — delivery frozen while the retransmit counter keeps
//!   advancing: the transport is busy accomplishing nothing. This is the
//!   exact shape of the RACK-TLP probe→dup-ACK bug (DESIGN.md Finding 5),
//!   where every probe elicits an ACK that restarts the timers that
//!   scheduled the probe.
//!
//! The companion [`pfc_deadlock_cycle`] asks the other liveness question —
//! not "is the transport stuck?" but "is the *fabric* stuck?": a cycle in
//! the pause-dependency graph ([`Simulator::pause_edges`]) is a PFC
//! deadlock, unrecoverable by any endpoint behaviour. Lossless fabrics
//! trade loss for exactly this hazard; detecting it mechanically is what
//! lets the CLOS-with-a-ring scenario in the integration tests prove the
//! hazard is real rather than folklore.

use dcp_netsim::{Nanos, NodeId, Simulator, MS};
use dcp_telemetry::{Probe, ProbeEvent};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Virtual nanoseconds without a delivered byte (while work is
/// outstanding) before the run is declared stuck.
const STALL_AFTER: Nanos = 5 * MS;

/// Minimum retransmissions inside the stalled window for the verdict to be
/// `Livelock` rather than `Stall` — a couple of stray retx around the
/// freeze point should not masquerade as active spinning.
const LIVELOCK_RETX: u64 = 8;

/// The watchdog's verdict at a check point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Liveness {
    /// Progressing (or nothing outstanding).
    Ok,
    /// No delivered byte for `stalled_for` ns with `outstanding` messages
    /// pending, and the transport idle.
    Stall { stalled_for: Nanos, outstanding: u64 },
    /// Same freeze, but `retx` retransmissions fired inside the window —
    /// busy-wait at the protocol level.
    Livelock { stalled_for: Nanos, retx: u64, outstanding: u64 },
}

#[derive(Debug, Default)]
struct State {
    last_delivery: Nanos,
    retx_since_delivery: u64,
}

/// Shared-handle liveness watchdog. Install [`Watchdog::probe`] (inside a
/// `Fanout` with a flight recorder, so a trip has a story to dump) and call
/// [`Watchdog::check`] periodically from the driving loop.
#[derive(Debug, Clone, Default)]
pub struct Watchdog {
    state: Arc<Mutex<State>>,
}

impl Watchdog {
    pub fn new() -> Self {
        Watchdog::default()
    }

    /// The probe half to install on the simulator.
    pub fn probe(&self) -> Box<dyn Probe> {
        Box::new(WatchdogProbe { state: Arc::clone(&self.state) })
    }

    /// Verdict at virtual time `now` with `outstanding` posted-but-
    /// undelivered messages (from the delivery oracle). The progress clock
    /// starts at t=0, so a run that never delivers anything trips once
    /// `STALL_AFTER` passes.
    pub fn check(&self, now: Nanos, outstanding: u64) -> Liveness {
        if outstanding == 0 {
            return Liveness::Ok;
        }
        let s = self.state.lock().unwrap();
        let stalled_for = now.saturating_sub(s.last_delivery);
        if stalled_for < STALL_AFTER {
            return Liveness::Ok;
        }
        if s.retx_since_delivery >= LIVELOCK_RETX {
            Liveness::Livelock { stalled_for, retx: s.retx_since_delivery, outstanding }
        } else {
            Liveness::Stall { stalled_for, outstanding }
        }
    }

    /// Renders a tripped verdict with the simulator's flight-recorder dump
    /// (when one is installed) — the "what was the fabric doing" attachment
    /// for a bug report.
    pub fn report(&self, verdict: &Liveness, sim: &Simulator) -> String {
        let mut out = format!("liveness watchdog tripped at t={} ns: {verdict:?}", sim.now());
        if let Some(dump) = sim.flight_dump() {
            out.push('\n');
            out.push_str(&dump);
        }
        out
    }
}

struct WatchdogProbe {
    state: Arc<Mutex<State>>,
}

impl Probe for WatchdogProbe {
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        match ev {
            ProbeEvent::Delivery { .. } => {
                let mut s = self.state.lock().unwrap();
                s.last_delivery = at;
                s.retx_since_delivery = 0;
            }
            ProbeEvent::Retx { .. } => {
                self.state.lock().unwrap().retx_since_delivery += 1;
            }
            _ => {}
        }
    }
}

/// Finds a cycle in the PFC pause-dependency graph, if one exists: the
/// returned switches each wait on the next (the last waits on the first).
/// Edge `(u, s)` from [`Simulator::pause_edges`] means `s` has PAUSEd
/// upstream peer `u` — so a cycle is a ring of switches none of which can
/// drain until another does: a PFC deadlock. Deterministic: the DFS visits
/// nodes in the order `pause_edges` reports them.
pub fn pfc_deadlock_cycle(sim: &Simulator) -> Option<Vec<NodeId>> {
    let edges = sim.pause_edges();
    let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut roots: Vec<u32> = Vec::new();
    for (blocked, blocker) in &edges {
        adj.entry(blocked.0).or_default().push(blocker.0);
        if !roots.contains(&blocked.0) {
            roots.push(blocked.0);
        }
    }
    // Iterative three-colour DFS: 1 = on the current path, 2 = finished.
    let mut colour: HashMap<u32, u8> = HashMap::new();
    for &root in &roots {
        if colour.contains_key(&root) {
            continue;
        }
        let mut path: Vec<u32> = Vec::new();
        // (node, next child index to try)
        let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
        colour.insert(root, 1);
        path.push(root);
        while let Some(top) = stack.len().checked_sub(1) {
            let (node, next) = stack[top];
            let children = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if next < children.len() {
                let child = children[next];
                stack[top].1 += 1;
                match colour.get(&child) {
                    Some(1) => {
                        // Back edge: the cycle is the path suffix from
                        // `child` onward.
                        let start = path.iter().position(|&n| n == child).unwrap();
                        return Some(path[start..].iter().map(|&n| NodeId(n)).collect());
                    }
                    Some(_) => {}
                    None => {
                        colour.insert(child, 1);
                        path.push(child);
                        stack.push((child, 0));
                    }
                }
            } else {
                colour.insert(node, 2);
                path.pop();
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_netsim::US;

    fn delivery(at: u64, p: &mut Box<dyn Probe>) {
        p.record(at, &ProbeEvent::Delivery { node: 1, flow: 0, wr_id: 0, bytes: 1024 });
    }

    fn retx(at: u64, p: &mut Box<dyn Probe>) {
        p.record(
            at,
            &ProbeEvent::Retx {
                node: 0,
                flow: 0,
                psn: 7,
                bytes: 1024,
                cause: dcp_telemetry::RetxCause::Timeout,
            },
        );
    }

    #[test]
    fn progressing_run_stays_ok() {
        let wd = Watchdog::new();
        let mut p = wd.probe();
        for i in 0..10 {
            delivery(i * MS, &mut p);
        }
        assert_eq!(wd.check(9 * MS + 100 * US, 5), Liveness::Ok);
    }

    #[test]
    fn silence_with_outstanding_work_is_a_stall() {
        let wd = Watchdog::new();
        let mut p = wd.probe();
        delivery(MS, &mut p);
        assert_eq!(wd.check(7 * MS, 3), Liveness::Stall { stalled_for: 6 * MS, outstanding: 3 });
        // ... but not when nothing is outstanding.
        assert_eq!(wd.check(7 * MS, 0), Liveness::Ok);
    }

    #[test]
    fn retx_churn_without_delivery_is_a_livelock() {
        let wd = Watchdog::new();
        let mut p = wd.probe();
        delivery(MS, &mut p);
        for i in 0..20 {
            retx(MS + (i + 1) * 100 * US, &mut p);
        }
        assert_eq!(
            wd.check(7 * MS, 1),
            Liveness::Livelock { stalled_for: 6 * MS, retx: 20, outstanding: 1 }
        );
        // A delivery resets both the clock and the retx tally.
        delivery(8 * MS, &mut p);
        assert_eq!(wd.check(9 * MS, 1), Liveness::Ok);
    }

    #[test]
    fn sparse_retx_classifies_as_stall_not_livelock() {
        let wd = Watchdog::new();
        let mut p = wd.probe();
        delivery(MS, &mut p);
        retx(2 * MS, &mut p);
        assert!(matches!(wd.check(10 * MS, 1), Liveness::Stall { .. }));
    }
}
