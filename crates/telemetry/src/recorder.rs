//! The flight recorder: a bounded ring of the most recent events.
//!
//! The recorder is what turns a silent hang into a diagnosis: when
//! `run_to_quiescence` misses its deadline or a conservation invariant
//! trips, the simulator dumps the ring — the last few thousand packet
//! events leading up to the stall — instead of leaving only a boolean.

use crate::probe::{EventKind, Probe, ProbeEvent};

/// Default ring capacity: enough to cover several RTTs of a saturated
/// 100G link without costing noticeable memory (events are ~32 B).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Bounded ring buffer of recent `(time, event)` pairs with per-kind
/// lifetime counters.
pub struct FlightRecorder {
    ring: Vec<(u64, ProbeEvent)>,
    /// Next slot to overwrite.
    head: usize,
    /// Events ever recorded (≥ ring length).
    total: u64,
    counts: [u64; EventKind::COUNT],
    capacity: usize,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs at least one slot");
        FlightRecorder {
            ring: Vec::with_capacity(capacity.min(DEFAULT_CAPACITY)),
            head: 0,
            total: 0,
            counts: [0; EventKind::COUNT],
            capacity,
        }
    }

    /// Events ever recorded (not bounded by capacity).
    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<(u64, ProbeEvent)> {
        let mut out = Vec::with_capacity(self.ring.len());
        if self.ring.len() == self.capacity {
            out.extend_from_slice(&self.ring[self.head..]);
        }
        out.extend_from_slice(&self.ring[..self.head.min(self.ring.len())]);
        out
    }

    /// The most recent retained event, if any.
    pub fn last(&self) -> Option<(u64, ProbeEvent)> {
        self.recent().last().copied()
    }
}

impl Probe for FlightRecorder {
    #[inline]
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        self.total += 1;
        self.counts[ev.kind() as usize] += 1;
        if self.ring.len() < self.capacity {
            self.ring.push((at, *ev));
            self.head = self.ring.len() % self.capacity;
        } else {
            self.ring[self.head] = (at, *ev);
            self.head = (self.head + 1) % self.capacity;
        }
    }

    fn dump(&self) -> Option<String> {
        let recent = self.recent();
        let mut s = format!(
            "flight recorder: {} events recorded, last {} retained\n",
            self.total,
            recent.len()
        );
        s.push_str("lifetime counts:");
        for k in EventKind::ALL {
            if self.counts[k as usize] > 0 {
                s.push_str(&format!(" {}={}", k.name(), self.counts[k as usize]));
            }
        }
        s.push('\n');
        for (at, ev) in recent {
            s.push_str(&format!("  t={at:<14} {ev:?}\n"));
        }
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(flow: u32) -> ProbeEvent {
        ProbeEvent::Timeout { node: 0, flow }
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10u32 {
            r.record(i as u64, &ev(i));
        }
        assert_eq!(r.total(), 10);
        let recent = r.recent();
        assert_eq!(recent.len(), 4);
        let ats: Vec<u64> = recent.iter().map(|&(at, _)| at).collect();
        assert_eq!(ats, vec![6, 7, 8, 9], "oldest→newest of the last 4");
        assert_eq!(r.last().unwrap().0, 9);
        assert_eq!(r.count(EventKind::Timeout), 10);
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut r = FlightRecorder::new(100);
        for i in 0..5u32 {
            r.record(i as u64, &ev(i));
        }
        assert_eq!(r.recent().len(), 5);
        assert_eq!(r.recent()[0].0, 0);
    }

    #[test]
    fn dump_mentions_counts_and_events() {
        let mut r = FlightRecorder::new(8);
        r.record(42, &ev(7));
        let d = r.dump().unwrap();
        assert!(d.contains("timeout=1"), "{d}");
        assert!(d.contains("t=42"), "{d}");
    }
}
