//! The flight recorder: a bounded ring of the most recent events, plus
//! the capture — [`EventLog`], every event as a 16-byte packed record.
//!
//! The recorder is what turns a silent hang into a diagnosis: when
//! `run_to_quiescence` misses its deadline or a conservation invariant
//! trips, the simulator dumps the ring — the last few thousand packet
//! events leading up to the stall — instead of leaving only a boolean.

use crate::probe::{DropClass, EventKind, FaultKind, Probe, ProbeEvent, QueueClass, RetxCause};

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

/// Capture chunk size: 4 Ki records = 64 KB per chunk. Chunking means a
/// long run grows by appending chunks instead of doubling one giant `Vec`
/// (growth never re-copies captured events), and 64 KB stays under glibc's
/// mmap threshold so freed chunks return to the arena and later captures
/// reuse already-faulted pages instead of paying fresh page faults.
pub const CHUNK: usize = 1 << 12;

/// Packed capture record: two words instead of the 40-byte
/// `(u64, ProbeEvent)` tuple, which cuts the hot-path store traffic (and
/// the page faults behind it) by more than half — measured ~19 ns → ~8 ns
/// per recorded event.
///
/// Word 0: `tag(5) | node(19) | at(40)` where `tag` is `EventKind + 1`
/// (0 marks an escape record). Word 1 is per-kind bit-packed fields; see
/// [`pack`]. Events whose fields overflow a lane (sim time ≥ 2^40 ns,
/// node ≥ 2^19, flow ≥ 2^18, psn ≥ 2^24, packet bytes ≥ 2^12, …) escape
/// verbatim to a side buffer, with word 1 holding the side index — rare
/// by construction, free to store.
type Packed = (u64, u64);

const TAG_BITS: u64 = 5;
const NODE_SHIFT: u64 = TAG_BITS;
const AT_SHIFT: u64 = 24;

/// Bit-packs one event, or `None` when a field overflows its lane.
#[inline]
fn pack(at: u64, ev: &ProbeEvent) -> Option<Packed> {
    use ProbeEvent as E;
    let node = ev.node();
    if at >= 1 << 40 || node >= 1 << 19 {
        return None;
    }
    // flow/psn/bytes/port lanes shared by the packet-level kinds.
    let fppb = |flow: u32, psn: u32, port: u32, bytes: u32| -> Option<u64> {
        (flow < 1 << 18 && psn < 1 << 24 && port < 1 << 8 && bytes < 1 << 12).then(|| {
            u64::from(flow) | u64::from(psn) << 18 | u64::from(bytes) << 42 | u64::from(port) << 54
        })
    };
    let w1 = match *ev {
        E::Enqueue { port, queue, flow, psn, bytes, .. }
        | E::Dequeue { port, queue, flow, psn, bytes, .. } => {
            fppb(flow, psn, port, bytes)? | (queue as u64) << 62
        }
        E::Trim { port, flow, psn, .. } | E::EcnMark { port, flow, psn, .. } => {
            fppb(flow, psn, port, 0)?
        }
        E::Drop { port, flow, psn, class, .. } => fppb(flow, psn, port, 0)? | (class as u64) << 42,
        E::Tx { flow, psn, bytes, .. } => fppb(flow, psn, 0, bytes)?,
        E::Retx { flow, psn, bytes, cause, .. } => {
            fppb(flow, psn, 0, bytes)? | (cause as u64) << 54
        }
        E::Timeout { flow, .. } | E::HoReceived { flow, .. } | E::Duplicate { flow, .. } => {
            (flow < 1 << 18).then_some(u64::from(flow))?
        }
        E::MsgPosted { flow, wr_id, bytes, .. } | E::Delivery { flow, wr_id, bytes, .. } => {
            (flow < 1 << 18 && wr_id < 1 << 22 && bytes < 1 << 24)
                .then(|| u64::from(flow) | wr_id << 18 | bytes << 40)?
        }
        E::PfcPause { port, .. } | E::PfcResume { port, .. } => u64::from(port),
        E::Fault { port, kind, .. } | E::FaultCleared { port, kind, .. } => {
            u64::from(port) | (kind as u64) << 32
        }
    };
    let tag = ev.kind() as u64 + 1;
    Some((tag | u64::from(node) << NODE_SHIFT | at << AT_SHIFT, w1))
}

/// Inverse of [`pack`] for non-escape records.
fn unpack(w0: u64, w1: u64) -> (u64, ProbeEvent) {
    use ProbeEvent as E;
    let at = w0 >> AT_SHIFT;
    let node = (w0 >> NODE_SHIFT) as u32 & ((1 << 19) - 1);
    let flow = w1 as u32 & ((1 << 18) - 1);
    let psn = (w1 >> 18) as u32 & ((1 << 24) - 1);
    let bytes = (w1 >> 42) as u32 & ((1 << 12) - 1);
    let port = (w1 >> 54) as u32 & 0xFF;
    let pfc_port = w1 as u32;
    let queue = match w1 >> 62 {
        0 => QueueClass::Data,
        _ => QueueClass::Ctrl,
    };
    let drop_class = match (w1 >> 42) & 0x7 {
        0 => DropClass::Data,
        1 => DropClass::HeaderOnly,
        2 => DropClass::Ack,
        3 => DropClass::Buffer,
        _ => DropClass::Fault,
    };
    let cause = match (w1 >> 54) & 0x7 {
        0 => RetxCause::Unknown,
        1 => RetxCause::Ho,
        2 => RetxCause::Nack,
        3 => RetxCause::Sack,
        4 => RetxCause::Rack,
        5 => RetxCause::DupAck,
        6 => RetxCause::Tlp,
        _ => RetxCause::Timeout,
    };
    let fault_kind = match (w1 >> 32) & 0x7 {
        0 => FaultKind::Link,
        1 => FaultKind::Degrade,
        2 => FaultKind::Switch,
        3 => FaultKind::LossModel,
        _ => FaultKind::PauseStorm,
    };
    let (wr_id, msg_bytes) = ((w1 >> 18) & ((1 << 22) - 1), w1 >> 40);
    let ev = match EventKind::ALL[(w0 & ((1 << TAG_BITS) - 1)) as usize - 1] {
        EventKind::Enqueue => E::Enqueue { node, port, queue, flow, psn, bytes },
        EventKind::Dequeue => E::Dequeue { node, port, queue, flow, psn, bytes },
        EventKind::Trim => E::Trim { node, port, flow, psn },
        EventKind::Drop => E::Drop { node, port, flow, psn, class: drop_class },
        EventKind::EcnMark => E::EcnMark { node, port, flow, psn },
        EventKind::PfcPause => E::PfcPause { node, port: pfc_port },
        EventKind::PfcResume => E::PfcResume { node, port: pfc_port },
        EventKind::Tx => E::Tx { node, flow, psn, bytes },
        EventKind::Retx => E::Retx { node, flow, psn, bytes, cause },
        EventKind::Timeout => E::Timeout { node, flow },
        EventKind::HoReceived => E::HoReceived { node, flow },
        EventKind::Duplicate => E::Duplicate { node, flow },
        EventKind::MsgPosted => E::MsgPosted { node, flow, wr_id, bytes: msg_bytes },
        EventKind::Delivery => E::Delivery { node, flow, wr_id, bytes: msg_bytes },
        EventKind::Fault => E::Fault { node, port: pfc_port, kind: fault_kind },
        EventKind::FaultCleared => E::FaultCleared { node, port: pfc_port, kind: fault_kind },
    };
    (at, ev)
}

/// The one in-memory capture: every event as a [`Packed`] record in a
/// chunk list, up to a cap; backs `--trace-out`, `--spans-out` and the span
/// builder's buffer. [`Probe::record`] only packs and appends; JSONL is a
/// rendering at drain time. Deterministic because the simulation is — a
/// trace is byte-identical across same-seed runs and `DCP_THREADS` settings.
pub struct EventLog {
    chunks: Vec<Vec<Packed>>,
    /// Verbatim storage for events [`pack`] rejected (escape records).
    side: Vec<(u64, ProbeEvent)>,
    /// How far the open (last) chunk may fill: `CHUNK`, or what the cap
    /// leaves. Every chunk before it holds exactly `CHUNK` records.
    fill: usize,
    cap: usize,
    /// Events discarded once `cap` was reached.
    pub truncated: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new(1_000_000)
    }
}

impl EventLog {
    pub fn new(cap: usize) -> Self {
        EventLog { chunks: Vec::new(), side: Vec::new(), fill: 0, cap, truncated: 0 }
    }

    pub fn len(&self) -> usize {
        self.chunks.last().map_or(0, |c| (self.chunks.len() - 1) * CHUNK + c.len())
    }

    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The captured `(time, event)` pairs, in record order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, ProbeEvent)> + '_ {
        self.chunks.iter().flatten().map(|&(w0, w1)| {
            if w0 & ((1 << TAG_BITS) - 1) == 0 {
                self.side[w1 as usize]
            } else {
                unpack(w0, w1)
            }
        })
    }
}

impl Probe for EventLog {
    #[inline]
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        // The cap is only looked at when a chunk fills, so the common path
        // is one compare, a pack and a push.
        if self.chunks.last().is_none_or(|c| c.len() >= self.fill) {
            let room = self.cap - self.len();
            if room == 0 {
                self.truncated += 1;
                return;
            }
            self.fill = room.min(CHUNK);
            self.chunks.push(Vec::with_capacity(self.fill));
        }
        let rec = match pack(at, ev) {
            Some(rec) => rec,
            None => {
                self.side.push((at, *ev));
                (0, (self.side.len() - 1) as u64)
            }
        };
        self.chunks.last_mut().expect("opened above").push(rec);
    }

    fn drain_jsonl(&mut self) -> Vec<String> {
        self.take_log().iter().map(|(at, ev)| ev.to_jsonl(at)).collect()
    }

    /// Moves the whole capture out — records and `truncated` count —
    /// leaving an empty log with the same cap.
    fn take_log(&mut self) -> EventLog {
        std::mem::replace(self, EventLog::new(self.cap))
    }

    fn dropped(&self) -> u64 {
        self.truncated
    }

    fn dump(&self) -> Option<String> {
        Some(format!("event log: {} events ({} truncated)", self.len(), self.truncated))
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

    #[test]
    fn packed_records_roundtrip_every_variant() {
        let q = QueueClass::Ctrl;
        let evs: Vec<ProbeEvent> = vec![
            ProbeEvent::Enqueue { node: 3, port: 200, queue: q, flow: 9, psn: 77, bytes: 4000 },
            ProbeEvent::Dequeue {
                node: 3,
                port: 0,
                queue: QueueClass::Data,
                flow: 9,
                psn: 77,
                bytes: 64,
            },
            ProbeEvent::Trim { node: 1, port: 255, flow: (1 << 18) - 1, psn: (1 << 24) - 1 },
            ProbeEvent::Drop { node: 2, port: 7, flow: 1, psn: 2, class: DropClass::Buffer },
            ProbeEvent::EcnMark { node: 4, port: 1, flow: 5, psn: 6 },
            ProbeEvent::PfcPause { node: 5, port: u32::MAX },
            ProbeEvent::PfcResume { node: 5, port: 0 },
            ProbeEvent::Tx { node: 6, flow: 7, psn: 8, bytes: 1064 },
            ProbeEvent::Retx { node: 6, flow: 7, psn: 8, bytes: 64, cause: RetxCause::Timeout },
            ProbeEvent::Timeout { node: 7, flow: 11 },
            ProbeEvent::HoReceived { node: 8, flow: 12 },
            ProbeEvent::Duplicate { node: 9, flow: 13 },
            ProbeEvent::MsgPosted {
                node: 10,
                flow: 14,
                wr_id: (1 << 22) - 1,
                bytes: (1 << 24) - 1,
            },
            ProbeEvent::Delivery { node: 10, flow: 14, wr_id: 0, bytes: 0 },
            ProbeEvent::Fault { node: 11, port: 3, kind: FaultKind::PauseStorm },
            ProbeEvent::FaultCleared { node: 11, port: 3, kind: FaultKind::Link },
        ];
        for (i, ev) in evs.iter().enumerate() {
            let at = (1 << 40) - 1 - i as u64;
            let (w0, w1) = pack(at, ev).unwrap_or_else(|| panic!("{ev:?} must pack"));
            assert_ne!(w0 & ((1 << TAG_BITS) - 1), 0, "{ev:?} must not look like an escape");
            assert_eq!(unpack(w0, w1), (at, *ev), "{ev:?}");
        }
    }

    #[test]
    fn out_of_range_fields_escape_instead_of_truncating() {
        let huge: Vec<(u64, ProbeEvent)> = vec![
            (1 << 40, ProbeEvent::Timeout { node: 0, flow: 0 }),
            (0, ProbeEvent::Timeout { node: 1 << 19, flow: 0 }),
            (0, ProbeEvent::Timeout { node: 0, flow: 1 << 18 }),
            (0, ProbeEvent::Tx { node: 0, flow: 0, psn: 1 << 24, bytes: 0 }),
            (0, ProbeEvent::Tx { node: 0, flow: 0, psn: 0, bytes: 1 << 12 }),
            (0, ProbeEvent::Trim { node: 0, port: 256, flow: 0, psn: 0 }),
            (0, ProbeEvent::MsgPosted { node: 0, flow: 0, wr_id: 1 << 22, bytes: 0 }),
            (0, ProbeEvent::Delivery { node: 0, flow: 0, wr_id: 0, bytes: 1 << 24 }),
        ];
        let mut log = EventLog::default();
        for (at, ev) in &huge {
            assert!(pack(*at, ev).is_none(), "{ev:?} at {at} must escape");
            log.record(*at, ev);
        }
        // The escape path preserves every event verbatim.
        assert_eq!(log.iter().collect::<Vec<_>>(), huge);
    }

    #[test]
    fn event_log_caps_and_counts_truncation() {
        let mut l = EventLog::new(3);
        for i in 0..5u32 {
            l.record(i as u64, &ev(i));
        }
        assert_eq!(l.len(), 3);
        assert_eq!(l.truncated, 2);
        assert_eq!(l.dropped(), 2);
        assert_eq!(l.iter().map(|(at, _)| at).collect::<Vec<_>>(), [0, 1, 2]);
        let lines = l.drain_jsonl();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"at\":0,"));
        assert!(l.is_empty());
    }
}
