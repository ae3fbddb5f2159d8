//! Always-on anomaly monitors over the probe stream.
//!
//! Each monitor is a [`Probe`] with a narrow [`KindMask`], so a `Fanout`
//! dispatches only the kinds it consumes — and with no monitor installed
//! the hot path pays nothing at all (the `Option<&mut dyn Probe>`
//! discipline the telemetry crate already enforces). Monitors never
//! allocate per event in steady state: rolling windows are bounded
//! deques, per-port state lives in maps keyed by ports that actually saw
//! traffic.
//!
//! All four detectors are *latched*: once a threshold trips the fact is
//! kept (with the trip time) even if the condition later clears, because
//! the consumer is usually a post-run verdict, not a live pager.

use dcp_telemetry::{EventKind, Json, KindMask, LogHistogram, Probe, ProbeEvent, RetxCause};
use std::collections::{BTreeMap, VecDeque};

/// Rolling window of the retransmission-storm detector: 1 ms, sized for
/// the paper's 100G fabrics.
pub const STORM_WINDOW_NS: u64 = 1_000_000;
/// A storm is more than this many retransmissions inside one window.
pub const STORM_THRESHOLD: usize = 256;
/// A pause tree trips at this many distinct nodes pausing at once.
pub const PFC_TREE_NODES: usize = 4;
/// Per-message latency SLO of the burn monitor: 10 ms.
pub const SLO_NS: u64 = 10_000_000;

/// Retransmission-storm detector: trips when more than
/// [`STORM_THRESHOLD`] retransmissions land inside any [`STORM_WINDOW_NS`]
/// rolling window, and keeps a per-cause tally so the verdict names the
/// dominant recovery signal.
#[derive(Default)]
pub struct RetxStormMonitor {
    recent: VecDeque<u64>,
    by_cause: [u64; 8],
    /// Time of the first threshold crossing, if any.
    pub tripped_at: Option<u64>,
    /// Largest retransmission count ever seen inside one window.
    pub peak: usize,
}

impl RetxStormMonitor {
    pub fn tripped(&self) -> bool {
        self.tripped_at.is_some()
    }

    /// Heap bytes held: the rolling window.
    pub fn heap_bytes(&self) -> usize {
        self.recent.capacity() * size_of::<u64>()
    }

    /// The cause with the most retransmissions, for the verdict line.
    pub fn dominant_cause(&self) -> Option<RetxCause> {
        const CAUSES: [RetxCause; 8] = [
            RetxCause::Unknown,
            RetxCause::Ho,
            RetxCause::Nack,
            RetxCause::Sack,
            RetxCause::Rack,
            RetxCause::DupAck,
            RetxCause::Tlp,
            RetxCause::Timeout,
        ];
        CAUSES
            .into_iter()
            .filter(|&c| self.by_cause[c as usize] > 0)
            .max_by_key(|&c| self.by_cause[c as usize])
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("window_ns", STORM_WINDOW_NS)
            .set("threshold", STORM_THRESHOLD)
            .set("peak", self.peak)
            .set("tripped_at", self.tripped_at.map_or(Json::Null, Json::from))
            .set("dominant_cause", self.dominant_cause().map_or(Json::Null, |c| c.name().into()))
    }
}

impl Probe for RetxStormMonitor {
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        let ProbeEvent::Retx { cause, .. } = ev else { return };
        self.by_cause[*cause as usize] += 1;
        self.recent.push_back(at);
        while self.recent.front().is_some_and(|&t| at.saturating_sub(t) > STORM_WINDOW_NS) {
            self.recent.pop_front();
        }
        self.peak = self.peak.max(self.recent.len());
        if self.recent.len() > STORM_THRESHOLD && self.tripped_at.is_none() {
            self.tripped_at = Some(at);
        }
        // Past the threshold the deque only needs enough history to keep
        // detecting; cap it so a sustained storm stays O(threshold).
        while self.recent.len() > STORM_THRESHOLD + 1 {
            self.recent.pop_front();
        }
    }

    fn interest(&self) -> KindMask {
        KindMask::only(EventKind::Retx)
    }

    fn dump(&self) -> Option<String> {
        Some(format!(
            "retx storm: peak {}/{} in {} ns{}",
            self.peak,
            STORM_THRESHOLD,
            STORM_WINDOW_NS,
            match self.tripped_at {
                Some(t) => format!(", TRIPPED at t={t}"),
                None => String::new(),
            }
        ))
    }
}

/// PFC pause-tree monitor: tracks how many ingress ports are concurrently
/// pausing their upstream peer. A growing set is congestion spreading
/// backwards through the fabric — the precursor of the PFC deadlock the
/// check crate's watchdog hunts — so the trip threshold is on the number
/// of *distinct paused nodes* ([`PFC_TREE_NODES`]), not raw PAUSE frames.
#[derive(Default)]
pub struct PfcTreeMonitor {
    /// Currently-paused (node, port) pairs.
    active: BTreeMap<(u32, u32), u64>,
    /// High-water mark of concurrently paused ports / distinct nodes.
    pub max_ports: usize,
    pub max_nodes: usize,
    pub pauses_seen: u64,
    pub tripped_at: Option<u64>,
}

impl PfcTreeMonitor {
    pub fn tripped(&self) -> bool {
        self.tripped_at.is_some()
    }

    /// Heap bytes held: the paused-port set.
    pub fn heap_bytes(&self) -> usize {
        crate::btree_map_bytes::<(u32, u32), u64>(self.active.len())
    }

    fn distinct_nodes(&self) -> usize {
        let mut last = None;
        let mut n = 0;
        for &(node, _) in self.active.keys() {
            if last != Some(node) {
                n += 1;
                last = Some(node);
            }
        }
        n
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("threshold", PFC_TREE_NODES)
            .set("pauses_seen", self.pauses_seen)
            .set("max_ports", self.max_ports)
            .set("max_nodes", self.max_nodes)
            .set("tripped_at", self.tripped_at.map_or(Json::Null, Json::from))
    }
}

impl Probe for PfcTreeMonitor {
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::PfcPause { node, port } => {
                self.pauses_seen += 1;
                self.active.insert((node, port), at);
                self.max_ports = self.max_ports.max(self.active.len());
                let nodes = self.distinct_nodes();
                self.max_nodes = self.max_nodes.max(nodes);
                if nodes >= PFC_TREE_NODES && self.tripped_at.is_none() {
                    self.tripped_at = Some(at);
                }
            }
            ProbeEvent::PfcResume { node, port } => {
                self.active.remove(&(node, port));
            }
            _ => {}
        }
    }

    fn interest(&self) -> KindMask {
        KindMask::of(&[EventKind::PfcPause, EventKind::PfcResume])
    }

    fn dump(&self) -> Option<String> {
        Some(format!(
            "pfc tree: max {} nodes / {} ports paused concurrently ({} pauses)",
            self.max_nodes, self.max_ports, self.pauses_seen
        ))
    }
}

/// Per-port queue-depth high-water tracking from Enqueue/Dequeue byte
/// deltas — the trace-side view of buffer pressure, per `(node, port)`.
///
/// This monitor sits on the two highest-volume event kinds, so the map is
/// a hand-rolled open-addressing hash table (Fibonacci hash, linear
/// probing) keyed by `node << 32 | port` rather than a `BTreeMap` — one
/// multiply and usually one cache line per event instead of a tree
/// descent. Readers sort on demand, so exported output stays in the same
/// key order a sorted map would produce.
#[derive(Default)]
pub struct QueueHighWaterMonitor {
    /// Slot keys (`node << 32 | port`); `EMPTY` marks a free slot. Length
    /// is always a power of two (or zero before the first enqueue).
    keys: Vec<u64>,
    /// (current bytes, high-water bytes) per slot, parallel to `keys`.
    vals: Vec<(u64, u64)>,
    len: usize,
}

const EMPTY: u64 = u64::MAX;
/// 2^64 / φ — Fibonacci hashing spreads sequential (node, port) keys.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl QueueHighWaterMonitor {
    /// The slot holding `key`, or the free slot where it would go.
    /// Requires a non-empty table with at least one free slot.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = (key.wrapping_mul(FIB) >> 33) as usize & mask;
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table (64 slots to start) and re-inserts every entry.
    #[cold]
    fn grow(&mut self) {
        let cap = (self.keys.len() * 2).max(64);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; cap]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = vec![(0, 0); cap];
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                let i = self.slot_of(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }

    /// Sorted `(node, port, high_water)` entries — the map-like view.
    fn entries(&self) -> Vec<(u32, u32, u64)> {
        let mut out: Vec<(u32, u32, u64)> = self
            .keys
            .iter()
            .zip(&self.vals)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &(_, hw))| ((k >> 32) as u32, k as u32, hw))
            .collect();
        out.sort_unstable();
        out
    }

    /// Admits `bytes` to `(node, port)`'s queue and bumps its high-water
    /// mark — the `Enqueue` hot path, callable without a `ProbeEvent`.
    #[inline]
    pub fn enqueue(&mut self, node: u32, port: u32, bytes: u32) {
        debug_assert!(node != u32::MAX || port != u32::MAX);
        // Keep the load factor under 3/4 so probes stay short.
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let key = u64::from(node) << 32 | u64::from(port);
        let i = self.slot_of(key);
        if self.keys[i] == EMPTY {
            self.keys[i] = key;
            self.len += 1;
        }
        let e = &mut self.vals[i];
        e.0 += u64::from(bytes);
        e.1 = e.1.max(e.0);
    }

    /// Drains `bytes` from `(node, port)`'s queue — the `Dequeue` twin.
    #[inline]
    pub fn dequeue(&mut self, node: u32, port: u32, bytes: u32) {
        if self.len == 0 {
            return;
        }
        let key = u64::from(node) << 32 | u64::from(port);
        let i = self.slot_of(key);
        if self.keys[i] == key {
            self.vals[i].0 = self.vals[i].0.saturating_sub(u64::from(bytes));
        }
    }

    /// High-water mark for one port, in bytes.
    pub fn high_water(&self, node: u32, port: u32) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let key = u64::from(node) << 32 | u64::from(port);
        let i = self.slot_of(key);
        if self.keys[i] == key {
            self.vals[i].1
        } else {
            0
        }
    }

    /// Heap bytes held: the open-addressing table.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * size_of::<u64>() + self.vals.capacity() * size_of::<(u64, u64)>()
    }

    /// The deepest queue anywhere, as `(node, port, bytes)`.
    pub fn deepest(&self) -> Option<(u32, u32, u64)> {
        self.entries().into_iter().max_by_key(|&(.., hw)| hw)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.entries()
                .into_iter()
                .map(|(node, port, hw)| {
                    Json::obj()
                        .set("node", u64::from(node))
                        .set("port", u64::from(port))
                        .set("high_water", hw)
                })
                .collect(),
        )
    }
}

impl Probe for QueueHighWaterMonitor {
    #[inline]
    fn record(&mut self, _at: u64, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::Enqueue { node, port, bytes, .. } => self.enqueue(node, port, bytes),
            ProbeEvent::Dequeue { node, port, bytes, .. } => self.dequeue(node, port, bytes),
            _ => {}
        }
    }

    fn interest(&self) -> KindMask {
        KindMask::of(&[EventKind::Enqueue, EventKind::Dequeue])
    }
}

/// Per-flow slowdown SLO burn: message latency (MsgPosted→Delivery) lands
/// in a per-flow [`LogHistogram`]; a delivery slower than [`SLO_NS`] burns
/// budget. `burn_rate()` is the fraction of deliveries over SLO.
#[derive(Default)]
pub struct SloBurnMonitor {
    /// flow → posted-at per wr_id (bounded: entries leave on delivery).
    pending: BTreeMap<(u32, u64), u64>,
    flows: BTreeMap<u32, LogHistogram>,
    pub delivered: u64,
    pub breached: u64,
}

impl SloBurnMonitor {
    /// Heap bytes held: the pending posts and the per-flow histograms.
    pub fn heap_bytes(&self) -> usize {
        crate::btree_map_bytes::<(u32, u64), u64>(self.pending.len())
            + crate::btree_map_bytes::<u32, LogHistogram>(self.flows.len())
            + self.flows.values().map(LogHistogram::heap_bytes).sum::<usize>()
    }

    /// Fraction of deliveries that exceeded the SLO (0.0 when none
    /// delivered).
    pub fn burn_rate(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.breached as f64 / self.delivered as f64
        }
    }

    pub fn to_json(&self) -> Json {
        let flows: Vec<Json> = self
            .flows
            .iter()
            .map(|(&flow, h)| {
                let (p50, p99, p999) = h.p50_p99_p999();
                Json::obj()
                    .set("flow", u64::from(flow))
                    .set("count", h.count())
                    .set("p50", p50)
                    .set("p99", p99)
                    .set("p999", p999)
            })
            .collect();
        Json::obj()
            .set("slo_ns", SLO_NS)
            .set("delivered", self.delivered)
            .set("breached", self.breached)
            .set("burn_rate", self.burn_rate())
            .set("flows", Json::Arr(flows))
    }
}

impl Probe for SloBurnMonitor {
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::MsgPosted { flow, wr_id, .. } => {
                self.pending.entry((flow, wr_id)).or_insert(at);
            }
            ProbeEvent::Delivery { flow, wr_id, .. } => {
                let Some(posted) = self.pending.remove(&(flow, wr_id)) else { return };
                let latency = at.saturating_sub(posted);
                self.delivered += 1;
                if latency > SLO_NS {
                    self.breached += 1;
                }
                self.flows.entry(flow).or_default().record(latency);
            }
            _ => {}
        }
    }

    fn interest(&self) -> KindMask {
        KindMask::of(&[EventKind::MsgPosted, EventKind::Delivery])
    }

    fn dump(&self) -> Option<String> {
        Some(format!(
            "slo burn: {}/{} deliveries over {} ns ({:.1}%)",
            self.breached,
            self.delivered,
            SLO_NS,
            self.burn_rate() * 100.0
        ))
    }
}

/// The standard monitor set, dispatching each event to every member whose
/// mask covers it. Implements [`Probe`] with the union mask so a `Fanout`
/// skips whole kinds nobody wants.
#[derive(Default)]
pub struct Monitors {
    pub retx_storm: RetxStormMonitor,
    pub pfc_tree: PfcTreeMonitor,
    pub queue_high_water: QueueHighWaterMonitor,
    pub slo_burn: SloBurnMonitor,
}

impl Monitors {
    /// Heap bytes held by the four monitors.
    pub fn heap_bytes(&self) -> usize {
        self.retx_storm.heap_bytes()
            + self.pfc_tree.heap_bytes()
            + self.queue_high_water.heap_bytes()
            + self.slo_burn.heap_bytes()
    }

    /// One structured document with every monitor's verdict, embedded in
    /// the span export and `--spans-out`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("retx_storm", self.retx_storm.to_json())
            .set("pfc_tree", self.pfc_tree.to_json())
            .set("queue_high_water", self.queue_high_water.to_json())
            .set("slo_burn", self.slo_burn.to_json())
    }
}

impl Probe for Monitors {
    #[inline]
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        let kind = ev.kind();
        if self.retx_storm.interest().contains(kind) {
            self.retx_storm.record(at, ev);
        }
        if self.pfc_tree.interest().contains(kind) {
            self.pfc_tree.record(at, ev);
        }
        if self.queue_high_water.interest().contains(kind) {
            self.queue_high_water.record(at, ev);
        }
        if self.slo_burn.interest().contains(kind) {
            self.slo_burn.record(at, ev);
        }
    }

    fn interest(&self) -> KindMask {
        self.retx_storm
            .interest()
            .union(self.pfc_tree.interest())
            .union(self.queue_high_water.interest())
            .union(self.slo_burn.interest())
    }

    fn dump(&self) -> Option<String> {
        let mut out = String::new();
        for d in [self.retx_storm.dump(), self.pfc_tree.dump(), self.slo_burn.dump()]
            .into_iter()
            .flatten()
        {
            out.push_str(&d);
            out.push('\n');
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retx(at: u64, cause: RetxCause) -> (u64, ProbeEvent) {
        (at, ProbeEvent::Retx { node: 0, flow: 1, psn: 0, bytes: 1024, cause })
    }

    #[test]
    fn storm_trips_only_inside_the_window() {
        let mut m = RetxStormMonitor::default();
        // STORM_THRESHOLD + 1 retransmissions whose first and last lie just
        // over a window apart: at most STORM_THRESHOLD in any window.
        let gap = STORM_WINDOW_NS / STORM_THRESHOLD as u64 + 1;
        for i in 0..=STORM_THRESHOLD as u64 {
            let (at, ev) = retx(i * gap, RetxCause::Timeout);
            m.record(at, &ev);
        }
        assert!(!m.tripped());
        assert_eq!(m.peak, STORM_THRESHOLD);
        // STORM_THRESHOLD + 1 inside a few µs: the last one trips it.
        let start = 10 * STORM_WINDOW_NS;
        for i in 0..=STORM_THRESHOLD as u64 {
            let (at, ev) = retx(start + i * 25, RetxCause::Ho);
            m.record(at, &ev);
        }
        assert!(m.tripped());
        assert_eq!(m.tripped_at, Some(start + STORM_THRESHOLD as u64 * 25));
        // On a tie max_by_key keeps the last candidate, i.e. Timeout here.
        assert_eq!(m.dominant_cause(), Some(RetxCause::Timeout));
    }

    #[test]
    fn pfc_tree_counts_distinct_nodes_not_frames() {
        let mut m = PfcTreeMonitor::default();
        let pause = |node| ProbeEvent::PfcPause { node, port: 0 };
        // Two ports on the same switch pausing is one node, not two.
        m.record(10, &pause(5));
        m.record(11, &ProbeEvent::PfcPause { node: 5, port: 1 });
        // One distinct node short of the threshold.
        for node in 6..4 + PFC_TREE_NODES as u32 {
            m.record(u64::from(node) + 6, &pause(node));
        }
        assert!(!m.tripped());
        assert_eq!(m.max_nodes, PFC_TREE_NODES - 1);
        assert_eq!(m.max_ports, PFC_TREE_NODES);
        // Resume shrinks the tree; a replacement node keeps it one short,
        // one more distinct node trips it.
        m.record(20, &ProbeEvent::PfcResume { node: 6, port: 0 });
        m.record(21, &pause(50));
        assert!(!m.tripped());
        m.record(22, &pause(51));
        assert!(m.tripped());
        assert_eq!(m.tripped_at, Some(22));
    }

    #[test]
    fn queue_high_water_tracks_per_port_peaks() {
        let mut m = QueueHighWaterMonitor::default();
        let enq = |node, port, bytes| ProbeEvent::Enqueue {
            node,
            port,
            queue: dcp_telemetry::QueueClass::Data,
            flow: 0,
            psn: 0,
            bytes,
        };
        let deq = |node, port, bytes| ProbeEvent::Dequeue {
            node,
            port,
            queue: dcp_telemetry::QueueClass::Data,
            flow: 0,
            psn: 0,
            bytes,
        };
        m.record(0, &enq(1, 0, 1000));
        m.record(1, &enq(1, 0, 1000));
        m.record(2, &deq(1, 0, 1000));
        m.record(3, &enq(1, 0, 500));
        m.record(4, &enq(2, 3, 9000));
        assert_eq!(m.high_water(1, 0), 2000);
        assert_eq!(m.deepest(), Some((2, 3, 9000)));
    }

    #[test]
    fn slo_burn_counts_breaches() {
        let mut m = SloBurnMonitor::default();
        // Exactly at the SLO is no breach; one nanosecond over is.
        for (wr, post, deliver) in [(1u64, 0u64, SLO_NS), (2, 0, SLO_NS + 1), (3, 100, 900)] {
            m.record(post, &ProbeEvent::MsgPosted { node: 0, flow: 1, wr_id: wr, bytes: 1 });
            m.record(deliver, &ProbeEvent::Delivery { node: 1, flow: 1, wr_id: wr, bytes: 1 });
        }
        assert_eq!(m.delivered, 3);
        assert_eq!(m.breached, 1);
        assert!((m.burn_rate() - 1.0 / 3.0).abs() < 1e-9);
        // An unmatched delivery is ignored, not a breach.
        m.record(9, &ProbeEvent::Delivery { node: 1, flow: 1, wr_id: 99, bytes: 1 });
        assert_eq!(m.delivered, 3);
    }

    /// The `monitors` section of every span document, untouched and with
    /// all three thresholded monitors tripped, byte for byte.
    #[test]
    fn verdict_json_is_pinned() {
        assert_eq!(
            Monitors::default().to_json().render(),
            r#"{"retx_storm": {"window_ns": 1000000, "threshold": 256, "peak": 0, "tripped_at": null, "dominant_cause": null}, "pfc_tree": {"threshold": 4, "pauses_seen": 0, "max_ports": 0, "max_nodes": 0, "tripped_at": null}, "queue_high_water": [], "slo_burn": {"slo_ns": 10000000, "delivered": 0, "breached": 0, "burn_rate": 0, "flows": []}}"#
        );

        let mut m = Monitors::default();
        for i in 0..257u64 {
            let cause = if i % 3 == 0 { RetxCause::Nack } else { RetxCause::Timeout };
            let (at, ev) = retx(1_000 + i * 100, cause);
            m.record(at, &ev);
        }
        for node in 10..14 {
            m.record(50_000 + u64::from(node), &ProbeEvent::PfcPause { node, port: 2 });
        }
        m.record(60_000, &ProbeEvent::PfcResume { node: 10, port: 2 });
        let q = dcp_telemetry::QueueClass::Data;
        m.record(
            0,
            &ProbeEvent::Enqueue { node: 3, port: 1, queue: q, flow: 7, psn: 0, bytes: 4096 },
        );
        m.record(
            1,
            &ProbeEvent::Dequeue { node: 3, port: 1, queue: q, flow: 7, psn: 0, bytes: 4096 },
        );
        for (wr_id, done) in [(1u64, 9_000_000u64), (2, 25_000_000)] {
            m.record(0, &ProbeEvent::MsgPosted { node: 0, flow: 7, wr_id, bytes: 1 });
            m.record(done, &ProbeEvent::Delivery { node: 1, flow: 7, wr_id, bytes: 1 });
        }
        assert!(m.retx_storm.tripped() && m.pfc_tree.tripped() && m.slo_burn.breached == 1);
        assert_eq!(
            m.to_json().render(),
            r#"{"retx_storm": {"window_ns": 1000000, "threshold": 256, "peak": 257, "tripped_at": 26600, "dominant_cause": "timeout"}, "pfc_tree": {"threshold": 4, "pauses_seen": 4, "max_ports": 4, "max_nodes": 4, "tripped_at": 50013}, "queue_high_water": [{"node": 3, "port": 1, "high_water": 4096}], "slo_burn": {"slo_ns": 10000000, "delivered": 2, "breached": 1, "burn_rate": 0.5, "flows": [{"flow": 7, "count": 2, "p50": 9043967, "p99": 25000000, "p999": 25000000}]}}"#
        );
    }

    #[test]
    fn monitors_union_mask_covers_members() {
        let m = Monitors::default();
        let mask = m.interest();
        for k in [
            EventKind::Retx,
            EventKind::PfcPause,
            EventKind::PfcResume,
            EventKind::Enqueue,
            EventKind::Dequeue,
            EventKind::MsgPosted,
            EventKind::Delivery,
        ] {
            assert!(mask.contains(k), "{k:?}");
        }
        assert!(!mask.contains(EventKind::EcnMark));
        assert!(!mask.contains(EventKind::Fault));
    }
}
