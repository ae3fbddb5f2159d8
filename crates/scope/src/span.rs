//! Span reconstruction: folding the flat probe stream back into causal
//! per-packet and per-message stories.
//!
//! A *packet span* collects everything that happened to one `(flow, psn)`:
//! every transmission (with the retransmission cause the transport
//! stamped), every queue visit (Enqueue→Dequeue pair per switch/port),
//! and every trim, drop, and ECN mark along the way. A *message span*
//! pairs `MsgPosted` with `Delivery` for one `(flow, wr_id)`. Both are
//! kept in `BTreeMap`s so the exported document is sorted — and therefore
//! byte-identical across `DCP_THREADS`/`DCP_SHARDS` settings, since the
//! sharded engine merges per-shard probe buffers into one globally
//! time-ordered stream before any probe sees them.

use dcp_telemetry::{
    DropClass, EventKind, EventLog, Json, KindMask, LogHistogram, Probe, ProbeEvent, QueueClass,
    RetxCause,
};
use std::collections::BTreeMap;

/// One visit to an egress queue: admitted at `enqueue`, on the wire at
/// `dequeue` (`None` if the packet died in the queue or the trace ended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopVisit {
    pub node: u32,
    pub port: u32,
    pub queue: QueueClass,
    pub enqueue: u64,
    pub dequeue: Option<u64>,
}

/// The reconstructed life of one `(flow, psn)` packet, across every
/// transmission of it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PacketSpan {
    /// First time a NIC put this PSN on the wire.
    pub first_tx: Option<u64>,
    /// Wire transmissions observed (first + retransmitted copies).
    pub transmissions: u32,
    /// Retransmissions with the transport signal that triggered each.
    pub retx: Vec<(u64, RetxCause)>,
    /// Queue visits in arrival order (one entry per switch/port pass).
    pub hops: Vec<HopVisit>,
    /// Trim-to-header events as `(at, node)`.
    pub trims: Vec<(u64, u32)>,
    /// Packet deaths as `(at, node, class)`.
    pub drops: Vec<(u64, u32, DropClass)>,
    /// ECN CE marks as `(at, node)`.
    pub ecn: Vec<(u64, u32)>,
}

impl PacketSpan {
    /// Nanoseconds spent sitting in egress queues (summed over completed
    /// Enqueue→Dequeue pairs).
    pub fn time_in_queue(&self) -> u64 {
        self.hops.iter().filter_map(|h| h.dequeue.map(|d| d.saturating_sub(h.enqueue))).sum()
    }

    /// Nanoseconds from the first transmission to the last retransmission
    /// — zero for packets that never needed recovery.
    pub fn time_in_recovery(&self) -> u64 {
        match (self.first_tx, self.retx.last()) {
            (Some(tx), Some(&(last, _))) => last.saturating_sub(tx),
            _ => 0,
        }
    }
}

/// The submit→deliver bracket of one `(flow, wr_id)` message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageSpan {
    pub bytes: u64,
    pub posted: Option<u64>,
    pub delivered: Option<u64>,
}

impl MessageSpan {
    /// Post-to-delivery latency, when both ends were observed.
    pub fn latency(&self) -> Option<u64> {
        match (self.posted, self.delivered) {
            (Some(p), Some(d)) => Some(d.saturating_sub(p)),
            _ => None,
        }
    }
}

/// Builds spans from a probe stream — live (installed as a probe, alone
/// or inside a `Fanout`) or replayed from a capture; both record the same
/// events and produce the same document.
///
/// Hot-path discipline: [`Probe::record`] only appends to an uncapped
/// [`EventLog`] (the benchmark's `scope.capture_overhead_pct` is the
/// budget). The log folds into the sorted span maps on first read
/// ([`SpanBuilder::packets`], [`SpanBuilder::to_json`], ...), off the
/// simulator's critical path.
pub struct SpanBuilder {
    /// Raw capture, folded lazily — the only thing `record` touches.
    log: EventLog,
    packets: BTreeMap<(u32, u32), PacketSpan>,
    messages: BTreeMap<(u32, u64), MessageSpan>,
    /// Per-flow (timeouts, header-only notifications) counters.
    flows: BTreeMap<u32, (u64, u64)>,
    /// New-key admission cap: spans beyond it are dropped (counted), so a
    /// runaway trace cannot exhaust memory.
    cap: usize,
    pub truncated: u64,
}

impl Default for SpanBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanBuilder {
    pub fn new() -> Self {
        SpanBuilder {
            log: EventLog::new(usize::MAX),
            packets: BTreeMap::new(),
            messages: BTreeMap::new(),
            flows: BTreeMap::new(),
            cap: 1 << 20,
            truncated: 0,
        }
    }

    /// Caps the number of distinct packet spans retained.
    #[must_use]
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.cap = cap;
        self
    }

    fn packet(&mut self, flow: u32, psn: u32) -> Option<&mut PacketSpan> {
        let key = (flow, psn);
        if !self.packets.contains_key(&key) && self.packets.len() >= self.cap {
            self.truncated += 1;
            return None;
        }
        Some(self.packets.entry(key).or_default())
    }

    /// Drains the raw capture into the span maps (idempotent; a no-op
    /// when nothing was recorded since the last fold).
    fn fold(&mut self) {
        for (at, ev) in self.log.take_log().iter() {
            self.apply(at, &ev);
        }
    }

    pub fn packets(&mut self) -> impl Iterator<Item = (&(u32, u32), &PacketSpan)> {
        self.fold();
        self.packets.iter()
    }

    pub fn messages(&mut self) -> impl Iterator<Item = (&(u32, u64), &MessageSpan)> {
        self.fold();
        self.messages.iter()
    }

    /// The full span document (`dcp-trace/v1`), sorted by key so output is
    /// byte-identical across thread/shard settings of the same run.
    pub fn to_json(&mut self) -> Json {
        self.fold();
        let packets: Vec<Json> = self
            .packets
            .iter()
            .map(|(&(flow, psn), s)| {
                Json::obj()
                    .set("flow", u64::from(flow))
                    .set("psn", u64::from(psn))
                    .set("first_tx", s.first_tx.map_or(Json::Null, Json::from))
                    .set("transmissions", u64::from(s.transmissions))
                    .set(
                        "retx",
                        Json::Arr(
                            s.retx
                                .iter()
                                .map(|&(at, cause)| {
                                    Json::obj().set("at", at).set("cause", cause.name())
                                })
                                .collect(),
                        ),
                    )
                    .set(
                        "hops",
                        Json::Arr(
                            s.hops
                                .iter()
                                .map(|h| {
                                    Json::obj()
                                        .set("node", u64::from(h.node))
                                        .set("port", u64::from(h.port))
                                        .set("queue", h.queue.name())
                                        .set("enqueue", h.enqueue)
                                        .set("dequeue", h.dequeue.map_or(Json::Null, Json::from))
                                })
                                .collect(),
                        ),
                    )
                    .set(
                        "trims",
                        Json::Arr(
                            s.trims
                                .iter()
                                .map(|&(at, node)| {
                                    Json::obj().set("at", at).set("node", u64::from(node))
                                })
                                .collect(),
                        ),
                    )
                    .set(
                        "drops",
                        Json::Arr(
                            s.drops
                                .iter()
                                .map(|&(at, node, class)| {
                                    Json::obj()
                                        .set("at", at)
                                        .set("node", u64::from(node))
                                        .set("class", class.name())
                                })
                                .collect(),
                        ),
                    )
                    .set("time_in_queue", s.time_in_queue())
                    .set("time_in_recovery", s.time_in_recovery())
            })
            .collect();
        let messages: Vec<Json> = self
            .messages
            .iter()
            .map(|(&(flow, wr_id), m)| {
                Json::obj()
                    .set("flow", u64::from(flow))
                    .set("wr_id", wr_id)
                    .set("bytes", m.bytes)
                    .set("posted", m.posted.map_or(Json::Null, Json::from))
                    .set("delivered", m.delivered.map_or(Json::Null, Json::from))
                    .set("latency", m.latency().map_or(Json::Null, Json::from))
            })
            .collect();
        let flows: Vec<Json> = self
            .flows
            .iter()
            .map(|(&flow, &(timeouts, ho))| {
                Json::obj()
                    .set("flow", u64::from(flow))
                    .set("timeouts", timeouts)
                    .set("ho_received", ho)
            })
            .collect();
        Json::obj()
            .set("schema", "dcp-trace/v1")
            .set("truncated", self.truncated)
            .set("packets", Json::Arr(packets))
            .set("messages", Json::Arr(messages))
            .set("flows", Json::Arr(flows))
            .set("stats", self.stats_json())
    }

    /// Aggregate latency breakdown: where packet time went (queueing vs
    /// recovery), per-hop queue-wait percentiles, message latency.
    pub fn stats_json(&mut self) -> Json {
        self.fold();
        let mut queue_wait = LogHistogram::new(6);
        let mut recovery = LogHistogram::new(6);
        let mut msg_latency = LogHistogram::new(6);
        let mut per_node: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let mut retx_pkts = 0u64;
        for s in self.packets.values() {
            let q = s.time_in_queue();
            if q > 0 {
                queue_wait.record(q);
            }
            let r = s.time_in_recovery();
            if r > 0 {
                recovery.record(r);
                retx_pkts += 1;
            }
            for h in &s.hops {
                if let Some(d) = h.dequeue {
                    let e = per_node.entry(h.node).or_default();
                    e.0 += d.saturating_sub(h.enqueue);
                    e.1 += 1;
                }
            }
        }
        for m in self.messages.values() {
            if let Some(l) = m.latency() {
                msg_latency.record(l);
            }
        }
        let hist = |h: &LogHistogram| {
            if h.count() == 0 {
                Json::obj().set("count", 0u64)
            } else {
                Json::obj()
                    .set("count", h.count())
                    .set("p50", h.value_at_percentile(50.0))
                    .set("p99", h.value_at_percentile(99.0))
                    .set("max", h.max())
            }
        };
        let per_hop: Vec<Json> = per_node
            .iter()
            .map(|(&node, &(total, visits))| {
                Json::obj()
                    .set("node", u64::from(node))
                    .set("visits", visits)
                    .set("mean_queue_wait", total.checked_div(visits).unwrap_or(0))
            })
            .collect();
        Json::obj()
            .set("packet_spans", self.packets.len())
            .set("retx_packets", retx_pkts)
            .set("message_spans", self.messages.len())
            .set("queue_wait", hist(&queue_wait))
            .set("recovery", hist(&recovery))
            .set("message_latency", hist(&msg_latency))
            .set("per_hop", Json::Arr(per_hop))
    }

    /// Folds one event into the span maps.
    fn apply(&mut self, at: u64, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::Tx { flow, psn, .. } => {
                if let Some(s) = self.packet(flow, psn) {
                    s.first_tx.get_or_insert(at);
                    s.transmissions += 1;
                }
            }
            ProbeEvent::Retx { flow, psn, cause, .. } => {
                if let Some(s) = self.packet(flow, psn) {
                    s.first_tx.get_or_insert(at);
                    s.transmissions += 1;
                    s.retx.push((at, cause));
                }
            }
            ProbeEvent::Enqueue { node, port, queue, flow, psn, .. } => {
                if let Some(s) = self.packet(flow, psn) {
                    s.hops.push(HopVisit { node, port, queue, enqueue: at, dequeue: None });
                }
            }
            ProbeEvent::Dequeue { node, port, flow, psn, .. } => {
                if let Some(s) = self.packet(flow, psn) {
                    // Match the newest open visit to this queue: re-routed
                    // retransmissions can pass the same switch twice.
                    if let Some(h) = s
                        .hops
                        .iter_mut()
                        .rev()
                        .find(|h| h.node == node && h.port == port && h.dequeue.is_none())
                    {
                        h.dequeue = Some(at);
                    }
                }
            }
            ProbeEvent::Trim { node, flow, psn, .. } => {
                if let Some(s) = self.packet(flow, psn) {
                    s.trims.push((at, node));
                }
            }
            ProbeEvent::Drop { node, flow, psn, class, .. } => {
                if let Some(s) = self.packet(flow, psn) {
                    s.drops.push((at, node, class));
                }
            }
            ProbeEvent::EcnMark { node, flow, psn, .. } => {
                if let Some(s) = self.packet(flow, psn) {
                    s.ecn.push((at, node));
                }
            }
            ProbeEvent::MsgPosted { flow, wr_id, bytes, .. } => {
                let m = self.messages.entry((flow, wr_id)).or_default();
                m.bytes = bytes;
                m.posted.get_or_insert(at);
            }
            ProbeEvent::Delivery { flow, wr_id, bytes, .. } => {
                let m = self.messages.entry((flow, wr_id)).or_default();
                m.bytes = bytes;
                m.delivered.get_or_insert(at);
            }
            ProbeEvent::Timeout { flow, .. } => {
                self.flows.entry(flow).or_default().0 += 1;
            }
            ProbeEvent::HoReceived { flow, .. } => {
                self.flows.entry(flow).or_default().1 += 1;
            }
            _ => {}
        }
    }
}

impl Probe for SpanBuilder {
    #[inline]
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        self.log.record(at, ev);
    }

    fn interest(&self) -> KindMask {
        KindMask::of(&[
            EventKind::Enqueue,
            EventKind::Dequeue,
            EventKind::Trim,
            EventKind::Drop,
            EventKind::EcnMark,
            EventKind::Tx,
            EventKind::Retx,
            EventKind::Timeout,
            EventKind::HoReceived,
            EventKind::MsgPosted,
            EventKind::Delivery,
        ])
    }

    fn dump(&self) -> Option<String> {
        Some(format!(
            "span builder: {} packet spans, {} message spans ({} truncated, {} buffered)",
            self.packets.len(),
            self.messages.len(),
            self.truncated,
            self.log.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An event whose fields overflow the packed lanes reaches the fold
    /// intact: a delivery with a 16 MB payload lands in its message span.
    #[test]
    fn escaped_records_fold_intact() {
        let mut b = SpanBuilder::new();
        let wr = (7u32, 1u64 << 30);
        b.record(50, &ProbeEvent::MsgPosted { node: 0, flow: wr.0, wr_id: wr.1, bytes: 1 << 24 });
        b.record(90, &ProbeEvent::Delivery { node: 1, flow: wr.0, wr_id: wr.1, bytes: 1 << 24 });
        let (key, m) = b.messages().next().map(|(k, m)| (*k, *m)).unwrap();
        assert_eq!(key, (wr.0, wr.1));
        assert_eq!(m.bytes, 1 << 24);
        assert_eq!((m.posted, m.delivered), (Some(50), Some(90)));
    }

    /// PSN 3 of flow 7: sent, queued at switch 10, trimmed, header-only
    /// notification back, precise retransmission, second pass clean.
    fn trim_recovery_events() -> Vec<(u64, ProbeEvent)> {
        vec![
            (100, ProbeEvent::Tx { node: 0, flow: 7, psn: 3, bytes: 1064 }),
            (
                200,
                ProbeEvent::Enqueue {
                    node: 10,
                    port: 2,
                    queue: QueueClass::Data,
                    flow: 7,
                    psn: 3,
                    bytes: 1064,
                },
            ),
            (210, ProbeEvent::Trim { node: 10, port: 2, flow: 7, psn: 3 }),
            (
                250,
                ProbeEvent::Dequeue {
                    node: 10,
                    port: 2,
                    queue: QueueClass::Ctrl,
                    flow: 7,
                    psn: 3,
                    bytes: 64,
                },
            ),
            (400, ProbeEvent::HoReceived { node: 0, flow: 7 }),
            (450, ProbeEvent::Retx { node: 0, flow: 7, psn: 3, bytes: 1064, cause: RetxCause::Ho }),
            (
                500,
                ProbeEvent::Enqueue {
                    node: 10,
                    port: 2,
                    queue: QueueClass::Data,
                    flow: 7,
                    psn: 3,
                    bytes: 1064,
                },
            ),
            (
                560,
                ProbeEvent::Dequeue {
                    node: 10,
                    port: 2,
                    queue: QueueClass::Data,
                    flow: 7,
                    psn: 3,
                    bytes: 1064,
                },
            ),
            (700, ProbeEvent::MsgPosted { node: 0, flow: 7, wr_id: 1, bytes: 1024 }),
            (900, ProbeEvent::Delivery { node: 1, flow: 7, wr_id: 1, bytes: 1024 }),
        ]
    }

    fn trimmed_then_recovered() -> SpanBuilder {
        let mut b = SpanBuilder::new();
        for (at, ev) in &trim_recovery_events() {
            b.record(*at, ev);
        }
        b
    }

    #[test]
    fn span_reconstructs_trim_and_recovery() {
        let mut b = trimmed_then_recovered();
        let (_, s) = b.packets().next().unwrap();
        assert_eq!(s.first_tx, Some(100));
        assert_eq!(s.transmissions, 2);
        assert_eq!(s.retx, vec![(450, RetxCause::Ho)]);
        assert_eq!(s.trims, vec![(210, 10)]);
        assert_eq!(s.hops.len(), 2, "two passes through the switch");
        assert_eq!(s.hops[0].dequeue, Some(250));
        assert_eq!(s.hops[1].dequeue, Some(560));
        assert_eq!(s.time_in_queue(), 50 + 60);
        assert_eq!(s.time_in_recovery(), 350);
        let (_, m) = b.messages().next().unwrap();
        assert_eq!(m.latency(), Some(200));
    }

    #[test]
    fn jsonl_ingest_matches_live_recording() {
        let mut live = trimmed_then_recovered();
        // Re-render the same events as JSONL and rebuild offline.
        let evs = trim_recovery_events();
        let mut lines = String::new();
        for (at, ev) in &evs {
            lines.push_str(&ev.to_jsonl(*at));
            lines.push('\n');
        }
        lines.push_str("not json\n\n{\"other\": \"stream\"}\n");
        let mut offline = SpanBuilder::new();
        let mut unrecognized = 0;
        for item in ProbeEvent::read_jsonl(&lines) {
            match item {
                Some((at, ev)) => offline.record(at, &ev),
                None => unrecognized += 1,
            }
        }
        assert_eq!(unrecognized, 2, "foreign lines are reported, blank ones are not");
        assert_eq!(offline.to_json().render(), live.to_json().render());
    }

    #[test]
    fn cap_truncates_new_spans_only() {
        let mut b = SpanBuilder::new().with_cap(1);
        b.record(1, &ProbeEvent::Tx { node: 0, flow: 1, psn: 0, bytes: 100 });
        b.record(2, &ProbeEvent::Tx { node: 0, flow: 1, psn: 1, bytes: 100 });
        b.record(
            3,
            &ProbeEvent::Retx { node: 0, flow: 1, psn: 0, bytes: 100, cause: RetxCause::Timeout },
        );
        assert_eq!(b.packets().count(), 1);
        assert_eq!(b.truncated, 1);
        let (_, s) = b.packets().next().unwrap();
        assert_eq!(s.transmissions, 2, "existing span keeps accumulating");
    }

    #[test]
    fn stats_breakdown_is_populated() {
        let mut b = trimmed_then_recovered();
        let stats = b.stats_json();
        assert_eq!(stats.get("packet_spans").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("retx_packets").and_then(Json::as_u64), Some(1));
        let per_hop = stats.get("per_hop").and_then(Json::as_arr).unwrap();
        assert_eq!(per_hop.len(), 1);
        assert_eq!(per_hop[0].get("visits").and_then(Json::as_u64), Some(2));
        assert_eq!(per_hop[0].get("mean_queue_wait").and_then(Json::as_u64), Some(55));
    }
}
