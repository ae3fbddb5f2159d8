//! dcp-scope: causal flow tracing, Perfetto export, and anomaly monitors.
//!
//! The telemetry crate answers "what happened" one event at a time; this
//! crate answers "what happened *to this packet*": it folds the flat
//! [`dcp_telemetry::ProbeEvent`] stream back into per-packet and
//! per-message **spans** — Tx → per-hop Enqueue/Dequeue → Trim/Drop/
//! EcnMark → Retx → Delivery — keyed by `(flow, psn)` and `(flow, wr_id)`.
//!
//! Three consumers sit on top:
//!
//! * [`SpanBuilder`] — a [`dcp_telemetry::Probe`], fed live or replayed
//!   from a JSONL trace, producing a deterministic span document plus
//!   latency breakdowns (time-in-queue vs time-in-recovery). It keeps no
//!   raw capture: each event folds on arrival into a compact per-packet
//!   span store (a head per `(flow, psn)`, one record per queue visit or
//!   mark), and spans are built from it on read.
//! * [`perfetto::chrome_trace`] — renders a captured event stream as
//!   Chrome-trace/Perfetto JSON: one track per node, queue-residency
//!   slices, instant markers for trims/drops/retransmissions, and flow
//!   arrows tying each loss signal to the retransmission it caused.
//! * [`Monitors`] — always-on rolling-window anomaly detectors
//!   (retransmission storms, PFC pause-tree growth, per-port queue
//!   high-water, per-flow SLO burn). Each is a probe with a narrow
//!   [`dcp_telemetry::KindMask`], so an uninstalled or uninterested
//!   monitor costs nothing on the hot path.
//!
//! [`ScopeProbe`] fuses the span builder with the standard monitor set and
//! is the one place the `dcp-trace/v1` document is produced
//! ([`ScopeProbe::write_doc`]): `--spans-out` writes it from the live
//! fold, `dcp_trace --spans` from a replay of the written trace, packet by
//! packet in both cases.
//!
//! Everything here is a passive observer over `Copy` events; nothing
//! feeds back into the simulation, which is what keeps traced runs
//! digest-identical to bare runs.

mod monitor;
mod perfetto;
mod span;

pub use monitor::{
    Monitors, PfcTreeMonitor, QueueHighWaterMonitor, RetxStormMonitor, SloBurnMonitor,
};
pub use perfetto::chrome_trace;
pub use span::{MessageSpan, PacketSpan, SpanBuilder};

use dcp_telemetry::{KindMask, ObjWriter, Probe, ProbeEvent};
use std::io::{self, Write};

/// The full live-capture configuration: span reconstruction plus the
/// standard monitor set behind *one* probe. A `Fanout` of the two parts
/// works identically but pays a second virtual dispatch and mask test on
/// every event — at the engine's ~10^7 events/s that double dispatch is
/// measurable, so the canonical pairing gets a fused probe with direct
/// (inlinable) calls into both consumers.
#[derive(Default)]
pub struct ScopeProbe {
    pub spans: SpanBuilder,
    pub monitors: Monitors,
}

impl ScopeProbe {
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes held by the span store and the monitors.
    pub fn heap_bytes(&self) -> usize {
        self.spans.heap_bytes() + self.monitors.heap_bytes()
    }

    /// Writes the `dcp-trace/v1` document (`schemas/trace.schema.json`) to
    /// `out`, pretty-printed and packet by packet: the span builder's
    /// fields, then every monitor's verdict under `monitors`. Hands `out`
    /// back for the caller to flush.
    pub fn write_doc<W: Write>(&self, out: W) -> io::Result<W> {
        let mut doc = ObjWriter::new(out, Some(2));
        self.spans.write_fields(&mut doc)?;
        doc.field("monitors", self.monitors.to_json())?;
        doc.finish()
    }
}

/// Heap bytes of a `HashMap<K, V>` reporting `capacity`: a power-of-two
/// bucket count (`capacity` is 7/8 of it, or one less below 8 buckets),
/// each bucket a `(K, V)` plus one control byte, and a 16-byte control
/// tail.
fn hash_map_bytes<K, V>(capacity: usize) -> usize {
    let buckets = match capacity {
        0 => return 0,
        1..=7 => (capacity + 1).next_power_of_two(),
        _ => (capacity / 7 * 8).next_power_of_two(),
    };
    buckets * (size_of::<(K, V)>() + 1) + 16
}

/// Heap bytes of a `BTreeMap<K, V>` of `len` entries, estimated: a leaf
/// holds up to 11 keys and 11 values plus a parent link, and ascending
/// inserts — what these maps mostly see — split leaves about half full.
fn btree_map_bytes<K, V>(len: usize) -> usize {
    len.div_ceil(6) * (16 + 11 * (size_of::<K>() + size_of::<V>()))
}

impl Probe for ScopeProbe {
    #[inline]
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        Probe::record(&mut self.spans, at, ev);
        // Peel the two high-volume kinds straight into the queue monitor;
        // the rare rest funnels through the monitors' mask dispatch.
        match *ev {
            ProbeEvent::Enqueue { node, port, bytes, .. } => {
                self.monitors.queue_high_water.enqueue(node, port, bytes);
            }
            ProbeEvent::Dequeue { node, port, bytes, .. } => {
                self.monitors.queue_high_water.dequeue(node, port, bytes);
            }
            _ => Probe::record(&mut self.monitors, at, ev),
        }
    }

    fn interest(&self) -> KindMask {
        self.spans.interest().union(self.monitors.interest())
    }

    fn dump(&self) -> Option<String> {
        let parts: Vec<String> =
            [self.spans.dump(), self.monitors.dump()].into_iter().flatten().collect();
        if parts.is_empty() {
            None
        } else {
            Some(parts.join("\n"))
        }
    }
}
