//! The probe vocabulary: what the hot paths can report, and the trait that
//! consumes it.
//!
//! Events are plain `Copy` data with raw `u32` identifiers (node, port,
//! flow, PSN) so this crate needs no simulator types and the compiler can
//! pass events in registers. Emission sites construct events *lazily* —
//! `ctx.emit(|| ProbeEvent::...)` — so with no probe installed the only cost
//! is one branch on an `Option` discriminant.
//!
//! A probe keeps whatever it was built to keep — counters, a ring, a live
//! span fold, a file it writes as the run goes — and no probe keeps every
//! event unless asked: `Vec<(u64, ProbeEvent)>` is the one in-memory
//! capture, for tests and the sharded engine's per-window buffers. JSONL
//! ([`ProbeEvent::to_jsonl`] / [`ProbeEvent::read_jsonl`]) is how a
//! capture leaves the process and comes back.

use std::any::Any;

/// Which egress queue a packet joined or left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueClass {
    /// The (lossy) data queue.
    Data,
    /// The lossless control queue (header-only packets).
    Ctrl,
}

impl QueueClass {
    pub fn name(self) -> &'static str {
        match self {
            QueueClass::Data => "data",
            QueueClass::Ctrl => "ctrl",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "data" => QueueClass::Data,
            "ctrl" => QueueClass::Ctrl,
            _ => return None,
        })
    }
}

/// Why a packet died at a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropClass {
    /// Data packet dropped (over-threshold without trimming, or forced
    /// loss on a non-DCP packet).
    Data,
    /// Header-only packet dropped — a lossless-control-plane violation.
    HeaderOnly,
    /// ACK/CNP-class packet dropped at an over-threshold data queue.
    Ack,
    /// Shared buffer exhausted (any class; see the event's `flow`/`psn`).
    Buffer,
    /// Killed by an injected fault (wire corruption past recovery, a downed
    /// link, or a failed switch draining its queues) — never congestion.
    Fault,
}

impl DropClass {
    pub fn name(self) -> &'static str {
        match self {
            DropClass::Data => "data",
            DropClass::HeaderOnly => "ho",
            DropClass::Ack => "ack",
            DropClass::Buffer => "buffer",
            DropClass::Fault => "fault",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "data" => DropClass::Data,
            "ho" => DropClass::HeaderOnly,
            "ack" => DropClass::Ack,
            "buffer" => DropClass::Buffer,
            "fault" => DropClass::Fault,
            _ => return None,
        })
    }
}

/// Which injected fault a [`ProbeEvent::Fault`]/[`ProbeEvent::FaultCleared`]
/// pair brackets. The variants mirror the fault plan's event vocabulary so
/// a trace alone reconstructs the schedule that was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A cable went down (both directions) / came back up.
    Link,
    /// A cable's rate/latency degraded / was restored.
    Degrade,
    /// A whole switch failed (queues drained) / recovered.
    Switch,
    /// A stochastic loss model was installed / cleared on a cable.
    LossModel,
    /// A PFC PAUSE storm started / ended on a port.
    PauseStorm,
}

impl FaultKind {
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Link => "link",
            FaultKind::Degrade => "degrade",
            FaultKind::Switch => "switch",
            FaultKind::LossModel => "loss_model",
            FaultKind::PauseStorm => "pause_storm",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "link" => FaultKind::Link,
            "degrade" => FaultKind::Degrade,
            "switch" => FaultKind::Switch,
            "loss_model" => FaultKind::LossModel,
            "pause_storm" => FaultKind::PauseStorm,
            _ => return None,
        })
    }
}

/// *Why* a retransmitted copy went back on the wire. Annotated by the
/// transport that decided to retransmit and carried on the packet, so a
/// trace attributes every recovery to its trigger — the attribution
/// SDR-RDMA leans on to compare reliability modes, and the signal the
/// retx-storm monitor groups by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RetxCause {
    /// First transmission, or a transport that does not annotate.
    Unknown,
    /// A header-only loss notification named the PSN (DCP precise repeat).
    Ho,
    /// An explicit NAK rewound the window (go-back-N).
    Nack,
    /// A SACK gap marked the PSN lost (IRN-style selective repeat).
    Sack,
    /// The RACK reordering timer expired past the PSN.
    Rack,
    /// Duplicate ACKs crossed the fast-retransmit threshold.
    DupAck,
    /// A tail-loss-probe timer fired (probe transmission).
    Tlp,
    /// The retransmission timeout fired (last resort).
    Timeout,
}

impl RetxCause {
    pub fn name(self) -> &'static str {
        match self {
            RetxCause::Unknown => "unknown",
            RetxCause::Ho => "ho",
            RetxCause::Nack => "nack",
            RetxCause::Sack => "sack",
            RetxCause::Rack => "rack",
            RetxCause::DupAck => "dup_ack",
            RetxCause::Tlp => "tlp",
            RetxCause::Timeout => "timeout",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "unknown" => RetxCause::Unknown,
            "ho" => RetxCause::Ho,
            "nack" => RetxCause::Nack,
            "sack" => RetxCause::Sack,
            "rack" => RetxCause::Rack,
            "dup_ack" => RetxCause::DupAck,
            "tlp" => RetxCause::Tlp,
            "timeout" => RetxCause::Timeout,
            _ => return None,
        })
    }
}

/// One observable event on a hot path. Every variant carries enough
/// identity (node, port, flow, PSN) to reconstruct a packet's story from a
/// trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeEvent {
    /// A packet was admitted to an egress queue.
    Enqueue { node: u32, port: u32, queue: QueueClass, flow: u32, psn: u32, bytes: u32 },
    /// A packet left an egress queue for the wire.
    Dequeue { node: u32, port: u32, queue: QueueClass, flow: u32, psn: u32, bytes: u32 },
    /// A data packet was trimmed to a header-only notification.
    Trim { node: u32, port: u32, flow: u32, psn: u32 },
    /// A packet died at a switch.
    Drop { node: u32, port: u32, flow: u32, psn: u32, class: DropClass },
    /// ECN CE mark applied on enqueue.
    EcnMark { node: u32, port: u32, flow: u32, psn: u32 },
    /// PFC PAUSE emitted upstream from ingress `port`.
    PfcPause { node: u32, port: u32 },
    /// PFC RESUME emitted upstream from ingress `port`.
    PfcResume { node: u32, port: u32 },
    /// A host NIC put a first-transmission data/control packet on the wire.
    Tx { node: u32, flow: u32, psn: u32, bytes: u32 },
    /// A host NIC put a *retransmitted* copy on the wire; `cause` names the
    /// transport signal that triggered the recovery.
    Retx { node: u32, flow: u32, psn: u32, bytes: u32, cause: RetxCause },
    /// A transport retransmission timeout fired.
    Timeout { node: u32, flow: u32 },
    /// A sender received a header-only loss notification.
    HoReceived { node: u32, flow: u32 },
    /// A receiver observed a duplicate data packet (spurious retx).
    Duplicate { node: u32, flow: u32 },
    /// A work request was posted at the sender (submit-side twin of
    /// [`ProbeEvent::Delivery`]; the pair is what a delivery oracle checks).
    MsgPosted { node: u32, flow: u32, wr_id: u64, bytes: u64 },
    /// A message was fully delivered in order (receiver-side completion).
    Delivery { node: u32, flow: u32, wr_id: u64, bytes: u64 },
    /// An injected fault took effect at `node`/`port` (`port` is 0 for
    /// whole-node faults such as a switch failure).
    Fault { node: u32, port: u32, kind: FaultKind },
    /// A previously injected fault cleared (link up, switch recovered,
    /// loss model removed).
    FaultCleared { node: u32, port: u32, kind: FaultKind },
}

/// Discriminant-only view of [`ProbeEvent`], for counting and filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum EventKind {
    Enqueue,
    Dequeue,
    Trim,
    Drop,
    EcnMark,
    PfcPause,
    PfcResume,
    Tx,
    Retx,
    Timeout,
    HoReceived,
    Duplicate,
    MsgPosted,
    Delivery,
    Fault,
    FaultCleared,
}

impl EventKind {
    /// Number of kinds (array-size constant for per-kind counters).
    pub const COUNT: usize = 16;

    pub const ALL: [EventKind; Self::COUNT] = [
        EventKind::Enqueue,
        EventKind::Dequeue,
        EventKind::Trim,
        EventKind::Drop,
        EventKind::EcnMark,
        EventKind::PfcPause,
        EventKind::PfcResume,
        EventKind::Tx,
        EventKind::Retx,
        EventKind::Timeout,
        EventKind::HoReceived,
        EventKind::Duplicate,
        EventKind::MsgPosted,
        EventKind::Delivery,
        EventKind::Fault,
        EventKind::FaultCleared,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EventKind::Enqueue => "enqueue",
            EventKind::Dequeue => "dequeue",
            EventKind::Trim => "trim",
            EventKind::Drop => "drop",
            EventKind::EcnMark => "ecn_mark",
            EventKind::PfcPause => "pfc_pause",
            EventKind::PfcResume => "pfc_resume",
            EventKind::Tx => "tx",
            EventKind::Retx => "retx",
            EventKind::Timeout => "timeout",
            EventKind::HoReceived => "ho_received",
            EventKind::Duplicate => "duplicate",
            EventKind::MsgPosted => "msg_posted",
            EventKind::Delivery => "delivery",
            EventKind::Fault => "fault",
            EventKind::FaultCleared => "fault_cleared",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A subscription bitmask over [`EventKind`]s. Heavy probes declare the
/// kinds they consume via [`Probe::interest`]; [`Fanout`] tests the mask
/// before dispatching, so a span builder that ignores PFC frames never pays
/// a virtual call (let alone a match) for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindMask(pub u32);

impl KindMask {
    /// Subscribes to every kind (the default for existing probes).
    pub const ALL: KindMask = KindMask((1 << EventKind::COUNT as u32) - 1);
    /// Subscribes to nothing.
    pub const NONE: KindMask = KindMask(0);

    /// A mask of exactly one kind.
    pub const fn only(kind: EventKind) -> KindMask {
        KindMask(1 << kind as u32)
    }

    /// A mask of several kinds.
    pub const fn of(kinds: &[EventKind]) -> KindMask {
        let mut bits = 0u32;
        let mut i = 0;
        while i < kinds.len() {
            bits |= 1 << kinds[i] as u32;
            i += 1;
        }
        KindMask(bits)
    }

    #[must_use]
    pub const fn with(self, kind: EventKind) -> KindMask {
        KindMask(self.0 | (1 << kind as u32))
    }

    #[must_use]
    pub const fn union(self, other: KindMask) -> KindMask {
        KindMask(self.0 | other.0)
    }

    #[inline]
    pub const fn contains(self, kind: EventKind) -> bool {
        self.0 & (1 << kind as u32) != 0
    }

    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Default for KindMask {
    fn default() -> Self {
        KindMask::ALL
    }
}

impl ProbeEvent {
    pub fn kind(&self) -> EventKind {
        match self {
            ProbeEvent::Enqueue { .. } => EventKind::Enqueue,
            ProbeEvent::Dequeue { .. } => EventKind::Dequeue,
            ProbeEvent::Trim { .. } => EventKind::Trim,
            ProbeEvent::Drop { .. } => EventKind::Drop,
            ProbeEvent::EcnMark { .. } => EventKind::EcnMark,
            ProbeEvent::PfcPause { .. } => EventKind::PfcPause,
            ProbeEvent::PfcResume { .. } => EventKind::PfcResume,
            ProbeEvent::Tx { .. } => EventKind::Tx,
            ProbeEvent::Retx { .. } => EventKind::Retx,
            ProbeEvent::Timeout { .. } => EventKind::Timeout,
            ProbeEvent::HoReceived { .. } => EventKind::HoReceived,
            ProbeEvent::Duplicate { .. } => EventKind::Duplicate,
            ProbeEvent::MsgPosted { .. } => EventKind::MsgPosted,
            ProbeEvent::Delivery { .. } => EventKind::Delivery,
            ProbeEvent::Fault { .. } => EventKind::Fault,
            ProbeEvent::FaultCleared { .. } => EventKind::FaultCleared,
        }
    }

    /// The node (host or switch) the event happened at.
    pub fn node(&self) -> u32 {
        match *self {
            ProbeEvent::Enqueue { node, .. }
            | ProbeEvent::Dequeue { node, .. }
            | ProbeEvent::Trim { node, .. }
            | ProbeEvent::Drop { node, .. }
            | ProbeEvent::EcnMark { node, .. }
            | ProbeEvent::PfcPause { node, .. }
            | ProbeEvent::PfcResume { node, .. }
            | ProbeEvent::Tx { node, .. }
            | ProbeEvent::Retx { node, .. }
            | ProbeEvent::Timeout { node, .. }
            | ProbeEvent::HoReceived { node, .. }
            | ProbeEvent::Duplicate { node, .. }
            | ProbeEvent::MsgPosted { node, .. }
            | ProbeEvent::Delivery { node, .. }
            | ProbeEvent::Fault { node, .. }
            | ProbeEvent::FaultCleared { node, .. } => node,
        }
    }

    /// The flow the event belongs to, if it carries one (PFC and fault
    /// events are fabric-level).
    pub fn flow(&self) -> Option<u32> {
        match *self {
            ProbeEvent::Enqueue { flow, .. }
            | ProbeEvent::Dequeue { flow, .. }
            | ProbeEvent::Trim { flow, .. }
            | ProbeEvent::Drop { flow, .. }
            | ProbeEvent::EcnMark { flow, .. }
            | ProbeEvent::Tx { flow, .. }
            | ProbeEvent::Retx { flow, .. }
            | ProbeEvent::Timeout { flow, .. }
            | ProbeEvent::HoReceived { flow, .. }
            | ProbeEvent::Duplicate { flow, .. }
            | ProbeEvent::MsgPosted { flow, .. }
            | ProbeEvent::Delivery { flow, .. } => Some(flow),
            ProbeEvent::PfcPause { .. }
            | ProbeEvent::PfcResume { .. }
            | ProbeEvent::Fault { .. }
            | ProbeEvent::FaultCleared { .. } => None,
        }
    }

    /// One stable JSONL line (no trailing newline) for `--trace-out`.
    /// Key order is fixed so traces diff cleanly between runs.
    pub fn to_jsonl(&self, at: u64) -> String {
        let (ev, node) = (self.kind().name(), self.node());
        let head = format!("{{\"at\":{at},\"ev\":\"{ev}\",\"node\":{node}");
        match *self {
            ProbeEvent::Enqueue { port, queue, flow, psn, bytes, .. }
            | ProbeEvent::Dequeue { port, queue, flow, psn, bytes, .. } => format!(
                "{head},\"port\":{port},\"queue\":\"{}\",\"flow\":{flow},\"psn\":{psn},\"bytes\":{bytes}}}",
                queue.name()
            ),
            ProbeEvent::Trim { port, flow, psn, .. } | ProbeEvent::EcnMark { port, flow, psn, .. } => {
                format!("{head},\"port\":{port},\"flow\":{flow},\"psn\":{psn}}}")
            }
            ProbeEvent::Drop { port, flow, psn, class, .. } => format!(
                "{head},\"port\":{port},\"flow\":{flow},\"psn\":{psn},\"class\":\"{}\"}}",
                class.name()
            ),
            ProbeEvent::PfcPause { port, .. } | ProbeEvent::PfcResume { port, .. } => {
                format!("{head},\"port\":{port}}}")
            }
            ProbeEvent::Tx { flow, psn, bytes, .. } => {
                format!("{head},\"flow\":{flow},\"psn\":{psn},\"bytes\":{bytes}}}")
            }
            ProbeEvent::Retx { flow, psn, bytes, cause, .. } => format!(
                "{head},\"flow\":{flow},\"psn\":{psn},\"bytes\":{bytes},\"cause\":\"{}\"}}",
                cause.name()
            ),
            ProbeEvent::Timeout { flow, .. }
            | ProbeEvent::HoReceived { flow, .. }
            | ProbeEvent::Duplicate { flow, .. } => format!("{head},\"flow\":{flow}}}"),
            ProbeEvent::MsgPosted { flow, wr_id, bytes, .. }
            | ProbeEvent::Delivery { flow, wr_id, bytes, .. } => {
                format!("{head},\"flow\":{flow},\"wr_id\":{wr_id},\"bytes\":{bytes}}}")
            }
            ProbeEvent::Fault { port, kind, .. } | ProbeEvent::FaultCleared { port, kind, .. } => {
                format!("{head},\"port\":{port},\"kind\":\"{}\"}}", kind.name())
            }
        }
    }

    /// Inverse of [`ProbeEvent::to_jsonl`]: rebuilds `(at, event)` from one
    /// parsed trace line. Returns `None` for lines that are not probe
    /// events (unknown `ev`, missing fields) and for lines whose integers
    /// could not come back exactly: a `u32` field past `u32::MAX`, or any
    /// field at or past 2^53 — JSON numbers parse through `f64`, which
    /// cannot tell such a value from its neighbours.
    pub fn from_json(v: &crate::json::Json) -> Option<(u64, ProbeEvent)> {
        use crate::json::Json;
        let u64_of = |key: &str| v.get(key).and_then(Json::as_u64).filter(|&x| x < 1 << 53);
        let at = u64_of("at")?;
        let kind = EventKind::from_name(v.get("ev").and_then(Json::as_str)?)?;
        let u = |key: &str| u64_of(key).and_then(|x| u32::try_from(x).ok());
        let node = u("node")?;
        let ev = match kind {
            EventKind::Enqueue | EventKind::Dequeue => {
                let queue = QueueClass::from_name(v.get("queue").and_then(Json::as_str)?)?;
                let (port, flow, psn, bytes) = (u("port")?, u("flow")?, u("psn")?, u("bytes")?);
                if kind == EventKind::Enqueue {
                    ProbeEvent::Enqueue { node, port, queue, flow, psn, bytes }
                } else {
                    ProbeEvent::Dequeue { node, port, queue, flow, psn, bytes }
                }
            }
            EventKind::Trim => {
                ProbeEvent::Trim { node, port: u("port")?, flow: u("flow")?, psn: u("psn")? }
            }
            EventKind::Drop => ProbeEvent::Drop {
                node,
                port: u("port")?,
                flow: u("flow")?,
                psn: u("psn")?,
                class: DropClass::from_name(v.get("class").and_then(Json::as_str)?)?,
            },
            EventKind::EcnMark => {
                ProbeEvent::EcnMark { node, port: u("port")?, flow: u("flow")?, psn: u("psn")? }
            }
            EventKind::PfcPause => ProbeEvent::PfcPause { node, port: u("port")? },
            EventKind::PfcResume => ProbeEvent::PfcResume { node, port: u("port")? },
            EventKind::Tx => {
                ProbeEvent::Tx { node, flow: u("flow")?, psn: u("psn")?, bytes: u("bytes")? }
            }
            EventKind::Retx => ProbeEvent::Retx {
                node,
                flow: u("flow")?,
                psn: u("psn")?,
                bytes: u("bytes")?,
                cause: RetxCause::from_name(v.get("cause").and_then(Json::as_str)?)?,
            },
            EventKind::Timeout => ProbeEvent::Timeout { node, flow: u("flow")? },
            EventKind::HoReceived => ProbeEvent::HoReceived { node, flow: u("flow")? },
            EventKind::Duplicate => ProbeEvent::Duplicate { node, flow: u("flow")? },
            EventKind::MsgPosted | EventKind::Delivery => {
                let flow = u("flow")?;
                let (wr_id, bytes) = (u64_of("wr_id")?, u64_of("bytes")?);
                if kind == EventKind::MsgPosted {
                    ProbeEvent::MsgPosted { node, flow, wr_id, bytes }
                } else {
                    ProbeEvent::Delivery { node, flow, wr_id, bytes }
                }
            }
            EventKind::Fault | EventKind::FaultCleared => {
                let port = u("port")?;
                let fk = FaultKind::from_name(v.get("kind").and_then(Json::as_str)?)?;
                if kind == EventKind::Fault {
                    ProbeEvent::Fault { node, port, kind: fk }
                } else {
                    ProbeEvent::FaultCleared { node, port, kind: fk }
                }
            }
        };
        Some((at, ev))
    }

    /// Reads `--trace-out` text back — the one place JSONL is parsed. One
    /// item per non-blank line: the event, or `None` for a line that is
    /// not one (a trace may interleave other JSONL streams).
    pub fn read_jsonl(text: &str) -> impl Iterator<Item = Option<(u64, ProbeEvent)>> + '_ {
        text.lines().map(str::trim).filter(|line| !line.is_empty()).map(|line| {
            crate::json::Json::parse(line).ok().as_ref().and_then(ProbeEvent::from_json)
        })
    }
}

/// A consumer of probe events. Implementations must be passive observers:
/// they may not influence the simulation (no RNG draws, no event
/// scheduling), which is what keeps probed runs trace-identical to bare
/// runs. The `Any` supertrait lets whoever installed a probe read it back
/// typed from the simulator's `Box<dyn Probe>` (upcast to `&mut dyn Any`,
/// then `downcast_mut`) — no shared handle, no lock per record.
pub trait Probe: Any + Send {
    /// Called from the hot paths with the simulation time and the event.
    fn record(&mut self, at: u64, ev: &ProbeEvent);

    /// The event kinds this probe consumes. [`Fanout`] (and any other
    /// dispatcher) may skip `record` entirely for kinds outside the mask,
    /// so heavy consumers subscribing to a subset pay nothing for the rest.
    /// The default subscribes to everything — existing probes are
    /// unaffected. Must be constant for the probe's lifetime (dispatchers
    /// cache it at installation).
    fn interest(&self) -> KindMask {
        KindMask::ALL
    }

    /// Human-readable dump of whatever the probe retains (ring contents,
    /// counters), used when a run is aborted mid-flight. `None` means the
    /// probe keeps nothing worth printing.
    fn dump(&self) -> Option<String> {
        None
    }

    /// The capture rendered as `--trace-out` JSONL lines, if the probe
    /// holds one.
    fn drain_jsonl(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// The in-memory capture: every event, verbatim, in record order.
impl Probe for Vec<(u64, ProbeEvent)> {
    #[inline]
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        self.push((at, *ev));
    }

    /// Renders the capture as JSONL lines and clears it.
    fn drain_jsonl(&mut self) -> Vec<String> {
        self.drain(..).map(|(at, ev)| ev.to_jsonl(at)).collect()
    }
}

/// A probe that ignores everything — for zero-cost-proof tests ("telemetry
/// off" must equal "telemetry absent").
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl Probe for NullProbe {
    #[inline]
    fn record(&mut self, _at: u64, _ev: &ProbeEvent) {}
}

/// Counts events per kind; the cheapest useful probe (one add per event).
#[derive(Debug, Default, Clone)]
pub struct CountingProbe {
    pub counts: [u64; EventKind::COUNT],
}

impl CountingProbe {
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }
}

impl Probe for CountingProbe {
    #[inline]
    fn record(&mut self, _at: u64, ev: &ProbeEvent) {
        self.counts[ev.kind() as usize] += 1;
    }

    fn dump(&self) -> Option<String> {
        let mut s = String::from("event counts:");
        for k in EventKind::ALL {
            if self.counts[k as usize] > 0 {
                s.push_str(&format!(" {}={}", k.name(), self.counts[k as usize]));
            }
        }
        Some(s)
    }
}

/// Feeds events to several probes in order (e.g. a flight recorder plus a
/// JSONL trace writer in one run), honoring each probe's
/// [`Probe::interest`] mask: the kind is computed once per event and tested
/// against the cached mask before the virtual call, so subscribing a
/// narrow consumer next to a broad one costs the narrow one one AND per
/// event it skips.
#[derive(Default)]
pub struct Fanout {
    entries: Vec<(KindMask, Box<dyn Probe>)>,
}

impl Fanout {
    pub fn new(probes: Vec<Box<dyn Probe>>) -> Self {
        Fanout { entries: probes.into_iter().map(|p| (p.interest(), p)).collect() }
    }
}

impl Probe for Fanout {
    #[inline]
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        let kind = ev.kind();
        for (mask, p) in &mut self.entries {
            if mask.contains(kind) {
                p.record(at, ev);
            }
        }
    }

    fn interest(&self) -> KindMask {
        self.entries.iter().fold(KindMask::NONE, |m, (k, _)| m.union(*k))
    }

    fn dump(&self) -> Option<String> {
        let parts: Vec<String> = self.entries.iter().filter_map(|(_, p)| p.dump()).collect();
        if parts.is_empty() {
            None
        } else {
            Some(parts.join("\n"))
        }
    }

    fn drain_jsonl(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        for (_, p) in &mut self.entries {
            out.extend(p.drain_jsonl());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_all_variants() {
        let evs = [
            ProbeEvent::Enqueue {
                node: 0,
                port: 1,
                queue: QueueClass::Data,
                flow: 2,
                psn: 3,
                bytes: 4,
            },
            ProbeEvent::Dequeue {
                node: 0,
                port: 1,
                queue: QueueClass::Ctrl,
                flow: 2,
                psn: 3,
                bytes: 4,
            },
            ProbeEvent::Trim { node: 0, port: 1, flow: 2, psn: 3 },
            ProbeEvent::Drop { node: 0, port: 1, flow: 2, psn: 3, class: DropClass::Ack },
            ProbeEvent::EcnMark { node: 0, port: 1, flow: 2, psn: 3 },
            ProbeEvent::PfcPause { node: 0, port: 1 },
            ProbeEvent::PfcResume { node: 0, port: 1 },
            ProbeEvent::Tx { node: 0, flow: 2, psn: 3, bytes: 4 },
            ProbeEvent::Retx { node: 0, flow: 2, psn: 3, bytes: 4, cause: RetxCause::Ho },
            ProbeEvent::Timeout { node: 0, flow: 2 },
            ProbeEvent::HoReceived { node: 0, flow: 2 },
            ProbeEvent::Duplicate { node: 0, flow: 2 },
            ProbeEvent::MsgPosted { node: 0, flow: 2, wr_id: 9, bytes: 1024 },
            ProbeEvent::Delivery { node: 0, flow: 2, wr_id: 9, bytes: 1024 },
            ProbeEvent::Fault { node: 0, port: 1, kind: FaultKind::Link },
            ProbeEvent::FaultCleared { node: 0, port: 1, kind: FaultKind::Switch },
        ];
        assert_eq!(evs.len(), EventKind::COUNT);
        let mut c = CountingProbe::default();
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(e.kind(), EventKind::ALL[i]);
            c.record(7, e);
        }
        assert_eq!(c.total(), EventKind::COUNT as u64);
        for k in EventKind::ALL {
            assert_eq!(c.count(k), 1);
        }
    }

    #[test]
    fn jsonl_lines_parse_as_json() {
        let evs = [
            ProbeEvent::Enqueue {
                node: 1,
                port: 2,
                queue: QueueClass::Data,
                flow: 3,
                psn: 4,
                bytes: 1098,
            },
            ProbeEvent::Drop { node: 1, port: 2, flow: 3, psn: 4, class: DropClass::Buffer },
            ProbeEvent::MsgPosted { node: 1, flow: 3, wr_id: 0, bytes: 1 << 20 },
            ProbeEvent::Delivery { node: 1, flow: 3, wr_id: 0, bytes: 1 << 20 },
            ProbeEvent::PfcPause { node: 9, port: 0 },
            ProbeEvent::Drop { node: 1, port: 2, flow: 3, psn: 4, class: DropClass::Fault },
            ProbeEvent::Retx { node: 1, flow: 3, psn: 4, bytes: 1098, cause: RetxCause::Sack },
            ProbeEvent::Fault { node: 4, port: 9, kind: FaultKind::LossModel },
            ProbeEvent::FaultCleared { node: 4, port: 9, kind: FaultKind::PauseStorm },
        ];
        for e in evs {
            let line = e.to_jsonl(123_456);
            let v = crate::json::Json::parse(&line).expect("valid JSON line");
            assert_eq!(v.get("at").and_then(crate::json::Json::as_u64), Some(123_456));
            assert_eq!(
                v.get("ev").and_then(crate::json::Json::as_str),
                Some(e.kind().name()),
                "{line}"
            );
        }
    }

    /// Every variant must survive a to_jsonl → parse → from_json roundtrip
    /// unchanged — the contract that lets offline tools rebuild spans from
    /// a `--trace-out` capture instead of needing an in-process probe.
    #[test]
    fn jsonl_roundtrips_through_from_json() {
        let evs = [
            ProbeEvent::Enqueue {
                node: 7,
                port: 1,
                queue: QueueClass::Data,
                flow: 2,
                psn: 3,
                bytes: 4,
            },
            ProbeEvent::Dequeue {
                node: 7,
                port: 1,
                queue: QueueClass::Ctrl,
                flow: 2,
                psn: 3,
                bytes: 4,
            },
            ProbeEvent::Trim { node: 0, port: 1, flow: 2, psn: 3 },
            ProbeEvent::Drop { node: 0, port: 1, flow: 2, psn: 3, class: DropClass::Buffer },
            ProbeEvent::EcnMark { node: 0, port: 1, flow: 2, psn: 3 },
            ProbeEvent::PfcPause { node: 0, port: 1 },
            ProbeEvent::PfcResume { node: 0, port: 1 },
            ProbeEvent::Tx { node: 0, flow: 2, psn: 3, bytes: 4 },
            ProbeEvent::Retx { node: 0, flow: 2, psn: 3, bytes: 4, cause: RetxCause::Rack },
            ProbeEvent::Timeout { node: 0, flow: 2 },
            ProbeEvent::HoReceived { node: 0, flow: 2 },
            ProbeEvent::Duplicate { node: 0, flow: 2 },
            ProbeEvent::MsgPosted { node: 0, flow: 2, wr_id: 9, bytes: 1 << 40 },
            ProbeEvent::Delivery { node: 0, flow: 2, wr_id: 9, bytes: 1 << 40 },
            ProbeEvent::Fault { node: 0, port: 1, kind: FaultKind::Link },
            ProbeEvent::FaultCleared { node: 0, port: 1, kind: FaultKind::Switch },
        ];
        assert_eq!(evs.len(), EventKind::COUNT);
        for e in evs {
            let v = crate::json::Json::parse(&e.to_jsonl(42)).unwrap();
            assert_eq!(ProbeEvent::from_json(&v), Some((42, e)));
        }
        assert_eq!(ProbeEvent::from_json(&crate::json::Json::obj()), None);
    }

    /// A line whose integers `f64` cannot carry exactly reads as `None`,
    /// never as a neighbouring event: `u64` fields at 2^53 and past it,
    /// `u32` fields past `u32::MAX`. The last exact values still read.
    #[test]
    fn out_of_range_fields_read_as_none() {
        let read = |line: &str| ProbeEvent::read_jsonl(line).next().flatten();
        let edge = 1u64 << 53;
        let ok = ProbeEvent::Delivery { node: 1, flow: 2, wr_id: edge - 1, bytes: edge - 1 };
        assert_eq!(read(&ok.to_jsonl(edge - 1)), Some((edge - 1, ok)));
        for (at, ev) in [
            (edge, ProbeEvent::Timeout { node: 0, flow: 0 }),
            (edge + 1, ProbeEvent::Timeout { node: 0, flow: 0 }),
            (0, ProbeEvent::MsgPosted { node: 0, flow: 0, wr_id: edge + 1, bytes: 0 }),
            (0, ProbeEvent::Delivery { node: 0, flow: 0, wr_id: 0, bytes: u64::MAX }),
        ] {
            assert_eq!(read(&ev.to_jsonl(at)), None, "{ev:?} at {at}");
        }
        let max = ProbeEvent::Timeout { node: u32::MAX, flow: u32::MAX };
        assert_eq!(read(&max.to_jsonl(7)), Some((7, max)));
        for line in [
            r#"{"at":7,"ev":"timeout","node":4294967296,"flow":1}"#,
            r#"{"at":7,"ev":"timeout","node":0,"flow":4294967297}"#,
            r#"{"at":7,"ev":"pfc_pause","node":0,"port":4294967296}"#,
        ] {
            assert_eq!(read(line), None, "{line}");
        }
    }

    /// The Vec capture holds events verbatim and drains them as JSONL.
    #[test]
    fn vec_capture_drains_what_it_recorded() {
        let mut v: Vec<(u64, ProbeEvent)> = Vec::new();
        let evs = [
            (3, ProbeEvent::Timeout { node: 0, flow: 1 }),
            (u64::MAX, ProbeEvent::PfcPause { node: 1, port: 2 }),
        ];
        for (at, ev) in &evs {
            Probe::record(&mut v, *at, ev);
        }
        assert_eq!(v, evs);
        let lines = v.drain_jsonl();
        assert_eq!(lines, evs.map(|(at, ev)| ev.to_jsonl(at)));
        assert!(v.is_empty());
    }

    #[test]
    fn kind_mask_selects_kinds() {
        let m = KindMask::of(&[EventKind::Retx, EventKind::Delivery]);
        assert!(m.contains(EventKind::Retx));
        assert!(m.contains(EventKind::Delivery));
        assert!(!m.contains(EventKind::Tx));
        assert!(KindMask::NONE.is_empty());
        for k in EventKind::ALL {
            assert!(KindMask::ALL.contains(k));
            assert!(KindMask::only(k).contains(k));
        }
        assert_eq!(m.union(KindMask::only(EventKind::Tx)).0, m.with(EventKind::Tx).0);
    }

    /// A filtering consumer inside a `Fanout` must see only its subscribed
    /// kinds, while an unrestricted sibling still sees everything.
    #[test]
    fn fanout_honors_interest_masks() {
        struct RetxOnly(CountingProbe);
        impl Probe for RetxOnly {
            fn record(&mut self, at: u64, ev: &ProbeEvent) {
                self.0.record(at, ev);
            }
            fn interest(&self) -> KindMask {
                KindMask::only(EventKind::Retx)
            }
            fn dump(&self) -> Option<String> {
                Some(format!("retx_only={}", self.0.total()))
            }
        }
        let mut f = Fanout::new(vec![
            Box::new(RetxOnly(CountingProbe::default())),
            Box::new(CountingProbe::default()),
        ]);
        f.record(1, &ProbeEvent::Timeout { node: 0, flow: 1 });
        f.record(2, &ProbeEvent::Retx { node: 0, flow: 1, psn: 0, bytes: 4, cause: RetxCause::Ho });
        f.record(3, &ProbeEvent::Tx { node: 0, flow: 1, psn: 1, bytes: 4 });
        let dump = f.dump().unwrap();
        assert!(dump.contains("retx_only=1"), "{dump}");
        assert!(dump.contains("timeout=1") && dump.contains("tx=1"), "{dump}");
        assert_eq!(f.interest(), KindMask::ALL);
    }

    #[test]
    fn fanout_feeds_every_probe() {
        let mut f = Fanout::new(vec![Box::new(CountingProbe::default()), Box::new(NullProbe)]);
        f.record(1, &ProbeEvent::Timeout { node: 0, flow: 1 });
        f.record(2, &ProbeEvent::Timeout { node: 0, flow: 1 });
        assert!(f.dump().unwrap().contains("timeout=2"));
    }
}
