//! `dcp-telemetry` — observability substrate for the DCP simulation stack.
//!
//! The paper's headline claims are diagnostic (spurious-retransmission
//! ratios, timeout stalls, HO-loss violations), so the simulator needs more
//! than end-of-run aggregate counters. This crate provides the pieces,
//! deliberately free of any simulator dependency so every layer (fabric,
//! transports, workloads, bench harness) can plug in:
//!
//! * [`probe`] — the [`Probe`] trait and the [`ProbeEvent`] vocabulary the
//!   switch/endpoint hot paths speak. Probes are installed as
//!   `Option<&mut dyn Probe>`; the off path is one predictable branch and
//!   events are constructed lazily, so runs without a probe are bit-identical
//!   to runs built without telemetry at all (asserted by the integration
//!   tests).
//! * [`recorder`] — a bounded [`FlightRecorder`] ring buffer of recent
//!   events, dumped automatically when a run fails to quiesce or a counter
//!   invariant trips: silent hangs become actionable traces. Nothing here
//!   keeps a whole run: exports write as the run goes, and the one
//!   in-memory capture is a plain `Vec<(u64, ProbeEvent)>`. JSONL
//!   ([`ProbeEvent::to_jsonl`] / [`ProbeEvent::read_jsonl`]) is how a
//!   capture is written to a file and read back.
//! * [`hist`] — log-linear HDR-style [`LogHistogram`]s for FCT/latency/
//!   queue-depth percentiles (p50/p99/p999) without full sorts.
//! * [`json`] — a tiny dependency-free JSON value type with a renderer, a
//!   field-by-field [`ObjWriter`] for documents too large to hold as one
//!   tree, a parser and a mini schema validator, backing `--metrics-out` /
//!   `--spans-out` structured export (the vendored `serde` is a no-op stub,
//!   so serialization is hand-rolled here once instead of per call site).

pub mod hist;
pub mod json;
pub mod probe;
pub mod recorder;

pub use hist::LogHistogram;
pub use json::{Json, ObjWriter};
pub use probe::{
    CountingProbe, DropClass, EventKind, Fanout, FaultKind, KindMask, NullProbe, Probe, ProbeEvent,
    QueueClass, RetxCause,
};
pub use recorder::FlightRecorder;
