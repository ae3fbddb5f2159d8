//! The outside-in layer trace.
//!
//! Spans are recorded only from this package, around calls *into* each
//! layer: the `Simulator` calls of the benchmark's own drivers, and three
//! passive wrappers the traced pass installs in place of the real objects —
//! [`TimedEndpoint`], [`TimedFaultPlane`], [`TimedProbe`]. A span's self
//! time is its duration minus the time its child spans cover, so the self
//! time of `netsim.run` is the engine (event queue, switches, hosts,
//! routing) and the self time of `run` is the driver loop.
//!
//! A traced rep opens ~10⁷ spans, so the tracer keeps per-name aggregates
//! (count, total, self) and only every [`SAMPLE_EVERY`]th raw span, in
//! memory, and writes them out when the run ends. The tracer is
//! thread-local: every wrapped call happens on the driver thread (the one
//! sharded workload gets no wrappers).
//!
//! A span costs two clock reads and some bookkeeping, ~50 ns, of the order
//! of the calls it wraps. Part of that lands inside the span's own interval
//! and part in its parent's self time, so [`enable`] first measures both
//! parts on empty spans and [`TraceReport::busy_ns`] subtracts them: the
//! per-layer times reported are the layers', not the tracer's.

use dcp_netsim::fault::{FaultPlane, FaultVerdict};
use dcp_netsim::packet::{FlowId, NodeId, Packet, PortId};
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::Nanos;
use dcp_netsim::{Endpoint, EndpointCtx, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_telemetry::{Json, KindMask, Probe, ProbeEvent};
use std::cell::RefCell;
use std::time::Instant;

/// One raw span in every this many is kept (structural spans always are).
pub const SAMPLE_EVERY: u64 = 4096;

macro_rules! spans {
    ($($variant:ident => $name:literal,)+) => {
        /// Every span name the benchmark records.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Span { $($variant,)+ }

        impl Span {
            pub const ALL: &'static [Span] = &[$(Span::$variant,)+];

            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name,)+ }
            }
        }
    };
}

spans! {
    Rep => "rep",
    Setup => "setup",
    Run => "run",
    Verify => "verify",
    WorkloadsGen => "workloads.gen",
    NetsimRun => "netsim.run",
    NetsimInstall => "netsim.install",
    NetsimRemove => "netsim.remove",
    NetsimPost => "netsim.post",
    CorePull => "core.pull",
    CoreOnPacket => "core.on_packet",
    CoreOnTimer => "core.on_timer",
    IrnPull => "transport.irn.pull",
    IrnOnPacket => "transport.irn.on_packet",
    IrnOnTimer => "transport.irn.on_timer",
    RackPull => "transport.racktlp.pull",
    RackOnPacket => "transport.racktlp.on_packet",
    RackOnTimer => "transport.racktlp.on_timer",
    EcPull => "transport.ec.pull",
    EcOnPacket => "transport.ec.on_packet",
    EcOnTimer => "transport.ec.on_timer",
    FaultsOnArrival => "faults.on_arrival",
    FaultsOnControl => "faults.on_control",
    ScopeRecord => "scope.record",
    ScopeDocBuild => "scope.doc_build",
    OracleRecord => "check.oracle.record",
}

/// Count, total and self nanoseconds of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Calls the wrapper [`mark`]ed: pulls that returned a packet, arrivals
    /// the fault plane did not deliver. The ratio to `count` is measured
    /// where the work happens.
    pub marked: u64,
    /// Spans that closed directly under a span of this name.
    pub children: u64,
}

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    name: Span,
    start: u64,
    end: u64,
    id: u64,
    parent: u64,
}

struct Frame {
    name: Span,
    start: u64,
    child_ns: u64,
    id: u64,
}

/// What the tracer itself adds per span, measured on empty spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Overhead {
    /// Nanoseconds inside the span's own interval.
    pub own_ns: f64,
    /// Nanoseconds outside it, billed to the parent's self time.
    pub parent_ns: f64,
}

struct Tracer {
    epoch: Instant,
    agg: Vec<Agg>,
    stack: Vec<Frame>,
    raw: Vec<RawSpan>,
    next_id: u64,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            agg: vec![Agg::default(); Span::ALL.len()],
            stack: Vec::with_capacity(16),
            raw: Vec::new(),
            next_id: 1,
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn enter(&mut self, name: Span) {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now();
        self.stack.push(Frame { name, start, child_ns: 0, id });
    }

    #[inline]
    fn exit(&mut self) {
        let end = self.now();
        let f = self.stack.pop().expect("span exit without enter");
        let dur = end - f.start;
        let a = &mut self.agg[f.name as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(f.child_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                self.agg[p.name as usize].children += 1;
                p.id
            }
            None => 0,
        };
        // Structural spans (rep / setup / run / verify and their direct
        // children at depth ≤ 1) are few: keep them all, so the hierarchy
        // is complete in the file. The hot ones are sampled.
        if self.stack.len() <= 1 || f.id.is_multiple_of(SAMPLE_EVERY) {
            self.raw.push(RawSpan { name: f.name, start: f.start, end, id: f.id, parent });
        }
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

thread_local! {
    static OVERHEAD: std::cell::Cell<Overhead> = const {
        std::cell::Cell::new(Overhead { own_ns: 0.0, parent_ns: 0.0 })
    };
}

/// Starts tracing on this thread, discarding any earlier trace. Measures
/// the tracer's own per-span cost first, through the same [`span`] path the
/// wrappers use.
pub fn enable() {
    const EMPTY_SPANS: u64 = 200_000;
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new()));
    {
        // At the depth of the hot spans (rep → run → netsim.run → endpoint
        // call), where raw spans are sampled, not all kept.
        let _rep = span(Span::Rep);
        let _run = span(Span::Run);
        let _parent = span(Span::NetsimRun);
        for _ in 0..EMPTY_SPANS {
            let _child = span(Span::CorePull);
        }
    }
    let cal = TRACER.with(|t| t.borrow_mut().replace(Tracer::new())).expect("just enabled");
    OVERHEAD.with(|o| {
        o.set(Overhead {
            own_ns: cal.agg[Span::CorePull as usize].total_ns as f64 / EMPTY_SPANS as f64,
            parent_ns: cal.agg[Span::NetsimRun as usize].self_ns as f64 / EMPTY_SPANS as f64,
        })
    });
}

/// Closes the current span when dropped.
pub struct SpanGuard(bool);

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.0 {
            TRACER.with(|t| t.borrow_mut().as_mut().expect("tracer enabled").exit());
        }
    }
}

/// Opens a span if tracing is enabled on this thread; bare reps pay one
/// thread-local read per driver-level call and nothing per event.
#[inline]
pub fn span(name: Span) -> SpanGuard {
    TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tr) => {
            tr.enter(name);
            SpanGuard(true)
        }
        None => SpanGuard(false),
    })
}

/// Counts the innermost open call of `name` as marked (see [`Agg::marked`]).
#[inline]
pub fn mark(name: Span) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.agg[name as usize].marked += 1;
        }
    });
}

/// What a finished trace holds.
pub struct TraceReport {
    agg: Vec<Agg>,
    raw: Vec<RawSpan>,
    pub overhead: Overhead,
}

/// Stops tracing on this thread and returns what was recorded.
pub fn finish() -> TraceReport {
    let tr = TRACER.with(|t| t.borrow_mut().take()).expect("tracing was enabled");
    assert!(tr.stack.is_empty(), "trace finished with {} open span(s)", tr.stack.len());
    TraceReport { agg: tr.agg, raw: tr.raw, overhead: OVERHEAD.with(std::cell::Cell::get) }
}

impl TraceReport {
    pub fn agg(&self, name: Span) -> Agg {
        self.agg[name as usize]
    }

    /// Self time of `name` with the tracer's own cost taken out: what the
    /// code inside those spans (and outside their children) spent.
    pub fn busy_ns(&self, name: Span) -> f64 {
        let a = self.agg(name);
        let tracer =
            a.count as f64 * self.overhead.own_ns + a.children as f64 * self.overhead.parent_ns;
        (a.self_ns as f64 - tracer).max(0.0)
    }

    /// [`TraceReport::busy_ns`] summed over several names.
    pub fn busy_sum(&self, names: &[Span]) -> f64 {
        names.iter().map(|&n| self.busy_ns(n)).sum()
    }

    /// The trace file: per-name aggregates plus the kept raw spans.
    pub fn to_json(&self, workload: &str) -> Json {
        let aggregates: Vec<Json> = Span::ALL
            .iter()
            .filter(|&&s| self.agg(s).count > 0)
            .map(|&s| {
                let a = self.agg(s);
                Json::obj()
                    .set("name", s.name())
                    .set("count", a.count)
                    .set("total_ns", a.total_ns)
                    .set("self_ns", a.self_ns)
                    .set("marked", a.marked)
                    .set("children", a.children)
                    .set("busy_ns", self.busy_ns(s))
            })
            .collect();
        let spans: Vec<Json> = self
            .raw
            .iter()
            .map(|r| {
                Json::obj()
                    .set("name", r.name.name())
                    .set("start_ns", r.start)
                    .set("end_ns", r.end)
                    .set("id", r.id)
                    .set("parent", r.parent)
            })
            .collect();
        Json::obj()
            .set("workload", workload)
            .set("sample_every", SAMPLE_EVERY)
            .set("tracer_own_ns_per_span", self.overhead.own_ns)
            .set("tracer_parent_ns_per_span", self.overhead.parent_ns)
            .set("aggregates", Json::Arr(aggregates))
            .set("spans", Json::Arr(spans))
    }
}

/// The three endpoint span names of one transport layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointSpans {
    pub pull: Span,
    pub on_packet: Span,
    pub on_timer: Span,
}

impl EndpointSpans {
    pub const CORE: Self =
        Self { pull: Span::CorePull, on_packet: Span::CoreOnPacket, on_timer: Span::CoreOnTimer };
    pub const IRN: Self =
        Self { pull: Span::IrnPull, on_packet: Span::IrnOnPacket, on_timer: Span::IrnOnTimer };
    pub const RACKTLP: Self =
        Self { pull: Span::RackPull, on_packet: Span::RackOnPacket, on_timer: Span::RackOnTimer };
    pub const EC: Self =
        Self { pull: Span::EcPull, on_packet: Span::EcOnPacket, on_timer: Span::EcOnTimer };

    pub fn all(self) -> [Span; 3] {
        [self.pull, self.on_packet, self.on_timer]
    }
}

/// An [`Endpoint`] that times `pull` / `on_packet` / `on_timer` of the one
/// it wraps and forwards everything else untouched.
pub struct TimedEndpoint {
    inner: Box<dyn Endpoint>,
    spans: EndpointSpans,
}

impl TimedEndpoint {
    pub fn wrap(inner: Box<dyn Endpoint>, spans: EndpointSpans) -> Box<dyn Endpoint> {
        Box::new(TimedEndpoint { inner, spans })
    }
}

impl Endpoint for TimedEndpoint {
    fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.inner.post(wr_id, op, len);
    }

    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let _s = span(self.spans.on_packet);
        self.inner.on_packet(pkt, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        let _s = span(self.spans.on_timer);
        self.inner.on_timer(token, ctx);
    }

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        let _s = span(self.spans.pull);
        let out = self.inner.pull(ctx);
        if out.is_some() {
            mark(self.spans.pull);
        }
        out
    }

    fn has_pending(&self) -> bool {
        self.inner.has_pending()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        self.inner.recycle(flow, local, remote)
    }
}

/// A [`FaultPlane`] that times the one it wraps.
pub struct TimedFaultPlane {
    inner: Box<dyn FaultPlane>,
}

impl TimedFaultPlane {
    /// Swaps the simulator's installed fault plane for a timed one.
    pub fn install_over(sim: &mut Simulator) {
        let inner = sim.take_fault_plane().expect("a fault plane is installed");
        sim.set_fault_plane(Box::new(TimedFaultPlane { inner }));
    }
}

impl FaultPlane for TimedFaultPlane {
    fn on_arrival(&mut self, now: Nanos, node: NodeId, port: PortId, pkt: &Packet) -> FaultVerdict {
        let _s = span(Span::FaultsOnArrival);
        let v = self.inner.on_arrival(now, node, port, pkt);
        if v != FaultVerdict::Deliver {
            mark(Span::FaultsOnArrival);
        }
        v
    }

    fn on_control(&mut self, token: u64, sim: &mut Simulator) {
        let _s = span(Span::FaultsOnControl);
        self.inner.on_control(token, sim);
    }
}

/// A [`Probe`] that times the one it wraps. `mask` is the set of event
/// kinds the inner probe consumes: the simulator offers every event to an
/// installed probe, and a span around each ignored one would only measure
/// the tracer.
pub struct TimedProbe {
    inner: Box<dyn Probe>,
    mask: KindMask,
    span: Span,
}

impl TimedProbe {
    pub fn wrap(inner: Box<dyn Probe>, mask: KindMask, span: Span) -> Box<dyn Probe> {
        Box::new(TimedProbe { inner, mask, span })
    }
}

impl Probe for TimedProbe {
    #[inline]
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        if !self.mask.contains(ev.kind()) {
            return;
        }
        let _s = span(self.span);
        self.inner.record(at, ev);
    }

    fn interest(&self) -> KindMask {
        self.mask
    }

    fn dump(&self) -> Option<String> {
        self.inner.dump()
    }

    fn drain_jsonl(&mut self) -> Vec<String> {
        self.inner.drain_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        enable();
        {
            let _rep = span(Span::Rep);
            for _ in 0..100 {
                let _run = span(Span::NetsimRun);
                let _ep = span(Span::CorePull);
                std::hint::black_box(0u64);
            }
        }
        let r = finish();
        let (rep, run, pull) = (r.agg(Span::Rep), r.agg(Span::NetsimRun), r.agg(Span::CorePull));
        assert_eq!((rep.count, run.count, pull.count), (1, 100, 100));
        assert_eq!(pull.self_ns, pull.total_ns, "a leaf span is all self time");
        assert_eq!(run.self_ns, run.total_ns - pull.total_ns);
        assert_eq!(rep.self_ns + run.self_ns + pull.self_ns, rep.total_ns);
    }

    #[test]
    fn spans_are_free_when_tracing_is_off() {
        let _s = span(Span::Rep);
    }
}
