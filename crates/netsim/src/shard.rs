//! Sharded conservative-lookahead PDES engine.
//!
//! The simulator's node set is split into topology partitions ("shards"),
//! each owning a calendar queue, a packet pool, an RNG stream and its
//! nodes' completions/telemetry. Shards advance together through *windows*
//! `[tmin, tmin + L)` where `L` (the **lookahead**) is the minimum
//! propagation delay of any cross-shard link: an event processed at `t`
//! inside the window can only influence another shard at `t + L ≥ tmin +
//! L`, so every event strictly before the window end is safe to process
//! without seeing the other shards. Cross-shard emissions travel through
//! per-(src, dst) mailboxes and are delivered at window close, sorted by
//! `(at, src_shard, mail_key)` — a pure function of per-shard event order,
//! which is what makes the engine deterministic:
//!
//! * For a fixed shard count, traces are byte-identical across worker
//!   thread counts and repeated runs: worker threads only change *who*
//!   walks a shard through a window, never the per-shard event sequence,
//!   the mailbox contents, or the merge orders (completions by `(at,
//!   shard)`, probe records by shard index at each window close).
//! * With one shard the engine *is* the PR-3 serial engine: same queue,
//!   same pool, same RNG, same probe call sites — digests are
//!   byte-identical to the pre-sharding simulator.
//!
//! Control events ([`Event::Control`]) act on the whole simulator, so in
//! sharded mode they live in a separate serial queue and execute at a
//! global barrier *before* any node event at the same timestamp. Fault
//! planes and adversaries are consulted per-arrival under a mutex; their
//! observable state must be per-link (each link's arrivals are processed
//! by exactly one shard, in deterministic order) — the determinism matrix
//! test enforces this for the shipped planes.

use crate::endpoint::Completion;
use crate::equeue::EventQueue;
use crate::fault::{FaultPlane, FaultVerdict};
use crate::packet::{NodeId, Packet, PortId};
use crate::pool::{PacketPool, PktRef};
use crate::sim::{Event, Node, NodeCtx, Simulator};
use crate::stats::NetStats;
use crate::time::Nanos;
use crate::topology::Topology;
use crate::twheel::TimerWheel;
use dcp_rdma::headers::DcpTag;
use dcp_telemetry::{DropClass, Probe, ProbeEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};

/// "No pending event" sentinel timestamp.
pub(crate) const IDLE: Nanos = Nanos::MAX;

/// `DCP_SHARDS` (default 1), parsed once per process. `auto` picks a shard
/// count from the machine: sharding costs window-close barriers and mailbox
/// sorting, which only pay for themselves with real parallelism, so `auto`
/// resolves to 1 on single-threaded hosts (see EXPERIMENTS.md, the
/// `fig14_clos_1024_sh8` note) and to the worker-thread count (capped at 8
/// — partition quality degrades beyond pod boundaries) otherwise.
pub fn env_shards() -> usize {
    static SHARDS: OnceLock<usize> = OnceLock::new();
    *SHARDS.get_or_init(|| match std::env::var("DCP_SHARDS") {
        Ok(v) if v.trim().eq_ignore_ascii_case("auto") => {
            let threads = env_threads();
            if threads < 2 {
                1
            } else {
                threads.min(8)
            }
        }
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("DCP_SHARDS={v:?} is not a positive integer or \"auto\"; using 1");
                1
            }
        },
        Err(_) => 1,
    })
}

/// `DCP_THREADS` (default: available parallelism), parsed once per process.
/// Shared with `dcp_workloads::sweep` as the worker count for both sweeps
/// and the sharded engine.
pub fn env_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let default = || std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        match std::env::var("DCP_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("DCP_THREADS={v:?} is not a positive integer; using default");
                    default()
                }
            },
            Err(_) => default(),
        }
    })
}

/// Derives shard `ix`'s RNG seed from the run seed. Shard 0 keeps the run
/// seed itself so a 1-shard simulator is bit-compatible with the serial
/// engine; the others get SplitMix64-scrambled streams.
pub(crate) fn shard_seed(seed: u64, ix: usize) -> u64 {
    if ix == 0 {
        return seed;
    }
    let mut z = seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(ix as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A cross-shard event in transit. `key` is the source shard's emission
/// counter: sorting deliveries by `(at, src, key)` reproduces a total order
/// that depends only on per-shard event sequences, never on thread timing.
pub(crate) struct MailEntry {
    pub(crate) at: Nanos,
    pub(crate) src: u32,
    pub(crate) key: u64,
    pub(crate) ev: Event,
    /// The detached packet for `PacketArrive` mail; re-homed into the
    /// destination shard's pool at delivery (the `PktRef` in `ev` is dead).
    pub(crate) pkt: Option<Packet>,
}

/// Per-shard probe buffer: hot-path `record` calls append here and the
/// engine drains buffers into the real probe at each window close — merged
/// by timestamp with a stable shard-index tie-break (see
/// [`merge_probe_buffers`]), the same order whether a window ran serially
/// or on worker threads.
#[derive(Default)]
pub(crate) struct BufProbe {
    pub(crate) buf: Vec<(Nanos, ProbeEvent)>,
}

impl Probe for BufProbe {
    #[inline]
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        self.buf.push((at, *ev));
    }
}

/// One partition of the fabric: its own clock, queue, pool, RNG stream and
/// output buffers. With one shard this is exactly the serial engine's
/// state, field for field.
pub(crate) struct Shard {
    pub(crate) now: Nanos,
    pub(crate) seq: u64,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) pool: PacketPool,
    pub(crate) rng: StdRng,
    pub(crate) completions: VecDeque<Completion>,
    pub(crate) scratch: Vec<(Nanos, Event)>,
    pub(crate) events: u64,
    pub(crate) fault_stats: NetStats,
    pub(crate) fault_immune: HashSet<PktRef>,
    pub(crate) bufp: BufProbe,
    /// Emission counter for cross-shard mail keys.
    pub(crate) mail_seq: u64,
    /// Reused staging vector for sorting incoming mail at delivery.
    pub(crate) mail_scratch: Vec<MailEntry>,
    /// Endpoint timers, segregated from the calendar queue: a mostly-idle
    /// million-QP host keeps its armed RTOs here at O(1) arm/fire instead
    /// of carrying one calendar entry per idle QP. Shares the `seq`
    /// counter, so both structures merge into one `(at, seq)` total order.
    pub(crate) twheel: TimerWheel<Event>,
    /// High-water mark of `queue.len() + twheel.len()`.
    pub(crate) peak_pending: usize,
}

impl Shard {
    pub(crate) fn new(rng_seed: u64) -> Self {
        Shard {
            now: 0,
            seq: 0,
            queue: EventQueue::new(),
            pool: PacketPool::new(),
            rng: StdRng::seed_from_u64(rng_seed),
            completions: VecDeque::new(),
            scratch: Vec::new(),
            events: 0,
            fault_stats: NetStats::default(),
            fault_immune: HashSet::new(),
            bufp: BufProbe::default(),
            mail_seq: 0,
            mail_scratch: Vec::new(),
            twheel: TimerWheel::new(),
            peak_pending: 0,
        }
    }

    #[inline]
    pub(crate) fn schedule(&mut self, at: Nanos, ev: Event) {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        self.seq += 1;
        match ev {
            Event::EndpointTimer { .. } => self.twheel.insert(at, self.seq, ev),
            _ => self.queue.insert(at, self.seq, ev),
        }
        self.peak_pending = self.peak_pending.max(self.queue.len() + self.twheel.len());
    }

    /// Pending events in this shard (calendar queue + timer wheel).
    #[inline]
    pub(crate) fn pending(&self) -> usize {
        self.queue.len() + self.twheel.len()
    }

    /// `(at, seq)` of the shard's earliest pending event across both
    /// structures. The shared `seq` counter makes the comparison exact.
    #[inline]
    pub(crate) fn next_key(&mut self) -> Option<(Nanos, u64)> {
        match (self.queue.next_key(), self.twheel.next_key()) {
            (Some(q), Some(t)) => Some(q.min(t)),
            (q, t) => q.or(t),
        }
    }

    #[inline]
    pub(crate) fn next_at(&mut self) -> Option<Nanos> {
        self.next_key().map(|(at, _)| at)
    }

    /// Pops the shard's globally earliest event if it is due at or before
    /// `limit` ([`IDLE`] pops whatever is next) — one look at each
    /// structure's minimum decides both *whether* and *where from*. The
    /// merged order is byte-identical to the historical single-queue order
    /// because both structures key on the same `(at, seq)` space.
    #[inline]
    pub(crate) fn pop_due(&mut self, limit: Nanos) -> Option<(Nanos, u64, Event)> {
        let (q, t) = (self.queue.next_key(), self.twheel.next_key());
        let from_wheel = match (q, t) {
            (Some(q), Some(t)) => t < q,
            (q, _) => q.is_none(),
        };
        let (at, _) = if from_wheel { t } else { q }?;
        if at > limit {
            return None;
        }
        if from_wheel {
            self.twheel.pop()
        } else {
            self.queue.pop()
        }
    }
}

/// Raw view over the simulator's node vector, handed to every worker.
///
/// # Safety
/// The partition maps each node to exactly one shard and a shard is walked
/// by exactly one worker per window, so concurrent `node_mut` calls are
/// disjoint **provided handlers never touch other nodes** — which is the
/// engine's standing invariant (see `sim` module docs: handlers only emit
/// `(time, Event)` pairs through `NodeCtx`). A handler runs on the
/// `&mut Node` this view hands out, in place, for the whole call; that
/// reference stays unique because a `NodeCtx` carries no path back to the
/// view, so nothing a handler can reach can mint a second one. Cross-node
/// effects (cable flips, switch failure) are serial-only control-plane
/// paths.
#[derive(Clone, Copy)]
pub(crate) struct NodesView {
    ptr: *mut Node,
    len: usize,
}

unsafe impl Send for NodesView {}
unsafe impl Sync for NodesView {}

impl NodesView {
    pub(crate) fn new(nodes: &mut [Node]) -> Self {
        NodesView { ptr: nodes.as_mut_ptr(), len: nodes.len() }
    }

    /// # Safety
    /// Caller must hold the only live reference to node `ix` (its shard's
    /// worker, or serial code).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn node_mut(&self, ix: usize) -> &mut Node {
        debug_assert!(ix < self.len);
        unsafe { &mut *self.ptr.add(ix) }
    }
}

/// Read-only engine context shared by all workers for one run segment.
#[derive(Clone, Copy)]
pub(crate) struct EngineShared<'a> {
    pub(crate) view: NodesView,
    pub(crate) node_shard: &'a [u32],
    pub(crate) n: usize,
    /// `n × n` mailbox matrix, indexed `src * n + dst`.
    pub(crate) mail: &'a [Mutex<Vec<MailEntry>>],
    pub(crate) plane: Option<&'a Mutex<Box<dyn FaultPlane>>>,
    pub(crate) probe_on: bool,
}

/// Runs shard `ix` through one window: every pending event strictly before
/// `w_end` (including ones the shard emits to itself inside the window).
pub(crate) fn run_window(shard: &mut Shard, ix: usize, sh: &EngineShared<'_>, w_end: Nanos) {
    debug_assert!(w_end > 0, "a window ends after the event that opened it");
    while process_next(shard, ix, sh, w_end - 1).is_some() {}
}

/// Pops and dispatches the shard's earliest event if it is due at or before
/// `limit`; returns its timestamp.
pub(crate) fn process_next(
    shard: &mut Shard,
    ix: usize,
    sh: &EngineShared<'_>,
    limit: Nanos,
) -> Option<Nanos> {
    let (at, _seq, ev) = shard.pop_due(limit)?;
    debug_assert!(at >= shard.now);
    shard.now = at;
    shard.events += 1;
    let node_id = ev.node().expect("Control events never enter shard queues in sharded mode");
    if let Event::PacketArrive { node, port, pkt } = ev {
        if sh.plane.is_some() && fault_intercept(shard, ix, sh, node, port, pkt) {
            return Some(at);
        }
    }
    with_shard_node(shard, ix, sh, node_id, |node, ctx| node.handle(ev, ctx));
    Some(at)
}

/// Shard-local `with_node`: runs `f` in place on a node this shard owns,
/// with the shard's pool/RNG/completions, then routes every emitted event —
/// same shard straight into the queue, cross-shard into a mailbox.
pub(crate) fn with_shard_node(
    shard: &mut Shard,
    ix: usize,
    sh: &EngineShared<'_>,
    id: NodeId,
    f: impl FnOnce(&mut Node, &mut NodeCtx),
) {
    debug_assert_eq!(sh.node_shard[id.0 as usize] as usize, ix, "node walked by wrong shard");
    // SAFETY: `id` belongs to shard `ix` (asserted above) and this shard is
    // walked by exactly one worker, so no other thread derives a reference
    // to this node; on this thread `f` sees only the node and a `NodeCtx`
    // over the shard's own fields (handlers never touch other nodes), so
    // the reference is unique until `f` returns.
    let node = unsafe { sh.view.node_mut(id.0 as usize) };
    let mut out = std::mem::take(&mut shard.scratch);
    {
        let mut ctx = NodeCtx {
            now: shard.now,
            pool: &mut shard.pool,
            rng: &mut shard.rng,
            out: &mut out,
            completions: &mut shard.completions,
            probe: sh.probe_on.then_some(&mut shard.bufp as &mut dyn Probe),
        };
        f(node, &mut ctx);
    }
    for (at, ev) in out.drain(..) {
        route_emission(shard, ix, sh, at, ev);
    }
    shard.scratch = out;
}

/// Routes one emitted event: same-shard events are scheduled directly,
/// cross-shard ones have their packet detached from the source pool and are
/// posted into the `(src, dst)` mailbox for delivery at window close.
fn route_emission(shard: &mut Shard, ix: usize, sh: &EngineShared<'_>, at: Nanos, ev: Event) {
    let node = ev.node().expect("node handlers never emit Control events");
    let dst = sh.node_shard[node.0 as usize] as usize;
    if dst == ix {
        shard.schedule(at, ev);
        return;
    }
    let pkt = match ev {
        Event::PacketArrive { pkt, .. } => Some(shard.pool.take(pkt)),
        _ => None,
    };
    shard.mail_seq += 1;
    let entry = MailEntry { at, src: ix as u32, key: shard.mail_seq, ev, pkt };
    sh.mail[ix * sh.n + dst].lock().unwrap().push(entry);
}

/// Drains every mailbox addressed to shard `ix`, sorts by `(at, src, key)`
/// and inserts with fresh destination sequence numbers. Called exactly once
/// per shard per window close, after all shards finished the window.
pub(crate) fn deliver_mail(shard: &mut Shard, ix: usize, sh: &EngineShared<'_>) {
    let mut incoming = std::mem::take(&mut shard.mail_scratch);
    debug_assert!(incoming.is_empty());
    for src in 0..sh.n {
        if src == ix {
            continue;
        }
        incoming.append(&mut sh.mail[src * sh.n + ix].lock().unwrap());
    }
    incoming.sort_unstable_by_key(|m| (m.at, m.src, m.key));
    for mut entry in incoming.drain(..) {
        if let Some(pkt) = entry.pkt.take() {
            let fresh = shard.pool.insert(pkt);
            match &mut entry.ev {
                Event::PacketArrive { pkt, .. } => *pkt = fresh,
                _ => unreachable!("mail with a packet is always PacketArrive"),
            }
        }
        shard.schedule(entry.at, entry.ev);
    }
    shard.mail_scratch = incoming;
}

/// Sharded twin of `Simulator::fault_intercept`: consults the shared plane
/// (under its mutex) about an arrival on a link this shard owns. Returns
/// `true` when the packet was consumed. Plane state must be per-link for
/// this to stay deterministic; see module docs.
fn fault_intercept(
    shard: &mut Shard,
    ix: usize,
    sh: &EngineShared<'_>,
    node: NodeId,
    port: PortId,
    pkt: PktRef,
) -> bool {
    // Empty unless an adversary issued a Delay/Reorder/Duplicate.
    if !shard.fault_immune.is_empty() && shard.fault_immune.remove(&pkt) {
        return false;
    }
    let verdict = match sh.plane {
        Some(plane) => plane.lock().unwrap().on_arrival(shard.now, node, port, &shard.pool[pkt]),
        None => FaultVerdict::Deliver,
    };
    match verdict {
        FaultVerdict::Deliver => false,
        FaultVerdict::Drop => {
            fault_discard(shard, sh, node, port, pkt);
            true
        }
        FaultVerdict::Duplicate { after } => {
            let copy = shard.pool.insert(shard.pool[pkt].clone());
            match shard.pool[copy].dcp_tag() {
                DcpTag::HeaderOnly => shard.fault_stats.dup_ho_injected += 1,
                _ if shard.pool[copy].is_data() => shard.fault_stats.dup_data_injected += 1,
                _ => {}
            }
            shard.fault_immune.insert(copy);
            let at = shard.now + after;
            shard.schedule(at, Event::PacketArrive { node, port, pkt: copy });
            false
        }
        FaultVerdict::Delay { by } | FaultVerdict::Reorder { by } => {
            shard.fault_immune.insert(pkt);
            let at = shard.now + by;
            shard.schedule(at, Event::PacketArrive { node, port, pkt });
            true
        }
        FaultVerdict::Corrupt => {
            // SAFETY: `node` belongs to this shard (its arrival is being
            // processed here); read-only peek at its config.
            let can_trim = matches!(
                unsafe { &*(sh.view.node_mut(node.0 as usize) as *const Node) },
                Node::Switch(s) if s.cfg.trimming
            ) && shard.pool[pkt].dcp_tag() == DcpTag::Data;
            if can_trim {
                with_shard_node(shard, ix, sh, node, |n, ctx| {
                    if let Node::Switch(sw) = n {
                        sw.on_corrupt(port, pkt, ctx);
                    }
                });
            } else {
                fault_discard(shard, sh, node, port, pkt);
            }
            true
        }
    }
}

/// Sharded twin of `Simulator::fault_discard`: books the wire loss on the
/// shard's stats and probe buffer, releases the handle.
fn fault_discard(
    shard: &mut Shard,
    sh: &EngineShared<'_>,
    node: NodeId,
    port: PortId,
    pkt: PktRef,
) {
    let (is_ho, is_data, flow, psn) = {
        let p = &shard.pool[pkt];
        (p.dcp_tag() == DcpTag::HeaderOnly, p.is_data(), p.flow.0, p.psn())
    };
    if is_ho {
        shard.fault_stats.ho_drops += 1;
    } else if is_data {
        shard.fault_stats.fault_drops += 1;
    } else {
        shard.fault_stats.ack_drops += 1;
    }
    if sh.probe_on {
        shard.bufp.record(
            shard.now,
            &ProbeEvent::Drop {
                node: node.0,
                port: port as u32,
                flow,
                psn,
                class: DropClass::Fault,
            },
        );
    }
    shard.pool.release(pkt);
}

/// Outcome of one serial engine micro-step (`step_sharded`).
pub(crate) enum StepOut {
    /// Processed one event at this timestamp.
    Event(Nanos),
    /// Closed a window (mail delivered, probes flushed); no event processed
    /// this call. A safe point to stop or hand the next windows to workers.
    Closed,
    /// Nothing pending anywhere.
    Idle,
    /// The next due thing is past the caller's limit; window state (if any)
    /// is kept open so a later call resumes exactly where this one stopped.
    Limited,
}

/// An in-progress serial window walk. Keeping partial windows open across
/// `step`/`run_until` calls makes window boundaries a pure function of
/// event content — independent of how a driver slices its time limits, and
/// therefore identical to the boundaries the parallel path computes.
#[derive(Clone, Copy)]
pub(crate) struct SerialWindow {
    pub(crate) w_end: Nanos,
    /// Next shard index to scan; reset to 0 when serial code inserts events
    /// mid-window (the insert may land inside an already-walked shard).
    pub(crate) cursor: usize,
}

impl Simulator {
    /// Splits the engine's disjoint parts for a run segment: the shard
    /// array and everything workers share.
    pub(crate) fn engine_core(&mut self) -> (&mut [Shard], EngineShared<'_>) {
        let n = self.shards.len();
        let probe_on = self.probe.is_some();
        let sh = EngineShared {
            view: NodesView::new(&mut self.nodes),
            node_shard: &self.node_shard,
            n,
            mail: &self.mail,
            plane: self.fault_plane.as_ref(),
            probe_on,
        };
        (&mut self.shards, sh)
    }

    /// Earliest pending node event across all shards, or [`IDLE`].
    pub(crate) fn shards_next_at(&mut self) -> Nanos {
        self.shards.iter_mut().filter_map(|s| s.next_at()).min().unwrap_or(IDLE)
    }

    /// Earliest pending control event, or [`IDLE`].
    pub(crate) fn next_control_at(&self) -> Nanos {
        self.controls.peek().map(|r| r.0 .0).unwrap_or(IDLE)
    }

    /// One micro-step of the sharded engine, processing at most one event
    /// (or one control, or one window close) at or before `limit`.
    pub(crate) fn step_sharded(&mut self, limit: Nanos) -> StepOut {
        if let Some(w) = self.serial_window {
            let (shards, sh) = self.engine_core();
            let mut cursor = w.cursor;
            let last = w.w_end - 1;
            while cursor < sh.n {
                let shard = &mut shards[cursor];
                if let Some(t) = process_next(shard, cursor, &sh, limit.min(last)) {
                    self.serial_window = Some(SerialWindow { w_end: w.w_end, cursor });
                    self.clock = self.clock.max(t);
                    return StepOut::Event(t);
                }
                // Nothing due: either the caller's limit cut the window
                // short here, or this shard is done with it.
                if limit < last && shard.next_at().is_some_and(|at| at <= last) {
                    self.serial_window = Some(SerialWindow { w_end: w.w_end, cursor });
                    return StepOut::Limited;
                }
                cursor += 1;
            }
            // Window exhausted: deliver mail everywhere, flush probes.
            for (ix, shard) in shards.iter_mut().enumerate().take(sh.n) {
                deliver_mail(shard, ix, &sh);
            }
            self.flush_probes_serial();
            self.serial_window = None;
            return StepOut::Closed;
        }
        let tmin = self.shards_next_at();
        let ctl = self.next_control_at();
        if tmin == IDLE && ctl == IDLE {
            return StepOut::Idle;
        }
        if ctl <= tmin {
            if ctl > limit {
                return StepOut::Limited;
            }
            let std::cmp::Reverse((at, _seq, token)) = self.controls.pop().expect("peeked control");
            self.ctl_events += 1;
            self.exec_control(at, token);
            return StepOut::Event(at);
        }
        if tmin > limit {
            return StepOut::Limited;
        }
        self.serial_window =
            Some(SerialWindow { w_end: tmin.saturating_add(self.lookahead).min(ctl), cursor: 0 });
        // Tail-call into the open-window branch to process the first event.
        self.step_sharded(limit)
    }

    /// Executes one control event: the fault plane acts on the full
    /// simulator (serial by construction — controls run between windows).
    pub(crate) fn exec_control(&mut self, at: Nanos, token: u64) {
        debug_assert!(at >= self.clock);
        self.clock = self.clock.max(at);
        if let Some(m) = self.fault_plane.take() {
            let mut plane = m.into_inner().unwrap();
            plane.on_control(token, self);
            self.fault_plane = Some(Mutex::new(plane));
        }
    }

    /// Drains every shard's probe buffer into the real probe in timestamp
    /// order (stable shard-index tie-break) — the canonical record order at
    /// a window close. Single-shard runs drain directly: their buffer is
    /// already time-ordered.
    pub(crate) fn flush_probes_serial(&mut self) {
        let Some(m) = self.probe.as_mut() else { return };
        let probe = &mut **m.get_mut().unwrap();
        if self.shards.len() == 1 {
            for (at, ev) in self.shards[0].bufp.buf.drain(..) {
                probe.record(at, &ev);
            }
            return;
        }
        for shard in &mut self.shards {
            self.probe_merge.append(&mut shard.bufp.buf);
        }
        merge_probe_buffers(&mut self.probe_merge, probe);
    }

    /// The sharded run loop: serial micro-steps, escaping to parallel
    /// window sessions whenever ≥1 full window fits under `limit` and
    /// worker threads are configured. Returns the clock if any event was
    /// processed. `stop_on_comps` stops at the first window close (or
    /// control boundary) with completions pending — the `advance` API.
    pub(crate) fn pump(&mut self, bound: Option<Nanos>, stop_on_comps: bool) -> Option<Nanos> {
        let limit = bound.unwrap_or(IDLE);
        let mut progressed = false;
        'outer: loop {
            // Go wide when no window is mid-walk and the next full window is
            // entirely at or below the limit.
            if self.workers > 1 && self.shards.len() > 1 && self.serial_window.is_none() {
                let tmin = self.shards_next_at();
                let ctl = self.next_control_at();
                if tmin != IDLE && tmin < ctl && tmin <= limit {
                    let w_end = tmin.saturating_add(self.lookahead).min(ctl);
                    if w_end <= limit.saturating_add(1) {
                        if self.parallel_session(limit, stop_on_comps) {
                            progressed = true;
                        }
                        if stop_on_comps && self.have_completions() {
                            break 'outer;
                        }
                        continue 'outer;
                    }
                }
            }
            match self.step_sharded(limit) {
                StepOut::Event(_) => progressed = true,
                StepOut::Closed => {
                    if stop_on_comps && self.have_completions() {
                        break 'outer;
                    }
                }
                StepOut::Idle | StepOut::Limited => break 'outer,
            }
        }
        progressed.then_some(self.clock)
    }

    pub(crate) fn have_completions(&self) -> bool {
        self.shards.iter().any(|s| !s.completions.is_empty())
    }

    /// Runs consecutive windows on worker threads until a stop condition:
    /// completions pending (when `stop_on_comps`), idle, a control due, or
    /// the next window not fitting under `limit`. Returns whether any event
    /// was processed.
    ///
    /// Protocol per window (all workers in lockstep):
    /// * **A** — walk owned shards through `[.., w_end)`; records land in
    ///   each shard's probe buffer. *barrier*
    /// * **B** — deliver owned shards' mail, swap probe buffers into the
    ///   per-shard flush slots, publish `next_at`/completion counts.
    ///   *barrier*
    /// * **C** — worker 0 drains the flush slots into the real probe in
    ///   shard index order; every worker independently computes the same
    ///   continue/stop decision from the published atomics.
    ///
    /// Worker 0's phase-C flush is ordered before any other worker's next
    /// phase-B slot swap by the next phase-A barrier, so slots are never
    /// touched concurrently.
    pub(crate) fn parallel_session(&mut self, limit: Nanos, stop_on_comps: bool) -> bool {
        let n = self.shards.len();
        let workers = self.workers.min(n);
        let ctl = self.next_control_at();
        let lookahead = self.lookahead;
        let tmin = self.shards_next_at();
        debug_assert!(tmin != IDLE && tmin < ctl && tmin <= limit);
        let w_end0 = tmin.saturating_add(lookahead).min(ctl);
        let events_before: u64 = self.shards.iter().map(|s| s.events).sum();

        let barrier = Barrier::new(workers);
        let next_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(IDLE)).collect();
        let comp_len: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();

        // Split shards into per-worker groups (round-robin by index).
        let probe = &self.probe;
        let slots: &[Mutex<Vec<(Nanos, ProbeEvent)>>] = &self.probe_slots;
        let sh = EngineShared {
            view: NodesView::new(&mut self.nodes),
            node_shard: &self.node_shard,
            n,
            mail: &self.mail,
            plane: self.fault_plane.as_ref(),
            probe_on: probe.is_some(),
        };
        let mut groups: Vec<Vec<(usize, &mut Shard)>> = (0..workers).map(|_| Vec::new()).collect();
        for (ix, shard) in self.shards.iter_mut().enumerate() {
            groups[ix % workers].push((ix, shard));
        }

        std::thread::scope(|scope| {
            let barrier = &barrier;
            let next_at = &next_at;
            let comp_len = &comp_len;
            for (wi, group) in groups.drain(1..).enumerate() {
                std::thread::Builder::new()
                    .name(format!("dcp-shard-{}", wi + 1))
                    .spawn_scoped(scope, move || {
                        session_worker(
                            group,
                            slots,
                            sh,
                            barrier,
                            next_at,
                            comp_len,
                            None,
                            w_end0,
                            limit,
                            ctl,
                            lookahead,
                            stop_on_comps,
                        );
                    })
                    .expect("spawn dcp-shard worker");
            }
            // This thread is worker 0 and owns the real-probe flush.
            session_worker(
                groups.remove(0),
                slots,
                sh,
                barrier,
                next_at,
                comp_len,
                probe.as_ref(),
                w_end0,
                limit,
                ctl,
                lookahead,
                stop_on_comps,
            );
        });

        let max_now = self.shards.iter().map(|s| s.now).max().unwrap_or(0);
        self.clock = self.clock.max(max_now);
        let events_after: u64 = self.shards.iter().map(|s| s.events).sum();
        events_after > events_before
    }
}

impl Simulator {
    /// Partitions the fabric into (up to) `nshards` shards along topology
    /// boundaries: hosts stay with their leaf, leaves group by pod (or
    /// stand alone), aggregation switches follow their pod, and
    /// spines/cores spread round-robin. The lookahead becomes the minimum
    /// cross-shard link delay.
    ///
    /// Must run after the topology is wired and before any traffic: the
    /// call is a no-op (returning `false`) if the simulator is already
    /// sharded, has processed or scheduled events, or if the cut would
    /// yield zero lookahead (a cross-shard link with no delay).
    pub fn partition(&mut self, topo: &Topology, nshards: usize) -> bool {
        if nshards <= 1 || self.shards.len() > 1 {
            return false;
        }
        {
            let s0 = &mut self.shards[0];
            if s0.events > 0 || s0.pending() > 0 || !s0.pool.is_empty() {
                return false;
            }
        }
        if !self.controls.is_empty() {
            return false;
        }

        // Build contiguous groups: pods when known, else single leaves;
        // leafless topologies (back-to-back) give each host its own group.
        let mut groups: Vec<Vec<u32>>;
        let mut group_hosts: Vec<usize>;
        if topo.leaves.is_empty() {
            groups = topo.hosts.iter().map(|h| vec![h.0]).collect();
            group_hosts = vec![1; groups.len()];
        } else {
            let ngroups = if topo.pod_of_leaf.is_empty() {
                topo.leaves.len()
            } else {
                topo.pod_of_leaf.iter().max().map(|m| m + 1).unwrap_or(0)
            };
            groups = vec![Vec::new(); ngroups];
            group_hosts = vec![0; ngroups];
            let mut leaf_group: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for (l, &leaf) in topo.leaves.iter().enumerate() {
                let gi = if topo.pod_of_leaf.is_empty() { l } else { topo.pod_of_leaf[l] };
                groups[gi].push(leaf.0);
                leaf_group.insert(leaf.0, gi);
            }
            for (a, &agg) in topo.aggs.iter().enumerate() {
                groups[topo.pod_of_agg[a]].push(agg.0);
            }
            for &h in &topo.hosts {
                let leaf = self.host(h).link.expect("host is wired to its leaf").to;
                let gi = leaf_group[&leaf.0];
                groups[gi].push(h.0);
                group_hosts[gi] += 1;
            }
        }
        let nshards_eff = nshards.min(groups.len());
        if nshards_eff <= 1 {
            return false;
        }

        // Greedy contiguous chunking balanced by host count; spines/cores
        // round-robin; anything outside the topology lands on shard 0.
        let total_hosts: usize = group_hosts.iter().sum();
        let mut assign = vec![0u32; self.nodes.len()];
        let mut shard = 0usize;
        let mut cum = 0usize;
        for (gi, members) in groups.iter().enumerate() {
            for &m in members {
                assign[m as usize] = shard as u32;
            }
            cum += group_hosts[gi];
            let next = shard + 1;
            let groups_left = groups.len() - gi - 1;
            if next < nshards_eff
                && groups_left >= nshards_eff - next
                && (cum * nshards_eff >= total_hosts * next || groups_left == nshards_eff - next)
            {
                shard = next;
            }
        }
        for (i, &s) in topo.spines.iter().enumerate() {
            assign[s.0 as usize] = (i % nshards_eff) as u32;
        }
        for (i, &c) in topo.cores.iter().enumerate() {
            assign[c.0 as usize] = (i % nshards_eff) as u32;
        }

        // Lookahead = min propagation delay over links that cross the cut.
        let mut la = IDLE;
        for (ix, node) in self.nodes.iter().enumerate() {
            let s = assign[ix];
            match node {
                Node::Host(h) => {
                    if let Some(l) = h.link {
                        if assign[l.to.0 as usize] != s {
                            la = la.min(l.delay);
                        }
                    }
                }
                Node::Switch(sw) => {
                    for p in &sw.ports {
                        if assign[p.link.to.0 as usize] != s {
                            la = la.min(p.link.delay);
                        }
                    }
                }
            }
        }
        if la == 0 {
            // A zero-delay cross-shard link leaves no safe window.
            return false;
        }

        let seed = self.seed;
        for i in 1..nshards_eff {
            self.shards.push(Shard::new(shard_seed(seed, i)));
        }
        self.node_shard = assign;
        self.lookahead = la;
        self.mail = (0..nshards_eff * nshards_eff).map(|_| Mutex::new(Vec::new())).collect();
        self.probe_slots = (0..nshards_eff).map(|_| Mutex::new(Vec::new())).collect();
        self.workers = env_threads();
        true
    }

    /// Applies the `DCP_SHARDS` environment partitioning; topology builders
    /// call this as their last step. No-op after
    /// [`Simulator::disable_auto_partition`].
    pub fn auto_partition(&mut self, topo: &Topology) {
        if !self.auto_partition_enabled {
            return;
        }
        let n = env_shards();
        if n > 1 {
            self.partition(topo, n);
        }
    }

    /// Makes topology builders ignore `DCP_SHARDS`, so tests control
    /// sharding explicitly via [`Simulator::partition`]. Call before
    /// building the topology.
    pub fn disable_auto_partition(&mut self) {
        self.auto_partition_enabled = false;
    }

    /// Caps the worker threads used by parallel window sessions (default:
    /// `DCP_THREADS`). `1` keeps sharded runs single-threaded — same
    /// digests, no threads.
    pub fn set_workers(&mut self, n: usize) {
        self.workers = n.max(1);
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The conservative-lookahead horizon (min cross-shard link delay);
    /// [`IDLE`]-valued when unsharded or when no link crosses the cut.
    pub fn lookahead_ns(&self) -> Nanos {
        self.lookahead
    }
}

/// Delivers a shard-major concatenation of per-shard probe buffers to the
/// real probe in timestamp order. A window's buffers are each internally
/// time-sorted but the serial walk (and the worker split) visits shards one
/// after another, so the concatenation interleaves out of order across
/// shards; the *stable* sort restores global `at` order while ties keep
/// shard-index-then-emission order — one canonical stream for every
/// shard/worker configuration. The staging vector is caller-owned and
/// reused window to window (drained empty here).
pub(crate) fn merge_probe_buffers(staged: &mut Vec<(Nanos, ProbeEvent)>, probe: &mut dyn Probe) {
    staged.sort_by_key(|e| e.0);
    for (at, ev) in staged.drain(..) {
        probe.record(at, &ev);
    }
}

/// One worker's window loop; see [`Simulator::parallel_session`] docs.
#[allow(clippy::too_many_arguments)]
fn session_worker(
    mut group: Vec<(usize, &mut Shard)>,
    slots: &[Mutex<Vec<(Nanos, ProbeEvent)>>],
    sh: EngineShared<'_>,
    barrier: &Barrier,
    next_at: &[AtomicU64],
    comp_len: &[AtomicUsize],
    flush: Option<&Mutex<Box<dyn Probe>>>,
    mut w_end: Nanos,
    limit: Nanos,
    ctl: Nanos,
    lookahead: Nanos,
    stop_on_comps: bool,
) {
    let mut staged: Vec<(Nanos, ProbeEvent)> = Vec::new();
    loop {
        // Phase A: walk every owned shard through the window.
        for (ix, shard) in group.iter_mut() {
            run_window(shard, *ix, &sh, w_end);
        }
        barrier.wait();
        // Phase B: deliver mail, stage probe buffers into the shared flush
        // slots, publish per-shard state. The per-slot mutex is uncontended
        // (one owner per slot; the flusher's drain is barrier-ordered before
        // the next swap), and Relaxed atomics suffice — barriers order them.
        for (ix, shard) in group.iter_mut() {
            deliver_mail(shard, *ix, &sh);
            if sh.probe_on {
                std::mem::swap(&mut shard.bufp.buf, &mut *slots[*ix].lock().unwrap());
            }
            next_at[*ix].store(shard.next_at().unwrap_or(IDLE), Ordering::Relaxed);
            comp_len[*ix].store(shard.completions.len(), Ordering::Relaxed);
        }
        barrier.wait();
        // Phase C: worker 0 concatenates the slots in shard index order and
        // merges them into the real probe by timestamp; then every worker
        // computes the identical continue/stop decision from the published
        // atomics.
        if let Some(m) = flush {
            if sh.probe_on {
                let mut probe = m.lock().unwrap();
                for slot in slots {
                    staged.append(&mut slot.lock().unwrap());
                }
                merge_probe_buffers(&mut staged, &mut **probe);
            }
        }
        let mut tmin = IDLE;
        for a in next_at {
            tmin = tmin.min(a.load(Ordering::Relaxed));
        }
        let comps = comp_len.iter().any(|c| c.load(Ordering::Relaxed) > 0);
        if (stop_on_comps && comps) || tmin == IDLE || tmin >= ctl || tmin > limit {
            return;
        }
        let next_end = tmin.saturating_add(lookahead).min(ctl);
        if next_end > limit.saturating_add(1) {
            return;
        }
        w_end = next_end;
    }
}
