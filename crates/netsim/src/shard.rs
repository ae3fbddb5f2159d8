//! Sharded conservative-lookahead PDES engine.
//!
//! The simulator's node set is split into topology partitions ("shards"),
//! each owning an event wheel, a packet pool, an RNG stream and its
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
//! * A bounded call (`advance_bounded`, `run_until`, `run_to_quiescence`)
//!   leaves nothing behind: when it returns no shard holds an event at or
//!   before the limit, however the driver sliced its way there. A limit
//!   that falls inside a window leaves the window *open* — mail
//!   undelivered, its end remembered — so the boundaries stay those an
//!   unsliced run computes.
//!
//! One loop drives all of it, at every shard count: [`Simulator::pump`]
//! picks windows, [`run_window`] takes a shard through one, and
//! [`process_next`] → [`with_shard_node`] → `fault_intercept` /
//! `fault_discard` is the only event dispatcher and fault interceptor. An
//! unsharded simulator is the one-shard case: its lookahead is unbounded,
//! so its window spans all time and never closes, there is no other shard
//! to mail, and the code that walks eight shards walks its one. Three
//! things are decided from the shard count, each once and each for a
//! reason given where it is decided: where controls queue
//! (`Simulator::schedule`), whether probe records are staged
//! ([`Simulator::engine_core`]) and when `advance*` returns
//! ([`Simulator::pump`]).
//!
//! Control events ([`Event::Control`]) act on the whole simulator, so in
//! sharded mode they live in a separate serial queue and execute at a
//! global barrier *before* any node event at the same timestamp. Fault
//! planes and adversaries rule on every arrival — workers take the plane's
//! mutex per ruling, serial code is handed it exclusively ([`PlaneTap`];
//! the mailboxes likewise, [`MailTap`]) — and their observable state must
//! be per-link (each link's arrivals are processed by exactly one shard,
//! in deterministic order): the determinism matrix test enforces this for
//! the shipped planes.

use crate::endpoint::Completion;
use crate::equeue::EventQueue;
use crate::fault::{FaultPlane, FaultVerdict};
use crate::packet::{NodeId, Packet, PortId};
use crate::pool::{PacketPool, PktRef};
use crate::sim::{Event, Node, NodeCtx, Simulator};
use crate::splitmix::{mix64, GAMMA};
use crate::stats::NetStats;
use crate::time::Nanos;
use crate::topology::Topology;
use dcp_rdma::headers::DcpTag;
use dcp_telemetry::{DropClass, Probe, ProbeEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
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
    mix64(seed ^ GAMMA.wrapping_mul(ix as u64))
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

/// One partition of the fabric: its own clock, queue, pool, RNG stream and
/// output buffers. An unsharded simulator's whole engine state is one of
/// these.
pub(crate) struct Shard {
    pub(crate) now: Nanos,
    /// Insertion counter: the `seq` half of every queue key.
    pub(crate) seq: u64,
    /// Every pending event, endpoint timers included.
    pub(crate) queue: EventQueue<Event>,
    pub(crate) pool: PacketPool,
    pub(crate) rng: StdRng,
    pub(crate) completions: VecDeque<Completion>,
    pub(crate) scratch: Vec<(Nanos, Event)>,
    pub(crate) events: u64,
    pub(crate) fault_stats: NetStats,
    pub(crate) fault_immune: HashSet<PktRef>,
    /// Per-shard probe buffer: a sharded engine's `record` calls append
    /// here and it drains the buffers into the real probe at each window
    /// close — merged by timestamp with a stable shard-index tie-break (see
    /// [`merge_probe_buffers`]), the same order whether a window ran
    /// serially or on worker threads.
    pub(crate) bufp: Vec<(Nanos, ProbeEvent)>,
    /// Emission counter for cross-shard mail keys.
    pub(crate) mail_seq: u64,
    /// Reused staging vector for sorting incoming mail at delivery.
    pub(crate) mail_scratch: Vec<MailEntry>,
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
            bufp: Vec::new(),
            mail_seq: 0,
            mail_scratch: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn schedule(&mut self, at: Nanos, ev: Event) {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        self.seq += 1;
        self.queue.insert(at, self.seq, ev);
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

/// Where a walker's probe records go.
pub(crate) enum ProbeTap<'a> {
    /// No probe attached: records are not even constructed.
    Off,
    /// Into the walked shard's probe buffer, merged at the window close.
    Staged,
    /// Straight into the attached probe.
    Direct(&'a mut (dyn Probe + 'static)),
}

impl ProbeTap<'_> {
    #[inline]
    fn sink<'s>(
        &'s mut self,
        staged: &'s mut Vec<(Nanos, ProbeEvent)>,
    ) -> Option<&'s mut (dyn Probe + 'static)> {
        match self {
            ProbeTap::Off => None,
            ProbeTap::Staged => Some(staged),
            ProbeTap::Direct(p) => Some(&mut **p),
        }
    }
}

/// How a walker reaches the installed fault plane: the same interceptor,
/// a different handle.
pub(crate) enum PlaneTap<'a> {
    /// Serial code holds the whole simulator: there is nobody to lock out.
    /// (Locking anyway cost `lossy_mix`, 3.6 M rulings a repetition, 2.6 %
    /// of its `wall_s`.)
    Exclusive(&'a mut (dyn FaultPlane + 'static)),
    /// Worker threads rule concurrently, one mutex acquisition per arrival.
    Shared(&'a Mutex<Box<dyn FaultPlane>>),
}

/// How a walker reaches the `n × n` mailbox matrix, indexed `src * n +
/// dst`: the same boxes, a different handle.
pub(crate) enum MailTap<'a> {
    /// Serial code holds the whole simulator: there is nobody to lock out.
    /// (Locking anyway took a mutex per cross-shard emission, eight shards
    /// on one worker being `allreduce_1024_sh8`'s whole run.)
    Exclusive(&'a mut [Mutex<Vec<MailEntry>>]),
    /// Worker threads post concurrently, one mutex acquisition per post.
    Shared(&'a [Mutex<Vec<MailEntry>>]),
}

const MAIL_POISONED: &str = "a shard worker panicked holding a mailbox";

impl MailTap<'_> {
    fn post(&mut self, i: usize, entry: MailEntry) {
        match self {
            MailTap::Exclusive(mail) => mail[i].get_mut().expect(MAIL_POISONED).push(entry),
            MailTap::Shared(mail) => mail[i].lock().expect(MAIL_POISONED).push(entry),
        }
    }

    /// Moves box `i`'s entries to the end of `out`.
    fn collect(&mut self, i: usize, out: &mut Vec<MailEntry>) {
        match self {
            MailTap::Exclusive(mail) => out.append(mail[i].get_mut().expect(MAIL_POISONED)),
            MailTap::Shared(mail) => out.append(&mut mail[i].lock().expect(MAIL_POISONED)),
        }
    }
}

/// What whoever walks shards through a window — a worker thread, or serial
/// code holding the whole simulator — reaches besides the shard itself.
pub(crate) struct Walker<'a> {
    pub(crate) view: NodesView,
    pub(crate) node_shard: &'a [u32],
    pub(crate) n: usize,
    pub(crate) mail: MailTap<'a>,
    pub(crate) plane: Option<PlaneTap<'a>>,
    pub(crate) probe: ProbeTap<'a>,
}

/// Runs shard `ix` through one window: every pending event strictly before
/// `w_end` (including ones the shard emits to itself inside the window).
/// Returns early, with the token, when it pops a control — which acts on the
/// whole simulator, so the loop executes it and calls again.
pub(crate) fn run_window(
    shard: &mut Shard,
    ix: usize,
    w: &mut Walker<'_>,
    w_end: Nanos,
) -> Option<u64> {
    debug_assert!(w_end > 0, "a window ends after the event that opened it");
    while let Some(ev) = process_next(shard, ix, w, w_end - 1) {
        if let Event::Control { token } = ev {
            return Some(token);
        }
    }
    None
}

/// Pops the shard's earliest event if it is due at or before `limit` and
/// returns it, dispatched — except an [`Event::Control`] (queued here only
/// while unsharded, see `Simulator::schedule`), which is counted and handed
/// back for the loop to execute. Inlined, with the two functions below,
/// into the window walk and into `pump`'s one-event path: left to the
/// inliner's own judgement the latter cost 4 ns per event.
#[inline]
pub(crate) fn process_next(
    shard: &mut Shard,
    ix: usize,
    w: &mut Walker<'_>,
    limit: Nanos,
) -> Option<Event> {
    let (at, _seq, ev) = shard.queue.pop_due(limit)?;
    debug_assert!(at >= shard.now);
    shard.now = at;
    shard.events += 1;
    let Some(node_id) = ev.node() else { return Some(ev) };
    if let Event::PacketArrive { node, port, pkt } = ev {
        if w.plane.is_some() && fault_intercept(shard, ix, w, node, port, pkt) {
            return Some(ev);
        }
    }
    with_shard_node(shard, ix, w, node_id, |node, ctx| node.handle(ev, ctx));
    Some(ev)
}

/// Runs `f` in place on a node shard `ix` owns, at the shard's clock, with
/// the shard's pool/RNG/completions. The emitted events come back in the
/// shard's scratch vector: the caller routes them and returns the vector to
/// `shard.scratch`.
#[inline]
pub(crate) fn enter_node(
    shard: &mut Shard,
    ix: usize,
    w: &mut Walker<'_>,
    id: NodeId,
    f: impl FnOnce(&mut Node, &mut NodeCtx),
) -> Vec<(Nanos, Event)> {
    debug_assert_eq!(w.node_shard[id.0 as usize] as usize, ix, "node walked by wrong shard");
    // SAFETY: `id` belongs to shard `ix` (asserted above) and this shard is
    // walked by exactly one walker, so no other thread derives a reference
    // to this node; on this thread `f` sees only the node and a `NodeCtx`
    // over the shard's own fields (handlers never touch other nodes), so
    // the reference is unique until `f` returns.
    let node = unsafe { w.view.node_mut(id.0 as usize) };
    let mut out = std::mem::take(&mut shard.scratch);
    let mut ctx = NodeCtx {
        now: shard.now,
        pool: &mut shard.pool,
        rng: &mut shard.rng,
        out: &mut out,
        completions: &mut shard.completions,
        probe: w.probe.sink(&mut shard.bufp),
    };
    f(node, &mut ctx);
    out
}

/// The dispatcher's [`enter_node`]: routes every emitted event — same shard
/// straight into the queue, cross-shard into a mailbox.
#[inline]
pub(crate) fn with_shard_node(
    shard: &mut Shard,
    ix: usize,
    w: &mut Walker<'_>,
    id: NodeId,
    f: impl FnOnce(&mut Node, &mut NodeCtx),
) {
    let mut out = enter_node(shard, ix, w, id, f);
    for (at, ev) in out.drain(..) {
        route_emission(shard, ix, w, at, ev);
    }
    shard.scratch = out;
}

/// Routes one emitted event: same-shard events are scheduled directly,
/// cross-shard ones have their packet detached from the source pool and are
/// posted into the `(src, dst)` mailbox for delivery at window close.
fn route_emission(shard: &mut Shard, ix: usize, w: &mut Walker<'_>, at: Nanos, ev: Event) {
    let node = ev.node().expect("node handlers never emit Control events");
    let dst = w.node_shard[node.0 as usize] as usize;
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
    w.mail.post(ix * w.n + dst, entry);
}

/// Drains every mailbox addressed to shard `ix`, sorts by `(at, src, key)`
/// and inserts with fresh destination sequence numbers. Called exactly once
/// per shard per window close, after all shards finished the window.
pub(crate) fn deliver_mail(shard: &mut Shard, ix: usize, w: &mut Walker<'_>) {
    let mut incoming = std::mem::take(&mut shard.mail_scratch);
    debug_assert!(incoming.is_empty());
    for src in 0..w.n {
        if src == ix {
            continue;
        }
        w.mail.collect(src * w.n + ix, &mut incoming);
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

/// Consults the installed fault plane about an arrival on a link this shard
/// owns; returns `true` when the packet was consumed (dropped, corrupted or
/// held back) and must not be delivered to the node. Plane state must be
/// per-link for this to stay deterministic; see module docs.
fn fault_intercept(
    shard: &mut Shard,
    ix: usize,
    w: &mut Walker<'_>,
    node: NodeId,
    port: PortId,
    pkt: PktRef,
) -> bool {
    // A handle re-scheduled by an earlier Delay/Reorder/Duplicate verdict
    // arrives exactly once more, without a second ruling. The set is empty
    // unless an adversary issued one; skip the hash then.
    if !shard.fault_immune.is_empty() && shard.fault_immune.remove(&pkt) {
        return false;
    }
    let arriving = &shard.pool[pkt];
    let verdict = match w.plane.as_mut() {
        Some(PlaneTap::Exclusive(plane)) => plane.on_arrival(shard.now, node, port, arriving),
        Some(PlaneTap::Shared(plane)) => {
            plane.lock().unwrap().on_arrival(shard.now, node, port, arriving)
        }
        None => FaultVerdict::Deliver,
    };
    match verdict {
        FaultVerdict::Deliver => false,
        FaultVerdict::Drop => {
            fault_discard(shard, w, node, port, pkt);
            true
        }
        FaultVerdict::Duplicate { after } => {
            // The original is delivered now; an extra copy (fresh pool
            // slot, immune to further rulings) arrives `after` ns later.
            // The copy entered the fabric without a sender transmission,
            // so it is booked on the supply side of conservation.
            let copy = shard.pool.insert(shard.pool[pkt].clone());
            match shard.pool[copy].dcp_tag() {
                DcpTag::HeaderOnly => shard.fault_stats.dup_ho_injected += 1,
                _ if shard.pool[copy].is_data() => shard.fault_stats.dup_data_injected += 1,
                _ => {} // ACK-class copies sit outside the identities.
            }
            shard.fault_immune.insert(copy);
            let at = shard.now + after;
            shard.schedule(at, Event::PacketArrive { node, port, pkt: copy });
            false
        }
        FaultVerdict::Delay { by } | FaultVerdict::Reorder { by } => {
            // Hold the packet on the wire; same-cable successors may
            // overtake it through the (time, seq) ordering.
            shard.fault_immune.insert(pkt);
            let at = shard.now + by;
            shard.schedule(at, Event::PacketArrive { node, port, pkt });
            true
        }
        FaultVerdict::Corrupt => {
            // A trimming switch turns a corrupt DCP data packet into its
            // header-only notification (the payload is gone but the
            // parseable header still tells the receiver *what* was lost);
            // anywhere else corruption is just a wire loss.
            //
            // SAFETY: `node` belongs to this shard (its arrival is being
            // processed here); read-only peek at its config.
            let can_trim = matches!(
                unsafe { &*(w.view.node_mut(node.0 as usize) as *const Node) },
                Node::Switch(s) if s.cfg.trimming
            ) && shard.pool[pkt].dcp_tag() == DcpTag::Data;
            if can_trim {
                with_shard_node(shard, ix, w, node, |n, ctx| {
                    if let Node::Switch(sw) = n {
                        sw.on_corrupt(port, pkt, ctx);
                    }
                });
            } else {
                fault_discard(shard, w, node, port, pkt);
            }
            true
        }
    }
}

/// Books a fault-plane wire loss by packet class and releases the handle.
/// Data losses land in `fault_drops` (distinct from congestion
/// `data_drops`); header-only losses stay in `ho_drops` so the Table 5
/// identity `trims = ho_received + ho_drops` holds; ACK-class losses join
/// `ack_drops`.
fn fault_discard(shard: &mut Shard, w: &mut Walker<'_>, node: NodeId, port: PortId, pkt: PktRef) {
    let p = &shard.pool[pkt];
    let (flow, psn) = (p.flow.0, p.psn());
    shard.fault_stats.count_fault_drop(p);
    if let Some(probe) = w.probe.sink(&mut shard.bufp) {
        probe.record(
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

impl Simulator {
    /// Splits the engine's disjoint parts for a serial run segment: the
    /// shard array and the serial walker over everything else.
    pub(crate) fn engine_core(&mut self) -> (&mut [Shard], Walker<'_>) {
        let probe = match self.probe.as_mut() {
            None => ProbeTap::Off,
            // One-shard decision 2 of 3. Shards are walked one after
            // another (or at once), so their records must be staged and
            // merged by timestamp at the window close to come out in one
            // canonical order. A lone shard's records are born in that
            // order: they go straight into the attached probe, in the
            // order and at the cost they always did.
            Some(m) if self.shards.len() == 1 => ProbeTap::Direct(&mut **m.get_mut().unwrap()),
            Some(_) => ProbeTap::Staged,
        };
        let w = Walker {
            view: NodesView::new(&mut self.nodes),
            node_shard: &self.node_shard,
            n: self.shards.len(),
            mail: MailTap::Exclusive(&mut self.mail),
            plane: self
                .fault_plane
                .as_mut()
                .map(|m| PlaneTap::Exclusive(&mut **m.get_mut().unwrap())),
            probe,
        };
        (&mut self.shards, w)
    }

    /// Earliest pending node event across all shards, or [`IDLE`].
    pub(crate) fn shards_next_at(&self) -> Nanos {
        self.shards.iter().filter_map(|s| s.queue.next_at()).min().unwrap_or(IDLE)
    }

    /// Earliest pending control event, or [`IDLE`].
    pub(crate) fn next_control_at(&self) -> Nanos {
        self.controls.peek().map(|r| r.0 .0).unwrap_or(IDLE)
    }

    /// Executes one control event: the fault plane acts on the full
    /// simulator (serial by construction — controls run between a sharded
    /// engine's windows, or between two events of an unsharded one). The
    /// plane is detached for the call so it can mutate the simulator
    /// re-entrantly (fail switches, flip cables, schedule more controls).
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
    /// a window close. (Nothing is ever staged while unsharded.)
    pub(crate) fn flush_probes_serial(&mut self) {
        let Some(m) = self.probe.as_mut() else { return };
        for shard in &mut self.shards {
            self.probe_merge.append(&mut shard.bufp);
        }
        merge_probe_buffers(&mut self.probe_merge, &mut **m.get_mut().unwrap());
    }

    /// The event loop, at every shard count: picks the next window
    /// `[tmin, min(tmin + lookahead, next control))`, takes every shard
    /// through it — on worker threads when configured and the whole window
    /// lies at or below `limit`, serially in shard order otherwise — and
    /// closes it (mail delivered, probes flushed). Returns the clock if any
    /// event was processed. `stop_on_comps` stops at the first window close
    /// with completions pending — the `advance` API.
    ///
    /// A `limit` inside the window cuts the walk, not the window: every
    /// shard is taken through `limit`, the window stays open and the next
    /// call resumes it. So when a bounded call returns no shard holds an
    /// event at or before its limit, and the completions drained then are a
    /// prefix of the canonical `(at, shard)` stream.
    pub(crate) fn pump(&mut self, limit: Nanos, stop_on_comps: bool) -> Option<Nanos> {
        // One-shard decision 3 of 3. A sharded engine's completions are in
        // canonical order only once every shard has finished the window; a
        // lone shard has nobody to wait for, so each of its events is a
        // completion boundary and `advance*` returns after it — the next
        // event off the one queue, no window to pick.
        if stop_on_comps && self.shards.len() == 1 {
            let (shards, mut w) = self.engine_core();
            let ev = process_next(&mut shards[0], 0, &mut w, limit)?;
            self.clock = self.shards[0].now;
            if let Event::Control { token } = ev {
                self.exec_control(self.clock, token);
            }
            return Some(self.clock);
        }
        let events_before = self.events_processed();
        loop {
            let w_end = match self.open_window {
                Some(w_end) => w_end,
                None => {
                    let (tmin, ctl) = (self.shards_next_at(), self.next_control_at());
                    let next = tmin.min(ctl);
                    if next == IDLE || next > limit {
                        break;
                    }
                    if ctl <= tmin {
                        let Reverse((at, _seq, token)) = self.controls.pop().expect("peeked");
                        self.ctl_events += 1;
                        self.exec_control(at, token);
                        continue;
                    }
                    let w_end = tmin.saturating_add(self.lookahead).min(ctl);
                    // Go wide when the full window fits under the limit.
                    if self.workers.min(self.shards.len()) > 1 && w_end <= limit.saturating_add(1) {
                        self.parallel_session(w_end, limit, stop_on_comps);
                        if stop_on_comps && self.have_completions() {
                            break;
                        }
                        continue;
                    }
                    self.open_window = Some(w_end);
                    w_end
                }
            };
            // Serial walk, in shard order, of every shard through the part
            // of the window at or below the limit.
            let cut = w_end.min(limit.saturating_add(1));
            let (shards, mut w) = self.engine_core();
            let control =
                shards.iter_mut().enumerate().find_map(|(ix, s)| run_window(s, ix, &mut w, cut));
            self.catch_up_clock();
            if let Some(token) = control {
                self.exec_control(self.clock, token);
                continue;
            }
            if cut < w_end {
                break;
            }
            self.open_window = None;
            let (shards, mut w) = self.engine_core();
            for (ix, shard) in shards.iter_mut().enumerate() {
                deliver_mail(shard, ix, &mut w);
            }
            self.flush_probes_serial();
            if stop_on_comps && self.have_completions() {
                break;
            }
        }
        (self.events_processed() > events_before).then_some(self.clock)
    }

    /// Moves the clock up to the latest event any shard has processed.
    fn catch_up_clock(&mut self) {
        let max_now = self.shards.iter().map(|s| s.now).max().unwrap_or(0);
        self.clock = self.clock.max(max_now);
    }

    pub(crate) fn have_completions(&self) -> bool {
        self.shards.iter().any(|s| !s.completions.is_empty())
    }

    /// Runs consecutive windows, the first ending at `w_end0`, on worker
    /// threads until a stop condition: completions pending (when
    /// `stop_on_comps`), idle, a control due, or the next window not
    /// fitting under `limit`.
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
    pub(crate) fn parallel_session(&mut self, w_end0: Nanos, limit: Nanos, stop_on_comps: bool) {
        let n = self.shards.len();
        let workers = self.workers.min(n);
        let ctl = self.next_control_at();
        let lookahead = self.lookahead;

        let barrier = Barrier::new(workers);
        let next_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(IDLE)).collect();
        let comp_len: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();

        let probe = &self.probe;
        let slots: &[Mutex<Vec<(Nanos, ProbeEvent)>>] = &self.probe_slots;
        // Every worker walks with the same shared handles; a sharded
        // engine's records are always staged.
        let view = NodesView::new(&mut self.nodes);
        let (node_shard, mail, plane) = (&self.node_shard, &self.mail, self.fault_plane.as_ref());
        let walker = || Walker {
            view,
            node_shard,
            n,
            mail: MailTap::Shared(mail),
            plane: plane.map(PlaneTap::Shared),
            probe: if probe.is_some() { ProbeTap::Staged } else { ProbeTap::Off },
        };
        // Split shards into per-worker groups (round-robin by index).
        let mut groups: Vec<Vec<(usize, &mut Shard)>> = (0..workers).map(|_| Vec::new()).collect();
        for (ix, shard) in self.shards.iter_mut().enumerate() {
            groups[ix % workers].push((ix, shard));
        }

        std::thread::scope(|scope| {
            let barrier = &barrier;
            let next_at = &next_at;
            let comp_len = &comp_len;
            for (wi, group) in groups.drain(1..).enumerate() {
                let w = walker();
                std::thread::Builder::new()
                    .name(format!("dcp-shard-{}", wi + 1))
                    .spawn_scoped(scope, move || {
                        session_worker(
                            group,
                            slots,
                            w,
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
                walker(),
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
        self.catch_up_clock();
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
            if s0.events > 0 || !s0.queue.is_empty() || !s0.pool.is_empty() {
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
    mut w: Walker<'_>,
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
    let probe_on = !matches!(w.probe, ProbeTap::Off);
    let mut staged: Vec<(Nanos, ProbeEvent)> = Vec::new();
    loop {
        // Phase A: walk every owned shard through the window.
        for (ix, shard) in group.iter_mut() {
            let control = run_window(shard, *ix, &mut w, w_end);
            debug_assert!(control.is_none(), "controls never enter a sharded engine's queues");
        }
        barrier.wait();
        // Phase B: deliver mail, stage probe buffers into the shared flush
        // slots, publish per-shard state. The per-slot mutex is uncontended
        // (one owner per slot; the flusher's drain is barrier-ordered before
        // the next swap), and Relaxed atomics suffice — barriers order them.
        for (ix, shard) in group.iter_mut() {
            deliver_mail(shard, *ix, &mut w);
            if probe_on {
                std::mem::swap(&mut shard.bufp, &mut *slots[*ix].lock().unwrap());
            }
            next_at[*ix].store(shard.queue.next_at().unwrap_or(IDLE), Ordering::Relaxed);
            comp_len[*ix].store(shard.completions.len(), Ordering::Relaxed);
        }
        barrier.wait();
        // Phase C: worker 0 concatenates the slots in shard index order and
        // merges them into the real probe by timestamp; then every worker
        // computes the identical continue/stop decision from the published
        // atomics.
        if let Some(m) = flush {
            if probe_on {
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
