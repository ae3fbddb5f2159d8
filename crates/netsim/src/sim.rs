//! The deterministic event loop.
//!
//! An event wheel per shard ([`crate::equeue::EventQueue`]) orders every
//! event, endpoint timers included, by `(time, sequence)`; same-instant
//! events leave in insertion order, so a given seed always produces an
//! identical packet trace. Node handlers never touch other nodes directly
//! — they emit `(time, Event)` pairs through [`NodeCtx`].
//!
//! The simulator holds one or more engine *shards* (see [`crate::shard`]):
//! one queue, one pool, one RNG until [`Simulator::partition`] splits it
//! along topology boundaries for conservative-lookahead parallel
//! execution. There is one event loop, `Simulator::pump`, and one event
//! dispatcher, `shard::process_next`, at every shard count; the four
//! stepping calls ([`Simulator::advance`], [`Simulator::advance_bounded`],
//! [`Simulator::run_until`], [`Simulator::run_to_quiescence`]) are fronts
//! of that loop. An unsharded simulator is its one-shard case — a single
//! window that spans all time, since nothing bounds its lookahead — and
//! differs from a sharded one in exactly three decisions, each made once
//! from `shards.len()` and documented where it is made: control events
//! stay in the shard queue ([`Simulator::schedule`]), the dispatcher
//! records straight into the attached probe (`Simulator::engine_core`),
//! and `advance*` returns after every event (`Simulator::pump`).

use crate::endpoint::{Completion, Endpoint};
use crate::fault::FaultPlane;
use crate::host::{Host, QpRef};
use crate::link::Link;
use crate::packet::{FlowId, NodeId, PortId};
use crate::pool::{PacketPool, PktRef};
use crate::shard::{enter_node, Shard, IDLE};
use crate::stats::{NetStats, TransportStats};
use crate::switch::{Switch, SwitchConfig};
use crate::time::Nanos;
use dcp_rdma::qp::WorkReqOp;
use dcp_telemetry::{Probe, ProbeEvent};
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Mutex;

/// Everything that can happen in the fabric.
///
/// Events are handle-sized and `Copy`: a packet rides through the event
/// wheel as its 8-byte [`PktRef`] into the simulator's [`PacketPool`], so
/// a wheel node moves ≤ 32 bytes of event (`event_stays_handle_sized`
/// locks this).
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A packet finished propagating and arrives at `node` on `port`.
    PacketArrive { node: NodeId, port: PortId, pkt: PktRef },
    /// `node`'s egress `port` finished serializing its current packet.
    PortFree { node: NodeId, port: PortId },
    /// A PFC PAUSE (`pause = true`) or RESUME frame arrives at `node`.
    Pfc { node: NodeId, port: PortId, pause: bool },
    /// A transport timer fires on the endpoint in connection-table `slot`
    /// of host `node`. The generation stamp makes timers armed by a since-
    /// removed endpoint detectably stale: the host drops them at fire time
    /// (the event is still dispatched and counted). There is no
    /// cancellation: a transport keeps one entry queued per armed timer and
    /// moves the deadline it guards (`dcp_transport::txcore::Deadline`), so
    /// what fires as a no-op is an entry of a dead slot or of a timer
    /// disarmed since.
    EndpointTimer { node: NodeId, slot: u32, gen: u32, token: u64 },
    /// A scheduled control-plane action fires: the installed
    /// [`FaultPlane`] (if any) interprets `token` (e.g. "apply fault-plan
    /// entry #3 now"). Not addressed to a node — it acts on the simulator.
    Control { token: u64 },
}

impl Event {
    pub(crate) fn node(&self) -> Option<NodeId> {
        match self {
            Event::PacketArrive { node, .. }
            | Event::PortFree { node, .. }
            | Event::Pfc { node, .. }
            | Event::EndpointTimer { node, .. } => Some(*node),
            Event::Control { .. } => None,
        }
    }
}

/// Context handed to node handlers: the clock, the RNG, the buffers for
/// emitted events and completions, and the (optional) telemetry probe.
pub struct NodeCtx<'a> {
    pub now: Nanos,
    /// The owning shard's packet arena; resolves [`PktRef`] handles.
    pub pool: &'a mut PacketPool,
    pub rng: &'a mut StdRng,
    pub out: &'a mut Vec<(Nanos, Event)>,
    pub completions: &'a mut VecDeque<Completion>,
    /// Telemetry sink; `None` on bare runs. Emit through [`NodeCtx::emit`]
    /// so event construction is skipped entirely when no probe is attached.
    /// (The `'static` trait-object bound keeps reborrowing through nested
    /// contexts free of lifetime-invariance knots; probes are owned types.)
    pub probe: Option<&'a mut (dyn Probe + 'static)>,
}

impl NodeCtx<'_> {
    /// Records a probe event; the closure runs only when a probe is
    /// installed, so the off path is a single branch.
    #[inline]
    pub fn emit(&mut self, ev: impl FnOnce() -> ProbeEvent) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.record(self.now, &ev());
        }
    }
}

/// A node in the fabric.
#[allow(clippy::large_enum_variant)]
pub enum Node {
    Host(Host),
    Switch(Switch),
}

impl Node {
    /// The event → handler mapping. Runs on the node in place: handlers
    /// reach the rest of the world only through `ctx`, never through
    /// another node.
    #[inline]
    pub(crate) fn handle(&mut self, ev: Event, ctx: &mut NodeCtx) {
        match (self, ev) {
            (Node::Host(h), Event::PacketArrive { pkt, .. }) => h.on_packet(pkt, ctx),
            (Node::Host(h), Event::PortFree { .. }) => h.on_port_free(ctx),
            (Node::Host(h), Event::Pfc { pause, .. }) => h.on_pfc(pause, ctx),
            (Node::Host(h), Event::EndpointTimer { slot, gen, token, .. }) => {
                h.on_timer(slot, gen, token, ctx)
            }
            (Node::Switch(sw), Event::PacketArrive { port, pkt, .. }) => {
                sw.on_packet(port, pkt, ctx)
            }
            (Node::Switch(sw), Event::PortFree { port, .. }) => sw.on_port_free(port, ctx),
            (Node::Switch(sw), Event::Pfc { port, pause, .. }) => sw.on_pfc(port, pause, ctx),
            (Node::Switch(_), Event::EndpointTimer { .. }) => {
                unreachable!("switches have no endpoints")
            }
            (_, Event::Control { .. }) => unreachable!("controls are the loop's to execute"),
        }
    }
}

/// The simulator: owns all nodes, the engine shards and the control plane.
pub struct Simulator {
    /// User-visible clock: the latest processed event time (high-water
    /// across shards), pushed forward by `run_until` limits.
    pub(crate) clock: Nanos,
    pub(crate) seed: u64,
    /// Engine shards; exactly one until [`Simulator::partition`] runs.
    pub(crate) shards: Vec<Shard>,
    /// Node index → owning shard; all zero until [`Simulator::partition`].
    pub(crate) node_shard: Vec<u32>,
    /// Conservative-lookahead horizon (min cross-shard link delay).
    pub(crate) lookahead: Nanos,
    /// Worker threads for parallel window sessions.
    pub(crate) workers: usize,
    pub(crate) auto_partition_enabled: bool,
    pub nodes: Vec<Node>,
    pub(crate) probe: Option<Mutex<Box<dyn Probe>>>,
    pub(crate) fault_plane: Option<Mutex<Box<dyn FaultPlane>>>,
    /// Sharded-mode control events, ordered `(at, seq)`; empty while
    /// unsharded (see [`Simulator::schedule`]).
    pub(crate) controls: BinaryHeap<Reverse<(Nanos, u64, u64)>>,
    pub(crate) ctl_seq: u64,
    pub(crate) ctl_events: u64,
    /// End of the window a bounded call left open: its limit fell inside
    /// the window, so every shard stands at the limit, the window's mail is
    /// undelivered and the next call resumes the same window. Keeping it
    /// open makes window boundaries a pure function of event content —
    /// independent of how a driver slices its time limits, and therefore
    /// identical to the boundaries the parallel path computes.
    pub(crate) open_window: Option<Nanos>,
    /// Per-shard probe staging slots for parallel window sessions.
    pub(crate) probe_slots: Vec<Mutex<Vec<(Nanos, ProbeEvent)>>>,
    /// Reused staging vector for the serial timestamp-merge of per-shard
    /// probe buffers at window closes.
    pub(crate) probe_merge: Vec<(Nanos, ProbeEvent)>,
    /// `n × n` cross-shard mailboxes, indexed `src * n + dst`.
    pub(crate) mail: Vec<Mutex<Vec<crate::shard::MailEntry>>>,
}

impl Simulator {
    pub fn new(seed: u64) -> Self {
        Simulator {
            clock: 0,
            seed,
            shards: vec![Shard::new(seed)],
            node_shard: Vec::new(),
            lookahead: IDLE,
            workers: 1,
            auto_partition_enabled: true,
            nodes: Vec::new(),
            probe: None,
            fault_plane: None,
            controls: BinaryHeap::new(),
            ctl_seq: 0,
            ctl_events: 0,
            open_window: None,
            probe_slots: Vec::new(),
            probe_merge: Vec::new(),
            mail: Vec::new(),
        }
    }

    pub fn now(&self) -> Nanos {
        self.clock
    }

    /// Attaches a telemetry probe; every subsequent hot-path event flows
    /// into it. Probes are passive observers — attaching one must not (and,
    /// by the determinism tests, does not) change the packet trace.
    pub fn set_probe(&mut self, probe: Box<dyn Probe>) {
        self.probe = Some(Mutex::new(probe));
    }

    pub fn probe_mut(&mut self) -> Option<&mut (dyn Probe + 'static)> {
        self.flush_probes_serial();
        self.probe.as_mut().map(|m| &mut **m.get_mut().unwrap())
    }

    /// The attached probe's dump (flight-recorder ring, counters …), if any.
    pub fn flight_dump(&self) -> Option<String> {
        self.probe.as_ref().and_then(|m| m.lock().unwrap().dump())
    }

    /// Installs a fault-injection plane: every subsequent packet arrival is
    /// ruled on by it, and [`Event::Control`] events are dispatched to it.
    pub fn set_fault_plane(&mut self, plane: Box<dyn FaultPlane>) {
        self.fault_plane = Some(Mutex::new(plane));
    }

    /// Detaches and returns the fault plane, e.g. to read its state after a
    /// run. Arrivals are delivered unconditionally afterwards.
    pub fn take_fault_plane(&mut self) -> Option<Box<dyn FaultPlane>> {
        self.fault_plane.take().map(|m| m.into_inner().unwrap())
    }

    /// Schedules a control event for the fault plane at time `at`.
    pub fn schedule_control(&mut self, at: Nanos, token: u64) {
        self.schedule(at, Event::Control { token });
    }

    /// Creates a host; wire it with the `connect_*` helpers.
    pub fn add_host(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Host(Host::new(id)));
        self.node_shard.push(0);
        id
    }

    /// Creates a switch with the given policy.
    pub fn add_switch(&mut self, cfg: SwitchConfig) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Switch(Switch::new(id, cfg)));
        self.node_shard.push(0);
        id
    }

    pub fn host(&self, id: NodeId) -> &Host {
        match &self.nodes[id.0 as usize] {
            Node::Host(h) => h,
            _ => panic!("{id:?} is not a host"),
        }
    }

    pub fn host_mut(&mut self, id: NodeId) -> &mut Host {
        match &mut self.nodes[id.0 as usize] {
            Node::Host(h) => h,
            _ => panic!("{id:?} is not a host"),
        }
    }

    pub fn switch(&self, id: NodeId) -> &Switch {
        match &self.nodes[id.0 as usize] {
            Node::Switch(s) => s,
            _ => panic!("{id:?} is not a switch"),
        }
    }

    pub fn switch_mut(&mut self, id: NodeId) -> &mut Switch {
        match &mut self.nodes[id.0 as usize] {
            Node::Switch(s) => s,
            _ => panic!("{id:?} is not a switch"),
        }
    }

    /// Connects a host to a switch full-duplex; returns the switch port
    /// facing the host.
    pub fn connect_host_switch(
        &mut self,
        host: NodeId,
        sw: NodeId,
        gbps: f64,
        delay: Nanos,
    ) -> PortId {
        let port = self.switch_mut(sw).add_port(Link::new(host, Host::PORT, gbps, delay));
        self.host_mut(host).link = Some(Link::new(sw, port, gbps, delay));
        // The switch's incoming link on `port` originates at the host.
        self.switch_mut(sw).set_peer(port, (host, Host::PORT));
        port
    }

    /// Connects two switches full-duplex; returns `(port_on_a, port_on_b)`.
    pub fn connect_switches(
        &mut self,
        a: NodeId,
        b: NodeId,
        gbps: f64,
        delay: Nanos,
    ) -> (PortId, PortId) {
        // Reserve the port numbers first so the links can reference them.
        let pa = self.switch(a).ports.len();
        let pb = self.switch(b).ports.len();
        let got_a = self.switch_mut(a).add_port(Link::new(b, pb, gbps, delay));
        let got_b = self.switch_mut(b).add_port(Link::new(a, pa, gbps, delay));
        debug_assert_eq!((got_a, got_b), (pa, pb));
        self.switch_mut(a).set_peer(pa, (b, pb));
        self.switch_mut(b).set_peer(pb, (a, pa));
        (pa, pb)
    }

    /// Directly connects two hosts (the Fig. 8 back-to-back setup).
    pub fn connect_hosts(&mut self, a: NodeId, b: NodeId, gbps: f64, delay: Nanos) {
        self.host_mut(a).link = Some(Link::new(b, Host::PORT, gbps, delay));
        self.host_mut(b).link = Some(Link::new(a, Host::PORT, gbps, delay));
    }

    /// Installs a transport endpoint for `flow` on `host`; returns its
    /// generational connection-table handle.
    pub fn install_endpoint(&mut self, host: NodeId, flow: FlowId, ep: Box<dyn Endpoint>) -> QpRef {
        self.host_mut(host).install(flow, ep)
    }

    /// Uninstalls the endpoint behind `qp` on `host`, returning it for
    /// recycling. Its counters are folded into the host's retired
    /// accumulator (so [`Simulator::all_endpoint_stats`] keeps counting
    /// them) and any timers it left armed die on the generation check.
    /// `None` when the handle is stale.
    pub fn remove_endpoint(&mut self, host: NodeId, qp: QpRef) -> Option<Box<dyn Endpoint>> {
        self.host_mut(host).remove(qp)
    }

    /// Posts a Work Request on `flow`'s sender endpoint and kicks the NIC.
    pub fn post(&mut self, host: NodeId, flow: FlowId, wr_id: u64, op: WorkReqOp, len: u64) {
        self.with_node(host, |node, ctx| {
            let Node::Host(h) = node else { panic!("{host:?} is not a host") };
            ctx.emit(|| ProbeEvent::MsgPosted { node: host.0, flow: flow.0, wr_id, bytes: len });
            h.post(flow, wr_id, op, len);
            h.try_transmit(ctx);
        });
    }

    /// Gives `host`'s NIC a transmission opportunity now.
    pub fn kick(&mut self, host: NodeId) {
        self.with_node(host, |node, ctx| {
            if let Node::Host(h) = node {
                h.try_transmit(ctx);
            }
        });
    }

    /// Which shard owns node `id` (always 0 while unsharded).
    #[inline]
    pub(crate) fn shard_of(&self, id: NodeId) -> usize {
        self.node_shard[id.0 as usize] as usize
    }

    /// Schedules an event, routing it to the owning shard (node events) or
    /// the control queue (sharded mode).
    pub fn schedule(&mut self, at: Nanos, ev: Event) {
        debug_assert!(at >= self.clock, "scheduling into the past: {at} < {}", self.clock);
        match ev {
            // One-shard decision 1 of 3. A control acts on the whole
            // simulator, so a sharded engine keeps controls in a serial
            // queue of their own and runs each at a barrier *before* any
            // node event of the same timestamp. With one shard there is
            // nothing to bar: the control stays in the shard's queue and
            // keeps its `(at, seq)` place among the node events — the order
            // every unsharded fault-plan digest was captured under.
            Event::Control { token } if self.shards.len() > 1 => {
                debug_assert!(
                    self.open_window.is_none_or(|w_end| at >= w_end),
                    "control at {at} inside the window a bounded call left open: \
                     the window's later events would run before it",
                );
                self.ctl_seq += 1;
                self.controls.push(Reverse((at, self.ctl_seq, token)));
            }
            _ => {
                let d = ev.node().map_or(0, |id| self.shard_of(id));
                self.shards[d].schedule(at, ev);
            }
        }
    }

    /// Serial node access: control-plane paths, `post`/`kick` from harness
    /// code, cable flips. Runs `f` on the node in place, at the simulator's
    /// clock, through the same [`enter_node`] the dispatcher uses; only the
    /// routing differs — this runs with exclusive access to everything, so
    /// emissions go straight into the owning shard's queue (a packet that
    /// crosses shards is moved between their pools) instead of a mailbox.
    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut Node, &mut NodeCtx)) {
        let s = self.shard_of(id);
        let clock = self.clock;
        let (shards, mut w) = self.engine_core();
        // Every stepping call returns with each shard walked up to the
        // clock; a node touched "now" must not still owe the past an event.
        debug_assert!(
            shards[s].queue.next_at().is_none_or(|at| at >= clock),
            "serial access to {id:?} at {clock} while its shard still holds an earlier event",
        );
        shards[s].now = clock;
        let mut out = enter_node(&mut shards[s], s, &mut w, id, f);
        for (at, mut ev) in out.drain(..) {
            let node = ev.node().expect("node handlers never emit Control events");
            let dst = w.node_shard[node.0 as usize] as usize;
            if dst != s {
                if let Event::PacketArrive { pkt, .. } = &mut ev {
                    let p = shards[s].pool.take(*pkt);
                    *pkt = shards[dst].pool.insert(p);
                }
            }
            shards[dst].schedule(at, ev);
        }
        shards[s].scratch = out;
    }

    /// Processes events up to the next completion boundary — the point
    /// after which completions are safe to drain — and returns the clock,
    /// or `None` when idle. Sharded, that is a window close with
    /// completions pending (whole lookahead windows run on worker threads
    /// when configured); unsharded, every event is one.
    ///
    /// A `while sim.advance().is_some()` driver loop observes the same
    /// completions in the same order at every shard/worker count; only the
    /// granularity at which its body sees them changes with the sharding.
    pub fn advance(&mut self) -> Option<Nanos> {
        self.pump(IDLE, true)
    }

    /// Bounded [`Simulator::advance`]: also stops once no shard holds an
    /// event at or before `limit`, returning `None` if nothing was
    /// processed.
    pub fn advance_bounded(&mut self, limit: Nanos) -> Option<Nanos> {
        self.pump(limit, true)
    }

    /// Runs until the queue is empty or the clock passes `t`: on return no
    /// shard holds an event at or before `t`, and the clock reads `t` or
    /// later.
    pub fn run_until(&mut self, t: Nanos) {
        self.pump(t, false);
        self.clock = self.clock.max(t);
    }

    /// Runs until every event is processed or `deadline` passes. Returns
    /// true if the queue drained. On a missed deadline, an attached probe's
    /// dump (e.g. the flight-recorder ring of the last few thousand events)
    /// is printed to stderr — a stalled run leaves a trace, not a boolean.
    pub fn run_to_quiescence(&mut self, deadline: Nanos) -> bool {
        self.pump(deadline, false);
        let pending = self.pending_events();
        if pending == 0 {
            return true;
        }
        self.flush_probes_serial();
        if let Some(dump) = self.flight_dump() {
            eprintln!(
                "run_to_quiescence: deadline {deadline} missed at t={} with {pending} pending events\n{dump}",
                self.clock,
            );
        }
        false
    }

    /// Pops the globally next completion: ascending completion time, ties
    /// broken by shard index (one shard: plain FIFO).
    fn pop_next_completion(&mut self) -> Option<Completion> {
        let mut best: Option<(Nanos, usize)> = None;
        for (i, s) in self.shards.iter().enumerate() {
            if let Some(c) = s.completions.front() {
                if best.is_none_or(|(at, _)| c.at < at) {
                    best = Some((c.at, i));
                }
            }
        }
        best.map(|(_, i)| self.shards[i].completions.pop_front().expect("peeked"))
    }

    /// Invokes `f` on each completion surfaced since the last drain,
    /// without allocating.
    pub fn for_each_completion(&mut self, mut f: impl FnMut(Completion)) {
        while let Some(c) = self.pop_next_completion() {
            f(c);
        }
    }

    /// Drains completions into `buf` (cleared first), reusing its storage —
    /// for loops that must keep `&mut Simulator` free while consuming them.
    pub fn drain_completions_into(&mut self, buf: &mut Vec<Completion>) {
        buf.clear();
        while let Some(c) = self.pop_next_completion() {
            buf.push(c);
        }
    }

    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum::<usize>() + self.controls.len()
    }

    /// Total events dispatched so far (controls included).
    pub fn events_processed(&self) -> u64 {
        self.ctl_events + self.shards.iter().map(|s| s.events).sum::<u64>()
    }

    /// High-water mark of the pending-event set. Sharded runs report the
    /// sum of per-shard high-water marks — an upper bound on the true
    /// simultaneous peak (shards may peak at different times).
    pub fn peak_pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.queue.peak_len()).sum()
    }

    /// Aggregated fabric counters across all switches, plus the engine's
    /// fault-plane wire losses (merged across shards).
    pub fn net_stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for s in &self.shards {
            total.merge(&s.fault_stats);
        }
        for n in &self.nodes {
            if let Node::Switch(s) = n {
                total.merge(&s.stats);
            }
        }
        total
    }

    /// Merge of every endpoint's transport counters across all hosts (both
    /// senders and receivers) — the aggregate the conservation identities
    /// are stated over.
    pub fn all_endpoint_stats(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for n in &self.nodes {
            if let Node::Host(h) = n {
                for ep in h.endpoints() {
                    total.merge(&ep.stats());
                }
                // Removed endpoints' lifetime counters, so churn never
                // breaks the conservation identities.
                total.merge(h.retired_stats());
            }
        }
        total
    }

    /// Cross-validates fabric and endpoint counters (see
    /// [`crate::stats::Conservation`]). Pass `quiesced = true` after a
    /// drained [`Simulator::run_to_quiescence`] for exact accounting; on a
    /// violation an attached probe's dump is printed to stderr.
    pub fn check_conservation(&self, quiesced: bool) -> crate::stats::Conservation {
        let mut c = crate::stats::Conservation::check(
            &self.net_stats(),
            &self.all_endpoint_stats(),
            quiesced,
        );
        // Pool leak check: at quiescence every handle must have been taken
        // or released — a live slot means some path dropped a PktRef
        // without freeing it. Sharded runs check every shard's pool.
        let live: usize = self.shards.iter().map(|s| s.pool.len()).sum();
        if quiesced && live > 0 {
            let cap: usize = self.shards.iter().map(|s| s.pool.capacity()).sum();
            c.violations.push(format!(
                "packet pool leaks {live} live slot(s) at quiescence (capacity {cap})"
            ));
        }
        if !c.is_ok() {
            if let Some(dump) = self.flight_dump() {
                eprintln!("conservation violated:\n{}\n{dump}", c.violations.join("\n"));
            }
        }
        c
    }

    /// Transport counters of `flow`'s endpoint on `host`.
    pub fn endpoint_stats(&self, host: NodeId, flow: FlowId) -> TransportStats {
        self.host(host)
            .endpoint(flow)
            .unwrap_or_else(|| panic!("no endpoint for {flow:?} on {host:?}"))
            .stats()
    }

    /// Whether `flow`'s endpoint on `host` reports itself finished.
    pub fn endpoint_done(&self, host: NodeId, flow: FlowId) -> bool {
        self.host(host).endpoint(flow).map(|e| e.is_done()).unwrap_or(true)
    }

    /// Port count of `id` when it names a switch, `None` for hosts and
    /// out-of-range ids — the non-panicking topology query fault-plan
    /// validation runs against untrusted (loaded) plans.
    pub fn switch_port_count(&self, id: NodeId) -> Option<usize> {
        match self.nodes.get(id.0 as usize) {
            Some(Node::Switch(s)) => Some(s.ports.len()),
            _ => None,
        }
    }

    // --- Topology-fault mechanisms (driven by an installed `FaultPlane`) ---

    /// The two unidirectional links of the full-duplex cable on `sw`'s
    /// `port`, each named by its *arrival* endpoint `(node, port)` — the key
    /// a [`FaultPlane`] sees in `on_arrival`. `[0]` is the direction leaving
    /// `sw`, `[1]` the direction arriving at `sw`.
    pub fn cable_arrival_keys(&self, sw: NodeId, port: PortId) -> [(NodeId, PortId); 2] {
        let link = self.switch(sw).ports[port].link;
        [(link.to, link.to_port), (sw, port)]
    }

    /// Downs (`up = false`) or restores both directions of the cable on
    /// `sw`'s `port`. Down ports stop serving their egress queues — traffic
    /// hashed onto them backs up, which is exactly what lets adaptive
    /// routing route around the fault while static ECMP blackholes.
    /// Restoring kicks both ends so backed-up queues drain immediately.
    /// Packets already in flight on the wire are *not* touched; pair this
    /// with a [`FaultPlane`] dropping arrivals on the same keys for full
    /// link-down semantics.
    pub fn set_cable_up(&mut self, sw: NodeId, port: PortId, up: bool) {
        let link = self.switch(sw).ports[port].link;
        self.switch_mut(sw).set_port_up(port, up);
        match &mut self.nodes[link.to.0 as usize] {
            Node::Host(h) => h.link_up = up,
            Node::Switch(s) => s.set_port_up(link.to_port, up),
        }
        if up {
            self.kick_switch_port(sw, port);
            match &self.nodes[link.to.0 as usize] {
                Node::Host(_) => self.kick(link.to),
                Node::Switch(_) => self.kick_switch_port(link.to, link.to_port),
            }
        }
    }

    /// Degrades (or restores) both directions of the cable on `sw`'s `port`
    /// to the given rate and propagation delay. Packets already serializing
    /// keep their old timing; subsequent transmissions use the new one.
    ///
    /// Sharded runs refuse to *shorten* a cross-shard cable below the
    /// engine lookahead — the safe horizon was computed from the build-time
    /// minimum (debug assertion; release builds would lose determinism, not
    /// memory safety).
    pub fn set_cable_params(&mut self, sw: NodeId, port: PortId, gbps: f64, delay: Nanos) {
        let (to, to_port) = {
            let l = &mut self.switch_mut(sw).ports[port].link;
            l.gbps = gbps;
            l.delay = delay;
            (l.to, l.to_port)
        };
        debug_assert!(
            self.shards.len() == 1
                || self.shard_of(sw) == self.shard_of(to)
                || delay >= self.lookahead,
            "degrading a cross-shard cable below the engine lookahead ({} < {})",
            delay,
            self.lookahead,
        );
        match &mut self.nodes[to.0 as usize] {
            Node::Host(h) => {
                if let Some(l) = h.link.as_mut() {
                    l.gbps = gbps;
                    l.delay = delay;
                }
            }
            Node::Switch(s) => {
                // `to_port` is the peer's egress back toward us — the
                // reverse direction of this same cable (see
                // `connect_switches`), so parallel cables stay distinct.
                let back = &mut s.ports[to_port].link;
                debug_assert_eq!(back.to, sw);
                back.gbps = gbps;
                back.delay = delay;
            }
        }
    }

    /// Fails switch `sw` in place: every queued packet is drained and
    /// booked as a fault drop (by class), PFC state is cleared with RESUMEs
    /// sent upstream so no neighbour stays wedged, and all ports go down.
    /// The node object survives — arrivals while failed are the
    /// [`FaultPlane`]'s to drop.
    pub fn fail_switch(&mut self, sw: NodeId) {
        self.with_node(sw, |n, ctx| {
            if let Node::Switch(s) = n {
                s.fail(ctx);
            }
        });
    }

    /// Recovers a failed switch: ports come back up (queues are empty —
    /// `fail` drained them — so there is nothing to kick until traffic
    /// arrives). Routing and configuration are unchanged.
    pub fn recover_switch(&mut self, sw: NodeId) {
        let s = self.switch_mut(sw);
        for p in 0..s.ports.len() {
            s.set_port_up(p, true);
        }
    }

    /// The fabric's PFC pause-dependency edges, one `(blocked, blocker)`
    /// pair per asserted pause: switch `s` holding ingress `p` over xoff
    /// has PAUSEd its upstream peer `u`, so `u`'s egress toward `s` cannot
    /// drain until `s` does — `u` waits on `s`. A cycle in this graph is
    /// the classic PFC deadlock (every switch in the cycle waits on the
    /// next); the `dcp-check` watchdog runs cycle detection over it.
    /// Edges are emitted in node/port order, so the export is
    /// deterministic.
    pub fn pause_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for n in &self.nodes {
            if let Node::Switch(s) = n {
                for p in s.paused_ingress_ports() {
                    if let Some((u, _)) = s.ports[p].peer {
                        edges.push((u, s.id));
                    }
                }
            }
        }
        edges
    }

    /// Gives `sw`'s egress `port` a transmission opportunity now (used
    /// after a cable comes back up with a backlog).
    pub fn kick_switch_port(&mut self, sw: NodeId, port: PortId) {
        self.with_node(sw, |n, ctx| {
            if let Node::Switch(s) = n {
                s.try_transmit(port, ctx);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression lock for the handle-based event layout: every event
    /// wheel node's payload must stay within 32 bytes. Growing a variant past
    /// this puts struct traffic back on the hottest path in the simulator.
    #[test]
    fn event_stays_handle_sized() {
        assert!(
            std::mem::size_of::<Event>() <= 32,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
    }
}
