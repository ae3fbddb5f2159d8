//! The host NIC model: connection table, QP scheduling and wire pacing.
//!
//! A host owns one full-duplex link (single-NIC servers, as in the paper's
//! simulations). Its connection plane is built for O(active), not
//! O(installed), cost — the regime the paper's Table 4 argues DCP enables
//! (millions of mostly-idle QPs per host):
//!
//! * Endpoints live in a **slab** addressed by [`QpRef`] `{slot, gen}`;
//!   `install`/`remove` recycle slots through a free list, so connection
//!   churn allocates nothing in steady state, and the generation counter
//!   makes stale references (a timer armed by a previous occupant of the
//!   slot) detectably dead instead of silently misdelivered.
//! * `FlowId → slot` resolves through a **direct-index page table** (flow
//!   ids are dense), so the per-packet delivery path is two array loads —
//!   no hashing.
//! * The transmit side implements the RNIC QP Scheduler of §4.3 once, in
//!   [`Host::try_transmit`]: weighted round-robin over tenants and, within
//!   a tenant, round-robin with a per-round byte quota ([`ROUND_QUOTA`])
//!   over the **ready set** ([`crate::ready::ReadySet`]), so only endpoints
//!   with `has_pending()` are visited. A host nobody tagged has one tenant,
//!   and its schedule is the paper's plain round-robin (the determinism
//!   suite locks byte-identical traces).

use crate::endpoint::{Completion, CompletionKind, Endpoint, EndpointCtx};
use crate::link::Link;
use crate::packet::{FlowId, NodeId, PortId};
use crate::pool::PktRef;
use crate::ready::ReadySet;
use crate::sim::{Event, NodeCtx};
use crate::stats::TransportStats;
use crate::time::{tx_time, Nanos};
use dcp_rdma::qp::WorkReqOp;
use dcp_telemetry::ProbeEvent;

/// Default per-round quota of the QP scheduler (§4.3: 16 KB ≈ PCIe BDP).
pub const ROUND_QUOTA: i64 = 16 * 1024;

/// Byte-served counters rescale (halve) past this, like the switch WRR —
/// ratios survive, overflow can't happen.
const SERVED_RESCALE: u64 = 1 << 50;

/// One tenant's share of the egress scheduler. Tenant 0 always exists and
/// owns every QP nobody tagged.
#[derive(Clone)]
struct Tenant {
    /// Relative egress weight, never 0.
    weight: u64,
    /// Bytes served (all tenants rescale in lockstep).
    served: u64,
    /// Round-robin cursor over this tenant's slots.
    cursor: u32,
    /// What is left of the byte quota of the QP under the cursor.
    quota: i64,
    /// Ready-slot count, maintained incrementally so the pick never scans
    /// tenants with nothing to send.
    ready: u32,
}

impl Tenant {
    const NEW: Tenant = Tenant { weight: 1, served: 0, cursor: 0, quota: ROUND_QUOTA, ready: 0 };
}

/// Entries per page of the `FlowId → slot` table.
const PAGE: usize = 256;
/// "No slot" sentinel in page-table entries.
const NO_SLOT: u32 = u32::MAX;

/// Generational handle to an installed endpoint — the PR-3 pool pattern
/// applied to QPs. A `QpRef` held across a `remove` never resurrects: the
/// slot's generation moved on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpRef {
    pub slot: u32,
    pub gen: u32,
}

/// One slab slot: the endpoint (when occupied), the flow it serves and the
/// generation stamp that invalidates old handles.
struct QpEntry {
    gen: u32,
    flow: FlowId,
    ep: Option<Box<dyn Endpoint>>,
}

pub struct Host {
    pub id: NodeId,
    /// Outgoing link; set when the topology wires the host up.
    pub link: Option<Link>,
    /// Cable state (fault plane): a down NIC keeps accepting posts but
    /// never transmits; the simulator kicks it when the cable is restored.
    pub link_up: bool,
    /// Slab of connection slots; freed slots are reused LIFO.
    slots: Vec<QpEntry>,
    free: Vec<u32>,
    /// Occupied-slot count.
    live: usize,
    /// `FlowId → slot` pages (`flow.0 / PAGE` selects the page); dense flow
    /// ids make this a direct index, no per-packet hashing.
    pages: Vec<Option<Box<[u32; PAGE]>>>,
    /// Counters of removed endpoints, merged at removal so conservation
    /// stays exact under churn.
    retired: TransportStats,
    busy: bool,
    /// PFC PAUSE received from the ToR.
    pub paused: bool,
    /// Slots whose endpoint currently has something to send.
    ready: ReadySet,
    /// Tenant tag per slot (parallel to `slots`; 0 = default tenant).
    tenant_of: Vec<u8>,
    /// Scheduler state per tenant, indexed by tag; never empty.
    tenants: Vec<Tenant>,
    /// Scratch buffers reused across `run_endpoint` calls so the steady
    /// state allocates nothing per event.
    timers_scratch: Vec<(Nanos, u64)>,
    comps_scratch: Vec<Completion>,
}

impl Host {
    pub fn new(id: NodeId) -> Self {
        Host {
            id,
            link: None,
            link_up: true,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            pages: Vec::new(),
            retired: TransportStats::default(),
            busy: false,
            paused: false,
            ready: ReadySet::new(),
            tenant_of: Vec::new(),
            tenants: vec![Tenant::NEW],
            timers_scratch: Vec::new(),
            comps_scratch: Vec::new(),
        }
    }

    /// Sets the tenants' relative egress shares: `weights[t]` is tenant
    /// `t`'s (0 counts as 1), tenants beyond the table weigh 1. Safe to
    /// call mid-run: nothing but the weights changes.
    pub fn set_tenant_weights(&mut self, weights: &[u64]) {
        assert!(weights.len() <= 256, "{} weights, but tenant ids are u8", weights.len());
        self.tenants.resize(self.tenants.len().max(weights.len()), Tenant::NEW);
        for (t, tenant) in self.tenants.iter_mut().enumerate() {
            tenant.weight = weights.get(t).copied().unwrap_or(1).max(1);
        }
    }

    /// Moves `flow`'s QP to `tenant` (weight 1 unless
    /// [`Host::set_tenant_weights`] says otherwise).
    pub fn set_flow_tenant(&mut self, flow: FlowId, tenant: u8) {
        let slot =
            self.slot_of(flow).unwrap_or_else(|| panic!("no endpoint for flow {flow:?}")) as usize;
        self.tenants.resize(self.tenants.len().max(tenant as usize + 1), Tenant::NEW);
        let old = std::mem::replace(&mut self.tenant_of[slot], tenant);
        if self.ready.contains(slot) {
            self.tenants[old as usize].ready -= 1;
            self.tenants[tenant as usize].ready += 1;
        }
    }

    /// Slot serving `flow`, through the page table.
    #[inline]
    fn slot_of(&self, flow: FlowId) -> Option<u32> {
        let f = flow.0 as usize;
        match self.pages.get(f / PAGE)?.as_deref() {
            Some(page) => {
                let s = page[f % PAGE];
                (s != NO_SLOT).then_some(s)
            }
            None => None,
        }
    }

    fn map_flow(&mut self, flow: FlowId, slot: u32) {
        let f = flow.0 as usize;
        let p = f / PAGE;
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let page = self.pages[p].get_or_insert_with(|| Box::new([NO_SLOT; PAGE]));
        assert!(page[f % PAGE] == NO_SLOT, "flow {flow:?} already installed on host {:?}", self.id);
        page[f % PAGE] = slot;
    }

    fn unmap_flow(&mut self, flow: FlowId) {
        let f = flow.0 as usize;
        let page = self.pages[f / PAGE].as_deref_mut().expect("mapped flow has a page");
        debug_assert_ne!(page[f % PAGE], NO_SLOT);
        page[f % PAGE] = NO_SLOT;
    }

    /// Registers a transport endpoint for `flow`; packets of that flow
    /// arriving at this host are delivered to it. Returns the generational
    /// handle; reuses a freed slot when one exists.
    pub fn install(&mut self, flow: FlowId, ep: Box<dyn Endpoint>) -> QpRef {
        let slot = match self.free.pop() {
            Some(s) => {
                let e = &mut self.slots[s as usize];
                debug_assert!(e.ep.is_none());
                e.flow = flow;
                e.ep = Some(ep);
                // Recycled slots start over in the default tenant; the
                // ready bit is clear, so no ready count moves.
                self.tenant_of[s as usize] = 0;
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(QpEntry { gen: 0, flow, ep: Some(ep) });
                self.tenant_of.push(0);
                s
            }
        };
        self.map_flow(flow, slot);
        self.live += 1;
        self.refresh_ready(slot as usize);
        QpRef { slot, gen: self.slots[slot as usize].gen }
    }

    /// Uninstalls the endpoint behind `qp`, returning it for recycling (or
    /// dropping). The slot's generation advances — timers and references
    /// stamped with the old generation are dead — and the endpoint's
    /// counters are folded into the host's retired accumulator so the
    /// conservation identities keep holding. `None` when `qp` is stale.
    pub fn remove(&mut self, qp: QpRef) -> Option<Box<dyn Endpoint>> {
        let e = self.slots.get_mut(qp.slot as usize)?;
        if e.gen != qp.gen || e.ep.is_none() {
            return None;
        }
        let ep = e.ep.take().expect("checked occupied");
        e.gen = e.gen.wrapping_add(1);
        let flow = e.flow;
        self.retired.merge(&ep.stats());
        self.unmap_flow(flow);
        self.set_ready(qp.slot as usize, false);
        self.free.push(qp.slot);
        self.live -= 1;
        Some(ep)
    }

    /// The current handle for `flow`'s endpoint, if installed.
    pub fn qp_ref(&self, flow: FlowId) -> Option<QpRef> {
        let slot = self.slot_of(flow)?;
        Some(QpRef { slot, gen: self.slots[slot as usize].gen })
    }

    pub fn endpoint(&self, flow: FlowId) -> Option<&dyn Endpoint> {
        let slot = self.slot_of(flow)?;
        self.slots[slot as usize].ep.as_deref()
    }

    /// Iterates the installed endpoints (removal leaves no holes visible).
    pub fn endpoints(&self) -> impl Iterator<Item = &dyn Endpoint> {
        self.slots.iter().filter_map(|e| e.ep.as_deref())
    }

    /// Installed-endpoint count.
    pub fn installed(&self) -> usize {
        self.live
    }

    /// Counters accumulated from removed endpoints.
    pub fn retired_stats(&self) -> &TransportStats {
        &self.retired
    }

    /// Posts a Work Request on the sender endpoint of `flow`.
    pub fn post(&mut self, flow: FlowId, wr_id: u64, op: WorkReqOp, len: u64) {
        let slot = self.slot_of(flow).unwrap_or_else(|| panic!("no endpoint for flow {flow:?}"));
        self.slots[slot as usize]
            .ep
            .as_mut()
            .expect("mapped slot is occupied")
            .post(wr_id, op, len);
        self.refresh_ready(slot as usize);
    }

    /// Re-derives the ready bit of `slot` from its endpoint. Called after
    /// every endpoint callback so the bitmap always equals `has_pending()`.
    #[inline]
    fn refresh_ready(&mut self, slot: usize) {
        let pending = self.slots[slot].ep.as_deref().is_some_and(|e| e.has_pending());
        self.set_ready(slot, pending);
    }

    /// Single write path for ready bits: the owning tenant's ready count
    /// moves with every transition.
    #[inline]
    fn set_ready(&mut self, slot: usize, pending: bool) {
        if self.ready.contains(slot) != pending {
            let n = &mut self.tenants[self.tenant_of[slot] as usize].ready;
            if pending {
                *n += 1;
            } else {
                *n -= 1;
            }
            self.ready.assign(slot, pending);
        }
    }

    fn run_endpoint<R>(
        &mut self,
        slot: usize,
        ctx: &mut NodeCtx,
        f: impl FnOnce(&mut dyn Endpoint, &mut EndpointCtx) -> R,
    ) -> R {
        let mut timers = std::mem::take(&mut self.timers_scratch);
        let mut comps = std::mem::take(&mut self.comps_scratch);
        timers.clear();
        comps.clear();
        let ep = self.slots[slot].ep.as_deref_mut().expect("callback on occupied slot");
        // Transport-level probe events are derived by diffing the endpoint's
        // own counters around the callback — one extra stats() call per
        // callback when a probe is attached, nothing at all otherwise.
        let before = ctx.probe.is_some().then(|| ep.stats());
        let r = {
            let mut ectx = EndpointCtx {
                now: ctx.now,
                pool: ctx.pool,
                timers: &mut timers,
                completions: &mut comps,
                rng: ctx.rng,
                probe: ctx.probe.as_deref_mut(),
            };
            f(ep, &mut ectx)
        };
        if let Some(before) = before {
            let after = self.slots[slot].ep.as_deref().expect("still occupied").stats();
            let flow = self.slots[slot].flow.0;
            let node = self.id.0;
            for _ in before.timeouts..after.timeouts {
                ctx.emit(|| ProbeEvent::Timeout { node, flow });
            }
            for _ in before.ho_received..after.ho_received {
                ctx.emit(|| ProbeEvent::HoReceived { node, flow });
            }
            for _ in before.duplicates..after.duplicates {
                ctx.emit(|| ProbeEvent::Duplicate { node, flow });
            }
            for c in &comps {
                if c.kind == CompletionKind::RecvComplete {
                    ctx.emit(|| ProbeEvent::Delivery {
                        node,
                        flow: c.flow.0,
                        wr_id: c.wr_id,
                        bytes: c.bytes,
                    });
                }
            }
        }
        let gen = self.slots[slot].gen;
        for &(at, token) in &timers {
            ctx.out
                .push((at, Event::EndpointTimer { node: self.id, slot: slot as u32, gen, token }));
        }
        // Almost no callback completes a message: skip the empty hand-off.
        if !comps.is_empty() {
            ctx.completions.extend(comps.drain(..));
        }
        self.timers_scratch = timers;
        self.comps_scratch = comps;
        self.refresh_ready(slot);
        r
    }

    /// A packet addressed to this host arrived. Delivery is two array
    /// loads: page-table index, slab slot.
    pub fn on_packet(&mut self, pr: PktRef, ctx: &mut NodeCtx) {
        let flow = ctx.pool[pr].flow;
        let Some(slot) = self.slot_of(flow) else {
            debug_assert!(false, "host {:?} got packet for unknown flow {:?}", self.id, flow);
            ctx.pool.release(pr);
            return;
        };
        debug_assert_eq!(self.slots[slot as usize].flow, flow, "page table out of sync");
        self.run_endpoint(slot as usize, ctx, |ep, ectx| ep.on_packet(pr, ectx));
        self.try_transmit(ctx);
    }

    /// A timer stamped `{slot, gen}` fired. Stale generations — the slot
    /// was removed (and possibly refilled) since the timer was armed — are
    /// dropped here; the event was still dispatched and counted. A live
    /// slot gets the token: its endpoint decides whether the timer expired,
    /// re-queues it at a moved deadline, or lets it die.
    pub fn on_timer(&mut self, slot: u32, gen: u32, token: u64, ctx: &mut NodeCtx) {
        let Some(e) = self.slots.get(slot as usize) else { return };
        if e.gen != gen || e.ep.is_none() {
            return;
        }
        self.run_endpoint(slot as usize, ctx, |ep, ectx| ep.on_timer(token, ectx));
        self.try_transmit(ctx);
    }

    /// The wire finished serializing the previous packet.
    pub fn on_port_free(&mut self, ctx: &mut NodeCtx) {
        self.busy = false;
        self.try_transmit(ctx);
    }

    /// PFC PAUSE/RESUME from the ToR.
    pub fn on_pfc(&mut self, pause: bool, ctx: &mut NodeCtx) {
        self.paused = pause;
        if !pause {
            self.try_transmit(ctx);
        }
    }

    #[inline]
    fn next_slot(&self, slot: u32) -> u32 {
        let n = self.slots.len() as u32;
        if slot + 1 >= n {
            0
        } else {
            slot + 1
        }
    }

    /// The ready tenant with the smallest `served/weight` (ties to the lower
    /// id) among those not yet `passed` over — the switch's ctrl-vs-data WRR
    /// generalized, so over any busy interval tenant byte shares converge to
    /// the weight vector regardless of per-tenant QP counts. Compared by
    /// cross-multiplication (exact in u128; no float drift in the digest).
    fn pick(&self, passed: &[u64; 4]) -> Option<usize> {
        let scaled = |a: &Tenant, b: &Tenant| a.served as u128 * b.weight as u128;
        (0..self.tenants.len())
            .filter(|&t| self.tenants[t].ready > 0 && passed[t / 64] >> (t % 64) & 1 == 0)
            .min_by(|&a, &b| {
                let (a, b) = (&self.tenants[a], &self.tenants[b]);
                scaled(a, b).cmp(&scaled(b, a))
            })
    }

    /// Next ready slot of tenant `t`, cyclically from its cursor. Bounded:
    /// each miss steps past one ready slot of another tenant.
    fn next_ready_of(&self, t: usize) -> Option<u32> {
        let mut from = self.tenants[t].cursor;
        for _ in 0..self.ready.count() {
            let slot = self.ready.next_from(from as usize)? as u32;
            if self.tenant_of[slot as usize] as usize == t {
                return Some(slot);
            }
            from = self.next_slot(slot);
        }
        None
    }

    /// QP scheduler, one transmission opportunity: take the most
    /// underserved ready tenant, offer the wire round-robin with a byte
    /// quota to each of its ready QPs at most once, launch the first packet
    /// pulled. Two rules keep the wire busy while anything can send: a QP
    /// that answers `None` (pacing, or a closed window — it stays ready
    /// until a timer or an ACK reopens it) is stepped over, and a tenant
    /// whose every ready QP answered `None` is passed over for the rest of
    /// the pass. Its `served` did not move, so picking again would pick it
    /// again and idle the NIC while other tenants hold sendable packets.
    ///
    /// Within a tenant this is the historical full scan the determinism
    /// suite locks: that loop visited every slot once, cyclically from the
    /// cursor, skipping idle ones — each skip advanced the cursor and reset
    /// the quota. Jumping straight to the next ready slot lands in the
    /// identical state (cursor at that slot, quota fresh unless the cursor
    /// was already there), pulls the same endpoints in the same order, and
    /// a no-transmit pass ended with the cursor back where it started (a
    /// full lap) and the quota reset.
    pub fn try_transmit(&mut self, ctx: &mut NodeCtx) {
        if self.busy || self.paused || !self.link_up || self.live == 0 {
            return;
        }
        let Some(link) = self.link else { return };
        debug_assert_eq!(
            self.tenants.iter().map(|t| t.ready as usize).sum::<usize>(),
            self.ready.count(),
            "per-tenant ready counts out of step with the ready set"
        );
        let mut passed = [0u64; 4]; // one bit per `u8` tenant id
        while let Some(t) = self.pick(&passed) {
            let cursor0 = self.tenants[t].cursor;
            // Each ready endpoint is offered at most once per pass (the old
            // scan's single lap).
            for _ in 0..self.tenants[t].ready {
                let Some(slot) = self.next_ready_of(t) else { break };
                let tenant = &mut self.tenants[t];
                if slot != tenant.cursor {
                    // Skipped over idle slots: the scan reset the quota at each.
                    tenant.cursor = slot;
                    tenant.quota = ROUND_QUOTA;
                }
                debug_assert!(
                    self.slots[slot as usize].ep.as_deref().is_some_and(|e| e.has_pending()),
                    "ready bit set for a non-pending endpoint"
                );
                let pulled = self.run_endpoint(slot as usize, ctx, |ep, ectx| ep.pull(ectx));
                let next = self.next_slot(slot);
                let Some(pr) = pulled else {
                    // Gated: the endpoint is owed a timer or an arrival. Move on.
                    let tenant = &mut self.tenants[t];
                    tenant.cursor = next;
                    tenant.quota = ROUND_QUOTA;
                    continue;
                };
                let bytes = self.launch(pr, link, ctx);
                let tenant = &mut self.tenants[t];
                tenant.quota -= bytes as i64;
                if tenant.quota <= 0 {
                    tenant.cursor = next;
                    tenant.quota = ROUND_QUOTA;
                }
                tenant.served = tenant.served.saturating_add(bytes as u64);
                if tenant.served > SERVED_RESCALE {
                    self.tenants.iter_mut().for_each(|t| t.served >>= 1);
                }
                return;
            }
            // Every offer was declined, the last leaving the quota fresh: a
            // full lap, cursor back where it began.
            self.tenants[t].cursor = cursor0;
            passed[t / 64] |= 1 << (t % 64);
        }
        // Nothing was sent — perhaps nothing was ready. The wire went all
        // round unclaimed, which ends the round: the next QP to wake gets a
        // whole quota, not the rest of one it began before the NIC idled
        // (the full scan reset the quota at every idle slot it lapped).
        for tenant in &mut self.tenants {
            tenant.quota = ROUND_QUOTA;
        }
    }

    /// Puts a pulled packet on the wire: stamps it, emits the Tx/Retx
    /// probe, occupies the port and schedules its arrival. Returns the
    /// wire bytes charged to the scheduler.
    fn launch(&mut self, pr: PktRef, link: Link, ctx: &mut NodeCtx) -> usize {
        let (bytes, is_data, is_retx, flow, psn, cause) = {
            let pkt = &mut ctx.pool[pr];
            pkt.sent_at = ctx.now;
            (pkt.wire_bytes(), pkt.is_data(), pkt.is_retx, pkt.flow.0, pkt.psn(), pkt.retx_cause)
        };
        if ctx.probe.is_some() && is_data {
            let node = self.id.0;
            let wire = bytes as u32;
            if is_retx {
                ctx.emit(|| ProbeEvent::Retx { node, flow, psn, bytes: wire, cause });
            } else {
                ctx.emit(|| ProbeEvent::Tx { node, flow, psn, bytes: wire });
            }
        }
        let tx = tx_time(bytes, link.gbps);
        self.busy = true;
        ctx.out.push((ctx.now + tx, Event::PortFree { node: self.id, port: 0 }));
        ctx.out.push((
            ctx.now + tx + link.delay,
            Event::PacketArrive { node: link.to, port: link.to_port, pkt: pr },
        ));
        bytes
    }

    /// Ingress port of a host is always 0 (single NIC).
    pub const PORT: PortId = 0;
}
