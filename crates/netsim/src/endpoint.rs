//! The contract between the host NIC model and a transport implementation.
//!
//! The NIC *pulls* packets (smoltcp-style polling): whenever the host's wire
//! is free, the QP scheduler offers each endpoint a chance to emit. An
//! endpoint that is pacing (rate limit, window exhausted) returns `None` and
//! is polled again when what it waits for happens — the timer it arranged,
//! or the ACK arrival that reopens its window; an endpoint with nothing to
//! say reports `has_pending() == false` and is skipped until a packet or
//! timer wakes it.
//!
//! Packets cross this boundary as pool handles ([`PktRef`]): `on_packet`
//! *owns* the handle it is given and must `take`/`release` it from
//! [`EndpointCtx::pool`] (a leaked handle trips the quiescence check);
//! `pull` returns a handle freshly inserted into the same pool.

use crate::packet::{FlowId, NodeId, Packet};
use crate::pool::{PacketPool, PktRef};
use crate::stats::TransportStats;
use crate::time::Nanos;
use dcp_telemetry::{Probe, ProbeEvent};
use rand::rngs::StdRng;

/// Message-level completion surfaced to the application/driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub host: NodeId,
    pub flow: FlowId,
    pub wr_id: u64,
    pub kind: CompletionKind,
    pub bytes: u64,
    pub imm: u32,
    pub at: Nanos,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// Sender-side WQE retired (message fully acknowledged).
    SendComplete,
    /// Receiver-side message fully arrived and delivered in MSN order.
    RecvComplete,
}

/// Mutable context handed to endpoint callbacks.
pub struct EndpointCtx<'a> {
    pub now: Nanos,
    /// The simulation-wide packet arena; resolves [`PktRef`] handles.
    pub pool: &'a mut PacketPool,
    /// Absolute-time timer requests `(fire_at, token)`; the simulator
    /// delivers them back through [`Endpoint::on_timer`]. Each push is one
    /// wheel entry that cannot be cancelled, so a timer reset on every ACK
    /// should push only when no entry of its own is queued at or before
    /// the new deadline (as `dcp_transport::txcore::Deadline` does).
    pub timers: &'a mut Vec<(Nanos, u64)>,
    /// Completions to surface to the experiment runner.
    pub completions: &'a mut Vec<Completion>,
    /// The simulation's deterministic RNG.
    pub rng: &'a mut StdRng,
    /// Telemetry sink; `None` on bare runs. Transports may emit
    /// transport-level events through [`EndpointCtx::emit`].
    pub probe: Option<&'a mut (dyn Probe + 'static)>,
}

impl EndpointCtx<'_> {
    /// Records a probe event; the closure runs only when a probe is
    /// installed, so the off path is a single branch.
    #[inline]
    pub fn emit(&mut self, ev: impl FnOnce() -> ProbeEvent) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.record(self.now, &ev());
        }
    }
}

/// One side of a transport connection, attached to a host NIC.
pub trait Endpoint: Send {
    /// Posts a Work Request on a sender endpoint. Receiver endpoints keep
    /// the default, which panics — posting to one is a harness bug.
    fn post(&mut self, wr_id: u64, op: dcp_rdma::qp::WorkReqOp, len: u64) {
        let _ = (wr_id, op, len);
        panic!("this endpoint does not accept work requests");
    }

    /// A packet addressed to this endpoint arrived from the wire. The
    /// endpoint owns `pkt` and must resolve it against `ctx.pool`
    /// (`take`/`release`) — handles left behind leak pool slots.
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx);

    /// A previously requested timer fired.
    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx);

    /// The NIC can transmit: return the next packet (inserted into
    /// `ctx.pool`), or `None` if pacing or out of permitted sends.
    /// Contract: if this returns `None` while [`Endpoint::has_pending`] is
    /// true, a timer or an arrival must already be on its way: a paced
    /// sender armed a timer, a sender behind a closed window is woken by the
    /// ACK that opens it. Either way the endpoint stays in the ready set and
    /// the scheduler must step past it, not wait on it.
    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef>;

    /// Whether the endpoint currently wants wire time.
    fn has_pending(&self) -> bool;

    /// Transport counters for the harness.
    fn stats(&self) -> TransportStats;

    /// True once every posted message has been fully delivered/acknowledged.
    /// Used by runners to detect quiescence.
    fn is_done(&self) -> bool;

    /// Rebinds a retired endpoint to a fresh connection identity, clearing
    /// all per-connection state *in place* (collections keep their
    /// capacity, so steady-state churn allocates nothing) and zeroing the
    /// counters — the host's retired-stats accumulator already holds the
    /// previous life's numbers, so a recycled endpoint restarting at zero
    /// keeps conservation exact.
    ///
    /// Returns `false` (the default) when the transport does not support
    /// recycling; callers then construct a fresh endpoint instead.
    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        let _ = (flow, local, remote);
        false
    }
}

/// Assembles a probe-less [`EndpointCtx`] at `now` over caller-owned
/// buffers — for tests and harnesses that call [`Endpoint::on_timer`] (or
/// a transport's internals) directly; [`deliver`] and [`pull_owned`] cover
/// the other two callbacks.
pub fn ctx<'a>(
    now: Nanos,
    pool: &'a mut PacketPool,
    timers: &'a mut Vec<(Nanos, u64)>,
    completions: &'a mut Vec<Completion>,
    rng: &'a mut StdRng,
) -> EndpointCtx<'a> {
    EndpointCtx { now, pool, timers, completions, rng, probe: None }
}

/// Drives [`Endpoint::on_packet`] with an owned packet, routing it through
/// `pool`. Convenience for tests and harnesses that construct packets
/// directly instead of receiving them from the fabric.
pub fn deliver(
    ep: &mut dyn Endpoint,
    pool: &mut PacketPool,
    pkt: Packet,
    now: Nanos,
    timers: &mut Vec<(Nanos, u64)>,
    completions: &mut Vec<Completion>,
    rng: &mut StdRng,
) {
    let pr = pool.insert(pkt);
    ep.on_packet(pr, &mut ctx(now, pool, timers, completions, rng));
}

/// Drives [`Endpoint::pull`] and takes the result back out of `pool`,
/// returning the owned packet. Counterpart of [`deliver`].
pub fn pull_owned(
    ep: &mut dyn Endpoint,
    pool: &mut PacketPool,
    now: Nanos,
    timers: &mut Vec<(Nanos, u64)>,
    completions: &mut Vec<Completion>,
    rng: &mut StdRng,
) -> Option<Packet> {
    let pr = ep.pull(&mut ctx(now, pool, timers, completions, rng))?;
    Some(pool.take(pr))
}
