//! The [`FaultEngine`]: a [`FaultPlane`] implementation that executes a
//! [`FaultPlan`] against a live simulator.
//!
//! Installation schedules one `Event::Control { token: i }` per plan entry
//! through the simulator's event wheel, so faults fire in the same
//! deterministic `(time, sequence)` total order as packets. On the arrival
//! hot path the engine keeps one table indexed by node id — whether the
//! switch has failed, and per-link state by the *arrival* port — and
//! early-outs when neither applies, so a ruling costs two array loads and
//! no hash.

use crate::loss::LinkLoss;
use crate::plan::{FaultEvent, FaultPlan};
use dcp_netsim::fault::{FaultPlane, FaultVerdict};
use dcp_netsim::sim::{Event, Simulator};
use dcp_netsim::splitmix::{mix64, GAMMA};
use dcp_netsim::{Nanos, NodeId, Packet, PortId};
use dcp_telemetry::{FaultKind, ProbeEvent};

/// The per-link RNG stream seed: plan seed mixed with the link's arrival
/// key through SplitMix64's finalizer, so neighbouring links get unrelated
/// streams and draws on one link never consume another's.
pub fn link_stream_seed(plan_seed: u64, node: NodeId, port: PortId) -> u64 {
    mix64(plan_seed ^ ((u64::from(node.0) << 32) | port as u64).wrapping_mul(GAMMA))
}

/// State of one unidirectional link under fault, keyed by arrival endpoint.
/// The default — up, lossless — rules like a link the plan never named.
#[derive(Debug, Default)]
struct LinkState {
    down: bool,
    loss: Option<LinkLoss>,
}

/// Fault state of one node: grown on demand, when the plan first acts on
/// the node, so its size follows the highest node id the plan names.
#[derive(Debug, Default)]
struct NodeState {
    failed: bool,
    /// By arrival port; ports past the end have never been named.
    links: Vec<LinkState>,
}

/// Executes a [`FaultPlan`]; install with [`FaultEngine::install`].
pub struct FaultEngine {
    plan: FaultPlan,
    /// By node id; ids past the end have never been named.
    nodes: Vec<NodeState>,
    /// Pause storms whose clear-control has been scheduled past the plan's
    /// token space: token `plan.events.len() + i` clears `storm_clears[i]`.
    storm_clears: Vec<(NodeId, PortId)>,
}

impl FaultEngine {
    /// Builds the engine and arms the simulator: schedules a control event
    /// per plan entry and installs the engine as the fault plane. The plan
    /// must be time-sorted ([`FaultPlan::sorted`]); events in the past
    /// (before `sim.now()`) are rejected by the scheduler's debug assert.
    pub fn install(sim: &mut Simulator, plan: FaultPlan) {
        debug_assert!(
            plan.events.windows(2).all(|w| w[0].at <= w[1].at),
            "FaultPlan must be sorted by time"
        );
        for (i, t) in plan.events.iter().enumerate() {
            sim.schedule_control(t.at.max(sim.now()), i as u64);
        }
        let engine = FaultEngine { plan, nodes: Vec::new(), storm_clears: Vec::new() };
        sim.set_fault_plane(Box::new(engine));
    }

    /// [`FaultEngine::install`] for untrusted (loaded) plans: validates the
    /// plan against the simulator's topology first and arms nothing on
    /// rejection, returning the descriptive error instead.
    pub fn try_install(sim: &mut Simulator, plan: FaultPlan) -> Result<(), String> {
        plan.validate(|sw| sim.switch_port_count(sw))?;
        Self::install(sim, plan);
        Ok(())
    }

    fn node_mut(&mut self, node: NodeId) -> &mut NodeState {
        let ix = node.0 as usize;
        if ix >= self.nodes.len() {
            self.nodes.resize_with(ix + 1, NodeState::default);
        }
        &mut self.nodes[ix]
    }

    fn link_mut(&mut self, (node, port): (NodeId, PortId)) -> &mut LinkState {
        let links = &mut self.node_mut(node).links;
        if port >= links.len() {
            links.resize_with(port + 1, LinkState::default);
        }
        &mut links[port]
    }

    fn emit(sim: &mut Simulator, ev: ProbeEvent) {
        let now = sim.now();
        if let Some(p) = sim.probe_mut() {
            p.record(now, &ev);
        }
    }

    fn apply(&mut self, event: FaultEvent, sim: &mut Simulator) {
        match event {
            FaultEvent::LinkDown { sw, port } => {
                for key in sim.cable_arrival_keys(sw, port) {
                    self.link_mut(key).down = true;
                }
                sim.set_cable_up(sw, port, false);
                Self::emit(
                    sim,
                    ProbeEvent::Fault { node: sw.0, port: port as u32, kind: FaultKind::Link },
                );
            }
            FaultEvent::LinkUp { sw, port } => {
                for key in sim.cable_arrival_keys(sw, port) {
                    self.link_mut(key).down = false;
                }
                sim.set_cable_up(sw, port, true);
                Self::emit(
                    sim,
                    ProbeEvent::FaultCleared {
                        node: sw.0,
                        port: port as u32,
                        kind: FaultKind::Link,
                    },
                );
            }
            FaultEvent::LinkDegrade { sw, port, gbps, delay } => {
                sim.set_cable_params(sw, port, gbps, delay);
                Self::emit(
                    sim,
                    ProbeEvent::Fault { node: sw.0, port: port as u32, kind: FaultKind::Degrade },
                );
            }
            FaultEvent::SwitchFail { sw } => {
                self.node_mut(sw).failed = true;
                sim.fail_switch(sw);
                Self::emit(sim, ProbeEvent::Fault { node: sw.0, port: 0, kind: FaultKind::Switch });
            }
            FaultEvent::SwitchRecover { sw } => {
                self.node_mut(sw).failed = false;
                sim.recover_switch(sw);
                Self::emit(
                    sim,
                    ProbeEvent::FaultCleared { node: sw.0, port: 0, kind: FaultKind::Switch },
                );
            }
            FaultEvent::SetLossModel { sw, port, model } => {
                let seed = self.plan.seed;
                for key in sim.cable_arrival_keys(sw, port) {
                    self.link_mut(key).loss =
                        model.map(|m| LinkLoss::new(m, link_stream_seed(seed, key.0, key.1)));
                }
                let kind = FaultKind::LossModel;
                let (node, port) = (sw.0, port as u32);
                Self::emit(
                    sim,
                    if model.is_some() {
                        ProbeEvent::Fault { node, port, kind }
                    } else {
                        ProbeEvent::FaultCleared { node, port, kind }
                    },
                );
            }
            FaultEvent::PauseStorm { sw, port, duration } => {
                // The victim is the far end's egress toward `sw`: PFC frames
                // address `(link.to, link.to_port)` exactly like a real
                // PAUSE sent by `sw` would.
                let [(victim, victim_port), _] = sim.cable_arrival_keys(sw, port);
                let now = sim.now();
                sim.schedule(now, Event::Pfc { node: victim, port: victim_port, pause: true });
                sim.schedule(
                    now + duration,
                    Event::Pfc { node: victim, port: victim_port, pause: false },
                );
                let clear_token = (self.plan.events.len() + self.storm_clears.len()) as u64;
                self.storm_clears.push((sw, port));
                sim.schedule_control(now + duration, clear_token);
                Self::emit(
                    sim,
                    ProbeEvent::Fault {
                        node: sw.0,
                        port: port as u32,
                        kind: FaultKind::PauseStorm,
                    },
                );
            }
        }
    }
}

impl FaultPlane for FaultEngine {
    fn on_arrival(
        &mut self,
        _now: Nanos,
        node: NodeId,
        port: PortId,
        pkt: &Packet,
    ) -> FaultVerdict {
        let Some(state) = self.nodes.get_mut(node.0 as usize) else {
            return FaultVerdict::Deliver;
        };
        if state.failed {
            return FaultVerdict::Drop;
        }
        let Some(link) = state.links.get_mut(port) else {
            return FaultVerdict::Deliver;
        };
        if link.down {
            // In flight when the cable died.
            return FaultVerdict::Drop;
        }
        match link.loss.as_mut() {
            Some(loss) => {
                if loss.roll(pkt.wire_bytes()) {
                    FaultVerdict::Corrupt
                } else {
                    FaultVerdict::Deliver
                }
            }
            None => FaultVerdict::Deliver,
        }
    }

    fn on_control(&mut self, token: u64, sim: &mut Simulator) {
        let ix = token as usize;
        if let Some(t) = self.plan.events.get(ix) {
            self.apply(t.event, sim);
        } else {
            // A pause-storm clear scheduled by `apply`.
            let (sw, port) = self.storm_clears[ix - self.plan.events.len()];
            Self::emit(
                sim,
                ProbeEvent::FaultCleared {
                    node: sw.0,
                    port: port as u32,
                    kind: FaultKind::PauseStorm,
                },
            );
        }
    }
}
