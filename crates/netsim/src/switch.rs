//! Output-queued switch with per-port data + control queues, weighted
//! round-robin scheduling, DCP packet trimming, ECN marking, PFC and
//! forced-loss injection.
//!
//! The enqueue path implements the DCP-Switch decision procedure of §4.2
//! verbatim: header-only packets always join the control queue; when the
//! data queue is over threshold, non-DCP and ACK packets are dropped while
//! DCP data packets are trimmed to 57-byte header-only packets and join the
//! control queue. The egress scheduler is a byte-weighted fair pick that
//! gives the control queue a `w : 1` share — the WRR of §4.2.

use crate::link::Link;
use crate::packet::{NodeId, PktDesc, PortId};
use crate::pool::PktRef;
use crate::routing::{select_port, LoadBalance, RoutingTable};
use crate::sim::{Event, NodeCtx};
use crate::stats::NetStats;
use crate::time::tx_time;
use dcp_rdma::headers::DcpTag;
use dcp_telemetry::{DropClass, ProbeEvent, QueueClass};
use rand::Rng;
use std::collections::VecDeque;

/// Queue index for data-plane packets.
pub const Q_DATA: usize = 0;
/// Queue index for the lossless control plane (header-only packets).
pub const Q_CTRL: usize = 1;

/// ECN marking configuration (DCQCN-style RED ramp on the data queue).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcnConfig {
    /// Mark probability is 0 below this occupancy (bytes).
    pub kmin: usize,
    /// Mark probability is `pmax` above this occupancy (bytes).
    pub kmax: usize,
    pub pmax: f64,
}

impl EcnConfig {
    /// The DCQCN paper's defaults scaled for 100 Gbps links.
    pub fn default_100g() -> Self {
        EcnConfig { kmin: 100 * 1024, kmax: 400 * 1024, pmax: 0.2 }
    }

    fn mark_probability(&self, qbytes: usize) -> f64 {
        if qbytes <= self.kmin {
            0.0
        } else if qbytes >= self.kmax {
            1.0
        } else {
            self.pmax * (qbytes - self.kmin) as f64 / (self.kmax - self.kmin) as f64
        }
    }
}

/// PFC configuration for lossless runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfcConfig {
    /// Ingress occupancy above which PAUSE is sent upstream.
    pub xoff_bytes: usize,
    /// Ingress occupancy below which RESUME is sent.
    pub xon_bytes: usize,
}

impl PfcConfig {
    pub fn default_100g() -> Self {
        PfcConfig { xoff_bytes: 512 * 1024, xon_bytes: 448 * 1024 }
    }
}

/// Per-switch policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchConfig {
    /// Shared packet buffer across all ports (bytes). The paper's NS3 setup
    /// uses 32 MB.
    pub buffer_bytes: usize,
    /// Data-queue occupancy above which the over-threshold action fires
    /// (trim for DCP data, drop otherwise).
    pub data_q_threshold: usize,
    /// Whether the DCP trimming module is active.
    pub trimming: bool,
    /// WRR weight of the control queue relative to the data queue (`w : 1`,
    /// §4.2). Ignored when the control queue is empty (work conserving).
    pub ctrl_weight: f64,
    pub ecn: Option<EcnConfig>,
    pub pfc: Option<PfcConfig>,
    pub lb: LoadBalance,
    /// Probability that an arriving data packet is treated as lost
    /// (testbed-style artificial loss, Figs. 10/17): trimmed when `trimming`
    /// is on, dropped otherwise.
    pub forced_loss_rate: f64,
    /// Fault injection on the control plane: probability that a header-only
    /// packet is dropped, modelling the §4.5 violated-assumption cases
    /// (link/switch crashes, accidental HO losses) that the coarse timeout
    /// fallback must recover from.
    pub ho_loss_rate: f64,
    /// §7's hypothetical "back-to-sender" optimization: the trimming switch
    /// returns the header-only packet directly toward the source instead of
    /// forwarding it to the receiver for bouncing, assuming the switch holds
    /// the sender-QPN mapping table the paper deems too stateful for real
    /// ASICs. Saves up to one receiver leg of notification latency.
    pub ho_direct_return: bool,
}

impl SwitchConfig {
    /// A lossy DCP fabric switch: trimming on, no PFC.
    pub fn dcp(lb: LoadBalance, ctrl_weight: f64) -> Self {
        SwitchConfig {
            buffer_bytes: 32 << 20,
            data_q_threshold: 200 * 1024,
            trimming: true,
            ctrl_weight,
            ecn: None,
            pfc: None,
            lb,
            forced_loss_rate: 0.0,
            ho_loss_rate: 0.0,
            ho_direct_return: false,
        }
    }

    /// A lossy fabric without trimming (IRN/GBN-style drops at threshold).
    pub fn lossy(lb: LoadBalance) -> Self {
        SwitchConfig {
            buffer_bytes: 32 << 20,
            data_q_threshold: 200 * 1024,
            trimming: false,
            ctrl_weight: 1.0,
            ecn: None,
            pfc: None,
            lb,
            forced_loss_rate: 0.0,
            ho_loss_rate: 0.0,
            ho_direct_return: false,
        }
    }

    /// A PFC lossless fabric switch (no threshold drops; pause upstream).
    pub fn lossless(lb: LoadBalance) -> Self {
        SwitchConfig {
            buffer_bytes: 32 << 20,
            data_q_threshold: usize::MAX,
            trimming: false,
            ctrl_weight: 1.0,
            ecn: None,
            pfc: Some(PfcConfig::default_100g()),
            lb,
            forced_loss_rate: 0.0,
            ho_loss_rate: 0.0,
            ho_direct_return: false,
        }
    }
}

#[derive(Debug, Default)]
struct Queue {
    pkts: VecDeque<PktRef>,
    bytes: usize,
}

/// One egress port with its outgoing link and queues.
#[derive(Debug)]
pub struct SwitchPort {
    pub link: Link,
    /// `(node, port)` at the far end of our *incoming* link on this port —
    /// where PFC PAUSE frames must be addressed.
    pub peer: Option<(NodeId, PortId)>,
    queues: [Queue; 2],
    busy: bool,
    /// Bytes served per queue, for the weighted fair pick.
    served: [f64; 2],
    /// Egress data queue paused by a downstream PFC PAUSE.
    pub paused: bool,
    /// Cable state (fault plane): a down port keeps accepting enqueues —
    /// its queue backs up like a real dead cable's — but never transmits.
    pub up: bool,
}

impl SwitchPort {
    fn new(link: Link) -> Self {
        SwitchPort {
            link,
            peer: None,
            queues: [Queue::default(), Queue::default()],
            busy: false,
            served: [0.0, 0.0],
            paused: false,
            up: true,
        }
    }

    /// Total queued bytes (both queues) — the adaptive-routing metric.
    pub fn queued_bytes(&self) -> usize {
        self.queues[Q_DATA].bytes + self.queues[Q_CTRL].bytes
    }

    /// Queued bytes in the data queue only.
    pub fn data_queue_bytes(&self) -> usize {
        self.queues[Q_DATA].bytes
    }

    /// Queued bytes in the control queue only.
    pub fn ctrl_queue_bytes(&self) -> usize {
        self.queues[Q_CTRL].bytes
    }
}

/// An output-queued switch.
pub struct Switch {
    pub id: NodeId,
    pub cfg: SwitchConfig,
    pub ports: Vec<SwitchPort>,
    pub routing: RoutingTable,
    shared_used: usize,
    /// PFC: data-class bytes queued per *ingress* port.
    ingress_bytes: Vec<usize>,
    /// PFC: whether we have PAUSEd the upstream neighbour of each ingress.
    ingress_paused: Vec<bool>,
    /// Flowlet state: flow → (assigned egress, last packet time). Only
    /// populated under [`LoadBalance::Flowlet`].
    flowlets: std::collections::HashMap<crate::packet::FlowId, (PortId, crate::time::Nanos)>,
    salt: u64,
    pub stats: NetStats,
}

impl Switch {
    pub fn new(id: NodeId, cfg: SwitchConfig) -> Self {
        Switch {
            id,
            cfg,
            ports: Vec::new(),
            routing: RoutingTable::new(),
            shared_used: 0,
            ingress_bytes: Vec::new(),
            ingress_paused: Vec::new(),
            flowlets: std::collections::HashMap::new(),
            salt: id.0 as u64 ^ 0x5bd1_e995,
            stats: NetStats::default(),
        }
    }

    /// Adds an egress port with its outgoing link; returns the port index.
    pub fn add_port(&mut self, link: Link) -> PortId {
        self.ports.push(SwitchPort::new(link));
        self.ingress_bytes.push(0);
        self.ingress_paused.push(false);
        self.ports.len() - 1
    }

    /// Records the far end of the incoming link on `port` (PFC addressing).
    pub fn set_peer(&mut self, port: PortId, peer: (NodeId, PortId)) {
        self.ports[port].peer = Some(peer);
    }

    /// Marks `port`'s cable up or down (fault plane). Downing stops egress
    /// service; restoring does *not* kick the port — the simulator does,
    /// via `kick_switch_port`, once both cable ends are consistent.
    pub fn set_port_up(&mut self, port: PortId, up: bool) {
        self.ports[port].up = up;
    }

    /// Routing pick for `pr`: flowlet-sticky or per-packet per `cfg.lb`,
    /// recording the ingress port on the packet. `None` (with the handle
    /// released) when the destination has no route — a topology bug.
    fn route(&mut self, in_port: PortId, pr: PktRef, ctx: &mut NodeCtx) -> Option<PortId> {
        let (dst, flow) = {
            let pkt = &ctx.pool[pr];
            (pkt.dst_node(), pkt.flow)
        };
        let Some(candidates) = self.routing.candidates(dst) else {
            // No route: a topology construction error; drop loudly in debug.
            debug_assert!(false, "switch {:?} has no route to {:?}", self.id, dst);
            ctx.pool.release(pr);
            return None;
        };
        let spray_roll = ctx.rng.random::<u64>();
        let ports = &self.ports;
        let egress = if let LoadBalance::Flowlet { gap_ns } = self.cfg.lb {
            // Sticky within a flowlet; re-pick (least-loaded) after a gap.
            match self.flowlets.get(&flow) {
                Some(&(port, last))
                    if ctx.now.saturating_sub(last) <= gap_ns && candidates.contains(&port) =>
                {
                    self.flowlets.insert(flow, (port, ctx.now));
                    port
                }
                _ => {
                    let fresh = select_port(
                        self.cfg.lb,
                        &ctx.pool[pr],
                        candidates,
                        self.salt,
                        |p| ports[p].queued_bytes(),
                        spray_roll,
                    );
                    self.flowlets.insert(flow, (fresh, ctx.now));
                    fresh
                }
            }
        } else {
            select_port(
                self.cfg.lb,
                &ctx.pool[pr],
                candidates,
                self.salt,
                |p| ports[p].queued_bytes(),
                spray_roll,
            )
        };
        ctx.pool[pr].ingress = in_port as u32;
        Some(egress)
    }

    /// A packet arrived on ingress `port`. The switch owns the handle: it is
    /// either queued on an egress or released back to the pool (a drop).
    pub fn on_packet(&mut self, in_port: PortId, pr: PktRef, ctx: &mut NodeCtx) {
        let Some(egress) = self.route(in_port, pr, ctx) else { return };
        self.enqueue(egress, pr, ctx);
        self.try_transmit(egress, ctx);
    }

    /// A DCP data packet arrived *corrupted* (fault plane,
    /// [`crate::fault::FaultVerdict::Corrupt`]): the payload is unusable but
    /// the header parses, so a trimming switch converts it to its 57-B
    /// header-only notification and forwards that — wire loss recovered the
    /// same way congestion loss is. The caller guarantees `cfg.trimming`
    /// and `DcpTag::Data`.
    pub fn on_corrupt(&mut self, in_port: PortId, pr: PktRef, ctx: &mut NodeCtx) {
        debug_assert!(self.cfg.trimming);
        debug_assert_eq!(ctx.pool[pr].dcp_tag(), DcpTag::Data);
        let Some(egress) = self.route(in_port, pr, ctx) else { return };
        self.trim_and_admit(egress, pr, ctx);
        self.try_transmit(egress, ctx);
    }

    /// Fails the switch in place: drains every queued packet as a fault
    /// drop (booked by class so conservation stays strict), clears PFC
    /// state — sending RESUME to any upstream neighbour we had PAUSEd, so
    /// nobody stays wedged on a dead switch — and downs all ports. Arrivals
    /// while failed are dropped by the fault plane, not here.
    pub fn fail(&mut self, ctx: &mut NodeCtx) {
        for port in 0..self.ports.len() {
            for q in [Q_DATA, Q_CTRL] {
                while let Some(pr) = self.ports[port].queues[q].pkts.pop_front() {
                    let (bytes, is_ho, is_data, flow, psn) = {
                        let pkt = &ctx.pool[pr];
                        (
                            pkt.wire_bytes(),
                            pkt.dcp_tag() == DcpTag::HeaderOnly,
                            pkt.is_data(),
                            pkt.flow.0,
                            pkt.psn(),
                        )
                    };
                    self.ports[port].queues[q].bytes -= bytes;
                    if is_ho {
                        self.stats.ho_drops += 1;
                    } else if is_data {
                        self.stats.fault_drops += 1;
                    } else {
                        self.stats.ack_drops += 1;
                    }
                    ctx.emit(|| ProbeEvent::Drop {
                        node: self.id.0,
                        port: port as u32,
                        flow,
                        psn,
                        class: DropClass::Fault,
                    });
                    ctx.pool.release(pr);
                }
                debug_assert_eq!(self.ports[port].queues[q].bytes, 0);
            }
            self.ports[port].up = false;
            self.ports[port].paused = false;
        }
        self.shared_used = 0;
        // Un-wedge upstream neighbours we had PAUSEd before dying.
        for ingress in 0..self.ingress_bytes.len() {
            self.ingress_bytes[ingress] = 0;
            if std::mem::take(&mut self.ingress_paused[ingress]) {
                self.stats.resumes_sent += 1;
                ctx.emit(|| ProbeEvent::PfcResume { node: self.id.0, port: ingress as u32 });
                if let Some((peer, peer_port)) = self.ports[ingress].peer {
                    ctx.out.push((
                        ctx.now + self.ports[ingress].link.delay,
                        Event::Pfc { node: peer, port: peer_port, pause: false },
                    ));
                }
            }
        }
        self.flowlets.clear();
    }

    /// Applies the §4.2 enqueue decision procedure on `egress`.
    fn enqueue(&mut self, egress: PortId, pr: PktRef, ctx: &mut NodeCtx) {
        let (tag, is_data, flow, psn) = {
            let pkt = &ctx.pool[pr];
            (pkt.dcp_tag(), pkt.is_data(), pkt.flow.0, pkt.psn())
        };

        // Forced loss injection: the testbed's "drop packets with a given
        // loss rate" knob. For DCP traffic the P4 switch trims instead of
        // dropping (§6.1 "Loss recovery efficiency").
        if self.cfg.forced_loss_rate > 0.0
            && is_data
            && ctx.rng.random::<f64>() < self.cfg.forced_loss_rate
        {
            if self.cfg.trimming && tag == DcpTag::Data {
                self.trim_and_admit(egress, pr, ctx);
            } else {
                self.stats.data_drops += 1;
                ctx.emit(|| ProbeEvent::Drop {
                    node: self.id.0,
                    port: egress as u32,
                    flow,
                    psn,
                    class: DropClass::Data,
                });
                ctx.pool.release(pr);
            }
            return;
        }

        // Header-only packets go straight to the control queue.
        if tag == DcpTag::HeaderOnly {
            if self.cfg.ho_loss_rate > 0.0 && ctx.rng.random::<f64>() < self.cfg.ho_loss_rate {
                // Injected control-plane fault (§4.5's violated assumption).
                self.stats.ho_drops += 1;
                ctx.emit(|| ProbeEvent::Drop {
                    node: self.id.0,
                    port: egress as u32,
                    flow,
                    psn,
                    class: DropClass::HeaderOnly,
                });
                ctx.pool.release(pr);
                return;
            }
            self.admit(egress, Q_CTRL, pr, ctx);
            return;
        }

        // Over-threshold data queue: trim DCP data, drop everything else.
        // Drops are classified by what the packet *is* (payload-bearing or
        // ACK/NAK/CNP-class), not by its DCP tag — baseline transports tag
        // their ACKs `NonDcp`, and miscounting those as data drops breaks
        // flow conservation.
        if self.ports[egress].queues[Q_DATA].bytes > self.cfg.data_q_threshold {
            if tag == DcpTag::Data && self.cfg.trimming {
                self.trim_and_admit(egress, pr, ctx);
            } else if is_data {
                self.stats.data_drops += 1;
                ctx.emit(|| ProbeEvent::Drop {
                    node: self.id.0,
                    port: egress as u32,
                    flow,
                    psn,
                    class: DropClass::Data,
                });
                ctx.pool.release(pr);
            } else {
                self.stats.ack_drops += 1;
                ctx.emit(|| ProbeEvent::Drop {
                    node: self.id.0,
                    port: egress as u32,
                    flow,
                    psn,
                    class: DropClass::Ack,
                });
                ctx.pool.release(pr);
            }
            return;
        }

        // ECN marking on the data queue.
        if let Some(ecn) = self.cfg.ecn {
            if is_data {
                let p = ecn.mark_probability(self.ports[egress].queues[Q_DATA].bytes);
                if p > 0.0 && ctx.rng.random::<f64>() < p {
                    ctx.pool[pr].header.ip.set_ecn_ce(true);
                    self.stats.ecn_marks += 1;
                    ctx.emit(|| ProbeEvent::EcnMark {
                        node: self.id.0,
                        port: egress as u32,
                        flow,
                        psn,
                    });
                }
            }
        }

        self.admit(egress, Q_DATA, pr, ctx);
    }

    /// Buffer-checks and appends `pr` to queue `q` of `egress`, updating
    /// PFC accounting. Releases the handle on a buffer drop.
    fn admit(&mut self, egress: PortId, q: usize, pr: PktRef, ctx: &mut NodeCtx) {
        let (bytes, tag, is_data, flow, psn, ingress) = {
            let pkt = &ctx.pool[pr];
            (
                pkt.wire_bytes(),
                pkt.dcp_tag(),
                pkt.is_data(),
                pkt.flow.0,
                pkt.psn(),
                pkt.ingress as usize,
            )
        };
        if self.shared_used + bytes > self.cfg.buffer_bytes {
            self.stats.buffer_drops += 1;
            if tag == DcpTag::HeaderOnly {
                // A lost HO packet is a violated lossless-control-plane
                // assumption — the quantity Table 5 measures.
                self.stats.ho_drops += 1;
            } else if is_data {
                self.stats.buffer_drops_data += 1;
            }
            ctx.emit(|| ProbeEvent::Drop {
                node: self.id.0,
                port: egress as u32,
                flow,
                psn,
                class: DropClass::Buffer,
            });
            ctx.pool.release(pr);
            return;
        }
        self.shared_used += bytes;
        if self.cfg.pfc.is_some() && q == Q_DATA {
            self.ingress_bytes[ingress] += bytes;
            self.maybe_pause(ingress, ctx);
        }
        ctx.emit(|| ProbeEvent::Enqueue {
            node: self.id.0,
            port: egress as u32,
            queue: if q == Q_CTRL { QueueClass::Ctrl } else { QueueClass::Data },
            flow,
            psn,
            bytes: bytes as u32,
        });
        let queue = &mut self.ports[egress].queues[q];
        queue.bytes += bytes;
        queue.pkts.push_back(pr);
    }

    /// Trims the pooled packet *in place* to its 57-B header-only
    /// notification (same slot, same uid — no clone, no pool churn) and
    /// admits it — toward the receiver for bouncing (the paper's deployed
    /// design), or directly back toward the sender when §7's hypothetical
    /// mapping table is enabled.
    fn trim_and_admit(&mut self, egress: PortId, pr: PktRef, ctx: &mut NodeCtx) {
        let (flow, psn) = {
            let p = &mut ctx.pool[pr];
            p.header = p.header.trim_to_header_only();
            p.payload_len = 0;
            p.desc = PktDesc::NONE;
            (p.flow.0, p.psn())
        };
        self.stats.trims += 1;
        ctx.emit(|| ProbeEvent::Trim { node: self.id.0, port: egress as u32, flow, psn });
        let mut target = egress;
        if self.cfg.ho_direct_return {
            // The model pairs QPNs as (2f, 2f+1); a real ASIC would read the
            // sender QPN from the mapping table §7 describes.
            let dst = {
                let ho = &mut ctx.pool[pr];
                let sender_qpn = ho.header.bth.dest_qpn ^ 1;
                ho.header.swap_src_dst(sender_qpn);
                ho.dst_node()
            };
            if let Some(back) = self.routing.candidates(dst) {
                let roll = ctx.rng.random::<u64>();
                let ports = &self.ports;
                target = select_port(
                    self.cfg.lb,
                    &ctx.pool[pr],
                    back,
                    self.salt,
                    |p| ports[p].queued_bytes(),
                    roll,
                );
            }
        }
        self.admit(target, Q_CTRL, pr, ctx);
        if target != egress {
            // The return port is not the one the caller is about to kick.
            self.try_transmit(target, ctx);
        }
    }

    fn maybe_pause(&mut self, ingress: PortId, ctx: &mut NodeCtx) {
        let Some(pfc) = self.cfg.pfc else { return };
        if !self.ingress_paused[ingress] && self.ingress_bytes[ingress] > pfc.xoff_bytes {
            self.ingress_paused[ingress] = true;
            self.stats.pauses_sent += 1;
            ctx.emit(|| ProbeEvent::PfcPause { node: self.id.0, port: ingress as u32 });
            if let Some((peer, peer_port)) = self.ports[ingress].peer {
                ctx.out.push((
                    ctx.now + self.ports[ingress].link.delay,
                    Event::Pfc { node: peer, port: peer_port, pause: true },
                ));
            }
        }
    }

    fn maybe_resume(&mut self, ingress: PortId, ctx: &mut NodeCtx) {
        let Some(pfc) = self.cfg.pfc else { return };
        if self.ingress_paused[ingress] && self.ingress_bytes[ingress] < pfc.xon_bytes {
            self.ingress_paused[ingress] = false;
            self.stats.resumes_sent += 1;
            ctx.emit(|| ProbeEvent::PfcResume { node: self.id.0, port: ingress as u32 });
            if let Some((peer, peer_port)) = self.ports[ingress].peer {
                ctx.out.push((
                    ctx.now + self.ports[ingress].link.delay,
                    Event::Pfc { node: peer, port: peer_port, pause: false },
                ));
            }
        }
    }

    /// PFC PAUSE/RESUME received from the downstream node on `port`.
    pub fn on_pfc(&mut self, port: PortId, pause: bool, ctx: &mut NodeCtx) {
        self.ports[port].paused = pause;
        if !pause {
            self.try_transmit(port, ctx);
        }
    }

    /// The previous packet on `port` finished serializing.
    pub fn on_port_free(&mut self, port: PortId, ctx: &mut NodeCtx) {
        self.ports[port].busy = false;
        self.try_transmit(port, ctx);
    }

    /// Weighted fair pick between control and data queues, then transmit.
    pub(crate) fn try_transmit(&mut self, port: PortId, ctx: &mut NodeCtx) {
        if self.ports[port].busy || !self.ports[port].up {
            return;
        }
        let q = {
            let p = &self.ports[port];
            let data_ok = !p.queues[Q_DATA].pkts.is_empty() && !p.paused;
            let ctrl_ok = !p.queues[Q_CTRL].pkts.is_empty();
            match (ctrl_ok, data_ok) {
                (false, false) => return,
                (true, false) => Q_CTRL,
                (false, true) => Q_DATA,
                (true, true) => {
                    // Serve the queue with the smaller weighted service.
                    let w_ctrl = self.cfg.ctrl_weight.max(f64::MIN_POSITIVE);
                    if p.served[Q_CTRL] / w_ctrl <= p.served[Q_DATA] {
                        Q_CTRL
                    } else {
                        Q_DATA
                    }
                }
            }
        };
        let pr = self.ports[port].queues[q].pkts.pop_front().expect("picked queue is non-empty");
        let (bytes, ingress, is_ho, is_data, flow, psn) = {
            let pkt = &ctx.pool[pr];
            (
                pkt.wire_bytes(),
                pkt.ingress as usize,
                pkt.dcp_tag() == DcpTag::HeaderOnly,
                pkt.is_data(),
                pkt.flow.0,
                pkt.psn(),
            )
        };
        let link = {
            let p = &mut self.ports[port];
            p.queues[q].bytes -= bytes;
            p.served[q] += bytes as f64;
            // Keep service counters bounded without changing their ratio.
            if p.served[q] > 1e15 {
                p.served[Q_DATA] *= 0.5;
                p.served[Q_CTRL] *= 0.5;
            }
            p.busy = true;
            p.link
        };
        self.shared_used -= bytes;
        if self.cfg.pfc.is_some() && q == Q_DATA {
            self.ingress_bytes[ingress] -= bytes;
            self.maybe_resume(ingress, ctx);
        }
        if is_ho {
            self.stats.ho_forwarded += 1;
        } else if is_data {
            self.stats.data_forwarded += 1;
        }
        ctx.emit(|| ProbeEvent::Dequeue {
            node: self.id.0,
            port: port as u32,
            queue: if q == Q_CTRL { QueueClass::Ctrl } else { QueueClass::Data },
            flow,
            psn,
            bytes: bytes as u32,
        });
        let tx = tx_time(bytes, link.gbps);
        ctx.out.push((ctx.now + tx, Event::PortFree { node: self.id, port }));
        ctx.out.push((
            ctx.now + tx + link.delay,
            Event::PacketArrive { node: link.to, port: link.to_port, pkt: pr },
        ));
    }

    /// Current shared-buffer occupancy in bytes.
    pub fn buffer_used(&self) -> usize {
        self.shared_used
    }

    /// Ingress ports whose accounting is over xoff — the ports on which
    /// this switch is currently PAUSING its upstream peer. Feeds the
    /// simulator's pause-dependency-graph export (PFC deadlock detection);
    /// emitted in port order so consumers stay deterministic.
    pub fn paused_ingress_ports(&self) -> impl Iterator<Item = PortId> + '_ {
        self.ingress_paused.iter().enumerate().filter(|&(_, &p)| p).map(|(i, _)| i)
    }
}
