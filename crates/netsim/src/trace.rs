//! Periodic state sampling: queue depths, buffer occupancy and endpoint
//! counters over time, for deep-dive analyses of control/data plane
//! dynamics (e.g. watching the WRR keep the control queue shallow while the
//! data queue saturates during an incast).
//!
//! The [`Sampler`] polls any number of labelled channels at one fixed
//! period. Samples also feed [`LogHistogram`]s, giving queue-depth
//! p50/p99/p999 without retaining or sorting the series.

use crate::packet::{FlowId, NodeId, PortId};
use crate::sim::{Node, Simulator};
use crate::stats::TransportStats;
use crate::time::Nanos;
use dcp_telemetry::LogHistogram;

/// What one sampler channel reads from the simulator each period.
#[derive(Debug, Clone, Copy)]
pub enum SampleTarget {
    /// Bytes queued in the data queue of one switch egress port.
    PortDataBytes { switch: NodeId, port: PortId },
    /// Bytes queued in the control queue of one switch egress port.
    PortCtrlBytes { switch: NodeId, port: PortId },
    /// Shared-buffer occupancy of a switch.
    SwitchBufferBytes { switch: NodeId },
    /// One [`TransportStats`] counter of a flow's endpoint on a host;
    /// `field` indexes [`TransportStats::FIELDS`].
    EndpointCounter { host: NodeId, flow: FlowId, field: usize },
}

impl SampleTarget {
    fn read(&self, sim: &Simulator) -> u64 {
        match *self {
            SampleTarget::PortDataBytes { switch, port } => {
                sample_switch(sim, switch, |sw| sw.ports[port].data_queue_bytes() as u64)
            }
            SampleTarget::PortCtrlBytes { switch, port } => {
                sample_switch(sim, switch, |sw| sw.ports[port].ctrl_queue_bytes() as u64)
            }
            SampleTarget::SwitchBufferBytes { switch } => {
                sample_switch(sim, switch, |sw| sw.buffer_used() as u64)
            }
            SampleTarget::EndpointCounter { host, flow, field } => sim
                .host(host)
                .endpoint(flow)
                .and_then(|ep| ep.stats().fields().nth(field).map(|(_, v)| v))
                .unwrap_or(0),
        }
    }
}

fn sample_switch(
    sim: &Simulator,
    id: NodeId,
    f: impl FnOnce(&crate::switch::Switch) -> u64,
) -> u64 {
    let Node::Switch(sw) = &sim.nodes[id.0 as usize] else {
        panic!("sampler target {id:?} is not a switch");
    };
    f(sw)
}

/// One labelled time series captured by a [`Sampler`].
#[derive(Debug)]
pub struct Channel {
    pub label: String,
    target: SampleTarget,
    /// `(time, value)` pairs, one per sampling period, oldest first.
    pub samples: Vec<(Nanos, u64)>,
}

impl Channel {
    pub fn peak(&self) -> u64 {
        self.samples.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&(_, v)| v as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Folds the series into a log-linear histogram (for p50/p99/p999 of
    /// queue depth without keeping the series around).
    pub fn histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::default();
        for &(_, v) in &self.samples {
            h.record(v);
        }
        h
    }
}

/// Samples all registered channels at one fixed period while the caller
/// drives the simulation. Polling is pull-based and passive — it reads
/// state, never mutates it, so a sampled run stays trace-identical.
#[derive(Debug)]
pub struct Sampler {
    pub period: Nanos,
    next_at: Nanos,
    channels: Vec<Channel>,
}

impl Sampler {
    pub fn new(period: Nanos) -> Self {
        assert!(period > 0);
        Sampler { period, next_at: 0, channels: Vec::new() }
    }

    /// Registers a channel; returns `self` for chained building.
    pub fn track(mut self, label: impl Into<String>, target: SampleTarget) -> Self {
        self.channels.push(Channel { label: label.into(), target, samples: Vec::new() });
        self
    }

    /// Tracks both queues of a switch egress port as `<label>.data` and
    /// `<label>.ctrl`.
    pub fn track_port_queues(self, label: &str, switch: NodeId, port: PortId) -> Self {
        self.track(format!("{label}.data"), SampleTarget::PortDataBytes { switch, port })
            .track(format!("{label}.ctrl"), SampleTarget::PortCtrlBytes { switch, port })
    }

    /// Tracks a switch's shared-buffer occupancy.
    pub fn track_switch_buffer(self, label: impl Into<String>, switch: NodeId) -> Self {
        self.track(label, SampleTarget::SwitchBufferBytes { switch })
    }

    /// Tracks one `TransportStats` counter (by field name) of a flow's
    /// endpoint. Panics on an unknown field name — a typo, not a runtime
    /// condition.
    pub fn track_endpoint_counter(
        self,
        label: impl Into<String>,
        host: NodeId,
        flow: FlowId,
        field: &str,
    ) -> Self {
        let ix = TransportStats::FIELDS
            .iter()
            .position(|&f| f == field)
            .unwrap_or_else(|| panic!("unknown TransportStats field {field:?}"));
        self.track(label, SampleTarget::EndpointCounter { host, flow, field: ix })
    }

    /// Takes any samples due at or before the simulator's current time.
    /// Call after each `advance()` or bounded slice (cheap: no-op until the
    /// period elapses).
    pub fn poll(&mut self, sim: &Simulator) {
        while self.next_at <= sim.now() {
            let at = self.next_at;
            self.next_at += self.period;
            for ch in &mut self.channels {
                ch.samples.push((at, ch.target.read(sim)));
            }
        }
    }

    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The channel with the given label; panics if absent (labels are
    /// compile-time constants at call sites).
    pub fn channel(&self, label: &str) -> &Channel {
        self.channels
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("no sampler channel labelled {label:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::LoadBalance;
    use crate::switch::SwitchConfig;
    use crate::time::US;
    use crate::topology;

    fn idle_testbed(sim: &mut Simulator) -> topology::Topology {
        topology::two_switch_testbed(
            sim,
            SwitchConfig::lossy(LoadBalance::Ecmp),
            1,
            100.0,
            &[100.0],
            US,
            US,
        )
    }

    #[test]
    fn sampler_samples_every_channel_at_period() {
        let mut sim = Simulator::new(1);
        let topo = idle_testbed(&mut sim);
        let mut s = Sampler::new(US)
            .track_port_queues("leaf0", topo.leaves[0], 0)
            .track_switch_buffer("leaf0.buf", topo.leaves[0]);
        sim.run_until(10 * US);
        s.poll(&sim);
        assert_eq!(s.channels().len(), 3);
        for ch in s.channels() {
            assert_eq!(ch.samples.len(), 11, "samples at 0..=10 µs for {}", ch.label);
            assert_eq!(ch.peak(), 0, "idle fabric has empty queues");
        }
        let h = s.channel("leaf0.buf").histogram();
        assert_eq!(h.count(), 11);
        assert_eq!(h.value_at_percentile(99.0), 0);
    }

    #[test]
    #[should_panic(expected = "unknown TransportStats field")]
    fn sampler_rejects_bad_field_names() {
        let _ = Sampler::new(US).track_endpoint_counter("x", NodeId(0), FlowId(0), "not_a_field");
    }

    #[test]
    #[should_panic(expected = "not a switch")]
    fn sampler_rejects_hosts() {
        let mut sim = Simulator::new(1);
        let topo = topology::back_to_back(&mut sim, 100.0, 500);
        let mut s = Sampler::new(US).track_port_queues("h", topo.hosts[0], 0);
        sim.run_until(US);
        s.poll(&sim);
    }
}
