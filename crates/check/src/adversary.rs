//! The network adversary: duplication, delay and reordering as a
//! [`FaultPlane`].
//!
//! Loss models answer for *absent* packets; this plane covers the other
//! misbehaviours real fabrics exhibit — a flapping LAG member replaying a
//! buffered frame (duplication), jittered store-and-forward paths (delay),
//! and multi-path skew (reordering). Decisions come from per-link
//! SplitMix64 streams seeded off the adversary seed and the arrival key, so
//! one link's draws never consume another's and a run is a pure function of
//! `(workload seed, plan, adversary seed, profile)`.
//!
//! The adversary stacks on top of any already-installed plane (typically a
//! [`dcp_faults::FaultEngine`]): the inner plane rules first, and only
//! packets it would `Deliver` are offered to the adversary. That is what
//! lets a "BER + reorder" profile reuse the fault engine unchanged.

use dcp_faults::link_stream_seed;
use dcp_netsim::{
    FaultPlane, FaultVerdict, Nanos, NodeId, Packet, PortId, Simulator, SplitMix64, US,
};
use dcp_rdma::headers::DcpTag;
use dcp_telemetry::Json;
use std::collections::HashMap;

/// Salt mixed into the adversary's stream seeds so they never collide with
/// the loss-model streams `link_stream_seed` derives from the same plan
/// seed.
const ADVERSARY_SALT: u64 = 0x005e_ed0f_ad5e_7157;

/// One link's decision stream: the workspace's [`SplitMix64`], seeded off
/// the adversary seed and the arrival key (see [`link_stream_seed`]).
#[derive(Debug, Clone)]
struct LinkStream(SplitMix64);

impl LinkStream {
    fn new(seed: u64) -> Self {
        LinkStream(SplitMix64::new(seed))
    }

    /// True with probability `p`. Draws nothing when `p` is zero, so a
    /// disabled mechanism costs no stream state.
    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.0.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform draw from the inclusive range; a degenerate range is a
    /// constant and consumes no draw (targeted rules stay draw-free).
    fn in_range(&mut self, (lo, hi): (Nanos, Nanos)) -> Nanos {
        if hi <= lo {
            lo
        } else {
            lo + self.0.next_u64() % (hi - lo + 1)
        }
    }
}

/// What the adversary does to delivered packets. Probabilities are per
/// arrival; magnitudes are drawn uniformly from inclusive `(lo, hi)` ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryProfile {
    pub name: String,
    /// Probability an arrival is duplicated, and the clone's extra latency.
    pub dup_prob: f64,
    pub dup_after: (Nanos, Nanos),
    /// Probability an arrival is delayed in place (jitter).
    pub delay_prob: f64,
    pub delay_by: (Nanos, Nanos),
    /// Probability an arrival is adversarially reordered behind successors.
    pub reorder_prob: f64,
    pub reorder_by: (Nanos, Nanos),
    /// Restrict the adversary to ACK-class packets (neither payload data
    /// nor header-only notifications) — for targeted regressions like
    /// ACK-path starvation.
    pub acks_only: bool,
    /// Restrict the adversary to one arrival key `(node, port)`.
    pub only_link: Option<(NodeId, PortId)>,
}

impl AdversaryProfile {
    fn quiet(name: &str) -> Self {
        AdversaryProfile {
            name: name.to_string(),
            dup_prob: 0.0,
            dup_after: (0, 0),
            delay_prob: 0.0,
            delay_by: (0, 0),
            reorder_prob: 0.0,
            reorder_by: (0, 0),
            acks_only: false,
            only_link: None,
        }
    }

    /// No adversary at all — the baseline every transport must pass with a
    /// silent oracle before the other profiles mean anything.
    pub fn clean() -> Self {
        Self::quiet("clean")
    }

    /// Multi-path skew: 1% of arrivals step behind up to several µs of
    /// successors — the case the counting tracker's rounds exist for.
    pub fn reorder() -> Self {
        AdversaryProfile { reorder_prob: 0.01, reorder_by: (500, 6 * US), ..Self::quiet("reorder") }
    }

    /// Wire duplication: 0.5% of arrivals are delivered twice — the case
    /// that breaks a pure per-round counter (DESIGN.md Finding 6).
    pub fn duplicate() -> Self {
        AdversaryProfile { dup_prob: 0.005, dup_after: (100, 2 * US), ..Self::quiet("duplicate") }
    }

    /// Jitter: 2% of arrivals held up to a few µs, RTT estimators' least
    /// favourite weather.
    pub fn delay_jitter() -> Self {
        AdversaryProfile {
            delay_prob: 0.02,
            delay_by: (100, 3 * US),
            ..Self::quiet("delay-jitter")
        }
    }

    /// Targeted rule: every ACK-class arrival on `link` is held for exactly
    /// `by` ns. Starves one sender of feedback without touching data — the
    /// setup for the RACK-TLP livelock regression.
    pub fn ack_delay(link: (NodeId, PortId), by: Nanos) -> Self {
        AdversaryProfile {
            delay_prob: 1.0,
            delay_by: (by, by),
            acks_only: true,
            only_link: Some(link),
            ..Self::quiet("ack-delay")
        }
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .set("name", self.name.as_str())
            .set("dup_prob", self.dup_prob)
            .set("dup_after_lo", self.dup_after.0)
            .set("dup_after_hi", self.dup_after.1)
            .set("delay_prob", self.delay_prob)
            .set("delay_by_lo", self.delay_by.0)
            .set("delay_by_hi", self.delay_by.1)
            .set("reorder_prob", self.reorder_prob)
            .set("reorder_by_lo", self.reorder_by.0)
            .set("reorder_by_hi", self.reorder_by.1)
            .set("acks_only", self.acks_only);
        if let Some((node, port)) = self.only_link {
            j = j.set("only_node", u64::from(node.0)).set("only_port", port);
        }
        j
    }

    pub fn from_json(j: &Json) -> Result<AdversaryProfile, String> {
        let num = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("adversary profile: missing {key}"))
        };
        let ns = |key: &str| num(key).map(|v| v as Nanos);
        let only_link = match (j.get("only_node"), j.get("only_port")) {
            (Some(n), Some(p)) => Some((
                NodeId(n.as_u64().ok_or("adversary profile: bad only_node")? as u32),
                p.as_u64().ok_or("adversary profile: bad only_port")? as PortId,
            )),
            _ => None,
        };
        Ok(AdversaryProfile {
            name: j
                .get("name")
                .and_then(Json::as_str)
                .ok_or("adversary profile: missing name")?
                .to_string(),
            dup_prob: num("dup_prob")?,
            dup_after: (ns("dup_after_lo")?, ns("dup_after_hi")?),
            delay_prob: num("delay_prob")?,
            delay_by: (ns("delay_by_lo")?, ns("delay_by_hi")?),
            reorder_prob: num("reorder_prob")?,
            reorder_by: (ns("reorder_by_lo")?, ns("reorder_by_hi")?),
            acks_only: matches!(j.get("acks_only"), Some(Json::Bool(true))),
            only_link,
        })
    }
}

/// The adversary plane. Build with [`Adversary::install`] (stacks over any
/// plane already on the simulator) or [`Adversary::new`] for a bare one.
pub struct Adversary {
    profile: AdversaryProfile,
    seed: u64,
    inner: Option<Box<dyn FaultPlane>>,
    streams: HashMap<(u32, PortId), LinkStream>,
}

impl Adversary {
    pub fn new(profile: AdversaryProfile, seed: u64) -> Self {
        Adversary { profile, seed, inner: None, streams: HashMap::new() }
    }

    /// Installs the adversary on `sim`, wrapping whatever fault plane is
    /// already there (it keeps ruling first). Install the
    /// [`dcp_faults::FaultEngine`] *before* calling this to compose
    /// loss + adversary.
    pub fn install(sim: &mut Simulator, profile: AdversaryProfile, seed: u64) {
        let inner = sim.take_fault_plane();
        sim.set_fault_plane(Box::new(Adversary { profile, seed, inner, streams: HashMap::new() }));
    }
}

impl FaultPlane for Adversary {
    fn on_arrival(&mut self, now: Nanos, node: NodeId, port: PortId, pkt: &Packet) -> FaultVerdict {
        if let Some(inner) = self.inner.as_mut() {
            let v = inner.on_arrival(now, node, port, pkt);
            if v != FaultVerdict::Deliver {
                return v;
            }
        }
        let p = &self.profile;
        if let Some(link) = p.only_link {
            if (node, port) != link {
                return FaultVerdict::Deliver;
            }
        }
        if p.acks_only && (pkt.is_data() || pkt.dcp_tag() == DcpTag::HeaderOnly) {
            return FaultVerdict::Deliver;
        }
        let seed = self.seed;
        let s = self.streams.entry((node.0, port)).or_insert_with(|| {
            LinkStream::new(link_stream_seed(seed ^ ADVERSARY_SALT, node, port))
        });
        // Fixed roll order (dup, delay, reorder) keeps each link's draw
        // sequence a stable function of its arrival count.
        if s.chance(p.dup_prob) {
            return FaultVerdict::Duplicate { after: s.in_range(p.dup_after) };
        }
        if s.chance(p.delay_prob) {
            return FaultVerdict::Delay { by: s.in_range(p.delay_by) };
        }
        if s.chance(p.reorder_prob) {
            return FaultVerdict::Reorder { by: s.in_range(p.reorder_by) };
        }
        FaultVerdict::Deliver
    }

    fn on_control(&mut self, token: u64, sim: &mut Simulator) {
        if let Some(inner) = self.inner.as_mut() {
            inner.on_control(token, sim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_round_trip_through_json() {
        for p in [
            AdversaryProfile::clean(),
            AdversaryProfile::reorder(),
            AdversaryProfile::duplicate(),
            AdversaryProfile::delay_jitter(),
            AdversaryProfile::ack_delay((NodeId(3), 1), 50_000),
        ] {
            let back = AdversaryProfile::from_json(&Json::parse(&p.to_json().render()).unwrap())
                .expect("parses");
            assert_eq!(back, p);
        }
    }

    #[test]
    fn streams_are_per_link_and_deterministic() {
        let mut a = LinkStream::new(link_stream_seed(7, NodeId(0), 1));
        let mut b = LinkStream::new(link_stream_seed(7, NodeId(0), 2));
        let (xa, xb): (Vec<u64>, Vec<u64>) =
            ((0..8).map(|_| a.0.next_u64()).collect(), (0..8).map(|_| b.0.next_u64()).collect());
        assert_ne!(xa, xb, "neighbouring links must draw unrelated streams");
        let mut a2 = LinkStream::new(link_stream_seed(7, NodeId(0), 1));
        assert_eq!(xa, (0..8).map(|_| a2.0.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes_and_ranges() {
        let mut s = LinkStream::new(42);
        assert!(!s.chance(0.0));
        assert!(s.chance(1.0));
        assert_eq!(s.in_range((5, 5)), 5);
        for _ in 0..100 {
            let v = s.in_range((10, 20));
            assert!((10..=20).contains(&v));
        }
    }
}
