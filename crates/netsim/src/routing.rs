//! Routing tables and load-balancing policies.
//!
//! Every switch holds a table mapping destination node → the set of
//! equal-cost egress ports, and a [`LoadBalance`] policy that picks one per
//! packet: ECMP (flow hash), adaptive routing (least-loaded egress queue,
//! the paper's in-network AR from §5), or per-packet spraying.

use crate::packet::{NodeId, Packet, PortId};

/// Load-balancing scheme a switch applies among equal-cost ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalance {
    /// Flow-level ECMP: hash of (src, dst, UDP source port), stable per flow.
    Ecmp,
    /// Packet-level adaptive routing: choose the candidate egress port with
    /// the smallest queued byte count (§5: "selects the egress port with the
    /// lowest queue length").
    AdaptiveRouting,
    /// Per-packet spraying: uniform random among candidates.
    Spray,
    /// Flowlet switching (CONGA/LetFlow-class, the paper's §8 "compromise"
    /// between ECMP and packet-level LB): a flow sticks to its port until
    /// an idle gap of `gap_ns` opens, then re-picks the least-loaded port.
    /// Needs per-flow switch state, which [`crate::switch::Switch`] keeps.
    Flowlet { gap_ns: u64 },
}

/// Destination-based routing table with equal-cost candidate sets.
///
/// A fabric switch routes hundreds of destinations through a handful of
/// distinct candidate sets (a leaf: its own access ports plus one uplink
/// set), so each distinct set is stored once and every destination holds a
/// 4-byte offset to it. `NodeId`s are dense simulator indices, so the
/// offset is a flat array read, not a hash; the set it points at is stored
/// length-first, so a lookup's length and ports share a cache line.
#[derive(Debug, Default, Clone)]
pub struct RoutingTable {
    /// Offset into `sets` per `NodeId`; [`NO_ROUTE`] ⇒ no route installed.
    set_of: Vec<u32>,
    /// Each distinct candidate set once, in first-installed order, as its
    /// length followed by its ports.
    sets: Vec<PortId>,
    /// Offset of the set the previous [`RoutingTable::add_route`] resolved
    /// to (0 before the first): builders install runs of destinations
    /// through one set, so it is compared before any search.
    last: u32,
    /// Every install in call order, so a test can rebuild the table by the
    /// linear search alone and compare.
    #[cfg(test)]
    installs: Vec<(NodeId, Vec<PortId>)>,
}

const NO_ROUTE: u32 = u32::MAX;

impl RoutingTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the candidate set for `dst`. A set equal (in
    /// order, which ECMP and AR tie-breaking depend on) to one already
    /// stored is shared, not copied. The set the previous call resolved to
    /// is tried first; otherwise the search is linear in the distinct sets
    /// — a switch has about as many as it has ports, and tables are built
    /// once at topology setup.
    pub fn add_route(&mut self, dst: NodeId, ports: impl AsRef<[PortId]>) {
        let ports = ports.as_ref();
        assert!(!ports.is_empty(), "route to {dst:?} needs at least one port");
        #[cfg(test)]
        self.installs.push((dst, ports.to_vec()));
        let last = self.last as usize;
        let found = if !self.sets.is_empty() && self.set_at(last) == ports {
            Some(last)
        } else {
            self.offsets().find(|&at| self.set_at(at) == ports)
        };
        let at = match found {
            Some(at) => at,
            None => {
                let at = self.sets.len();
                self.sets.push(ports.len());
                self.sets.extend_from_slice(ports);
                at
            }
        };
        assert!(at < NO_ROUTE as usize, "route sets overflow u32 offsets");
        self.last = at as u32;
        let d = dst.0 as usize;
        if d >= self.set_of.len() {
            self.set_of.resize(d + 1, NO_ROUTE);
        }
        self.set_of[d] = at as u32;
    }

    pub fn candidates(&self, dst: NodeId) -> Option<&[PortId]> {
        let &at = self.set_of.get(dst.0 as usize)?;
        if at == NO_ROUTE {
            return None;
        }
        Some(self.set_at(at as usize))
    }

    /// Distinct candidate sets stored.
    pub fn distinct_sets(&self) -> usize {
        self.offsets().count()
    }

    /// Heap bytes the table holds (capacity, not length).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.set_of.capacity() * size_of::<u32>() + self.sets.capacity() * size_of::<PortId>()
    }

    /// Offsets of the stored sets, in `sets` order.
    fn offsets(&self) -> impl Iterator<Item = usize> + '_ {
        let first = (!self.sets.is_empty()).then_some(0);
        std::iter::successors(first, |&at| {
            let next = at + 1 + self.sets[at];
            (next < self.sets.len()).then_some(next)
        })
    }

    /// The set stored at offset `at` of `sets`.
    fn set_at(&self, at: usize) -> &[PortId] {
        &self.sets[at + 1..at + 1 + self.sets[at]]
    }
}

/// FNV-1a-style mix for ECMP hashing; salted per switch so collisions are
/// not correlated along a path.
fn ecmp_hash(src: u32, dst: u32, sport: u16, salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt;
    for b in src.to_be_bytes().into_iter().chain(dst.to_be_bytes()).chain(sport.to_be_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Final avalanche so low bits are well mixed for small modulus.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Picks the egress port for `pkt` among `candidates`.
///
/// `queue_bytes(port)` reports the current egress occupancy for adaptive
/// routing; `spray_roll` supplies the random draw for spraying (taken from
/// the simulation RNG by the caller so this function stays pure).
pub fn select_port(
    lb: LoadBalance,
    pkt: &Packet,
    candidates: &[PortId],
    salt: u64,
    queue_bytes: impl Fn(PortId) -> usize,
    spray_roll: u64,
) -> PortId {
    debug_assert!(!candidates.is_empty());
    if candidates.len() == 1 {
        return candidates[0];
    }
    match lb {
        LoadBalance::Ecmp => {
            let h = ecmp_hash(pkt.header.ip.src, pkt.header.ip.dst, pkt.header.udp.src_port, salt);
            candidates[(h % candidates.len() as u64) as usize]
        }
        // Least-loaded egress; ties break by flow hash so that a balanced
        // fabric keeps flows path-stable (real AR pipelines behave this
        // way, and it is what lets in-order transports survive AR on
        // symmetric paths — Fig. 11's 1:1 column). Flowlet needs per-flow
        // state and is resolved by the switch before reaching this
        // stateless helper; a fresh flowlet picks like AR.
        LoadBalance::AdaptiveRouting | LoadBalance::Flowlet { .. } => {
            least_loaded(pkt, candidates, salt, queue_bytes)
        }
        LoadBalance::Spray => candidates[(spray_roll % candidates.len() as u64) as usize],
    }
}

/// AR pick without allocating: one pass finds the minimum load and tie
/// count, a second indexes the hash-chosen tie. Visits candidates in slice
/// order both times, so the choice is identical to materializing the tied
/// set and indexing it.
fn least_loaded(
    pkt: &Packet,
    candidates: &[PortId],
    salt: u64,
    queue_bytes: impl Fn(PortId) -> usize,
) -> PortId {
    let mut min_q = usize::MAX;
    let mut ties = 0u64;
    for &c in candidates {
        let q = queue_bytes(c);
        match q.cmp(&min_q) {
            std::cmp::Ordering::Less => {
                min_q = q;
                ties = 1;
            }
            std::cmp::Ordering::Equal => ties += 1,
            std::cmp::Ordering::Greater => {}
        }
    }
    let pick = if ties == 1 {
        0
    } else {
        let h = ecmp_hash(pkt.header.ip.src, pkt.header.ip.dst, pkt.header.udp.src_port, salt);
        h % ties
    };
    let mut seen = 0;
    for &c in candidates {
        if queue_bytes(c) == min_q {
            if seen == pick {
                return c;
            }
            seen += 1;
        }
    }
    unreachable!("tie index within tie count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PktDesc, PktExt};
    use dcp_rdma::headers::*;

    fn pkt(src: u32, dst: u32, sport: u16) -> Packet {
        Packet {
            uid: 0,
            flow: FlowId(0),
            header: PacketHeader {
                eth: EthHeader::new(MacAddr::from_host(0), MacAddr::from_host(1)),
                ip: Ipv4Header::new(src, dst, DcpTag::Data, 0),
                udp: UdpHeader::roce(sport, 0),
                bth: Bth { opcode: RdmaOpcode::SendOnly, dest_qpn: 0, psn: 0, ack_req: false },
                dcp: None,
                reth: None,
                aeth: None,
            },
            payload_len: 0,
            desc: PktDesc::NONE,
            ext: PktExt::None,
            sent_at: 0,
            is_retx: false,
            retx_cause: dcp_telemetry::RetxCause::Unknown,
            ingress: 0,
        }
    }

    #[test]
    fn ecmp_is_stable_per_flow() {
        let cands = vec![0, 1, 2, 3];
        let p = pkt(1, 2, 777);
        let first = select_port(LoadBalance::Ecmp, &p, &cands, 42, |_| 0, 0);
        for _ in 0..10 {
            assert_eq!(select_port(LoadBalance::Ecmp, &p, &cands, 42, |_| 0, 0), first);
        }
    }

    #[test]
    fn ecmp_spreads_across_flows() {
        let cands = vec![0, 1, 2, 3];
        let mut seen = std::collections::HashSet::new();
        for sport in 0..64 {
            let p = pkt(1, 2, sport);
            seen.insert(select_port(LoadBalance::Ecmp, &p, &cands, 42, |_| 0, 0));
        }
        assert_eq!(seen.len(), 4, "64 flows should hit all 4 ports");
    }

    #[test]
    fn adaptive_routing_picks_least_loaded() {
        let cands = vec![0, 1, 2];
        let p = pkt(1, 2, 5);
        let loads = [300usize, 100, 200];
        let got = select_port(LoadBalance::AdaptiveRouting, &p, &cands, 0, |port| loads[port], 0);
        assert_eq!(got, 1);
    }

    #[test]
    fn adaptive_routing_ties_are_flow_stable() {
        // Equal queues: the same flow always picks the same port, and
        // different flows spread.
        let cands = vec![0, 1, 2];
        let p = pkt(1, 2, 5);
        let first = select_port(LoadBalance::AdaptiveRouting, &p, &cands, 0, |_| 7, 0);
        for _ in 0..5 {
            assert_eq!(select_port(LoadBalance::AdaptiveRouting, &p, &cands, 0, |_| 7, 0), first);
        }
        let mut seen = std::collections::HashSet::new();
        for sport in 0..64 {
            let p = pkt(1, 2, sport);
            seen.insert(select_port(LoadBalance::AdaptiveRouting, &p, &cands, 0, |_| 7, 0));
        }
        assert!(seen.len() > 1, "distinct flows must spread across tied ports");
    }

    #[test]
    fn spray_uses_roll() {
        let cands = vec![4, 5, 6];
        let p = pkt(1, 2, 5);
        assert_eq!(select_port(LoadBalance::Spray, &p, &cands, 0, |_| 0, 0), 4);
        assert_eq!(select_port(LoadBalance::Spray, &p, &cands, 0, |_| 0, 1), 5);
        assert_eq!(select_port(LoadBalance::Spray, &p, &cands, 0, |_| 0, 5), 6);
    }

    #[test]
    fn single_candidate_short_circuits() {
        let p = pkt(1, 2, 5);
        assert_eq!(select_port(LoadBalance::AdaptiveRouting, &p, &[9], 0, |_| 0, 0), 9);
    }

    #[test]
    fn routing_table_lookup() {
        let mut rt = RoutingTable::new();
        rt.add_route(NodeId(7), vec![1, 2]);
        assert_eq!(rt.candidates(NodeId(7)), Some(&[1, 2][..]));
        assert_eq!(rt.candidates(NodeId(8)), None);
        assert_eq!(rt.candidates(NodeId(3)), None, "below the highest routed id");
    }

    #[test]
    fn equal_sets_are_stored_once() {
        let mut rt = RoutingTable::new();
        for d in 0..100 {
            rt.add_route(NodeId(d), [4, 5, 6]);
        }
        rt.add_route(NodeId(100), [9]);
        // Order is part of a set's identity: ECMP indexes it and AR breaks
        // ties in it.
        rt.add_route(NodeId(101), [6, 5, 4]);
        assert_eq!(rt.distinct_sets(), 3);
        assert_eq!(rt.sets.len(), 3 + 7, "three lengths, seven ports");
        assert_eq!(rt.candidates(NodeId(42)), Some(&[4, 5, 6][..]));
        assert_eq!(rt.candidates(NodeId(101)), Some(&[6, 5, 4][..]));
    }

    #[test]
    fn replacing_a_route_repoints_it() {
        let mut rt = RoutingTable::new();
        rt.add_route(NodeId(1), [1, 2]);
        rt.add_route(NodeId(2), [3]);
        rt.add_route(NodeId(1), [3]);
        assert_eq!(rt.candidates(NodeId(1)), Some(&[3][..]));
        rt.add_route(NodeId(1), [1, 2]);
        assert_eq!(rt.candidates(NodeId(1)), Some(&[1, 2][..]));
        assert_eq!(rt.distinct_sets(), 2, "a re-installed set is found, not copied");
    }

    /// [`RoutingTable::add_route`] without the previous-set shortcut: the
    /// linear search alone, the reference the table must match byte for
    /// byte.
    fn add_route_linear(rt: &mut RoutingTable, dst: NodeId, ports: &[PortId]) {
        let found = rt.offsets().find(|&at| rt.set_at(at) == ports);
        let at = found.unwrap_or_else(|| {
            rt.sets.push(ports.len());
            rt.sets.extend_from_slice(ports);
            rt.sets.len() - 1 - ports.len()
        });
        let d = dst.0 as usize;
        if d >= rt.set_of.len() {
            rt.set_of.resize(d + 1, NO_ROUTE);
        }
        rt.set_of[d] = at as u32;
    }

    /// The table the linear search alone builds from `installs`.
    fn linear_table(installs: &[(NodeId, Vec<PortId>)]) -> RoutingTable {
        let mut linear = RoutingTable::new();
        for (dst, ports) in installs {
            add_route_linear(&mut linear, *dst, ports);
        }
        linear
    }

    /// Replays `installs` through `add_route` and through the linear search
    /// and asserts the two tables are identical.
    fn assert_replays_identically(installs: &[(NodeId, Vec<PortId>)], what: &str) {
        let mut fast = RoutingTable::new();
        for (dst, ports) in installs {
            fast.add_route(*dst, ports);
        }
        let linear = linear_table(installs);
        assert_eq!((fast.set_of, fast.sets), (linear.set_of, linear.sets), "{what}");
    }

    /// Every switch of the `clos` and 1024-host `clos3` builders holds the
    /// table the linear search builds from the same installs, byte for byte
    /// (so every `candidates(dst)` and `distinct_sets()` agree), and
    /// replaying those installs shuffled, with replacements, builds
    /// identical tables either way.
    #[test]
    fn previous_set_shortcut_builds_the_linear_search_table() {
        use crate::switch::SwitchConfig;
        use crate::topology::{clos, clos3};
        use crate::Simulator;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let cfg = SwitchConfig::lossy(LoadBalance::AdaptiveRouting);
        let mut small = Simulator::new(1);
        let t1 = clos(&mut small, cfg, 4, 8, 4, 100.0, 100.0, 1000, 1000);
        let mut big = Simulator::new(1);
        let t3 = clos3(&mut big, cfg, 8, 4, 8, 16, 8, 100.0, 400.0, 1000, 1000);
        let fabrics = [
            (&small, t1.leaves.iter().chain(&t1.spines).copied().collect::<Vec<_>>()),
            (&big, t3.leaves.iter().chain(&t3.aggs).chain(&t3.cores).copied().collect()),
        ];
        let mut rng = StdRng::seed_from_u64(0x5e7);
        for (sim, switches) in fabrics {
            for sw in switches {
                let table = &sim.switch(sw).routing;
                let linear = linear_table(&table.installs);
                assert_eq!((&table.set_of, &table.sets), (&linear.set_of, &linear.sets));
                for d in 0..table.set_of.len() as u32 + 2 {
                    assert_eq!(table.candidates(NodeId(d)), linear.candidates(NodeId(d)));
                }
                assert_eq!(table.distinct_sets(), linear.distinct_sets());
                let mut installs = table.installs.clone();
                for i in (1..installs.len()).rev() {
                    installs.swap(i, rng.random_range(0..=i));
                }
                // Re-install a tenth of the destinations with another
                // destination's set.
                for _ in 0..installs.len() / 10 {
                    let (a, b) =
                        (rng.random_range(0..installs.len()), rng.random_range(0..installs.len()));
                    installs.push((installs[a].0, installs[b].1.clone()));
                }
                assert_replays_identically(&installs, "shuffled, with replacements");
            }
        }
    }
}
