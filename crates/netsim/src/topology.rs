//! Topology builders for the paper's three experimental fabrics.
//!
//! * [`back_to_back`] — two directly cabled hosts (Fig. 8 perftest).
//! * [`two_switch_testbed`] — the Fig. 9 testbed: two switches, 8 hosts
//!   each, parallel cross-switch links (optionally with unequal capacity,
//!   Fig. 11).
//! * [`clos`] — the simulation fabric: a two-layer CLOS of leaf and spine
//!   switches with configurable leaf–spine delay (intra-DC 1 µs, cross-DC
//!   500 µs / 5 ms for Fig. 15).
//! * [`clos3`] — a three-tier (pod-structured) CLOS for the 1024–4096-host
//!   scale runs: pods of leaf + aggregation switches joined by a core
//!   layer.
//!
//! Every builder finishes with [`Simulator::auto_partition`], so setting
//! `DCP_SHARDS` shards the engine along the topology's pod/leaf boundaries
//! with no harness changes.

use crate::packet::NodeId;
use crate::sim::Simulator;
use crate::switch::SwitchConfig;
use crate::time::Nanos;

/// Handle to the built fabric.
#[derive(Debug, Clone)]
pub struct Topology {
    pub hosts: Vec<NodeId>,
    pub leaves: Vec<NodeId>,
    pub spines: Vec<NodeId>,
    /// Aggregation tier ([`clos3`] only; empty on two-layer fabrics).
    pub aggs: Vec<NodeId>,
    /// Core tier ([`clos3`] only; empty on two-layer fabrics).
    pub cores: Vec<NodeId>,
    /// `pod_of_leaf[l]` = pod index of `leaves[l]`; empty when the fabric
    /// has no pod structure (each leaf then partitions on its own).
    pub pod_of_leaf: Vec<usize>,
    /// `pod_of_agg[a]` = pod index of `aggs[a]`.
    pub pod_of_agg: Vec<usize>,
    /// Link rate between hosts and leaves (Gbps).
    pub host_gbps: f64,
}

impl Topology {
    /// A pod-less (two-layer or flat) fabric handle.
    fn flat(hosts: Vec<NodeId>, leaves: Vec<NodeId>, spines: Vec<NodeId>, host_gbps: f64) -> Self {
        Topology {
            hosts,
            leaves,
            spines,
            aggs: Vec::new(),
            cores: Vec::new(),
            pod_of_leaf: Vec::new(),
            pod_of_agg: Vec::new(),
            host_gbps,
        }
    }
}

/// Two hosts on a direct cable (Fig. 8).
pub fn back_to_back(sim: &mut Simulator, gbps: f64, delay: Nanos) -> Topology {
    let a = sim.add_host();
    let b = sim.add_host();
    sim.connect_hosts(a, b, gbps, delay);
    let topo = Topology::flat(vec![a, b], vec![], vec![], gbps);
    sim.auto_partition(&topo);
    topo
}

/// The Fig. 9 testbed: two switches with `hosts_per_switch` hosts each and
/// `cross_gbps.len()` parallel cross-switch links whose rates may differ
/// (Fig. 11 sets ratios 1:1, 1:4, 1:10).
pub fn two_switch_testbed(
    sim: &mut Simulator,
    cfg: SwitchConfig,
    hosts_per_switch: usize,
    host_gbps: f64,
    cross_gbps: &[f64],
    host_delay: Nanos,
    cross_delay: Nanos,
) -> Topology {
    let s1 = sim.add_switch(cfg);
    let s2 = sim.add_switch(cfg);
    let mut hosts = Vec::new();
    let mut s1_host_ports = Vec::new();
    let mut s2_host_ports = Vec::new();
    for i in 0..2 * hosts_per_switch {
        let h = sim.add_host();
        let sw = if i < hosts_per_switch { s1 } else { s2 };
        let port = sim.connect_host_switch(h, sw, host_gbps, host_delay);
        if i < hosts_per_switch {
            s1_host_ports.push((h, port));
        } else {
            s2_host_ports.push((h, port));
        }
        hosts.push(h);
    }
    let mut cross_s1 = Vec::new();
    let mut cross_s2 = Vec::new();
    for &g in cross_gbps {
        let (p1, p2) = sim.connect_switches(s1, s2, g, cross_delay);
        cross_s1.push(p1);
        cross_s2.push(p2);
    }
    // Routing: local hosts via their access port, remote hosts via the
    // cross-switch candidate set.
    for &(h, port) in &s1_host_ports {
        sim.switch_mut(s1).routing.add_route(h, [port]);
        sim.switch_mut(s2).routing.add_route(h, &cross_s2);
    }
    for &(h, port) in &s2_host_ports {
        sim.switch_mut(s2).routing.add_route(h, [port]);
        sim.switch_mut(s1).routing.add_route(h, &cross_s1);
    }
    let topo = Topology::flat(hosts, vec![s1, s2], vec![], host_gbps);
    sim.auto_partition(&topo);
    topo
}

/// A two-layer CLOS: `n_leaf` leaves with `hosts_per_leaf` hosts each, all
/// connected to `n_spine` spines. Host links and leaf–spine links run at
/// `host_gbps` and `spine_gbps`; `leaf_spine_delay` models the DC diameter
/// (1 µs intra-DC; 500 µs / 5 ms for the 100 km / 1000 km cross-DC runs).
#[allow(clippy::too_many_arguments)]
pub fn clos(
    sim: &mut Simulator,
    cfg: SwitchConfig,
    n_spine: usize,
    n_leaf: usize,
    hosts_per_leaf: usize,
    host_gbps: f64,
    spine_gbps: f64,
    host_delay: Nanos,
    leaf_spine_delay: Nanos,
) -> Topology {
    let spines: Vec<NodeId> = (0..n_spine).map(|_| sim.add_switch(cfg)).collect();
    let mut leaves = Vec::new();
    let mut hosts = Vec::new();
    // leaf_uplinks[l][s] = port on leaf l toward spine s
    let mut leaf_uplinks: Vec<Vec<usize>> = Vec::new();
    // spine_downlinks[s][l] = port on spine s toward leaf l
    let mut spine_downlinks: Vec<Vec<usize>> = vec![Vec::new(); n_spine];
    let mut host_ports: Vec<Vec<(NodeId, usize)>> = Vec::new();

    for _l in 0..n_leaf {
        let leaf = sim.add_switch(cfg);
        let mut local = Vec::new();
        for _ in 0..hosts_per_leaf {
            let h = sim.add_host();
            let port = sim.connect_host_switch(h, leaf, host_gbps, host_delay);
            local.push((h, port));
            hosts.push(h);
        }
        let mut ups = Vec::new();
        for (s, &spine) in spines.iter().enumerate() {
            let (pl, ps) = sim.connect_switches(leaf, spine, spine_gbps, leaf_spine_delay);
            ups.push(pl);
            spine_downlinks[s].push(ps);
        }
        leaves.push(leaf);
        leaf_uplinks.push(ups);
        host_ports.push(local);
    }

    // Leaf routing: local hosts down their access port; remote hosts up via
    // all spines. Spine routing: each host down via its leaf's port.
    route_leaves(sim, &leaves, &host_ports, &leaf_uplinks);
    for (s, &spine) in spines.iter().enumerate() {
        let table = &mut sim.switch_mut(spine).routing;
        for (l, locals) in host_ports.iter().enumerate() {
            for &(h, _) in locals {
                table.add_route(h, [spine_downlinks[s][l]]);
            }
        }
    }
    let topo = Topology::flat(hosts, leaves, spines, host_gbps);
    sim.auto_partition(&topo);
    topo
}

/// A three-tier pod-structured CLOS: `pods` pods, each with
/// `leaves_per_pod` leaves (`hosts_per_leaf` hosts each) and
/// `aggs_per_pod` aggregation switches, joined by `n_core` core switches.
/// Every leaf connects to every agg in its pod; every agg connects to every
/// core. Fabric links (leaf–agg and agg–core) run at `fabric_gbps` with
/// `fabric_delay` propagation.
///
/// Routing mirrors [`clos`] one tier up: leaves send local hosts down their
/// access port and everything else up the pod aggs; aggs send pod-local
/// hosts down the leaf port and foreign hosts up the core links; cores send
/// each host down toward any agg of its pod.
#[allow(clippy::too_many_arguments)]
pub fn clos3(
    sim: &mut Simulator,
    cfg: SwitchConfig,
    pods: usize,
    aggs_per_pod: usize,
    leaves_per_pod: usize,
    hosts_per_leaf: usize,
    n_core: usize,
    host_gbps: f64,
    fabric_gbps: f64,
    host_delay: Nanos,
    fabric_delay: Nanos,
) -> Topology {
    let cores: Vec<NodeId> = (0..n_core).map(|_| sim.add_switch(cfg)).collect();
    let mut hosts = Vec::new();
    let mut leaves = Vec::new();
    let mut aggs = Vec::new();
    let mut pod_of_leaf = Vec::new();
    let mut pod_of_agg = Vec::new();
    // Per-leaf: attached (host, access port) pairs; per-leaf uplink ports
    // toward its pod aggs; per-agg: (leaf index → down port), core uplink
    // ports; per-core: (agg index → down port).
    let mut leaf_hosts: Vec<Vec<(NodeId, usize)>> = Vec::new();
    let mut leaf_ups: Vec<Vec<usize>> = Vec::new();
    let mut agg_leaf_port: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut agg_ups: Vec<Vec<usize>> = Vec::new();
    let mut core_agg_port: Vec<Vec<usize>> = vec![Vec::new(); n_core];

    for pod in 0..pods {
        let pod_aggs: Vec<NodeId> = (0..aggs_per_pod).map(|_| sim.add_switch(cfg)).collect();
        for &agg in &pod_aggs {
            let a = aggs.len();
            let mut ups = Vec::new();
            for (c, &core) in cores.iter().enumerate() {
                let (pa, pc) = sim.connect_switches(agg, core, fabric_gbps, fabric_delay);
                ups.push(pa);
                debug_assert_eq!(core_agg_port[c].len(), a);
                core_agg_port[c].push(pc);
            }
            aggs.push(agg);
            pod_of_agg.push(pod);
            agg_ups.push(ups);
            agg_leaf_port.push(Vec::new());
        }
        for _ in 0..leaves_per_pod {
            let leaf = sim.add_switch(cfg);
            let l = leaves.len();
            let mut local = Vec::new();
            for _ in 0..hosts_per_leaf {
                let h = sim.add_host();
                let port = sim.connect_host_switch(h, leaf, host_gbps, host_delay);
                local.push((h, port));
                hosts.push(h);
            }
            let mut ups = Vec::new();
            for (ai, &agg) in pod_aggs.iter().enumerate() {
                let (pl, pa) = sim.connect_switches(leaf, agg, fabric_gbps, fabric_delay);
                ups.push(pl);
                let a = aggs.len() - aggs_per_pod + ai;
                agg_leaf_port[a].push((l, pa));
            }
            leaves.push(leaf);
            pod_of_leaf.push(pod);
            leaf_hosts.push(local);
            leaf_ups.push(ups);
        }
    }

    // Leaf routing: local hosts down, everything else up the pod aggs.
    route_leaves(sim, &leaves, &leaf_hosts, &leaf_ups);
    // Agg routing: pod-local hosts down the leaf port, foreign hosts up.
    for (a, &agg) in aggs.iter().enumerate() {
        let table = &mut sim.switch_mut(agg).routing;
        for (l, locals) in leaf_hosts.iter().enumerate() {
            if pod_of_leaf[l] == pod_of_agg[a] {
                let down =
                    agg_leaf_port[a].iter().find(|&&(li, _)| li == l).expect("pod leaf wired").1;
                for &(h, _) in locals {
                    table.add_route(h, [down]);
                }
            } else {
                for &(h, _) in locals {
                    table.add_route(h, &agg_ups[a]);
                }
            }
        }
    }
    // Core routing: each host down toward any agg of its pod.
    for (c, &core) in cores.iter().enumerate() {
        let mut pod_ports: Vec<Vec<usize>> = vec![Vec::new(); pods];
        for (a, &p) in core_agg_port[c].iter().enumerate() {
            pod_ports[pod_of_agg[a]].push(p);
        }
        let table = &mut sim.switch_mut(core).routing;
        for (l, locals) in leaf_hosts.iter().enumerate() {
            for &(h, _) in locals {
                table.add_route(h, &pod_ports[pod_of_leaf[l]]);
            }
        }
    }

    let topo = Topology {
        hosts,
        leaves,
        spines: Vec::new(),
        aggs,
        cores,
        pod_of_leaf,
        pod_of_agg,
        host_gbps,
    };
    sim.auto_partition(&topo);
    topo
}

/// Leaf routing shared by both CLOS builders: leaf `l` sends the hosts of
/// `leaf_hosts[l]` down their access port and every other host up the
/// uplink set `ups[l]`.
fn route_leaves(
    sim: &mut Simulator,
    leaves: &[NodeId],
    leaf_hosts: &[Vec<(NodeId, usize)>],
    ups: &[Vec<usize>],
) {
    for (l, &leaf) in leaves.iter().enumerate() {
        let table = &mut sim.switch_mut(leaf).routing;
        for (l2, locals) in leaf_hosts.iter().enumerate() {
            for &(h, port) in locals {
                if l2 == l {
                    table.add_route(h, [port]);
                } else {
                    table.add_route(h, &ups[l]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::LoadBalance;

    #[test]
    fn clos_wiring_counts() {
        let mut sim = Simulator::new(1);
        let topo = clos(
            &mut sim,
            SwitchConfig::lossy(LoadBalance::Ecmp),
            4,
            4,
            8,
            100.0,
            100.0,
            1000,
            1000,
        );
        assert_eq!(topo.hosts.len(), 32);
        assert_eq!(topo.leaves.len(), 4);
        assert_eq!(topo.spines.len(), 4);
        // Each leaf: 8 host ports + 4 uplinks.
        for &leaf in &topo.leaves {
            assert_eq!(sim.switch(leaf).ports.len(), 12);
        }
        // Each spine: 4 downlinks.
        for &spine in &topo.spines {
            assert_eq!(sim.switch(spine).ports.len(), 4);
        }
    }

    #[test]
    fn clos_routes_exist_for_all_pairs() {
        let mut sim = Simulator::new(1);
        let topo = clos(
            &mut sim,
            SwitchConfig::lossy(LoadBalance::Ecmp),
            2,
            2,
            2,
            100.0,
            100.0,
            1000,
            1000,
        );
        for &leaf in &topo.leaves {
            for &h in &topo.hosts {
                assert!(sim.switch(leaf).routing.candidates(h).is_some());
            }
        }
        for &spine in &topo.spines {
            for &h in &topo.hosts {
                let c = sim.switch(spine).routing.candidates(h).unwrap();
                assert_eq!(c.len(), 1, "spines have a single down route");
            }
        }
    }

    #[test]
    fn testbed_cross_links_are_candidates_for_remote_hosts() {
        let mut sim = Simulator::new(1);
        let topo = two_switch_testbed(
            &mut sim,
            SwitchConfig::lossy(LoadBalance::AdaptiveRouting),
            8,
            100.0,
            &[100.0; 8],
            1000,
            1000,
        );
        let s1 = topo.leaves[0];
        let remote = topo.hosts[12];
        let c = sim.switch(s1).routing.candidates(remote).unwrap();
        assert_eq!(c.len(), 8, "8 parallel cross links");
        let local = topo.hosts[3];
        assert_eq!(sim.switch(s1).routing.candidates(local).unwrap().len(), 1);
    }

    /// The 1024-host fabric of the `allreduce_1024_sh8` benchmark row: every
    /// switch stores each distinct candidate set once, so the tables hold a
    /// small fraction of what a per-destination copy of each set would.
    #[test]
    fn clos3_tables_store_each_candidate_set_once() {
        let mut sim = Simulator::new(1);
        let topo = clos3(
            &mut sim,
            SwitchConfig::lossy(LoadBalance::AdaptiveRouting),
            8,
            4,
            8,
            16,
            8,
            100.0,
            400.0,
            1000,
            1000,
        );
        assert_eq!(topo.hosts.len(), 1024);
        let sets = |tier: &[NodeId]| -> Vec<usize> {
            tier.iter().map(|&s| sim.switch(s).routing.distinct_sets()).collect()
        };
        // Leaf: 16 access ports + the pod-agg uplink set. Agg: 8 pod-leaf
        // downlinks + the core uplink set. Core: one agg set per pod.
        assert!(sets(&topo.leaves).iter().all(|&n| n == 17));
        assert!(sets(&topo.aggs).iter().all(|&n| n == 9));
        assert!(sets(&topo.cores).iter().all(|&n| n == 8));

        let switches = || topo.leaves.iter().chain(&topo.aggs).chain(&topo.cores);
        let held: usize = switches().map(|&s| sim.switch(s).routing.heap_bytes()).sum();
        let copied: usize = switches()
            .flat_map(|&s| topo.hosts.iter().map(move |&h| (s, h)))
            .map(|(s, h)| sim.switch(s).routing.candidates(h).unwrap().len())
            .sum::<usize>()
            * std::mem::size_of::<crate::packet::PortId>();
        assert_eq!(copied, 4_202_496, "port entries a per-destination copy holds");
        assert!(held * 4 < copied, "tables hold {held} B; copies would be {copied} B");
    }

    #[test]
    fn back_to_back_links_hosts() {
        let mut sim = Simulator::new(1);
        let topo = back_to_back(&mut sim, 100.0, 500);
        let a = sim.host(topo.hosts[0]);
        assert_eq!(a.link.unwrap().to, topo.hosts[1]);
    }
}
