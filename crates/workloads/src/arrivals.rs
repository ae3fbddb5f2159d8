//! Flow arrival processes: Poisson background traffic at a target load and
//! periodic N-to-1 incast bursts (§6.2's traffic mix).

use crate::websearch::SizeDist;
use dcp_netsim::time::{Nanos, SEC};
use rand::rngs::StdRng;
use rand::Rng;

/// Which tenant a flow belongs to. Tenant 0 is the default ("untenanted")
/// id every legacy generator emits; the multi-tenant soak mixes tag their
/// flows so the id rides through [`FlowSpec`], the runner's endpoint
/// registration (host-egress WRR keys on it) and per-tenant telemetry
/// summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TenantId(pub u8);

/// One flow to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Index into the topology's host list.
    pub src: usize,
    pub dst: usize,
    pub bytes: u64,
    pub start: Nanos,
    /// Marks incast flows so results can be reported separately (Fig. 2b).
    pub incast: bool,
    /// Owning tenant; 0 for single-tenant experiments.
    pub tenant: TenantId,
}

/// Tags every flow in `flows` with `tenant` (the multi-tenant mixes tag
/// whole generator outputs at once).
pub fn tag_tenant(mut flows: Vec<FlowSpec>, tenant: TenantId) -> Vec<FlowSpec> {
    for f in &mut flows {
        f.tenant = tenant;
    }
    flows
}

/// Poisson arrivals of randomly sized flows between random host pairs,
/// dimensioned so the aggregate offered load is `load` of the hosts'
/// access bandwidth.
pub fn poisson_flows(
    rng: &mut StdRng,
    dist: &SizeDist,
    n_hosts: usize,
    host_gbps: f64,
    load: f64,
    n_flows: usize,
) -> Vec<FlowSpec> {
    assert!(n_hosts >= 2);
    // λ (flows/sec) = load · capacity / mean flow size.
    let bytes_per_sec = load * host_gbps * 1e9 / 8.0 * n_hosts as f64;
    let lambda = bytes_per_sec / dist.mean();
    let mut t = 0.0f64;
    let mut flows = Vec::with_capacity(n_flows);
    for _ in 0..n_flows {
        let u: f64 = rng.random::<f64>().max(1e-12);
        t += -u.ln() / lambda;
        let src = rng.random_range(0..n_hosts);
        let mut dst = rng.random_range(0..n_hosts - 1);
        if dst >= src {
            dst += 1;
        }
        flows.push(FlowSpec {
            src,
            dst,
            bytes: dist.sample(rng),
            start: (t * SEC as f64) as Nanos,
            incast: false,
            tenant: TenantId(0),
        });
    }
    flows
}

/// [`poisson_flows`], but bounded by a time horizon instead of a flow
/// count — the soak harness dimensions tenants by how long they must keep
/// offering load, not by how many flows that happens to take.
pub fn poisson_flows_until(
    rng: &mut StdRng,
    dist: &SizeDist,
    n_hosts: usize,
    host_gbps: f64,
    load: f64,
    horizon: Nanos,
) -> Vec<FlowSpec> {
    assert!(n_hosts >= 2);
    let bytes_per_sec = load * host_gbps * 1e9 / 8.0 * n_hosts as f64;
    let lambda = bytes_per_sec / dist.mean();
    let mut t = 0.0f64;
    let mut flows = Vec::new();
    loop {
        let u: f64 = rng.random::<f64>().max(1e-12);
        t += -u.ln() / lambda;
        let start = (t * SEC as f64) as Nanos;
        if start >= horizon {
            return flows;
        }
        let src = rng.random_range(0..n_hosts);
        let mut dst = rng.random_range(0..n_hosts - 1);
        if dst >= src {
            dst += 1;
        }
        flows.push(FlowSpec {
            src,
            dst,
            bytes: dist.sample(rng),
            start,
            incast: false,
            tenant: TenantId(0),
        });
    }
}

/// Periodic N-to-1 incast: every burst, `fan_in` random senders each send
/// `bytes` to one random victim. The burst period is chosen so the incast
/// traffic adds `load` of one host's bandwidth in aggregate.
#[allow(clippy::too_many_arguments)]
pub fn incast_flows(
    rng: &mut StdRng,
    n_hosts: usize,
    host_gbps: f64,
    load: f64,
    fan_in: usize,
    bytes: u64,
    duration: Nanos,
) -> Vec<FlowSpec> {
    assert!(n_hosts > fan_in);
    let burst_bytes = (fan_in as u64 * bytes) as f64;
    let bytes_per_sec = load * host_gbps * 1e9 / 8.0 * n_hosts as f64;
    let period = (burst_bytes / bytes_per_sec * SEC as f64) as Nanos;
    let mut flows = Vec::new();
    let mut t = period.max(1);
    while t < duration {
        let dst = rng.random_range(0..n_hosts);
        let mut senders = Vec::with_capacity(fan_in);
        while senders.len() < fan_in {
            let s = rng.random_range(0..n_hosts);
            if s != dst && !senders.contains(&s) {
                senders.push(s);
            }
        }
        for src in senders {
            flows.push(FlowSpec { src, dst, bytes, start: t, incast: true, tenant: TenantId(0) });
        }
        t += period.max(1);
    }
    flows
}

/// Merges flow lists into arrival order.
pub fn merge(mut a: Vec<FlowSpec>, b: Vec<FlowSpec>) -> Vec<FlowSpec> {
    a.extend(b);
    a.sort_by_key(|f| f.start);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn poisson_load_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(3);
        let dist = SizeDist::websearch();
        let flows = poisson_flows(&mut rng, &dist, 64, 100.0, 0.3, 20_000);
        let span = flows.last().unwrap().start as f64 / SEC as f64;
        let total_bytes: u64 = flows.iter().map(|f| f.bytes).sum();
        let offered = total_bytes as f64 * 8.0 / span / 1e9; // Gbps
        let want = 0.3 * 100.0 * 64.0;
        assert!(
            (offered - want).abs() / want < 0.05,
            "offered {offered:.0} Gbps vs target {want:.0}"
        );
    }

    #[test]
    fn poisson_never_self_flows() {
        let mut rng = StdRng::seed_from_u64(4);
        let flows = poisson_flows(&mut rng, &SizeDist::websearch(), 4, 100.0, 0.5, 5_000);
        assert!(flows.iter().all(|f| f.src != f.dst));
    }

    #[test]
    fn incast_bursts_share_destination() {
        let mut rng = StdRng::seed_from_u64(5);
        let flows = incast_flows(&mut rng, 64, 100.0, 0.1, 16, 64 * 1024, SEC / 100);
        assert!(!flows.is_empty());
        for chunk in flows.chunks(16) {
            let dst = chunk[0].dst;
            assert!(chunk.iter().all(|f| f.dst == dst && f.src != dst && f.incast));
        }
    }

    #[test]
    fn poisson_until_respects_horizon_and_load() {
        let mut rng = StdRng::seed_from_u64(3);
        let dist = SizeDist::websearch();
        let horizon = SEC / 100;
        let flows = poisson_flows_until(&mut rng, &dist, 64, 100.0, 0.3, horizon);
        assert!(!flows.is_empty());
        assert!(flows.iter().all(|f| f.start < horizon && f.src != f.dst));
        let total_bytes: u64 = flows.iter().map(|f| f.bytes).sum();
        let offered = total_bytes as f64 * 8.0 / (horizon as f64 / SEC as f64) / 1e9;
        let want = 0.3 * 100.0 * 64.0;
        assert!((offered - want).abs() / want < 0.15, "offered {offered:.0} vs {want:.0}");
    }

    #[test]
    fn tag_tenant_tags_every_flow() {
        let mut rng = StdRng::seed_from_u64(9);
        let flows = poisson_flows(&mut rng, &SizeDist::websearch(), 8, 100.0, 0.2, 50);
        assert!(flows.iter().all(|f| f.tenant == TenantId(0)));
        let tagged = tag_tenant(flows, TenantId(2));
        assert!(tagged.iter().all(|f| f.tenant == TenantId(2)));
    }

    #[test]
    fn merge_sorts_by_start() {
        let a = vec![FlowSpec {
            src: 0,
            dst: 1,
            bytes: 1,
            start: 10,
            incast: false,
            tenant: TenantId(0),
        }];
        let b = vec![FlowSpec {
            src: 1,
            dst: 0,
            bytes: 1,
            start: 5,
            incast: true,
            tenant: TenantId(0),
        }];
        let m = merge(a, b);
        assert_eq!(m[0].start, 5);
    }
}
