//! Per-transport trace goldens.
//!
//! `integration_sharded`'s goldens and the soak digest pin DCP only; this
//! file pins every endpoint protocol the repo ships — the seven
//! [`TransportKind`]s plus the SwTcp model — so a refactor of the shared
//! reliability plumbing cannot move one of them unnoticed. Each transport
//! runs one small fixed-seed CLOS scenario twice: clean, and under
//! `LossModel::fabric_bursty` on every fabric cable composed with the
//! reorder adversary. Each run is pinned in two halves (see [`Golden`]):
//! a *behaviour* digest — every completion, the merged endpoint counters
//! and the fabric counters, folded with FNV — and the *engine* pair, the
//! event count and the final clock. A change to the engine's bookkeeping
//! (how many timer entries a run queues) moves only the engine pair; a
//! change to what the protocols do moves the behaviour digest.
//!
//! SwTcp's second run has the adversary but no loss model: when the
//! digests were captured its sender panicked on the first RTO rewind that
//! a straggler ACK overtook (see [`perturb`]), so no digest of it under
//! loss existed to pin.

use dcp_bench::digest::{fnv_bytes, fnv_u64, FNV_OFFSET};
use dcp_bench::fabric_cables;
use dcp_check::{Adversary, AdversaryProfile};
use dcp_core::dcp_switch_config;
use dcp_faults::{FaultEngine, FaultPlan, LossModel};
use dcp_netsim::packet::{FlowId, NodeId};
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{Nanos, SEC, US};
use dcp_netsim::{topology, CompletionKind, EcnConfig, Endpoint, LoadBalance, Simulator, Topology};
use dcp_rdma::headers::DcpTag;
use dcp_rdma::qp::WorkReqOp;
use dcp_transport::cc::NoCc;
use dcp_transport::common::{FlowCfg, Placement};
use dcp_transport::swtcp::swtcp_pair;
use dcp_workloads::{endpoint_pair_opts, CcKind, RunOpts, TransportKind};

/// The eight protocols: a workload `TransportKind`, or the SwTcp model
/// (which has no kind — Fig. 8 builds it through `swtcp_pair`).
#[derive(Debug, Clone, Copy)]
enum Proto {
    Kind(TransportKind),
    SwTcp,
}

const HOSTS_PER_LEAF: usize = 2;
const FLOWS: usize = 8;
/// Message sizes posted on every flow: one long, one sub-MTU-multiple
/// short, one medium — several messages retire per run and the PSN space
/// crosses message boundaries mid-window.
const MSGS: [u64; 3] = [384 << 10, 9 << 10, 96 << 10];

/// Fabric and congestion control per protocol, following `check_matrix`'s
/// schemes. RACK-TLP and timeout-only stay on the BDP window and SwTcp on
/// `NoCc` — the only CCs shipped scenarios pair them with; GBN, EC and DCP
/// run DCQCN so the pacing gate and the CC tick are in the trace.
fn fabric(p: Proto) -> (SwitchConfig, CcKind) {
    let bdp = CcKind::Bdp { gbps: 100.0, rtt: 12 * US };
    let dcqcn = CcKind::Dcqcn { gbps: 100.0 };
    let ecn = |mut cfg: SwitchConfig| {
        cfg.ecn = Some(EcnConfig::default_100g());
        cfg
    };
    match p {
        Proto::Kind(TransportKind::Dcp) => {
            (dcp_switch_config(LoadBalance::AdaptiveRouting, 6), dcqcn)
        }
        Proto::Kind(TransportKind::Gbn) => (ecn(SwitchConfig::lossy(LoadBalance::Ecmp)), dcqcn),
        Proto::Kind(TransportKind::Irn) => (SwitchConfig::lossy(LoadBalance::AdaptiveRouting), bdp),
        Proto::Kind(TransportKind::MpRdma) => {
            (ecn(SwitchConfig::lossless(LoadBalance::Ecmp)), CcKind::None)
        }
        Proto::Kind(TransportKind::RackTlp) => (SwitchConfig::lossy(LoadBalance::Ecmp), bdp),
        Proto::Kind(TransportKind::TimeoutOnly) => (SwitchConfig::lossy(LoadBalance::Ecmp), bdp),
        Proto::Kind(TransportKind::Ec) => {
            (ecn(SwitchConfig::lossy(LoadBalance::AdaptiveRouting)), dcqcn)
        }
        Proto::SwTcp => (SwitchConfig::lossy(LoadBalance::Ecmp), CcKind::None),
    }
}

fn pair(
    p: Proto,
    cc: CcKind,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
) -> (Box<dyn Endpoint>, Box<dyn Endpoint>) {
    match p {
        Proto::Kind(kind) => {
            let opts = RunOpts { chunk: 64 << 10, ..Default::default() };
            endpoint_pair_opts(kind, cc, flow, src, dst, opts)
        }
        Proto::SwTcp => {
            let cfg = FlowCfg::sender(flow, src, dst, DcpTag::NonDcp);
            let (t, r) = swtcp_pair(cfg, Box::new(NoCc::default()), Placement::Virtual);
            (Box::new(t), Box::new(r))
        }
    }
}

/// Installs the second run's fault plane: bursty loss on every fabric cable
/// under the reorder adversary.
///
/// SwTcp gets the adversary alone. At capture time its sender rewound
/// `snd_nxt` on RTO but, unlike GBN and MP-RDMA, did not pull it forward
/// again when a cumulative ACK passed it — and its order-tolerant receiver
/// answers the first resent packet with exactly such an ACK, so any loss
/// ended in `locate(snd_nxt).expect("psn locates")` on a retired PSN
/// (Fig. 8, its only user, runs a clean link). The shared ACK path fixed
/// that (`swtcp::tests::cumulative_ack_past_a_rewound_snd_nxt_is_followed`);
/// the scenario stays as captured so the constant does too.
fn perturb(sim: &mut Simulator, topo: &Topology, p: Proto) {
    if !matches!(p, Proto::SwTcp) {
        let plan = FaultPlan::new(0xfa17)
            .with_loss_on(&fabric_cables(sim, topo, HOSTS_PER_LEAF), LossModel::fabric_bursty())
            .sorted();
        FaultEngine::install(sim, plan);
    }
    Adversary::install(sim, AdversaryProfile::reorder(), 0xad5e);
}

/// What one run concludes, in two halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    /// FNV of every completion, the merged endpoint counters and the fabric
    /// counters: what the protocol did.
    behaviour: u64,
    /// Events the engine dispatched, no-op timer entries included.
    events: u64,
    /// The final clock: the last event of any kind, often a timer.
    end: Nanos,
}

const fn g(behaviour: u64, events: u64, end: Nanos) -> Golden {
    Golden { behaviour, events, end }
}

impl std::fmt::Display for Golden {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        write!(f, "g({:#018x}, {}, {})", self.behaviour, self.events, self.end)
    }
}

/// Runs one protocol's scenario and returns its outcome and `retx_pkts`.
fn run(p: Proto, faulty: bool) -> (Golden, u64) {
    let (cfg, cc) = fabric(p);
    let mut sim = Simulator::new(0x601d);
    // One digest per scenario, whatever DCP_SHARDS says: shard count
    // legitimately reorders same-instant events.
    sim.disable_auto_partition();
    let topo = topology::clos(&mut sim, cfg, 2, 4, HOSTS_PER_LEAF, 100.0, 100.0, US, US);
    if faulty {
        perturb(&mut sim, &topo, p);
    }
    let n = topo.hosts.len();
    for i in 0..FLOWS {
        let flow = FlowId(i as u32 + 1);
        // Both hosts of a leaf send to the first host of the next leaf:
        // every flow crosses the fabric and every last hop is a 2:1 incast.
        let (src, dst) = (topo.hosts[i], topo.hosts[(i / 2 * 2 + 2) % n]);
        let (tx, rx) = pair(p, cc, flow, src, dst);
        sim.install_endpoint(src, flow, tx);
        sim.install_endpoint(dst, flow, rx);
        for (m, &len) in MSGS.iter().enumerate() {
            let op = WorkReqOp::Write { remote_addr: 0x10_0000 + ((m as u64) << 20), rkey: 1 };
            sim.post(src, flow, m as u64, op, len);
        }
    }
    let mut h = FNV_OFFSET;
    let mut delivered = 0;
    while sim.now() < SEC && sim.advance().is_some() {
        sim.for_each_completion(|c| {
            let recv = matches!(c.kind, CompletionKind::RecvComplete);
            delivered += recv as usize;
            h = fnv_u64(h, c.host.0 as u64);
            h = fnv_u64(h, c.flow.0 as u64);
            h = fnv_u64(h, c.wr_id);
            h = fnv_u64(h, recv as u64);
            h = fnv_u64(h, c.bytes);
            h = fnv_u64(h, c.imm as u64);
            h = fnv_u64(h, c.at);
        });
    }
    assert_eq!(delivered, FLOWS * MSGS.len(), "{p:?}: every message must be delivered");
    assert_eq!(sim.pending_events(), 0, "{p:?}: fabric must drain");
    let eps = sim.all_endpoint_stats();
    h = fnv_bytes(h, format!("{eps:?}").as_bytes());
    h = fnv_bytes(h, format!("{:?}", sim.net_stats()).as_bytes());
    (g(h, sim.events_processed(), sim.now()), eps.retx_pkts)
}

/// `(protocol, clean run, faulty run)`.
const GOLDENS: [(Proto, Golden, Golden); 8] = [
    (
        Proto::Kind(TransportKind::Gbn),
        g(0x6823837777f9c7aa, 74472, 460865),
        g(0xd7b8e1b281954af8, 226289, 1095454),
    ),
    (
        Proto::Kind(TransportKind::Irn),
        g(0xbd75cf847190f974, 62680, 200000),
        g(0x4e059b463e30e9ec, 69160, 200000),
    ),
    (
        Proto::Kind(TransportKind::MpRdma),
        g(0x5cd746a98d003423, 62600, 200000),
        g(0x9ff9f273f9dc6723, 77685, 715768),
    ),
    (
        Proto::Kind(TransportKind::RackTlp),
        g(0xaeade724e4cfb7b5, 62661, 400000),
        g(0xa026daa710e28832, 63036, 400000),
    ),
    (
        Proto::Kind(TransportKind::TimeoutOnly),
        g(0xaeade724e4cfb7b5, 62600, 200000),
        g(0xc883f42191f0734c, 76663, 710224),
    ),
    (
        Proto::Kind(TransportKind::Dcp),
        g(0x1f9334d19dd55a0a, 52069, 10000000),
        g(0x06af1170b94a33d5, 78332, 30077043),
    ),
    (
        Proto::Kind(TransportKind::Ec),
        g(0x6bf0ffcfabd4e076, 95816, 511605),
        g(0xdcf414ce8836190b, 112965, 508351),
    ),
    (Proto::SwTcp, g(0xcfba141c981cb1ad, 70416, 1000000), g(0x22574c57894c1975, 70740, 1000000)),
];

#[test]
fn every_transport_reproduces_its_goldens() {
    let mut mismatches = Vec::new();
    for (p, clean, faulty) in GOLDENS {
        let (got_clean, clean_retx) = run(p, false);
        let (got_faulty, faulty_retx) = run(p, true);
        // The second run must reach the repair path (on a trimming fabric
        // the loss model's hits surface as trims, not `fault_drops`, so
        // retransmissions are the signal every transport shares).
        assert_ne!(got_clean, got_faulty, "{p:?}: the fault plane must change the trace");
        if !matches!(p, Proto::SwTcp) {
            assert!(faulty_retx > clean_retx, "{p:?}: faults must engage the repair path");
        }
        if (got_clean, got_faulty) != (clean, faulty) {
            let half = |got: Golden, want: Golden| {
                if got == want {
                    "same"
                } else if got.behaviour == want.behaviour {
                    "engine moved"
                } else {
                    "BEHAVIOUR moved"
                }
            };
            let what =
                format!("clean {}, faulty {}", half(got_clean, clean), half(got_faulty, faulty));
            mismatches.push(format!("    ({p:?}, {got_clean}, {got_faulty}), // {what}"));
        }
    }
    assert!(mismatches.is_empty(), "trace moved; observed goldens:\n{}", mismatches.join("\n"));
}
