//! Fig. 8: basic validation — perftest-style throughput and latency on two
//! back-to-back hosts: DCP-RNIC vs RNIC-GBN vs TCP (software-stack model).
//!
//! This is the same measurement as `examples/quickstart.rs`, packaged as
//! the figure's row.

use super::prelude::*;
use crate::EndpointPair;
use dcp_netsim::{FlowId, NodeId};
use dcp_rdma::headers::DcpTag;
use dcp_transport::cc::NoCc;
use dcp_transport::common::{FlowCfg, Placement};
use dcp_transport::swtcp::swtcp_pair;

/// Throughput of 64 × 512 KB messages (simulator seed `seeds[0]`) and the
/// latency of one 64 B message (`seeds[1]`) over `pair`'s endpoints.
fn measure(seeds: [u64; 2], pair: impl Fn(FlowId, NodeId, NodeId) -> EndpointPair) -> (f64, f64) {
    let run = |seed, sizes: &[u64]| {
        let mut sim = Simulator::new(seed);
        let topo = topology::back_to_back(&mut sim, 100.0, 500);
        let hosts = [(topo.hosts[0], topo.hosts[1])];
        stream(&mut sim, &hosts, &pair, sizes, SEC)[0].expect("perftest stream completes") as f64
    };
    let bytes = 64 * 512 * 1024u64;
    (bytes as f64 * 8.0 / run(seeds[0], &[512 * 1024; 64]), run(seeds[1], &[64]) / US as f64)
}

pub fn run(_: &Args) -> Report {
    let mut r = Report::default();
    println!("Fig. 8 — perftest validation (back-to-back 100G)");
    println!("{:<12}{:>18}{:>14}", "scheme", "throughput (Gbps)", "latency (us)");
    let rnic = |kind| move |f, s, d| endpoint_pair(kind, CcKind::None, f, s, d);
    // The TCP row uses the software-stack model directly.
    let tcp = |flow, src, dst| -> EndpointPair {
        let cfg = FlowCfg::sender(flow, src, dst, DcpTag::NonDcp);
        let noc = Box::new(NoCc::default());
        let (tx, rx) = swtcp_pair(cfg, noc, Placement::Virtual);
        (Box::new(tx), Box::new(rx))
    };
    for (label, (t, l)) in [
        ("DCP-RNIC", measure([1, 2], rnic(TransportKind::Dcp))),
        ("RNIC-GBN", measure([1, 2], rnic(TransportKind::Gbn))),
        ("TCP", measure([3, 4], tcp)),
    ] {
        println!("{label:<12}{t:>18.1}{l:>14.2}");
        r.put(label, [("Gbps", t), ("us", l)]);
    }
    println!();
    println!("Paper shape: DCP ≈ GBN at line rate and microsecond latency; TCP roughly");
    println!("half the throughput and an order of magnitude higher latency.");
    r
}

/// DCP and GBN within 1 % of each other above 90 Gbps and under 1 µs; TCP
/// below 2/3 of DCP's throughput at over 10× its latency.
pub fn shape(r: &Report) -> Result<(), String> {
    let (dcp, gbn, tcp) =
        (r.get("DCP-RNIC", "Gbps"), r.get("RNIC-GBN", "Gbps"), r.get("TCP", "Gbps"));
    let (dcp_us, tcp_us) = (r.get("DCP-RNIC", "us"), r.get("TCP", "us"));
    ensure!(dcp > 90.0 && (gbn / dcp - 1.0).abs() < 0.01, "DCP {dcp:.1}, GBN {gbn:.1} Gbps");
    ensure!(dcp_us < 1.0 && r.get("RNIC-GBN", "us") < 1.0, "DCP {dcp_us:.2} us");
    ensure!(tcp < dcp * 2.0 / 3.0 && tcp_us > 10.0 * dcp_us, "TCP {tcp:.1} Gbps, {tcp_us:.2} us");
    Ok(())
}
