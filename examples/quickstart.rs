//! Quickstart: the `perftest`-style benchmark of Fig. 8 on two
//! directly-cabled 100 G hosts.
//!
//! Measures DCP's streaming throughput (a long run of 512 KB messages) and
//! small-message latency (a 64 B message), then does the same for the GBN
//! baseline and the software-TCP model.
//!
//! Run with: `cargo run --release -p dcp-bench --example quickstart`

use dcp_core::{dcp_pair, DcpConfig};
use dcp_netsim::packet::FlowId;
use dcp_netsim::time::{Nanos, SEC, US};
use dcp_netsim::{topology, CompletionKind, Endpoint, Simulator};
use dcp_rdma::headers::DcpTag;
use dcp_rdma::qp::WorkReqOp;
use dcp_transport::cc::NoCc;
use dcp_transport::common::{FlowCfg, Placement};
use dcp_transport::gbn::gbn_pair;
use dcp_transport::swtcp::swtcp_pair;

/// Streams `count` messages of `msg` bytes; returns goodput in Gbps.
fn throughput(
    make: impl Fn(FlowCfg) -> (Box<dyn Endpoint>, Box<dyn Endpoint>),
    tag: DcpTag,
) -> f64 {
    let mut sim = Simulator::new(1);
    let topo = topology::back_to_back(&mut sim, 100.0, 500);
    let (a, b) = (topo.hosts[0], topo.hosts[1]);
    let flow = FlowId(1);
    let (tx, rx) = make(FlowCfg::sender(flow, a, b, tag));
    sim.install_endpoint(a, flow, tx);
    sim.install_endpoint(b, flow, rx);
    let (msg, count) = (512 * 1024u64, 64u64);
    for i in 0..count {
        sim.post(a, flow, i, WorkReqOp::Write { remote_addr: 0x10_0000 + i * msg, rkey: 1 }, msg);
    }
    let mut last = 0;
    let mut done = 0;
    while done < count && sim.now() < SEC {
        if sim.advance().is_none() {
            break;
        }
        sim.for_each_completion(|c| {
            if c.kind == CompletionKind::RecvComplete {
                done += 1;
                last = c.at;
            }
        });
    }
    assert_eq!(done, count, "stream did not finish");
    (msg * count) as f64 * 8.0 / last as f64
}

/// One 64 B message; returns delivery latency in µs.
fn latency(make: impl Fn(FlowCfg) -> (Box<dyn Endpoint>, Box<dyn Endpoint>), tag: DcpTag) -> f64 {
    let mut sim = Simulator::new(2);
    let topo = topology::back_to_back(&mut sim, 100.0, 500);
    let (a, b) = (topo.hosts[0], topo.hosts[1]);
    let flow = FlowId(1);
    let (tx, rx) = make(FlowCfg::sender(flow, a, b, tag));
    sim.install_endpoint(a, flow, tx);
    sim.install_endpoint(b, flow, rx);
    sim.post(a, flow, 0, WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 }, 64);
    let mut at: Nanos = 0;
    while at == 0 && sim.now() < SEC {
        if sim.advance().is_none() {
            break;
        }
        sim.for_each_completion(|c| {
            if c.kind == CompletionKind::RecvComplete {
                at = c.at;
            }
        });
    }
    assert!(at > 0, "message never arrived");
    at as f64 / US as f64
}

fn main() {
    println!("Fig. 8 — perftest on back-to-back 100G hosts");
    println!("{:<10} {:>18} {:>14}", "scheme", "throughput (Gbps)", "latency (us)");
    let dcp = |cfg: FlowCfg| {
        let (t, r) =
            dcp_pair(cfg, DcpConfig::default(), Box::new(NoCc::default()), Placement::Virtual);
        (Box::new(t) as Box<dyn Endpoint>, Box::new(r) as Box<dyn Endpoint>)
    };
    let gbn = |cfg: FlowCfg| {
        let (t, r) = gbn_pair(cfg, 200 * US, Box::new(NoCc::default()), Placement::Virtual);
        (Box::new(t) as Box<dyn Endpoint>, Box::new(r) as Box<dyn Endpoint>)
    };
    let tcp = |cfg: FlowCfg| {
        let (t, r) = swtcp_pair(cfg, Box::new(NoCc::default()), Placement::Virtual);
        (Box::new(t) as Box<dyn Endpoint>, Box::new(r) as Box<dyn Endpoint>)
    };
    println!(
        "{:<10} {:>18.1} {:>14.2}",
        "DCP-RNIC",
        throughput(dcp, DcpTag::Data),
        latency(dcp, DcpTag::Data)
    );
    println!(
        "{:<10} {:>18.1} {:>14.2}",
        "RNIC-GBN",
        throughput(gbn, DcpTag::NonDcp),
        latency(gbn, DcpTag::NonDcp)
    );
    println!(
        "{:<10} {:>18.1} {:>14.2}",
        "TCP",
        throughput(tcp, DcpTag::NonDcp),
        latency(tcp, DcpTag::NonDcp)
    );
    println!();
    println!("Expected shape (paper): DCP ≈ GBN at line rate, both far above TCP;");
    println!("TCP latency an order of magnitude higher.");
}
