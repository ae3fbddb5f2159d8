//! Fig. 8: basic validation — perftest-style throughput and latency on two
//! back-to-back hosts: DCP-RNIC vs RNIC-GBN vs TCP (software-stack model).
//!
//! This is the same measurement as `examples/quickstart.rs`, packaged as
//! the figure's harness binary.

use dcp_netsim::packet::FlowId;
use dcp_netsim::time::{Nanos, SEC, US};
use dcp_netsim::{topology, CompletionKind, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

fn measure(kind: TransportKind) -> (f64, f64) {
    // Throughput: 64 × 512 KB messages.
    let tput = {
        let mut sim = Simulator::new(1);
        let topo = topology::back_to_back(&mut sim, 100.0, 500);
        let flow = FlowId(1);
        let (tx, rx) = endpoint_pair(kind, CcKind::None, flow, topo.hosts[0], topo.hosts[1]);
        sim.install_endpoint(topo.hosts[0], flow, tx);
        sim.install_endpoint(topo.hosts[1], flow, rx);
        let (msg, count) = (512 * 1024u64, 64u64);
        for i in 0..count {
            sim.post(
                topo.hosts[0],
                flow,
                i,
                WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
                msg,
            );
        }
        let (mut done, mut last) = (0, 0);
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
        assert_eq!(done, count);
        (msg * count) as f64 * 8.0 / last as f64
    };
    // Latency: one 64 B message.
    let lat = {
        let mut sim = Simulator::new(2);
        let topo = topology::back_to_back(&mut sim, 100.0, 500);
        let flow = FlowId(1);
        let (tx, rx) = endpoint_pair(kind, CcKind::None, flow, topo.hosts[0], topo.hosts[1]);
        sim.install_endpoint(topo.hosts[0], flow, tx);
        sim.install_endpoint(topo.hosts[1], flow, rx);
        sim.post(topo.hosts[0], flow, 0, WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 }, 64);
        let mut at: Nanos = 0;
        while at == 0 && sim.advance().is_some() {
            sim.for_each_completion(|c| {
                if c.kind == CompletionKind::RecvComplete {
                    at = c.at;
                }
            });
        }
        at as f64 / US as f64
    };
    (tput, lat)
}

fn main() {
    println!("Fig. 8 — perftest validation (back-to-back 100G)");
    println!("{:<12}{:>18}{:>14}", "scheme", "throughput (Gbps)", "latency (us)");
    for (label, kind) in [
        ("DCP-RNIC", TransportKind::Dcp),
        ("RNIC-GBN", TransportKind::Gbn),
        ("TCP", TransportKind::TimeoutOnly), // placeholder replaced below
    ] {
        if label == "TCP" {
            // The TCP row uses the software-stack model directly.
            let (t, l) = measure_tcp();
            println!("{label:<12}{t:>18.1}{l:>14.2}");
        } else {
            let (t, l) = measure(kind);
            println!("{label:<12}{t:>18.1}{l:>14.2}");
        }
    }
    println!();
    println!("Paper shape: DCP ≈ GBN at line rate and microsecond latency; TCP roughly");
    println!("half the throughput and an order of magnitude higher latency.");
}

fn measure_tcp() -> (f64, f64) {
    use dcp_rdma::headers::DcpTag;
    use dcp_transport::cc::NoCc;
    use dcp_transport::common::{FlowCfg, Placement};
    use dcp_transport::swtcp::{swtcp_pair, SwTcpConfig};
    let run = |msgs: u64, msg: u64, seed: u64| -> (u64, Nanos) {
        let mut sim = Simulator::new(seed);
        let topo = topology::back_to_back(&mut sim, 100.0, 500);
        let flow = FlowId(1);
        let cfg = FlowCfg::sender(flow, topo.hosts[0], topo.hosts[1], DcpTag::NonDcp);
        let (tx, rx) =
            swtcp_pair(cfg, SwTcpConfig::default(), Box::new(NoCc::default()), Placement::Virtual);
        sim.install_endpoint(topo.hosts[0], flow, Box::new(tx));
        sim.install_endpoint(topo.hosts[1], flow, Box::new(rx));
        for i in 0..msgs {
            sim.post(
                topo.hosts[0],
                flow,
                i,
                WorkReqOp::Write { remote_addr: 0x10_0000, rkey: 1 },
                msg,
            );
        }
        let (mut done, mut last) = (0, 0);
        while done < msgs && sim.now() < SEC {
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
        assert_eq!(done, msgs);
        (msgs * msg, last)
    };
    let (bytes, t) = run(64, 512 * 1024, 3);
    let (_, l) = run(1, 64, 4);
    (bytes as f64 * 8.0 / t as f64, l as f64 / US as f64)
}
