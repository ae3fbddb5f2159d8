//! Cross-scheme shape regressions on the Fig. 10/17 rows' own reports: the
//! relative orderings the paper's evaluation establishes must hold in the
//! reproduction. The rows run through the library exactly as `dcp <row>`
//! runs them; the 5 % DCP-vs-GBN check is the Fig. 10 row's predicate.

use dcp_bench::rows::ROWS;
use dcp_bench::{fabric_cables, Args, Report};
use dcp_faults::{FaultEngine, FaultPlan, LossModel};
use dcp_netsim::packet::FlowId;
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::time::{SEC, US};
use dcp_netsim::{topology, LoadBalance, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

fn report(name: &str) -> Report {
    let row = ROWS.iter().find(|r| r.name == name).expect("row in table");
    (row.run)(&Args::default())
}

#[test]
fn fig17_ordering_dcp_rack_irn_timeout() {
    // Fig. 17 at 2% loss: DCP > RACK-TLP > IRN > timeout-only.
    let r = report("fig17_loss_schemes");
    let [dcp, rack, irn, timeout] = ["DCP", "RACK-TLP", "IRN", "Timeout"].map(|s| r.get(s, "0.02"));
    assert!(dcp > rack, "DCP {dcp:.1} vs RACK {rack:.1}");
    assert!(rack > irn, "RACK {rack:.1} vs IRN {irn:.1}");
    assert!(irn > timeout, "IRN {irn:.1} vs timeout {timeout:.1}");
}

#[test]
fn clean_fabric_all_schemes_near_line_rate() {
    let (fig10, fig17) = (report("fig10_loss_recovery"), report("fig17_loss_schemes"));
    let clean = [
        ("GBN", fig10.get("CX5(GBN)", "0")),
        ("DCP", fig10.get("DCP", "0")),
        ("DCP", fig17.get("DCP", "0")),
        ("RACK-TLP", fig17.get("RACK-TLP", "0")),
        ("IRN", fig17.get("IRN", "0")),
        ("Timeout", fig17.get("Timeout", "0")),
    ];
    for (scheme, g) in clean {
        assert!(g > 80.0, "{scheme} clean goodput {g:.1}");
    }
}

/// IRN and RACK-TLP reset their retransmission timers on every ACK (RACK's
/// tail-loss probe too). Under loss, with 8 QPs each holding a BDP window
/// in flight, the engine's pending set must stay within a few timer entries
/// per endpoint plus the packets that can be in flight: each re-arm moves a
/// deadline rather than queueing another wheel entry. With one wheel entry
/// per arm the peaks were 7 023 (IRN) and 12 484 (RACK-TLP) against a
/// bound of 2 480: every ACK of the last RTO left one behind. With one
/// entry per armed timer they are 528 and 582.
#[test]
fn lossy_baselines_queue_a_few_timer_entries_per_qp() {
    const HOSTS_PER_LEAF: usize = 2;
    const FLOWS: usize = 8;
    /// RTO, TLP, pacing wake-up and CC tick, plus slack for a TLP entry a
    /// shrinking SRTT superseded.
    const TIMERS_PER_ENDPOINT: usize = 6;
    /// The BDP window in 1 KB packets: 100 Gb/s × 12 µs.
    const WINDOW_PKTS: usize = 150_000usize.div_ceil(1024);
    for kind in [TransportKind::Irn, TransportKind::RackTlp] {
        let mut sim = Simulator::new(0x1055);
        sim.disable_auto_partition();
        let cfg = SwitchConfig::lossy(LoadBalance::Ecmp);
        let topo = topology::clos(&mut sim, cfg, 2, 4, HOSTS_PER_LEAF, 100.0, 100.0, US, US);
        let plan = FaultPlan::new(0xfa17)
            .with_loss_on(&fabric_cables(&sim, &topo, HOSTS_PER_LEAF), LossModel::fabric_bursty())
            .sorted();
        FaultEngine::install(&mut sim, plan);
        let cc = CcKind::Bdp { gbps: 100.0, rtt: 12 * US };
        let n = topo.hosts.len();
        for i in 0..FLOWS {
            let flow = FlowId(i as u32 + 1);
            let (src, dst) = (topo.hosts[i], topo.hosts[(i + HOSTS_PER_LEAF) % n]);
            let (tx, rx) = endpoint_pair(kind, cc, flow, src, dst);
            sim.install_endpoint(src, flow, tx);
            sim.install_endpoint(dst, flow, rx);
            sim.post(src, flow, 0, WorkReqOp::Write { remote_addr: 0, rkey: 1 }, 4 << 20);
        }
        assert!(sim.run_to_quiescence(SEC), "{kind:?}: every flow completes");
        assert!(sim.all_endpoint_stats().retx_pkts > 0, "{kind:?}: the loss engages recovery");
        let ports: usize = topo
            .leaves
            .iter()
            .chain(&topo.spines)
            .map(|&s| sim.switch(s).ports.len())
            .sum::<usize>()
            + n;
        // Data and its ACK per window packet, one port-free per port.
        let bound = FLOWS * (2 * TIMERS_PER_ENDPOINT + 2 * WINDOW_PKTS) + ports;
        let peak = sim.peak_pending_events();
        assert!(peak <= bound, "{kind:?}: {peak} pending events at peak, bound {bound}");
    }
}
