//! `dcp_sim` — a configurable command-line front-end for the simulator, so
//! downstream users can run custom experiments without writing Rust.
//!
//! ```text
//! USAGE: dcp dcp_sim [KEY=VALUE]...
//!
//!   transport=dcp|gbn|irn|mprdma|rack|timeout|ec (default dcp)
//!   cc=none|bdp|dcqcn                           (default per transport)
//!   lb=ecmp|ar|spray|flowlet                    (default ar)
//!   topo=clos|testbed                           (default clos)
//!   spines=N leaves=N hosts=N                   (default 4 4 4)
//!   load=F                                      (default 0.3)
//!   flows=N                                     (default 400)
//!   loss=F          forced loss rate            (default 0)
//!   incast=N        add N-to-1 incast at 10% load
//!   seed=N                                      (default 1)
//!   runs=N          sweep seeds seed..seed+N    (default 1)
//!   delay_us=N      leaf-spine delay            (default 1)
//!   csv=PATH        write per-flow results as CSV (.seedN suffix when runs>1)
//!   --metrics-out PATH   structured JSON metrics (schemas/metrics.schema.json)
//!   --trace-out PATH     JSONL event trace (.seedN suffix when runs>1)
//!   --spans-out PATH     dcp-scope span + monitor document
//!                        (schemas/trace.schema.json, .seedN suffix when runs>1)
//! ```
//!
//! Any other key, and a value a key cannot take (an incast with no host
//! left to receive it included), exits 2 naming it before anything runs.
//! Prints overall FCT slowdown percentiles, transport counters and fabric
//! counters, in a stable greppable format. With `runs=N` the seeds are
//! simulated in parallel (see `DCP_THREADS`) and reported in seed order.

use crate::cli::Flag::{self, Value};
use crate::metrics::{METRICS_OUT, SPANS_OUT, TRACE_OUT};
use crate::{bdp_cc, default_cc, sweep, Args, ExportOpts, MetricsDoc, Report};
use dcp_core::dcp_switch_config;
use dcp_netsim::{topology, LoadBalance, Nanos, SEC, Simulator, SwitchConfig, US};
use dcp_workloads::*;
use rand::{rngs::StdRng, SeedableRng};

#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    METRICS_OUT, TRACE_OUT, SPANS_OUT, Value("transport"), Value("cc"), Value("lb"), Value("topo"),
    Value("spines"), Value("leaves"), Value("hosts"), Value("load"), Value("flows"), Value("loss"),
    Value("incast"), Value("seed"), Value("runs"), Value("delay_us"), Value("csv"),
];

/// Exits 2 naming `key=value` and what was wanted, before the row prints
/// anything.
fn refuse(key: &str, value: &str, want: &str) -> ! {
    eprintln!("error: dcp_sim {key}={value}: want {want}");
    std::process::exit(2)
}

/// The value of `key` (`default` when not given) as `read` reads it; a value
/// it cannot read is refused.
fn value<T>(
    args: &Args,
    key: &str,
    default: &str,
    want: &str,
    read: impl Fn(&str) -> Option<T>,
) -> T {
    let v = args.get(key).unwrap_or(default);
    read(v).unwrap_or_else(|| refuse(key, v, want))
}

pub fn run(args: &Args) -> Report {
    let number = |key, default| value(args, key, default, "a number", |v| v.parse::<f64>().ok());
    let count =
        |key, default| value(args, key, default, "a whole number", |v| v.parse::<usize>().ok());
    let transport = value(args, "transport", "dcp", "dcp|gbn|irn|mprdma|rack|timeout|ec", |v| {
        Some(match v {
            "dcp" => TransportKind::Dcp,
            "gbn" => TransportKind::Gbn,
            "irn" => TransportKind::Irn,
            "mprdma" => TransportKind::MpRdma,
            "rack" => TransportKind::RackTlp,
            "timeout" => TransportKind::TimeoutOnly,
            "ec" => TransportKind::Ec,
            _ => return None,
        })
    });
    let lb = value(args, "lb", "ar", "ecmp|ar|spray|flowlet", |v| {
        Some(match v {
            "ecmp" => LoadBalance::Ecmp,
            "ar" => LoadBalance::AdaptiveRouting,
            "spray" => LoadBalance::Spray,
            "flowlet" => LoadBalance::Flowlet { gap_ns: 50_000 },
            _ => return None,
        })
    });
    let cc = value(args, "cc", "", "none|bdp|dcqcn", |v| {
        Some(match v {
            "none" => CcKind::None,
            "bdp" => bdp_cc(),
            "dcqcn" => CcKind::Dcqcn { gbps: 100.0 },
            "" => default_cc(transport),
            _ => return None,
        })
    });
    let testbed = value(args, "topo", "clos", "clos|testbed", |v| match v {
        "clos" => Some(false),
        "testbed" => Some(true),
        _ => None,
    });
    let seed: u64 = value(args, "seed", "1", "a whole number", |v| v.parse().ok());
    let (runs, n_flows) = (count("runs", "1"), count("flows", "400"));
    // Seeds run seed..seed+runs; the last one must not wrap past 2^64 - 1.
    if seed.checked_add(runs.max(1) as u64 - 1).is_none() {
        refuse("seed", &format!("{seed} runs={runs}"), &format!("seed+runs-1 at most {}", u64::MAX));
    }
    let (load, loss) = (number("load", "0.3"), number("loss", "0"));
    let delay: Nanos =
        value(args, "delay_us", "1", "a whole number", |v| v.parse::<u64>().ok()?.checked_mul(US));
    let size = |key| {
        let positive = |v: &str| v.parse::<usize>().ok().filter(|&n| n > 0);
        value(args, key, "4", "a whole number above 0", positive)
    };
    let (spines, leaves, hosts) = (size("spines"), size("leaves"), size("hosts"));
    // The testbed puts 8 hosts on each of its two switches.
    let n_hosts = if testbed { 16 } else { leaves.saturating_mul(hosts) };
    if n_hosts < 2 {
        refuse("hosts", &hosts.to_string(), "a fabric of at least 2 hosts");
    }
    let incast = args.has("incast").then(|| count("incast", "")).inspect(|&fan| {
        if fan >= n_hosts {
            let want =
                format!("fewer than {n_hosts} senders ({fan} senders need {} hosts)", fan + 1);
            refuse("incast", &fan.to_string(), &want);
        }
    });

    let mut cfg = match transport {
        TransportKind::Dcp => dcp_switch_config(lb, 20),
        TransportKind::MpRdma => {
            let mut c = SwitchConfig::lossless(lb);
            c.ecn = Some(dcp_netsim::EcnConfig::default_100g());
            c
        }
        _ => SwitchConfig::lossy(lb),
    };
    cfg.forced_loss_rate = loss;
    if cc == (CcKind::Dcqcn { gbps: 100.0 }) && cfg.ecn.is_none() {
        cfg.ecn = Some(dcp_netsim::EcnConfig::default_100g());
    }

    let csv = args.get("csv");
    let export = ExportOpts::from_args(args);

    // One fully independent simulation per seed; `runs=N` fans the seeds
    // out across the sweep executor and reports them in seed order, so
    // metrics and trace files are identical across `DCP_THREADS` settings.
    let ideal = IdealFct { base_delay: 2 * US + 2 * delay, gbps: 100.0, mtu: 1024, header: 74 };
    let run_one = |seed: u64| {
        let mut sim = Simulator::new(seed);
        export.arm_trace(&mut sim, (runs > 1).then(|| format!("seed{seed}")).as_deref());
        let topo = if testbed {
            topology::two_switch_testbed(&mut sim, cfg, 8, 100.0, &[100.0; 8], US, delay)
        } else {
            topology::clos(&mut sim, cfg, spines, leaves, hosts, 100.0, 100.0, US, delay)
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdcb);
        let mut flows =
            poisson_flows(&mut rng, &SizeDist::websearch(), topo.hosts.len(), 100.0, load, n_flows);
        if let Some(fan) = incast {
            let horizon = flows.last().map(|f| f.start).unwrap_or(SEC / 100);
            flows = merge(
                flows,
                incast_flows(&mut rng, topo.hosts.len(), 100.0, 0.1, fan, 64 * 1024, horizon),
            );
        }
        let records = run_flows(&mut sim, &topo, transport, cc, &flows, 600 * SEC);
        let entry = export.entry(&format!("{transport:?}"), seed, &sim, Some((&records, &ideal)));
        let written = export.finish_trace(&mut sim);
        (seed, flows.len(), sim.now(), sim.net_stats(), records, entry, written)
    };

    let seeds: Vec<u64> = (0..runs.max(1) as u64).map(|i| seed + i).collect();
    let results = sweep(seeds, run_one);

    let mut doc = MetricsDoc::new("dcp_sim")
        .config("transport", format!("{transport:?}"))
        .config("lb", format!("{lb:?}"))
        .config("cc", format!("{cc:?}"))
        .config("load", load)
        .config("loss", loss)
        .config("flows", n_flows)
        .config("runs", runs);
    for (seed, n_flows, now, ns, records, entry, written) in results {
        let retx: u64 = records.iter().map(|r| r.tx.retx_pkts).sum();
        let rtos: u64 = records.iter().map(|r| r.tx.timeouts).sum();
        let dups: u64 = records.iter().map(|r| r.rx.duplicates).sum();

        println!("dcp_sim transport={transport:?} lb={lb:?} cc={cc:?} load={load} flows={n_flows} loss={loss} seed={seed}");
        println!("result unfinished={} now_ms={:.2}", unfinished(&records), now as f64 / 1e6);
        let fct = FctSummary::from_records(&records, &ideal);
        println!(
            "result slowdown p50={:.2} p95={:.2} p99={:.2}",
            overall_slowdown(&records, &ideal, 50.0),
            overall_slowdown(&records, &ideal, 95.0),
            overall_slowdown(&records, &ideal, 99.0)
        );
        println!("result slo burn4x={:.4}", fct.slo_burn(4.0));
        println!("result transport retx={retx} rtos={rtos} duplicates={dups}");
        println!(
            "result fabric trims={} data_drops={} ho_drops={} ack_drops={} ecn_marks={} pauses={}",
            ns.trims, ns.data_drops, ns.ho_drops, ns.ack_drops, ns.ecn_marks, ns.pauses_sent
        );
        if let Some(path) = &csv {
            let path = if runs > 1 { format!("{path}.seed{seed}") } else { path.to_string() };
            let csv = dcp_workloads::to_csv(&records);
            std::fs::write(&path, csv).expect("write csv");
            println!("result csv={path}");
        }
        written.print();
        doc.extend(entry);
    }
    export.write_metrics(doc);
    Report::default()
}
