//! `dcp_trace` — converts a captured `--trace-out` JSONL file into the
//! formats humans and tools actually consume.
//!
//! ```text
//! USAGE: dcp dcp_trace <trace.jsonl> [OPTIONS]
//!
//!   --perfetto PATH   write Chrome-trace/Perfetto JSON (open in
//!                     ui.perfetto.dev or chrome://tracing)
//!   --spans PATH      write the dcp-trace/v1 span + monitor document
//!                     (schemas/trace.schema.json)
//!   --flow N          keep only events of flow N (node metadata and PFC
//!                     events are always kept)
//!   --stats           print the span statistics: per-hop latency
//!                     breakdown, time-in-queue vs time-in-recovery
//! ```
//!
//! With no output flags, `--stats` is implied — pointing the tool at a
//! trace always tells you something. A trace it cannot read or a file it
//! cannot write exits 2 naming the path on stderr, with nothing on stdout:
//! the report is printed only once every file is written.

use crate::{Args, Report};
use dcp_scope::{chrome_trace, ScopeProbe};
use dcp_telemetry::{Json, Probe, ProbeEvent};
use std::fmt::Write as _;
use std::io::{BufWriter, Write};

fn usage() -> ! {
    eprintln!(
        "usage: dcp dcp_trace <trace.jsonl> [--perfetto PATH] [--spans PATH] [--flow N] [--stats]"
    );
    std::process::exit(2);
}

/// Exits 2 naming `path` and the I/O error, before the row prints anything.
fn refuse(path: &str, e: std::io::Error) -> ! {
    eprintln!("error: dcp_trace {path}: {e}");
    std::process::exit(2)
}

pub fn run(args: &Args) -> Report {
    let [input] = args.positional() else { usage() };
    let perfetto_out = args.get("perfetto");
    let spans_out = args.get("spans");
    let flow_filter: Option<u32> = args.get("flow").map(|v| v.parse().unwrap_or_else(|_| usage()));
    let stats = args.has("stats") || (perfetto_out.is_none() && spans_out.is_none());

    let text = std::fs::read_to_string(input).unwrap_or_else(|e| refuse(input, e));
    let lines: Vec<Option<(u64, ProbeEvent)>> = ProbeEvent::read_jsonl(&text).collect();
    let events: Vec<(u64, ProbeEvent)> = lines.iter().flatten().copied().collect();
    let skipped = lines.len() - events.len();
    // The report, printed once every output file is written.
    let mut out = String::new();
    writeln!(out, "{input}: {} events ({skipped} unrecognized lines)", events.len()).unwrap();

    if let Some(path) = &perfetto_out {
        let doc = chrome_trace(&events, flow_filter);
        std::fs::write(path, doc.render()).unwrap_or_else(|e| refuse(path, e));
        let n = doc.get("traceEvents").and_then(Json::as_arr).map_or(0, |a| a.len());
        writeln!(out, "result perfetto={path} trace_events={n}").unwrap();
    }
    if spans_out.is_none() && !stats {
        print!("{out}");
        return Report::default();
    }
    // One replay serves both the span document and the statistics. The
    // flow filter keeps flow-less events (PFC, faults) so the monitors
    // still see fabric-level signals; the Perfetto exporter applies the
    // same rule internally.
    let mut scope = ScopeProbe::new();
    for (at, ev) in &events {
        if ev.flow().is_none_or(|flow| flow_filter.is_none_or(|f| f == flow)) {
            scope.record(*at, ev);
        }
    }
    if let Some(path) = &spans_out {
        let file = std::fs::File::create(path).map(BufWriter::new);
        file.and_then(|file| scope.write_doc(file)?.flush()).unwrap_or_else(|e| refuse(path, e));
        writeln!(out, "result spans={path}").unwrap();
    }
    print!("{out}");
    if stats {
        let s = scope.spans.stats_json();
        if let Some(d) = scope.spans.dump() {
            println!("{d}");
        }
        for (label, key) in [
            ("time-in-queue", "queue_wait"),
            ("time-in-recovery", "recovery"),
            ("message latency", "message_latency"),
        ] {
            let h = s.get(key).unwrap();
            match h.get("count").and_then(Json::as_u64) {
                Some(0) | None => println!("stats {label}: (no samples)"),
                Some(n) => println!(
                    "stats {label}: n={n} p50={} ns p99={} ns max={} ns",
                    h.get("p50").and_then(Json::as_u64).unwrap_or(0),
                    h.get("p99").and_then(Json::as_u64).unwrap_or(0),
                    h.get("max").and_then(Json::as_u64).unwrap_or(0),
                ),
            }
        }
        if let Some(hops) = s.get("per_hop").and_then(Json::as_arr) {
            for h in hops {
                println!(
                    "stats hop node={} visits={} mean_queue_wait={} ns",
                    h.get("node").and_then(Json::as_u64).unwrap_or(0),
                    h.get("visits").and_then(Json::as_u64).unwrap_or(0),
                    h.get("mean_queue_wait").and_then(Json::as_u64).unwrap_or(0),
                );
            }
        }
    }
    Report::default()
}
