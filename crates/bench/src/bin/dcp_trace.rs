//! `dcp_trace` — converts a captured `--trace-out` JSONL file into the
//! formats humans and tools actually consume.
//!
//! ```text
//! USAGE: dcp_trace <trace.jsonl> [OPTIONS]
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
//! trace always tells you something.

use dcp_bench::spans_doc;
use dcp_scope::{chrome_trace, SpanBuilder};
use dcp_telemetry::{Json, ProbeEvent};

fn usage() -> ! {
    eprintln!(
        "usage: dcp_trace <trace.jsonl> [--perfetto PATH] [--spans PATH] [--flow N] [--stats]"
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut perfetto_out: Option<String> = None;
    let mut spans_out: Option<String> = None;
    let mut flow_filter: Option<u32> = None;
    let mut stats = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--perfetto" => perfetto_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--spans" => spans_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--flow" => {
                flow_filter =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--stats" => stats = true,
            _ if a.starts_with("--") => usage(),
            _ if input.is_none() => input = Some(a.clone()),
            _ => usage(),
        }
    }
    let Some(input) = input else { usage() };
    if perfetto_out.is_none() && spans_out.is_none() {
        stats = true;
    }

    let text = std::fs::read_to_string(&input).unwrap_or_else(|e| panic!("read {input}: {e}"));
    let mut events: Vec<(u64, ProbeEvent)> = Vec::new();
    let mut skipped = 0usize;
    for item in ProbeEvent::read_jsonl(&text) {
        match item {
            Some(pair) => events.push(pair),
            None => skipped += 1,
        }
    }
    println!("{input}: {} events ({skipped} unrecognized lines)", events.len());

    // The flow filter for spans/stats keeps flow-less events (PFC, faults)
    // so the monitors still see fabric-level signals; the Perfetto
    // exporter applies the same rule internally.
    let keep = |flow: u32| flow_filter.is_none_or(|f| f == flow);
    let filtered = || events.iter().copied().filter(|(_, ev)| ev.flow().is_none_or(keep));

    if let Some(path) = &perfetto_out {
        let doc = chrome_trace(&events, flow_filter);
        std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        let n = doc.get("traceEvents").and_then(Json::as_arr).map_or(0, |a| a.len());
        println!("result perfetto={path} trace_events={n}");
    }
    if let Some(path) = &spans_out {
        let doc = spans_doc(filtered());
        std::fs::write(path, doc.render_pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("result spans={path}");
    }
    if stats {
        let mut b = SpanBuilder::new();
        for (at, ev) in filtered() {
            dcp_telemetry::Probe::record(&mut b, at, &ev);
        }
        // `stats_json` folds the capture buffer, so the dump line below
        // reports real span counts rather than a pending buffer.
        let s = b.stats_json();
        if let Some(d) = dcp_telemetry::Probe::dump(&b) {
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
}
