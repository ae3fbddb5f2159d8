//! Chrome-trace / Perfetto JSON export of a captured probe stream.
//!
//! The output is the classic `{"traceEvents": [...]}` document both
//! `chrome://tracing` and ui.perfetto.dev ingest. Mapping:
//!
//! * **pid** = simulator node (one process row per host/switch), named via
//!   `process_name` metadata; **tid** = port for queue events, flow for
//!   NIC events — so each switch shows a lane per port and each host a
//!   lane per flow.
//! * Queue residency (Enqueue→Dequeue) renders as a complete slice
//!   (`ph:"X"`), so buffer standing time is visible as bar length.
//! * Trims, drops, ECN marks, (re)transmissions, timeouts, HO receipts
//!   and deliveries are instants (`ph:"i"`).
//! * Every loss signal (Trim/Drop) starts a flow arrow (`ph:"s"`) that
//!   finishes (`ph:"f"`) at the next retransmission of the same
//!   `(flow, psn)` — the causal retx chain drawn as an arc across tracks.
//!
//! Timestamps: the simulator's nanoseconds ÷ 1000 (Chrome traces are in
//! microseconds, fractions allowed).

use dcp_telemetry::{Json, ProbeEvent};
use std::collections::BTreeSet;

fn us(at: u64) -> f64 {
    at as f64 / 1000.0
}

fn base(name: String, ph: &str, pid: u32, tid: u32, at: u64) -> Json {
    Json::obj()
        .set("name", name)
        .set("ph", ph)
        .set("pid", u64::from(pid))
        .set("tid", u64::from(tid))
        .set("ts", us(at))
}

fn instant(name: String, pid: u32, tid: u32, at: u64) -> Json {
    base(name, "i", pid, tid, at).set("s", "t")
}

/// Renders `events` (time-ordered, as flushed by the simulator or read
/// back from a JSONL trace) as a Chrome-trace document. `flow_filter`
/// keeps only events of one flow — queue slices, arrows and instants of
/// other flows disappear, node metadata stays.
pub fn chrome_trace(events: &[(u64, ProbeEvent)], flow_filter: Option<u32>) -> Json {
    let mut out: Vec<Json> = Vec::new();
    let mut nodes: BTreeSet<u32> = BTreeSet::new();
    // Open queue visits: (node, port, flow, psn) → enqueue time. Linear
    // scan on dequeue is fine: queues are shallow relative to the trace.
    let mut open: Vec<(u32, u32, u32, u32, u64)> = Vec::new();
    // Pending flow-arrow starts: (flow, psn) → arrow id already emitted.
    let mut pending_arrow: Vec<(u32, u32, u64)> = Vec::new();
    let mut next_arrow_id: u64 = 1;

    for &(at, ev) in events {
        // Kinds with no track of their own name no node either.
        if matches!(
            ev,
            ProbeEvent::Duplicate { .. }
                | ProbeEvent::MsgPosted { .. }
                | ProbeEvent::Fault { .. }
                | ProbeEvent::FaultCleared { .. }
        ) {
            continue;
        }
        nodes.insert(ev.node());
        if ev.flow().is_some_and(|flow| flow_filter.is_some_and(|keep| keep != flow)) {
            continue;
        }
        match ev {
            ProbeEvent::Enqueue { node, port, flow, psn, .. } => {
                open.push((node, port, flow, psn, at));
            }
            ProbeEvent::Dequeue { node, port, queue, flow, psn, .. } => {
                if let Some(i) = open
                    .iter()
                    .rposition(|&(n, p, f, s, _)| (n, p, f, s) == (node, port, flow, psn))
                {
                    let (.., enq) = open.remove(i);
                    out.push(
                        base(format!("f{flow} psn {psn} [{}]", queue.name()), "X", node, port, enq)
                            .set("dur", us(at.saturating_sub(enq))),
                    );
                }
            }
            ProbeEvent::Trim { node, port, flow, psn } => {
                out.push(instant(format!("TRIM f{flow} psn {psn}"), node, port, at));
                pending_arrow.push((flow, psn, next_arrow_id));
                out.push(
                    base(format!("recover f{flow}/{psn}"), "s", node, port, at)
                        .set("id", next_arrow_id)
                        .set("cat", "recovery"),
                );
                next_arrow_id += 1;
            }
            ProbeEvent::Drop { node, port, flow, psn, class } => {
                out.push(instant(
                    format!("DROP({}) f{flow} psn {psn}", class.name()),
                    node,
                    port,
                    at,
                ));
                pending_arrow.push((flow, psn, next_arrow_id));
                out.push(
                    base(format!("recover f{flow}/{psn}"), "s", node, port, at)
                        .set("id", next_arrow_id)
                        .set("cat", "recovery"),
                );
                next_arrow_id += 1;
            }
            ProbeEvent::EcnMark { node, port, flow, psn } => {
                out.push(instant(format!("ECN f{flow} psn {psn}"), node, port, at));
            }
            ProbeEvent::Tx { node, flow, psn, .. } => {
                out.push(instant(format!("TX psn {psn}"), node, flow, at));
            }
            ProbeEvent::Retx { node, flow, psn, cause, .. } => {
                out.push(instant(format!("RETX({}) psn {psn}", cause.name()), node, flow, at));
                if let Some(i) = pending_arrow.iter().position(|&(f, s, _)| (f, s) == (flow, psn)) {
                    let (.., id) = pending_arrow.remove(i);
                    out.push(
                        base(format!("recover f{flow}/{psn}"), "f", node, flow, at)
                            .set("id", id)
                            .set("cat", "recovery")
                            .set("bp", "e"),
                    );
                }
            }
            ProbeEvent::Timeout { node, flow } => {
                out.push(instant("RTO".to_string(), node, flow, at));
            }
            ProbeEvent::HoReceived { node, flow } => {
                out.push(instant("HO notify".to_string(), node, flow, at));
            }
            ProbeEvent::Delivery { node, flow, wr_id, bytes } => {
                out.push(instant(format!("DELIVER wr {wr_id} ({bytes} B)"), node, flow, at));
            }
            ProbeEvent::PfcPause { node, port } => {
                out.push(instant("PFC PAUSE".to_string(), node, port, at));
            }
            ProbeEvent::PfcResume { node, port } => {
                out.push(instant("PFC RESUME".to_string(), node, port, at));
            }
            _ => {}
        }
    }
    // Process-name metadata rows, one per node that appeared.
    let meta: Vec<Json> = nodes
        .iter()
        .map(|&n| {
            Json::obj()
                .set("name", "process_name")
                .set("ph", "M")
                .set("pid", u64::from(n))
                .set("args", Json::obj().set("name", format!("node {n}")))
        })
        .collect();
    let mut all = meta;
    all.extend(out);
    Json::obj().set("traceEvents", Json::Arr(all)).set("displayTimeUnit", "ns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_telemetry::{DropClass, QueueClass, RetxCause};

    fn sample() -> Vec<(u64, ProbeEvent)> {
        vec![
            (100, ProbeEvent::Tx { node: 0, flow: 7, psn: 3, bytes: 1064 }),
            (
                200,
                ProbeEvent::Enqueue {
                    node: 10,
                    port: 2,
                    queue: QueueClass::Data,
                    flow: 7,
                    psn: 3,
                    bytes: 1064,
                },
            ),
            (210, ProbeEvent::Trim { node: 10, port: 2, flow: 7, psn: 3 }),
            (
                260,
                ProbeEvent::Dequeue {
                    node: 10,
                    port: 2,
                    queue: QueueClass::Data,
                    flow: 7,
                    psn: 3,
                    bytes: 64,
                },
            ),
            (450, ProbeEvent::Retx { node: 0, flow: 7, psn: 3, bytes: 1064, cause: RetxCause::Ho }),
            (500, ProbeEvent::Drop { node: 10, port: 1, flow: 8, psn: 0, class: DropClass::Data }),
        ]
    }

    fn names(doc: &Json) -> Vec<String> {
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str).map(str::to_string))
            .collect()
    }

    #[test]
    fn emits_slices_instants_and_arrows() {
        let doc = chrome_trace(&sample(), None);
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Queue slice with duration 60 ns = 0.06 µs.
        let slice = evs
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("queue slice");
        assert!((slice.get("dur").and_then(Json::as_f64).unwrap() - 0.06).abs() < 1e-9);
        // Trim started an arrow, the HO retx finished it with the same id.
        let start = evs
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("s"))
            .expect("arrow start");
        let finish = evs
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("f"))
            .expect("arrow finish");
        assert_eq!(start.get("id"), finish.get("id"));
        assert!(names(&doc).iter().any(|n| n.contains("RETX(ho)")));
        // Both nodes got process_name metadata.
        let pids: Vec<u64> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("pid").and_then(Json::as_u64))
            .collect();
        assert_eq!(pids, vec![0, 10]);
    }

    #[test]
    fn flow_filter_drops_other_flows() {
        let doc = chrome_trace(&sample(), Some(7));
        let ns = names(&doc);
        assert!(ns.iter().any(|n| n.contains("psn 3")));
        assert!(!ns.iter().any(|n| n.contains("DROP")), "flow 8's drop filtered: {ns:?}");
    }

    #[test]
    fn document_parses_as_json() {
        let doc = chrome_trace(&sample(), None);
        let rendered = doc.render();
        let back = Json::parse(&rendered).expect("valid JSON");
        assert!(back.get("traceEvents").and_then(Json::as_arr).is_some());
    }
}
