//! Structured metrics and trace export — the `--metrics-out <json>` /
//! `--trace-out <jsonl>` / `--spans-out <json>` flags shared by `dcp_sim`
//! and the figure/table rows.
//!
//! The metrics document is a single JSON object (schema
//! `schemas/metrics.schema.json`, validated by the `validate_metrics`
//! row) with one entry per run/sweep point. Runs are appended in the
//! caller's iteration order, which the sweep executor already fixes to
//! input (seed) order regardless of `DCP_THREADS` — so the exported file
//! is byte-identical across thread counts.
//!
//! Tracing arms one [`EventLog`] probe on the simulator — the 16-byte
//! packed capture — and both exports read that log. `--trace-out` streams
//! it to a file as JSON-lines, one [`dcp_telemetry::ProbeEvent`] per line
//! (the only place an event becomes a string); `--spans-out <json>` folds
//! it through `dcp-scope`'s span builder and anomaly monitors into the
//! `dcp-trace/v1` document (schema `schemas/trace.schema.json`). Tracing
//! is passive (no RNG draws, no event reordering): a traced run produces
//! the same simulation as an untraced one. A row lists the export flags
//! it writes; the dispatcher refuses the rest.

use crate::cli::{Args, Flag};
use dcp_netsim::stats::{Conservation, NetStats, TransportStats};
use dcp_netsim::Simulator;
use dcp_scope::{Monitors, SpanBuilder};
use dcp_telemetry::{EventLog, Json, Probe, ProbeEvent};
use dcp_workloads::{FctSummary, FlowRecord, IdealFct};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Version tag stamped into every metrics document.
pub const METRICS_SCHEMA: &str = "dcp-metrics/v1";

/// Export destinations from a row's command line: `--metrics-out PATH`,
/// `--metrics-out=PATH` or `metrics_out=PATH`, and the same for
/// `trace-out` and `spans-out`.
#[derive(Debug, Clone, Default)]
pub struct ExportOpts {
    pub metrics_out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
    pub spans_out: Option<PathBuf>,
}

/// The export flags, as a row lists them.
pub const METRICS_OUT: Flag = Flag::Value("metrics-out");
pub const TRACE_OUT: Flag = Flag::Value("trace-out");
pub const SPANS_OUT: Flag = Flag::Value("spans-out");

impl ExportOpts {
    pub fn from_args(args: &Args) -> Self {
        let path = |name| args.get(name).map(PathBuf::from);
        ExportOpts {
            metrics_out: path("metrics-out"),
            trace_out: path("trace-out"),
            spans_out: path("spans-out"),
        }
    }

    fn capturing(&self) -> bool {
        self.trace_out.is_some() || self.spans_out.is_some()
    }

    /// Installs an [`EventLog`] probe when a trace or span export was
    /// requested. Call before driving the simulation; pair with
    /// [`ExportOpts::take_trace`] and [`ExportOpts::write_trace`].
    pub fn arm_trace(&self, sim: &mut Simulator) {
        if self.capturing() {
            sim.set_probe(Box::new(EventLog::default()));
        }
    }

    /// Takes the armed probe's capture, warning on stderr when the log
    /// filled and dropped events. Call at the end of a run, inside the
    /// (possibly parallel) run closure; write it later from the ordered
    /// report loop with [`ExportOpts::write_trace`].
    pub fn take_trace(&self, sim: &mut Simulator) -> Trace {
        let Some(p) = sim.probe_mut().filter(|_| self.capturing()) else {
            return Trace::default();
        };
        let trace = Trace { dropped: p.dropped(), log: p.take_log() };
        if trace.dropped > 0 {
            eprintln!(
                "warn: trace capture capped at {} events; the {} after them were dropped",
                trace.log.len(),
                trace.dropped
            );
        }
        trace
    }

    /// Writes the capture to whichever of `--trace-out` (one JSONL line per
    /// event) and `--spans-out` (the capture folded through the span
    /// builder and the standard monitor set into the `dcp-trace/v1`
    /// document, `schemas/trace.schema.json`) were given. `suffix` labels
    /// multi-run sweeps (`Some("seed2")` writes `PATH.seed2`, mirroring the
    /// `csv=` convention; figure rows use scheme labels); pass `None` for
    /// single-run rows.
    pub fn write_trace(&self, trace: &Trace, suffix: Option<&str>) {
        if let Some(path) = &self.trace_out {
            let path = suffixed(path, suffix);
            let mut out =
                std::io::BufWriter::new(std::fs::File::create(&path).expect("write trace"));
            for (at, ev) in trace.log.iter() {
                writeln!(out, "{}", ev.to_jsonl(at)).expect("write trace");
            }
            out.flush().expect("write trace");
            println!("result trace={}", path.display());
        }
        if let Some(path) = &self.spans_out {
            let path = suffixed(path, suffix);
            std::fs::write(&path, trace.spans_doc().render_pretty()).expect("write spans");
            println!("result spans={}", path.display());
        }
    }

    /// Renders and writes the finished metrics document.
    pub fn write_metrics(&self, doc: MetricsDoc) {
        let Some(path) = &self.metrics_out else { return };
        std::fs::write(path, doc.finish().render_pretty()).expect("write metrics");
        println!("result metrics={}", path.display());
    }

    /// The standard entry for a finished run — the simulator's counters
    /// and lenient conservation, plus, for a flow run, the FCT summary of
    /// `flows` (records and ideal) — or `None`, computing nothing, without
    /// `--metrics-out`.
    pub fn entry(
        &self,
        label: &str,
        seed: u64,
        sim: &Simulator,
        flows: Option<(&[FlowRecord], &IdealFct)>,
    ) -> Option<Json> {
        self.metrics_out.as_ref()?;
        let fct = flows.map(|(records, ideal)| FctSummary::from_records(records, ideal));
        let (net, ep) = (sim.net_stats(), sim.all_endpoint_stats());
        Some(run_entry(label, seed, fct.as_ref(), &net, &ep, &sim.check_conservation(false)))
    }
}

/// A taken capture: the [`EventLog`] and the number of events it dropped
/// once full.
#[derive(Default)]
pub struct Trace {
    pub log: EventLog,
    pub dropped: u64,
}

impl Trace {
    /// [`spans_doc`] of the kept events, with the dropped ones counted
    /// into `truncated` so a capped capture never reads as complete.
    pub fn spans_doc(&self) -> Json {
        let doc = spans_doc(self.log.iter());
        let truncated = doc.get("truncated").and_then(Json::as_u64).unwrap_or(0) + self.dropped;
        doc.set("truncated", truncated)
    }
}

fn suffixed(path: &Path, suffix: Option<&str>) -> PathBuf {
    match suffix {
        Some(s) => PathBuf::from(format!("{}.{s}", path.display())),
        None => path.to_path_buf(),
    }
}

/// Builds the `dcp-trace/v1` span document from a captured event stream:
/// the span builder's packets/messages/flows/stats plus every monitor's
/// verdict under `monitors`. Shared by `--spans-out` and the `dcp_trace`
/// converter so both emit the same shape.
pub fn spans_doc(events: impl Iterator<Item = (u64, ProbeEvent)>) -> Json {
    let mut spans = SpanBuilder::new();
    let mut monitors = Monitors::with_defaults();
    for (at, ev) in events {
        spans.record(at, &ev);
        monitors.record(at, &ev);
    }
    spans.to_json().set("monitors", monitors.to_json())
}

/// Builder for the metrics JSON document: top-level identity plus a `runs`
/// array of per-run entries (see [`run_entry`] for the standard shape),
/// added with `extend`.
pub struct MetricsDoc {
    binary: String,
    config: Json,
    runs: Vec<Json>,
}

impl MetricsDoc {
    pub fn new(binary: &str) -> Self {
        MetricsDoc { binary: binary.to_string(), config: Json::obj(), runs: Vec::new() }
    }

    /// Records one experiment-level configuration key.
    pub fn config(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.config = self.config.set(key, value);
        self
    }

    pub fn finish(self) -> Json {
        Json::obj()
            .set("schema", METRICS_SCHEMA)
            .set("binary", self.binary)
            .set("config", self.config)
            .set("runs", Json::Arr(self.runs))
    }
}

impl Extend<Json> for MetricsDoc {
    fn extend<I: IntoIterator<Item = Json>>(&mut self, runs: I) {
        self.runs.extend(runs);
    }
}

/// The standard per-run entry: FCT/slowdown percentiles when the run has
/// per-flow FCTs (queue deep-dives and control-plane stress tables do not),
/// fabric and endpoint counters, and the conservation report. `label`
/// distinguishes sweep points (scheme names, loss rates); `seed` the RNG
/// seed.
pub fn run_entry(
    label: &str,
    seed: u64,
    fct: Option<&FctSummary>,
    net: &NetStats,
    ep: &TransportStats,
    cons: &Conservation,
) -> Json {
    let mut e = Json::obj().set("label", label).set("seed", seed as f64);
    if let Some(fct) = fct {
        e = e
            .set("flows", fct.flows() as f64)
            .set("unfinished", fct.unfinished as f64)
            .set("fct_ns", fct_json(fct))
            .set("slowdown", slowdown_json(fct));
    }
    e.set("net", counters_json(net.fields()))
        .set("transport", counters_json(ep.fields()))
        .set("conservation", conservation_json(cons))
}

/// FCT percentiles in nanoseconds.
fn fct_json(s: &FctSummary) -> Json {
    let (p50, p99, p999) = s.fct_p50_p99_p999();
    Json::obj()
        .set("p50", p50 as f64)
        .set("p99", p99 as f64)
        .set("p999", p999 as f64)
        .set("mean", s.fct.mean())
}

/// Slowdown percentiles (unitless, ≥ 1).
fn slowdown_json(s: &FctSummary) -> Json {
    Json::obj()
        .set("p50", s.slowdown_p(50.0))
        .set("p99", s.slowdown_p(99.0))
        .set("p999", s.slowdown_p(99.9))
        .set("mean", s.mean_slowdown())
}

/// Any `counters!`-generated struct as a JSON object, field order fixed
/// by the struct's declaration order.
fn counters_json(fields: impl Iterator<Item = (&'static str, u64)>) -> Json {
    let mut o = Json::obj();
    for (name, value) in fields {
        o = o.set(name, value as f64);
    }
    o
}

/// Conservation report: `ok`, the two in-flight terms, and any violation
/// strings verbatim.
fn conservation_json(c: &Conservation) -> Json {
    Json::obj()
        .set("ok", c.is_ok())
        .set("data_in_flight", c.data_in_flight as f64)
        .set("ho_in_flight", c.ho_in_flight as f64)
        .set("violations", Json::Arr(c.violations.iter().map(|v| Json::from(v.as_str())).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_spellings_all_parse() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let flags = [METRICS_OUT, TRACE_OUT, SPANS_OUT];
        let dashed =
            Args::parse(&flags, &argv(&["--metrics-out=m.json", "--trace-out", "t.jsonl"]));
        let dashed = ExportOpts::from_args(&dashed.expect("listed flags"));
        assert_eq!(dashed.metrics_out, Some("m.json".into()));
        assert_eq!(dashed.trace_out, Some("t.jsonl".into()));
        let kv = Args::parse(&flags, &argv(&["metrics_out=x.json", "spans_out=s.json"]));
        let kv = ExportOpts::from_args(&kv.expect("listed keys"));
        assert_eq!((kv.metrics_out, kv.spans_out), (Some("x.json".into()), Some("s.json".into())));
        assert_eq!(kv.trace_out, None);
    }

    /// A row refuses the export flags it does not list, in every spelling,
    /// rather than accepting and ignoring them.
    #[test]
    fn unhonoured_flags_are_refused_in_every_spelling() {
        const ALL: [Flag; 3] = [METRICS_OUT, TRACE_OUT, SPANS_OUT];
        for flag in ALL {
            let others: Vec<Flag> = ALL.into_iter().filter(|f| *f != flag).collect();
            let Flag::Value(name) = flag else { unreachable!() };
            let key = name.replace('-', "_");
            for argv in [
                vec![format!("--{name}"), "p".to_string()],
                vec![format!("--{name}=p")],
                vec![format!("{key}=p")],
            ] {
                assert!(Args::parse(&others, &argv).is_err(), "{argv:?}");
                let e = ExportOpts::from_args(&Args::parse(&[flag], &argv).expect("honoured"));
                let paths = [e.metrics_out, e.trace_out, e.spans_out];
                assert_eq!(paths.iter().flatten().count(), 1, "{argv:?}");
            }
        }
        // No export flag at all is fine whatever is honoured.
        assert!(ExportOpts::from_args(&Args::parse(&[], &[]).expect("no flags"))
            .metrics_out
            .is_none());
    }

    #[test]
    fn spans_doc_folds_lines_and_embeds_monitors() {
        use dcp_telemetry::RetxCause;
        let text = [
            ProbeEvent::Tx { node: 0, flow: 1, psn: 0, bytes: 1064 }.to_jsonl(100),
            ProbeEvent::Retx { node: 0, flow: 1, psn: 0, bytes: 1064, cause: RetxCause::Ho }
                .to_jsonl(900),
            "garbage line".to_string(),
        ]
        .join("\n");
        let doc = spans_doc(ProbeEvent::read_jsonl(&text).flatten());
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("dcp-trace/v1"));
        let packets = doc.get("packets").and_then(Json::as_arr).unwrap();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].get("transmissions").and_then(Json::as_u64), Some(2));
        let storm = doc.get("monitors").and_then(|m| m.get("retx_storm")).unwrap();
        assert_eq!(storm.get("peak").and_then(Json::as_u64), Some(1));
        assert!(Json::parse(&doc.render_pretty()).is_ok());
    }

    #[test]
    fn a_capped_capture_reports_what_it_dropped() {
        let opts = ExportOpts { spans_out: Some("unused".into()), ..ExportOpts::default() };
        let mut sim = Simulator::new(1);
        sim.set_probe(Box::new(EventLog::new(3)));
        let log = sim.probe_mut().expect("probe installed");
        for psn in 0..5 {
            log.record(
                100 + u64::from(psn),
                &ProbeEvent::Tx { node: 0, flow: 1, psn, bytes: 1064 },
            );
        }
        let trace = opts.take_trace(&mut sim);
        assert_eq!((trace.log.len(), trace.dropped), (3, 2));
        let doc = trace.spans_doc();
        assert_eq!(doc.get("packets").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(doc.get("truncated").and_then(Json::as_u64), Some(2));
        // An uncapped capture of the same events still reads 0.
        let whole = Trace { dropped: 0, ..trace };
        assert_eq!(whole.spans_doc().get("truncated").and_then(Json::as_u64), Some(0));
    }

    /// The in-process document (`--spans-out`, folded from the live log)
    /// and the offline one (`dcp_trace --spans`, folded from the written
    /// lines read back) are the same bytes.
    #[test]
    fn live_spans_doc_equals_the_reread_trace() {
        use dcp_telemetry::{QueueClass, RetxCause};
        let mut log = EventLog::default();
        let q = QueueClass::Data;
        log.record(100, &ProbeEvent::Tx { node: 0, flow: 1, psn: 0, bytes: 1064 });
        log.record(
            200,
            &ProbeEvent::Enqueue { node: 9, port: 2, queue: q, flow: 1, psn: 0, bytes: 1064 },
        );
        log.record(210, &ProbeEvent::Trim { node: 9, port: 2, flow: 1, psn: 0 });
        log.record(400, &ProbeEvent::HoReceived { node: 0, flow: 1 });
        log.record(
            450,
            &ProbeEvent::Retx { node: 0, flow: 1, psn: 0, bytes: 1064, cause: RetxCause::Ho },
        );
        // Past the packed lanes: travels through the escape side table.
        log.record(
            1 << 41,
            &ProbeEvent::Delivery { node: 1, flow: 1, wr_id: 1 << 30, bytes: 1 << 24 },
        );
        let trace = Trace { log, dropped: 0 };
        let written: String = trace.log.iter().map(|(at, ev)| ev.to_jsonl(at) + "\n").collect();
        let reread = spans_doc(ProbeEvent::read_jsonl(&written).map(|ev| ev.expect("own line")));
        assert_eq!(trace.spans_doc().render_pretty(), reread.render_pretty());
    }

    #[test]
    fn doc_shape_matches_schema_fields() {
        let mut doc = MetricsDoc::new("test_bin").config("load", 0.3);
        let fct = FctSummary::from_records(&[], &dcp_workloads::IdealFct::intra_dc_100g());
        let net = NetStats::default();
        let ep = TransportStats::default();
        let cons = Conservation::check(&net, &ep, true);
        doc.extend([run_entry("dcp", 1, Some(&fct), &net, &ep, &cons)]);
        let j = doc.finish();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(METRICS_SCHEMA));
        assert_eq!(j.get("binary").unwrap().as_str(), Some("test_bin"));
        let runs = j.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        for key in [
            "label",
            "seed",
            "flows",
            "unfinished",
            "fct_ns",
            "slowdown",
            "net",
            "transport",
            "conservation",
        ] {
            assert!(r.get(key).is_some(), "missing {key}");
        }
        assert_eq!(r.get("conservation").unwrap().get("ok"), Some(&Json::Bool(true)));
        // Round-trips through the parser.
        let parsed = Json::parse(&j.render_pretty()).unwrap();
        assert_eq!(parsed.get("runs").unwrap().as_arr().unwrap().len(), 1);
    }
}
