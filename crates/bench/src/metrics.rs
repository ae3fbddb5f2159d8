//! Structured metrics and trace export — the `--metrics-out <json>` /
//! `--trace-out <jsonl>` flags shared by `dcp_sim` and the figure/table
//! binaries.
//!
//! The metrics document is a single JSON object (schema
//! `schemas/metrics.schema.json`, validated by the `validate_metrics`
//! binary) with one entry per run/sweep point. Runs are appended in the
//! caller's iteration order, which the sweep executor already fixes to
//! input (seed) order regardless of `DCP_THREADS` — so the exported file
//! is byte-identical across thread counts.
//!
//! The trace file is JSON-lines, one [`dcp_telemetry::ProbeEvent`] per
//! line, captured by installing an [`EventLog`] probe on the simulator.
//! Tracing is passive (no RNG draws, no event reordering): a traced run
//! produces the same simulation as an untraced one.
//!
//! `--spans-out <json>` folds the same captured event stream through
//! `dcp-scope`'s span builder and anomaly monitors and writes the
//! resulting `dcp-trace/v1` document (schema `schemas/trace.schema.json`):
//! per-packet causal spans, per-message latency brackets, and the
//! retx-storm / PFC-tree / queue-high-water / SLO-burn verdicts.

use dcp_netsim::stats::{Conservation, NetStats, TransportStats};
use dcp_netsim::Simulator;
use dcp_scope::{Monitors, SpanBuilder};
use dcp_telemetry::{EventLog, Json, Probe, ProbeEvent};
use dcp_workloads::FctSummary;
use std::path::{Path, PathBuf};

/// Version tag stamped into every metrics document.
pub const METRICS_SCHEMA: &str = "dcp-metrics/v1";

/// Export destinations scanned from the command line.
///
/// Accepts `--metrics-out PATH`, `--metrics-out=PATH` and the
/// `metrics_out=PATH` KEY=VALUE spelling (`dcp_sim`'s native argument
/// style), and the same for `trace-out` and `spans-out`.
#[derive(Debug, Clone, Default)]
pub struct ExportOpts {
    pub metrics_out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
    pub spans_out: Option<PathBuf>,
}

impl ExportOpts {
    /// Scans `std::env::args()` for the export flags.
    pub fn from_env_args() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        ExportOpts {
            metrics_out: find_flag(&argv, "metrics-out").map(PathBuf::from),
            trace_out: find_flag(&argv, "trace-out").map(PathBuf::from),
            spans_out: find_flag(&argv, "spans-out").map(PathBuf::from),
        }
    }

    pub fn any(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some() || self.spans_out.is_some()
    }

    fn capturing(&self) -> bool {
        self.trace_out.is_some() || self.spans_out.is_some()
    }

    /// Installs an [`EventLog`] probe when a trace or span export was
    /// requested. Call before driving the simulation; pair with
    /// [`ExportOpts::write_trace`] / [`ExportOpts::write_spans`].
    pub fn arm_trace(&self, sim: &mut Simulator) {
        if self.capturing() {
            sim.set_probe(Box::new(EventLog::default()));
        }
    }

    /// Drains the armed probe's capture, warning on stderr when the log
    /// filled and dropped events. Call at the end of a run, inside the
    /// (possibly parallel) run closure; write it later from the ordered
    /// report loop with [`ExportOpts::write_trace_lines`].
    pub fn take_trace(&self, sim: &mut Simulator) -> Trace {
        let Some(p) = sim.probe_mut().filter(|_| self.capturing()) else {
            return Trace::default();
        };
        let trace = Trace { lines: p.drain_jsonl(), dropped: p.dropped() };
        if trace.dropped > 0 {
            eprintln!(
                "warn: trace capture capped at {} events; the {} after them were dropped",
                trace.lines.len(),
                trace.dropped
            );
        }
        trace
    }

    /// Writes captured trace lines. `suffix` labels multi-run sweeps
    /// (`Some("seed2")` writes `PATH.seed2`, mirroring the `csv=`
    /// convention; figure binaries use scheme labels); pass `None` for
    /// single-run binaries.
    pub fn write_trace_lines(&self, trace: &Trace, suffix: Option<&str>) {
        let Some(path) = &self.trace_out else { return };
        let path = suffixed(path, suffix);
        let mut out = trace.lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        std::fs::write(&path, out).expect("write trace");
        println!("result trace={}", path.display());
    }

    /// Folds captured trace lines through the span builder and the
    /// standard monitor set and writes the `dcp-trace/v1` document
    /// (`schemas/trace.schema.json`). Same `suffix` convention as
    /// [`ExportOpts::write_trace_lines`].
    pub fn write_spans(&self, trace: &Trace, suffix: Option<&str>) {
        let Some(path) = &self.spans_out else { return };
        let path = suffixed(path, suffix);
        std::fs::write(&path, trace.spans_doc().render_pretty()).expect("write spans");
        println!("result spans={}", path.display());
    }

    /// Single-run convenience: drain and write in one step.
    pub fn write_trace(&self, sim: &mut Simulator) {
        let trace = self.take_trace(sim);
        self.write_trace_lines(&trace, None);
        self.write_spans(&trace, None);
    }

    /// Renders and writes the finished metrics document.
    pub fn write_metrics(&self, doc: MetricsDoc) {
        let Some(path) = &self.metrics_out else { return };
        std::fs::write(path, doc.finish().render_pretty()).expect("write metrics");
        println!("result metrics={}", path.display());
    }
}

/// A drained capture: the JSONL lines the [`EventLog`] kept and the
/// number of events it dropped once full.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub lines: Vec<String>,
    pub dropped: u64,
}

impl Trace {
    /// [`spans_doc`] of the kept lines, with the dropped events counted
    /// into `truncated` so a capped capture never reads as complete.
    pub fn spans_doc(&self) -> Json {
        let doc = spans_doc(self.lines.iter().map(String::as_str));
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

/// Builds the `dcp-trace/v1` span document from JSONL trace lines: the
/// span builder's packets/messages/flows/stats plus every monitor's
/// verdict under `monitors`. Shared by `--spans-out` and the `dcp_trace`
/// converter so both emit the same shape.
pub fn spans_doc<'a>(lines: impl Iterator<Item = &'a str>) -> Json {
    let mut spans = SpanBuilder::new();
    let mut monitors = Monitors::with_defaults();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some((at, ev)) = Json::parse(line).ok().as_ref().and_then(ProbeEvent::from_json) {
            spans.record(at, &ev);
            monitors.record(at, &ev);
        }
    }
    spans.to_json().set("monitors", monitors.to_json())
}

/// The value of flag `name` in any of its three spellings: `--name PATH`,
/// `--name=PATH`, or `dcp_sim`'s KEY=VALUE form with dashes as underscores.
pub fn find_flag(argv: &[String], name: &str) -> Option<String> {
    let eq_dashed = format!("--{name}=");
    let bare = format!("--{name}");
    let eq_key = format!("{}=", name.replace('-', "_"));
    for (i, a) in argv.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&eq_dashed) {
            return Some(v.to_string());
        }
        if a == &bare {
            return argv.get(i + 1).cloned();
        }
        if let Some(v) = a.strip_prefix(&eq_key) {
            return Some(v.to_string());
        }
    }
    None
}

/// Builder for the metrics JSON document: top-level identity plus a `runs`
/// array of per-run entries (see [`run_entry`] for the standard shape).
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

    pub fn push_run(&mut self, run: Json) {
        self.runs.push(run);
    }

    pub fn finish(self) -> Json {
        Json::obj()
            .set("schema", METRICS_SCHEMA)
            .set("binary", self.binary)
            .set("config", self.config)
            .set("runs", Json::Arr(self.runs))
    }
}

/// The standard per-run entry: FCT/slowdown percentiles, fabric and
/// endpoint counters, and the conservation report. `label` distinguishes
/// sweep points (scheme names, loss rates); `seed` the RNG seed.
pub fn run_entry(
    label: &str,
    seed: u64,
    fct: &FctSummary,
    net: &NetStats,
    ep: &TransportStats,
    cons: &Conservation,
) -> Json {
    Json::obj()
        .set("label", label)
        .set("seed", seed as f64)
        .set("flows", fct.flows() as f64)
        .set("unfinished", fct.unfinished as f64)
        .set("fct_ns", fct_json(fct))
        .set("slowdown", slowdown_json(fct))
        .set("net", counters_json(net.fields()))
        .set("transport", counters_json(ep.fields()))
        .set("conservation", conservation_json(cons))
}

/// Per-run entry for binaries without per-flow FCTs (queue deep-dives,
/// control-plane stress tables): counters and conservation only.
pub fn run_entry_counters(
    label: &str,
    seed: u64,
    net: &NetStats,
    ep: &TransportStats,
    cons: &Conservation,
) -> Json {
    Json::obj()
        .set("label", label)
        .set("seed", seed as f64)
        .set("net", counters_json(net.fields()))
        .set("transport", counters_json(ep.fields()))
        .set("conservation", conservation_json(cons))
}

/// FCT percentiles in nanoseconds.
pub fn fct_json(s: &FctSummary) -> Json {
    let (p50, p99, p999) = s.fct_p50_p99_p999();
    Json::obj()
        .set("p50", p50 as f64)
        .set("p99", p99 as f64)
        .set("p999", p999 as f64)
        .set("mean", s.fct.mean())
}

/// Slowdown percentiles (unitless, ≥ 1).
pub fn slowdown_json(s: &FctSummary) -> Json {
    Json::obj()
        .set("p50", s.slowdown_p(50.0))
        .set("p99", s.slowdown_p(99.0))
        .set("p999", s.slowdown_p(99.9))
        .set("mean", s.mean_slowdown())
}

/// Any `counters!`-generated struct as a JSON object, field order fixed
/// by the struct's declaration order.
pub fn counters_json(fields: impl Iterator<Item = (&'static str, u64)>) -> Json {
    let mut o = Json::obj();
    for (name, value) in fields {
        o = o.set(name, value as f64);
    }
    o
}

/// Conservation report: `ok`, the two in-flight terms, and any violation
/// strings verbatim.
pub fn conservation_json(c: &Conservation) -> Json {
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
        let argv: Vec<String> = ["--metrics-out=m.json", "--trace-out", "t.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(find_flag(&argv, "metrics-out").as_deref(), Some("m.json"));
        assert_eq!(find_flag(&argv, "trace-out").as_deref(), Some("t.jsonl"));
        let kv: Vec<String> =
            ["metrics_out=x.json", "spans_out=s.json"].iter().map(|s| s.to_string()).collect();
        assert_eq!(find_flag(&kv, "metrics-out").as_deref(), Some("x.json"));
        assert_eq!(find_flag(&kv, "spans-out").as_deref(), Some("s.json"));
        assert_eq!(find_flag(&kv, "trace-out"), None);
    }

    #[test]
    fn spans_doc_folds_lines_and_embeds_monitors() {
        use dcp_telemetry::RetxCause;
        let evs = [
            ProbeEvent::Tx { node: 0, flow: 1, psn: 0, bytes: 1064 }.to_jsonl(100),
            ProbeEvent::Retx { node: 0, flow: 1, psn: 0, bytes: 1064, cause: RetxCause::Ho }
                .to_jsonl(900),
            "garbage line".to_string(),
        ];
        let doc = spans_doc(evs.iter().map(String::as_str));
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
        assert_eq!((trace.lines.len(), trace.dropped), (3, 2));
        let doc = trace.spans_doc();
        assert_eq!(doc.get("packets").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(doc.get("truncated").and_then(Json::as_u64), Some(2));
        // An uncapped capture of the same lines still reads 0.
        let whole = Trace { dropped: 0, ..trace };
        assert_eq!(whole.spans_doc().get("truncated").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn doc_shape_matches_schema_fields() {
        let mut doc = MetricsDoc::new("test_bin").config("load", 0.3);
        let fct = FctSummary::from_records(&[], &dcp_workloads::IdealFct::intra_dc_100g());
        let net = NetStats::default();
        let ep = TransportStats::default();
        let cons = Conservation::check(&net, &ep, true);
        doc.push_run(run_entry("dcp", 1, &fct, &net, &ep, &cons));
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
