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
//! Tracing arms one probe on the simulator that writes as the run goes,
//! holding no capture: `--trace-out` writes each event's JSONL line
//! ([`dcp_telemetry::ProbeEvent::to_jsonl`], the only place an event
//! becomes a string) through a buffered file as it arrives, and
//! `--spans-out <json>` folds each event live through `dcp-scope`'s
//! [`ScopeProbe`] (span builder plus anomaly monitors), then writes the
//! `dcp-trace/v1` document (schema `schemas/trace.schema.json`) packet by
//! packet when the run ends. Nothing is capped, so nothing is dropped.
//! Tracing is passive (no RNG draws, no event reordering): a traced run
//! produces the same simulation as an untraced one. A row lists the export
//! flags it writes; the dispatcher refuses the rest.

use crate::cli::{Args, Flag};
use dcp_netsim::stats::{Conservation, NetStats, TransportStats};
use dcp_netsim::Simulator;
use dcp_scope::ScopeProbe;
use dcp_telemetry::{Json, Probe, ProbeEvent};
use dcp_workloads::{FctSummary, FlowRecord, IdealFct};
use std::any::Any;
use std::fs::File;
use std::io::{BufWriter, Write};
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

    /// Installs the export probe when a trace or span export was
    /// requested: `--trace-out` (one JSONL line per event) is created now
    /// and written as events arrive; `--spans-out` folds them live. `suffix`
    /// labels multi-run sweeps (`Some("seed2")` writes `PATH.seed2`,
    /// mirroring the `csv=` convention; figure rows use scheme labels); pass
    /// `None` for single-run rows. Call before driving the simulation; pair
    /// with [`ExportOpts::finish_trace`].
    pub fn arm_trace(&self, sim: &mut Simulator, suffix: Option<&str>) {
        if !self.capturing() {
            return;
        }
        let trace = self.trace_out.as_ref().map(|path| {
            let path = suffixed(path, suffix);
            let out = BufWriter::new(File::create(&path).expect("write trace"));
            (path, out)
        });
        let spans = self.spans_out.as_ref().map(|path| (suffixed(path, suffix), ScopeProbe::new()));
        sim.set_probe(Box::new(Exporter { trace, spans }));
    }

    /// Finishes the armed exports: flushes `--trace-out` and writes the
    /// `--spans-out` document. Call at the end of a run, inside the
    /// (possibly parallel) run closure; report the files from the ordered
    /// report loop with [`Written::print`].
    pub fn finish_trace(&self, sim: &mut Simulator) -> Written {
        let Some(probe) = sim.probe_mut().filter(|_| self.capturing()) else {
            return Written::default();
        };
        let probe: &mut dyn Any = probe;
        let ex = probe.downcast_mut::<Exporter>().expect("arm_trace installed the exporter");
        let mut written = Vec::new();
        if let Some((path, out)) = &mut ex.trace {
            out.flush().expect("write trace");
            written.push(format!("result trace={}", path.display()));
        }
        if let Some((path, scope)) = &ex.spans {
            let out = BufWriter::new(File::create(path).expect("write spans"));
            scope.write_doc(out).and_then(|mut out| out.flush()).expect("write spans");
            written.push(format!("result spans={}", path.display()));
        }
        Written(written)
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

/// The probe [`ExportOpts::arm_trace`] installs: each event goes out as
/// its `--trace-out` line on arrival and into the live `--spans-out` fold.
struct Exporter {
    trace: Option<(PathBuf, BufWriter<File>)>,
    spans: Option<(PathBuf, ScopeProbe)>,
}

impl Probe for Exporter {
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        if let Some((_, out)) = &mut self.trace {
            let mut line = ev.to_jsonl(at);
            line.push('\n');
            out.write_all(line.as_bytes()).expect("write trace");
        }
        if let Some((_, scope)) = &mut self.spans {
            scope.record(at, ev);
        }
    }
}

/// The files a finished export wrote, as `result trace=…` /
/// `result spans=…` lines.
#[derive(Debug, Default)]
pub struct Written(Vec<String>);

impl Written {
    pub fn print(&self) {
        for line in &self.0 {
            println!("{line}");
        }
    }
}

fn suffixed(path: &Path, suffix: Option<&str>) -> PathBuf {
    match suffix {
        Some(s) => PathBuf::from(format!("{}.{s}", path.display())),
        None => path.to_path_buf(),
    }
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
    use dcp_telemetry::CountingProbe;

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

    /// `probe`'s `dcp-trace/v1` document, parsed back.
    fn doc_of(probe: &ScopeProbe) -> Json {
        let bytes = probe.write_doc(Vec::new()).expect("write to memory");
        Json::parse(std::str::from_utf8(&bytes).expect("UTF-8")).expect("the document parses")
    }

    /// A fresh path under the system temp directory for this test process.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dcp-metrics-{}-{name}", std::process::id()))
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
        let mut probe = ScopeProbe::new();
        for (at, ev) in ProbeEvent::read_jsonl(&text).flatten() {
            probe.record(at, &ev);
        }
        let doc = doc_of(&probe);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("dcp-trace/v1"));
        let packets = doc.get("packets").and_then(Json::as_arr).unwrap();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].get("transmissions").and_then(Json::as_u64), Some(2));
        let storm = doc.get("monitors").and_then(|m| m.get("retx_storm")).unwrap();
        assert_eq!(storm.get("peak").and_then(Json::as_u64), Some(1));
    }

    /// A probe that saw nothing still writes a valid document: empty
    /// arrays render as `[]`, and the schema accepts it.
    #[test]
    fn an_empty_scope_probe_writes_a_valid_document() {
        let schema =
            include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas/trace.schema.json"));
        let doc = doc_of(&ScopeProbe::new());
        assert_eq!(doc.validate(&Json::parse(schema).unwrap()), Vec::<String>::new());
        for key in ["packets", "messages", "flows"] {
            assert_eq!(doc.get(key).and_then(Json::as_arr).map(<[Json]>::len), Some(0), "{key}");
        }
    }

    /// A small `dcp_sim`-style run — DCP over adaptive routing on a 2×2×2
    /// CLOS, 20 WebSearch flows at load 0.4 with 1 % forced loss —
    /// after `arm` set its probe.
    fn small_run(arm: impl FnOnce(&mut Simulator)) -> Simulator {
        use dcp_workloads::{poisson_flows, run_flows, SizeDist, TransportKind};
        use rand::{rngs::StdRng, SeedableRng};
        let mut cfg = dcp_core::dcp_switch_config(dcp_netsim::LoadBalance::AdaptiveRouting, 20);
        cfg.forced_loss_rate = 0.01;
        let mut sim = Simulator::new(3);
        arm(&mut sim);
        let us = dcp_netsim::US;
        let topo = dcp_netsim::topology::clos(&mut sim, cfg, 2, 2, 2, 100.0, 100.0, us, us);
        let mut rng = StdRng::seed_from_u64(3);
        let flows =
            poisson_flows(&mut rng, &SizeDist::websearch(), topo.hosts.len(), 100.0, 0.4, 20);
        let kind = TransportKind::Dcp;
        let records = run_flows(
            &mut sim,
            &topo,
            kind,
            crate::default_cc(kind),
            &flows,
            600 * dcp_netsim::SEC,
        );
        assert_eq!(dcp_workloads::unfinished(&records), 0);
        sim
    }

    /// With both exports armed, the trace holds one line per event the run
    /// emitted — as many as a counting probe sees on the same seed — and
    /// the span document reads complete.
    #[test]
    fn exports_write_every_event_the_run_emits() {
        let mut counted = small_run(|sim| sim.set_probe(Box::new(CountingProbe::default())));
        let probe: &mut dyn Any = counted.probe_mut().expect("probe installed");
        let events = probe.downcast_mut::<CountingProbe>().expect("the counting probe").total();

        let (trace, spans) = (scratch("every.jsonl"), scratch("every.json"));
        let opts = ExportOpts {
            trace_out: Some(trace.clone()),
            spans_out: Some(spans.clone()),
            ..ExportOpts::default()
        };
        let mut sim = small_run(|sim| opts.arm_trace(sim, None));
        let written = opts.finish_trace(&mut sim);
        assert_eq!(
            written.0,
            [
                format!("result trace={}", trace.display()),
                format!("result spans={}", spans.display())
            ]
        );
        let text = std::fs::read_to_string(&trace).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&spans).unwrap()).unwrap();
        std::fs::remove_file(&trace).unwrap();
        std::fs::remove_file(&spans).unwrap();
        assert!(events > 10_000, "the run must do something ({events} events)");
        assert_eq!(text.lines().count() as u64, events);
        assert_eq!(doc.get("truncated").and_then(Json::as_u64), Some(0));
    }

    /// The in-process document (`--spans-out`, folded live as the events
    /// arrive) and the offline one (`dcp_trace --spans`, the written lines
    /// read back and replayed) are the same bytes.
    #[test]
    fn live_spans_doc_equals_the_reread_trace() {
        use dcp_telemetry::{QueueClass, RetxCause};
        let q = QueueClass::Data;
        let events = [
            (100, ProbeEvent::Tx { node: 0, flow: 1, psn: 0, bytes: 1064 }),
            (200, ProbeEvent::Enqueue { node: 9, port: 2, queue: q, flow: 1, psn: 0, bytes: 1064 }),
            (210, ProbeEvent::Trim { node: 9, port: 2, flow: 1, psn: 0 }),
            (400, ProbeEvent::HoReceived { node: 0, flow: 1 }),
            (450, ProbeEvent::Retx { node: 0, flow: 1, psn: 0, bytes: 1064, cause: RetxCause::Ho }),
            (1 << 41, ProbeEvent::Delivery { node: 1, flow: 1, wr_id: 1 << 30, bytes: 1 << 24 }),
        ];
        let (trace, spans) = (scratch("live.jsonl"), scratch("live.json"));
        let opts = ExportOpts {
            trace_out: Some(trace.clone()),
            spans_out: Some(spans.clone()),
            ..ExportOpts::default()
        };
        let mut sim = Simulator::new(1);
        opts.arm_trace(&mut sim, None);
        let probe = sim.probe_mut().expect("probe installed");
        for (at, ev) in &events {
            probe.record(*at, ev);
        }
        opts.finish_trace(&mut sim);
        let written = std::fs::read_to_string(&trace).unwrap();
        let live = std::fs::read(&spans).unwrap();
        std::fs::remove_file(&trace).unwrap();
        std::fs::remove_file(&spans).unwrap();
        let mut reread = ScopeProbe::new();
        for ev in ProbeEvent::read_jsonl(&written) {
            let (at, ev) = ev.expect("own line");
            reread.record(at, &ev);
        }
        assert_eq!(written.lines().count(), events.len());
        assert_eq!(
            String::from_utf8(live).unwrap(),
            String::from_utf8(reread.write_doc(Vec::new()).unwrap()).unwrap()
        );
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
