//! One run of one workload: warm-up, reps, output checks, metrics.
//!
//! A bare run (`--trace 0`) is one untimed warm-up rep at a fifth of the
//! size (page faults, allocator growth) and then a fixed number of timed
//! reps. Rep `i` draws its inputs from `(seed, i)`, so a run measures that
//! many independent draws of the workload: host-time metrics are medians
//! over the reps, simulated metrics are computed over the ops of all reps
//! pooled (five times the sample a single draw would give a p99). Inputs
//! move the same bytes whatever the seed, so reps do equal work.
//!
//! A traced run (`--trace 1`) never feeds end-to-end numbers: it runs rep
//! 0's inputs bare twice (they must agree on the digest; their wall time is
//! the base for `trace.overhead_pct`), once more under the layer trace
//! (which must reproduce events and digest exactly), and then the kernels.

use crate::spec::{self, PER_LAYER};
use crate::stats::{median, Quartiles};
use crate::trace::{self, EndpointSpans, Span, TraceReport};
use crate::workloads::{allreduce, sub_seed, Mode, Rep, SimMetrics, SubRun, Workload};
use crate::{alloc, kernels};
use dcp_telemetry::Json;
use std::path::PathBuf;

/// What the driver's contract asks a run to print.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digest of the whole run: same seed, same digest.
    pub sim_digest: u64,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The contract's last line of standard output.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for &(name, value, unit) in &self.metrics {
            metrics = metrics.set(name, Json::obj().set("value", value).set("unit", unit));
        }
        Json::obj()
            .set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics)
    }
}

/// Timed reps for a nominal `seconds` of measuring: reps are sized for
/// ~2 s on the reference box, and never fewer than five. Fixed by the
/// arguments, not by the clock, so the pooled simulated metrics repeat.
/// `lossy_mix` runs eight for every five: its p99 is made of rare RTO
/// events, and with five draws it spread 14 % across seeds (10 % of
/// ten-seed samples read above 22 %, against a bound of 25 %).
pub fn rep_count(w: Workload, seconds: u64) -> usize {
    let base = (seconds.div_ceil(2) as usize).max(5);
    match w {
        Workload::LossyMix => base * 8 / 5,
        _ => base,
    }
}

/// Inputs of rep `i`: an independent draw per rep.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    sub_seed(seed, 1000 + rep as u64)
}

fn warm_up(w: Workload, seed: u64, scale: f64, problems: &mut Vec<String>) {
    let rep = w.run_rep(sub_seed(seed, 999), scale * 0.2, Mode::Bare);
    check_rep(&rep, "warm-up", problems);
}

fn check_rep(rep: &Rep, label: &str, problems: &mut Vec<String>) {
    for v in rep.violations() {
        problems.push(format!("{label}: {v}"));
    }
    if rep.failed() > 0 {
        problems.push(format!(
            "{label}: {} of {} ops did not complete",
            rep.failed(),
            rep.attempted()
        ));
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn runs_of(reps: &[Rep]) -> impl Iterator<Item = &SubRun> {
    reps.iter().flat_map(|r| r.runs.iter())
}

fn run_digest(reps: &[Rep]) -> u64 {
    let mut d = crate::stats::Fnv::default();
    reps.iter().for_each(|r| d.u64(r.digest()));
    d.0
}

/// The bare run: every end-to-end metric.
pub fn run_bare(w: Workload, seed: u64, seconds: u64, scale: f64) -> Outcome {
    let mut problems = Vec::new();
    warm_up(w, seed, scale, &mut problems);
    let reps: Vec<Rep> = (0..rep_count(w, seconds))
        .map(|i| {
            let rep = w.run_rep(rep_seed(seed, i), scale, Mode::Bare);
            check_rep(&rep, &format!("rep {i}"), &mut problems);
            rep
        })
        .collect();
    let setup = Quartiles::of(&reps.iter().map(Rep::setup_s).collect::<Vec<_>>());
    let wall = Quartiles::of(&reps.iter().map(Rep::wall_s).collect::<Vec<_>>());
    let sim = SimMetrics::per_transport_mean(&runs_of(&reps).collect::<Vec<_>>());
    for (name, q) in [("setup_s", setup), ("wall_s", wall)] {
        println!(
            "{:<20} {name:<8} median {:.6} s  q1 {:.6}  q3 {:.6}  n {}",
            w.name(),
            q.median,
            q.q1,
            q.q3,
            q.n
        );
    }
    let values = [
        setup.median,
        wall.median,
        peak_rss_mb(),
        sim.goodput_gbps,
        sim.slowdown_p50,
        sim.slowdown_p99,
        sim.tx_per_pkt,
    ];
    let attempted: u64 = reps.iter().map(Rep::attempted).sum();
    let failed: u64 = reps.iter().map(Rep::failed).sum();
    let sim_digest = run_digest(&reps);
    println!("{:<20} sim_digest {sim_digest:016x}  events/rep {}", w.name(), reps[0].events());
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: spec::END_TO_END.iter().zip(values).map(|(m, v)| (m.name, v, m.unit)).collect(),
        sim_digest,
        problems,
    }
}

/// Where trace files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Per-layer values of one traced run, filled in as they are measured;
/// what a workload does not exercise stays 0.
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
        slot.1 = if value.is_finite() { value } else { 0.0 };
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: every per-layer metric.
pub fn run_traced(w: Workload, seed: u64, scale: f64) -> Outcome {
    let mut problems = Vec::new();
    let mut layers = Layers::new();
    warm_up(w, seed, scale, &mut problems);
    let input_seed = rep_seed(seed, 0);

    // Bare reps of the traced inputs, with the allocation counter on (the
    // steady state allocates nothing, so counting costs them nothing).
    alloc::set_counting(true);
    let pairs = if w == Workload::IncastTrimScope { 3 } else { 2 };
    let mut bare: Vec<Rep> = Vec::new();
    let mut plain_walls = Vec::new();
    for _ in 0..pairs {
        if w == Workload::IncastTrimScope {
            // Interleaved with the capture-free twin, so a load ramp on
            // the box cannot favour one side.
            let plain = Workload::IncastTrim.run_rep(input_seed, scale, Mode::Bare);
            plain_walls.push(plain.wall_s());
            let rep = w.run_rep(input_seed, scale, Mode::Bare);
            if plain.events() != rep.events() || plain.digest() != rep.digest() {
                problems.push("scope capture changed the event stream".into());
            }
            bare.push(rep);
        } else {
            bare.push(w.run_rep(input_seed, scale, Mode::Bare));
        }
    }
    alloc::set_counting(false);
    for (i, rep) in bare.iter().enumerate() {
        check_rep(rep, &format!("bare rep {i}"), &mut problems);
        if rep.digest() != bare[0].digest() {
            problems.push(format!("bare rep {i} digest differs from rep 0: not deterministic"));
        }
    }
    let bare_wall = median(&bare.iter().map(Rep::wall_s).collect::<Vec<_>>());

    trace::enable();
    let traced = w.run_rep(input_seed, scale, Mode::Traced);
    let report = trace::finish();
    check_rep(&traced, "traced rep", &mut problems);
    if traced.events() != bare[0].events() || traced.digest() != bare[0].digest() {
        problems.push(format!(
            "traced rep diverged from bare: events {} vs {}, digest {:016x} vs {:016x}",
            traced.events(),
            bare[0].events(),
            traced.digest(),
            bare[0].digest()
        ));
    }
    let out = out_dir();
    let path = out.join(format!("trace_{}.json", w.name()));
    if let Err(e) = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, report.to_json(w.name()).render_pretty()))
    {
        problems.push(format!("cannot write {}: {e}", path.display()));
    }

    in_situ(&mut layers, w, &bare, bare_wall, &traced, &report);
    if w == Workload::IncastTrimScope {
        layers.set("scope.capture_overhead_pct", (bare_wall / median(&plain_walls) - 1.0) * 100.0);
    }
    if w == Workload::Allreduce1024Sh8 {
        let serial = allreduce::run(input_seed, scale, Mode::Bare, 1, 1);
        check_rep(&serial, "serial rep", &mut problems);
        layers.set("netsim.shard.serial_wall_s", serial.wall_s());
        layers.set("netsim.shard.speedup_vs_serial", ratio(serial.wall_s(), bare_wall));
        let workers = allreduce::parallel_workers();
        let parallel = allreduce::run(input_seed, scale, Mode::Bare, allreduce::SHARDS, workers);
        check_rep(&parallel, "parallel rep", &mut problems);
        if parallel.digest() != bare[0].digest() {
            problems.push("the worker count changed the digest".into());
        }
        layers.set("netsim.shard.parallel_wall_s", parallel.wall_s());
        layers.set("netsim.shard.parallel_speedup", ratio(bare_wall, parallel.wall_s()));
    }
    layers.set("check.violations", problems.len() as f64);
    for (name, ns) in kernels::run_all() {
        layers.set(name, ns);
    }

    Outcome {
        correct: problems.is_empty(),
        attempted: traced.attempted(),
        failed: traced.failed(),
        metrics: PER_LAYER.iter().zip(&layers.0).map(|(m, &(_, v))| (m.name, v, m.unit)).collect(),
        sim_digest: traced.digest(),
        problems,
    }
}

/// The in-situ metrics: counts from the bare reps, times from the trace.
fn in_situ(
    layers: &mut Layers,
    w: Workload,
    bare: &[Rep],
    bare_wall: f64,
    traced: &Rep,
    t: &TraceReport,
) {
    let rep = &bare[0];
    let events = rep.events() as f64;
    let (net, ops) = (rep.net(), rep.attempted() as f64);
    // Tracer-corrected time of one span name per call, and of the whole
    // tree under `run` (the denominator of every share).
    let per_call = |s: Span| ratio(t.busy_ns(s), t.agg(s).count as f64);
    let run_tree: Vec<Span> = Span::ALL
        .iter()
        .copied()
        .filter(|s| {
            !matches!(
                s,
                Span::Rep | Span::Setup | Span::Verify | Span::WorkloadsGen | Span::ScopeDocBuild
            )
        })
        .collect();
    let run_busy = t.busy_sum(&run_tree);
    layers.set("netsim.events", events);
    layers.set("netsim.events_per_s", ratio(events, bare_wall));
    layers.set("netsim.peak_pending", rep.peak_pending() as f64);
    layers.set("netsim.run_self_ns_per_event", ratio(t.busy_ns(Span::NetsimRun), events));
    layers.set("netsim.install_ns", per_call(Span::NetsimInstall));
    layers.set("netsim.remove_ns", per_call(Span::NetsimRemove));
    layers.set("netsim.post_ns", per_call(Span::NetsimPost));
    // churn_qp has a steady-state window of its own; the other workloads
    // have no warm-up phase, so their whole timed region counts.
    let (allocs, over_events) = match rep.extras.steady_allocs {
        Some(window) => window,
        None => (rep.runs.iter().map(|r| r.allocs).sum(), rep.events()),
    };
    layers.set("netsim.steady_allocs_per_mevent", ratio(allocs as f64 * 1e6, over_events as f64));
    layers.set("netsim.trims", net.trims as f64);
    layers.set("netsim.data_drops", net.data_drops as f64);
    layers.set("netsim.fault_drops", net.fault_drops as f64);
    layers.set("netsim.ho_drops", net.ho_drops as f64);
    layers.set("netsim.ecn_marks", net.ecn_marks as f64);
    layers.set("trace.overhead_pct", (ratio(traced.wall_s(), bare_wall) - 1.0) * 100.0);
    layers.set("workloads.drive_self_ns_per_op", ratio(t.busy_ns(Span::Run), ops));
    if let Some(flows) = rep.extras.gen_flows {
        // One generation per rep; the traced rep's span is the one sample
        // taken on these inputs with nothing else in the interval.
        layers.set(
            "workloads.gen_ns_per_flow",
            ratio(t.agg(Span::WorkloadsGen).total_ns as f64, flows as f64),
        );
    }

    // DCP endpoints: wrapped on every workload but the sharded one.
    if w != Workload::Allreduce1024Sh8 {
        let core = EndpointSpans::CORE;
        let dcp = rep.runs.iter().find(|r| r.label == "dcp").expect("every workload runs DCP");
        layers.set("core.pull_ns", per_call(core.pull));
        layers.set("core.on_packet_ns", per_call(core.on_packet));
        layers.set("core.on_timer_ns", per_call(core.on_timer));
        layers.set("core.pull_calls", t.agg(core.pull).count as f64);
        layers.set("core.on_packet_calls", t.agg(core.on_packet).count as f64);
        layers.set("core.on_timer_calls", t.agg(core.on_timer).count as f64);
        let pulls = t.agg(core.pull);
        layers.set("core.pull_useful_ratio", ratio(pulls.marked as f64, pulls.count as f64));
        layers.set("core.share", ratio(t.busy_sum(&core.all()), run_busy));
        layers.set("core.ho_received", dcp.ep.ho_received as f64);
        layers.set("core.retx_pkts", dcp.ep.retx_pkts as f64);
        layers.set("core.timeouts", dcp.ep.timeouts as f64);
        layers.set("core.duplicates", dcp.ep.duplicates as f64);
    }
    if w == Workload::LossyMix {
        for (k, spans) in [
            ("irn", EndpointSpans::IRN),
            ("racktlp", EndpointSpans::RACKTLP),
            ("ec", EndpointSpans::EC),
        ] {
            let sub = rep.runs.iter().find(|r| r.label == k).expect("lossy_mix runs every scheme");
            let sim = SimMetrics::pooled([sub]);
            let calls: u64 = spans.all().iter().map(|&s| t.agg(s).count).sum();
            let walls: Vec<f64> = bare
                .iter()
                .map(|r| r.runs.iter().find(|s| s.label == k).map_or(0.0, |s| s.wall_s))
                .collect();
            layers.set(&format!("transport.{k}.wall_s"), median(&walls));
            let busy = t.busy_sum(&spans.all());
            layers.set(&format!("transport.{k}.ns_per_call"), ratio(busy, calls as f64));
            layers.set(&format!("transport.{k}.share"), ratio(busy, run_busy));
            layers.set(&format!("transport.{k}.tx_per_pkt"), sim.tx_per_pkt);
            layers.set(&format!("transport.{k}.timeouts"), sim.timeouts as f64);
            layers.set(&format!("transport.{k}.slowdown_p50"), sim.slowdown_p50);
            layers.set(&format!("transport.{k}.slowdown_p99"), sim.slowdown_p99);
        }
        let arrivals = t.agg(Span::FaultsOnArrival);
        layers.set("faults.on_arrival_ns", per_call(Span::FaultsOnArrival));
        layers.set("faults.on_arrival_calls", arrivals.count as f64);
        layers.set("faults.loss_ratio", ratio(arrivals.marked as f64, arrivals.count as f64));
    }
    if let Some(scope) = traced.extras.scope {
        layers.set("scope.record_ns", per_call(Span::ScopeRecord));
        layers.set("scope.records", scope.records as f64);
        layers.set("scope.doc_build_s", scope.doc_build_s);
    }
}
