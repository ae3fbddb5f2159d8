//! The benchmark checked against itself, at a scale that takes seconds.

use dcp_benchmark::run;
use dcp_benchmark::spec::{END_TO_END, PER_LAYER};
use dcp_benchmark::trace::{self, Span};
use dcp_benchmark::workloads::{Mode, Workload};

const SCALE: f64 = 0.03;

fn bare(w: Workload, seed: u64) -> dcp_benchmark::workloads::Rep {
    let rep = w.run_rep(seed, SCALE, Mode::Bare);
    assert_eq!(rep.violations(), Vec::<String>::new(), "{}", w.name());
    assert_eq!(rep.failed(), 0, "{}: every op completes", w.name());
    assert!(rep.attempted() > 0 && rep.events() > 0);
    rep
}

#[test]
fn every_workload_runs_and_is_a_function_of_its_seed() {
    for w in Workload::ALL {
        let (a, again, other) = (bare(w, 7), bare(w, 7), bare(w, 8));
        assert_eq!(a.digest(), again.digest(), "{}: same seed, same digest", w.name());
        assert_eq!(a.events(), again.events());
        assert_ne!(a.digest(), other.digest(), "{}: the digest depends on the seed", w.name());
    }
}

#[test]
fn the_wrappers_are_passive_and_self_times_add_up() {
    for w in Workload::ALL {
        let plain = bare(w, 11);
        trace::enable();
        let traced = w.run_rep(11, SCALE, Mode::Traced);
        let report = trace::finish();
        assert_eq!(traced.violations(), Vec::<String>::new(), "{} traced", w.name());
        assert_eq!(
            traced.events(),
            plain.events(),
            "{}: wrappers changed the event count",
            w.name()
        );
        assert_eq!(traced.digest(), plain.digest(), "{}: wrappers changed the digest", w.name());

        // Every span lies under `rep`, so the self times partition its
        // duration; under `run` likewise for the spans a run opens.
        let all_self: u64 = Span::ALL.iter().map(|&s| report.agg(s).self_ns).sum();
        let rep_total = report.agg(Span::Rep).total_ns;
        assert!(rep_total > 0);
        let gap = all_self.abs_diff(rep_total) as f64 / rep_total as f64;
        assert!(gap < 0.01, "{}: self times sum to {all_self}, rep took {rep_total}", w.name());
        if w != Workload::Allreduce1024Sh8 {
            assert!(
                report.agg(Span::CorePull).count > 0,
                "{}: DCP endpoints are wrapped",
                w.name()
            );
        }
    }
}

#[test]
fn scope_capture_sees_the_same_event_stream() {
    let plain = bare(Workload::IncastTrim, 5);
    let scoped = bare(Workload::IncastTrimScope, 5);
    assert_eq!(plain.events(), scoped.events());
    assert_eq!(plain.digest(), scoped.digest());
    let report = scoped.extras.scope.expect("the scope variant reports its capture");
    assert!(report.records > 0, "the capture recorded nothing");
}

#[test]
fn lossy_mix_injects_loss_and_runs_all_four_transports() {
    let rep = bare(Workload::LossyMix, 3);
    let labels: Vec<&str> = rep.runs.iter().map(|r| r.label).collect();
    assert_eq!(labels, ["irn", "racktlp", "ec", "dcp"]);
    let net = rep.net();
    assert!(net.fault_drops + net.trims > 0, "the loss plan never fired");
}

#[test]
fn a_run_prints_exactly_the_contract_s_metrics() {
    let bare = run::run_bare(Workload::IncastTrim, 2, 1, SCALE);
    assert!(bare.correct, "{:?}", bare.problems);
    let names: Vec<&str> = bare.metrics.iter().map(|m| m.0).collect();
    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    assert!(
        bare.metrics.iter().all(|m| m.1 > 0.0),
        "no end-to-end metric reads 0: {:?}",
        bare.metrics
    );
    assert_eq!(run::run_bare(Workload::IncastTrim, 2, 1, SCALE).sim_digest, bare.sim_digest);

    let traced = run::run_traced(Workload::LossyMix, 2, SCALE);
    assert!(traced.correct, "{:?}", traced.problems);
    let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
    assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    let value = |n: &str| traced.metrics.iter().find(|m| m.0 == n).unwrap().1;
    assert!(value("faults.on_arrival_calls") > 0.0);
    assert!(value("transport.irn.ns_per_call") > 0.0);
    assert_eq!(value("check.violations"), 0.0);
    assert!(run::out_dir().join("trace_lossy_mix.json").exists());
}
