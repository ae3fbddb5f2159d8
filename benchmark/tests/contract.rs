//! `BENCHMARK.json` and the binary must say the same thing, inside the
//! driver contract's limits.

use dcp_benchmark::kernels::KERNELS;
use dcp_benchmark::spec::{self, END_TO_END, PER_LAYER};
use dcp_benchmark::workloads::Workload;
use dcp_telemetry::Json;
use std::collections::HashSet;

fn valid_name(name: &str) -> bool {
    let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_is_the_binary_s_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate with `-- list --json > BENCHMARK.json`"
    );
}

#[test]
fn names_units_and_caps_fit_the_contract() {
    assert!((2..=8).contains(&Workload::ALL.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&spec::RUN_SECONDS));
    assert!(spec::command().len() <= 32);
    assert!(spec::command()
        .iter()
        .all(|a| a.len() <= 200 && !a.starts_with('/') && !a.contains("..")));

    let mut seen = HashSet::new();
    for w in Workload::ALL {
        assert!(valid_name(w.name()), "workload name {:?}", w.name());
        assert!(seen.insert(w.name()), "{} used twice", w.name());
        let why = spec::why(w);
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{}: why is {} chars",
            w.name(),
            why.len()
        );
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    for m in END_TO_END {
        assert!(valid_name(m.name) && valid_unit(m.unit), "{} / {}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} used twice", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
    }
    for m in PER_LAYER {
        assert!(valid_name(m.name) && valid_unit(m.unit), "{} / {}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} used twice", m.name);
        assert!(m.name.starts_with(m.layer), "{} is not under layer {}", m.name, m.layer);
    }
    let setup = spec::end_to_end("setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
}

#[test]
fn every_kernel_metric_has_a_kernel_and_the_other_way_round() {
    let in_table: HashSet<&str> = PER_LAYER.iter().filter(|m| m.kernel).map(|m| m.name).collect();
    let runnable: HashSet<&str> = KERNELS.iter().map(|k| k.metric).collect();
    assert_eq!(in_table, runnable);
}

#[test]
fn list_prints_every_name() {
    let text = spec::list_text();
    for w in Workload::ALL {
        assert!(text.contains(w.name()));
    }
    for name in END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)) {
        assert!(text.contains(name), "list lacks {name}");
    }
}
