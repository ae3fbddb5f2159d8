//! `dcp dcp_sim` refuses a value it cannot use before it runs anything:
//! exit 2, `key=value` named on stderr, nothing on stdout. `dcp dcp_trace`
//! refuses a trace it cannot read or a file it cannot write the same way,
//! naming the path.

use std::process::{Command, Output};

/// Asserts `dcp argv` exited 2 with nothing on stdout and `named` on stderr.
fn assert_refused(out: &Output, argv: &str, named: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "dcp {argv}: {err}");
    assert!(out.stdout.is_empty(), "dcp {argv} printed on stdout");
    assert!(err.contains(named), "dcp {argv}: {err}");
}

#[test]
fn dcp_sim_refuses_bad_values_by_name() {
    for (argv, named) in [
        ("spines=abc", "spines=abc"),
        ("load=high", "load=high"),
        ("delay_us=-1", "delay_us=-1"),
        ("transport=bogus", "transport=bogus"),
        ("lb=bogus", "lb=bogus"),
        ("cc=bogus", "cc=bogus"),
        ("topo=bogus", "topo=bogus"),
        ("spines=0", "spines=0"),
        ("leaves=1 hosts=1", "hosts=1"),
        // The default 4×4×4 CLOS has 16 hosts: 16 senders leave no victim.
        ("transport=dcp incast=16 flows=200", "incast=16"),
        ("topo=testbed incast=20", "incast=20"),
        // Seeds 2^64 - 1 and 0 are not a range of two seeds.
        ("seed=18446744073709551615 runs=2 flows=5", "seed=18446744073709551615 runs=2"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dcp"))
            .arg("dcp_sim")
            .args(argv.split(' '))
            .output()
            .expect("run dcp");
        assert_refused(&out, &format!("dcp_sim {argv}"), named);
        if named.starts_with("incast") {
            let err = String::from_utf8_lossy(&out.stderr);
            let need = format!("{} hosts", named[7..].parse::<usize>().unwrap() + 1);
            assert!(err.contains(&need), "dcp_sim {argv}: {err}");
        }
    }
}

#[test]
fn dcp_trace_refuses_unreadable_and_unwritable_paths_by_name() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_refusals");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("empty.jsonl");
    std::fs::write(&trace, "").unwrap();
    let trace = trace.to_str().unwrap();
    let missing = dir.join("no_such_dir");
    let missing = missing.to_str().unwrap();
    for argv in [
        format!("{missing}/trace.jsonl"),
        format!("{trace} --perfetto {missing}/perfetto.json"),
        format!("{trace} --spans {missing}/spans.json"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dcp"))
            .arg("dcp_trace")
            .args(argv.split(' '))
            .output()
            .expect("run dcp");
        assert_refused(&out, &format!("dcp_trace {argv}"), missing);
    }
}
