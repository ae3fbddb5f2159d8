//! `dcp dcp_sim` refuses a value it cannot use before it runs anything:
//! exit 2, `key=value` named on stderr, nothing on stdout.

use std::process::Command;

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
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dcp"))
            .arg("dcp_sim")
            .args(argv.split(' '))
            .output()
            .expect("run dcp");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "dcp_sim {argv}: {err}");
        assert!(out.stdout.is_empty(), "dcp_sim {argv} printed on stdout");
        assert!(err.contains(named), "dcp_sim {argv}: {err}");
        if named.starts_with("incast") {
            let need = format!("{} hosts", named[7..].parse::<usize>().unwrap() + 1);
            assert!(err.contains(&need), "dcp_sim {argv}: {err}");
        }
    }
}
