//! Cross-scheme shape regressions on the Fig. 10/17 rows' own reports: the
//! relative orderings the paper's evaluation establishes must hold in the
//! reproduction. The rows run through the library exactly as `dcp <row>`
//! runs them; the 5 % DCP-vs-GBN check is the Fig. 10 row's predicate.

use dcp_bench::rows::ROWS;
use dcp_bench::{Args, Report};

fn report(name: &str) -> Report {
    let row = ROWS.iter().find(|r| r.name == name).expect("row in table");
    (row.run)(&Args::default())
}

#[test]
fn fig17_ordering_dcp_rack_irn_timeout() {
    // Fig. 17 at 2% loss: DCP > RACK-TLP > IRN > timeout-only.
    let r = report("fig17_loss_schemes");
    let [dcp, rack, irn, timeout] = ["DCP", "RACK-TLP", "IRN", "Timeout"].map(|s| r.get(s, "0.02"));
    assert!(dcp > rack, "DCP {dcp:.1} vs RACK {rack:.1}");
    assert!(rack > irn, "RACK {rack:.1} vs IRN {irn:.1}");
    assert!(irn > timeout, "IRN {irn:.1} vs timeout {timeout:.1}");
}

#[test]
fn clean_fabric_all_schemes_near_line_rate() {
    let (fig10, fig17) = (report("fig10_loss_recovery"), report("fig17_loss_schemes"));
    let clean = [
        ("GBN", fig10.get("CX5(GBN)", "0")),
        ("DCP", fig10.get("DCP", "0")),
        ("DCP", fig17.get("DCP", "0")),
        ("RACK-TLP", fig17.get("RACK-TLP", "0")),
        ("IRN", fig17.get("IRN", "0")),
        ("Timeout", fig17.get("Timeout", "0")),
    ];
    for (scheme, g) in clean {
        assert!(g > 80.0, "{scheme} clean goodput {g:.1}");
    }
}
