//! The paper's shapes at quick scale, for every row cheap enough for
//! tier-1: each row runs through the library exactly as `dcp <row>` runs
//! it, and its predicate must hold. The expensive rows are checked by
//! `dcp all` in CI.

use dcp_bench::rows::ROWS;
use dcp_bench::Args;

/// Rows whose quick scale costs more than a few seconds each.
const EXPENSIVE: [&str; 5] =
    ["fig02_timeouts", "fig14_ai_sim", "fig15_cross_dc", "fig16_incast_cc", "table5_ho_loss"];

fn holds(name: &str) {
    let row = ROWS.iter().find(|r| r.name == name).expect("row in table");
    let shape = row.shape.expect("row has a shape");
    if let Err(e) = shape(&(row.run)(&Args::default())) {
        panic!("{name}: paper shape does not hold: {e}");
    }
}

macro_rules! shapes {
    ($($row:ident),* $(,)?) => {
        const CHEAP: &[&str] = &[$(stringify!($row)),*];
        $(#[test] fn $row() { holds(stringify!($row)); })*
    };
}

shapes!(
    table1_lossless_distance,
    table3_tracking_memory,
    table4_resources,
    fig07_packet_rate,
    fig01_spurious_retx,
    fig08_perftest,
    fig10_loss_recovery,
    fig11_unequal_paths,
    fig12_testbed_ai,
    fig13_websearch,
    fig17_loss_schemes,
    ablation_retrans_batch,
    ablation_wrr_weight,
    ablation_lb_compat,
    ablation_ho_return,
    deepdive_queues,
);

/// `deepdive_queues` samples the victim port from the driving loop itself;
/// its report is pinned exactly so a change to how the queues are read
/// cannot move a sample unnoticed.
#[test]
fn deepdive_queues_report_is_pinned() {
    let row = ROWS.iter().find(|r| r.name == "deepdive_queues").expect("row in table");
    let r = (row.run)(&Args::default());
    let got = [
        r.get("bytes", "data peak"),
        r.get("bytes", "ctrl peak"),
        r.get("bytes", "data p50"),
        r.get("count", "trims"),
        r.get("count", "HO drops"),
    ];
    assert_eq!(
        got,
        [65820.0, 513.0, 63999.0, 286581.0, 0.0],
        "data peak, ctrl peak, data p50, trims, HO drops"
    );
}

/// Runs row `name` and asserts its report column by column: exactly the
/// row labels of `want`, in order, each with its values for `cols`.
fn assert_report(name: &str, cols: &[&str], want: &[(&str, &[f64])]) {
    let row = ROWS.iter().find(|r| r.name == name).expect("row in table");
    let r = (row.run)(&Args::default());
    for (i, col) in cols.iter().enumerate() {
        let got: Vec<(&str, f64)> = r.column(col).collect();
        let want: Vec<(&str, f64)> = want.iter().map(|(label, v)| (*label, v[i])).collect();
        assert_eq!(got, want, "{name} column {col:?}");
    }
}

/// Tables 1, 3, 4 and Fig. 7 print closed forms over constants, so every
/// cell of their reports is pinned exactly: moving a formula cannot move a
/// number unnoticed.
#[test]
fn closed_form_reports_are_pinned() {
    assert_report(
        "table1_lossless_distance",
        &["MB", "km1", "km8"],
        &[
            ("Tomahawk 3", &[0.5, 4.194304, 0.524288]),
            ("Tomahawk 5", &[0.322265625, 2.70336, 0.33792]),
            ("Tofino 1", &[0.625, 5.24288, 0.65536]),
            ("Tofino 2", &[0.5, 4.194304, 0.524288]),
            ("Spectrum", &[0.5, 4.194304, 0.524288]),
            ("Spectrum-4", &[0.3125, 2.62144, 0.32768]),
        ],
    );
    assert_report(
        "table3_tracking_memory",
        &["BDP", "chunk min", "DCP"],
        &[("Per-QP", &[61.0, 40.0, 24.0]), ("10k QPs", &[610000.0, 400000.0, 240000.0])],
    );
    let flat = [150.0, 150.0, 300.0];
    assert_report(
        "fig07_packet_rate",
        &["BDP", "chunk", "DCP"],
        &[
            ("0", &flat),
            ("64", &flat),
            ("128", &[150.0, 75.0, 300.0]),
            ("192", &[150.0, 75.0, 300.0]),
            ("256", &[150.0, 50.0, 300.0]),
            ("320", &[150.0, 50.0, 300.0]),
            ("384", &[150.0, 37.5, 300.0]),
            ("448", &[150.0, 37.5, 300.0]),
        ],
    );
    assert_report(
        "table4_resources",
        &["total"],
        &[("RNIC-GBN", &[80.0]), ("RNIC-SR (IRN)", &[203.0]), ("DCP-RNIC", &[104.0])],
    );
}

/// Every figure, table and ablation row has a shape, and each is checked
/// here or named as expensive.
#[test]
fn every_paper_row_has_a_shape_checked_somewhere() {
    for row in ROWS {
        let paper =
            ["fig", "table", "ablation", "deepdive"].iter().any(|p| row.name.starts_with(p));
        assert_eq!(row.shape.is_some(), paper, "{}", row.name);
        let covered = CHEAP.contains(&row.name) || EXPENSIVE.contains(&row.name);
        assert_eq!(covered, paper, "{}", row.name);
    }
}
