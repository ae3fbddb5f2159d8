//! `validate_metrics` — checks `--metrics-out` documents against the
//! checked-in JSON schema. CI runs this on a fresh `dcp_sim` export so a
//! field rename or shape change in the exporter fails the build instead of
//! silently breaking downstream consumers.
//!
//! ```text
//! USAGE: dcp validate_metrics <schema.json> <metrics.json>...
//! ```
//!
//! Exit code 0 when every document parses and validates; 1 otherwise, with
//! one `path: error` line per violation.

use crate::{Args, Report};
use dcp_telemetry::Json;

pub fn run(args: &Args) -> Report {
    let args = args.positional();
    if args.len() < 2 {
        eprintln!("usage: dcp validate_metrics <schema.json> <metrics.json>...");
        std::process::exit(2);
    }
    let schema_src = std::fs::read_to_string(&args[0])
        .unwrap_or_else(|e| panic!("read schema {}: {e}", args[0]));
    let schema = Json::parse(&schema_src).expect("parse schema");

    let mut failed = false;
    for path in &args[1..] {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let parsed = Json::parse(&src).inspect_err(|e| eprintln!("{path}: parse error: {e}"));
        let Ok(doc) = parsed else {
            failed = true;
            continue;
        };
        let errors = doc.validate(&schema);
        if errors.is_empty() {
            let runs = doc.get("runs").and_then(|r| r.as_arr()).map(|r| r.len()).unwrap_or(0);
            println!("{path}: OK ({runs} runs)");
        } else {
            failed = true;
            for e in &errors {
                eprintln!("{path}: {e}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    Report::default()
}
