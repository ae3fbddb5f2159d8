//! `-- compare A.json B.json`: the bounds of `BENCHMARK.json` applied to
//! two sets of runs, one row per (workload, end-to-end metric).
//!
//! A set is what `-- all --runs K` writes: K values of every end-to-end
//! metric per workload. B regresses on a pair when its median is worse than
//! A's by more than the metric's bound. When either side's own
//! inter-quartile spread exceeds the bound, the pair is *unresolved*: the
//! runs cannot tell a change of that size from noise, and saying
//! "unchanged" would be a claim the data does not support.

use crate::spec::{Better, END_TO_END};
use crate::stats::Quartiles;
use crate::workloads::Workload;
use dcp_telemetry::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    Unresolved,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: Quartiles,
    pub b: Quartiles,
    /// How much worse B's median is, as a share of A's (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn values(set: &Json, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|m| m.get(metric))
        .and_then(Json::as_arr)
        .map(|arr| arr.iter().filter_map(Json::as_f64).collect::<Vec<f64>>())
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("no values for {workload}/{metric}"))
}

/// One row per (workload, metric) present in both sets.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in Workload::ALL {
        for m in END_TO_END {
            let qa = Quartiles::of(&values(a, w.name(), m.name)?);
            let qb = Quartiles::of(&values(b, w.name(), m.name)?);
            let delta = (qb.median - qa.median) / qa.median.abs().max(f64::MIN_POSITIVE);
            let worse_by = match m.better {
                Better::Lower => delta,
                Better::Higher => -delta,
            };
            let verdict = if qa.spread() > m.bound || qb.spread() > m.bound {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Regressed
            } else if worse_by < -m.bound {
                Verdict::Improved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: w.name(),
                metric: m.name,
                a: qa,
                b: qb,
                worse_by,
                bound: m.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<18} {:>12} {:>8} {:>12} {:>8} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "worse%", "bound%"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:<18} {:>12.6} {:>8.2} {:>12.6} {:>8.2} {:>+9.2} {:>6.1}  {}\n",
            r.workload,
            r.metric,
            r.a.median,
            r.a.spread() * 100.0,
            r.b.median,
            r.b.spread() * 100.0,
            r.worse_by * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    out.push_str(&format!("(n = {} runs in A, {} in B)\n", rows[0].a.n, rows[0].b.n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(wall: &[f64]) -> Json {
        let mut workloads = Json::obj();
        for w in Workload::ALL {
            let mut metrics = Json::obj();
            for m in END_TO_END {
                let vals = if m.name == "wall_s" { wall.to_vec() } else { vec![1.0; wall.len()] };
                metrics =
                    metrics.set(m.name, Json::Arr(vals.into_iter().map(Json::from).collect()));
            }
            workloads = workloads.set(w.name(), metrics);
        }
        Json::obj().set("workloads", workloads)
    }

    fn wall_verdict(a: &[f64], b: &[f64]) -> Verdict {
        let rows = compare(&set(a), &set(b)).unwrap();
        rows.iter().find(|r| r.metric == "wall_s").unwrap().verdict
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let bound = crate::spec::end_to_end("wall_s").unwrap().bound;
        let around = |c: f64| [c, c * 1.005, c * 0.995, c, c * 1.01];
        let steady = around(2.0);
        assert_eq!(wall_verdict(&steady, &steady), Verdict::Ok);
        assert_eq!(wall_verdict(&steady, &around(2.0 * (1.1 + bound))), Verdict::Regressed);
        assert_eq!(wall_verdict(&steady, &around(2.0 * (0.9 - bound))), Verdict::Improved);
        // A side whose own runs spread wider than the bound proves nothing.
        assert_eq!(wall_verdict(&steady, &[1.5, 2.0, 2.5, 3.0, 3.5]), Verdict::Unresolved);
    }
}
