//! The benchmark's command line.
//!
//! ```text
//! dcp-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! dcp-benchmark all [--seed N] [--runs K] [--out FILE]          every workload, bare + traced
//! dcp-benchmark kernels                                         the layer kernels alone
//! dcp-benchmark list [--json]                                   the contract tables
//! dcp-benchmark compare A.json B.json                           bounds applied to two sets
//! ```

use dcp_benchmark::run;
use dcp_benchmark::workloads::Workload;
use dcp_benchmark::{compare, kernels, spec};
use dcp_telemetry::Json;
use std::process::{Command, ExitCode};

/// `--name value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a.strip_prefix("--").ok_or_else(|| format!("unexpected argument {a:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => Flags::parse(&args[1..]).and_then(|f| all(&f)),
        Some("kernels") => {
            for (name, ns) in kernels::run_all() {
                println!("{name:<44} {ns:>12.2} ns");
            }
            Ok(true)
        }
        Some("list") => {
            if args.get(1).map(String::as_str) == Some("--json") {
                print!("{}", spec::benchmark_json().render_pretty());
            } else {
                print!("{}", spec::list_text());
            }
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => Err("compare takes two result files".into()),
        },
        Some(a) if a.starts_with("--") => Flags::parse(&args).and_then(|f| one_run(&f)),
        _ => Err("usage: --workload W --seed N --seconds S --trace 0|1 | all | kernels | list [--json] | compare A B".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// The driver's form: one run of one workload, the result as the last line
/// of standard output.
fn one_run(f: &Flags) -> Result<bool, String> {
    f.only(&["workload", "seed", "seconds", "trace", "scale"])?;
    let name: String = f.get("workload", String::new())?;
    let w = Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = f.get("seed", 1)?;
    let seconds: u64 = f.get("seconds", spec::RUN_SECONDS)?;
    let scale: f64 = f.get("scale", 1.0)?;
    if !(scale > 0.0 && scale <= 4.0) {
        return Err(format!("--scale {scale} outside (0, 4]"));
    }
    let outcome = match f.get::<u8>("trace", 0)? {
        0 => run::run_bare(w, seed, seconds, scale),
        1 => run::run_traced(w, seed, scale),
        t => return Err(format!("--trace {t}: 0 or 1")),
    };
    for p in &outcome.problems {
        eprintln!("{}: {p}", w.name());
    }
    println!("{}", outcome.to_json().render());
    Ok(outcome.correct)
}

/// Runs this binary on one workload in a child process (so `peak_rss_mb`
/// is the workload's own) and reads its result line back.
fn child_run(w: Workload, seed: u64, seconds: u64, scale: f64, trace: u8) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", &trace.to_string()])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let (human, last) = match stdout.trim_end().rsplit_once('\n') {
        Some((head, last)) => (head, last),
        None => ("", stdout.trim_end()),
    };
    if !human.is_empty() {
        println!("{human}");
    }
    let json = Json::parse(last).map_err(|e| format!("{}: no result line ({e})", w.name()))?;
    if !out.status.success() || json.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{} (trace {trace}, seed {seed}) failed its output checks", w.name()));
    }
    Ok(json)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload: `runs` bare runs (seeds `seed`, `seed + 1`, …), then one
/// traced run; prints every metric by name with its unit and writes the set
/// `compare` reads.
fn all(f: &Flags) -> Result<bool, String> {
    f.only(&["seed", "runs", "seconds", "scale", "out"])?;
    let seed: u64 = f.get("seed", 1)?;
    let runs: u64 = f.get("runs", 1)?;
    let seconds: u64 = f.get("seconds", spec::RUN_SECONDS)?;
    let scale: f64 = f.get("scale", 1.0)?;
    let out_path: String =
        f.get("out", run::out_dir().join("results.json").to_string_lossy().into_owned())?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "dcp-benchmark: {} workloads, {runs} run(s) each from seed {seed}, nproc {nproc}",
        Workload::ALL.len()
    );

    let mut bare_sets = Json::obj();
    let mut layer_sets = Json::obj();
    for w in Workload::ALL {
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for r in 0..runs {
            let result = child_run(w, seed + r, seconds, scale, 0)?;
            for (m, vals) in spec::END_TO_END.iter().zip(&mut series) {
                vals.push(
                    metric_value(&result, m.name)
                        .ok_or_else(|| format!("{} lacks {}", w.name(), m.name))?,
                );
            }
        }
        let mut metrics = Json::obj();
        for (m, vals) in spec::END_TO_END.iter().zip(&series) {
            let q = dcp_benchmark::stats::Quartiles::of(vals);
            println!(
                "{:<20} {:<18} {:>14.6} {:<6} (q1 {:.6}, q3 {:.6}, n {})",
                w.name(),
                m.name,
                q.median,
                m.unit,
                q.q1,
                q.q3,
                q.n
            );
            metrics =
                metrics.set(m.name, Json::Arr(vals.iter().copied().map(Json::from).collect()));
        }
        bare_sets = bare_sets.set(w.name(), metrics);
    }
    for w in Workload::ALL {
        let result = child_run(w, seed, seconds, scale, 1)?;
        let mut metrics = Json::obj();
        for m in spec::PER_LAYER {
            let v = metric_value(&result, m.name)
                .ok_or_else(|| format!("{} lacks {}", w.name(), m.name))?;
            println!("{:<20} {:<42} {:>16.4} {}", w.name(), m.name, v, m.unit);
            metrics = metrics.set(m.name, v);
        }
        layer_sets = layer_sets.set(w.name(), metrics);
    }
    let doc = Json::obj()
        .set("seed", seed)
        .set("runs", runs)
        .set("nproc", nproc)
        .set("workloads", bare_sets)
        .set("per_layer", layer_sets);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, doc.render_pretty())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(true)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|s| Json::parse(&s).map_err(|e| format!("{p}: {e}")))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (regressed, unresolved) =
        (count(compare::Verdict::Regressed), count(compare::Verdict::Unresolved));
    println!("{regressed} regressed, {unresolved} unresolved, {} pairs", rows.len());
    Ok(regressed == 0)
}
