//! The `dcp` command line over the scenario table in [`crate::rows`]:
//! `dcp <row> [flags]` refuses (exit 2) any argument the row does not list,
//! runs the row, and — at quick scale, for a row with a shape — checks the
//! paper's shape on the [`Report`] it returns, naming a failing predicate
//! on stderr with exit 1. `dcp all` does that for every row with a shape.

use crate::rows::ROWS;
use crate::Scale;

/// A flag a row accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--name`: present or not.
    Switch(&'static str),
    /// `--name V`, `--name=V` or `name=V` (dashes as underscores); read
    /// with [`Args::get`].
    Value(&'static str),
    /// Bare arguments (input files).
    Positional,
}

/// `--full`: the paper's scale, for the rows that have one.
pub const FULL: Flag = Flag::Switch("full");

/// A row's command line, checked against its flags.
#[derive(Debug, Default)]
pub struct Args {
    /// Every flag given, in order, with its value (`None` for a switch).
    given: Vec<(&'static str, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    /// Accepts `argv` when every argument is one of `flags` in any of its
    /// spellings, the value of one, or — for a row that takes them — a bare
    /// argument; otherwise names the first argument that is none of these.
    pub fn parse(flags: &[Flag], argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let (name, inline) = match (a.strip_prefix("--"), a.split_once('=')) {
                (Some(body), _) => body.split_once('=').map_or((body, None), |(n, v)| (n, Some(v))),
                (None, Some((key, v))) => (key, Some(v)),
                (None, None) if flags.contains(&Flag::Positional) => {
                    args.positional.push(a.clone());
                    continue;
                }
                (None, None) => return Err(format!("unexpected argument {a:?}")),
            };
            // `-` and `_` are the same in a name: `metrics_out=` is `--metrics-out`.
            let same = |n: &str| n.replace('-', "_") == name.replace('-', "_");
            match flags.iter().find(|f| matches!(f, Flag::Switch(n) | Flag::Value(n) if same(n))) {
                Some(Flag::Switch(n)) if inline.is_none() => args.given.push((n, None)),
                Some(Flag::Value(n)) => {
                    let v = inline.or_else(|| it.next().map(String::as_str));
                    let v = v.ok_or(format!("{a} needs a value"))?;
                    args.given.push((n, Some(v.to_string())));
                }
                _ => return Err(format!("does not take {a}")),
            }
        }
        Ok(args)
    }

    /// Whether flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|g| g.0 == name)
    }

    /// The value of flag `name` (the first, if given twice), in whichever
    /// spelling it was given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.given.iter().find(|g| g.0 == name).and_then(|g| g.1.as_deref())
    }

    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    pub fn scale(&self) -> Scale {
        if self.has("full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }
}

/// The numbers a row printed, one per (row label, column label).
#[derive(Debug, Default)]
pub struct Report {
    cells: Vec<(String, String, f64)>,
}

impl Report {
    /// Records `row`'s `(column, value)` cells; a missing value (`None`, a
    /// point printed as `n/a`) is stored as NaN.
    pub fn put<C: ToString, V: Into<Option<f64>>>(
        &mut self,
        row: impl ToString,
        cells: impl IntoIterator<Item = (C, V)>,
    ) {
        for (col, v) in cells {
            let v = v.into().unwrap_or(f64::NAN);
            self.cells.push((row.to_string(), col.to_string(), v));
        }
    }

    /// The value at `(row, col)`; NaN for a missing point or one never put,
    /// so every comparison on it fails.
    pub fn get(&self, row: &str, col: &str) -> f64 {
        self.cells.iter().find(|c| c.0 == row && c.1 == col).map_or(f64::NAN, |c| c.2)
    }

    /// Every `(row label, value)` of column `col`, in the order put.
    pub fn column<'a>(&'a self, col: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.cells.iter().filter(move |c| c.1 == col).map(|c| (c.0.as_str(), c.2))
    }
}

/// Fails a shape predicate with the condition's source text and the values
/// that decided it.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!("{} ({})", stringify!($cond), format!($($msg)+)));
        }
    };
}

/// A shape predicate: `Err` names what does not hold.
pub type Shape = fn(&Report) -> Result<(), String>;

/// One scenario of the table.
pub struct Row {
    /// `dcp <name>`.
    pub name: &'static str,
    /// Every flag the row accepts; any other argument exits 2.
    pub flags: &'static [Flag],
    /// Prints the experiment and returns the numbers it printed that the
    /// shape reads.
    pub run: fn(&Args) -> Report,
    /// The paper's shape as it holds at quick scale.
    pub shape: Option<Shape>,
}

impl Row {
    /// Runs the row, then checks its shape unless `--full` was given;
    /// returns the process exit code.
    pub fn exec(&self, args: &Args) -> i32 {
        let report = (self.run)(args);
        match self.shape.filter(|_| args.scale() == Scale::Quick).map(|shape| shape(&report)) {
            Some(Err(e)) => {
                eprintln!("{}: paper shape does not hold: {e}", self.name);
                1
            }
            _ => 0,
        }
    }
}

/// `dcp <row> [flags]` or `dcp all`; returns the process exit code.
pub fn main(argv: &[String]) -> i32 {
    let Some(name) = argv.first() else { return usage() };
    if name == "all" && argv.len() == 1 {
        return all();
    }
    let Some(row) = ROWS.iter().find(|r| r.name == name) else { return usage() };
    match Args::parse(row.flags, &argv[1..]) {
        Ok(args) => row.exec(&args),
        Err(e) => {
            eprintln!("error: {name} {e}");
            2
        }
    }
}

/// Every row with a shape, at quick scale; exits 1 if any shape fails.
fn all() -> i32 {
    let mut failed = Vec::new();
    for row in ROWS.iter().filter(|r| r.shape.is_some()) {
        println!("==> dcp {}", row.name);
        if row.exec(&Args::default()) != 0 {
            failed.push(row.name);
        }
        println!();
    }
    let n = ROWS.iter().filter(|r| r.shape.is_some()).count();
    println!("paper shapes at quick scale: {} of {n} hold; failing: {failed:?}", n - failed.len());
    i32::from(!failed.is_empty())
}

fn usage() -> i32 {
    let names: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
    eprintln!("usage: dcp <row> [flags] | dcp all\nrows: {}", names.join(" "));
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    fn row(name: &str) -> &'static Row {
        ROWS.iter().find(|r| r.name == name).expect("row in table")
    }

    /// Every flag a row does not list is refused, not only the export ones.
    #[test]
    fn unlisted_flags_and_keys_are_refused() {
        let fig10 = row("fig10_loss_recovery").flags;
        for bad in [&["--full"][..], &["--quick"], &["--metrics-out", "m.json"], &["x"], &["k=v"]] {
            assert!(Args::parse(fig10, &argv(bad)).is_err(), "{bad:?}");
        }
        assert!(Args::parse(row("fig13_websearch").flags, &argv(&["--full"])).is_ok());
        assert!(Args::parse(row("soak").flags, &argv(&["--out"])).is_err(), "missing value");
    }

    /// `dcp_sim flow=30` used to run 400 flows and exit 0: a misspelt key is
    /// refused by name.
    #[test]
    fn dcp_sim_refuses_an_unknown_key() {
        let flags = row("dcp_sim").flags;
        let err = Args::parse(flags, &argv(&["flow=30", "seed=1"])).expect_err("unknown key");
        assert!(err.contains("flow=30"), "{err}");
        let ok = ["flows=30", "delay_us=2", "--trace-out", "t"];
        let args = Args::parse(flags, &argv(&ok)).expect("listed keys");
        assert_eq!([args.get("flows"), args.get("delay_us")], [Some("30"), Some("2")]);
        assert_eq!(args.get("trace-out"), Some("t"));
    }

    /// `check_matrix --repro-out=PATH` used to write `check_repro.json`:
    /// both repro-writing rows read every spelling of the flag.
    #[test]
    fn repro_out_is_read_in_every_spelling() {
        for name in ["check_matrix", "soak"] {
            for spelling in
                [&["--repro-out=r.json"][..], &["--repro-out", "r.json"], &["repro_out=r.json"]]
            {
                let args = Args::parse(row(name).flags, &argv(spelling)).expect("listed flag");
                assert_eq!(
                    crate::repro_path(&args, "default.json"),
                    "r.json",
                    "{name} {spelling:?}"
                );
            }
        }
    }

    #[test]
    fn report_misses_read_as_nan() {
        let mut r = Report::default();
        r.put("DCP", [(0.05, Some(83.5)), (0.5, None)]);
        assert_eq!(r.get("DCP", "0.05"), 83.5);
        assert!(r.get("DCP", "0.5").is_nan() && r.get("GBN", "0.05").is_nan());
    }

    #[test]
    fn unknown_rows_and_bare_invocations_exit_2() {
        assert_eq!(main(&argv(&["fig99"])), 2);
        assert_eq!(main(&argv(&[])), 2);
        assert_eq!(main(&argv(&["dcp_sim", "flow=30"])), 2);
    }
}
