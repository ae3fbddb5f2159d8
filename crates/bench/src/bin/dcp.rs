//! `dcp` — every table, figure, ablation and harness of the reproduction,
//! one row each: `dcp <row> [flags]`, or `dcp all` for every paper shape at
//! quick scale. See `dcp_bench::cli`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(dcp_bench::cli::main(&argv));
}
