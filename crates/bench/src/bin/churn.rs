//! CLI wrapper for the replication-payoff churn study.
//!
//! ```text
//! churn [--out PATH]
//! ```
//!
//! Writes [`sqo_bench::churn::artifact`] of the default sweep (the
//! `generated` metadata, then one point per crash level × repair mode) to
//! `PATH` (default `BENCH_churn.json`) and prints a table to stdout. The
//! committed `BENCH_churn.json` at the repository root is this output,
//! byte for byte; `tests/bench_churn.rs` fails when it is not, then pins
//! the repair payoff the file shows.

use sqo_bench::churn::{artifact, render, run_churn_bench, ChurnBenchConfig};
use sqo_bench::meta::write_or_exit;

fn usage() -> ! {
    eprintln!("usage: churn [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ChurnBenchConfig::default();
    let mut out = String::from("BENCH_churn.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => out = path.clone(),
                    None => {
                        eprintln!("--out needs a path");
                        usage();
                    }
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    let points = run_churn_bench(&cfg);
    print!("{}", render(&points));

    write_or_exit("churn", &out, &artifact(&cfg, &points));
    eprintln!("wrote {} points to {out}", points.len());
}
