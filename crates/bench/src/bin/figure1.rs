//! Regenerates the §6 evaluation: Figure 1 (all four panels, split by
//! operator and leg kind, carried values off and on), the §2 routing cost,
//! the §8 storage overhead and the A1–A5 ablations.
//!
//! ```text
//! figure1 [--full] [--out PATH]
//! ```
//!
//! Writes [`sqo_bench::figure1::artifact`] to `PATH` (default
//! `BENCH_figure1.json`) and prints every table of it to stdout. The
//! committed `BENCH_figure1.json` at the repository root is the default
//! run's output, byte for byte; `tests/bench_figure1.rs` fails when it is
//! not. `--full` is paper scale (`docs/FIGURE1.md`). The output file is
//! created before the sweep runs, so an unwritable path fails at once.

use sqo_bench::figure1::{artifact, render, run_figure1, Figure1Config};
use sqo_bench::meta::write_or_exit;

fn usage() -> ! {
    eprintln!("usage: figure1 [--full] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Figure1Config::default();
    let mut out = String::from("BENCH_figure1.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => cfg = Figure1Config::full(),
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--help" | "-h" => {
                println!("usage: figure1 [--full] [--out PATH]");
                return;
            }
            other => {
                eprintln!("figure1: unknown argument {other:?}");
                usage();
            }
        }
        i += 1;
    }

    write_or_exit("figure1", &out, "");
    let sweep = run_figure1(&cfg, |c| {
        eprintln!(
            "  [{:?} {} n={:>6} {:<8} {:<5}] {:>9.1} msgs/q {:>9.2} KiB/q",
            c.dataset, c.carry, c.peers, c.strategy, c.operator, c.messages, c.kib
        );
    });
    print!("{}", render(&sweep));
    write_or_exit("figure1", &out, &artifact(&cfg, &sweep));
    eprintln!("wrote {} cells to {out}", sweep.cells.len());
}
