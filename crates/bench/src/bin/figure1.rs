//! Regenerates Figure 1 of the paper (all four panels).
//!
//! ```text
//! cargo run -p sqo-bench --release --bin figure1 -- [--full] [--smoke]
//!     [--dataset words|titles|both] [--peers 128,512,...]
//!     [--initiations N] [--words-size N] [--titles-size N]
//!     [--csv out.csv] [--json out.json]
//! ```
//!
//! Default is a scaled-down run (about 14–18 s in a release build on two
//! CPUs); `--full` is paper scale (about 11.5 min, run as four processes).

use sqo_bench::figure1::{render_csv, render_tables, run_figure1, Dataset, Figure1Config};
use sqo_bench::meta::write_or_exit;
use sqo_obs::to_json_pretty;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Figure1Config::default();
    let mut csv_out: Option<String> = None;
    let mut json_out: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let take_value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).unwrap_or_else(|| die(&format!("{arg} needs a value"))).clone()
        };
        match arg {
            "--full" => cfg = Figure1Config::full(),
            "--smoke" => cfg = Figure1Config::smoke(),
            "--dataset" => {
                cfg.datasets = match take_value(&mut i).as_str() {
                    "words" => vec![Dataset::Words],
                    "titles" => vec![Dataset::Titles],
                    "both" => vec![Dataset::Words, Dataset::Titles],
                    other => die(&format!("unknown dataset {other:?}")),
                }
            }
            "--peers" => {
                cfg.peer_counts = take_value(&mut i)
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| die("bad peer count")))
                    .collect()
            }
            "--initiations" => {
                cfg.spec.initiations =
                    take_value(&mut i).parse().unwrap_or_else(|_| die("bad initiations"))
            }
            "--words-size" => {
                cfg.words_size =
                    take_value(&mut i).parse().unwrap_or_else(|_| die("bad words size"))
            }
            "--titles-size" => {
                cfg.titles_size =
                    take_value(&mut i).parse().unwrap_or_else(|_| die("bad titles size"))
            }
            "--csv" => csv_out = Some(take_value(&mut i)),
            "--json" => json_out = Some(take_value(&mut i)),
            "--help" | "-h" => {
                println!("see module docs: cargo doc -p sqo-bench --bin figure1");
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    eprintln!(
        "figure1: datasets {:?}, peers {:?}, {} initiations (mix of {} queries each)",
        cfg.datasets,
        cfg.peer_counts,
        cfg.spec.initiations,
        cfg.spec.top_n.len() + cfg.spec.join_distances.len()
    );
    let points = run_figure1(&cfg, |p| {
        eprintln!(
            "  [{:?} n={:>6} {:<8}] {:>9.1} msgs/q {:>9.2} KiB/q",
            p.dataset, p.peers, p.strategy, p.messages_per_query, p.volume_kib_per_query
        );
    });

    println!("{}", render_tables(&points));
    if let Some(path) = csv_out {
        write_or_exit("figure1", &path, &render_csv(&points));
        eprintln!("wrote {path}");
    }
    if let Some(path) = json_out {
        write_or_exit("figure1", &path, &to_json_pretty(&points));
        eprintln!("wrote {path}");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("figure1: {msg}");
    std::process::exit(2);
}
