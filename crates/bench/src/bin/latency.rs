//! CLI wrapper for the latency/throughput trajectory bench.
//!
//! ```text
//! latency [--out PATH] [--metrics PATH] [--trace PATH]
//! ```
//!
//! Writes [`sqo_bench::latency::artifact`] of the default sweep (the
//! `generated` metadata, then one point per latency model × client count
//! × combo × operator) to `PATH` (default `BENCH_latency.json`) and
//! prints a table to stdout. The committed `BENCH_latency.json` at the
//! repository root is this output, byte for byte; `tests/bench_adaptive.rs`
//! fails when it is not. `--metrics PATH` additionally dumps the sweep-wide
//! [`sqo_obs::MetricsRegistry`] (counters, gauges, latency histograms
//! merged over every driven workload) as JSON. `--trace PATH` attaches a
//! blame profiler to every workload and dumps the Chrome `trace_event`
//! export of the slowest retained query exemplar — open it in Perfetto to
//! see exactly where the sweep's worst query spent its virtual time.
//! The world is built and published once, frozen with `sqo-snap`, and
//! every sweep cell forks off that checkpoint.

use sqo_bench::latency::{artifact, render, run_latency_sweep, LatencyBenchConfig};
use sqo_bench::meta::write_or_exit;

fn usage() -> ! {
    eprintln!("usage: latency [--out PATH] [--metrics PATH] [--trace PATH]");
    std::process::exit(2);
}

fn path_arg(args: &[String], i: &mut usize, what: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(path) => path.clone(),
        None => {
            eprintln!("{what} needs a path");
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = LatencyBenchConfig::default();
    let mut out = String::from("BENCH_latency.json");
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out = path_arg(&args, &mut i, "--out"),
            "--metrics" => metrics_out = Some(path_arg(&args, &mut i, "--metrics")),
            "--trace" => trace_out = Some(path_arg(&args, &mut i, "--trace")),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }
    cfg.trace = trace_out.is_some();

    let sweep = run_latency_sweep(&cfg);
    print!("{}", render(&sweep.points));
    write_or_exit("latency", &out, &artifact(&cfg, &sweep.points));
    eprintln!("wrote {} points to {out}", sweep.points.len());
    if let Some(path) = metrics_out {
        write_or_exit("latency", &path, &sqo_obs::to_json(&sweep.metrics));
        eprintln!("wrote metrics registry to {path}");
    }
    if let Some(path) = trace_out {
        match &sweep.slowest_trace {
            Some(chrome) => {
                write_or_exit("latency", &path, chrome);
                eprintln!("wrote slowest-query exemplar trace to {path}");
            }
            None => eprintln!("no exemplar retained; {path} not written"),
        }
    }
}
