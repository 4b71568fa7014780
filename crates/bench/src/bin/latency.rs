//! CLI wrapper for the latency/throughput trajectory bench.
//!
//! ```text
//! latency [--smoke] [--out PATH] [--metrics PATH] [--trace PATH]
//! ```
//!
//! Writes the artifact envelope (`schema_version`, `generated` metadata,
//! one point per latency model × operator × client count) to `PATH`
//! (default `BENCH_latency.json`) and prints a table to stdout. The
//! committed `BENCH_latency.json` at the repository root is the
//! default-configuration baseline the regression gate (`regress`)
//! measures against. `--metrics PATH` additionally dumps the sweep-wide
//! [`sqo_obs::MetricsRegistry`] (counters, gauges, latency histograms
//! merged over every driven workload) as JSON. `--trace PATH` attaches a
//! blame profiler to every workload and dumps the Chrome `trace_event`
//! export of the slowest retained query exemplar — open it in Perfetto to
//! see exactly where the sweep's worst query spent its virtual time.
//! The world is built and published once, frozen with `sqo-snap`, and
//! every sweep cell forks off that checkpoint; the engine-setup wall clock
//! is logged to stderr.

use sqo_bench::latency::{render, run_latency_sweep, LatencyBenchConfig, LatencyPoint};
use sqo_bench::meta::{GenMeta, SCHEMA_VERSION};

use serde::Serialize;

#[derive(Serialize)]
struct LatencyArtifact {
    schema_version: u32,
    generated: GenMeta,
    points: Vec<LatencyPoint>,
}

fn usage() -> ! {
    eprintln!("usage: latency [--smoke] [--out PATH] [--metrics PATH] [--trace PATH]");
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
            "--smoke" => cfg = LatencyBenchConfig::smoke(),
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
    let cells = cfg.models.len() * cfg.client_counts.len() * cfg.combos.len();
    eprintln!(
        "engine setup: {:.1} ms across {cells} cells (one build, forked per cell)",
        sweep.setup_wall_us as f64 / 1e3
    );

    let total_queries: usize = cfg.models.len()
        * cfg.combos.len()
        * cfg.queries_per_client
        * cfg.client_counts.iter().sum::<usize>();
    let generated = GenMeta::new(cfg.seed, cfg.peers, total_queries)
        .workload("words", cfg.words as u64)
        .workload("queries_per_client", cfg.queries_per_client as u64)
        .workload("clients_max", cfg.client_counts.iter().copied().max().unwrap_or(0) as u64)
        .workload("combos", cfg.combos.len() as u64)
        .workload("models", cfg.models.len() as u64);
    let n_points = sweep.points.len();
    let artifact =
        LatencyArtifact { schema_version: SCHEMA_VERSION, generated, points: sweep.points };
    std::fs::write(&out, serde_json::to_string_pretty(&artifact).expect("serialize"))
        .expect("write output");
    eprintln!("wrote {n_points} points to {out}");
    if let Some(path) = metrics_out {
        std::fs::write(&path, sweep.metrics.to_json()).expect("write metrics");
        eprintln!("wrote metrics registry to {path}");
    }
    if let Some(path) = trace_out {
        match &sweep.slowest_trace {
            Some(chrome) => {
                std::fs::write(&path, chrome).expect("write trace");
                eprintln!("wrote slowest-query exemplar trace to {path}");
            }
            None => eprintln!("no exemplar retained; {path} not written"),
        }
    }
}
