//! CLI wrapper for the scale bench: overlay build RSS plus event-core
//! throughput, serial vs sharded.
//!
//! ```text
//! simscale [--smoke] [--out PATH] [--peers N] [--items N] [--queries N]
//! ```
//!
//! Writes `BENCH_simscale.json` (default): the build points (RSS per
//! peer at 10⁴ and 10⁵ peers), the event-core sweep at the largest build
//! (serial baseline, windowed core at shards 2 and 4), a
//! `deterministic` flag asserting every engine produced the same
//! `ScaleOutcome`, and the `sim.*` metrics gauges. The committed file at
//! the repository root is the baseline the tier-1 acceptance test
//! (`tests/bench_simscale.rs`) pins.

use sqo_bench::meta::{GenMeta, SCHEMA_VERSION};
use sqo_bench::simscale::{measure_build, measure_throughput, BuildPoint, ThroughputPoint};
use sqo_obs::MetricsRegistry;
use sqo_sim::{rss_peak_bytes, ScaleConfig, Topology};

use serde::Serialize;

/// RSS per peer measured at the growth seed (pre-arena overlay state:
/// per-peer `Vec<Vec<PeerId>>` routing tables and unshared partition
/// stores), 100 000 peers / k = 3 / 300 000 items on this container. The
/// denominator of the `rss_reduction_vs_seed` headline.
const SEED_RSS_PER_PEER_BYTES: u64 = 5_649;

#[derive(Serialize)]
struct SimScaleReport {
    schema_version: u32,
    generated: GenMeta,
    seed_rss_per_peer_bytes: u64,
    rss_reduction_vs_seed: f64,
    builds: Vec<BuildPoint>,
    scale: Vec<ThroughputPoint>,
    deterministic: bool,
    rss_peak_bytes: u64,
    metrics: MetricsRegistry,
}

fn usage() -> ! {
    eprintln!("usage: simscale [--smoke] [--out PATH] [--peers N] [--items N] [--queries N]");
    std::process::exit(2);
}

fn parse_num(args: &[String], i: &mut usize, what: &str) -> usize {
    *i += 1;
    match args.get(*i).and_then(|s| s.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("{what} needs a number");
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_simscale.json");
    let mut peers = 100_000usize;
    let mut items = 300_000usize;
    let mut queries = 1_000usize;
    let mut repeats = 3usize;
    let mut small_build = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                peers = 5_000;
                items = 15_000;
                queries = 200;
                repeats = 1;
                small_build = false;
            }
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
            "--peers" => peers = parse_num(&args, &mut i, "--peers"),
            "--items" => items = parse_num(&args, &mut i, "--items"),
            "--queries" => queries = parse_num(&args, &mut i, "--queries"),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    let mut builds = Vec::new();
    if small_build {
        // The small point shows bytes/peer is flat in network size (the
        // arena does not amortize a fixed overhead away).
        let (_, p) = measure_build(peers / 10, 3, items / 10);
        report_build(&p);
        builds.push(p);
    }
    let (net, p) = measure_build(peers, 3, items);
    report_build(&p);
    let rss_per_peer = p.rss_per_peer_bytes;
    builds.push(p);

    let topo = Topology::of_network(&net);
    drop(net);
    let cfg = ScaleConfig { queries, arrival_spread_us: 20_000, ..ScaleConfig::default() };
    let (scale, deterministic, best_run) = measure_throughput(&topo, &cfg, &[2, 4], repeats);
    for t in &scale {
        println!(
            "{:>8} shards={} events={:>9} elapsed={:>8.1}ms  {:>12.0} ev/s  x{:.2}",
            t.mode, t.shards, t.events, t.elapsed_ms, t.events_per_sec, t.speedup_vs_serial
        );
    }
    println!("deterministic across engines: {deterministic}");

    // The fastest sharded run's export carries the per-shard telemetry
    // (`sim.shard.*` occupancy, imbalance, window stalls)
    // into the artifact's registry next to the run-level gauges.
    let mut metrics = MetricsRegistry::default();
    if let Some(run) = &best_run {
        run.export_metrics(&mut metrics);
    }
    metrics.gauge_set("sim.rss_peak_bytes", rss_peak_bytes().unwrap_or(0) as f64);
    metrics.gauge_set("sim.rss_per_peer_bytes", rss_per_peer as f64);

    let report = SimScaleReport {
        schema_version: SCHEMA_VERSION,
        generated: GenMeta::new(cfg.seed, peers, queries)
            .workload("items", items as u64)
            .workload("repeats", repeats as u64)
            .workload("shards_max", 4),
        seed_rss_per_peer_bytes: SEED_RSS_PER_PEER_BYTES,
        rss_reduction_vs_seed: SEED_RSS_PER_PEER_BYTES as f64 / rss_per_peer.max(1) as f64,
        builds,
        scale,
        deterministic,
        rss_peak_bytes: rss_peak_bytes().unwrap_or(0),
        metrics,
    };
    std::fs::write(&out, serde_json::to_string_pretty(&report).expect("serialize"))
        .expect("write output");
    eprintln!("wrote {out}");
}

fn report_build(p: &BuildPoint) {
    println!(
        "build: peers={} k={} partitions={} items={} build_ms={} rss_per_peer={}B",
        p.peers, p.replication, p.partitions, p.items, p.build_ms, p.rss_per_peer_bytes
    );
}
