//! Scale benchmark: overlay memory footprint and event-core throughput.
//!
//! Two measurements back `BENCH_simscale.json`:
//!
//! 1. **Build RSS** — bootstrap a network of `peers` peers at replication
//!    `k` over a synthetic word corpus and read the process RSS delta,
//!    giving bytes-per-peer for the overlay state (stores + routing +
//!    peer structs).
//! 2. **Event throughput** — drive a seeded query workload through the
//!    sharded event core (`sqo_sim::scale`) at several shard counts and
//!    report wall-clock events/sec, serial vs sharded.
//!
//! RSS is read from `/proc/self/status` ([`sqo_sim::rss_now_bytes`],
//! Linux-only); on other platforms the RSS fields report 0 and the bench
//! still runs.

use serde::Serialize;
use sqo_overlay::hash::hash_str;
use sqo_overlay::key::Key;
use sqo_overlay::network::{Network, NetworkConfig};
use sqo_overlay::peer::Item;
use sqo_sim::{rss_now_bytes, run_serial, run_sharded, ScaleConfig, ScaleRun, Topology};

/// Synthetic corpus item: the word itself, as stored payload.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WordItem(pub String);

impl Item for WordItem {
    fn size_bytes(&self) -> usize {
        self.0.len()
    }
}

/// Deterministic synthetic corpus: `n` distinct words, keyed by the
/// order-preserving string hash.
pub fn synth_corpus(n: usize) -> Vec<(Key, WordItem)> {
    (0..n)
        .map(|i| {
            let w = format!("w{i:07}");
            (hash_str(&w), WordItem(w))
        })
        .collect()
}

/// Outcome of one network-build measurement.
#[derive(Debug, Clone, Serialize)]
pub struct BuildPoint {
    pub peers: usize,
    pub replication: usize,
    pub partitions: usize,
    pub items: usize,
    pub build_ms: u64,
    pub rss_before_bytes: u64,
    pub rss_after_bytes: u64,
    pub rss_per_peer_bytes: u64,
}

/// Build a network of `peers` peers at replication `k` over `items`
/// synthetic words and measure the RSS delta.
pub fn measure_build(peers: usize, k: usize, items: usize) -> (Network<WordItem>, BuildPoint) {
    let data = synth_corpus(items);
    let rss_before = rss_now_bytes().unwrap_or(0);
    let t0 = std::time::Instant::now();
    let cfg = NetworkConfig { peers, replication: k, seed: 7, ..NetworkConfig::default() };
    let net = Network::build(cfg, data);
    let build_ms = t0.elapsed().as_millis() as u64;
    let rss_after = rss_now_bytes().unwrap_or(0);
    let delta = rss_after.saturating_sub(rss_before);
    let point = BuildPoint {
        peers,
        replication: k,
        partitions: net.partition_count(),
        items,
        build_ms,
        rss_before_bytes: rss_before,
        rss_after_bytes: rss_after,
        rss_per_peer_bytes: delta / peers as u64,
    };
    (net, point)
}

/// One event-core throughput measurement (best wall-clock of `repeats`
/// runs; the [`ScaleOutcome`](sqo_sim::ScaleOutcome) half is identical
/// across repeats and engines — that is the determinism invariant).
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputPoint {
    /// `"serial"` (global binary heap) or `"sharded"` (windowed core).
    pub mode: String,
    pub shards: usize,
    pub queries: usize,
    pub events: u64,
    pub elapsed_ms: f64,
    pub events_per_sec: f64,
    /// `events_per_sec / serial events_per_sec` of the same sweep.
    pub speedup_vs_serial: f64,
    pub queries_done: u64,
    pub checksum: u64,
    /// Busiest shard's event count (equals `events` for serial).
    pub shard_events_max: u64,
    /// Quietest shard's event count.
    pub shard_events_min: u64,
    /// Conservative windows swept, summed over shards (0 for serial).
    pub windows_swept: u64,
    /// Swept windows with an empty bucket — lookahead stalls.
    pub empty_windows: u64,
}

fn point_of(run: &ScaleRun, out: &sqo_sim::ScaleOutcome, cfg: &ScaleConfig) -> ThroughputPoint {
    ThroughputPoint {
        mode: run.mode.clone(),
        shards: run.shards,
        queries: cfg.queries,
        events: run.events,
        elapsed_ms: run.elapsed_ms,
        events_per_sec: run.events_per_sec,
        speedup_vs_serial: 0.0,
        queries_done: out.queries_done,
        checksum: out.checksum,
        shard_events_max: run.events_per_shard.iter().copied().max().unwrap_or(0),
        shard_events_min: run.events_per_shard.iter().copied().min().unwrap_or(0),
        windows_swept: run.windows_swept,
        empty_windows: run.empty_windows,
    }
}

/// Run the event-core sweep over `topo`: the serial baseline, then the
/// windowed core at each of `shard_counts`. Each engine configuration is
/// timed `repeats` times and the fastest run reported — one-core CI boxes
/// are noisy. Returns the points (serial first), whether every engine
/// produced the same [`ScaleOutcome`](sqo_sim::ScaleOutcome), and the
/// fastest sharded [`ScaleRun`] (carrying the per-shard telemetry for
/// [`ScaleRun::export_metrics`]).
pub fn measure_throughput(
    topo: &Topology,
    base: &ScaleConfig,
    shard_counts: &[usize],
    repeats: usize,
) -> (Vec<ThroughputPoint>, bool, Option<ScaleRun>) {
    let repeats = repeats.max(1);
    let best = |cfg: &ScaleConfig, sharded: bool| {
        let mut best: Option<(sqo_sim::ScaleOutcome, ScaleRun)> = None;
        for _ in 0..repeats {
            let (out, run) = if sharded { run_sharded(topo, cfg) } else { run_serial(topo, cfg) };
            if best.as_ref().is_none_or(|(_, b)| run.events_per_sec > b.events_per_sec) {
                best = Some((out, run));
            }
        }
        best.expect("repeats >= 1")
    };

    let serial_cfg = ScaleConfig { shards: 1, ..*base };
    let (serial_out, serial_run) = best(&serial_cfg, false);
    let serial_eps = serial_run.events_per_sec;
    let mut points = vec![point_of(&serial_run, &serial_out, &serial_cfg)];
    points[0].speedup_vs_serial = 1.0;

    let mut deterministic = true;
    let mut best_sharded: Option<ScaleRun> = None;
    let mut sweep = |cfg: ScaleConfig| {
        let (out, run) = best(&cfg, true);
        deterministic &= out == serial_out;
        let mut p = point_of(&run, &out, &cfg);
        p.speedup_vs_serial = p.events_per_sec / serial_eps.max(1e-9);
        if best_sharded.as_ref().is_none_or(|b| run.events_per_sec > b.events_per_sec) {
            best_sharded = Some(run);
        }
        p
    };
    for &s in shard_counts {
        points.push(sweep(ScaleConfig { shards: s, ..*base }));
    }
    (points, deterministic, best_sharded)
}
