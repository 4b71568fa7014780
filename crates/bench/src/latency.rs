//! The latency/throughput trajectory bench: the §6 query mix driven as a
//! concurrent workload under every latency model, at increasing client
//! counts — swept over the hot-path services (`sqo-cache` off/on, Zipf-
//! skewed workload) and the **join window** (static 1 and 8 vs AIMD
//! `auto`). Emits one JSON point per (model × clients × combo ×
//! operator), with per-operator overlay messages **and per-operator
//! queue time** next to the percentiles, so both the "messages saved" by
//! caching and the congestion response of the adaptive window are visible
//! in the artifact. The `BENCH_latency.json` at the repository root is the
//! **golden file** of the default configuration: `tests/bench_adaptive.rs`
//! rebuilds [`artifact`] in-process and demands the committed bytes, then
//! pins the claims the file makes.

use crate::meta::GenMeta;
use sqo_core::{BrokerConfig, EngineBuilder, JoinWindow, Strategy};
use sqo_datasets::{bible_words, string_rows};
use sqo_obs::{to_json_pretty, MetricsRegistry};
use sqo_sim::{
    run_driver, Arrival, DriverConfig, DriverReport, LatencyModel, QueryKind, SimConfig,
};

/// One sweep cell: service configuration × join window.
#[derive(Debug, Clone)]
pub struct SweepCombo {
    /// Hot-path service mode label ("off" / "on").
    pub cache_label: &'static str,
    /// Hot-path service configuration.
    pub cache: BrokerConfig,
    /// Join-window label ("w1" / "w8" / "auto").
    pub window_label: &'static str,
    /// Join-window mode the mix's simjoin template runs with.
    pub window: JoinWindow,
}

impl SweepCombo {
    fn new(
        (cache_label, cache): (&'static str, BrokerConfig),
        (window_label, window): (&'static str, JoinWindow),
    ) -> Self {
        Self { cache_label, cache, window_label, window }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct LatencyBenchConfig {
    pub words: usize,
    pub peers: usize,
    /// Client counts to sweep (the contention axis).
    pub client_counts: Vec<usize>,
    pub queries_per_client: usize,
    pub mean_interarrival_us: u64,
    pub models: Vec<LatencyModel>,
    /// The (cache, window) cells swept per model × client count.
    pub combos: Vec<SweepCombo>,
    /// Query-string skew: `0.0` picks uniformly from the pool; `> 0.0`
    /// draws string ranks from a Zipf distribution with this exponent —
    /// the production-shaped workload where popular strings (and their
    /// gram partitions) dominate.
    pub zipf_s: f64,
    /// Pin each client to one initiator peer (its access point).
    pub sticky_initiators: bool,
    pub strategy: Strategy,
    pub seed: u64,
    /// Attach a [`sqo_obs::BlameProfiler`] to every driven workload and
    /// keep the Chrome `trace_event` export of the slowest retained query
    /// exemplar across the whole sweep ([`LatencySweep::slowest_trace`]).
    /// Off by default: the sweep runs sink-free and pays nothing.
    pub trace: bool,
}

/// The default sweep cells: the window sweep (w1 / w8 / auto) crossed with
/// cache off/on.
fn default_combos() -> Vec<SweepCombo> {
    let caches = [("off", BrokerConfig::default()), ("on", BrokerConfig::enabled())];
    let windows =
        [("w1", JoinWindow::Fixed(1)), ("w8", JoinWindow::Fixed(8)), ("auto", JoinWindow::auto())];
    caches
        .into_iter()
        .flat_map(|cache| windows.into_iter().map(move |window| SweepCombo::new(cache, window)))
        .collect()
}

impl Default for LatencyBenchConfig {
    fn default() -> Self {
        Self {
            words: 2_000,
            peers: 256,
            client_counts: vec![1, 4, 16],
            queries_per_client: 6,
            mean_interarrival_us: 5_000,
            models: vec![
                LatencyModel::Constant { us: 1_000 },
                LatencyModel::Uniform { min_us: 300, max_us: 4_000 },
                LatencyModel::LogNormal { median_us: 1_500.0, sigma: 0.8 },
                LatencyModel::PerLink { min_us: 300, max_us: 12_000, salt: 17 },
            ],
            combos: default_combos(),
            zipf_s: 1.1,
            sticky_initiators: true,
            strategy: Strategy::QGrams,
            seed: 73,
            trace: false,
        }
    }
}

/// One (model, clients, combo, operator) measurement.
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    pub model: String,
    pub clients: usize,
    /// Hot-path service mode label ("off" / "on").
    pub cache: String,
    /// Join-window label ("w1" / "w8" = static, "auto" = AIMD).
    pub window: String,
    pub operator: String,
    pub count: usize,
    pub mean_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    /// Overlay messages attributed to this operator in the run.
    pub messages: u64,
    /// Queue time attributed to **this operator's** queries (virtual µs
    /// its messages spent behind busy receivers) — the per-op congestion
    /// signal the adaptive window reacts to.
    pub queue_us: u64,
    /// Probe keys this operator served from the posting cache.
    pub cache_hits: u64,
    /// Probe keys that rode a coalesced multi-key exchange.
    pub probes_coalesced: u64,
    /// Largest adaptive join window this operator reached (0 = fixed).
    pub window_peak: usize,
    /// Adaptive-window congestion back-offs this operator performed.
    pub window_shrinks: u64,
    /// Workload-wide throughput of the run this point came from.
    pub throughput_qps: f64,
    /// Workload-wide posting-cache hit rate of the run.
    pub cache_hit_rate: f64,
    /// Workload-wide overlay messages the coalesced flushes avoided.
    pub messages_saved: u64,
}

sqo_obs::json_record! {
    LatencyPoint {
        model, clients, cache, window, operator, count, mean_us, p50_us, p95_us, p99_us, max_us,
        messages, queue_us, cache_hits, probes_coalesced, window_peak, window_shrinks,
        throughput_qps, cache_hit_rate, messages_saved,
    };
}

fn points_of(
    report: &DriverReport,
    model: &LatencyModel,
    clients: usize,
    combo: &SweepCombo,
) -> Vec<LatencyPoint> {
    report
        .per_operator
        .iter()
        .map(|op| LatencyPoint {
            model: model.label().to_string(),
            clients,
            cache: combo.cache_label.to_string(),
            window: combo.window_label.to_string(),
            operator: op.operator.clone(),
            count: op.summary.count,
            mean_us: op.summary.mean_us,
            p50_us: op.summary.p50_us,
            p95_us: op.summary.p95_us,
            p99_us: op.summary.p99_us,
            max_us: op.summary.max_us,
            messages: op.messages,
            queue_us: op.queue_us,
            cache_hits: op.cache_hits,
            probes_coalesced: op.probes_coalesced,
            window_peak: op.window_peak,
            window_shrinks: op.window_shrinks,
            throughput_qps: report.throughput_qps,
            cache_hit_rate: report.cache.hit_rate,
            messages_saved: report.cache.messages_saved,
        })
        .collect()
}

/// A full sweep run: the per-(model × clients × combo × operator) point
/// list plus the [`MetricsRegistry`] merged over every driven workload —
/// the whole sweep's counters and latency histograms under one named
/// schema (`sqo_obs::metrics` documents the names).
#[derive(Debug)]
pub struct LatencySweep {
    pub points: Vec<LatencyPoint>,
    pub metrics: MetricsRegistry,
    /// Chrome `trace_event` export of the slowest retained query exemplar
    /// across the sweep (`Some` only when
    /// [`LatencyBenchConfig::trace`] is set and at least one query ran).
    pub slowest_trace: Option<String>,
}

/// Run the sweep. Deterministic for a given configuration.
pub fn run_latency_sweep(cfg: &LatencyBenchConfig) -> LatencySweep {
    let words = bible_words(cfg.words, 23);
    let mut out = Vec::new();
    let mut metrics = MetricsRegistry::new();
    let mut slowest: Option<(u64, String)> = None;
    // One build, one capture, then every cell is a fork of the frozen
    // world instead of a from-scratch publication (a restored world
    // continues the build's RNG stream exactly — `sqo-snap`'s round-trip
    // suite pins it).
    let (snap, engine_cfg) = {
        let rows = string_rows("word", &words, "w");
        let template =
            EngineBuilder::new().peers(cfg.peers).q(2).seed(cfg.seed).build_with_rows(&rows);
        (sqo_snap::Snapshot::capture(&template), template.config().clone())
    };
    for model in &cfg.models {
        for &clients in &cfg.client_counts {
            for combo in &cfg.combos {
                let mut engine = snap.restore_engine(&engine_cfg);
                let profiler = cfg.trace.then(|| sqo_obs::BlameProfiler::shared(3));
                if let Some(p) = &profiler {
                    engine.network_mut().set_trace_sink(sqo_obs::BlameProfiler::as_sink(p));
                }
                let driver_cfg = DriverConfig {
                    clients,
                    queries_per_client: cfg.queries_per_client,
                    arrival: Arrival::Poisson { mean_interarrival_us: cfg.mean_interarrival_us },
                    mix: vec![
                        QueryKind::Similar { d: 1 },
                        QueryKind::SimJoin { d: 1, left_limit: Some(8), window: combo.window },
                        QueryKind::TopN { n: 5, d_max: 3 },
                        QueryKind::Vql { d: 1 },
                    ],
                    strategy: cfg.strategy,
                    sim: SimConfig { latency: *model, ..SimConfig::default() },
                    faults: sqo_sim::FaultPlan::default(),
                    repair: None,
                    cache: combo.cache,
                    zipf_s: cfg.zipf_s,
                    sticky_initiators: cfg.sticky_initiators,
                    seed: cfg.seed,
                };
                let report = run_driver(&mut engine, "word", &words, &driver_cfg);
                metrics.merge(&report.metrics);
                out.extend(points_of(&report, model, clients, combo));
                if let Some(p) = &profiler {
                    let p = p.borrow();
                    if let Some(ex) = p.slowest() {
                        let elapsed = ex.blame.elapsed_us;
                        if slowest.as_ref().is_none_or(|(best, _)| elapsed > *best) {
                            if let Some(chrome) = p.slowest_exemplar_chrome() {
                                slowest = Some((elapsed, chrome));
                            }
                        }
                    }
                }
            }
        }
    }
    LatencySweep { points: out, metrics, slowest_trace: slowest.map(|(_, chrome)| chrome) }
}

/// The `BENCH_latency.json` text for a sweep of `cfg` that produced
/// `points`: the `generated` block, then the points. A pure function of
/// its arguments — the same configuration yields the same bytes on any
/// host and in any build profile.
pub fn artifact(cfg: &LatencyBenchConfig, points: &[LatencyPoint]) -> String {
    struct Artifact<'a> {
        generated: GenMeta,
        points: &'a [LatencyPoint],
    }
    sqo_obs::json_record! { Artifact<'a> { generated, points }; }
    let queries = cfg.models.len()
        * cfg.combos.len()
        * cfg.queries_per_client
        * cfg.client_counts.iter().sum::<usize>();
    let generated = GenMeta::new(cfg.seed, cfg.peers, queries)
        .workload("words", cfg.words as u64)
        .workload("queries_per_client", cfg.queries_per_client as u64)
        .workload("clients_max", cfg.client_counts.iter().copied().max().unwrap_or(0) as u64)
        .workload("combos", cfg.combos.len() as u64)
        .workload("models", cfg.models.len() as u64);
    to_json_pretty(&Artifact { generated, points })
}

/// Human-readable table of a sweep.
pub fn render(points: &[LatencyPoint]) -> String {
    let mut s = String::from(
        "model      clients cache window operator  count   p50(ms)   p95(ms)   p99(ms)   msgs  \
         queue(ms)  hit%\n",
    );
    for p in points {
        s.push_str(&format!(
            "{:<10} {:>7} {:<5} {:<6} {:<9} {:>5} {:>9.2} {:>9.2} {:>9.2} {:>6} {:>10.1} {:>5.1}\n",
            p.model,
            p.clients,
            p.cache,
            p.window,
            p.operator,
            p.count,
            p.p50_us as f64 / 1e3,
            p.p95_us as f64 / 1e3,
            p.p99_us as f64 / 1e3,
            p.messages,
            p.queue_us as f64 / 1e3,
            p.cache_hit_rate * 100.0,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_covers_models_operators_and_is_deterministic() {
        let cfg = LatencyBenchConfig {
            words: 200,
            peers: 24,
            client_counts: vec![2],
            // Each client must cycle through the whole 4-kind mix, or the
            // per-operator point set comes up short.
            queries_per_client: 4,
            models: vec![
                LatencyModel::Constant { us: 500 },
                LatencyModel::Uniform { min_us: 100, max_us: 2_000 },
            ],
            ..LatencyBenchConfig::default()
        };
        let a = run_latency_sweep(&cfg).points;
        // 2 models x 1 client count x 6 combos x 4 operators.
        assert_eq!(a.len(), 48);
        for p in &a {
            assert!(p.count > 0);
            assert!(p.p50_us <= p.p99_us);
            if p.cache == "off" {
                assert_eq!(p.cache_hits, 0, "cache-off points must not hit");
            }
            if p.window != "auto" || p.operator != "simjoin" {
                assert_eq!(p.window_peak, 0, "only auto simjoins report a window peak");
            }
        }
        assert!(
            a.iter().any(|p| p.cache == "on" && p.cache_hits > 0),
            "cache-on sweep must produce hits"
        );
        assert!(
            a.iter().any(|p| p.window == "auto" && p.operator == "simjoin" && p.window_peak > 1),
            "auto windows must actually adapt"
        );
        // Queue time is per-operator now: rows of one run must not all
        // carry the same figure (the old run-wide duplication).
        let c = |p: &&LatencyPoint| p.model == "constant" && p.cache == "off";
        let queue: Vec<u64> = a.iter().filter(c).map(|p| p.queue_us).collect();
        assert!(
            queue.iter().any(|q| q != &queue[0]),
            "per-operator queue attribution must differ across operators: {queue:?}"
        );
        let b = run_latency_sweep(&cfg).points;
        assert_eq!(sqo_obs::to_json(&a), sqo_obs::to_json(&b), "bench sweep must be deterministic");
        assert!(!render(&a).is_empty());
    }
}
