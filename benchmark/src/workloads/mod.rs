//! The five workloads. Each builds its world from the seed, checks a
//! sample of its own answers against the oracle, and runs a fixed amount
//! of work per repetition — so model metrics repeat exactly and host
//! metrics can be summarised by a median.

mod ingest;
mod scale;
mod titles;
mod words;

use crate::pace::Pacer;
use crate::span::Tracer;
use crate::surface::{
    install, postings_for_rows, EngineBuilder, LatencyModel, Network, NetworkConfig, PublishConfig,
    PublishStats, QueryStats, Row, SimConfig, SimilarityEngine, Snapshot,
};
use crate::units::Costs;
use std::collections::BTreeMap;

/// Seed of the dataset generators — a constant, not `--seed`.
///
/// The paper's datasets are fixed corpora; what varies between runs of an
/// experiment is the traffic. The corpus also fixes the trie, and with it
/// quantities that no amount of traffic averages out: across ten corpus
/// seeds `msgs_per_op` of `titles-scan` moved by 15 % (quartile distance
/// over median) because the title attribute spanned 22 to 31 partitions.
/// With the corpus fixed, `--seed` drives everything else — the overlay's
/// own seed (routing references, access points), the query strings, the
/// arrival process, the link-latency samples, the scale core — and the
/// spread between seeds is small enough to compare medians.
pub const CORPUS_SEED: u64 = 2006;

/// Seed streams: every generated input draws from its own sub-seed of
/// `--seed` (see [`crate::rng::derive`]).
pub mod stream {
    pub const ENGINE: u64 = 2;
    pub const DRIVER: u64 = 3;
    pub const SIM: u64 = 4;
    pub const QUERIES: u64 = 5;
    pub const GATE: u64 = 6;
    pub const UNITS: u64 = 7;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WordsMix,
    WordsZipfCached,
    TitlesScan,
    IngestCheckpoint,
    ScaleCore,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload::WordsMix,
    Workload::WordsZipfCached,
    Workload::TitlesScan,
    Workload::IngestCheckpoint,
    Workload::ScaleCore,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::WordsMix => "words-mix",
            Workload::WordsZipfCached => "words-zipf-cached",
            Workload::TitlesScan => "titles-scan",
            Workload::IngestCheckpoint => "ingest-checkpoint",
            Workload::ScaleCore => "scale-core",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// What one "op" of `ops_per_s` / `msgs_per_op` is on this workload.
    pub fn op(self) -> &'static str {
        match self {
            Workload::WordsMix | Workload::WordsZipfCached | Workload::TitlesScan => "query",
            Workload::IngestCheckpoint => "row published",
            Workload::ScaleCore => "retrieve query",
        }
    }

    /// Why the workload exists, in one line (the `why` of BENCHMARK.json;
    /// README.md has the long form).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WordsMix => "the section-6 mix through run_driver, cache off: ~280 routed messages per query load core, sim and overlay; cache and snap do nothing",
            Workload::WordsZipfCached => "same world and mix, Zipf strings, sticky access points, cache and batching on: ~73 % of probes hit, so a cache change moves this row and not words-mix",
            Workload::TitlesScan => "synchronous naive scans and prefix ranges over 40-char titles: few messages, every stored value edit-verified, so strsim and store scans weigh most",
            Workload::IngestCheckpoint => "publish batches beside q-gram reads plus snapshot round trips: the only workload that times storage publish, overlay inserts and the snap codec",
            Workload::ScaleCore => "150 000 retrieve queries (~1e7 events) on the sharded per-message core over 10 000 peers, which shares no code path with the driver",
        }
    }

    /// Everything `setup_s` times: dataset generation and the engine
    /// build. With the tracer on, the pieces are additionally run apart
    /// (`postings_for_rows`, `Network::build`) to give the per-layer spans.
    pub fn build(self, seed: u64, size: Size, tr: &mut Tracer) -> Box<dyn World> {
        match self {
            Workload::WordsMix => Box::new(words::build(false, seed, size, tr)),
            Workload::WordsZipfCached => Box::new(words::build(true, seed, size, tr)),
            Workload::TitlesScan => Box::new(titles::build(seed, size, tr)),
            Workload::IngestCheckpoint => Box::new(ingest::build(seed, size, tr)),
            Workload::ScaleCore => Box::new(scale::build(seed, size, tr)),
        }
    }
}

/// Full size, or the `--smoke` size (wiring check; numbers not comparable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    /// Pick the full or the smoke value of a size parameter.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }

    /// Minimum seconds a unit-cost loop runs.
    pub fn unit_loop_s(self) -> f64 {
        self.pick(0.5, 0.01)
    }

    /// A pacer for a timed interval: speed-normalising at full size, plain
    /// wall time at smoke size (the reference kernel alone would take
    /// longer than the whole smoke suite may).
    pub fn pacer(self) -> Pacer {
        match self {
            Size::Full => Pacer::on(),
            Size::Smoke => Pacer::off(),
        }
    }
}

/// Outcome of the correctness gate.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the report.
    pub notes: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(why);
            }
        }
    }
}

/// One repetition of the measured phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    pub ops: u64,
    /// Seconds inside the measured phase as the clock read them …
    pub wall_s: f64,
    /// … and at nominal machine speed (see [`crate::pace`]).
    pub norm_s: f64,
    /// Machine speed of every timed slice, 1 = nominal.
    pub speeds: Vec<f64>,
    /// Overlay messages (scale-core: events).
    pub msgs: u64,
    pub bytes: Option<u64>,
    /// Simulated query latency `(p50, p95)` in µs and its sample count.
    pub virt_us: Option<(u64, u64, usize)>,
    /// Ops that errored or returned an incomplete answer.
    pub failed: u64,
    /// Exact per-layer counts, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Any further model state that must repeat exactly (scale-core: the
    /// checksum over completion times).
    pub fingerprint: u64,
}

impl Rep {
    /// A repetition that did nothing yet, timed by `pacer`: workloads fill
    /// in what they did with struct-update syntax.
    pub fn timed(pacer: &Pacer) -> Rep {
        Rep {
            ops: 0,
            wall_s: pacer.raw_s(),
            norm_s: pacer.normalised_s(),
            speeds: pacer.speeds().to_vec(),
            msgs: 0,
            bytes: None,
            virt_us: None,
            failed: 0,
            counts: BTreeMap::new(),
            fingerprint: 0,
        }
    }

    /// Everything that must repeat exactly between repetitions.
    pub fn model(&self) -> impl PartialEq + std::fmt::Debug + '_ {
        let counts: Vec<(&str, u64)> = self.counts.iter().map(|(k, v)| (*k, v.to_bits())).collect();
        (self.ops, self.msgs, self.bytes, self.virt_us, self.failed, counts, self.fingerprint)
    }
}

/// Per-layer metrics of a traced run, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A built world: the dataset, the warm engine (thawed afresh from one
/// snapshot for every repetition, untimed) and the fixed work list.
pub trait World {
    /// Check a seeded sample of the workload's own queries against the
    /// oracle, untimed, on an engine of its own.
    fn gate(&mut self) -> Gate;

    /// One repetition: fixed work, timed in `pacer`'s slices (thaws fall
    /// between slices), spans recorded when `tr` is on.
    fn rep(&mut self, tr: &mut Tracer, pacer: &mut Pacer) -> Rep;

    /// Trace-only: unit-cost loops over this workload's own inputs and
    /// whatever else its layers need.
    fn layers(&mut self, ctx: &TraceCtx<'_>, out: &mut Layers);
}

/// What a traced run hands to [`World::layers`].
pub struct TraceCtx<'a> {
    /// The traced repetition and its spans.
    pub rep: &'a Rep,
    pub tr: &'a Tracer,
    pub size: Size,
    /// `normalised ÷ raw` time of the traced set-up: turns its raw spans
    /// into nominal-speed seconds.
    pub setup_factor: f64,
}

impl TraceCtx<'_> {
    /// The same factor for spans inside the traced repetition.
    pub fn rep_factor(&self) -> f64 {
        if self.rep.wall_s > 0.0 {
            self.rep.norm_s / self.rep.wall_s
        } else {
            1.0
        }
    }

    /// Nominal-speed seconds spent in spans called `name` during the
    /// repetition.
    pub fn rep_span_s(&self, name: &str) -> f64 {
        self.tr.total_s(name) * self.rep_factor()
    }

    /// `(p50, p90)` in nominal-speed µs of the spans called `name`.
    pub fn rep_span_us(&self, name: &str) -> (f64, f64) {
        let mut ns: Vec<u64> =
            self.tr.durations_us(name).iter().map(|d| (d * 1e3) as u64).collect();
        if ns.is_empty() {
            return (0.0, 0.0);
        }
        ns.sort_unstable();
        let us = |p| crate::stats::percentile(&ns, p) as f64 / 1e3 * self.rep_factor();
        (us(50.0), us(90.0))
    }
}

// ----------------------------------------------------------------------
// Shared pieces
// ----------------------------------------------------------------------

/// The virtual-time model of the query workloads: log-normal WAN links
/// (the shape `crates/bench`'s latency sweep uses), default service costs.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        latency: LatencyModel::LogNormal { median_us: 1_500.0, sigma: 0.8 },
        seed: crate::rng::derive(seed, stream::SIM),
        ..SimConfig::default()
    }
}

/// What the split set-up of a traced build learned.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupInfo {
    pub publish: PublishStats,
    /// Resident-set growth from the bare rows to the built network
    /// (postings made, then moved into the stores), bytes.
    pub build_rss_delta: u64,
    pub peers: usize,
}

/// Build the engine `setup_s` pays for. With the tracer on, first run the
/// two halves of `build_with_rows` apart — `postings_for_rows`, then
/// `Network::build` — on the same inputs, for their spans and the build's
/// memory growth, and drop the result.
pub fn build_engine(
    rows: &[Row],
    peers: usize,
    q: usize,
    seed: u64,
    builder: EngineBuilder,
    tr: &mut Tracer,
) -> (SimilarityEngine, SetupInfo) {
    let engine_seed = crate::rng::derive(seed, stream::ENGINE);
    let mut info = SetupInfo { peers, ..SetupInfo::default() };
    if tr.is_on() {
        let publish = PublishConfig { q, ..PublishConfig::default() };
        let network = NetworkConfig { peers, seed: engine_seed, ..NetworkConfig::default() };
        let before = rss_bytes();
        let s = tr.begin("storage.postings_for_rows");
        let (postings, stats) = postings_for_rows(rows, &publish);
        tr.end(s);
        info.publish = stats;
        let s = tr.begin("overlay.Network::build");
        let net = Network::build(network, postings);
        tr.end(s);
        info.build_rss_delta = rss_bytes().saturating_sub(before);
        drop(net);
    }
    let s = tr.begin("core.build_with_rows");
    let engine = builder.peers(peers).q(q).seed(engine_seed).build_with_rows(rows);
    tr.end(s);
    (engine, info)
}

/// Copy the set-up spans and counts of a traced build into the layer
/// table.
pub fn setup_layers(info: &SetupInfo, ctx: &TraceCtx<'_>, out: &mut Layers) {
    let span_s = |name: &str| ctx.tr.total_s(name) * ctx.setup_factor;
    out.insert("datasets.gen_s", span_s("datasets.gen"));
    out.insert("storage.postings_s", span_s("storage.postings_for_rows"));
    out.insert("overlay.build_s", span_s("overlay.Network::build"));
    out.insert("overlay.bytes_per_peer", info.build_rss_delta as f64 / info.peers.max(1) as f64);
    let p = info.publish;
    out.insert("storage.postings_per_row", p.total_postings() as f64 / p.rows.max(1) as f64);
    out.insert("storage.overhead_factor", p.overhead_factor());
}

/// The built engine and the one warm snapshot every repetition thaws a
/// fresh engine from. The snapshot is taken at the first thaw, not at
/// build time: `setup_s` does not pay for it.
pub struct Warm {
    pub engine: SimilarityEngine,
    snap: Option<Snapshot>,
}

impl Warm {
    pub fn new(engine: SimilarityEngine) -> Self {
        Warm { engine, snap: None }
    }

    /// A fresh engine off the snapshot, with the virtual-time sink
    /// installed if asked for. Untimed: callers start their clock after.
    pub fn fresh(&mut self, sim: Option<SimConfig>) -> SimilarityEngine {
        let snap = self.snap.get_or_insert_with(|| Snapshot::capture(&self.engine));
        let mut fresh = snap.restore_engine(self.engine.config());
        if let Some(cfg) = sim {
            install(&mut fresh, cfg);
        }
        fresh
    }
}

/// Totals of a synchronous query loop (`titles-scan`, the ingest reads).
#[derive(Debug, Default)]
pub struct Tally {
    pub stats: QueryStats,
    pub queries: u64,
    pub failed: u64,
    /// Simulated latency of every query, µs.
    pub virt_us: Vec<u64>,
}

impl Tally {
    pub fn add(&mut self, stats: &QueryStats) {
        self.queries += 1;
        if stats.completeness() < 1.0 {
            self.failed += 1;
        }
        if let Some(sim) = stats.sim {
            self.virt_us.push(sim.elapsed_us);
        }
        self.stats.absorb(stats);
    }

    /// `(p50, p95, samples)` of the simulated latencies, if any were taken.
    pub fn virt(&self) -> Option<(u64, u64, usize)> {
        if self.virt_us.is_empty() {
            return None;
        }
        let mut v = self.virt_us.clone();
        v.sort_unstable();
        Some((crate::stats::percentile(&v, 50.0), crate::stats::percentile(&v, 95.0), v.len()))
    }
}

/// The exact counts every engine-backed workload shares, per op.
pub fn common_counts(stats: &QueryStats, ops: u64, out: &mut BTreeMap<&'static str, f64>) {
    let per_op = |x: u64| x as f64 / ops.max(1) as f64;
    out.insert("overlay.messages", per_op(stats.traffic.messages));
    out.insert("overlay.route_hops", per_op(stats.traffic.route_hops));
    out.insert("overlay.items_scanned", per_op(stats.traffic.local_items_scanned));
    out.insert("strsim.edits_per_op", per_op(stats.edit_comparisons));
    out.insert("core.probes_per_query", per_op(stats.probes as u64));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.insert("core.matches_per_candidate", ratio(stats.matches as f64, stats.candidates as f64));
    out.insert("core.matches_per_edit", ratio(stats.matches as f64, stats.edit_comparisons as f64));
    if let Some(sim) = stats.sim {
        let total = (sim.net_us + sim.queue_us + sim.service_us) as f64;
        out.insert("sim.virt_queue_share", ratio(sim.queue_us as f64, total));
    }
}

/// `count × unit cost` estimates for the layers nested inside an operator
/// call, which no outside span can time; what is left of the measured
/// phase is `core.unattributed_share` — printed, not hidden. Both sides of
/// the ratio are nominal-speed times, so a slow phase of the machine
/// between the repetition and the unit loops does not tilt it.
pub fn estimate_shares(rep: &Rep, costs: &Costs, out: &mut Layers) {
    let exec_s = rep.norm_s;
    let total = |k: &str| rep.counts.get(k).copied().unwrap_or(0.0) * rep.ops as f64;
    let overlay_ns = rep.msgs as f64 * costs.msg_ns
        + total("overlay.items_scanned") * costs.scan_ns_per_item
        + costs.inserts * costs.insert_ns;
    let strsim_ns =
        total("strsim.edits_per_op") * costs.lev_ns + costs.gram_calls * costs.qgrams_ns;
    let share = |ns: f64| if exec_s > 0.0 { ns / 1e9 / exec_s } else { 0.0 };
    out.insert("core.exec_s", exec_s);
    out.insert("overlay.est_busy_share", share(overlay_ns));
    out.insert("strsim.est_busy_share", share(strsim_ns));
    out.insert("core.unattributed_share", (1.0 - share(overlay_ns + strsim_ns)).max(0.0));
    out.insert("sim.host_ns_per_msg", exec_s * 1e9 / rep.msgs.max(1) as f64);
}

/// Resident set size of this process, bytes (0 where `/proc` is absent).
pub fn rss_bytes() -> u64 {
    proc_status_kb("VmRSS:") * 1024
}

/// Peak resident set size of this process, bytes.
pub fn peak_rss_bytes() -> u64 {
    proc_status_kb("VmHWM:") * 1024
}

fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(field))?.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}
