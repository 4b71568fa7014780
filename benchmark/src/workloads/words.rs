//! `words-mix` and `words-zipf-cached`: the §6 query mix driven through
//! `run_driver` against bible-words.
//!
//! Why this pair. `words-mix` is the path every experiment of the repo
//! runs: ~250 routed messages per query, so `overlay` routing, the `core`
//! state machines and the `sim` event loop do most of the work while
//! `cache` and `snap` do none. `words-zipf-cached` is the same world and
//! mix with the skew and sticky access points that give the initiator
//! cache a working set (capacity 4096 against ~13 k distinct (initiator,
//! gram) pairs, so eviction is live): a cache or coalescing change must
//! move that row and leave `words-mix` still.
//!
//! Open loop in *virtual* time: 16 clients, Poisson arrivals at a mean of
//! 150 ms each — about half the rate the 512-peer overlay sustains, so no
//! backlog grows and the percentiles are latencies, not queue lengths.
//!
//! One repetition is three driver runs of 16 × 18 queries, each with its
//! own driver seed on a freshly thawed engine, pooled into one report
//! (864 queries, 216 per operator). A single run of three times the length
//! would be one opaque two-second call; three of under a second each are
//! three slices the pacer can put its reference kernel between (see
//! [`crate::pace`]).

use super::{
    build_engine, common_counts, estimate_shares, setup_layers, sim_config, stream, Gate, Layers,
    Rep, SetupInfo, Size, TraceCtx, Warm, World, CORPUS_SEED,
};
use crate::oracle::{hits, idx_of, Hit, Oracle};
use crate::pace::Pacer;
use crate::rng::{derive, Rng, Zipf};
use crate::span::Tracer;
use crate::surface::{
    bible_words, run_driver, string_rows, vql_run, Arrival, BlameProfiler, BrokerConfig,
    DriverConfig, DriverReport, EngineBuilder, FanoutSink, JoinWindow, LogHistogram, PlanRow,
    Query, QueryKind, QueryStats, Session, SimilarityEngine, TraceCollector, Value, VqlOptions,
};
use crate::units;

const ATTR: &str = "word";
const Q: usize = 2;
const ZIPF_S: f64 = 1.1;
const CLIENTS: usize = 16;
const JOIN_LEFT: usize = 8;
const TOP_N: usize = 5;
const TOP_D_MAX: usize = 3;
const RUNS_PER_REP: u64 = 3;
/// Operator labels of the mix, as `DriverReport` spells them.
const OPERATORS: [&str; 4] = ["similar", "topn", "simjoin", "vql"];

pub struct Words {
    cached: bool,
    seed: u64,
    words: Vec<String>,
    warm: Warm,
    /// The driver runs of one repetition.
    runs: Vec<DriverConfig>,
    info: SetupInfo,
    gate_queries: usize,
}

pub fn build(cached: bool, seed: u64, size: Size, tr: &mut Tracer) -> Words {
    let s = tr.begin("datasets.gen");
    let words = bible_words(size.pick(5_000, 600), CORPUS_SEED);
    let rows = string_rows(ATTR, &words, "w");
    tr.end(s);
    // The cached world carries a broker from the start so that the gate's
    // synchronous queries go through the cache too; `run_driver` swaps in
    // a fresh one of the same configuration for every run.
    let cache = if cached { BrokerConfig::enabled() } else { BrokerConfig::default() };
    let builder = EngineBuilder::new().cache_config(cache);
    let (engine, info) = build_engine(&rows, size.pick(512, 64), Q, seed, builder, tr);
    let run = |j: u64| DriverConfig {
        clients: CLIENTS,
        queries_per_client: size.pick(18, 2),
        arrival: Arrival::Poisson { mean_interarrival_us: 150_000 },
        mix: vec![
            QueryKind::Similar { d: 1 },
            QueryKind::TopN { n: TOP_N, d_max: TOP_D_MAX },
            QueryKind::SimJoin { d: 1, left_limit: Some(JOIN_LEFT), window: JoinWindow::Fixed(8) },
            QueryKind::Vql { d: 1 },
        ],
        sim: sim_config(derive(seed, j)),
        cache,
        zipf_s: if cached { ZIPF_S } else { 0.0 },
        sticky_initiators: cached,
        seed: derive(derive(seed, stream::DRIVER), j),
        ..DriverConfig::default()
    };
    Words {
        cached,
        seed,
        words,
        warm: Warm::new(engine),
        runs: (0..RUNS_PER_REP).map(run).collect(),
        info,
        gate_queries: size.pick(200, 24),
    }
}

fn vql_text(s: &str, d: usize) -> String {
    // Same text, and same quote handling, as the driver's `Vql` template.
    let s = s.replace('\'', " ");
    format!("SELECT ?o WHERE {{ (?o,{ATTR},?v) FILTER (dist(?v,'{s}') < {}) }}", d + 1)
}

impl Words {
    /// One driver run on a fresh engine; only the run itself is timed.
    fn drive(&mut self, cfg: &DriverConfig, tr: &mut Tracer, pacer: &mut Pacer) -> DriverReport {
        let s = tr.begin("bench.thaw");
        let mut engine = self.warm.fresh(None);
        tr.end(s);
        pacer.begin(tr);
        let s = tr.begin("sim.run_driver");
        let report = run_driver(&mut engine, ATTR, &self.words, cfg);
        tr.end(s);
        pacer.end(tr);
        report
    }

    /// One gate query of kind `i % 4`, through the same surfaces the
    /// driver's templates compile to.
    fn gate_one(
        &self,
        engine: &mut SimilarityEngine,
        oracle: &Oracle<'_>,
        i: usize,
        s: &str,
    ) -> Result<(), String> {
        let n = self.words.len();
        let len = s.chars().count();
        let from = engine.random_peer();
        let complete = |c: f64| {
            if c < 1.0 {
                Err(format!("completeness {c} < 1"))
            } else {
                Ok(())
            }
        };
        match i % 4 {
            0 => {
                let r = Session::new(engine, from)
                    .run(&Query::similar(s, Some(ATTR), 1))
                    .map_err(|e| format!("similar: {e:?}"))?;
                complete(r.stats.completeness())?;
                oracle.check_similar(s, 1, n, len >= 2 * Q, &hits(&r.rows)?)
            }
            1 => {
                let r = Session::new(engine, from)
                    .run(&Query::top_n_similar(Some(ATTR), TOP_N, s, TOP_D_MAX))
                    .map_err(|e| format!("top_n: {e:?}"))?;
                complete(r.stats.completeness())?;
                oracle.check_top_n(s, TOP_N, TOP_D_MAX, Q, &hits(&r.rows)?)
            }
            2 => {
                let q = Query::join_scan(ATTR, Some(ATTR), 1).left_limit(Some(JOIN_LEFT)).window(8);
                let r = Session::new(engine, from).run(&q).map_err(|e| format!("join: {e:?}"))?;
                complete(r.stats.completeness())?;
                // Group the pairs by left value; every left matches at
                // least itself, so all `JOIN_LEFT` lefts show up.
                let mut lefts: Vec<&str> = r
                    .rows
                    .iter()
                    .map(|row| row.left.as_ref().map(|(_, v)| v.as_str()).ok_or("row without left"))
                    .collect::<Result<_, _>>()?;
                lefts.sort_unstable();
                lefts.dedup();
                if lefts.len() != JOIN_LEFT.min(n) {
                    return Err(format!("join: {} distinct lefts, want {JOIN_LEFT}", lefts.len()));
                }
                for left in lefts {
                    let rows: Vec<PlanRow> = r
                        .rows
                        .iter()
                        .filter(|row| row.left.as_ref().is_some_and(|(_, v)| v == left))
                        .cloned()
                        .collect();
                    let exact = left.chars().count() >= 2 * Q;
                    oracle.check_similar(left, 1, n, exact, &hits(&rows)?)?;
                }
                Ok(())
            }
            _ => {
                let out = vql_run(engine, from, &vql_text(s, 1), &VqlOptions::default())
                    .map_err(|e| format!("vql: {e}"))?;
                complete(out.stats.completeness())?;
                let got: Vec<Hit> = out
                    .rows
                    .iter()
                    .map(|row| match row.first() {
                        Some(Value::Str(oid)) => idx_of(oid)
                            .map(|idx| Hit {
                                idx,
                                dist: crate::surface::levenshtein(s, &self.words[idx]),
                            })
                            .ok_or_else(|| format!("unexpected oid {oid:?}")),
                        other => Err(format!("vql row without an oid: {other:?}")),
                    })
                    .collect::<Result<_, _>>()?;
                oracle.check_similar(s, 1, n, len >= 2 * Q, &got)
            }
        }
    }
}

/// The driver runs of one repetition, pooled: counts add up, latency
/// histograms merge.
#[derive(Default)]
struct Pool {
    wanted: u64,
    ops: u64,
    diagnostics: u64,
    total: QueryStats,
    cache: [u64; 6],
    overall: LogHistogram,
    /// Latencies and messages per operator, in `OPERATORS` order.
    per_op: [(LogHistogram, u64); 4],
}

impl Pool {
    fn add(&mut self, cfg: &DriverConfig, report: &DriverReport) {
        self.wanted += (cfg.clients * cfg.queries_per_client) as u64;
        self.ops += report.queries_run as u64;
        self.diagnostics += report.diagnostics.len() as u64;
        self.total.absorb(&report.total);
        let c = &report.cache;
        let add = [
            c.cache_hits,
            c.cache_misses,
            c.probes_coalesced,
            c.channels_opened,
            c.messages_saved,
            c.admission_rejects,
        ];
        for (sum, x) in self.cache.iter_mut().zip(add) {
            *sum += x;
        }
        if let Some(h) = report.metrics.histogram("latency.query_us") {
            self.overall.merge(h);
        }
        for (op, (lat, msgs)) in OPERATORS.iter().zip(self.per_op.iter_mut()) {
            if let Some(h) = report.metrics.histogram(&format!("latency.{op}_us")) {
                lat.merge(h);
            }
            *msgs +=
                report.per_operator.iter().find(|o| o.operator == *op).map_or(0, |o| o.messages);
        }
    }

    fn into_rep(self, pacer: &Pacer) -> Rep {
        let Pool { wanted, ops, diagnostics, total, cache, overall, per_op } = self;
        // Queries that never ran, anomalies the driver survived, and
        // partition legs that did not answer all count as failed ops.
        let failed = wanted.saturating_sub(ops)
            + diagnostics
            + (total.partitions_addressed - total.partitions_answered).min(ops);

        let mut counts = Default::default();
        common_counts(&total, ops, &mut counts);
        let [hits, misses, coalesced, channels, saved, rejects] = cache.map(|x| x as f64);
        counts.insert(
            "cache.hit_rate",
            if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        );
        counts.insert("cache.probes_coalesced", coalesced);
        counts.insert("cache.channels_opened", channels);
        counts.insert("cache.messages_saved", saved);
        counts.insert("cache.admission_rejects", rejects);
        const NAMES: [[&str; 3]; 4] = [
            ["core.similar.virt_p50_ms", "core.similar.virt_p95_ms", "core.similar.msgs_per_query"],
            ["core.topn.virt_p50_ms", "core.topn.virt_p95_ms", "core.topn.msgs_per_query"],
            ["core.simjoin.virt_p50_ms", "core.simjoin.virt_p95_ms", "core.simjoin.msgs_per_query"],
            ["core.vql.virt_p50_ms", "core.vql.virt_p95_ms", "core.vql.msgs_per_query"],
        ];
        for (names, (lat, msgs)) in NAMES.iter().zip(&per_op) {
            if lat.count() > 0 {
                counts.insert(names[0], lat.quantile(50.0) as f64 / 1e3);
                counts.insert(names[1], lat.quantile(95.0) as f64 / 1e3);
                counts.insert(names[2], *msgs as f64 / lat.count() as f64);
            }
        }
        let virt_us = (overall.count() > 0)
            .then(|| (overall.quantile(50.0), overall.quantile(95.0), overall.count() as usize));
        Rep {
            ops,
            msgs: total.traffic.messages,
            bytes: Some(total.traffic.bytes),
            virt_us,
            failed,
            counts,
            ..Rep::timed(pacer)
        }
    }
}

impl World for Words {
    fn gate(&mut self) -> Gate {
        let mut engine = self.warm.fresh(Some(self.runs[0].sim));
        let oracle = Oracle::new(&self.words);
        let mut rng = Rng::new(derive(self.seed, stream::GATE));
        let zipf = self.cached.then(|| Zipf::new(self.words.len(), ZIPF_S));
        let mut gate = Gate::default();
        for i in 0..self.gate_queries {
            let pick = match &zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.below(self.words.len()),
            };
            let s = self.words[pick].clone();
            gate.check(self.gate_one(&mut engine, &oracle, i, &s));
        }
        gate
    }

    fn rep(&mut self, tr: &mut Tracer, pacer: &mut Pacer) -> Rep {
        let mut pool = Pool::default();
        let root = tr.begin("workload");
        for cfg in self.runs.clone() {
            let report = self.drive(&cfg, tr, pacer);
            pool.add(&cfg, &report);
        }
        tr.end(root);
        pool.into_rep(pacer)
    }

    fn layers(&mut self, ctx: &TraceCtx<'_>, out: &mut Layers) {
        let (rep, size) = (ctx.rep, ctx.size);
        let useed = derive(self.seed, stream::UNITS);
        let mut rng = Rng::new(useed);
        setup_layers(&self.info, ctx, out);
        out.insert("sim.driver_s", ctx.rep_span_s("sim.run_driver"));

        // Inputs of the unit loops: this workload's query strings, the
        // gram keys they probe, and (query, stored value) pairs at d = 1.
        let sample: Vec<String> =
            (0..256).map(|_| self.words[rng.below(self.words.len())].clone()).collect();
        let pairs: Vec<(String, String, usize)> = sample
            .iter()
            .map(|s| (s.clone(), self.words[rng.below(self.words.len())].clone(), 1))
            .collect();
        let mut engine = self.warm.fresh(None);
        let mut costs =
            units::string_and_overlay_units(&sample, &pairs, (ATTR, Q, 1), &mut engine, size, out);
        costs.gram_calls = rep.ops as f64;
        estimate_shares(rep, &costs, out);
        out.insert("sim.event_queue_ns_d16", units::event_queue_ns(16, useed, size));
        out.insert("sim.event_queue_ns_d10k", units::event_queue_ns(10_000, useed, size));

        if self.cached {
            let (lru_ns, sketch_ns) = units::cache_units(useed, size);
            out.insert("cache.lru_ns", lru_ns);
            out.insert("cache.sketch_ns", sketch_ns);
            return;
        }

        // `vql` and `obs` are reported on `words-mix` only.
        let texts: Vec<String> = sample.iter().take(32).map(|s| vql_text(s, 1)).collect();
        out.insert("vql.parse_us_p50", units::vql_parse_us_p50(&texts, size));
        out.insert("obs.hist_record_ns", units::hist_record_ns(useed, size));

        // The price of turning tracing on: one driver run of the
        // repetition, once bare and once with a collector and a blame
        // profiler attached.
        let cfg = self.runs[0].clone();
        let mut bare_pacer = size.pacer();
        let bare = self.drive(&cfg, &mut Tracer::off(), &mut bare_pacer);
        let collector = TraceCollector::shared();
        let profiler = BlameProfiler::shared(4);
        let mut engine = self.warm.fresh(None);
        engine.network_mut().set_trace_sink(FanoutSink::shared(vec![
            TraceCollector::as_sink(&collector),
            BlameProfiler::as_sink(&profiler),
        ]));
        let mut traced_pacer = size.pacer();
        traced_pacer.begin(&mut Tracer::off());
        let traced = run_driver(&mut engine, ATTR, &self.words, &cfg);
        traced_pacer.end(&mut Tracer::off());
        assert_eq!(
            traced.total.traffic, bare.total.traffic,
            "attaching sinks must not change the simulated run"
        );
        out.insert(
            "obs.sink_overhead_ratio",
            traced_pacer.normalised_s() / bare_pacer.normalised_s(),
        );
        let events = collector.borrow().len();
        out.insert("obs.events_per_query", events as f64 / traced.queries_run.max(1) as f64);
        let mut pacer = size.pacer();
        pacer.begin(&mut Tracer::off());
        let export = collector.borrow().to_chrome_trace();
        pacer.end(&mut Tracer::off());
        out.insert("obs.export_mb_per_s", export.len() as f64 / 1e6 / pacer.normalised_s());
    }
}
