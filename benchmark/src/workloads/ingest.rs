//! `ingest-checkpoint`: batches of painting-titles published into a live
//! overlay through `publish_rows_traced`, q-gram reads over the rows
//! already stored after every batch, and a full snapshot round trip
//! (`capture → to_bytes → from_bytes → restore_engine`) after every
//! fourth.
//!
//! Why. Writes beside reads on the store layout `titles-scan` only reads,
//! so a read-side layout win that costs inserts shows here; and the only
//! workload where `storage` publish and the `snap` codec are on the clock.

use super::{
    build_engine, common_counts, estimate_shares, setup_layers, sim_config, stream, Gate, Layers,
    Rep, SetupInfo, Size, Tally, TraceCtx, Warm, World, CORPUS_SEED,
};
use crate::oracle::{hits, Hit, Oracle};
use crate::pace::Pacer;
use crate::rng::{derive, Rng};
use crate::span::Tracer;
use crate::surface::{
    painting_titles, postings_for_rows, string_rows, EngineBuilder, PeerId, PlanRow, Query,
    QueryStats, Row, Session, SimilarityEngine, Snapshot,
};
use crate::units;

const ATTR: &str = "title";
const Q: usize = 3;
const D: usize = 1;

/// The fixed shape of one repetition.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Rows the engine is built on.
    base: usize,
    batches: usize,
    batch_rows: usize,
    reads_per_batch: usize,
    /// A snapshot round trip follows every `snapshot_every`-th batch.
    snapshot_every: usize,
}

impl Shape {
    fn stored_after(&self, batch: usize) -> usize {
        self.base + (batch + 1) * self.batch_rows
    }
}

pub struct Ingest {
    seed: u64,
    shape: Shape,
    titles: Vec<String>,
    rows: Vec<Row>,
    warm: Warm,
    /// Title index and access point of every read, per batch. Access
    /// points vary per call: from a single one, the run's message count
    /// would hang on where that peer sits in the trie.
    reads: Vec<Vec<(usize, PeerId)>>,
    /// The peer each batch is published from.
    publishers: Vec<PeerId>,
    peers: usize,
    info: SetupInfo,
    /// Bytes of every artifact the last repetition encoded.
    artifact_bytes: Vec<usize>,
    gate_batches: usize,
    gate_reads_per_batch: usize,
}

pub fn build(seed: u64, size: Size, tr: &mut Tracer) -> Ingest {
    let shape = Shape {
        base: size.pick(2_000, 200),
        batches: size.pick(10, 2),
        batch_rows: size.pick(1_000, 100),
        reads_per_batch: size.pick(20, 4),
        snapshot_every: size.pick(5, 2),
    };
    let total = shape.stored_after(shape.batches - 1);
    let s = tr.begin("datasets.gen");
    let titles = painting_titles(total, CORPUS_SEED);
    let rows = string_rows(ATTR, &titles, "t");
    tr.end(s);
    let peers = size.pick(512, 64);
    let (engine, info) =
        build_engine(&rows[..shape.base], peers, Q, seed, EngineBuilder::new(), tr);
    let mut rng = Rng::new(derive(seed, stream::QUERIES));
    let publishers = (0..shape.batches).map(|_| PeerId(rng.below(peers) as u32)).collect();
    let reads = (0..shape.batches)
        .map(|b| {
            (0..shape.reads_per_batch)
                .map(|_| (rng.below(shape.stored_after(b)), PeerId(rng.below(peers) as u32)))
                .collect()
        })
        .collect();
    Ingest {
        seed,
        shape,
        titles,
        rows,
        warm: Warm::new(engine),
        reads,
        publishers,
        peers,
        info,
        artifact_bytes: Vec::new(),
        gate_batches: size.pick(4, 2),
        gate_reads_per_batch: size.pick(50, 8),
    }
}

/// An answer in a canonical order, for comparing two engines' answers.
fn answer(rows: &[PlanRow]) -> Result<Vec<Hit>, String> {
    let mut hits = hits(rows)?;
    hits.sort_unstable();
    Ok(hits)
}

impl Ingest {
    fn fresh(&mut self, with_sink: bool) -> SimilarityEngine {
        self.warm.fresh(with_sink.then(|| sim_config(self.seed)))
    }

    fn batch_rows(&self, batch: usize) -> &[Row] {
        &self.rows
            [self.shape.stored_after(batch) - self.shape.batch_rows..self.shape.stored_after(batch)]
    }

    fn read_query(&self, idx: usize) -> Query {
        Query::similar(self.titles[idx].clone(), Some(ATTR), D)
    }

    /// The snapshot round trip, each step under its own span.
    fn round_trip(&self, engine: &SimilarityEngine, tr: &mut Tracer) -> (SimilarityEngine, usize) {
        let s = tr.begin("snap.capture");
        let snap = Snapshot::capture(engine);
        tr.end(s);
        let s = tr.begin("snap.to_bytes");
        let bytes = snap.to_bytes();
        tr.end(s);
        let s = tr.begin("snap.from_bytes");
        let decoded = Snapshot::from_bytes(&bytes).expect("an artifact this process just wrote");
        tr.end(s);
        let s = tr.begin("snap.restore_engine");
        let restored = decoded.restore_engine(engine.config());
        tr.end(s);
        (restored, bytes.len())
    }
}

impl World for Ingest {
    /// The first batches of the workload with the oracle beside them:
    /// every read is checked against brute force over the rows stored so
    /// far, and after the last batch a restored engine must answer the
    /// last read set exactly as the live one did.
    fn gate(&mut self) -> Gate {
        let mut engine = self.fresh(true);
        let oracle = Oracle::new(&self.titles);
        let mut rng = Rng::new(derive(self.seed, stream::GATE));
        let mut gate = Gate::default();
        let mut last: Vec<(usize, PeerId, Vec<Hit>)> = Vec::new();
        for b in 0..self.gate_batches.min(self.shape.batches) {
            let published = engine.publish_rows_traced(self.batch_rows(b), self.publishers[b]);
            gate.check(if published.completeness() < 1.0 {
                Err(format!("batch {b}: publish completeness {}", published.completeness()))
            } else {
                Ok(())
            });
            let stored = self.shape.stored_after(b);
            last.clear();
            for _ in 0..self.gate_reads_per_batch {
                let idx = rng.below(stored);
                let from = PeerId(rng.below(self.peers) as u32);
                let s = &self.titles[idx];
                let outcome = Session::new(&mut engine, from)
                    .run(&self.read_query(idx))
                    .map_err(|e| format!("read: {e:?}"))
                    .and_then(|r| {
                        if r.stats.completeness() < 1.0 {
                            return Err(format!("completeness {} < 1", r.stats.completeness()));
                        }
                        let hits = answer(&r.rows)?;
                        let exact = s.chars().count() >= Q * (D + 1);
                        oracle.check_similar(s, D, stored, exact, &hits)?;
                        last.push((idx, from, hits));
                        Ok(())
                    });
                gate.check(outcome);
            }
        }
        let (mut restored, _) = self.round_trip(&engine, &mut Tracer::off());
        crate::surface::install(&mut restored, sim_config(self.seed));
        for (idx, from, live) in &last {
            let outcome = Session::new(&mut restored, *from)
                .run(&self.read_query(*idx))
                .map_err(|e| format!("restored read: {e:?}"))
                .and_then(|r| answer(&r.rows))
                .and_then(|hits| {
                    if hits == *live {
                        Ok(())
                    } else {
                        Err(format!("restored engine answers {:?} differently", self.titles[*idx]))
                    }
                });
            gate.check(outcome);
        }
        gate
    }

    fn rep(&mut self, tr: &mut Tracer, pacer: &mut Pacer) -> Rep {
        let mut engine = self.fresh(true);
        let shape = self.shape;
        let mut publish = QueryStats::default();
        let mut reads = Tally::default();
        let mut failed = 0u64;
        let mut artifacts = Vec::new();
        let root = tr.begin("workload");
        pacer.begin(tr);
        for b in 0..shape.batches {
            pacer.lap(tr);
            let s = tr.begin("storage.publish_rows_traced");
            let stats = engine.publish_rows_traced(self.batch_rows(b), self.publishers[b]);
            tr.end(s);
            if stats.completeness() < 1.0 {
                failed += 1;
            }
            publish.absorb(&stats);
            for &(idx, from) in &self.reads[b] {
                let op = tr.begin("read");
                let mut session = Session::new(&mut engine, from);
                let query = self.read_query(idx);
                let s = tr.begin("plan.prepare");
                let prepared = session.prepare(&query);
                tr.end(s);
                match prepared {
                    Ok(prepared) => {
                        let s = tr.begin("core.qgrams_d1");
                        let result = session.run_prepared(&prepared);
                        tr.end(s);
                        reads.add(&result.stats);
                    }
                    Err(_) => {
                        reads.queries += 1;
                        reads.failed += 1;
                    }
                }
                tr.end(op);
            }
            if (b + 1) % shape.snapshot_every == 0 {
                let op = tr.begin("checkpoint");
                let (restored, bytes) = self.round_trip(&engine, tr);
                tr.end(op);
                // The gate checks restored answers; here only that the
                // restored world holds what the live one holds.
                if restored.network().total_stored_items() != engine.network().total_stored_items()
                {
                    failed += 1;
                }
                artifacts.push(bytes);
            }
        }
        pacer.end(tr);
        tr.end(root);

        let ops = (shape.batches * shape.batch_rows) as u64;
        let mut all = publish;
        all.absorb(&reads.stats);
        // `absorb` adds simulated latencies up; the queue share is of the
        // reads alone, like `virt_*`.
        all.sim = reads.stats.sim;
        let mut counts = Default::default();
        common_counts(&all, ops, &mut counts);
        counts.insert(
            "core.qgrams_d1.msgs_per_query",
            reads.stats.traffic.messages as f64 / reads.queries.max(1) as f64,
        );
        counts.insert("snap.artifact_mb", artifacts.last().map_or(0.0, |&b| b as f64 / 1e6));
        self.artifact_bytes = artifacts;
        Rep {
            ops,
            msgs: all.traffic.messages,
            bytes: Some(all.traffic.bytes),
            virt_us: reads.virt(),
            failed: failed + reads.failed,
            counts,
            ..Rep::timed(pacer)
        }
    }

    fn layers(&mut self, ctx: &TraceCtx<'_>, out: &mut Layers) {
        let (rep, size) = (ctx.rep, ctx.size);
        let mut rng = Rng::new(derive(self.seed, stream::UNITS));
        setup_layers(&self.info, ctx, out);
        out.insert(
            "storage.publish_rows_per_s",
            rep.ops as f64 / ctx.rep_span_s("storage.publish_rows_traced"),
        );
        let mb = self.artifact_bytes.iter().sum::<usize>() as f64 / 1e6;
        out.insert("snap.capture_s", ctx.rep_span_s("snap.capture"));
        out.insert("snap.encode_mb_per_s", mb / ctx.rep_span_s("snap.to_bytes"));
        out.insert("snap.decode_mb_per_s", mb / ctx.rep_span_s("snap.from_bytes"));
        out.insert("snap.restore_s", ctx.rep_span_s("snap.restore_engine"));
        let (p50, p90) = ctx.rep_span_us("core.qgrams_d1");
        out.insert("core.qgrams_d1.host_us_p50", p50);
        out.insert("core.qgrams_d1.host_us_p90", p90);

        // Unit loops: the read strings, (read, stored title) pairs at the
        // reads' d, the gram keys they probe, and the postings of the
        // first batch inserted into the base world.
        let sample: Vec<String> =
            self.reads.iter().flatten().take(256).map(|&(i, _)| self.titles[i].clone()).collect();
        let pairs: Vec<(String, String, usize)> = sample
            .iter()
            .map(|s| (s.clone(), self.titles[rng.below(self.titles.len())].clone(), D))
            .collect();
        let mut engine = self.fresh(false);
        let mut costs =
            units::string_and_overlay_units(&sample, &pairs, (ATTR, Q, D), &mut engine, size, out);
        let publish = self.warm.engine.config().publish.clone();
        let (postings, _) = postings_for_rows(self.batch_rows(0), &publish);
        costs.insert_ns = units::insert_ns(|| self.warm.fresh(None), &postings, size);
        out.insert("overlay.insert_ns", costs.insert_ns);
        // Extrapolated from the first batch: titles are alike.
        costs.inserts = postings.len() as f64 / self.shape.batch_rows as f64 * rep.ops as f64;
        costs.gram_calls =
            rep.ops as f64 + (self.shape.batches * self.shape.reads_per_batch) as f64;
        estimate_shares(rep, &costs, out);
    }
}
