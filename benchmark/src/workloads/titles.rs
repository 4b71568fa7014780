//! `titles-scan`: one closed-loop caller running synchronous plans over
//! painting-titles — naive similarity scans at d = 1, 2, 3 and, every
//! fourth query, a `select_range` prefix scan.
//!
//! Why. Few messages per query (~25) but every stored title is scanned and
//! edit-verified on each similarity query, so `strsim` and the store scans
//! get their largest share anywhere, while routing, cache, driver and the
//! event queue are all but bypassed: the counterweight to `words-mix`.

use super::{
    build_engine, common_counts, estimate_shares, setup_layers, sim_config, stream, Gate, Layers,
    Rep, SetupInfo, Size, Tally, TraceCtx, Warm, World, CORPUS_SEED,
};
use crate::oracle::{hits, idx_of, Oracle};
use crate::pace::Pacer;
use crate::rng::{derive, Rng};
use crate::span::Tracer;
use crate::surface::{
    attr_value_range, painting_titles, string_rows, EngineBuilder, PeerId, PlanResult, Query,
    Session, SimilarityEngine, Strategy, Value,
};
use crate::units;

const ATTR: &str = "title";
const Q: usize = 3;

/// The four kinds of query the list cycles through — naive similarity at
/// d = 1, 2, 3 and the prefix scan (`d: None`) — each with the span around
/// its `run_prepared` and the metrics it reports to.
struct Cell {
    d: Option<usize>,
    span: &'static str,
    host_us_p50: &'static str,
    host_us_p90: &'static str,
    msgs_per_query: &'static str,
}

const CELLS: [Cell; 4] = [
    Cell {
        d: Some(1),
        span: "core.naive_d1",
        host_us_p50: "core.naive_d1.host_us_p50",
        host_us_p90: "core.naive_d1.host_us_p90",
        msgs_per_query: "core.naive_d1.msgs_per_query",
    },
    Cell {
        d: Some(2),
        span: "core.naive_d2",
        host_us_p50: "core.naive_d2.host_us_p50",
        host_us_p90: "core.naive_d2.host_us_p90",
        msgs_per_query: "core.naive_d2.msgs_per_query",
    },
    Cell {
        d: Some(3),
        span: "core.naive_d3",
        host_us_p50: "core.naive_d3.host_us_p50",
        host_us_p90: "core.naive_d3.host_us_p90",
        msgs_per_query: "core.naive_d3.msgs_per_query",
    },
    Cell {
        d: None,
        span: "core.select_range",
        host_us_p50: "core.select_range.host_us_p50",
        host_us_p90: "core.select_range.host_us_p90",
        msgs_per_query: "core.select_range.msgs_per_query",
    },
];

struct Item {
    /// Index into [`CELLS`].
    cell: usize,
    /// The access point the caller uses for this query. One caller, but a
    /// fresh access point per query: from a single one, the whole run's
    /// message count would hang on where that peer sits in the trie.
    from: PeerId,
    /// The title the query was made from.
    s: String,
    query: Query,
}

pub struct Titles {
    seed: u64,
    titles: Vec<String>,
    warm: Warm,
    list: Vec<Item>,
    info: SetupInfo,
    gate_queries: usize,
}

fn prefix_of(s: &str) -> String {
    s.chars().take(2).collect()
}

pub fn build(seed: u64, size: Size, tr: &mut Tracer) -> Titles {
    let s = tr.begin("datasets.gen");
    let titles = painting_titles(size.pick(5_000, 400), CORPUS_SEED);
    let rows = string_rows(ATTR, &titles, "t");
    tr.end(s);
    let peers = size.pick(512, 64);
    let (engine, info) = build_engine(&rows, peers, Q, seed, EngineBuilder::new(), tr);
    let mut rng = Rng::new(derive(seed, stream::QUERIES));
    let list = (0..size.pick(2_600, 40))
        .map(|i| {
            let s = titles[rng.below(titles.len())].clone();
            let cell = i % CELLS.len();
            let query = match CELLS[cell].d {
                Some(d) => Query::similar(s.clone(), Some(ATTR), d).strategy(Strategy::Naive),
                None => {
                    let p = prefix_of(&s);
                    let hi = format!("{p}\u{10FFFF}");
                    Query::select_range(ATTR, Value::from(p), Value::from(hi))
                }
            };
            Item { cell, from: PeerId(rng.below(peers) as u32), s, query }
        })
        .collect();
    Titles { seed, titles, warm: Warm::new(engine), list, info, gate_queries: size.pick(200, 16) }
}

impl Titles {
    fn fresh(&mut self, with_sink: bool) -> SimilarityEngine {
        self.warm.fresh(with_sink.then(|| sim_config(self.seed)))
    }

    /// The measured phase: the whole list through `prepare` +
    /// `run_prepared`, one query at a time. Per-cell message counts are
    /// returned beside the tally.
    fn run_list(
        &mut self,
        with_sink: bool,
        tr: &mut Tracer,
        pacer: &mut Pacer,
    ) -> (Tally, [u64; 4]) {
        let mut engine = self.fresh(with_sink);
        let mut tally = Tally::default();
        let mut cell_msgs = [0u64; 4];
        let root = tr.begin("workload");
        pacer.begin(tr);
        for (i, item) in self.list.iter().enumerate() {
            if i % 16 == 0 {
                pacer.lap(tr);
            }
            let op = tr.begin("op");
            let mut session = Session::new(&mut engine, item.from);
            let s = tr.begin("plan.prepare");
            let prepared = session.prepare(&item.query);
            tr.end(s);
            match prepared {
                Ok(prepared) => {
                    let s = tr.begin(CELLS[item.cell].span);
                    let result = session.run_prepared(&prepared);
                    tr.end(s);
                    cell_msgs[item.cell] += result.stats.traffic.messages;
                    tally.add(&result.stats);
                }
                Err(_) => {
                    tally.queries += 1;
                    tally.failed += 1;
                }
            }
            tr.end(op);
        }
        pacer.end(tr);
        tr.end(root);
        (tally, cell_msgs)
    }

    fn check(&self, oracle: &Oracle<'_>, item: &Item, r: &PlanResult) -> Result<(), String> {
        if r.stats.completeness() < 1.0 {
            return Err(format!("completeness {} < 1", r.stats.completeness()));
        }
        match CELLS[item.cell].d {
            // The naive strategy compares every stored value: exact.
            Some(d) => oracle.check_similar(&item.s, d, self.titles.len(), true, &hits(&r.rows)?),
            None => {
                let p = prefix_of(&item.s);
                let mut got: Vec<usize> = r
                    .rows
                    .iter()
                    .map(|row| idx_of(&row.oid).ok_or(format!("unexpected oid {:?}", row.oid)))
                    .collect::<Result<_, _>>()?;
                got.sort_unstable();
                got.dedup();
                let want: Vec<usize> =
                    (0..self.titles.len()).filter(|&i| self.titles[i].starts_with(&p)).collect();
                if got == want {
                    Ok(())
                } else {
                    Err(format!("select_range({p:?}): got {}, oracle {}", got.len(), want.len()))
                }
            }
        }
    }
}

impl World for Titles {
    fn gate(&mut self) -> Gate {
        let mut engine = self.fresh(true);
        let oracle = Oracle::new(&self.titles);
        let mut rng = Rng::new(derive(self.seed, stream::GATE));
        let mut gate = Gate::default();
        // A seeded sample of the list itself, four at a time so that every
        // cell is checked equally often.
        for _ in 0..self.gate_queries / 4 {
            let at = rng.below(self.list.len() / 4) * 4;
            for item in &self.list[at..at + 4] {
                let outcome = Session::new(&mut engine, item.from)
                    .run(&item.query)
                    .map_err(|e| format!("{}: {e:?}", CELLS[item.cell].span))
                    .and_then(|r| self.check(&oracle, item, &r));
                gate.check(outcome);
            }
        }
        gate
    }

    fn rep(&mut self, tr: &mut Tracer, pacer: &mut Pacer) -> Rep {
        let (tally, cell_msgs) = self.run_list(true, tr, pacer);
        let mut counts = Default::default();
        common_counts(&tally.stats, tally.queries, &mut counts);
        for (i, (cell, msgs)) in CELLS.iter().zip(cell_msgs).enumerate() {
            let queries = self.list.iter().filter(|it| it.cell == i).count();
            counts.insert(cell.msgs_per_query, msgs as f64 / queries.max(1) as f64);
        }
        Rep {
            ops: tally.queries,
            msgs: tally.stats.traffic.messages,
            bytes: Some(tally.stats.traffic.bytes),
            virt_us: tally.virt(),
            failed: tally.failed,
            counts,
            ..Rep::timed(pacer)
        }
    }

    fn layers(&mut self, ctx: &TraceCtx<'_>, out: &mut Layers) {
        let (rep, size) = (ctx.rep, ctx.size);
        let mut rng = Rng::new(derive(self.seed, stream::UNITS));
        setup_layers(&self.info, ctx, out);
        out.insert("plan.prepare_us_p50", ctx.rep_span_us("plan.prepare").0);
        for cell in &CELLS {
            let (p50, p90) = ctx.rep_span_us(cell.span);
            out.insert(cell.host_us_p50, p50);
            out.insert(cell.host_us_p90, p90);
        }

        // Unit loops over this workload's own inputs: its query titles,
        // (query, stored title) pairs at the list's d = 1, 2, 3 — what the
        // naive scan compares — and (inside) the gram keys of its titles.
        let sample: Vec<String> = self.list.iter().take(256).map(|it| it.s.clone()).collect();
        let pairs: Vec<(String, String, usize)> = (0..1024)
            .map(|i| {
                let stored = self.titles[rng.below(self.titles.len())].clone();
                (sample[i % sample.len()].clone(), stored, 1 + i % 3)
            })
            .collect();
        let mut engine = self.fresh(false);
        let mut costs =
            units::string_and_overlay_units(&sample, &pairs, (ATTR, Q, 1), &mut engine, size, out);
        // The whole attribute: a range wide enough that scanning dominates.
        let (lo, hi) = attr_value_range(
            ATTR,
            &Value::from(String::new()),
            &Value::from("\u{10FFFF}".to_string()),
        );
        costs.scan_ns_per_item = units::scan_ns_per_item(&mut engine, &lo, &hi, size);
        out.insert("overlay.scan_ns_per_item", costs.scan_ns_per_item);
        // `gram_calls` stays 0: the naive strategy extracts no grams.
        estimate_shares(rep, &costs, out);

        // The same list with and without the virtual-time sink, both
        // untraced: what `sim` adds to a synchronous caller.
        let (mut with, mut without) = (size.pacer(), size.pacer());
        self.run_list(true, &mut Tracer::off(), &mut with);
        self.run_list(false, &mut Tracer::off(), &mut without);
        out.insert("sim.netsim_overhead_ratio", with.normalised_s() / without.normalised_s());
    }
}
