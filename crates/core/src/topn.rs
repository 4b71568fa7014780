//! Top-N queries — Algorithms 4 and 5 of the paper.
//!
//! `TopN(a, N, rank, v, p)` returns the `N` objects whose value of
//! attribute `a` ranks best under `rank ∈ {MIN, MAX, NN}`.
//!
//! **Numeric attributes** follow Algorithm 4 faithfully: the processing
//! peer estimates the *data density* from its local partition (`c` items
//! over a local key range of width `r` — "approximately equivalent to the
//! data density on all other peers because of load balancing"), derives a
//! first query range expected to contain all `N` results, issues a P-Grid
//! range query, and — if the estimate was short — enlarges the range
//! according to the observed density (lines 10–12) until `|R| >= N`.
//! `Keys(range, rank, u, v)` (Algorithm 5) positions the window: descending
//! from the maximum for MAX, ascending from the minimum for MIN, growing
//! symmetrically around the target for NN.
//!
//! **String attributes** (NN only, §5: "for processing top-N queries on
//! strings we have to handle concrete distances instead of interval start
//! and end points") run `Similar` over expanding edit-distance shells
//! `d = 1, 3, 5, …` up to `d_max`, reusing the initiator's object cache
//! across shells, until `N` matches are known. Successive shells probe the
//! *same* gram keys (the search string never changes — only `d` grows), so
//! with a probe broker installed (see [`crate::broker`]) a later shell's
//! probes are answered from the initiator's posting cache. Without one
//! (`words-mix`) every shell probes afresh, and at q = 2 the wide shell's
//! count filter passes nearly all of its window (`docs/PERFORMANCE.md`).

use crate::engine::{finalize_stats, ExecStep, ObjectCache, SimilarityEngine, StepOutcome};
use crate::ranking::Rank;
use crate::similar::{Candidate, Strategy};
use crate::stats::QueryStats;
use rustc_hash::{FxHashMap, FxHashSet};
use sqo_overlay::peer::PeerId;
use sqo_storage::keys;
use sqo_storage::objects::Fetched;
use sqo_storage::triple::Value;

/// One ranked result, its object a handle, as
/// [`SelectHit`](crate::SelectHit)'s is.
#[derive(Clone)]
pub struct TopNItem {
    pub oid: String,
    /// The ranked value (numeric path) or matched string (string path).
    pub value: Value,
    /// Ranking score — smaller is better (distance for NN, the value itself
    /// for MIN, its negation for MAX).
    pub score: f64,
    pub handle: Fetched,
}

built_object!(TopNItem { oid, value, score; });

/// Iteration cap for the enlargement loop — a safety net; the loop normally
/// exits after one or two rounds (that is the point of density estimation).
const MAX_ROUNDS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NumDomain {
    Int,
    Float,
}

impl NumDomain {
    fn of(v: &Value) -> Option<NumDomain> {
        match v {
            Value::Int(_) => Some(NumDomain::Int),
            Value::Float(_) => Some(NumDomain::Float),
            Value::Str(_) => None,
        }
    }

    fn value(self, x: f64) -> Value {
        match self {
            NumDomain::Int => Value::Int(x.round().clamp(i64::MIN as f64, i64::MAX as f64) as i64),
            NumDomain::Float => Value::Float(x),
        }
    }
}

impl SimilarityEngine {
    /// Algorithm 4's body over a **numeric** attribute: the ranked items
    /// and the enlargement rounds spent. [`TopNTask::numeric`] runs it as
    /// one charged chunk.
    fn numeric_top_n(
        &mut self,
        attr: &str,
        n: usize,
        rank: &Rank,
        from: PeerId,
    ) -> (Vec<TopNItem>, usize) {
        let prefix = keys::attr_scan_prefix(attr);
        let (ps, pe) = self.net.subtree_of(&prefix);
        // The partitions of the attribute's interval that hold data; the
        // gaps between them hold none and are not probed.
        let peered: Vec<usize> =
            self.net.topology().peered_in(ps, pe).iter().map(|p| *p as usize).collect();
        let (Some(&first), Some(&last)) = (peered.first(), peered.last()) else {
            return (Vec::new(), 0);
        };

        // --- Lines 1–3: local density estimation at the entry peer -------
        let entry_path = match rank {
            Rank::Max => self.net.paths()[last].clone(),
            Rank::Min => self.net.paths()[first].clone(),
            Rank::Nn(v) => keys::attr_value_key(attr, v),
        };
        let Ok(entry) = self.net.route(from, &entry_path) else {
            return (Vec::new(), 0);
        };

        // Density sampling. The entry partition is the natural sample, but
        // a boundary partition may hold no postings of this attribute (it
        // merely *covers* part of the attribute's key interval); in that
        // case walk towards the data — one forward message per extra
        // partition probed — so the estimate (and, for MAX/MIN, the global
        // extremum) comes from real postings.
        let entry_part = self.net.peer_partition(entry);
        let mut domain: Option<NumDomain> = None;
        let mut local: Vec<f64> = Vec::new();
        let entry_at = peered.partition_point(|p| *p < entry_part);
        for part in probe_order(rank, peered.len(), entry_at).into_iter().map(|i| peered[i]) {
            let responder = if part == entry_part {
                entry
            } else {
                let Some(p) = self.net.partition_member(part) else { continue };
                self.net.forward_to(entry, p);
                p
            };
            for p in self.net.local_prefix_run(responder, &prefix) {
                let Some(t) = p.as_base() else { continue };
                if t.attr().as_str() != attr {
                    continue;
                }
                if let Some(x) = t.value().as_float() {
                    if domain.is_none() {
                        domain = NumDomain::of(&t.value().to_value());
                    }
                    local.push(x);
                }
            }
            if !local.is_empty() {
                break;
            }
        }
        if local.is_empty() {
            // No posting of this attribute exists anywhere.
            return (Vec::new(), 0);
        }

        let (c, local_lo, local_hi) = summarize(&local);
        // range = N * r / c (line 3), with a floor so zero-width local data
        // still makes progress.
        let r_width = (local_hi - local_lo).max(f64::EPSILON);
        let mut range = if c > 0 { (n as f64) * r_width / (c as f64) } else { 1.0 };
        // For NN the first window must at least reach the data: when the
        // target lies outside the populated key region (or the local sample
        // is a single point, making the density estimate degenerate), grow
        // the initial range to cover the gap to the nearest sampled value.
        if let Rank::Nn(t) = rank {
            let target = t.as_float().expect("checked at construction");
            let gap = local.iter().map(|x| (x - target).abs()).fold(f64::INFINITY, f64::min);
            if gap.is_finite() {
                range = range.max(2.0 * gap + r_width);
            }
        }
        range = range.max(f64::EPSILON);

        // --- Lines 4–7: initial window via Keys() ------------------------
        let (mut fr, mut to) = match rank {
            Rank::Max => {
                let v = local_hi + range + 1.0; // line 5
                keys_window(range, rank, v, v)
            }
            Rank::Min => {
                let v = local_lo - range - 1.0; // mirror of line 5
                keys_window(range, rank, v, v)
            }
            Rank::Nn(t) => {
                let v = t.as_float().expect("checked at construction");
                keys_window(range, rank, v, v)
            }
        };

        // --- Lines 8–13: query, enlarge until |R| >= N --------------------
        let mut results: FxHashMap<(String, u64), (Value, f64)> = FxHashMap::default();
        let mut rounds = 0usize;
        let mut stagnant = 0usize;
        while rounds < MAX_ROUNDS {
            rounds += 1;
            let before = results.len();
            // Domain may be unknown until the first round returns data.
            let dom = domain.unwrap_or(NumDomain::Int);
            let (klo, khi) = keys::attr_value_range(attr, &dom.value(fr), &dom.value(to));
            // Query both numeric subdomains when the type is still unknown.
            let runs = self.net.range_query(from, &klo, &khi).unwrap_or_default();
            for p in runs.iter().flat_map(|r| self.net.run_items(r)) {
                let Some(t) = p.as_base() else { continue };
                if t.attr().as_str() != attr {
                    continue;
                }
                let Some(x) = t.value().as_float() else { continue };
                let value = t.value().to_value(); // a number: nothing is copied
                if domain.is_none() {
                    domain = NumDomain::of(&value);
                }
                let Some(score) = rank.score(&value) else { continue };
                results.insert((t.oid().to_string(), x.to_bits()), (value, score));
            }
            if results.len() >= n {
                break;
            }
            stagnant = if results.len() == before { stagnant + 1 } else { 0 };
            if stagnant >= 8 {
                break; // range exhausted the populated key space
            }
            // Line 11: adapt the range to the observed density; grow
            // exponentially while rounds come back empty so sparse, distant
            // data is still reached.
            let observed = results.len().max(1) as f64;
            let mut grow = ((n as f64) * (to - fr) / observed).max(range);
            if stagnant > 0 {
                grow = grow.max((to - fr) * (1 << stagnant.min(20)) as f64);
            }
            // Extend the window over fresh key space (see module docs on the
            // cleaned-up iteration of Keys()).
            match rank {
                Rank::Max => fr -= grow,
                Rank::Min => to += grow,
                Rank::Nn(_) => {
                    fr -= grow / 2.0;
                    to += grow / 2.0;
                }
            }
            range = grow;
        }

        // --- Line 14: sort, prune, assemble -------------------------------
        let mut ranked: Vec<(String, Value, f64)> =
            results.into_iter().map(|((oid, _), (v, s))| (oid, v, s)).collect();
        ranked.sort_by(|a, b| a.2.total_cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(n);

        let oids: FxHashSet<String> = ranked.iter().map(|(o, _, _)| o.clone()).collect();
        let objects = self.fetch_objects(from, &oids);
        let items: Vec<TopNItem> = ranked
            .into_iter()
            .filter_map(|(oid, value, score)| {
                let handle = objects.get(&oid)?.clone();
                Some(TopNItem { oid, value, score, handle })
            })
            .collect();
        (items, rounds)
    }
}

/// Top-N as a resumable task. Numeric top-N runs Algorithm 4 as one
/// charged step — a bounded number of range rounds. String top-N steps one
/// event at a time: each expanding distance shell is a child
/// [`SimilarTask`](crate::similar::SimilarTask), and all shells share the
/// initiator's object cache.
pub struct TopNTask {
    kind: TopNKind,
    n: usize,
    from: PeerId,
    state: NState,
    stats: QueryStats,
    cache: ObjectCache,
    /// The string ranking's matches so far, each (oid, attribute, text)
    /// once with its distance; only the kept `n` become items.
    best: FxHashMap<Candidate, usize>,
    rounds: usize,
    items: Vec<TopNItem>,
}

/// What a [`TopNTask`] ranks.
enum TopNKind {
    /// The values of a numeric attribute, under MIN, MAX or numeric NN.
    Numeric { attr: String, rank: Rank },
    /// The strings nearest `target`, up to distance `d_max`; `attr = None`
    /// ranks attribute *names* (schema level).
    Nearest { attr: Option<String>, target: String, d_max: usize, strategy: Strategy },
}

enum NState {
    Init,
    Shell { d: usize, child: Box<crate::similar::SimilarTask>, resume_at: u64 },
    Finished,
}

impl TopNTask {
    /// Top-N over a **numeric** attribute (Algorithm 4). `Err` for `n = 0`
    /// and for a `Rank::Nn` target that is not a number.
    pub fn numeric(attr: &str, n: usize, rank: Rank, from: PeerId) -> Result<Self, &'static str> {
        if let Rank::Nn(target) = &rank {
            if target.as_float().is_none() {
                return Err("numeric top-N requires a numeric NN target");
            }
        }
        Self::new(TopNKind::Numeric { attr: attr.to_string(), rank }, n, from)
    }

    /// Top-N nearest neighbors of a **string** under edit distance:
    /// expanding distance shells over `Similar`. `attr = None` ranks
    /// attribute *names* (schema level), as in the paper's
    /// `ORDER BY ?a NN 'dlrid'` example. `Err` for `n = 0`.
    pub fn nearest(
        attr: Option<&str>,
        n: usize,
        target: &str,
        d_max: usize,
        from: PeerId,
        strategy: Strategy,
    ) -> Result<Self, &'static str> {
        let kind = TopNKind::Nearest {
            attr: attr.map(str::to_string),
            target: target.to_string(),
            d_max,
            strategy,
        };
        Self::new(kind, n, from)
    }

    fn new(kind: TopNKind, n: usize, from: PeerId) -> Result<Self, &'static str> {
        if n == 0 {
            return Err("top-0 is trivial");
        }
        Ok(Self {
            kind,
            n,
            from,
            state: NState::Init,
            stats: QueryStats::default(),
            cache: FxHashMap::default(),
            best: FxHashMap::default(),
            rounds: 0,
            items: Vec::new(),
        })
    }

    /// The ranked items, once the task is done.
    pub fn take_items(&mut self) -> Vec<TopNItem> {
        std::mem::take(&mut self.items)
    }

    /// The string ranking's distance cap (0 for a numeric ranking).
    fn d_max(&self) -> usize {
        match self.kind {
            TopNKind::Nearest { d_max, .. } => d_max,
            TopNKind::Numeric { .. } => 0,
        }
    }

    fn shell(&self, d: usize) -> Box<crate::similar::SimilarTask> {
        let TopNKind::Nearest { attr, target, strategy, .. } = &self.kind else {
            unreachable!("numeric top-N runs no distance shells")
        };
        Box::new(crate::similar::SimilarTask::new(target, attr.as_deref(), d, self.from, *strategy))
    }

    /// Keep the ranked items and close the task's stats.
    fn finish(&mut self, items: Vec<TopNItem>) -> StepOutcome {
        self.stats.matches = items.len();
        finalize_stats(&mut self.stats);
        self.items = items;
        self.state = NState::Finished;
        StepOutcome::Done(self.stats)
    }
}

impl ExecStep for TopNTask {
    fn step(&mut self, engine: &mut SimilarityEngine, at_us: u64) -> StepOutcome {
        loop {
            match std::mem::replace(&mut self.state, NState::Finished) {
                NState::Init => {
                    if let TopNKind::Numeric { attr, rank } = &self.kind {
                        let (n, from) = (self.n, self.from);
                        let ((items, rounds), _) = engine.charged(&mut self.stats, at_us, |e| {
                            e.numeric_top_n(attr, n, rank, from)
                        });
                        self.stats.rounds = rounds;
                        return self.finish(items);
                    }
                    let d = 1usize.min(self.d_max());
                    let child = self.shell(d);
                    self.state = NState::Shell { d, child, resume_at: at_us };
                    continue;
                }

                NState::Shell { d, mut child, resume_at } => {
                    match child.step_with(engine, &mut self.cache, resume_at) {
                        StepOutcome::Yield { at_us } => {
                            self.state = NState::Shell { d, child, resume_at: at_us };
                            return StepOutcome::Yield { at_us };
                        }
                        StepOutcome::Done(child_stats) => {
                            self.rounds += 1;
                            self.stats.absorb(&child_stats);
                            let end = child_stats.sim.map(|s| s.end_us).unwrap_or(resume_at);
                            for (cand, distance) in child.take_verified() {
                                self.best.entry(cand).or_insert(distance);
                            }
                            if self.best.len() >= self.n || d >= self.d_max() {
                                // Best distance, then text, then oid: a total
                                // order, as the level fixes the attribute (the
                                // queried one, or the text itself).
                                let mut ranked: Vec<(Candidate, usize)> =
                                    std::mem::take(&mut self.best).into_iter().collect();
                                ranked.sort_unstable_by(|(a, da), (b, db)| {
                                    da.cmp(db)
                                        .then_with(|| a.text().cmp(b.text()))
                                        .then_with(|| a.oid().cmp(b.oid()))
                                });
                                ranked.truncate(self.n);
                                let cache = &self.cache;
                                let items = ranked
                                    .into_iter()
                                    .filter_map(|(cand, distance)| {
                                        Some(TopNItem {
                                            handle: cache.get(&cand.object())?.clone(),
                                            oid: cand.oid().to_string(),
                                            value: Value::Str(cand.text().to_string()),
                                            score: distance as f64,
                                        })
                                    })
                                    .collect();
                                self.stats.rounds = self.rounds;
                                return self.finish(items);
                            }
                            let next_d = (d + 2).min(self.d_max());
                            let child = self.shell(next_d);
                            self.state = NState::Shell { d: next_d, child, resume_at: end };
                            return StepOutcome::Yield { at_us: end };
                        }
                    }
                }

                NState::Finished => return StepOutcome::Done(self.stats),
            }
        }
    }
}

/// Partition probe order for density sampling, as positions among the `n`
/// peered partitions of the attribute's interval: MAX wants the topmost
/// populated partition (its local max *is* the global max), MIN the
/// bottommost, NN spirals outward from the entry's position.
fn probe_order(rank: &Rank, n: usize, entry: usize) -> Vec<usize> {
    match rank {
        Rank::Max => (0..n).rev().collect(),
        Rank::Min => (0..n).collect(),
        Rank::Nn(_) => {
            let entry = entry.min(n.saturating_sub(1));
            let mut order = vec![entry];
            for step in 1..n.max(1) {
                if entry >= step {
                    order.push(entry - step);
                }
                if entry + step < n {
                    order.push(entry + step);
                }
            }
            order
        }
    }
}

fn summarize(xs: &[f64]) -> (usize, f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if xs.is_empty() {
        (0, 0.0, 0.0)
    } else {
        (xs.len(), lo, hi)
    }
}

/// Algorithm 5, `Keys(range, rank, u, v)`: the first query window.
fn keys_window(range: f64, rank: &Rank, u: f64, v: f64) -> (f64, f64) {
    match rank {
        Rank::Max => {
            let to = v - range - 1.0;
            let fr = to - range;
            (fr, to)
        }
        Rank::Min => {
            let fr = v + range + 1.0;
            let to = fr + range;
            (fr, to)
        }
        Rank::Nn(_) => (u - range / 2.0, v + range / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use sqo_storage::triple::Row;

    /// Run `task` to completion: its ranked items and stats.
    fn run(
        e: &mut SimilarityEngine,
        task: Result<TopNTask, &'static str>,
    ) -> (Vec<TopNItem>, QueryStats) {
        let mut task = task.expect("a ranking with an answer");
        let stats = e.run_task(&mut task);
        (task.take_items(), stats)
    }

    fn car_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(
                    format!("car:{i}"),
                    [
                        ("name".to_string(), Value::from(format!("model{i:03}x"))),
                        ("hp".to_string(), Value::from((50 + (i * 7) % 400) as i64)),
                        ("price".to_string(), Value::from(10_000.0 + 137.5 * i as f64)),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn max_returns_the_largest_values() {
        let rows = car_rows(120);
        let mut e = EngineBuilder::new().peers(64).seed(30).build_with_rows(&rows);
        let from = e.random_peer();
        let (items, _) = run(&mut e, TopNTask::numeric("hp", 5, Rank::Max, from));
        assert_eq!(items.len(), 5);
        let got: Vec<i64> = items.iter().map(|i| i.value.as_int().unwrap()).collect();
        let mut all: Vec<i64> =
            rows.iter().map(|r| r.get("hp").unwrap().as_int().unwrap()).collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(got, all[..5].to_vec());
    }

    #[test]
    fn min_returns_the_smallest_values() {
        let rows = car_rows(80);
        let mut e = EngineBuilder::new().peers(32).seed(31).build_with_rows(&rows);
        let from = e.random_peer();
        let (items, _) = run(&mut e, TopNTask::numeric("price", 3, Rank::Min, from));
        let got: Vec<f64> = items.iter().map(|i| i.value.as_float().unwrap()).collect();
        assert_eq!(got, vec![10_000.0, 10_137.5, 10_275.0]);
    }

    #[test]
    fn nn_returns_nearest_numeric_neighbors() {
        let rows = car_rows(100);
        let mut e = EngineBuilder::new().peers(48).seed(32).build_with_rows(&rows);
        let from = e.random_peer();
        let (items, _) = run(&mut e, TopNTask::numeric("hp", 4, Rank::Nn(Value::Int(200)), from));
        assert_eq!(items.len(), 4);
        // Oracle: closest hp values to 200.
        let mut all: Vec<i64> =
            rows.iter().map(|r| r.get("hp").unwrap().as_int().unwrap()).collect();
        all.sort_by_key(|v| (v - 200).abs());
        let got: Vec<i64> = items.iter().map(|i| i.value.as_int().unwrap()).collect();
        let worst_got = got.iter().map(|v| (v - 200).abs()).max().unwrap();
        let best_excluded = all[4..].iter().map(|v| (v - 200).abs()).min().unwrap();
        assert!(worst_got <= best_excluded, "returned a farther neighbor than an excluded one");
    }

    #[test]
    fn density_estimation_needs_few_rounds() {
        let rows = car_rows(200);
        let mut e = EngineBuilder::new().peers(64).seed(33).build_with_rows(&rows);
        let from = e.random_peer();
        let (items, stats) = run(&mut e, TopNTask::numeric("hp", 10, Rank::Max, from));
        assert_eq!(items.len(), 10);
        assert!(
            stats.rounds <= 6,
            "density estimate should converge quickly, took {} rounds",
            stats.rounds
        );
    }

    #[test]
    fn n_larger_than_data_returns_everything() {
        let rows = car_rows(7);
        let mut e = EngineBuilder::new().peers(8).seed(34).build_with_rows(&rows);
        let from = e.random_peer();
        let (items, _) = run(&mut e, TopNTask::numeric("hp", 50, Rank::Max, from));
        assert_eq!(items.len(), 7);
    }

    #[test]
    fn missing_attribute_returns_empty() {
        let rows = car_rows(10);
        let mut e = EngineBuilder::new().peers(8).seed(35).build_with_rows(&rows);
        let from = e.random_peer();
        let (items, _) = run(&mut e, TopNTask::numeric("nonexistent", 3, Rank::Max, from));
        assert!(items.is_empty());
    }

    #[test]
    fn string_nn_shells() {
        let words = ["haus", "hause", "house", "mouse", "horse", "xylophone"];
        let rows: Vec<Row> = words
            .iter()
            .enumerate()
            .map(|(i, w)| Row::new(format!("w:{i}"), [("word", Value::from(*w))]))
            .collect();
        let mut e = EngineBuilder::new().peers(32).seed(36).q(2).build_with_rows(&rows);
        let from = e.random_peer();
        let (items, _) =
            run(&mut e, TopNTask::nearest(Some("word"), 3, "house", 5, from, Strategy::QGrams));
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].value.as_str(), Some("house"));
        assert_eq!(items[0].score, 0.0);
        // hause (d=1) and horse/mouse (d=1) compete for the remaining slots.
        assert!(items[1..].iter().all(|i| i.score <= 1.0));
    }

    /// The string ranking as it was before its matches stayed handles:
    /// every shell's matches assembled, kept by (oid, attribute, text) with
    /// their first distance and object, all of them sorted by (distance,
    /// text, oid) and cut to `n`.
    fn assembled_reference(
        e: &mut SimilarityEngine,
        (attr, target): (Option<&str>, &str),
        n: usize,
        d_max: usize,
        from: PeerId,
    ) -> Vec<String> {
        let mut best: FxHashMap<(String, String, String), (usize, sqo_storage::posting::Object)> =
            FxHashMap::default();
        let mut d = 1usize.min(d_max);
        loop {
            let mut shell =
                crate::similar::SimilarTask::new(target, attr, d, from, Strategy::QGrams);
            e.run_task(&mut shell);
            for m in shell.take_matches() {
                let object = m.object();
                let key = (m.oid, m.attr.as_str().to_string(), m.matched);
                best.entry(key).or_insert((m.distance, object));
            }
            if best.len() >= n || d >= d_max {
                break;
            }
            d = (d + 2).min(d_max);
        }
        let mut ranked: Vec<_> = best.into_iter().collect();
        ranked.sort_by(|((oa, _, ta), (da, _)), ((ob, _, tb), (db, _))| {
            da.cmp(db).then_with(|| ta.cmp(tb)).then_with(|| oa.cmp(ob))
        });
        ranked.truncate(n);
        ranked
            .into_iter()
            .map(|((oid, _, text), (d, object))| format!("{oid} {text} {d} {object:?}"))
            .collect()
    }

    /// String top-N keeps its matches as handles and assembles the `n` it
    /// returns: the same items, in the same order, as assembling every
    /// match of every shell — on values that many objects share (ties on
    /// distance and text, broken by oid), on two attributes, and on
    /// attribute names.
    #[test]
    fn the_kept_handles_rank_as_the_assembled_matches() {
        let words = ["house", "horse", "mouse", "hause", "haus", "houses", "hose", "louse"];
        let rows: Vec<Row> = (0..90)
            .map(|i| {
                Row::new(
                    format!("w:{}", (i * 37) % 90),
                    [
                        (words[i % words.len()], Value::from(words[(i / 3) % words.len()])),
                        ("other", Value::from(words[(i + 1) % words.len()])),
                    ],
                )
            })
            .collect();
        let build = || EngineBuilder::new().peers(32).seed(38).q(2).build_with_rows(&rows);
        let (mut e, mut reference) = (build(), build());
        let from = e.random_peer();
        for (attr, target) in [(Some("house"), "house"), (Some("other"), "mouse"), (None, "hose")] {
            for (n, d_max) in [(1, 3), (4, 1), (7, 3), (25, 5), (200, 3), (3, 0)] {
                let task = TopNTask::nearest(attr, n, target, d_max, from, Strategy::QGrams);
                let (items, _) = run(&mut e, task);
                let got: Vec<String> = items
                    .iter()
                    .map(|i| {
                        let text = i.value.as_str().expect("a string ranking");
                        format!("{} {text} {} {:?}", i.oid, i.score, i.object())
                    })
                    .collect();
                let want = assembled_reference(&mut reference, (attr, target), n, d_max, from);
                assert_eq!(got, want, "{attr:?} {target} n {n} d_max {d_max}");
            }
        }
    }

    #[test]
    fn string_nn_respects_dmax() {
        let rows = vec![Row::new("w:0", [("word", Value::from("completelyother"))])];
        let mut e = EngineBuilder::new().peers(8).seed(37).build_with_rows(&rows);
        let from = e.random_peer();
        let (items, _) =
            run(&mut e, TopNTask::nearest(Some("word"), 5, "zzzzz", 2, from, Strategy::QGrams));
        assert!(items.is_empty(), "nothing within d_max must mean empty result");
    }

    #[test]
    fn numeric_nn_with_string_target_is_an_error() {
        let rows = car_rows(5);
        let mut e = EngineBuilder::new().peers(8).build_with_rows(&rows);
        let from = e.random_peer();
        let got = TopNTask::numeric("hp", 1, Rank::Nn(Value::from("oops")), from);
        assert_eq!(got.err(), Some("numeric top-N requires a numeric NN target"));
    }

    #[test]
    fn top_0_is_an_error() {
        let from = EngineBuilder::new().peers(8).build_with_rows(&car_rows(5)).random_peer();
        let numeric = TopNTask::numeric("hp", 0, Rank::Max, from);
        let nearest = TopNTask::nearest(Some("name"), 0, "model", 2, from, Strategy::QGrams);
        assert_eq!(numeric.err(), Some("top-0 is trivial"));
        assert_eq!(nearest.err(), Some("top-0 is trivial"));
    }
}
