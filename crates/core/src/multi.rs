//! Multi-attribute similarity queries.
//!
//! §4: *"Queries on multiple attributes can be handled, for instance, by
//! processing separate sub-queries and intersecting the results, or by
//! pre-processing locally materialized intermediate results. Which of these
//! two approaches, or any other, more sophisticated, strategy, is used is a
//! choice depending on cost optimizations, which is part of our ongoing
//! work."*
//!
//! Both strategies are implemented:
//!
//! * [`MultiStrategy::Intersect`] — one distributed `Similar` per
//!   predicate, intersect the oid sets at the initiator. Cost: the sum of
//!   all sub-queries.
//! * [`MultiStrategy::Pipelined`] — run only the (heuristically) most
//!   selective predicate over the network; the fetched objects already
//!   carry *all* their attributes (vertical storage reassembles whole
//!   tuples), so the remaining predicates verify locally, free of
//!   messages.
//!
//! The metamorphic test pins the optimization contract: identical results,
//! pipelined never costs more messages. (VQL's executor follows the
//! pipelined shape: one access path per subject, residual predicates
//! verified on bindings.) Each per-predicate sub-query is a child
//! [`SimilarTask`], so its gram probes flow through the engine's probe
//! broker when one is installed (see [`crate::broker`]) — `Intersect`'s
//! repeated sub-queries benefit most from the shared posting cache.

use crate::engine::{finalize_stats, ExecStep, SimilarityEngine, StepOutcome};
use crate::similar::{SimilarMatch, SimilarTask, Strategy};
use crate::stats::QueryStats;
use rustc_hash::FxHashMap;
use sqo_overlay::peer::PeerId;
use sqo_storage::objects::Fetched;
use sqo_strsim::edit::BoundedLevenshtein;
use sqo_strsim::filters::char_len;

/// One per-attribute similarity predicate: `dist(attr, query) <= d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrPredicate {
    pub attr: String,
    pub query: String,
    pub d: usize,
}

impl AttrPredicate {
    pub fn new(attr: impl Into<String>, query: impl Into<String>, d: usize) -> Self {
        Self { attr: attr.into(), query: query.into(), d }
    }
}

/// Evaluation strategy for the conjunction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiStrategy {
    /// Separate sub-queries, intersected at the initiator.
    Intersect,
    /// Most selective sub-query over the network, rest verified locally on
    /// the fetched objects.
    Pipelined,
}

/// An object satisfying every predicate, with the matched value and
/// distance per attribute; its object a handle, as
/// [`SelectHit`](crate::SelectHit)'s is.
#[derive(Clone)]
pub struct MultiMatch {
    pub oid: String,
    pub handle: Fetched,
    /// `(attr, matched value, distance)` per predicate, in predicate order.
    pub bindings: Vec<(String, String, usize)>,
}

built_object!(MultiMatch { oid; bindings });

/// oid → (object, bindings found so far); an oid must appear in every
/// sub-query's result to survive the intersection.
type Alive = FxHashMap<String, (Fetched, Vec<(String, String, usize)>)>;

/// A multi-attribute conjunction as a resumable task: one child
/// [`SimilarTask`] per predicate (all of them for `Intersect`, only the
/// most selective one for `Pipelined`), followed by the local intersection
/// or residual verification.
pub struct MultiTask {
    preds: Vec<AttrPredicate>,
    from: PeerId,
    strategy: Strategy,
    multi: MultiStrategy,
    state: MState,
    stats: QueryStats,
    lead_idx: usize,
    /// Lead predicate pinned by the caller (cost-based planning), which
    /// overrides the built-in string-length selectivity heuristic.
    pinned_lead: Option<usize>,
    alive: Option<Alive>,
    matches: Vec<MultiMatch>,
}

enum MState {
    Init,
    Child { idx: usize, child: Box<SimilarTask>, resume_at: u64 },
    PipeVerify { lead: Box<SimilarTask>, at_us: u64 },
    Finalize,
    Finished,
}

impl MultiTask {
    /// A conjunction of `preds`; `Err` when there is none.
    pub fn new(
        preds: Vec<AttrPredicate>,
        from: PeerId,
        strategy: Strategy,
        multi: MultiStrategy,
    ) -> Result<Self, &'static str> {
        if preds.is_empty() {
            return Err("conjunction needs at least one predicate");
        }
        Ok(Self {
            preds,
            from,
            strategy,
            multi,
            state: MState::Init,
            stats: QueryStats::default(),
            lead_idx: 0,
            pinned_lead: None,
            alive: None,
            matches: Vec::new(),
        })
    }

    /// Pin the `Pipelined` lead sub-query to predicate `idx`, overriding
    /// the built-in length heuristic — how the cost-based planner makes
    /// its cheapest-first ordering effective (it orders `preds` by
    /// estimated candidate volume and pins the lead to 0). Out-of-range
    /// indices fall back to the heuristic. `Intersect` already runs
    /// predicates in order.
    pub fn with_pinned_lead(mut self, idx: usize) -> Self {
        if idx < self.preds.len() {
            self.pinned_lead = Some(idx);
        }
        self
    }

    /// The conjunction's matches, once the task is done.
    pub fn take_matches(&mut self) -> Vec<MultiMatch> {
        std::mem::take(&mut self.matches)
    }

    fn child_for(&self, idx: usize) -> Box<SimilarTask> {
        let p = &self.preds[idx];
        Box::new(SimilarTask::new(&p.query, Some(&p.attr), p.d, self.from, self.strategy))
    }
}

impl ExecStep for MultiTask {
    fn step(&mut self, engine: &mut SimilarityEngine, at_us: u64) -> StepOutcome {
        loop {
            match std::mem::replace(&mut self.state, MState::Finished) {
                MState::Init => {
                    self.lead_idx = match (self.multi, self.pinned_lead) {
                        (MultiStrategy::Intersect, _) => 0,
                        (MultiStrategy::Pipelined, Some(idx)) => idx,
                        // Selectivity heuristic: longer query strings and
                        // smaller distances produce fewer candidates (more
                        // grams to match, tighter filters).
                        (MultiStrategy::Pipelined, None) => (0..self.preds.len())
                            .max_by_key(|&i| {
                                let p = &self.preds[i];
                                (p.query.chars().count() as i64) - 3 * (p.d as i64)
                            })
                            .expect("non-empty"),
                    };
                    let first = match self.multi {
                        MultiStrategy::Intersect => 0,
                        MultiStrategy::Pipelined => self.lead_idx,
                    };
                    let child = self.child_for(first);
                    self.state = MState::Child { idx: first, child, resume_at: at_us };
                    continue;
                }

                MState::Child { idx, mut child, resume_at } => {
                    match child.step(engine, resume_at) {
                        StepOutcome::Yield { at_us } => {
                            self.state = MState::Child { idx, child, resume_at: at_us };
                            return StepOutcome::Yield { at_us };
                        }
                        StepOutcome::Done(child_stats) => {
                            self.stats.absorb(&child_stats);
                            let end = child_stats.sim.map(|s| s.end_us).unwrap_or(resume_at);
                            match self.multi {
                                MultiStrategy::Pipelined => {
                                    self.state = MState::PipeVerify { lead: child, at_us: end };
                                    continue;
                                }
                                MultiStrategy::Intersect => {
                                    let p = &self.preds[idx];
                                    let mut this: Alive = FxHashMap::default();
                                    for m in child.take_matches() {
                                        let SimilarMatch { oid, matched, distance, handle, .. } = m;
                                        this.entry(oid)
                                            .or_insert_with(|| (handle, Vec::new()))
                                            .1
                                            .push((p.attr.clone(), matched, distance));
                                    }
                                    self.alive = Some(match self.alive.take() {
                                        None => this,
                                        Some(prev) => {
                                            let mut next = FxHashMap::default();
                                            for (oid, (obj, mut bindings)) in prev {
                                                if let Some((_, found)) = this.remove(&oid) {
                                                    bindings.extend(found);
                                                    next.insert(oid, (obj, bindings));
                                                }
                                            }
                                            next
                                        }
                                    });
                                    let empty =
                                        self.alive.as_ref().is_some_and(FxHashMap::is_empty);
                                    if empty || idx + 1 >= self.preds.len() {
                                        // Early out: conjunction already
                                        // empty, or every predicate ran.
                                        self.state = MState::Finalize;
                                        continue;
                                    }
                                    let child = self.child_for(idx + 1);
                                    self.state =
                                        MState::Child { idx: idx + 1, child, resume_at: end };
                                    return StepOutcome::Yield { at_us: end };
                                }
                            }
                        }
                    }
                }

                MState::PipeVerify { mut lead, at_us: at } => {
                    // The lead's objects carry every field: verify the
                    // remaining predicates locally at the initiator, each
                    // value read where the fetch left it.
                    let (preds, lead_idx) = (&self.preds, self.lead_idx);
                    // One prepared check per predicate, not one per value.
                    let mut verifiers: Vec<BoundedLevenshtein<'_>> = preds
                        .iter()
                        .map(|p| BoundedLevenshtein::new(p.query.as_str(), p.d))
                        .collect();
                    let (matches, _end) = engine.charged(&mut self.stats, at, |e| {
                        let mut matches: Vec<MultiMatch> = Vec::new();
                        let mut seen = rustc_hash::FxHashSet::default();
                        for m in lead.take_matches() {
                            if !seen.insert(m.oid.clone()) {
                                continue; // multivalued lead attr: verify once
                            }
                            let mut bindings: Vec<(String, String, usize)> = Vec::new();
                            let mut ok = true;
                            for (i, p) in preds.iter().enumerate() {
                                if i == lead_idx {
                                    bindings.push((p.attr.clone(), m.matched.clone(), m.distance));
                                    continue;
                                }
                                let mut found: Option<(String, usize)> = None;
                                for value in m.handle.values(&m.oid, &p.attr) {
                                    let Some(text) = value.as_str() else { continue };
                                    e.edit_comparisons += 1;
                                    let chars = char_len(text);
                                    if let Some(dist) = verifiers[i].distance_of(text, chars) {
                                        if found.as_ref().is_none_or(|(_, best)| dist < *best) {
                                            found = Some((text.to_string(), dist));
                                        }
                                    }
                                }
                                match found {
                                    Some((text, dist)) => {
                                        bindings.push((p.attr.clone(), text, dist))
                                    }
                                    None => {
                                        ok = false;
                                        break;
                                    }
                                }
                            }
                            if ok {
                                let SimilarMatch { oid, handle, .. } = m;
                                matches.push(MultiMatch { oid, handle, bindings });
                            }
                        }
                        matches
                    });
                    self.matches = matches;
                    self.state = MState::Finalize;
                    continue;
                }

                MState::Finalize => {
                    if self.multi == MultiStrategy::Intersect {
                        self.matches = self
                            .alive
                            .take()
                            .unwrap_or_default()
                            .into_iter()
                            .map(|(oid, (handle, bindings))| MultiMatch { oid, handle, bindings })
                            .collect();
                    }
                    self.matches.sort_by(|a, b| a.oid.cmp(&b.oid));
                    self.stats.matches = self.matches.len();
                    finalize_stats(&mut self.stats);
                    self.state = MState::Finished;
                    return StepOutcome::Done(self.stats);
                }

                MState::Finished => return StepOutcome::Done(self.stats),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use crate::similar::tests::similar;
    use sqo_storage::triple::{Row, Value};

    /// What a finished [`MultiTask`] answered.
    struct Answer {
        matches: Vec<MultiMatch>,
        stats: QueryStats,
    }

    /// Run the conjunction `preds` from `from` to completion.
    fn similar_multi(
        e: &mut SimilarityEngine,
        preds: &[AttrPredicate],
        from: PeerId,
        strategy: Strategy,
        multi: MultiStrategy,
    ) -> Answer {
        let mut task =
            MultiTask::new(preds.to_vec(), from, strategy, multi).expect("a predicate at least");
        let stats = e.run_task(&mut task);
        Answer { matches: task.take_matches(), stats }
    }

    fn contact_rows() -> Vec<Row> {
        vec![
            Row::new("p:1", [("first", Value::from("johann")), ("last", Value::from("mueller"))]),
            Row::new(
                "p:2",
                [("first", Value::from("johann")), ("last", Value::from("mueler"))], // typos
            ),
            Row::new("p:3", [("first", Value::from("johann")), ("last", Value::from("schmidt"))]),
            Row::new("p:4", [("first", Value::from("petra")), ("last", Value::from("mueller"))]),
        ]
    }

    fn preds() -> Vec<AttrPredicate> {
        vec![AttrPredicate::new("first", "johann", 1), AttrPredicate::new("last", "mueller", 1)]
    }

    #[test]
    fn both_strategies_agree() {
        let mut e = EngineBuilder::new().peers(32).q(2).seed(70).build_with_rows(&contact_rows());
        let from = e.random_peer();
        let a = similar_multi(&mut e, &preds(), from, Strategy::QGrams, MultiStrategy::Intersect);
        let b = similar_multi(&mut e, &preds(), from, Strategy::QGrams, MultiStrategy::Pipelined);
        let oids =
            |r: &Answer| -> Vec<String> { r.matches.iter().map(|m| m.oid.clone()).collect() };
        assert_eq!(oids(&a), vec!["p:1", "p:2"]);
        assert_eq!(oids(&a), oids(&b));
        // Both carry per-attribute bindings.
        for r in [&a, &b] {
            let m1 = &r.matches[0];
            assert_eq!(m1.bindings.len(), 2);
            assert!(m1.bindings.iter().any(|(a, v, d)| a == "first" && v == "johann" && *d == 0));
        }
    }

    #[test]
    fn pipelined_never_costs_more() {
        let mut e = EngineBuilder::new().peers(64).q(2).seed(71).build_with_rows(&contact_rows());
        let from = e.random_peer();
        let a = similar_multi(&mut e, &preds(), from, Strategy::QGrams, MultiStrategy::Intersect);
        let b = similar_multi(&mut e, &preds(), from, Strategy::QGrams, MultiStrategy::Pipelined);
        assert!(
            b.stats.traffic.messages <= a.stats.traffic.messages,
            "pipelined {} vs intersect {}",
            b.stats.traffic.messages,
            a.stats.traffic.messages
        );
        assert!(b.stats.traffic.messages > 0);
    }

    #[test]
    fn empty_conjunction_early_out() {
        let mut e = EngineBuilder::new().peers(32).q(2).seed(72).build_with_rows(&contact_rows());
        let from = e.random_peer();
        let preds = vec![
            AttrPredicate::new("first", "zzzzzz", 1), // matches nothing
            AttrPredicate::new("last", "mueller", 1),
        ];
        let a = similar_multi(&mut e, &preds, from, Strategy::QGrams, MultiStrategy::Intersect);
        assert!(a.matches.is_empty());
        let b = similar_multi(&mut e, &preds, from, Strategy::QGrams, MultiStrategy::Pipelined);
        assert!(b.matches.is_empty());
    }

    #[test]
    fn single_predicate_degenerates_to_similar() {
        let mut e = EngineBuilder::new().peers(16).q(2).seed(73).build_with_rows(&contact_rows());
        let from = e.random_peer();
        let preds = vec![AttrPredicate::new("last", "mueller", 1)];
        let multi = similar_multi(&mut e, &preds, from, Strategy::QGrams, MultiStrategy::Pipelined);
        let plain = similar(&mut e, "mueller", Some("last"), 1, from, Strategy::QGrams);
        let mut a: Vec<&String> = multi.matches.iter().map(|m| &m.oid).collect();
        let mut b: Vec<&String> = plain.matches.iter().map(|m| &m.oid).collect();
        a.sort_unstable();
        b.sort_unstable();
        b.dedup();
        assert_eq!(a, b);
    }

    #[test]
    fn three_way_conjunction() {
        let rows = vec![
            Row::new(
                "x:1",
                [
                    ("a", Value::from("alpha")),
                    ("b", Value::from("bravo")),
                    ("c", Value::from("charlie")),
                ],
            ),
            Row::new(
                "x:2",
                [
                    ("a", Value::from("alpha")),
                    ("b", Value::from("bravo")),
                    ("c", Value::from("zulu")),
                ],
            ),
        ];
        let mut e = EngineBuilder::new().peers(16).q(2).seed(74).build_with_rows(&rows);
        let from = e.random_peer();
        let preds = vec![
            AttrPredicate::new("a", "alpha", 0),
            AttrPredicate::new("b", "bravo", 0),
            AttrPredicate::new("c", "charlie", 1),
        ];
        for multi in [MultiStrategy::Intersect, MultiStrategy::Pipelined] {
            let r = similar_multi(&mut e, &preds, from, Strategy::QGrams, multi);
            assert_eq!(r.matches.len(), 1, "{multi:?}");
            assert_eq!(r.matches[0].oid, "x:1");
            assert_eq!(r.matches[0].bindings.len(), 3);
        }
    }

    #[test]
    fn empty_predicates_are_an_error() {
        let mut e = EngineBuilder::new().peers(8).build_with_rows(&contact_rows());
        let from = e.random_peer();
        for multi in [MultiStrategy::Intersect, MultiStrategy::Pipelined] {
            let got = MultiTask::new(Vec::new(), from, Strategy::QGrams, multi);
            assert_eq!(got.err(), Some("conjunction needs at least one predicate"));
        }
    }
}
