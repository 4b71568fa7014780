//! Exact-match and range selections — the "traditional" physical operators
//! the similarity operators compose with (already present in the paper's
//! prior work \[10\]; VQL needs them for its non-similarity predicates).

use crate::engine::{
    finalize_stats, ExecStep, FanOut, FetchBranch, Leg, ObjectCache, SimilarityEngine, StepOutcome,
};
use crate::stats::QueryStats;
use sqo_overlay::peer::PeerId;
use sqo_storage::keys;
use sqo_storage::objects::{Fetch, Fetched};
use sqo_storage::posting::{Posting, PostingKind};
use sqo_storage::slab::{AttrGuard, TripleRef};
use sqo_storage::triple::{Value, ValueRef};
use sqo_strsim::numeric::interval_around;
use std::borrow::Cow;

/// A selection hit: the value that satisfied the predicate plus its object
/// as fetched, a handle [`Self::object`] builds the owned object from when
/// a caller reads it. The handle is the run the object was fetched from, so
/// a later publication does not reach it; a hit kept across a publication
/// into that partition makes its next merge copy the run. `Debug` shows the
/// built object.
#[derive(Clone)]
pub struct SelectHit {
    pub oid: String,
    pub value: Value,
    pub handle: Fetched,
}

built_object!(SelectHit { oid, value; });

/// A selection as a resumable task: scan (retrieve / range fan-out) →
/// per-partition object fetches → assemble, one step each.
pub struct SelectTask {
    kind: SelectKind,
    from: PeerId,
    state: SelState,
    stats: QueryStats,
    /// (oid, value) of every row that satisfied the predicate, the oid
    /// read through the row's posting.
    matched: Vec<(Posting, Value)>,
    objects: ObjectCache,
    hits: Vec<SelectHit>,
}

enum SelectKind {
    Exact { attr: String, v: Value },
    Range { attr: String, lo: Value, hi: Value },
    NumericSimilar { attr: String, center: Value, eps: f64 },
    Keyword { v: Value },
    All { attr: String },
}

enum SelState {
    Scan,
    /// One object-fetch branch per step: a stretch of `objects`.
    Fetch {
        objects: Vec<Posting>,
        fan: FanOut<FetchBranch>,
    },
    Assemble,
    Finished,
}

impl SelectTask {
    pub fn exact(attr: &str, v: Value, from: PeerId) -> Self {
        Self::new(SelectKind::Exact { attr: attr.to_string(), v }, from)
    }

    pub fn range(attr: &str, lo: Value, hi: Value, from: PeerId) -> Self {
        Self::new(SelectKind::Range { attr: attr.to_string(), lo, hi }, from)
    }

    pub fn numeric_similar(attr: &str, center: Value, eps: f64, from: PeerId) -> Self {
        assert!(center.as_float().is_some(), "numeric similarity requires a numeric center value");
        Self::new(SelectKind::NumericSimilar { attr: attr.to_string(), center, eps }, from)
    }

    pub fn keyword(v: Value, from: PeerId) -> Self {
        Self::new(SelectKind::Keyword { v }, from)
    }

    pub fn full_scan(attr: &str, from: PeerId) -> Self {
        Self::new(SelectKind::All { attr: attr.to_string() }, from)
    }

    fn new(kind: SelectKind, from: PeerId) -> Self {
        Self {
            kind,
            from,
            state: SelState::Scan,
            stats: QueryStats::default(),
            matched: Vec::new(),
            objects: ObjectCache::default(),
            hits: Vec::new(),
        }
    }

    /// The selection hits, once the task is done.
    pub fn take_hits(&mut self) -> Vec<SelectHit> {
        std::mem::take(&mut self.hits)
    }

    /// The index scan of the selection, executed as one charged chunk.
    /// Exact-match and keyword scans are single-key retrieves and consult
    /// the initiator's posting cache (when a broker is installed) — the
    /// returned `(hits, misses)` delta is folded into the task's stats by
    /// the caller. Range scans always hit the overlay: their key windows
    /// rarely repeat exactly, so caching them would only churn the LRU.
    fn scan(
        kind: &SelectKind,
        from: PeerId,
        e: &mut SimilarityEngine,
    ) -> (Vec<(Posting, Value)>, u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        let matched = match kind {
            SelectKind::Exact { attr, v } => {
                let key = keys::attr_value_key(attr, v);
                let (matched, h, m) = e.cached_retrieve(from, &key, |lists| {
                    let hit = |t: TripleRef<'_>| t.attr().as_str() == attr && t.value() == *v;
                    lists.iter().flat_map(|l| l.iter()).filter_map(|p| matched(p, hit)).collect()
                });
                (hits, misses) = (h, m);
                matched
            }
            SelectKind::Range { attr, lo, hi } => Self::range_scan(attr, lo, hi, from, e),
            SelectKind::NumericSimilar { attr, center, eps } => {
                let c = center.as_float().expect("checked at construction");
                let (lo, hi) = interval_around(c, *eps);
                let (vlo, vhi) = match center {
                    Value::Int(_) => (Value::Int(lo.floor() as i64), Value::Int(hi.ceil() as i64)),
                    _ => (Value::Float(lo), Value::Float(hi)),
                };
                Self::range_scan(attr, &vlo, &vhi, from, e)
            }
            SelectKind::Keyword { v } => {
                let key = keys::value_key(v);
                let (matched, h, m) = e.cached_retrieve(from, &key, |lists| {
                    let hit = |t: TripleRef<'_>| t.value() == *v;
                    lists.iter().flat_map(|l| l.iter()).filter_map(|p| matched(p, hit)).collect()
                });
                (hits, misses) = (h, m);
                matched
            }
            SelectKind::All { attr } => {
                let mut matched = Vec::new();
                for prefix in [keys::attr_scan_prefix(attr), keys::short_value_prefix(attr)] {
                    let runs = e.scan_prefix(Leg::Naive, from, &prefix);
                    let mut queried = AttrGuard::new(attr);
                    for p in runs.iter().flat_map(|r| e.net.run_items(r)) {
                        if matches!(p.kind(), PostingKind::Base(_) | PostingKind::ShortValue)
                            && queried.admits(p)
                        {
                            matched.push((p.clone(), p.triple().value().to_value()));
                        }
                    }
                }
                matched
            }
        };
        (matched, hits, misses)
    }

    fn range_scan(
        attr: &str,
        lo: &Value,
        hi: &Value,
        from: PeerId,
        e: &mut SimilarityEngine,
    ) -> Vec<(Posting, Value)> {
        let (klo, khi) = keys::attr_value_range(attr, lo, hi);
        let runs = e.net.range_query(from, &klo, &khi).unwrap_or_default();
        let in_bounds = |v: ValueRef<'_>| match (lo.as_float(), hi.as_float()) {
            (Some(l), Some(h)) => v.as_float().map(|x| l <= x && x <= h).unwrap_or(false),
            _ => match (v, lo, hi) {
                (ValueRef::Str(s), Value::Str(l), Value::Str(h)) => {
                    s >= l.as_str() && (s <= h.as_str() || s.starts_with(h.as_str()))
                }
                _ => false,
            },
        };
        #[cfg(test)]
        if e.reference {
            return tests::copy_every_reply(e, &runs, attr, |t| in_bounds(t.value()));
        }
        let mut hits = Vec::with_capacity(runs.iter().map(|r| r.items.len()).sum());
        let mut queried = AttrGuard::new(attr);
        hits.extend(
            runs.iter()
                .flat_map(|r| e.net.run_items(r))
                .filter(|p| queried.admits(p))
                .filter_map(|p| matched(p, |t| in_bounds(t.value()))),
        );
        hits
    }
}

/// The (oid, value) row of a base posting whose triple satisfies `hit`,
/// the oid read through the posting.
fn matched(p: &Posting, hit: impl Fn(TripleRef<'_>) -> bool) -> Option<(Posting, Value)> {
    let t = p.as_base().filter(|t| hit(*t))?;
    Some((p.clone(), t.value().to_value()))
}

impl ExecStep for SelectTask {
    fn step(&mut self, engine: &mut SimilarityEngine, at_us: u64) -> StepOutcome {
        loop {
            match std::mem::replace(&mut self.state, SelState::Finished) {
                SelState::Scan => {
                    let (kind, from) = (&self.kind, self.from);
                    let ((mut matched, hits, misses), end) =
                        engine.charged(&mut self.stats, at_us, |e| Self::scan(kind, from, e));
                    self.stats.cache_hits += hits;
                    self.stats.cache_misses += misses;
                    sort_matches(&mut matched);
                    matched.dedup_by(|a, b| a.0.object() == b.0.object() && a.1 == b.1);
                    // Sorted by oid already: deduplicated, they ascend.
                    let mut objects: Vec<_> = matched.iter().map(|(p, _)| p.clone()).collect();
                    objects.dedup_by_key(|p| p.object());
                    let branches = engine.plan_fetch_branches(&objects);
                    self.matched = matched;
                    if branches.is_empty() {
                        self.state = SelState::Assemble;
                        continue;
                    }
                    self.state = SelState::Fetch { objects, fan: FanOut::new(branches, end) };
                    return StepOutcome::Yield { at_us: end };
                }

                SelState::Fetch { objects, mut fan } => {
                    let Some(branch) = fan.pop() else {
                        self.state = SelState::Assemble;
                        continue;
                    };
                    let (from, cache) = (self.from, &mut self.objects);
                    let ((), end) = engine.charged(&mut self.stats, fan.fork_us, |e| {
                        e.fetch_branch(from, &objects[branch], |p, fetched| {
                            cache.insert(p.object(), fetched);
                        })
                    });
                    fan.record_end(end);
                    let next_at = if fan.is_done() { fan.max_end_us } else { fan.fork_us };
                    self.state = SelState::Fetch { objects, fan };
                    return StepOutcome::Yield { at_us: next_at };
                }

                SelState::Assemble => {
                    let matched = std::mem::take(&mut self.matched);
                    let mut hits: Vec<SelectHit> = matched
                        .into_iter()
                        .filter_map(|(p, value)| {
                            let handle = self.objects.get(&p.object())?.clone();
                            Some(SelectHit { oid: p.oid().to_string(), value, handle })
                        })
                        .collect();
                    // Tighten numeric similarity to the exact Euclidean ball
                    // (the int-rounded range may include boundary values just
                    // outside eps).
                    if let SelectKind::NumericSimilar { center, eps, .. } = &self.kind {
                        let c = center.as_float().expect("checked at construction");
                        hits.retain(|h| {
                            h.value.as_float().map(|x| (x - c).abs() <= *eps).unwrap_or(false)
                        });
                    }
                    self.stats.matches = hits.len();
                    finalize_stats(&mut self.stats);
                    self.hits = hits;
                    self.state = SelState::Finished;
                    return StepOutcome::Done(self.stats);
                }

                SelState::Finished => return StepOutcome::Done(self.stats),
            }
        }
    }
}

/// Order `(oid, value)` matches by oid, then by the value as it prints,
/// stably. Both compare where they lie: a string is its print, and a number
/// is printed only when its oid ties — a sort of distinct objects prints
/// and copies nothing.
fn sort_matches<O: Fetch>(matched: &mut [(O, Value)]) {
    fn printed(v: &Value) -> Cow<'_, str> {
        match v {
            Value::Str(s) => Cow::Borrowed(s),
            number => Cow::Owned(number.to_string()),
        }
    }
    matched
        .sort_by(|(a, v), (b, w)| a.oid().cmp(b.oid()).then_with(|| printed(v).cmp(&printed(w))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use crate::memo::tests::{before, no_hook, Trio};
    use crate::{Rank, TopNTask};
    use sqo_overlay::network::ItemRun;
    use sqo_storage::posting::Object;
    use sqo_storage::triple::Row;

    /// The range scan before it read the replies where they lie, kept as
    /// the reference: every reply's items copied into one vector, then
    /// guarded and matched.
    pub(super) fn copy_every_reply(
        e: &SimilarityEngine,
        runs: &[ItemRun],
        attr: &str,
        hit: impl Fn(TripleRef<'_>) -> bool,
    ) -> Vec<(Posting, Value)> {
        let postings: Vec<Posting> =
            runs.iter().flat_map(|r| e.net.run_items(r)).cloned().collect();
        let mut queried = AttrGuard::new(attr);
        postings.iter().filter(|p| queried.admits(p)).filter_map(|p| matched(p, &hit)).collect()
    }

    /// Run `task` to completion: its hits.
    fn run(e: &mut SimilarityEngine, mut task: SelectTask) -> Vec<SelectHit> {
        e.run_task(&mut task);
        task.take_hits()
    }

    #[test]
    fn matches_sort_by_oid_then_by_printed_value_and_stay_stable() {
        let m = |oid: &'static str, v: Value| (oid, v);
        let mut matched = vec![
            m("b:2", Value::from("pear")),
            m("a:1", Value::Int(9)),
            m("b:2", Value::Int(10)),
            m("a:1", Value::Float(10.5)),
            m("b:2", Value::Float(-3.0)),
            m("a:1", Value::from("10")),
            m("a:1", Value::Int(10)),
            m("b:2", Value::from("apple")),
            m("a:1", Value::Int(9)),
        ];
        // The order the comparator `(oid, value.to_string())` gave, which
        // formatted both sides of every comparison.
        let mut want = matched.clone();
        want.sort_by(|a, b| (&a.0, a.1.to_string()).cmp(&(&b.0, b.1.to_string())));
        sort_matches(&mut matched);
        assert_eq!(matched, want);
        let printed: Vec<_> = matched.iter().map(|(o, v)| format!("{o}={v}")).collect();
        assert_eq!(
            printed,
            [
                "a:1=10",
                "a:1=10",
                "a:1=10.5",
                "a:1=9",
                "a:1=9",
                "b:2=-3",
                "b:2=10",
                "b:2=apple",
                "b:2=pear"
            ]
        );
        // Equal prints keep their arrival order: the string "10" came
        // before the integer 10.
        assert_eq!(matched[0].1, Value::from("10"));
        assert_eq!(matched[1].1, Value::Int(10));
    }

    fn rows() -> Vec<Row> {
        (0..30)
            .map(|i| {
                Row::new(
                    format!("car:{i}"),
                    [
                        ("name".to_string(), Value::from(format!("model{i:02}"))),
                        ("hp".to_string(), Value::from(100 + 10 * i as i64)),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn exact_selection() {
        let mut e = EngineBuilder::new().peers(16).seed(50).build_with_rows(&rows());
        let from = e.random_peer();
        let hits = run(&mut e, SelectTask::exact("hp", Value::Int(150), from));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].oid, "car:5");
    }

    #[test]
    fn range_selection_numeric() {
        let mut e = EngineBuilder::new().peers(16).seed(51).build_with_rows(&rows());
        let from = e.random_peer();
        let hits = run(&mut e, SelectTask::range("hp", Value::Int(150), Value::Int(200), from));
        let mut oids: Vec<&str> = hits.iter().map(|h| h.oid.as_str()).collect();
        oids.sort_unstable();
        assert_eq!(oids, vec!["car:10", "car:5", "car:6", "car:7", "car:8", "car:9"]);
    }

    #[test]
    fn range_selection_strings() {
        let mut e = EngineBuilder::new().peers(16).seed(52).build_with_rows(&rows());
        let from = e.random_peer();
        let hits = run(
            &mut e,
            SelectTask::range("name", Value::from("model03"), Value::from("model06"), from),
        );
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn numeric_similarity_is_a_ball() {
        let mut e = EngineBuilder::new().peers(16).seed(53).build_with_rows(&rows());
        let from = e.random_peer();
        let hits = run(&mut e, SelectTask::numeric_similar("hp", Value::Int(200), 25.0, from));
        let mut hps: Vec<i64> = hits.iter().map(|h| h.value.as_int().unwrap()).collect();
        hps.sort_unstable();
        assert_eq!(hps, vec![180, 190, 200, 210, 220]);
    }

    #[test]
    fn keyword_lookup_hits_any_attribute() {
        let data = vec![
            Row::new("a:1", [("name", Value::from("shared"))]),
            Row::new("a:2", [("title", Value::from("shared"))]),
            Row::new("a:3", [("title", Value::from("different"))]),
        ];
        let mut e = EngineBuilder::new().peers(16).seed(54).build_with_rows(&data);
        let from = e.random_peer();
        let hits = run(&mut e, SelectTask::keyword(Value::from("shared"), from));
        let mut oids: Vec<&str> = hits.iter().map(|h| h.oid.as_str()).collect();
        oids.sort_unstable();
        assert_eq!(oids, vec!["a:1", "a:2"]);
    }

    /// A selection hit and a top-N item read after a publication that gives
    /// their objects a new field still show the objects fetched: a handle on
    /// the owner's run with delegation, gathered postings without.
    #[test]
    fn rows_read_after_a_publication_show_the_objects_fetched() {
        for delegation in [true, false] {
            let build = EngineBuilder::new().peers(16).seed(56).delegation(delegation);
            let mut e = build.build_with_rows(&rows());
            let from = e.random_peer();
            let hits = run(&mut e, SelectTask::exact("hp", Value::Int(150), from));
            let mut top = TopNTask::numeric("hp", 2, Rank::Max, from).expect("n > 0");
            e.run_task(&mut top);
            let items = top.take_items();
            for handle in [&hits[0].handle, &items[0].handle] {
                assert_eq!(matches!(handle, Fetched::At(_)), delegation);
            }
            let more: Vec<Row> = ["car:5", "car:29"]
                .map(|oid| Row::new(oid, [("extra", Value::from("later"))]))
                .to_vec();
            e.publish_rows(&more);
            for (shown, object, i) in [
                (format!("{:?}", hits[0]), hits[0].object(), 5),
                (format!("{:?}", items[0]), items[0].object(), 29),
            ] {
                let Row { oid, mut fields } = rows().swap_remove(i);
                fields.sort_by(|a, b| a.0.cmp(&b.0));
                let fetched = Object { oid, fields };
                assert_eq!(object, fetched, "delegation {delegation}");
                assert!(shown.ends_with(&format!("object: {fetched:?} }}")), "{shown}");
            }
            let again = run(&mut e, SelectTask::exact("hp", Value::Int(150), from));
            assert_eq!(again[0].object().get("extra"), Some(&Value::from("later")));
        }
    }

    /// Two attribute names sharing their first 32 bytes — one key family,
    /// told apart by the attribute guard only — on 40 objects, each with
    /// the numbers 0…39; and 480 objects with an `hp` and a `name`, whose
    /// family spans several partitions; over 512 peers with one member
    /// each.
    fn twin_world() -> (SimilarityEngine, String) {
        let stem = "an_attribute_name_32_bytes_long__";
        let (left, right) = (format!("{stem}left"), format!("{stem}right"));
        let rows: Vec<Row> = (0..480)
            .map(|i| {
                let mut fields = vec![
                    ("hp", Value::Int((i * 7) % 480)),
                    ("name", Value::from(format!("v{:03}", (i * 7) % 480))),
                ];
                if i < 40 {
                    fields.extend([(left.as_str(), Value::Int(i)), (&right, Value::Int(39 - i))]);
                }
                Row::new(format!("o:{i:03}"), fields)
            })
            .collect();
        let e = EngineBuilder::new().peers(512).replication(1).seed(57).build_with_rows(&rows);
        (e, left)
    }

    /// Range selection, numeric similarity and numeric top-N read the
    /// lent runs and answer the rows, `QueryStats` and trace of the
    /// reference that copies every reply — an inverted range among them —
    /// and again with a churn wave that kills a responder before the scan,
    /// and before each step in turn.
    #[test]
    fn lent_ranges_answer_what_copied_replies_answer() {
        let (mut built, left) = twin_world();
        let from = built.random_peer();
        let build = || twin_world().0;
        let mut t = Trio::new(build);
        let ranges: [Box<dyn Fn(PeerId) -> SelectTask>; 4] = [
            Box::new(|from| SelectTask::range(&left, Value::Int(10), Value::Int(30), from)),
            Box::new(|from| SelectTask::range("name", "v10".into(), "v12".into(), from)),
            Box::new(|from| SelectTask::numeric_similar(&left, Value::Int(30), 6.5, from)),
            Box::new(|from| SelectTask::range("name", "v001".into(), "v470".into(), from)),
        ];
        for make in &ranges {
            let (stats, _) = t.run(|| make(from), &no_hook);
            assert!(stats.matches > 0 && stats.matches < 480, "{} rows", stats.matches);
        }
        let top = |from| TopNTask::numeric("hp", 5, Rank::Nn(Value::Int(200)), from).unwrap();
        assert_eq!(t.run(|| top(from), &no_hook).0.matches, 5);
        let twin = |from| TopNTask::numeric(&left, 5, Rank::Max, from).unwrap();
        assert_eq!(t.run(|| twin(from), &no_hook).0.matches, 5);
        // An inverted range: no row, no message.
        let inverted = t.all(|e| {
            let mut task = SelectTask::range(&left, Value::Int(30), Value::Int(10), from);
            let stats = e.run_task(&mut task);
            (task.take_hits().len(), stats.traffic.messages)
        });
        assert_eq!(inverted, (0, 0));
        // A churn wave that kills every member of the last partition the
        // family spans: its shower branch finds it dead.
        let churn = |e: &mut SimilarityEngine| {
            let (s, end) = e.net.subtree_of(&keys::attr_scan_prefix("name"));
            let peered = e.net.topology().peered_in(s, end);
            assert!(peered.len() > 2, "the family spans {} partitions", peered.len());
            for p in e.net.partition_members(peered[peered.len() - 1] as usize).to_vec() {
                e.net.fail_peer(p);
            }
        };
        let wide = &ranges[3];
        let (stats, _) = Trio::new(build).run(|| wide(from), &before(0, churn));
        assert!(stats.traffic.failed_routes > 0, "a responder was dead");
        for make in &ranges[2..] {
            Trio::every_step(&build, &|from| make(from), &churn);
        }
        Trio::every_step(&build, &top, &churn);
    }

    #[test]
    fn select_all_returns_every_value() {
        let mut e = EngineBuilder::new().peers(16).seed(55).build_with_rows(&rows());
        let from = e.random_peer();
        let hits = run(&mut e, SelectTask::full_scan("hp", from));
        assert_eq!(hits.len(), 30);
    }
}
