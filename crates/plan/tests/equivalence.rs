//! A query runs two ways — through `Session`, or as its operator's
//! `ExecStep` task on the engine — and a single-operator plan executes the
//! *identical* stepped task, so results **and cost accounting** are
//! byte-identical either way.
//!
//! Methodology: two engines built identically (same seed, data,
//! replication, cache services) are in identical RNG states; the operator
//! task runs on one, the plan on the other, from the same initiator — so
//! even routing draws coincide and the full `QueryStats` (messages, bytes,
//! probes, candidates, comparisons, cache counters) must match exactly,
//! not just the result rows. Each query runs twice per engine so the
//! cache-on configurations also pin the hot (cache-hit) path.

use proptest::prelude::*;
use sqo_core::{
    AttrPredicate, BrokerConfig, EngineBuilder, ExecStep, JoinOptions, JoinTask, MultiStrategy,
    MultiTask, QueryStats, Rank, SelectTask, SimilarTask, SimilarityEngine, Strategy, TopNItem,
    TopNTask,
};
use sqo_overlay::PeerId;
use sqo_plan::{PlanResult, PlanRow, Query, Session};
use sqo_storage::{Row, Value};

fn word_rows(words: &[String]) -> Vec<Row> {
    words
        .iter()
        .enumerate()
        .map(|(i, w)| {
            Row::new(
                format!("w:{i}"),
                [
                    ("word".to_string(), Value::from(w.clone())),
                    ("rev".to_string(), Value::from(w.chars().rev().collect::<String>())),
                    ("len".to_string(), Value::from(w.chars().count() as i64)),
                ],
            )
        })
        .collect()
}

fn build(words: &[String], replication: usize, cache: bool, seed: u64) -> SimilarityEngine {
    let mut b = EngineBuilder::new().peers(48).q(2).replication(replication).seed(seed);
    if cache {
        b = b.cache_config(BrokerConfig::enabled());
    }
    b.build_with_rows(&word_rows(words))
}

fn stats_repr(s: &QueryStats) -> String {
    format!("{s:?}")
}

/// Run `task` on `e` to completion: its rows, as `take` maps them, and
/// its stats.
fn run<T: ExecStep>(
    e: &mut SimilarityEngine,
    mut task: T,
    take: impl FnOnce(&mut T) -> Vec<PlanRow>,
) -> (Vec<PlanRow>, QueryStats) {
    let stats = e.run_task(&mut task);
    (take(&mut task), stats)
}

/// Run the plan twice on `plan_engine` and the task closure twice on
/// `task_engine`, asserting rows and stats match run for run.
fn assert_equivalent(
    task_engine: &mut SimilarityEngine,
    plan_engine: &mut SimilarityEngine,
    q: &Query,
    task: impl Fn(&mut SimilarityEngine, PeerId) -> (Vec<PlanRow>, QueryStats),
) {
    let from_t = task_engine.random_peer();
    let from_p = plan_engine.random_peer();
    assert_eq!(from_t, from_p, "identical engines draw identical initiators");
    for round in 0..2 {
        let (expected_rows, expected_stats) = task(task_engine, from_t);
        let mut session = Session::new(plan_engine, from_p);
        let PlanResult { rows, stats } = session.run(q).expect("plannable");
        assert_eq!(&rows, &expected_rows, "rows differ (round {round})");
        assert_eq!(stats_repr(&stats), stats_repr(&expected_stats), "stats differ (round {round})");
    }
}

fn rows_from_items(items: Vec<TopNItem>) -> Vec<PlanRow> {
    items
        .into_iter()
        .map(|i| PlanRow {
            oid: i.oid,
            attr: None,
            value: i.value,
            score: Some(i.score),
            handle: i.handle,
            left: None,
            bindings: Vec::new(),
        })
        .collect()
}

fn rows_from_similar(matches: Vec<sqo_core::SimilarMatch>) -> Vec<PlanRow> {
    matches
        .into_iter()
        .map(|m| PlanRow {
            oid: m.oid,
            attr: Some(m.attr.as_str().to_string()),
            value: Value::Str(m.matched),
            score: Some(m.distance as f64),
            handle: m.handle,
            left: None,
            bindings: Vec::new(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// `Similar` (every strategy) through the plan == its task.
    #[test]
    fn similar_equivalence(
        words in prop::collection::hash_set("[a-d]{2,9}", 2..24),
        query in "[a-d]{2,9}",
        d in 0usize..3,
        replication in 1usize..3,
        cache in any::<bool>(),
        strat in 0usize..3,
    ) {
        let words: Vec<String> = { let mut v: Vec<_> = words.into_iter().collect(); v.sort(); v };
        let strategy = Strategy::ALL[strat];
        let mut te = build(&words, replication, cache, 11);
        let mut pe = build(&words, replication, cache, 11);
        let q = Query::similar(query.clone(), Some("word"), d).strategy(strategy);
        assert_equivalent(&mut te, &mut pe, &q, |e, from| {
            let task = SimilarTask::new(&query, Some("word"), d, from, strategy);
            run(e, task, |t| rows_from_similar(t.take_matches().collect()))
        });
    }

    /// Exact / keyword / full-scan / range selections through the plan ==
    /// their tasks.
    #[test]
    fn select_equivalence(
        words in prop::collection::hash_set("[a-c]{2,6}", 2..20),
        pick in 0usize..1000,
        kind in 0usize..4,
        replication in 1usize..3,
        cache in any::<bool>(),
    ) {
        let words: Vec<String> = { let mut v: Vec<_> = words.into_iter().collect(); v.sort(); v };
        let target = Value::from(words[pick % words.len()].clone());
        let mut te = build(&words, replication, cache, 13);
        let mut pe = build(&words, replication, cache, 13);
        let (q, attr) = match kind {
            0 => (Query::select_exact("word", target.clone()), Some("word")),
            1 => (Query::select_keyword(target.clone()), None),
            2 => (Query::select_all("word"), Some("word")),
            _ => (Query::select_range("len", Value::Int(2), Value::Int(5)), Some("len")),
        };
        assert_equivalent(&mut te, &mut pe, &q, |e, from| {
            let task = match kind {
                0 => SelectTask::exact("word", target.clone(), from),
                1 => SelectTask::keyword(target.clone(), from),
                2 => SelectTask::full_scan("word", from),
                _ => SelectTask::range("len", Value::Int(2), Value::Int(5), from),
            };
            run(e, task, |t| t.take_hits().into_iter().map(|h| PlanRow {
                oid: h.oid, attr: attr.map(str::to_string), value: h.value, score: None,
                handle: h.handle, left: None, bindings: Vec::new(),
            }).collect())
        });
    }

    /// Scan-left similarity join through the plan == its task, across
    /// windows and left limits.
    #[test]
    fn join_equivalence(
        words in prop::collection::hash_set("[a-c]{3,6}", 2..14),
        d in 0usize..2,
        window in 1usize..4,
        left_limit in prop::option::of(1usize..6),
        replication in 1usize..3,
        cache in any::<bool>(),
    ) {
        let words: Vec<String> = { let mut v: Vec<_> = words.into_iter().collect(); v.sort(); v };
        let mut te = build(&words, replication, cache, 17);
        let mut pe = build(&words, replication, cache, 17);
        let q = Query::join_scan("word", Some("word"), d)
            .strategy(Strategy::QGrams)
            .window(window)
            .left_limit(left_limit);
        assert_equivalent(&mut te, &mut pe, &q, |e, from| {
            let opts = JoinOptions { strategy: Strategy::QGrams, left_limit, window: sqo_core::JoinWindow::Fixed(window) };
            let task = JoinTask::new("word", Some("word"), d, from, &opts);
            run(e, task, |t| t.take_pairs().into_iter().map(|p| {
                let mut row = rows_from_similar(vec![p.right]).pop().expect("one");
                row.left = Some((p.left_oid, p.left_value));
                row
            }).collect())
        });
    }

    /// String top-N through the plan == its task.
    #[test]
    fn topn_string_equivalence(
        words in prop::collection::hash_set("[a-c]{3,7}", 2..16),
        target in "[a-c]{3,7}",
        n in 1usize..5,
        d_max in 1usize..4,
        replication in 1usize..3,
        cache in any::<bool>(),
    ) {
        let words: Vec<String> = { let mut v: Vec<_> = words.into_iter().collect(); v.sort(); v };
        let mut te = build(&words, replication, cache, 19);
        let mut pe = build(&words, replication, cache, 19);
        let q = Query::top_n_similar(Some("word"), n, target.clone(), d_max)
            .strategy(Strategy::QGrams);
        assert_equivalent(&mut te, &mut pe, &q, |e, from| {
            let task = TopNTask::nearest(Some("word"), n, &target, d_max, from, Strategy::QGrams)
                .expect("n >= 1");
            run(e, task, |t| rows_from_items(t.take_items()))
        });
    }

    /// Numeric top-N through the plan == its task (all rankings).
    #[test]
    fn topn_numeric_equivalence(
        words in prop::collection::hash_set("[a-c]{2,8}", 3..20),
        n in 1usize..6,
        rank_pick in 0usize..3,
        replication in 1usize..3,
    ) {
        let words: Vec<String> = { let mut v: Vec<_> = words.into_iter().collect(); v.sort(); v };
        let rank = match rank_pick {
            0 => Rank::Min,
            1 => Rank::Max,
            _ => Rank::Nn(Value::Int(4)),
        };
        let mut te = build(&words, replication, false, 23);
        let mut pe = build(&words, replication, false, 23);
        let q = Query::top_n_numeric("len", n, rank.clone());
        assert_equivalent(&mut te, &mut pe, &q, |e, from| {
            let task = TopNTask::numeric("len", n, rank.clone(), from).expect("n >= 1");
            run(e, task, |t| rows_from_items(t.take_items()))
        });
    }

    /// Multi-attribute conjunctions through the plan == their task, both
    /// conjunction strategies.
    #[test]
    fn multi_equivalence(
        words in prop::collection::hash_set("[a-b]{3,6}", 2..12),
        q1 in "[a-b]{3,6}",
        q2 in "[a-b]{3,6}",
        intersect in any::<bool>(),
        replication in 1usize..3,
        cache in any::<bool>(),
    ) {
        let words: Vec<String> = { let mut v: Vec<_> = words.into_iter().collect(); v.sort(); v };
        let multi = if intersect { MultiStrategy::Intersect } else { MultiStrategy::Pipelined };
        let preds = vec![
            AttrPredicate::new("word", q1.clone(), 1),
            AttrPredicate::new("rev", q2.clone(), 1),
        ];
        let mut te = build(&words, replication, cache, 29);
        let mut pe = build(&words, replication, cache, 29);
        let q = Query::similar_multi(preds.clone(), Some(multi)).strategy(Strategy::QGrams);
        assert_equivalent(&mut te, &mut pe, &q, |e, from| {
            let task =
                MultiTask::new(preds.clone(), from, Strategy::QGrams, multi).expect("two predicates");
            run(e, task, |t| t.take_matches().into_iter().map(|m| PlanRow {
                value: Value::Str(m.oid.clone()),
                oid: m.oid, attr: None, score: None,
                handle: m.handle, left: None, bindings: m.bindings,
            }).collect())
        });
    }
}

/// Regression (code-review finding): a numeric filter must not be narrowed
/// by pushdown. `cmp_holds` coerces across Int/Float, but the index keys
/// live in disjoint per-type families — absorbing a Float literal into a
/// typed exact/range access path would drop Int-stored rows entirely.
#[test]
fn cross_type_numeric_filter_is_not_narrowed_by_pushdown() {
    let rows = vec![Row::new("c:1", [("price", Value::Int(30_000)), ("name", Value::from("bmw"))])];
    let mut engine = EngineBuilder::new().peers(16).q(2).seed(3).build_with_rows(&rows);
    let from = engine.random_peer();
    let mut session = Session::new(&mut engine, from);
    // Float literal over an Int-stored attribute: the filter's coercing
    // comparison accepts the row, so the plan must return it.
    let q = Query::select_all("price").filter_value(
        "price",
        sqo_plan::CmpOp::Eq,
        Value::Float(30_000.0),
    );
    let result = session.run(&q).expect("plannable");
    assert_eq!(result.rows.len(), 1, "Int-stored row must survive a Float-literal filter");
    assert_eq!(result.rows[0].oid, "c:1");
    // And the reverse: Int literal over the same data still matches.
    let q =
        Query::select_all("price").filter_value("price", sqo_plan::CmpOp::Le, Value::Int(30_000));
    let result = session.run(&q).expect("plannable");
    assert_eq!(result.rows.len(), 1);
}
