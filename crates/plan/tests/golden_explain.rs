//! Golden `explain()` snapshots for representative plans.
//!
//! These pin the exact rendering — parameter resolution (defaults
//! inheritance), rewrite notes (pushdown, limit fusion, broker-aware
//! strategy choice) and the tree shape — so any planner change that moves
//! an access path or annotation shows up as a reviewable diff here.

use sqo_core::{AttrPredicate, EngineBuilder, JoinWindow, QueryDefaults, QueryStats, Rank};
use sqo_overlay::PeerId;
use sqo_plan::{CmpOp, PlanError, PlannerEnv, PreparedQuery, Query, Session};
use sqo_sim::{LatencyModel, SimConfig};
use sqo_storage::{Row, Value};

fn env_plain() -> PlannerEnv {
    PlannerEnv { defaults: QueryDefaults::default(), cache_active: false, delegation: true }
}

fn env_cached_w8() -> PlannerEnv {
    PlannerEnv {
        defaults: QueryDefaults { join_window: JoinWindow::Fixed(8), ..QueryDefaults::default() },
        cache_active: true,
        delegation: true,
    }
}

fn explain(q: &Query, env: &PlannerEnv) -> String {
    PreparedQuery::with_env(q, env, PeerId(0)).expect("plannable").explain()
}

#[test]
fn pipeline_select_join_topn() {
    let q = Query::select_range("price", Value::Int(0), Value::Int(50_000))
        .sim_join("dealer", Some("dlrname"), 1)
        .top_n(5);
    assert_eq!(
        explain(&q, &env_plain()),
        "TopN n=5 by=score [local rank + truncate]\n\
         └─ SimJoin ln=dealer rn=dlrname d=1 window=1 left_limit=∞ strategy=qgrams \
         [left from input rows, per-left Similar]\n\
         \x20  └─ SelectRange attr=price lo=0 hi=50000 [order-preserving shower scan]"
    );
}

#[test]
fn pipeline_inherits_join_window_default() {
    let q = Query::select_range("price", Value::Int(0), Value::Int(50_000))
        .sim_join("dealer", Some("dlrname"), 1)
        .top_n(5);
    assert_eq!(
        explain(&q, &env_cached_w8()),
        "TopN n=5 by=score [local rank + truncate]\n\
         └─ SimJoin ln=dealer rn=dlrname d=1 window=8 left_limit=∞ strategy=qgrams \
         [left from input rows, per-left Similar]\n\
         \x20  └─ SelectRange attr=price lo=0 hi=50000 [order-preserving shower scan]"
    );
}

#[test]
fn equality_pushdown_into_exact_key() {
    let q =
        Query::select_all("color").filter_value("color", CmpOp::Eq, Value::from("blue")).limit(3);
    assert_eq!(
        explain(&q, &env_cached_w8()),
        "Limit n=3\n\
         └─ Filter color = blue [local residual]\n\
         \x20  └─ SelectExact attr=color value=blue [exact index key, cached single-key \
         retrieve]\n\
         --\n\
         note: pushdown: σ(color = blue) absorbed into an exact key lookup (served from the \
         posting cache when hot)"
    );
}

#[test]
fn range_pushdown_keeps_residual_filter() {
    let q = Query::select_all("name").filter_value("name", CmpOp::Lt, Value::from("model05"));
    let rendered = explain(&q, &env_plain());
    assert!(rendered.contains("SelectRange attr=name"), "{rendered}");
    assert!(rendered.contains("Filter name < model05 [local residual]"), "{rendered}");
    assert!(rendered.contains("note: pushdown: σ(name < model05) absorbed into a range access"));
}

#[test]
fn numeric_literals_are_never_pushed_down() {
    // The filter coerces across Int/Float (190 matches 190.0) but the
    // index keys live in disjoint per-type families, so absorbing a
    // numeric literal into a typed access path would silently drop rows
    // stored under the other numeric type. The scan must survive.
    for lit in [Value::Int(190), Value::Float(190.0)] {
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
            let q = Query::select_all("hp").filter_value("hp", op, lit.clone());
            let rendered = explain(&q, &env_cached_w8());
            assert!(rendered.contains("SelectAll attr=hp"), "scan must remain: {rendered}");
            assert!(!rendered.contains("note: pushdown"), "no pushdown note: {rendered}");
        }
    }
}

#[test]
fn schema_level_similar() {
    let q = Query::similar("dlrid", None, 1);
    assert_eq!(
        explain(&q, &env_plain()),
        "Similar s=\"dlrid\" attr=<schema> d=1 strategy=qgrams [schema level, delegated gram \
         probes]"
    );
}

#[test]
fn limit_fuses_into_string_topn() {
    let q = Query::top_n_similar(Some("word"), 5, "house", 3).limit(2);
    assert_eq!(
        explain(&q, &env_plain()),
        "TopNString target=\"house\" attr=word n=2 d_max=3 strategy=qgrams [expanding distance \
         shells]\n\
         --\n\
         note: limit fusion: LIMIT 2 tightened string top-N to n=2"
    );
}

#[test]
fn multi_strategy_is_broker_aware() {
    let preds =
        vec![AttrPredicate::new("first", "johann", 1), AttrPredicate::new("last", "mueller", 1)];
    let q = Query::similar_multi(preds, None);
    assert_eq!(
        explain(&q, &env_plain()),
        "Multi preds=[dist(first, \"johann\") <= 1 AND dist(last, \"mueller\") <= 1] \
         strategy=qgrams [pipelined: lead sub-query + local residual]\n\
         --\n\
         note: multi: chose Pipelined (one network pass, residual predicates verified locally)"
    );
    assert_eq!(
        explain(&q, &env_cached_w8()),
        "Multi preds=[dist(first, \"johann\") <= 1 AND dist(last, \"mueller\") <= 1] \
         strategy=qgrams [intersect sub-queries]\n\
         --\n\
         note: multi: chose Intersect (posting cache active; repeated sub-queries share cached \
         gram lists)"
    );
}

/// Costed planning golden: estimates and the build-side decision are
/// pinned with their concrete numbers (engine-backed, fully
/// deterministic — a planner or estimator change shows up as a diff
/// here).
#[test]
fn costed_join_swap_golden() {
    let mut rows = Vec::new();
    for i in 0..60 {
        rows.push(Row::new(format!("c:{i}"), [("name", Value::from(format!("carname{i:03}")))]));
    }
    for i in 0..3 {
        rows.push(Row::new(format!("d:{i}"), [("dlrname", Value::from(format!("dealer{i}")))]));
    }
    // 128 peers: the two attributes' data lands on different partitions
    // (on 64, one partition holds both, and both estimates are local).
    let mut engine = EngineBuilder::new().peers(128).q(2).seed(41).build_with_rows(&rows);
    // The initiator owns the popular attribute's partition: its side
    // estimate is an exact local count, the rare side falls to the
    // trie-depth heuristic. Gaps count nothing: the 60 is exact, and the
    // rare side's one peered partition lies deep in the trie.
    let part = engine.network().partition_of(&sqo_storage::keys::attr_scan_prefix("name"));
    let from = engine.network_mut().partition_member(part).expect("alive member");
    let session = Session::new(&mut engine, from);
    let q = Query::join_scan("name", Some("dlrname"), 1);
    assert_eq!(
        session.explain(&q).expect("plannable"),
        "SimJoin ln=dlrname rn=name d=1 window=1 left_limit=∞ strategy=qgrams [build side \
         swapped: scanning attr=dlrname, pairs transposed back, per-left Similar]\n\
         --\n\
         note: cost: simjoin build side swapped — |name|≈60 (local) vs |dlrname|≈0 (trie): \
         scanning dlrname"
    );
}

#[test]
fn invalid_plans_are_rejected_not_panicked() {
    let zero = Query::top_n_similar(Some("w"), 0, "x", 2);
    assert!(PreparedQuery::with_env(&zero, &env_plain(), PeerId(0)).is_err());
    let empty = Query::similar_multi(Vec::new(), None);
    assert!(PreparedQuery::with_env(&empty, &env_plain(), PeerId(0)).is_err());
    let bad_nn = Query::top_n_numeric("hp", 3, sqo_core::Rank::Nn(Value::from("not-a-number")));
    assert!(PreparedQuery::with_env(&bad_nn, &env_plain(), PeerId(0)).is_err());
}

/// The three refusals above are the leaf tasks' own: `TopNTask` and
/// `MultiTask` return `Err` for a spec they cannot run, and preparing the
/// plan maps it to `PlanError::Invalid`. A `LIMIT 0` over a leaf top-N is
/// no top-0: it stays a limit and answers nothing, where fusing it into the
/// leaf made a task that panicked when it started.
#[test]
fn leaf_refusals_are_plan_errors_and_limit_0_answers_nothing() {
    let refusal = |q: Query| match PreparedQuery::with_env(&q, &env_plain(), PeerId(0)) {
        Err(PlanError::Invalid(m)) => m,
        Ok(_) => panic!("{q:?} was planned"),
    };
    assert_eq!(refusal(Query::top_n_similar(Some("w"), 0, "x", 2)), "top-0 is trivial");
    assert_eq!(refusal(Query::top_n_numeric("hp", 0, Rank::Max)), "top-0 is trivial");
    assert_eq!(
        refusal(Query::similar_multi(Vec::new(), None)),
        "conjunction needs at least one predicate"
    );
    assert_eq!(
        refusal(Query::top_n_numeric("hp", 3, Rank::Nn(Value::from("x")))),
        "numeric top-N requires a numeric NN target"
    );
    let mut engine = hp_engine();
    let mut session = Session::new(&mut engine, PeerId(0));
    for q in [
        Query::top_n_numeric("hp", 3, Rank::Max).limit(0),
        Query::top_n_similar(Some("hp"), 2, "x", 1).limit(0),
    ] {
        assert!(session.run(&q).expect("plannable").rows.is_empty(), "{q:?}");
    }
}

/// Twenty cars with `hp` 100 … 119 on 16 peers.
fn hp_engine() -> sqo_core::SimilarityEngine {
    let rows: Vec<Row> =
        (0..20).map(|i| Row::new(format!("c:{i}"), [("hp", Value::Int(100 + i))])).collect();
    EngineBuilder::new().peers(16).seed(3).build_with_rows(&rows)
}

/// Numeric top-N (Algorithm 4) run once on a constant-latency simulation:
/// the answer, and the rows, messages, enlargement rounds and virtual time
/// its stage observed, for a MAX and an NN ranking.
#[test]
fn numeric_topn_analyze_golden() {
    let mut engine = hp_engine();
    sqo_sim::install(
        &mut engine,
        SimConfig { latency: LatencyModel::Constant { us: 1_000 }, ..SimConfig::default() },
    );
    let mut session = Session::new(&mut engine, PeerId(0));
    let mut analyze = |q: &Query| {
        let prepared = session.prepare(q).expect("plannable");
        assert_stage_costs_add_up(&mut session, &prepared);
        let (result, rendered) = session.explain_analyze_prepared(&prepared);
        let answer: Vec<String> =
            result.rows.iter().map(|r| format!("{}={}", r.oid, r.value)).collect();
        (answer, rendered)
    };
    let (answer, rendered) = analyze(&Query::top_n_numeric("hp", 3, Rank::Max));
    assert_eq!(answer, ["c:19=119", "c:18=118", "c:17=117"]);
    assert_eq!(
        rendered,
        "TopNNumeric attr=hp n=3 rank=MAX [density-estimated range enlargement]\n\
         ~ rows=3 time=4254us msgs=4 bytes=296 probes=0 rounds=1 queue=0us service=254us \
         blame[link=4000us queue=0us service=254us stall=0us]\n\
         -- observed: rows=3 msgs=4 bytes=296 probes=0 time=4254us"
    );
    let (answer, rendered) = analyze(&Query::top_n_numeric("hp", 4, Rank::Nn(Value::Int(107))));
    assert_eq!(answer, ["c:7=107", "c:6=106", "c:8=108", "c:5=105"]);
    assert_eq!(
        rendered,
        "TopNNumeric attr=hp n=4 rank=NN 107 [density-estimated range enlargement]\n\
         ~ rows=4 time=4284us msgs=4 bytes=650 probes=0 rounds=1 queue=0us service=284us \
         blame[link=4000us queue=0us service=284us stall=0us]\n\
         -- observed: rows=4 msgs=4 bytes=650 probes=0 time=4284us"
    );
}

/// The counters a plan's stats and its stages' observations both sum.
fn summed(s: &QueryStats) -> [(&'static str, u64); 9] {
    [
        ("messages", s.traffic.messages),
        ("bytes", s.traffic.bytes),
        ("probes", s.probes as u64),
        ("edit_comparisons", s.edit_comparisons),
        ("cache_hits", s.cache_hits),
        ("cache_misses", s.cache_misses),
        ("retries", s.retries),
        ("partitions_addressed", s.partitions_addressed),
        ("partitions_answered", s.partitions_answered),
    ]
}

/// Run `prepared` once as a task: the summed counters of its stages'
/// observations add up to the plan's own.
fn assert_stage_costs_add_up(session: &mut Session, prepared: &PreparedQuery) {
    let mut task = prepared.task();
    let total = session.engine().run_task(&mut task);
    let mut stages = summed(&QueryStats::default());
    for o in task.observations() {
        for (sum, (_, n)) in stages.iter_mut().zip(summed(&o.stats)) {
            sum.1 += n;
        }
    }
    assert_eq!(stages, summed(&total), "stages of\n{}", prepared.explain());
}

/// Stage costs add up on plans of several stages: a pipeline into a join
/// and a local top-N, a filtered and limited selection, an oid lookup, and
/// a build-side-swapped join whose transposing fetch its stage charges.
#[test]
fn stage_costs_add_up_to_the_plans() {
    let mut rows = Vec::new();
    for i in 0..60 {
        rows.push(Row::new(
            format!("c:{i}"),
            [
                ("name", Value::from(format!("carname{i:03}"))),
                ("price", Value::Int(1_000 * i)),
                ("dealer", Value::from(format!("dealer{}", i % 4))),
            ],
        ));
    }
    // Dealers named like a car too: the swapped join has pairs to fetch.
    for i in 0..3 {
        rows.push(Row::new(format!("d:{i}"), [("dlrname", Value::from(format!("dealer{i}")))]));
        rows.push(Row::new(
            format!("e:{i}"),
            [("dlrname", Value::from(format!("carname{i:03}x")))],
        ));
    }
    let mut engine = EngineBuilder::new().peers(128).q(2).seed(41).build_with_rows(&rows);
    sqo_sim::install(
        &mut engine,
        SimConfig { latency: LatencyModel::Constant { us: 1_000 }, ..SimConfig::default() },
    );
    // From the popular attribute's partition the join swaps its build side
    // (see `costed_join_swap_golden`).
    let part = engine.network().partition_of(&sqo_storage::keys::attr_scan_prefix("name"));
    let from = engine.network_mut().partition_member(part).expect("alive member");
    let mut session = Session::new(&mut engine, from);
    let swapped = session.prepare(&Query::join_scan("name", Some("dlrname"), 1)).expect("plans");
    assert!(swapped.explain().contains("build side swapped"), "{}", swapped.explain());
    let plans = [
        Query::select_range("price", Value::Int(0), Value::Int(20_000))
            .sim_join("dealer", Some("dlrname"), 1)
            .top_n(3),
        Query::similar("carname010", Some("name"), 1)
            .filter_value("price", CmpOp::Le, Value::Int(30_000))
            .limit(2),
        Query::lookup("c:7"),
    ];
    for q in &plans {
        let prepared = session.prepare(q).expect("plans");
        assert_stage_costs_add_up(&mut session, &prepared);
    }
    assert_eq!(session.run_prepared(&swapped).rows.len(), 3, "the swapped join pairs");
    assert_stage_costs_add_up(&mut session, &swapped);
}

/// `q`, a selection that would look NaN up, is refused by `Session::run` as
/// an invalid plan; each such selection used to panic hashing NaN into the
/// ordered key space.
fn refuses_nan(q: Query) {
    let mut engine = hp_engine();
    let from = engine.random_peer();
    match Session::new(&mut engine, from).run(&q) {
        Err(PlanError::Invalid(m)) => assert!(m.contains("NaN"), "{q:?}: {m}"),
        other => panic!("{q:?}: {:?}", other.map(|r| r.rows.len())),
    }
}

#[test]
fn an_exact_selection_of_nan_is_refused() {
    refuses_nan(Query::select_exact("hp", Value::Float(f64::NAN)));
}

#[test]
fn a_range_with_a_nan_bound_is_refused() {
    refuses_nan(Query::select_range("hp", Value::Float(f64::NAN), Value::Int(200)));
    refuses_nan(Query::select_range("hp", Value::Int(0), Value::Float(f64::NAN)));
}

#[test]
fn a_numeric_similarity_around_nan_is_refused() {
    refuses_nan(Query::select_numeric_similar("hp", Value::Float(f64::NAN), 2.0));
}

#[test]
fn a_keyword_selection_of_nan_is_refused() {
    refuses_nan(Query::select_keyword(Value::Float(f64::NAN)));
}

/// A numeric similarity whose `eps` is NaN, infinite or negative is refused
/// by `Session::run` as an invalid plan — it used to panic inside the
/// selection — and one with a finite, non-negative `eps` runs.
#[test]
fn a_numeric_similarity_with_a_bad_eps_is_refused_by_session_run() {
    let mut engine = hp_engine();
    let from = engine.random_peer();
    let mut session = Session::new(&mut engine, from);
    for eps in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -f64::MIN_POSITIVE] {
        let q = Query::select_numeric_similar("hp", Value::Int(105), eps);
        match session.run(&q) {
            Err(PlanError::Invalid(m)) => assert!(m.contains("eps"), "{eps}: {m}"),
            other => panic!("eps {eps}: {:?}", other.map(|r| r.rows.len())),
        }
    }
    for (eps, hits) in [(0.0, 1), (2.0, 5)] {
        let q = Query::select_numeric_similar("hp", Value::Int(105), eps);
        assert_eq!(session.run(&q).expect("a valid eps").rows.len(), hits, "eps {eps}");
    }
}
