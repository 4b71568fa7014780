//! Pinned behavior of the cost-based rewrite pass:
//!
//! * cheapest-first conjunction ordering reduces overlay messages against
//!   author order on a skewed-cardinality workload (results identical),
//! * the sim-join build-side swap scans the smaller side, transposes the
//!   pairs back to author orientation, and costs fewer messages,
//! * the estimates and decisions are recorded in `explain()` (golden).
//!
//! Both sides of every comparison run on identically built engines: the
//! author-order baseline plans rule-based through
//! [`PreparedQuery::with_env`] (no cost model), the costed plan through
//! [`Session::prepare`].
//!
//! The skew is engineered so the estimates actually discriminate: the
//! initiator owns the popular attribute's partition (exact local counts),
//! while the rare attribute falls to the structural trie-depth fallback.

use sqo_core::{AttrPredicate, EngineBuilder, SimilarityEngine};
use sqo_overlay::key::Key;
use sqo_overlay::PeerId;
use sqo_plan::{PlannerEnv, PreparedQuery, Query, Session};
use sqo_storage::{keys, Row, Value};

/// 100 objects carry `big` (values sharing grams with the probe string);
/// only 4 carry `small`. Conjunction matches live on the 4.
fn skewed_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for i in 0..4 {
        rows.push(Row::new(
            format!("both:{i}"),
            [
                ("big".to_string(), Value::from(format!("bigvalue{i:03}"))),
                ("small".to_string(), Value::from(format!("smol{i}"))),
            ],
        ));
    }
    for i in 4..100 {
        rows.push(Row::new(
            format!("b:{i}"),
            [("big".to_string(), Value::from(format!("bigvalue{i:03}")))],
        ));
    }
    rows
}

fn build(rows: &[Row], seed: u64) -> SimilarityEngine {
    EngineBuilder::new().peers(64).q(2).seed(seed).build_with_rows(rows)
}

/// Plan `q` from `from`: costed through the session, or rule-based in
/// author order.
fn prepare(e: &mut SimilarityEngine, q: &Query, from: PeerId, costed: bool) -> PreparedQuery {
    if costed {
        Session::new(e, from).prepare(q)
    } else {
        PreparedQuery::with_env(q, &PlannerEnv::of(e), from)
    }
    .expect("plannable")
}

/// A peer that stores `key`'s partition, so its estimates for that key
/// come from exact local counts.
fn owner_of(e: &mut SimilarityEngine, key: &Key) -> PeerId {
    let part = e.network().partition_of(key);
    e.network_mut().partition_member(part).expect("alive member")
}

#[test]
fn cost_ordered_conjunction_reduces_messages_vs_author_order() {
    // Author order leads with the *expensive* predicate, and its longer
    // query string makes the built-in length heuristic pick it as the
    // pipelined lead too — the cost model must overrule both.
    let preds =
        vec![AttrPredicate::new("big", "bigvalue001x", 1), AttrPredicate::new("small", "smol1", 1)];
    let probe = keys::instance_gram_key("big", "bi");
    let run = |costed: bool| {
        let mut e = build(&skewed_rows(), 31);
        let from = owner_of(&mut e, &probe);
        let q = Query::similar_multi(preds.clone(), None);
        let prepared = prepare(&mut e, &q, from, costed);
        let result = Session::new(&mut e, from).run_prepared(&prepared);
        let mut oids: Vec<String> = result.rows.iter().map(|r| r.oid.clone()).collect();
        oids.sort_unstable();
        (oids, result.stats.traffic.messages, prepared.notes().join("\n"))
    };
    let (oids_author, msgs_author, notes_author) = run(false);
    let (oids_cost, msgs_cost, notes_cost) = run(true);
    assert_eq!(oids_author, oids_cost, "ordering must never change the conjunction's matches");
    assert!(!oids_cost.is_empty(), "the workload must produce matches");
    assert!(
        msgs_cost < msgs_author,
        "cheapest-first lead must cost fewer messages ({msgs_cost} vs {msgs_author})"
    );
    assert!(
        notes_cost.contains("cost: conjunction legs ordered cheapest-first"),
        "the decision must be recorded: {notes_cost}"
    );
    assert!(
        !notes_author.contains("cost:"),
        "rule-based planning records no cost note: {notes_author}"
    );
}

#[test]
fn join_build_side_swap_scans_smaller_side_and_transposes_back() {
    // bigside: 100 values; smallside: 4 of them verbatim → every scanned
    // smallside value joins its bigside twins at distance <= 1.
    let mut rows = Vec::new();
    for i in 0..100 {
        rows.push(Row::new(
            format!("b:{i}"),
            [("bigside".to_string(), Value::from(format!("jointarget{i:03}")))],
        ));
    }
    for i in 0..4 {
        rows.push(Row::new(
            format!("s:{i}"),
            [("smallside".to_string(), Value::from(format!("jointarget{i:03}")))],
        ));
    }
    let probe = keys::attr_scan_prefix("bigside");
    let run = |costed: bool| {
        let mut e = build(&rows, 33);
        let from = owner_of(&mut e, &probe);
        let q = Query::join_scan("bigside", Some("smallside"), 1);
        let prepared = prepare(&mut e, &q, from, costed);
        let result = Session::new(&mut e, from).run_prepared(&prepared);
        // Author orientation: left = bigside, row (right) = smallside.
        let mut pairs: Vec<(String, String, String)> = result
            .rows
            .iter()
            .map(|r| {
                let (l_oid, l_val) = r.left.clone().expect("join rows carry provenance");
                (l_oid, l_val, r.oid.clone())
            })
            .collect();
        pairs.sort_unstable();
        let explain = prepared.explain();
        (pairs, result.stats.traffic.messages, explain)
    };
    let (pairs_plain, msgs_plain, explain_plain) = run(false);
    let (pairs_swap, msgs_swap, explain_swap) = run(true);
    assert!(!pairs_plain.is_empty(), "the join must produce pairs");
    assert_eq!(
        pairs_plain, pairs_swap,
        "the swap must be invisible in the results (author orientation)"
    );
    assert!(
        msgs_swap < msgs_plain,
        "scanning 4 lefts instead of 100 must cost fewer messages \
         ({msgs_swap} vs {msgs_plain})"
    );
    assert!(explain_swap.contains("build side swapped"), "{explain_swap}");
    assert!(explain_swap.contains("cost: simjoin build side swapped"), "{explain_swap}");
    assert!(!explain_plain.contains("swapped"), "{explain_plain}");
    // Row objects in author orientation carry the smallside objects.
    let mut e = build(&rows, 33);
    let from = owner_of(&mut e, &probe);
    let mut session = Session::new(&mut e, from);
    let result = session.run(&Query::join_scan("bigside", Some("smallside"), 1)).unwrap();
    for row in &result.rows {
        assert!(row.oid.starts_with("s:"), "row side is the authored right: {}", row.oid);
        assert_eq!(
            row.object().get("smallside"),
            Some(&row.value),
            "transposed rows carry the scanned side's full object"
        );
    }
}

#[test]
fn cost_notes_are_recorded_for_unswapped_joins_too() {
    let mut e = build(&skewed_rows(), 35);
    let from = e.random_peer();
    let session = Session::new(&mut e, from);
    // A self-join: sides tie, no swap — but the estimate is still pinned
    // in the notes.
    let prepared = session.prepare(&Query::join_scan("big", Some("big"), 1)).unwrap();
    let notes = prepared.notes().join("\n");
    assert!(notes.contains("cost: simjoin left |big|≈"), "{notes}");
    assert!(!prepared.explain().contains("swapped"), "self-joins never swap");
}

#[test]
fn equivalence_guard_cost_rewrites_leave_pinned_plans_alone() {
    // A Multi with a *pinned* strategy is the author's exact evaluation
    // order — the cost pass must not touch it (this is what keeps the
    // plan/legacy equivalence proptests byte-identical).
    let preds =
        vec![AttrPredicate::new("big", "bigvalue001x", 1), AttrPredicate::new("small", "smol1", 1)];
    let mut e = build(&skewed_rows(), 37);
    let from = e.random_peer();
    let session = Session::new(&mut e, from);
    let q = Query::similar_multi(preds.clone(), Some(sqo_core::MultiStrategy::Pipelined));
    let prepared = session.prepare(&q).unwrap();
    assert!(
        !prepared.notes().iter().any(|n| n.contains("conjunction legs ordered")),
        "pinned conjunctions keep author order: {:?}",
        prepared.notes()
    );
    let sqo_plan::PlanNode::Multi(spec) = prepared.plan() else { panic!("multi root") };
    assert_eq!(spec.preds, preds, "author order preserved");
    assert!(!spec.cost_ordered);
}
