//! Rows carry their objects as handles: a row read after a publication
//! shows the object its query fetched, as a row built at once does.
//!
//! Twin engines, built alike and each with a trace sink, run every plan
//! shape alike. One takes its rows, publishes rows that give every object
//! another field and add objects under keys that existing ones prefix, and
//! only then reads the rows (`Debug` builds each object from its handle).
//! The other builds every row's object the moment its query ends and shows
//! it as a row that owned its object did ([`eager`]), then publishes. The
//! rows, `QueryStats` and trace events must be the same, with delegation on
//! (a handle on the owner's run) and off (gathered postings).
//!
//! The stages that read one attribute through a row's handle — `Filter` on
//! another attribute and `JoinOver` — are held to the same stage evaluated
//! by this file on eagerly built objects.

use sqo_core::{
    AttrPredicate, EngineBuilder, JoinOptions, JoinTask, MultiStrategy, Rank, SimilarityEngine,
    Strategy,
};
use sqo_overlay::{PeerId, TraceEvent, TraceSink};
use sqo_plan::{CmpOp, PlanNode, PlanRow, Query, Session};
use sqo_storage::keys;
use sqo_storage::posting::Object;
use sqo_storage::{Row, Value};
use std::cell::RefCell;
use std::rc::Rc;

/// A row as it was when it owned its object, shown by the derived `Debug`.
mod owned {
    use sqo_storage::posting::Object;
    use sqo_storage::Value;

    #[derive(Debug)]
    #[allow(dead_code)] // read by `Debug` only
    pub struct PlanRow {
        pub oid: String,
        pub attr: Option<String>,
        pub value: Value,
        pub score: Option<f64>,
        pub object: Object,
        pub left: Option<(String, String)>,
        pub bindings: Vec<(String, String, usize)>,
    }
}

/// `rows` with every object built now, shown as owned rows.
fn eager(rows: Vec<PlanRow>) -> String {
    let owned: Vec<owned::PlanRow> = rows
        .into_iter()
        .map(|r| owned::PlanRow {
            object: r.object(),
            oid: r.oid,
            attr: r.attr,
            value: r.value,
            score: r.score,
            left: r.left,
            bindings: r.bindings,
        })
        .collect();
    format!("{owned:?}")
}

/// Every trace event a network emitted, in order.
#[derive(Default)]
struct Recorded(Vec<TraceEvent>);

impl TraceSink for Recorded {
    fn record(&mut self, ev: TraceEvent) {
        self.0.push(ev);
    }
}

const WORDS: [&str; 9] =
    ["house", "horse", "mouse", "hause", "haus", "houses", "hose", "louse", "mousse"];

/// Objects whose oids prefix one another (`w:1`, `w:10`…`w:19`, `w:100`,
/// …) with a word, a name and a number, values many objects share; and
/// four `t:` objects with a `tag`, a side small enough for the planner to
/// scan instead of `word`.
fn world() -> Vec<Row> {
    let w = (0..160).map(|i| {
        Row::new(
            format!("w:{i}"),
            [
                ("word", Value::from(WORDS[i % WORDS.len()])),
                ("name", Value::from(format!("{}{}", WORDS[(i / 3) % WORDS.len()], i % 7))),
                ("hp", Value::Int(100 + (i % 40) as i64)),
            ],
        )
    });
    let t = (0..4).map(|i| Row::new(format!("t:{i}"), [("tag", Value::from(WORDS[i * 2]))]));
    w.chain(t).collect()
}

/// Publication `round`: every object gains a field, and objects arrive
/// under keys the existing ones prefix, one of them a near match of every
/// similarity query below.
fn publish_more(e: &mut SimilarityEngine, round: usize) {
    let more: Vec<Row> = (0..160)
        .map(|i| Row::new(format!("w:{i}"), [("extra", Value::from(format!("more{round}")))]))
        .chain((0..4).map(|i| Row::new(format!("t:{i}"), [("extra", Value::Int(round as i64))])))
        .chain([Row::new(format!("w:1{round}00"), [("word", Value::from("hoose"))])])
        .collect();
    e.publish_rows(&more);
}

struct Twins {
    engines: [SimilarityEngine; 2],
    traces: [Rc<RefCell<Recorded>>; 2],
    round: usize,
}

impl Twins {
    fn new(delegation: bool) -> Self {
        let rows = world();
        let build = || {
            EngineBuilder::new()
                .peers(32)
                .seed(47)
                .q(2)
                .delegation(delegation)
                .build_with_rows(&rows)
        };
        let mut engines = [build(), build()];
        let traces = [(); 2].map(|()| Rc::new(RefCell::new(Recorded::default())));
        for (e, t) in engines.iter_mut().zip(&traces) {
            e.network_mut().set_trace_sink(t.clone());
        }
        Self { engines, traces, round: 0 }
    }

    /// `q` on both twins from `from`: the first reads its rows after a
    /// publication, the second builds them before it. Returns the rows.
    fn run(&mut self, q: &Query, from: PeerId) -> String {
        self.round += 1;
        let round = self.round;
        let [lazy, eager_shown] = [0, 1].map(|i| {
            let e = &mut self.engines[i];
            let res = Session::new(e, from).run(q).expect("a valid plan");
            let stats = format!("{:?}", res.stats);
            if i == 0 {
                publish_more(e, round);
                format!("{:?} {stats}", res.rows)
            } else {
                let shown = format!("{} {stats}", eager(res.rows));
                publish_more(e, round);
                shown
            }
        });
        let [lazy_trace, eager_trace] =
            self.traces.each_ref().map(|t| format!("{:?}", std::mem::take(&mut t.borrow_mut().0)));
        assert!(!eager_trace.is_empty(), "{q:?} is traced");
        assert_eq!(lazy_trace, eager_trace, "the trace of {q:?}");
        assert_eq!(lazy, eager_shown, "{q:?}");
        let later = format!("Str(\"more{round}\")");
        assert!(!lazy.contains(&later), "{q:?} shows no field published after it: {lazy}");
        lazy
    }
}

/// Every plan shape's rows, read after a publication that gives their
/// objects a new field, are the rows built before it: selections exact,
/// by range, numeric similarity, keyword and full scan; similarity by
/// q-grams and naive; string and numeric top-N; a scan-left join, one the
/// planner swaps, and a join over a selection; a conjunction, pipelined
/// and intersected; a lookup by oid and a filter on another attribute.
#[test]
fn rows_read_after_a_publication_are_the_rows_built_before_it() {
    let both = |attr: &str, s: &str, d| AttrPredicate::new(attr, s, d);
    let plans = [
        Query::select_exact("hp", Value::Int(110)),
        Query::select_range("word", Value::from("ho"), Value::from("mo")),
        Query::select_numeric_similar("hp", Value::Int(120), 3.0),
        Query::select_keyword(Value::from("mouse")),
        Query::select_all("hp"),
        Query::similar("hoose", Some("word"), 2),
        Query::similar("hoose", Some("word"), 1).strategy(Strategy::Naive),
        Query::top_n_similar(Some("word"), 4, "hoose", 3),
        Query::top_n_numeric("hp", 5, Rank::Max),
        Query::join_scan("name", Some("word"), 1).left_limit(Some(6)).window(3),
        Query::select_range("word", Value::from("ho"), Value::from("hz")).sim_join(
            "name",
            Some("word"),
            1,
        ),
        Query::similar_multi(
            vec![both("word", "mouse", 1), both("name", "house3", 2)],
            Some(MultiStrategy::Pipelined),
        ),
        Query::similar_multi(
            vec![both("word", "mouse", 1), both("name", "house3", 2)],
            Some(MultiStrategy::Intersect),
        ),
        Query::lookup("w:7"),
        Query::select_range("word", Value::from("ho"), Value::from("mo")).filter_value(
            "hp",
            CmpOp::Le,
            Value::Int(115),
        ),
    ];
    for delegation in [true, false] {
        let mut twins = Twins::new(delegation);
        let from = twins.engines[0].random_peer();
        assert_eq!(twins.engines[1].random_peer(), from);
        for q in &plans {
            let rows = twins.run(q, from);
            assert!(rows.contains("object: Object"), "{q:?} answers rows: {rows}");
        }
        // The swapped join, from the peer whose partition the cost model
        // samples `word` at.
        let join = Query::join_scan("word", Some("tag"), 1);
        let part = twins.engines[0].network().partition_of(&keys::attr_scan_prefix("word"));
        let [from, other] =
            twins.engines.each_mut().map(|e| e.network_mut().partition_member(part));
        assert_eq!(from, other);
        let from = from.expect("a member");
        let explain = Session::new(&mut twins.engines[0], from).explain(&join).expect("plans");
        assert!(explain.contains("build side swapped"), "{explain}");
        let rows = twins.run(&join, from);
        assert!(rows.contains("oid: \"t:"), "the tag side's objects: {rows}");
    }
}

/// The rows of `q` from `from`, each object built at once.
fn built(e: &mut SimilarityEngine, q: &Query, from: PeerId) -> (Vec<PlanRow>, Vec<Object>, u64) {
    let res = Session::new(e, from).run(q).expect("a valid plan");
    let objects = res.rows.iter().map(PlanRow::object).collect();
    (res.rows, objects, res.stats.traffic.messages)
}

/// A filter on another attribute than the one its input matched keeps the
/// rows whose eagerly built object has a value that passes, and only them.
#[test]
fn a_filter_on_another_attribute_gives_the_rows_the_eager_objects_give() {
    for delegation in [true, false] {
        let [mut a, mut b] = Twins::new(delegation).engines;
        let from = a.random_peer();
        b.random_peer();
        let input = Query::select_range("word", Value::from("ho"), Value::from("mo"));
        let (rows, objects, _) = built(&mut a, &input, from);
        let passes = |o: &Object| o.get("hp").and_then(Value::as_int).is_some_and(|hp| hp <= 115);
        let want: Vec<PlanRow> =
            rows.into_iter().zip(&objects).filter(|(_, o)| passes(o)).map(|(r, _)| r).collect();
        assert!(!want.is_empty() && want.len() < objects.len(), "the filter keeps some rows");
        let filtered = input.filter_value("hp", CmpOp::Le, Value::Int(115));
        let got = Session::new(&mut b, from).run(&filtered).expect("a valid plan").rows;
        assert_eq!(format!("{got:?}"), eager(want));
    }
}

/// A join over a selection pairs every string value of the left attribute
/// on each input row's eagerly built object, in the object's order, and
/// answers what a join seeded with those pairs answers.
#[test]
fn a_join_over_rows_gives_the_rows_the_eager_objects_give() {
    for delegation in [true, false] {
        let [mut a, mut b] = Twins::new(delegation).engines;
        let from = a.random_peer();
        b.random_peer();
        let input = Query::select_range("word", Value::from("ho"), Value::from("hz"));
        let over = input.clone().sim_join("name", Some("word"), 1);
        let prepared = Session::new(&mut a, from).prepare(&over).expect("plans");
        let PlanNode::SimJoin { spec, .. } = prepared.plan() else { panic!("a join") };
        let opts = JoinOptions {
            strategy: spec.strategy.expect("resolved"),
            left_limit: spec.left_limit.expect("resolved"),
            window: spec.window.expect("resolved"),
        };
        let (rows, objects, input_messages) = built(&mut a, &input, from);
        let pairs: Vec<(String, String)> = rows
            .iter()
            .zip(&objects)
            .flat_map(|(r, o)| {
                let names = o.fields.iter().filter(|(attr, _)| attr.as_str() == "name");
                names.filter_map(|(_, v)| Some((r.oid.clone(), v.as_str()?.to_string())))
            })
            .collect();
        assert!(pairs.len() > 1, "the input rows have names");
        let mut join = JoinTask::with_left(pairs, Some("word"), 1, from, &opts);
        let join_messages = a.run_task(&mut join).traffic.messages;
        let want: Vec<owned::PlanRow> = join
            .take_pairs()
            .into_iter()
            .map(|p| owned::PlanRow {
                object: p.right.object(),
                oid: p.right.oid,
                attr: Some(p.right.attr.as_str().to_string()),
                value: Value::Str(p.right.matched),
                score: Some(p.right.distance as f64),
                left: Some((p.left_oid, p.left_value)),
                bindings: Vec::new(),
            })
            .collect();
        assert!(!want.is_empty(), "the join pairs");
        let got = Session::new(&mut b, from).run_prepared(&prepared);
        assert_eq!(format!("{:?}", got.rows), format!("{want:?}"));
        assert_eq!(got.stats.traffic.messages, input_messages + join_messages);
    }
}
