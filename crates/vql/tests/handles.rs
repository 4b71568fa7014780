//! A VQL subject's rows carry their objects as handles, which VQL builds
//! into the objects it binds when the subject's plan finishes. Those are
//! the objects the plan fetched: a publication after the plan's last fetch
//! and before its rows are read does not reach them.
//!
//! Twin engines, each with a trace sink, run the same query. One publishes
//! rows that give every object another field just before the step on which
//! the subject's plan finishes — its fetches are done, its rows not yet
//! read; the other, the reference, publishes them once the query is over,
//! every object built before. The answers, `QueryStats` and trace events
//! must be the same; with delegation on and off.

use sqo_core::{EngineBuilder, ExecStep, SimilarityEngine, StepOutcome};
use sqo_overlay::{TraceEvent, TraceSink};
use sqo_storage::triple::{Row, Value};
use sqo_vql::{ExecOptions, VqlTask};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Default)]
struct Recorded(Vec<TraceEvent>);

impl TraceSink for Recorded {
    fn record(&mut self, ev: TraceEvent) {
        self.0.push(ev);
    }
}

/// A task that publishes [`more`] before its `at`-th step.
struct Hooked {
    task: VqlTask,
    steps: usize,
    at: usize,
}

impl ExecStep for Hooked {
    fn step(&mut self, engine: &mut SimilarityEngine, at_us: u64) -> StepOutcome {
        if self.steps == self.at {
            engine.publish_rows(&more());
        }
        self.steps += 1;
        self.task.step(engine, at_us)
    }
}

const WORDS: [&str; 6] = ["house", "horse", "mouse", "hause", "haus", "hose"];

fn world() -> Vec<Row> {
    (0..60)
        .map(|i| {
            Row::new(
                format!("w:{i}"),
                [("word", Value::from(WORDS[i % WORDS.len()])), ("hp", Value::Int(100 + i as i64))],
            )
        })
        .collect()
}

/// Every object gains a field.
fn more() -> Vec<Row> {
    (0..60).map(|i| Row::new(format!("w:{i}"), [("extra", Value::from("later"))])).collect()
}

/// `text` on twins, the first publishing before the step its subject's
/// plan finishes on, the reference after the query: answer, stats, trace.
fn twins(text: &str, delegation: bool) -> String {
    let build = || EngineBuilder::new().peers(24).seed(9).q(2).delegation(delegation);
    let prepare = || VqlTask::prepare(text, sqo_overlay::PeerId(3), &ExecOptions::default());
    // A single subject: its plan finishes on the step before the last.
    let steps = {
        let mut counted =
            Hooked { task: prepare().expect("a valid query"), steps: 0, at: usize::MAX };
        build().build_with_rows(&world()).run_task(&mut counted);
        counted.steps
    };
    let [hooked, reference] = [steps - 2, usize::MAX].map(|at| {
        let mut e = build().build_with_rows(&world());
        let trace = Rc::new(RefCell::new(Recorded::default()));
        e.network_mut().set_trace_sink(trace.clone());
        let mut task = Hooked { task: prepare().expect("a valid query"), steps: 0, at };
        e.run_task(&mut task);
        let out = task.task.take_output().expect("done").expect("answers");
        if at == usize::MAX {
            e.publish_rows(&more());
        }
        let events = format!("{:?}", std::mem::take(&mut trace.borrow_mut().0));
        (format!("{:?} {:?}", out.rows, out.stats), events)
    });
    assert!(!reference.1.is_empty(), "{text} is traced");
    assert_eq!(hooked, reference, "{text}, delegation {delegation}");
    hooked.0
}

/// Queries that bind every attribute of the objects their access path
/// fetched — by similarity and by range — answer the objects as fetched.
#[test]
fn objects_published_to_after_their_fetch_bind_as_fetched() {
    let queries = [
        "SELECT ?o,?a,?v WHERE { (?o,word,?w) (?o,?a,?v) FILTER (dist(?w,'hoose') < 2) }",
        "SELECT ?o,?a,?v WHERE { (?o,hp,?h) (?o,?a,?v) FILTER (?h <= 105) }",
    ];
    for text in queries {
        for delegation in [true, false] {
            let answer = twins(text, delegation);
            assert!(answer.contains("Str(\"hp\")"), "{text} binds fields: {answer}");
            assert!(!answer.contains("extra"), "{text}: {answer}");
        }
    }
}
