//! Quickstart: build a small P-Grid network, publish a few rows vertically,
//! and run the three kinds of similarity queries from the paper.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sqo::core::{EngineBuilder, Rank, Strategy};
use sqo::plan::{Query, Session};
use sqo::storage::{Row, Value};

fn main() {
    // A tiny car relation, decomposed into (oid, attr, value) triples and
    // published into a 64-peer P-Grid (each triple is indexed by oid, by
    // attribute#value, by value, and by every q-gram of its string values).
    let rows = vec![
        Row::new("car:1", vec![("name", Value::from("BMW 320d")), ("hp", Value::from(190))]),
        Row::new("car:2", vec![("name", Value::from("BMW 330i")), ("hp", Value::from(258))]),
        Row::new("car:3", vec![("name", Value::from("BWM 320d")), ("hp", Value::from(190))]), // typo!
        Row::new("car:4", vec![("name", Value::from("Audi A4")), ("hp", Value::from(204))]),
        Row::new("car:5", vec![("name", Value::from("VW Golf")), ("hp", Value::from(130))]),
    ];
    let mut engine = EngineBuilder::new().peers(64).q(2).seed(7).build_with_rows(&rows);
    println!(
        "network: {} peers, {} partitions, {} stored postings\n",
        engine.network().peer_count(),
        engine.network().partition_count(),
        engine.network().total_stored_items()
    );

    // 1. Instance-level similarity: find names within edit distance 2 of
    //    "BMW 320d" — catches the transposed "BWM 320d" (two substitutions)
    //    via shared q-grams.
    //    Every query runs through a `Session` opened at an access peer.
    let from = engine.random_peer();
    let q = Query::similar("BMW 320d", Some("name"), 2).strategy(Strategy::QGrams);
    let res = Session::new(&mut engine, from).run(&q).expect("valid query");
    println!("similar(name ~ 'BMW 320d', d=2) from {from}:");
    for m in &res.rows {
        let distance = m.score.expect("a similarity row has a distance");
        println!("  {} -> {:?} (distance {distance})", m.oid, m.value.to_string());
    }
    println!(
        "  cost: {} messages, {} bytes, {} candidates\n",
        res.stats.traffic.messages, res.stats.traffic.bytes, res.stats.candidates
    );

    // 2. Top-N: the 3 most powerful cars (Algorithm 4, MAX ranking, range
    //    queries with density estimation).
    let from = engine.random_peer();
    let q = Query::top_n_numeric("hp", 3, Rank::Max);
    let top = Session::new(&mut engine, from).run(&q).expect("valid query");
    println!("top-3 by hp:");
    for item in &top.rows {
        // A row carries its object as a handle; `object()` builds it.
        let object = item.object();
        println!("  {} hp={} ({:?})", item.oid, item.value, object.get("name").unwrap());
    }
    println!(
        "  cost: {} messages in {} enlargement rounds\n",
        top.stats.traffic.messages, top.stats.rounds
    );

    // 3. The same similarity query through VQL.
    let from = engine.random_peer();
    let out = sqo::vql::run(
        &mut engine,
        from,
        "SELECT ?n,?h WHERE { (?o,name,?n) (?o,hp,?h) FILTER (dist(?n,'BMW 320d') < 3) } \
         ORDER BY ?h DESC",
        &sqo::vql::ExecOptions::default(),
    )
    .expect("valid query");
    println!("VQL: SELECT ?n,?h WHERE {{ ... dist(?n,'BMW 320d') < 3 }}:");
    for row in &out.rows {
        println!("  {:?}", row);
    }
    println!("  cost: {} messages", out.stats.traffic.messages);
}
