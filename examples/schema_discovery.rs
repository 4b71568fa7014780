//! Schema discovery on heterogeneous public data.
//!
//! §3 of the paper motivates vertical storage with *self-describing* data:
//! no global dictionary, every user can extend the schema — so attribute
//! names drift ("dlrid", "dlrjd", "dealerid", …). This example publishes
//! rows from several "communities" with divergent spellings and uses
//! schema-level similarity (Algorithm 2 with an empty attribute, plus the
//! schema-level similarity join of §5) to homogenize them.
//!
//! ```text
//! cargo run --example schema_discovery
//! ```

use sqo::core::{BrokerConfig, EngineBuilder, Strategy};
use sqo::plan::{Query, Session};
use sqo::storage::{Row, Value};

fn main() {
    // Three communities publish dealers with drifting schemas.
    let mut rows = Vec::new();
    for i in 0..12 {
        rows.push(Row::new(
            format!("eu:dlr:{i}"),
            vec![
                ("dlrid".to_string(), Value::from(format!("D{i:03}"))),
                ("name".to_string(), Value::from(format!("dealer eu {i}"))),
            ],
        ));
    }
    for i in 0..9 {
        rows.push(Row::new(
            format!("us:dlr:{i}"),
            vec![
                ("dlrjd".to_string(), Value::from(format!("D1{i:02}"))), // typo'd id attr
                ("name".to_string(), Value::from(format!("dealer us {i}"))),
            ],
        ));
    }
    for i in 0..7 {
        rows.push(Row::new(
            format!("as:dlr:{i}"),
            vec![
                ("dealerid".to_string(), Value::from(format!("D2{i:02}"))), // long form
                ("name".to_string(), Value::from(format!("dealer as {i}"))),
            ],
        ));
    }
    // A config row naming the canonical attribute (drives the schema join).
    rows.push(Row::new("cfg:1", vec![("wanted", Value::from("dlrid"))]));

    // Hot-path services on: the repeated schema-level probes (the d-sweep
    // re-probes the same gram keys) are served from the initiator's
    // posting cache after the first pass.
    let mut engine = EngineBuilder::new()
        .peers(64)
        .q(2)
        .seed(3)
        .cache_config(BrokerConfig::enabled())
        .build_with_rows(&rows);

    // One access point for the whole session — the initiator-side posting
    // cache accumulates its working set here.
    let from = engine.random_peer();
    let mut session = Session::new(&mut engine, from);

    // --- 1. Which attribute names are ≈ 'dlrid'? (schema-level Similar) ---
    println!("attribute names within edit distance d of 'dlrid':");
    for d in 1..=4 {
        let q = Query::similar("dlrid", None, d).strategy(Strategy::QGrams);
        let res = session.run(&q).expect("valid query");
        let mut names: Vec<(String, usize)> = res
            .rows
            .iter()
            .map(|m| (m.attr.clone().unwrap_or_default(), m.score.unwrap_or_default() as usize))
            .collect();
        names.sort();
        names.dedup();
        let shown: Vec<String> = names.iter().map(|(n, dist)| format!("{n} (d={dist})")).collect();
        println!(
            "  d<={d}: {:<46} [{} msgs, {} candidates]",
            shown.join(", "),
            res.stats.traffic.messages,
            res.stats.candidates
        );
    }

    // --- 2. Schema-level similarity join (Algorithm 3 with rn empty) -----
    // Join the canonical name from the config row against attribute names.
    let join = Query::join_scan("wanted", None, 3) // schema level
        .strategy(Strategy::QGrams)
        .left_limit(None)
        .window(1);
    let res = session.run(&join).expect("valid query");
    println!("\nschema join 'wanted' ~ attribute names (d<=3):");
    let mut seen = std::collections::BTreeSet::new();
    for p in &res.rows {
        let attr = p.attr.clone().unwrap_or_default();
        if seen.insert(attr.clone()) {
            let (_, left_value) = p.left.as_ref().expect("a join row");
            let distance = p.score.unwrap_or_default();
            println!("  {left_value} ≈ {attr} (distance {distance}) e.g. object {}", p.oid);
        }
    }
    println!(
        "  [{} msgs total, {} pairs before dedup]",
        res.stats.traffic.messages,
        res.rows.len()
    );

    // --- 3. Count coverage: how many dealers are reachable once we accept
    //        the discovered aliases?
    let aliases: Vec<String> = seen.into_iter().collect();
    let mut total = 0;
    for alias in &aliases {
        total += session.run(&Query::select_all(alias)).expect("valid query").rows.len();
    }
    println!("\ncoverage: {total} dealer ids reachable via aliases {aliases:?} (28 published)");

    // --- 4. What did the hot-path services save? -------------------------
    let c = session.engine().broker_counters().expect("caching enabled above");
    println!(
        "\nsqo-cache: hit rate {:.1}% ({} hits / {} misses), {} probes coalesced, \
         ~{} overlay messages saved",
        c.hit_rate() * 100.0,
        c.cache_hits,
        c.cache_misses,
        c.probes_coalesced,
        c.messages_saved,
    );
}
