//! The unified plan API end to end: prepare → explain → run, a
//! multi-operator pipeline (select → sim_join → top_n) compiled into one
//! plan, and the same prepared plan scheduled as one resumable task on the
//! event-driven simulator.
//!
//! ```text
//! cargo run --example pipeline
//! ```

use sqo::core::EngineBuilder;
use sqo::plan::{Query, Session};
use sqo::sim::{install, SimConfig};
use sqo::storage::{Row, Value};

fn main() {
    // A small car market: cars carry price + dealer name; the dealer
    // registry carries (sometimes misspelled) names.
    let mut rows = vec![
        Row::new("car:1", [("price", Value::from(30_000)), ("dealer", Value::from("mueller"))]),
        Row::new("car:2", [("price", Value::from(70_000)), ("dealer", Value::from("mueller"))]),
        Row::new("car:3", [("price", Value::from(45_000)), ("dealer", Value::from("schmidt"))]),
        Row::new("car:4", [("price", Value::from(20_000)), ("dealer", Value::from("wagner"))]),
    ];
    rows.extend([
        Row::new("dlr:1", [("dlrname", Value::from("mueler"))]), // typo'd registry entry
        Row::new("dlr:2", [("dlrname", Value::from("schmidt"))]),
        Row::new("dlr:3", [("dlrname", Value::from("wagners"))]),
        Row::new("dlr:4", [("dlrname", Value::from("unrelated"))]),
    ]);
    let mut engine = EngineBuilder::new().peers(64).q(2).seed(7).build_with_rows(&rows);
    // Virtual clock so the run reports simulated latency, not just messages.
    install(&mut engine, SimConfig::default());
    let from = engine.random_peer();

    // select(price <= 50k) → sim_join(dealer ~ dlrname, d=1) → top_n(5):
    // affordable cars, their dealers fuzzily resolved against the registry,
    // best pairs first. Only expressible through the plan API.
    let query = Query::select_range("price", Value::Int(0), Value::Int(50_000))
        .sim_join("dealer", Some("dlrname"), 1)
        .top_n(5);

    let mut session = Session::new(&mut engine, from);
    let prepared = session.prepare(&query).expect("plannable");
    println!("plan:\n{}\n", prepared.explain());

    let result = session.run_prepared(&prepared);
    println!("pairs (best first):");
    for row in &result.rows {
        let (car, dealer) = row.left.as_ref().expect("join provenance");
        println!(
            "  {car} dealer {dealer:?} ~ registry {:?} (distance {})",
            row.value.as_str().unwrap_or_default(),
            row.score.unwrap_or_default()
        );
    }
    let s = result.stats;
    println!(
        "\ncost: {} messages, {} probes, {} candidates, {} comparisons",
        s.traffic.messages, s.probes, s.candidates, s.edit_comparisons
    );
    if let Some(sim) = s.sim {
        println!("simulated latency: {:.2} ms end-to-end", sim.elapsed_us as f64 / 1e3);
    }
}
