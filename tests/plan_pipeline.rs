//! Acceptance: a multi-operator pipeline (select → sim_join → top_n) that
//! is expressible ONLY through the plan API runs end-to-end — synchronously
//! against an oracle, and interleaved on the event-driven simulator — and
//! `explain()` prints its plan.

use sqo::core::{EngineBuilder, JoinWindow};
use sqo::plan::{Query, RankBy, Session};
use sqo::sim::{run_driver, Arrival, DriverConfig, LatencyModel, QueryKind, SimConfig};
use sqo::storage::{Row, Value};
use sqo::strsim::edit::levenshtein;

/// A car market: cars carry a price and a dealer name; dealers carry a
/// (possibly misspelled) registry name.
fn market_rows() -> Vec<Row> {
    let cars: &[(&str, i64, &str)] = &[
        ("car:1", 30_000, "mueller"),
        ("car:2", 70_000, "mueller"),
        ("car:3", 45_000, "schmidt"),
        ("car:4", 20_000, "wagner"),
        ("car:5", 48_000, "becker"),
    ];
    let dealers: &[(&str, &str)] = &[
        ("dlr:1", "mueler"),  // 1 edit from mueller
        ("dlr:2", "schmidt"), // exact
        ("dlr:3", "wagners"), // 1 edit from wagner
        ("dlr:4", "unrelated"),
        ("dlr:5", "becker"), // exact
    ];
    let mut rows: Vec<Row> = cars
        .iter()
        .map(|(oid, price, dealer)| {
            Row::new(
                *oid,
                [
                    ("price".to_string(), Value::from(*price)),
                    ("dealer".to_string(), Value::from(*dealer)),
                ],
            )
        })
        .collect();
    rows.extend(
        dealers.iter().map(|(oid, name)| Row::new(*oid, [("dlrname", Value::from(*name))])),
    );
    rows
}

fn pipeline() -> Query {
    Query::select_range("price", Value::Int(0), Value::Int(50_000))
        .sim_join("dealer", Some("dlrname"), 1)
        .top_n(4)
}

#[test]
fn pipeline_matches_brute_force_oracle_and_explains() {
    let mut engine = EngineBuilder::new().peers(48).q(2).seed(5).build_with_rows(&market_rows());
    let from = engine.random_peer();
    let mut session = Session::new(&mut engine, from);

    let prepared = session.prepare(&pipeline()).expect("plannable");
    let explained = prepared.explain();
    assert!(explained.contains("TopN n=4 by=score"), "{explained}");
    assert!(explained.contains("SimJoin ln=dealer rn=dlrname d=1"), "{explained}");
    assert!(explained.contains("SelectRange attr=price lo=0 hi=50000"), "{explained}");

    let result = session.run_prepared(&prepared);

    // Oracle: cheap cars' dealer names joined against dealer-registry names
    // within distance 1, every pair scored by its edit distance.
    let cheap_dealers = ["mueller", "schmidt", "wagner", "becker"];
    let registry = ["mueler", "schmidt", "wagners", "unrelated", "becker"];
    let mut expected: Vec<(String, usize)> = Vec::new();
    for left in cheap_dealers {
        for right in registry {
            let d = levenshtein(left, right);
            if d <= 1 {
                expected.push((right.to_string(), d));
            }
        }
    }
    assert_eq!(expected.len(), 4, "oracle sanity: exactly four joinable pairs");

    let mut got: Vec<(String, usize)> = result
        .rows
        .iter()
        .map(|r| (r.value.as_str().expect("string match").to_string(), r.score.unwrap() as usize))
        .collect();
    got.sort();
    expected.sort();
    assert_eq!(got, expected, "pipeline must find exactly the oracle pairs");
    // Join provenance survives the top-n stage.
    assert!(result.rows.iter().all(|r| r.left.is_some()));
    // Scores are sorted ascending (top_n ranks by distance).
    let scores: Vec<f64> = result.rows.iter().map(|r| r.score.unwrap()).collect();
    assert!(scores.windows(2).all(|w| w[0] <= w[1]));
    // The expensive car's dealer ("mueller" via car:2 only) must not leak:
    // every left oid is a cheap car.
    assert!(result.rows.iter().all(|r| r.left.as_ref().unwrap().0 != "car:2"));
    // Distributed work happened and was accounted.
    assert!(result.stats.traffic.messages > 0);
}

#[test]
fn pipeline_runs_on_the_event_driven_simulator() {
    let words: Vec<String> = sqo::datasets::bible_words(200, 3);
    let rows = sqo::datasets::string_rows("word", &words, "w");
    let mut engine = EngineBuilder::new().peers(48).q(2).seed(11).build_with_rows(&rows);
    let cfg = DriverConfig {
        clients: 3,
        queries_per_client: 3,
        arrival: Arrival::Poisson { mean_interarrival_us: 5_000 },
        mix: vec![
            QueryKind::Pipeline { d: 1, n: 5, left_limit: Some(5), window: JoinWindow::Fixed(2) },
            QueryKind::Similar { d: 1 },
        ],
        sim: SimConfig { latency: LatencyModel::Constant { us: 700 }, ..SimConfig::default() },
        seed: 3,
        ..DriverConfig::default()
    };
    let report = run_driver(&mut engine, "word", &words, &cfg);
    let pipeline = report
        .per_operator
        .iter()
        .find(|op| op.operator == "pipeline")
        .expect("pipeline family present");
    assert!(pipeline.summary.count > 0);
    assert!(pipeline.messages > 0);
}

#[test]
fn value_ranked_topn_over_selection() {
    // A second plan-only composition: rank a selection's rows by value.
    let mut engine = EngineBuilder::new().peers(32).seed(9).build_with_rows(&market_rows());
    let from = engine.random_peer();
    let mut session = Session::new(&mut engine, from);
    let q = Query::select_all("price").top_n_by(2, RankBy::ValueDesc);
    let result = session.run(&q).expect("plannable");
    let prices: Vec<i64> = result.rows.iter().map(|r| r.value.as_int().unwrap()).collect();
    assert_eq!(prices, vec![70_000, 48_000]);
}
