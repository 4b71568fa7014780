//! Observability acceptance: `explain_analyze()` renders the plan tree
//! with observed per-node counters (pinned by a golden snapshot on a
//! constant-latency simulation), and a traced driver run exports valid
//! Chrome `trace_event` JSON with per-peer tracks and per-query spans.

use sqo::core::{EngineBuilder, SimilarityEngine};
use sqo::obs::{validate_json, TraceCollector};
use sqo::overlay::peer::PeerId;
use sqo::plan::{Query, Session};
use sqo::sim::{install, run_driver, Arrival, DriverConfig, LatencyModel, QueryKind, SimConfig};
use sqo::storage::{Row, Value};

fn market_rows() -> Vec<Row> {
    let cars: &[(&str, i64, &str)] = &[
        ("car:1", 30_000, "mueller"),
        ("car:2", 70_000, "mueller"),
        ("car:3", 45_000, "schmidt"),
        ("car:4", 20_000, "wagner"),
        ("car:5", 48_000, "becker"),
    ];
    let dealers: &[(&str, &str)] =
        &[("dlr:1", "mueler"), ("dlr:2", "schmidt"), ("dlr:3", "wagners"), ("dlr:4", "unrelated")];
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
        dealers
            .iter()
            .map(|(oid, name)| Row::new(*oid, [("name".to_string(), Value::from(*name))])),
    );
    rows
}

fn market_engine() -> SimilarityEngine {
    EngineBuilder::new().peers(16).q(2).seed(5).build_with_rows(&market_rows())
}

#[test]
fn explain_analyze_annotates_every_plan_node() {
    let mut engine = market_engine();
    install(
        &mut engine,
        SimConfig { latency: LatencyModel::Constant { us: 1_000 }, ..SimConfig::default() },
    );
    let from = PeerId(0);
    let mut session = Session::new(&mut engine, from);
    let q = Query::select_range("price", Value::Int(0), Value::Int(50_000))
        .sim_join("dealer", Some("name"), 1)
        .top_n(3);
    let rendered = session.explain_analyze(&q).expect("plans");
    // Every node carries an observation line, and the observed totals
    // follow the tree.
    let obs_lines = rendered.lines().filter(|l| l.trim_start().starts_with("~ rows=")).count();
    assert_eq!(obs_lines, 3, "one observation per plan node:\n{rendered}");
    assert!(rendered.contains("\n-- observed:"), "{rendered}");
    println!("{rendered}");
}

#[test]
fn explain_analyze_golden_snapshot() {
    let mut engine = market_engine();
    install(
        &mut engine,
        SimConfig { latency: LatencyModel::Constant { us: 1_000 }, ..SimConfig::default() },
    );
    let from = PeerId(0);
    let mut session = Session::new(&mut engine, from);
    let q = Query::select_range("price", Value::Int(0), Value::Int(50_000))
        .sim_join("dealer", Some("name"), 1)
        .top_n(3);
    let rendered = session.explain_analyze(&q).expect("plans");
    let expected = "TopN n=3 by=score [local rank + truncate]
~ rows=3 time=0us msgs=0 bytes=0 probes=0
└─ SimJoin ln=dealer rn=name d=1 window=1 left_limit=∞ strategy=qgrams [left from input rows, per-left Similar]
   ~ rows=3 time=10540us msgs=10 bytes=1020 probes=22 cmp=3 queue=0us service=540us blame[link=10000us queue=0us service=540us stall=0us]
   └─ SelectRange attr=price lo=0 hi=50000 [order-preserving shower scan]
      ~ rows=4 time=16us msgs=0 bytes=0 probes=0 queue=0us service=16us blame[link=0us queue=0us service=16us stall=0us]
-- observed: rows=3 msgs=10 bytes=1020 probes=22 time=10556us";
    assert_eq!(rendered, expected);
    // The per-stage blame rollup is exhaustive: each stage's four blame
    // parts sum to exactly the stage's elapsed virtual time.
    assert!(rendered.contains("time=10540us") && rendered.contains("link=10000us"));
}

#[test]
fn traced_driver_run_exports_loadable_chrome_trace() {
    let words: Vec<String> =
        ["mueller", "mueler", "schmidt", "schmitt", "wagner", "wagners", "becker", "beckers"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let rows: Vec<Row> = words
        .iter()
        .enumerate()
        .map(|(i, w)| Row::new(format!("w:{i}"), [("word".to_string(), Value::from(w.as_str()))]))
        .collect();
    let mut engine = EngineBuilder::new().peers(16).q(2).seed(9).build_with_rows(&rows);
    let collector = TraceCollector::shared();
    engine.network_mut().set_trace_sink(TraceCollector::as_sink(&collector));
    let cfg = DriverConfig {
        clients: 2,
        queries_per_client: 3,
        arrival: Arrival::Poisson { mean_interarrival_us: 3_000 },
        mix: vec![QueryKind::Similar { d: 1 }, QueryKind::TopN { n: 2, d_max: 2 }],
        sim: SimConfig {
            latency: LatencyModel::Uniform { min_us: 200, max_us: 1_500 },
            ..SimConfig::default()
        },
        seed: 3,
        ..DriverConfig::default()
    };
    let report = run_driver(&mut engine, "word", &words, &cfg);
    assert_eq!(report.queries_run, 6);

    let c = collector.borrow();
    let chrome = c.to_chrome_trace();
    validate_json(&chrome).expect("Chrome trace_event JSON must be valid");
    assert!(chrome.contains("\"name\":\"peer "), "per-peer tracks");
    assert!(chrome.contains("\"name\":\"query "), "per-query tracks");
    assert!(chrome.contains("\"ph\":\"X\""), "complete spans");
    // The per-query flame view renders for every attributed query.
    for q in c.query_ids() {
        let flame = c.flame(q);
        assert!(flame.starts_with(&format!("flame: query {q}")), "{flame}");
        assert!(flame.lines().count() > 1, "flame has spans for query {q}:\n{flame}");
    }
}

/// Under partition loss the observation lines surface the degradation
/// machinery: legs retried under the engine's `DegradePolicy`, legs that
/// exhausted the budget, and the answered/addressed completeness
/// shortfall. On a healthy run (the golden above) none of these
/// annotations appear.
#[test]
fn explain_analyze_annotates_degraded_stages() {
    let mut engine = EngineBuilder::new()
        .peers(16)
        .q(2)
        .seed(5)
        // Delegation off: one leg per gram key, so the tight deadline
        // below finds un-issued legs to forfeit.
        .delegation(false)
        .degrade(sqo::core::DegradePolicy {
            retries: 1,
            backoff_us: 100,
            // The deadline lands after the gram-probe round (1ms constant
            // latency) but before the candidate fetches: the fetch fan is
            // forfeited wholesale, exercising `gave_up`.
            deadline_us: Some(1_050),
        })
        .build_with_rows(&market_rows());
    install(
        &mut engine,
        SimConfig { latency: LatencyModel::Constant { us: 1_000 }, ..SimConfig::default() },
    );
    // First render: wipe the upper half of the key space. The gram
    // probes still answer (their postings live in the lower half for
    // this seed) and produce a candidate, but the deadline expires
    // during the probe round, so the candidate-fetch fan is forfeited.
    let partitions = engine.network().partition_count();
    for part in partitions / 2..partitions {
        engine.network_mut().fail_partition(part);
    }
    let q = Query::similar("mueller", Some("name"), 1);
    let deadline_cut = {
        let mut session = Session::new(&mut engine, PeerId(0));
        session.explain_analyze(&q).expect("degraded plans still execute")
    };
    assert!(
        deadline_cut.contains(" gave_up="),
        "forfeited fetch fan must be annotated:\n{deadline_cut}"
    );
    assert!(
        deadline_cut.contains(" partial="),
        "completeness loss must be annotated:\n{deadline_cut}"
    );

    // Second render: also wipe partitions 1–3, which sit on every route
    // toward the gram postings. Now each probe leg fails, burns its
    // retry, and is counted addressed-but-unanswered.
    for part in 1..4 {
        engine.network_mut().fail_partition(part);
    }
    let route_failed = {
        let mut session = Session::new(&mut engine, PeerId(0));
        session.explain_analyze(&q).expect("degraded plans still execute")
    };
    assert!(route_failed.contains(" retries="), "retried legs must be annotated:\n{route_failed}");
    assert!(
        route_failed.contains(" partial=0/"),
        "fully silenced probes must show zero answered legs:\n{route_failed}"
    );
}
