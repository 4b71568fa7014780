//! Acceptance tests for step-interleaved execution: arrival-order
//! symmetry (early queries see later arrivals and vice versa), pipelined
//! joins (bounded outstanding-request window), deterministic interleaving,
//! and load-aware reference selection.

use sqo_core::{EngineBuilder, JoinWindow, SimilarityEngine, Strategy};
use sqo_datasets::{bible_words, string_rows};
use sqo_plan::{Query, Session};
use sqo_sim::{
    install, run_driver, Arrival, DriverConfig, DriverReport, LatencyModel, QueryKind, SimConfig,
};

fn engine(words: &[String], peers: usize, replication: usize) -> SimilarityEngine {
    let rows = string_rows("word", words, "w");
    EngineBuilder::new().peers(peers).replication(replication).q(2).seed(5).build_with_rows(&rows)
}

fn reports_equal(a: &DriverReport, b: &DriverReport) -> bool {
    a.queries_run == b.queries_run
        && a.virtual_span_us == b.virtual_span_us
        && a.overall == b.overall
        && a.per_operator == b.per_operator
        && a.total.traffic == b.total.traffic
        && a.total.sim == b.total.sim
}

fn sim_cfg() -> SimConfig {
    SimConfig { latency: LatencyModel::Constant { us: 1_000 }, ..SimConfig::default() }
}

/// The symmetry the refactor exists for: a long query that arrives *first*
/// must still feel the contention of queries that arrive *while it is in
/// flight*. Under the old atomic-execution driver this was impossible —
/// earlier-simulated queries never saw later arrivals. Here, client 0's
/// join (arrival t=0) gets strictly slower when clients 1–3 start similar
/// queries mid-join, even though every disruptor arrives after it.
#[test]
fn early_query_sees_later_arrivals() {
    let words = bible_words(500, 11);
    let run = |clients: usize| {
        // Sixteen peers: few enough that the disruptors' probes land on
        // the peers the join is waiting for. (On 48, the surplus members
        // dealt to this world's few partitions holding data leave every
        // query its own replicas, and nothing queues.)
        let mut e = engine(&words, 16, 1);
        let cfg = DriverConfig {
            clients,
            queries_per_client: 1,
            // Client 0 at t=0; disruptors stagger in shortly after, well
            // inside the join's multi-hundred-ms window.
            arrival: Arrival::Explicit { offsets_us: vec![0, 3_000, 6_000, 9_000] },
            // kind index is (issued + client) % len: client 0 runs the
            // join, clients 1..4 run similar queries.
            mix: vec![
                QueryKind::SimJoin { d: 1, left_limit: Some(8), window: JoinWindow::Fixed(1) },
                QueryKind::Similar { d: 1 },
                QueryKind::Similar { d: 1 },
                QueryKind::Similar { d: 1 },
            ],
            sim: sim_cfg(),
            ..DriverConfig::default()
        };
        run_driver(&mut e, "word", &words, &cfg)
    };
    let alone = run(1);
    let contended = run(4);
    let join_of = |r: &DriverReport| {
        r.per_operator.iter().find(|o| o.operator == "simjoin").expect("join ran").summary
    };
    let (a, c) = (join_of(&alone), join_of(&contended));
    assert_eq!(a.count, 1);
    assert_eq!(c.count, 1);
    assert!(
        c.p50_us > a.p50_us,
        "the t=0 join must queue behind later arrivals: alone {} vs contended {}",
        a.p50_us,
        c.p50_us
    );
}

/// The ISSUE's literal property: permuting which client gets which arrival
/// offset must not change which queries contend. With a single-string pool
/// and a single-kind mix, queries are distinguished only by their arrival
/// times — so any permutation of the offset assignment yields a
/// byte-identical report.
#[test]
fn permuting_arrival_offsets_preserves_the_report() {
    let words = bible_words(400, 13);
    let pool = vec![words[17].clone()]; // one query string for everyone
    let run = |offsets: Vec<u64>| {
        let mut e = engine(&words, 48, 1);
        let cfg = DriverConfig {
            clients: 4,
            queries_per_client: 1,
            arrival: Arrival::Explicit { offsets_us: offsets },
            mix: vec![QueryKind::Similar { d: 1 }],
            sim: sim_cfg(),
            ..DriverConfig::default()
        };
        run_driver(&mut e, "word", &pool, &cfg)
    };
    let a = run(vec![0, 2_000, 4_000, 6_000]);
    let b = run(vec![6_000, 0, 4_000, 2_000]);
    let c = run(vec![4_000, 6_000, 2_000, 0]);
    assert!(reports_equal(&a, &b), "offset permutation changed the report");
    assert!(reports_equal(&a, &c), "offset permutation changed the report");
    assert_eq!(a.queries_run, 4);
    assert!(a.overall.p50_us > 0, "simulated queries take time");
}

/// The pipelined-join window: identical pairs for every window, and a
/// strict critical-path (p50) reduction once selections overlap.
#[test]
fn join_window_reduces_p50_without_changing_pairs() {
    let words = bible_words(500, 11);
    // Result equality, directly on the engine with a sink installed.
    let join = |window: JoinWindow| {
        let mut e = engine(&words, 48, 1);
        install(&mut e, sim_cfg());
        let from = e.random_peer();
        let q = Query::join_scan("word", Some("word"), 1)
            .strategy(Strategy::QGrams)
            .left_limit(Some(8))
            .window_mode(window);
        let res = Session::new(&mut e, from).run(&q).expect("a self-join plans");
        let mut pairs: Vec<(String, String)> = res
            .rows
            .into_iter()
            .map(|p| (p.left.expect("a join row").1, p.value.to_string()))
            .collect();
        pairs.sort_unstable();
        (pairs, res.stats.sim.expect("sink installed"))
    };
    let (pairs1, sim1) = join(JoinWindow::Fixed(1));
    let (pairs8, sim8) = join(JoinWindow::Fixed(8));
    assert_eq!(pairs1, pairs8, "the window must never change join results");
    assert!(!pairs1.is_empty(), "self-join must produce pairs");
    assert!(
        sim8.elapsed_us < sim1.elapsed_us,
        "window=8 must overlap selections: {} vs {}",
        sim8.elapsed_us,
        sim1.elapsed_us
    );

    // And through the driver: p50 over several joins drops strictly.
    let drive = |window: JoinWindow| {
        let mut e = engine(&words, 48, 1);
        let cfg = DriverConfig {
            clients: 1,
            queries_per_client: 4,
            arrival: Arrival::Closed { think_us: 1_000 },
            mix: vec![QueryKind::SimJoin { d: 1, left_limit: Some(8), window }],
            sim: sim_cfg(),
            ..DriverConfig::default()
        };
        let report = run_driver(&mut e, "word", &words, &cfg);
        report.per_operator.iter().find(|o| o.operator == "simjoin").expect("joins ran").summary
    };
    let serial = drive(JoinWindow::Fixed(1));
    let pipelined = drive(JoinWindow::Fixed(8));
    assert_eq!(serial.count, 4);
    assert_eq!(pipelined.count, 4);
    assert!(
        pipelined.p50_us < serial.p50_us,
        "join window=8 must cut p50: {} vs {}",
        pipelined.p50_us,
        serial.p50_us
    );
}

/// Interleaved execution stays a pure function of its inputs: two runs
/// with in-flight overlap, windowed joins and explicit offsets produce
/// byte-identical reports.
#[test]
fn interleaved_execution_is_deterministic() {
    let words = bible_words(400, 19);
    let run = || {
        let mut e = engine(&words, 64, 2);
        let cfg = DriverConfig {
            clients: 6,
            queries_per_client: 2,
            arrival: Arrival::Explicit { offsets_us: vec![0, 1_500, 3_000, 4_500, 6_000, 7_500] },
            mix: vec![
                QueryKind::Similar { d: 1 },
                QueryKind::SimJoin { d: 1, left_limit: Some(6), window: JoinWindow::Fixed(4) },
                QueryKind::TopN { n: 5, d_max: 3 },
                QueryKind::Vql { d: 1 },
            ],
            sim: SimConfig {
                latency: LatencyModel::LogNormal { median_us: 1_200.0, sigma: 0.7 },
                ..SimConfig::default()
            },
            ..DriverConfig::default()
        };
        run_driver(&mut e, "word", &words, &cfg)
    };
    let a = run();
    let b = run();
    assert!(reports_equal(&a, &b), "interleaved runs must be byte-identical");
    assert_eq!(a.queries_run, 12);
    assert!(a.overall.p50_us > 0);
}

/// Load-aware reference selection (prefer the replica with the shortest
/// service backlog) must not change any answer, and under a contended
/// workload with structural replicas it sheds queue time against
/// uniform-random selection.
///
/// The uniform baseline is a recorded constant: the builder's A/B switch
/// that forced uniform selection under a sink is gone. It was measured on
/// the last commit that had the switch (PR 13, `be2c2a5`) by running this
/// exact workload with the switch on and printing `total.sim.queue_us` /
/// `total.matches`: 251 805 µs queued, 97 matches (load-aware on the same
/// commit: 50 901 µs, 97 matches).
#[test]
fn load_aware_selection_flattens_queueing_without_changing_answers() {
    const UNIFORM_QUEUE_US: u64 = 251_805;
    const MATCHES: usize = 97;
    let words = bible_words(500, 23);
    let rows = string_rows("word", &words, "w");
    let mut e = EngineBuilder::new().peers(64).replication(4).q(2).seed(9).build_with_rows(&rows);
    let cfg = DriverConfig {
        clients: 12,
        queries_per_client: 3,
        arrival: Arrival::Poisson { mean_interarrival_us: 2_000 },
        mix: vec![QueryKind::Similar { d: 1 }, QueryKind::TopN { n: 5, d_max: 3 }],
        sim: sim_cfg(),
        ..DriverConfig::default()
    };
    let loaded = run_driver(&mut e, "word", &words, &cfg);
    assert_eq!(loaded.queries_run, 36);
    assert_eq!(loaded.total.matches, MATCHES, "replica choice must never change answers");
    let lq = loaded.total.sim.unwrap().queue_us;
    assert!(
        lq < UNIFORM_QUEUE_US,
        "shortest-backlog selection should shed queueing: load-aware {lq} vs uniform \
         {UNIFORM_QUEUE_US}"
    );
}
