//! Integration tests for the concurrent-workload driver: determinism,
//! latency-model coverage, contention, and churn termination.

use sqo_core::EngineBuilder;
use sqo_datasets::{bible_words, string_rows};
use sqo_sim::{
    run_driver, Arrival, DriverConfig, DriverReport, FaultEvent, FaultKind, FaultPlan,
    LatencyModel, QueryKind, SimConfig,
};

fn engine(words: &[String], peers: usize, replication: usize) -> sqo_core::SimilarityEngine {
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

/// Two runs with identical inputs produce byte-identical latency reports —
/// the fixed-seed determinism the whole measurement methodology rests on.
#[test]
fn driver_is_deterministic_per_seed() {
    let words = bible_words(400, 11);
    for model in [
        LatencyModel::Constant { us: 800 },
        LatencyModel::Uniform { min_us: 200, max_us: 3_000 },
        LatencyModel::LogNormal { median_us: 1_500.0, sigma: 0.8 },
        LatencyModel::PerLink { min_us: 300, max_us: 9_000, salt: 4 },
    ] {
        let run = || {
            let mut e = engine(&words, 48, 1);
            let cfg = DriverConfig {
                clients: 3,
                queries_per_client: 3,
                sim: SimConfig { latency: model, ..SimConfig::default() },
                ..DriverConfig::default()
            };
            run_driver(&mut e, "word", &words, &cfg)
        };
        let (a, b) = (run(), run());
        assert!(reports_equal(&a, &b), "nondeterministic report under {model:?}: {a:?} vs {b:?}");
        assert_eq!(a.queries_run, 9);
        assert!(a.overall.p99_us >= a.overall.p50_us);
        assert!(a.overall.p50_us > 0, "simulated queries must take time");
        assert!(a.throughput_qps > 0.0);
    }
}

/// Changing only the seed changes the trace (sanity check that the
/// determinism test is not comparing constants).
#[test]
fn different_seeds_differ() {
    let words = bible_words(400, 11);
    let run = |seed: u64| {
        let mut e = engine(&words, 48, 1);
        let cfg = DriverConfig {
            seed,
            sim: SimConfig {
                latency: LatencyModel::Uniform { min_us: 100, max_us: 10_000 },
                ..SimConfig::default()
            },
            ..DriverConfig::default()
        };
        run_driver(&mut e, "word", &words, &cfg)
    };
    let a = run(1);
    let b = run(2);
    assert!(!reports_equal(&a, &b), "seeds 1 and 2 produced identical reports");
}

/// The VQL operator path reports simulated latency too.
#[test]
fn vql_queries_are_timed() {
    let words = bible_words(300, 13);
    let mut e = engine(&words, 32, 1);
    let cfg = DriverConfig {
        clients: 2,
        queries_per_client: 4,
        mix: vec![QueryKind::Vql { d: 1 }],
        ..DriverConfig::default()
    };
    let report = run_driver(&mut e, "word", &words, &cfg);
    assert_eq!(report.queries_run, 8);
    assert_eq!(report.per_operator.len(), 1);
    assert_eq!(report.per_operator[0].operator, "vql");
    assert!(report.per_operator[0].summary.p50_us > 0);
}

/// Peers dying mid-workload: every query still terminates (the run
/// completes), the report stays deterministic, and the failure shows up in
/// the traffic accounting rather than as a hang or panic.
#[test]
fn churn_mid_workload_terminates_deterministically() {
    let words = bible_words(500, 17);
    let run = || {
        // Replication 3 keeps most data reachable; refs_per_level default.
        let rows = string_rows("word", &words, "w");
        let mut e =
            EngineBuilder::new().peers(64).replication(3).q(2).seed(6).build_with_rows(&rows);
        let cfg = DriverConfig {
            clients: 5,
            queries_per_client: 4,
            arrival: Arrival::Poisson { mean_interarrival_us: 5_000 },
            faults: FaultPlan {
                events: vec![
                    FaultEvent { at_us: 8_000, kind: FaultKind::Crash { fraction: 0.15 } },
                    FaultEvent { at_us: 20_000, kind: FaultKind::Crash { fraction: 0.15 } },
                ],
            },
            ..DriverConfig::default()
        };
        run_driver(&mut e, "word", &words, &cfg)
    };
    let a = run();
    let b = run();
    assert!(reports_equal(&a, &b), "churn runs must stay deterministic");
    assert_eq!(a.queries_run, 20, "every query must terminate under churn");
    assert!(a.overall.max_us < 60_000_000, "no runaway virtual time");
}
