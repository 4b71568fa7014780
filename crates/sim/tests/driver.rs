//! Integration tests for the concurrent-workload driver: determinism,
//! latency-model coverage, contention, and churn termination.

use sqo_core::EngineBuilder;
use sqo_datasets::{bible_words, string_rows};
use sqo_sim::{
    run_driver, run_driver_until, Arrival, DriverConfig, DriverReport, FaultEvent, FaultKind,
    FaultPlan, LatencyModel, QueryKind, SimConfig,
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

/// The message `run_driver_until` refuses `cfg` over `strings` with, on a
/// fresh engine it must leave untouched: no clock installed.
fn refusal(strings: &[String], cfg: &DriverConfig) -> &'static str {
    let mut e = engine(&bible_words(200, 3), 16, 1);
    let got = run_driver_until(&mut e, "word", strings, cfg, u64::MAX).err();
    assert!(e.network_mut().event_sink_mut().is_none(), "the refusal installed no clock");
    got.expect("the inputs are refused")
}

/// One fault at 10 ms into the default workload, which is still running.
fn faulting(kind: FaultKind) -> DriverConfig {
    DriverConfig {
        faults: FaultPlan { events: vec![FaultEvent { at_us: 10_000, kind }] },
        ..DriverConfig::default()
    }
}

#[test]
fn an_empty_string_pool_is_refused() {
    assert_eq!(refusal(&[], &DriverConfig::default()), "driver needs a non-empty string pool");
}

#[test]
fn an_empty_workload_is_refused() {
    let words = bible_words(200, 3);
    for cfg in [
        DriverConfig { clients: 0, ..DriverConfig::default() },
        DriverConfig { queries_per_client: 0, ..DriverConfig::default() },
    ] {
        assert_eq!(refusal(&words, &cfg), "empty workload");
    }
}

#[test]
fn an_empty_mix_is_refused() {
    let cfg = DriverConfig { mix: Vec::new(), ..DriverConfig::default() };
    assert_eq!(refusal(&bible_words(200, 3), &cfg), "empty query mix");
}

#[test]
fn explicit_arrivals_without_an_offset_are_refused() {
    let cfg = DriverConfig {
        arrival: Arrival::Explicit { offsets_us: Vec::new() },
        ..DriverConfig::default()
    };
    assert_eq!(refusal(&bible_words(200, 3), &cfg), "explicit arrivals need at least one offset");
}

/// A wipe of a partition past the network's count used to index out of
/// bounds when the fault fired, mid-run.
#[test]
fn a_wipe_of_a_partition_the_network_lacks_is_refused() {
    let words = bible_words(200, 3);
    let parts = engine(&words, 16, 1).network().partition_count();
    let cfg = faulting(FaultKind::WipePartition { part: parts });
    assert_eq!(refusal(&words, &cfg), "fault plan wipes a partition the network does not have");
}

/// A crash fraction outside `[0, 1]`, or NaN, used to fail an assert in
/// the network when the wave fired, mid-run.
#[test]
fn a_crash_fraction_outside_the_unit_interval_is_refused() {
    let words = bible_words(200, 3);
    for fraction in [1.5, -0.1, f64::NAN] {
        let cfg = faulting(FaultKind::Crash { fraction });
        assert_eq!(
            refusal(&words, &cfg),
            "fault plan crashes or revives a fraction outside [0, 1]",
            "{fraction}"
        );
    }
}

#[test]
fn a_revive_fraction_outside_the_unit_interval_is_refused() {
    let words = bible_words(200, 3);
    for fraction in [2.0, f64::NAN] {
        let cfg = faulting(FaultKind::Revive { fraction });
        assert_eq!(
            refusal(&words, &cfg),
            "fault plan crashes or revives a fraction outside [0, 1]",
            "{fraction}"
        );
    }
}

/// `run_driver` keeps its signature: it panics with the check's message
/// before the run starts.
#[test]
#[should_panic(expected = "fault plan wipes a partition the network does not have")]
fn run_driver_panics_with_the_refusal() {
    let words = bible_words(200, 3);
    let mut e = engine(&words, 16, 1);
    let cfg = faulting(FaultKind::WipePartition { part: usize::MAX });
    run_driver(&mut e, "word", &words, &cfg);
}
