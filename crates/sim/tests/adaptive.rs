//! Pinned properties of the AIMD join window (`JoinWindow::Auto`):
//!
//! * on an **idle single-client** run the window only ever grows (the
//!   controller ramps to fill idle capacity and never backs off),
//! * under **16-client contention** the controller observes queue time
//!   and performs multiplicative back-offs,
//! * the window **never exceeds the configured ceiling**,
//! * and adaptivity never changes join *results* — only their timing.
//!
//! These are properties of the controller dynamics, not latency
//! snapshots: they hold for any latency model the simulator runs.

use sqo_core::{EngineBuilder, JoinOptions, JoinTask, JoinWindow, SimilarityEngine, Strategy};
use sqo_datasets::{bible_words, string_rows};
use sqo_plan::{Query, Session};
use sqo_sim::{install, run_driver, Arrival, DriverConfig, LatencyModel, QueryKind, SimConfig};

fn engine(words: &[String], peers: usize, seed: u64) -> SimilarityEngine {
    let rows = string_rows("word", words, "w");
    EngineBuilder::new().peers(peers).q(2).seed(seed).build_with_rows(&rows)
}

fn sim_cfg() -> SimConfig {
    SimConfig { latency: LatencyModel::Constant { us: 1_000 }, ..SimConfig::default() }
}

/// Drive one auto-window join to completion on an otherwise idle network
/// and return (window trace, stats).
fn idle_join(max: usize, left_limit: usize) -> (Vec<usize>, sqo_core::QueryStats) {
    let words = bible_words(500, 11);
    let mut e = engine(&words, 48, 1);
    install(&mut e, sim_cfg());
    let from = e.random_peer();
    let opts = JoinOptions {
        strategy: Strategy::QGrams,
        left_limit: Some(left_limit),
        window: JoinWindow::Auto { max },
    };
    let mut task = JoinTask::new("word", Some("word"), 1, from, &opts);
    let stats = e.run_task(&mut task);
    let trace = task.window_trace().expect("auto window has a trace").to_vec();
    (trace, stats)
}

#[test]
fn idle_run_grows_monotonically_and_never_shrinks() {
    let (trace, stats) = idle_join(16, 12);
    assert!(
        trace.windows(2).all(|w| w[1] >= w[0]),
        "idle trace must be monotone nondecreasing: {trace:?}"
    );
    assert!(
        *trace.last().expect("non-empty") > 1,
        "an idle network must let the window grow past the serial loop: {trace:?}"
    );
    assert_eq!(stats.join_window_shrinks, 0, "no congestion, no back-off");
    assert_eq!(
        stats.join_window_peak,
        *trace.iter().max().expect("non-empty"),
        "stats peak mirrors the trace"
    );
}

#[test]
fn window_never_exceeds_the_ceiling() {
    for max in [2, 4, 8] {
        let (trace, stats) = idle_join(max, 16);
        assert!(trace.iter().all(|&w| w <= max), "ceiling {max} violated by trace {trace:?}");
        assert!(stats.join_window_peak <= max);
    }
}

#[test]
fn contention_forces_multiplicative_backoff() {
    let words = bible_words(600, 11);
    // Twelve peers: the joins share the replicas of this world's few
    // partitions holding data. (On 48, the surplus members dealt to them by
    // load absorb 16 clients' probes without a queue to back off from.)
    let mut e = engine(&words, 12, 2);
    let max = 4;
    let cfg = DriverConfig {
        clients: 16,
        queries_per_client: 3,
        // Tight open-loop arrivals: joins overlap heavily and queue
        // behind each other's probe traffic. The left side runs well past
        // the ceiling, so the window still governs spawning long after
        // slow start — the regime where congested completions must be
        // able to throttle the join.
        arrival: Arrival::Poisson { mean_interarrival_us: 2_000 },
        mix: vec![QueryKind::SimJoin {
            d: 1,
            left_limit: Some(24),
            window: JoinWindow::Auto { max },
        }],
        sim: sim_cfg(),
        ..DriverConfig::default()
    };
    let report = run_driver(&mut e, "word", &words, &cfg);
    assert_eq!(report.queries_run, 48);
    assert!(
        report.total.join_window_shrinks > 0,
        "16 overlapping clients must trigger at least one back-off \
         (peak {}, shrinks {})",
        report.total.join_window_peak,
        report.total.join_window_shrinks
    );
    assert!(report.total.join_window_peak <= max, "ceiling holds under contention");
}

#[test]
fn adaptivity_never_changes_join_results() {
    let words = bible_words(400, 11);
    let pairs_with = |window: JoinWindow| {
        let mut e = engine(&words, 48, 3);
        install(&mut e, sim_cfg());
        let from = e.random_peer();
        let join = Query::join_scan("word", Some("word"), 1)
            .strategy(Strategy::QGrams)
            .left_limit(Some(10))
            .window_mode(window);
        let res = Session::new(&mut e, from).run(&join).expect("a self-join plans");
        let mut pairs: Vec<(String, String, String)> = res
            .rows
            .into_iter()
            .map(|p| {
                let (left_oid, left_value) = p.left.expect("a join row");
                (left_oid, left_value, p.value.to_string())
            })
            .collect();
        pairs.sort_unstable();
        pairs
    };
    let fixed = pairs_with(JoinWindow::Fixed(1));
    let auto = pairs_with(JoinWindow::auto());
    assert!(!fixed.is_empty(), "self-join must produce pairs");
    assert_eq!(fixed, auto, "the window mode must never change join results");
}

#[test]
fn fixed_windows_report_no_adaptive_stats() {
    let words = bible_words(300, 11);
    let mut e = engine(&words, 32, 4);
    install(&mut e, sim_cfg());
    let from = e.random_peer();
    let opts = JoinOptions {
        strategy: Strategy::QGrams,
        left_limit: Some(6),
        window: JoinWindow::Fixed(4),
    };
    let mut task = JoinTask::new("word", Some("word"), 1, from, &opts);
    let stats = e.run_task(&mut task);
    assert!(task.window_trace().is_none(), "fixed windows have no trace");
    assert_eq!(stats.join_window_peak, 0);
    assert_eq!(stats.join_window_shrinks, 0);
}
