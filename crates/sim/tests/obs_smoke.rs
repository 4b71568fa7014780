//! Observability acceptance: trace exports are deterministic for seeded
//! runs, valid JSON, carry the per-peer / per-query track structure — and
//! tracing is **zero-cost for results**: the driver report of a traced run
//! is byte-identical to the untraced one.

use sqo_core::{BrokerConfig, EngineBuilder, JoinWindow, SimilarityEngine};
use sqo_datasets::{bible_words, string_rows};
use sqo_obs::{
    parse_json, to_json, to_json_pretty, validate_json, BlameProfiler, FanoutSink, SloMonitor,
    SloSpec, TraceCollector,
};
use sqo_overlay::{ReplicationPolicy, TraceTrack};
use sqo_plan::{Query, Session};
use sqo_sim::{
    install, run_driver, Arrival, DriverConfig, DriverReport, FaultEvent, FaultKind, FaultPlan,
    LatencyModel, LossModel, QueryKind, SimConfig,
};
use std::collections::BTreeSet;

fn engine(words: &[String]) -> SimilarityEngine {
    let rows = string_rows("word", words, "w");
    EngineBuilder::new().peers(32).q(2).seed(11).build_with_rows(&rows)
}

fn cfg() -> DriverConfig {
    DriverConfig {
        clients: 3,
        queries_per_client: 4,
        arrival: Arrival::Poisson { mean_interarrival_us: 4_000 },
        mix: vec![
            QueryKind::Similar { d: 1 },
            QueryKind::SimJoin { d: 1, left_limit: Some(4), window: sqo_core::JoinWindow::auto() },
            QueryKind::TopN { n: 3, d_max: 2 },
        ],
        sim: SimConfig {
            latency: LatencyModel::Uniform { min_us: 300, max_us: 2_500 },
            ..SimConfig::default()
        },
        cache: BrokerConfig::enabled(),
        seed: 41,
        ..DriverConfig::default()
    }
}

/// One traced run: the report plus both export renderings.
fn traced_run(words: &[String]) -> (DriverReport, String, String) {
    let mut engine = engine(words);
    let collector = TraceCollector::shared();
    engine.network_mut().set_trace_sink(TraceCollector::as_sink(&collector));
    let report = run_driver(&mut engine, "word", words, &cfg());
    let c = collector.borrow();
    (report, c.to_jsonl(), c.to_chrome_trace())
}

#[test]
fn trace_exports_are_deterministic_and_valid() {
    let words = bible_words(250, 5);
    let (_, jsonl_a, chrome_a) = traced_run(&words);
    let (_, jsonl_b, chrome_b) = traced_run(&words);
    assert_eq!(jsonl_a, jsonl_b, "JSONL export must be byte-identical across seeded runs");
    assert_eq!(chrome_a, chrome_b, "Chrome export must be byte-identical across seeded runs");

    assert!(!jsonl_a.is_empty());
    for line in jsonl_a.lines() {
        validate_json(line).unwrap_or_else(|e| panic!("invalid JSONL line {line}: {e}"));
    }
    validate_json(&chrome_a).expect("Chrome trace_event export must be valid JSON");

    // Track structure: per-peer occupancy tracks and per-query spans.
    assert!(chrome_a.contains("\"thread_name\""), "thread metadata present");
    assert!(chrome_a.contains("\"name\":\"peer "), "per-peer tracks present");
    assert!(chrome_a.contains("\"name\":\"query "), "per-query tracks present");
    assert!(jsonl_a.contains("\"cat\":\"query\""), "per-query spans present");
    assert!(jsonl_a.contains("\"cat\":\"net\""), "per-peer service spans present");
    assert!(jsonl_a.contains("\"cat\":\"exec\""), "charged-step spans present");
}

#[test]
fn tracing_leaves_the_driver_report_byte_identical() {
    let words = bible_words(250, 5);
    let (traced, _, _) = traced_run(&words);
    let mut plain_engine = engine(&words);
    let plain = run_driver(&mut plain_engine, "word", &words, &cfg());
    assert_eq!(
        to_json(&traced),
        to_json(&plain),
        "a trace sink must not perturb results, stats, or metrics"
    );
}

/// One similarity query on a simulated clock, with the trace sink set
/// before the clock is installed or after it; the collector's JSONL.
fn one_query_trace(sink_first: bool) -> String {
    let words = bible_words(120, 5);
    let mut e = engine(&words);
    let collector = TraceCollector::shared();
    if sink_first {
        e.network_mut().set_trace_sink(TraceCollector::as_sink(&collector));
    }
    install(&mut e, cfg().sim);
    if !sink_first {
        e.network_mut().set_trace_sink(TraceCollector::as_sink(&collector));
    }
    let from = e.random_peer();
    Session::new(&mut e, from).run(&Query::similar(words[3].as_str(), Some("word"), 1)).unwrap();
    let c = collector.borrow();
    assert!(
        c.events().iter().any(|ev| matches!(ev.track, TraceTrack::Peer(_))),
        "the clock's per-peer spans reach the sink (set {} the clock)",
        if sink_first { "before" } else { "after" }
    );
    c.to_jsonl()
}

/// A sink set after the clock is installed receives the clock's per-peer
/// spans, and the stream is the one a sink set before it receives.
#[test]
fn a_sink_set_after_install_receives_the_per_peer_spans() {
    assert_eq!(one_query_trace(false), one_query_trace(true));
}

/// A mix covering every operator kind the driver can issue.
fn all_operators_cfg(clients: usize) -> DriverConfig {
    DriverConfig {
        clients,
        queries_per_client: 5,
        arrival: Arrival::Poisson { mean_interarrival_us: 4_000 },
        mix: vec![
            QueryKind::Similar { d: 1 },
            QueryKind::SimJoin { d: 1, left_limit: Some(4), window: JoinWindow::auto() },
            QueryKind::TopN { n: 3, d_max: 2 },
            QueryKind::Vql { d: 1 },
            QueryKind::Pipeline { d: 1, n: 3, left_limit: Some(4), window: JoinWindow::auto() },
        ],
        sim: SimConfig {
            latency: LatencyModel::Uniform { min_us: 300, max_us: 2_500 },
            ..SimConfig::default()
        },
        cache: BrokerConfig::enabled(),
        seed: 41,
        ..DriverConfig::default()
    }
}

/// The acceptance pin: for **every operator**, at 1 and at 16 clients,
/// the blame tree accounts for 100% of each query's measured critical
/// path — `net + queue + service + stall == elapsed`, exactly, per query.
#[test]
fn blame_tree_accounts_for_the_full_critical_path() {
    let words = bible_words(250, 5);
    for clients in [1usize, 16] {
        let mut e = engine(&words);
        let profiler = BlameProfiler::shared(2);
        e.network_mut().set_trace_sink(BlameProfiler::as_sink(&profiler));
        let report = run_driver(&mut e, "word", &words, &all_operators_cfg(clients));
        let p = profiler.borrow();
        assert_eq!(p.queries().len(), report.queries_run, "every query profiled");
        for q in p.queries() {
            let sum = q.net_us + q.queue_us + q.service_us + q.stall_us;
            assert_eq!(
                sum, q.elapsed_us,
                "clients={clients} qid={} op={}: blame parts {sum} != elapsed {}",
                q.qid, q.operator, q.elapsed_us
            );
        }
        let ops: Vec<&str> = p.per_operator().map(|o| o.operator.as_str()).collect();
        for op in ["similar", "simjoin", "topn", "vql", "pipeline"] {
            assert!(ops.contains(&op), "clients={clients}: operator {op} missing from {ops:?}");
        }
        // The decomposition is meaningful, not degenerate: network time
        // dominates somewhere, and at 16 clients receivers queue.
        let total_net: u64 = p.queries().iter().map(|q| q.net_us).sum();
        assert!(total_net > 0, "clients={clients}: link latency must be blamed");
        if clients == 16 {
            let total_queue: u64 = p.queries().iter().map(|q| q.queue_us).sum();
            assert!(total_queue > 0, "16 contending clients must produce queue blame");
        }
        assert!(!p.render().is_empty());
    }
}

/// Zero-overhead pin for the new sinks: a run with a blame profiler AND
/// an SLO monitor attached produces a byte-identical driver report.
#[test]
fn blame_and_slo_sinks_leave_the_driver_report_byte_identical() {
    let words = bible_words(250, 5);
    let mut plain_engine = engine(&words);
    let plain = run_driver(&mut plain_engine, "word", &words, &cfg());

    let mut e = engine(&words);
    let profiler = BlameProfiler::shared(3);
    let monitor = SloMonitor::shared(
        vec![SloSpec::operator("similar").p99_max_us(50_000).min_hit_rate(0.01)],
        100_000,
    );
    let fan =
        FanoutSink::shared(vec![BlameProfiler::as_sink(&profiler), SloMonitor::as_sink(&monitor)]);
    e.network_mut().set_trace_sink(fan);
    let observed = run_driver(&mut e, "word", &words, &cfg());
    assert_eq!(
        to_json(&observed),
        to_json(&plain),
        "blame profiling and SLO monitoring must not perturb the report"
    );
    assert!(!profiler.borrow().queries().is_empty(), "the profiler saw the workload");
    assert!(monitor.borrow().report().verdicts.iter().any(|v| v.evaluated > 0));
}

/// The SLO watchdog flags an impossible latency budget and emits burn
/// instants into its inner sink on the ok→violating edge.
#[test]
fn slo_monitor_flags_violations_and_emits_burns() {
    let words = bible_words(250, 5);
    let mut e = engine(&words);
    let collector = TraceCollector::shared();
    let monitor = std::rc::Rc::new(std::cell::RefCell::new(
        SloMonitor::new(
            vec![
                SloSpec::operator("similar").p99_max_us(1), // unmeetable
                SloSpec::operator("topn").p99_max_us(60_000_000), // unmissable
            ],
            100_000,
        )
        .with_inner(TraceCollector::as_sink(&collector)),
    ));
    e.network_mut().set_trace_sink(SloMonitor::as_sink(&monitor));
    let _ = run_driver(&mut e, "word", &words, &cfg());
    let m = monitor.borrow();
    assert!(m.burns() > 0, "an unmeetable p99 budget must burn");
    let report = m.report();
    let sim = report.verdicts.iter().find(|v| v.spec.operator == "similar").expect("similar");
    assert!(!sim.ok, "1us p99 budget must be violated");
    let topn = report.verdicts.iter().find(|v| v.spec.operator == "topn").expect("topn");
    assert!(topn.ok, "lavish budget must pass: {topn:?}");
    assert!(report.render().contains("[FAIL]") && report.render().contains("[PASS]"));
    // Burn instants were forwarded into the inner collector on the
    // control track, alongside the events the monitor passed through.
    let c = collector.borrow();
    assert!(c.events().iter().any(|ev| ev.name == "slo_burn"), "burn instants recorded");
    assert!(c.events().iter().any(|ev| ev.cat == "query"), "stream forwarded to inner sink");
}

#[test]
fn registry_reflects_the_workload() {
    let words = bible_words(250, 5);
    let mut e = engine(&words);
    let report = run_driver(&mut e, "word", &words, &cfg());
    let m = &report.metrics;
    assert_eq!(m.counter("run.queries") as usize, report.queries_run);
    assert_eq!(m.counter("traffic.messages"), report.total.traffic.messages);
    let h = m.histogram("latency.query_us").expect("query latency histogram");
    assert_eq!(h.count() as usize, report.queries_run);
    assert_eq!(
        m.gauge("run.throughput_qps"),
        Some(report.throughput_qps),
        "gauges mirror the report fields"
    );
    // Cache-on workload: the broker's lifetime counters land under cache.*.
    assert!(m.counter("cache.hits") + m.counter("cache.misses") > 0);
    // Per-operator latency histograms exist for every mixed-in operator.
    for op in &report.per_operator {
        let name = format!("latency.{}_us", op.operator);
        let oh = m.histogram(&name).unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(oh.count() as usize, op.summary.count);
    }
    // The registry's JSON rendering is valid JSON.
    validate_json(&to_json(m)).expect("registry JSON");
}

#[test]
fn flame_view_renders_per_query() {
    let words = bible_words(200, 5);
    let mut e = engine(&words);
    let collector = TraceCollector::shared();
    e.network_mut().set_trace_sink(TraceCollector::as_sink(&collector));
    let _ = run_driver(&mut e, "word", &words, &cfg());
    let c = collector.borrow();
    let qids = c.query_ids();
    assert!(!qids.is_empty(), "driver attributes trace queries");
    let flame = c.flame(qids[0]);
    assert!(flame.contains("query"), "flame view roots at the query span:\n{flame}");
}

/// A report's pretty JSON (the `BENCH_*.json` form) reads back as the
/// same value as its compact JSON, and its empty containers stay `[]`.
#[test]
fn pretty_report_reads_back_as_the_compact_one() {
    let words = bible_words(250, 5);
    let mut e = engine(&words);
    let report = run_driver(&mut e, "word", &words, &cfg());
    let (compact, pretty) = (to_json(&report), to_json_pretty(&report));
    assert!(pretty.lines().count() > 100, "one value per line");
    assert_eq!(parse_json(&pretty).unwrap(), parse_json(&compact).unwrap());
    assert!(report.diagnostics.is_empty() && pretty.contains("\"diagnostics\": []"));
}

/// The "Metric names" section of `docs/TRACING.md`: its registry rows as
/// (name, kind) and its Control-track instant names.
fn documented_names() -> (BTreeSet<(String, String)>, BTreeSet<String>) {
    let doc = include_str!("../../../docs/TRACING.md");
    let section = doc.split("\n## Metric names\n").nth(1).expect("a Metric names section");
    let section = section.split("\n## ").next().unwrap_or(section);
    let (registry, control) =
        section.split_once("\n### Control-track instants\n").expect("a Control-track table");
    // A table row starts with its name in backticks; the next cell follows.
    let rows = |table: &str| -> Vec<(String, String)> {
        table
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.split_once('`'))
            .map(|(name, rest)| {
                (name.to_string(), rest.split('|').nth(1).unwrap_or("").trim().to_string())
            })
            .collect()
    };
    let registry: BTreeSet<_> = rows(registry).into_iter().collect();
    let control = rows(control).into_iter().map(|(name, _)| name).collect();
    (registry, control)
}

/// A registry name with its operator label replaced by `<op>`, as the
/// doc writes it.
fn op_template(name: &str) -> String {
    for op in QueryKind::LABELS {
        if let Some(rest) = name.strip_prefix(&format!("op.{op}.")) {
            return format!("op.<op>.{rest}");
        }
        if name == format!("latency.{op}_us") {
            return "latency.<op>_us".to_string();
        }
    }
    name.to_string()
}

/// The metric-name schema: a run that reaches every emitter
/// — a simulated clock, a broker, repair after a crash, a loss spike that
/// clears, adaptive joins, every operator, an SLO that burns — emits
/// exactly the registry names and Control-track instants the doc lists.
#[test]
fn emitted_names_are_the_documented_names() {
    let words = bible_words(250, 5);
    let rows = string_rows("word", &words, "w");
    let mut e = EngineBuilder::new().peers(48).replication(4).q(2).seed(11).build_with_rows(&rows);
    let collector = TraceCollector::shared();
    let monitor = std::rc::Rc::new(std::cell::RefCell::new(
        SloMonitor::new(vec![SloSpec::operator("similar").p99_max_us(1)], 100_000)
            .with_inner(TraceCollector::as_sink(&collector)),
    ));
    e.network_mut().set_trace_sink(SloMonitor::as_sink(&monitor));
    let spike = LossModel { p: 0.2, timeout_us: 1_000, max_retries: 4 };
    let cfg = DriverConfig {
        faults: FaultPlan {
            events: vec![
                FaultEvent { at_us: 20_000, kind: FaultKind::Crash { fraction: 0.2 } },
                FaultEvent {
                    at_us: 30_000,
                    kind: FaultKind::LossSpike { loss: spike, duration_us: 10_000 },
                },
            ],
        },
        // The crash leaves 10 to 17 alive members in each of the world's
        // three loaded partitions, so a target of 12 recruits.
        repair: Some(ReplicationPolicy { min_alive: 12 }),
        ..all_operators_cfg(4)
    };
    let report = run_driver(&mut e, "word", &words, &cfg);
    let m = &report.metrics;

    let kinds = [
        m.counters().map(|(n, _)| (n, "counter")).collect::<Vec<_>>(),
        m.gauges().map(|(n, _)| (n, "gauge")).collect(),
        m.histograms().map(|(n, _)| (n, "histogram")).collect(),
    ];
    let emitted: BTreeSet<(String, String)> =
        kinds.concat().into_iter().map(|(n, k)| (op_template(n), k.to_string())).collect();
    let emitted_control: BTreeSet<String> = collector
        .borrow()
        .events()
        .iter()
        .filter(|ev| ev.track == TraceTrack::Control)
        .map(|ev| ev.name.to_string())
        .collect();

    let (documented, documented_control) = documented_names();
    let missing: Vec<_> = documented.difference(&emitted).collect();
    let undocumented: Vec<_> = emitted.difference(&documented).collect();
    assert!(missing.is_empty(), "documented but not emitted: {missing:?}");
    assert!(undocumented.is_empty(), "emitted but not documented: {undocumented:?}");
    assert_eq!(emitted_control, documented_control, "Control-track instants");
    // `<op>` stands for every label: each operator ran and was measured.
    for op in QueryKind::LABELS {
        assert!(m.histogram(&format!("latency.{op}_us")).is_some(), "{op} did not run");
    }
}
