//! End-to-end acceptance for the deterministic fault-injection harness
//! (PR 10): seeded fault runs replay byte-identically, an empty fault
//! plan with a repair policy installed is indistinguishable from a run
//! without any fault machinery, repair activity is visible in both the
//! metric registry and the trace stream, sticky clients survive the death
//! of their entry peer, revivals restore crashed peers, and an initiator
//! the network does not hold is answered as a crashed one.

use sqo_core::{DegradePolicy, EngineBuilder, SimilarityEngine};
use sqo_datasets::{bible_words, string_rows};
use sqo_obs::to_json;
use sqo_overlay::{PeerId, ReplicationPolicy};
use sqo_plan::{Query, Session};
use sqo_sim::{
    run_driver, Arrival, DriverConfig, DriverReport, FaultEvent, FaultKind, FaultPlan,
    LatencyModel, RepairTotals, SimConfig, TraceCollector,
};

const PEERS: usize = 64;

fn engine(words: &[String]) -> SimilarityEngine {
    let rows = string_rows("word", words, "w");
    EngineBuilder::new()
        .peers(PEERS)
        .replication(4)
        .q(2)
        .seed(9)
        .degrade(DegradePolicy { retries: 2, backoff_us: 500, deadline_us: None })
        .build_with_rows(&rows)
}

fn base_cfg() -> DriverConfig {
    DriverConfig {
        clients: 4,
        queries_per_client: 6,
        arrival: Arrival::Poisson { mean_interarrival_us: 40_000 },
        sim: SimConfig {
            latency: LatencyModel::Uniform { min_us: 200, max_us: 2_000 },
            ..SimConfig::default()
        },
        seed: 29,
        ..DriverConfig::default()
    }
}

fn crash_waves() -> FaultPlan {
    FaultPlan::periodic(29, 300_000, 60_000, 0.08, 0.0)
}

#[test]
fn same_seed_fault_runs_replay_byte_identically() {
    let words = bible_words(350, 17);
    let run = || {
        let mut e = engine(&words);
        let cfg = DriverConfig {
            faults: crash_waves(),
            repair: Some(ReplicationPolicy { min_alive: 2 }),
            sticky_initiators: true,
            ..base_cfg()
        };
        run_driver(&mut e, "word", &words, &cfg)
    };
    let a = to_json(&run());
    let b = to_json(&run());
    assert_eq!(a, b, "same plan + same seed must serialize byte-identically");
}

#[test]
fn empty_fault_plan_with_repair_installed_changes_nothing() {
    let words = bible_words(350, 17);
    let run = |repair: Option<ReplicationPolicy>| {
        let mut e = engine(&words);
        let cfg = DriverConfig { faults: FaultPlan::default(), repair, ..base_cfg() };
        run_driver(&mut e, "word", &words, &cfg)
    };
    let plain = run(None);
    let armed = run(Some(ReplicationPolicy { min_alive: 2 }));

    // The armed run reports repair totals — all zero, nothing ever fired.
    assert_eq!(plain.repair, None);
    assert_eq!(armed.repair, Some(RepairTotals::default()));

    // Every measured surface of the two runs is identical.
    let view = |r: &DriverReport| {
        (
            to_json(&r.overall),
            to_json(&r.per_operator),
            to_json(&r.total),
            to_json(&r.phases),
            r.queries_run,
            r.virtual_span_us,
            r.diagnostics.clone(),
        )
    };
    assert_eq!(view(&plain), view(&armed), "zero-fault equivalence violated");
}

#[test]
fn repair_activity_is_visible_in_metrics_and_traces() {
    let words = bible_words(350, 17);
    let mut e = engine(&words);
    let collector = TraceCollector::shared();
    e.network_mut().set_trace_sink(TraceCollector::as_sink(&collector));
    // Keep every partition at the size its load dealt it: this world's
    // data sits on a few partitions of many members each, which the 8 %
    // waves never push below a floor of two.
    let net = e.network();
    let sizes = (0..net.partition_count()).map(|p| net.partition_members(p).len());
    let min_alive = sizes.filter(|n| *n > 0).min().expect("a partition holds the data");
    let cfg = DriverConfig {
        faults: crash_waves(),
        repair: Some(ReplicationPolicy { min_alive }),
        sticky_initiators: true,
        ..base_cfg()
    };
    let report = run_driver(&mut e, "word", &words, &cfg);

    let totals = report.repair.expect("repair totals when a policy is configured");
    assert!(totals.passes > 0, "crash waves must trigger repair passes");
    assert_eq!(report.metrics.counter("repair.passes"), totals.passes);
    assert_eq!(report.metrics.counter("repair.recruited"), totals.recruited);
    assert_eq!(report.metrics.counter("repair.bytes_copied"), totals.bytes_copied);

    let jsonl = collector.borrow().to_jsonl();
    assert!(jsonl.contains("\"fault\""), "fault events must appear in the trace");
    assert!(jsonl.contains("\"repair\""), "repair recruitment must be blame-tagged in the trace");
}

#[test]
fn sticky_clients_repin_when_their_entry_peer_dies() {
    let words = bible_words(350, 17);
    let run = |sticky: bool| {
        let mut e = engine(&words);
        let cfg = DriverConfig {
            // Heavy waves: ~5 peers die every 30ms of a 240ms horizon, so
            // some client's pinned entry peer dies mid-run.
            faults: FaultPlan::periodic(29, 240_000, 30_000, 0.08, 0.0),
            repair: Some(ReplicationPolicy { min_alive: 2 }),
            sticky_initiators: sticky,
            ..base_cfg()
        };
        run_driver(&mut e, "word", &words, &cfg)
    };
    let sticky = run(true);
    assert_eq!(sticky.queries_run, 24, "every query must still run");
    assert!(
        sticky.diagnostics.iter().any(|d| d.contains("re-pinned")),
        "a dead entry peer must be recorded as a re-pin diagnostic: {:?}",
        sticky.diagnostics
    );
    // Non-sticky arrivals draw a fresh alive peer each time — no re-pins.
    let roaming = run(false);
    assert!(roaming.diagnostics.iter().all(|d| !d.contains("re-pinned")));
}

#[test]
fn revive_events_restore_crashed_peers() {
    let words = bible_words(350, 17);
    let mut e = engine(&words);
    let cfg = DriverConfig {
        faults: FaultPlan {
            events: vec![
                FaultEvent { at_us: 50_000, kind: FaultKind::Crash { fraction: 0.3 } },
                FaultEvent { at_us: 120_000, kind: FaultKind::Revive { fraction: 1.0 } },
            ],
        },
        ..base_cfg()
    };
    let report = run_driver(&mut e, "word", &words, &cfg);
    assert_eq!(report.queries_run, 24);
    assert_eq!(
        e.network().alive_peers(),
        PEERS,
        "a full revival must bring every crashed peer back"
    );
}

/// A peer id past the network's last peer, and a peer of it that crashed.
const OUTSIDE: PeerId = PeerId(PEERS as u32 + 35);
const CRASHED: PeerId = PeerId(3);

/// What `ask` answers from [`OUTSIDE`] on one engine and from [`CRASHED`]
/// on its twin, printed: an id the network does not hold cannot ask, so
/// it is answered as a crashed initiator is, where the route once indexed
/// the peer table with it and panicked.
fn from_outside_and_crashed(ask: impl Fn(&mut SimilarityEngine, PeerId) -> String) -> [String; 2] {
    let words = bible_words(200, 17);
    let mut outside = engine(&words);
    let mut crashed = engine(&words);
    crashed.network_mut().fail_peer(CRASHED);
    [ask(&mut outside, OUTSIDE), ask(&mut crashed, CRASHED)]
}

fn run_plan(q: Query) -> [String; 2] {
    from_outside_and_crashed(|e, from| format!("{:?}", Session::new(e, from).run(&q)))
}

#[test]
fn a_similar_query_from_outside_the_network_is_a_dead_initiators() {
    let [outside, crashed] = run_plan(Query::similar("lord", Some("word"), 1));
    assert_eq!(outside, crashed);
}

#[test]
fn a_top_n_query_from_outside_the_network_is_a_dead_initiators() {
    let [outside, crashed] = run_plan(Query::top_n_similar(Some("word"), 3, "lord", 2));
    assert_eq!(outside, crashed);
}

#[test]
fn a_join_from_outside_the_network_is_a_dead_initiators() {
    let [outside, crashed] =
        run_plan(Query::join_scan("word", Some("word"), 1).left_limit(Some(4)));
    assert_eq!(outside, crashed);
}

#[test]
fn a_vql_query_from_outside_the_network_is_a_dead_initiators() {
    let text = "SELECT ?o WHERE { (?o,word,?v) FILTER (dist(?v,'lord') < 2) }";
    let options = sqo_vql::ExecOptions::default();
    let [outside, crashed] = from_outside_and_crashed(|e, from| {
        format!("{:?}", sqo_vql::run(e, from, text, &options).map(|out| (out.rows, out.stats)))
    });
    assert_eq!(outside, crashed);
}

#[test]
fn a_traced_publication_from_outside_the_network_is_a_dead_initiators() {
    let rows = string_rows("word", &bible_words(20, 5), "x");
    let [outside, crashed] = from_outside_and_crashed(|e, from| {
        let stats = e.publish_rows_traced(&rows, from);
        format!("{stats:?} {}", e.network().total_stored_items())
    });
    assert_eq!(outside, crashed);
    assert!(outside.contains("matches: 0"), "no posting is stored: {outside}");
}
