//! Contract tests for the hot-path broker (`sqo-cache` wired through the
//! engine): identical results with every service combination, traffic
//! savings on repeats, and churn-epoch invalidation.

use sqo_core::{
    BrokerConfig, EngineBuilder, JoinTask, JoinWindow, QueryStats, SelectHit, SelectTask,
    SimilarMatch, SimilarTask, SimilarityEngine, Strategy,
};
use sqo_overlay::PeerId;
use sqo_storage::triple::{Row, Value};

/// What a finished task answered.
struct Answer<T> {
    rows: Vec<T>,
    stats: QueryStats,
}

/// `Similar(s, word, 1)` by q-grams from `from`.
fn similar(e: &mut SimilarityEngine, s: &str, from: PeerId) -> Answer<SimilarMatch> {
    let mut task = SimilarTask::new(s, Some("word"), 1, from, Strategy::QGrams);
    let stats = e.run_task(&mut task);
    Answer { rows: task.take_matches().collect(), stats }
}

/// Run a selection from its task to completion.
fn select(e: &mut SimilarityEngine, mut task: SelectTask) -> Answer<SelectHit> {
    let stats = e.run_task(&mut task);
    Answer { rows: task.take_hits(), stats }
}

fn word_rows(n: usize) -> Vec<Row> {
    // Overlapping grams across rows, so caches have something to share.
    (0..n)
        .map(|i| {
            Row::new(format!("w:{i}"), [("word", Value::from(format!("pattern{:03}word", i % 40)))])
        })
        .collect()
}

fn engine(cfg: BrokerConfig, seed: u64) -> SimilarityEngine {
    EngineBuilder::new()
        .peers(64)
        .seed(seed)
        .q(3)
        .cache_config(cfg)
        .build_with_rows(&word_rows(120))
}

fn results_of(e: &mut SimilarityEngine, s: &str) -> Vec<(String, String, usize)> {
    let from = sqo_overlay::PeerId(0);
    let res = similar(e, s, from);
    let mut out: Vec<(String, String, usize)> =
        res.rows.into_iter().map(|m| (m.oid, m.matched, m.distance)).collect();
    out.sort();
    out
}

#[test]
fn every_service_combination_returns_identical_results() {
    let configs = [
        BrokerConfig::default(), // everything off (no broker installed)
        BrokerConfig::cache_only(),
        BrokerConfig::batch_only(),
        BrokerConfig::enabled(),
    ];
    let queries = ["pattern007word", "pattern007wxrd", "pattern039word", "nothinglikeit"];
    let baseline: Vec<_> = {
        let mut e = engine(configs[0], 11);
        assert!(!e.has_broker(), "disabled config must not install a broker");
        queries.iter().map(|q| results_of(&mut e, q)).collect()
    };
    assert!(baseline.iter().any(|r| !r.is_empty()), "queries must match something");
    for cfg in &configs[1..] {
        let mut e = engine(*cfg, 11);
        assert!(e.has_broker());
        for (q, expect) in queries.iter().zip(&baseline) {
            assert_eq!(
                &results_of(&mut e, q),
                expect,
                "results diverged under {cfg:?} for query {q}"
            );
        }
    }
}

#[test]
fn repeated_probes_hit_the_cache_and_save_messages() {
    let mut e = engine(BrokerConfig::cache_only(), 13);
    let from = sqo_overlay::PeerId(3);
    let first = similar(&mut e, "pattern012word", from);
    assert_eq!(first.stats.cache_hits, 0, "cold cache cannot hit");
    assert!(first.stats.cache_misses > 0);

    let second = similar(&mut e, "pattern012word", from);
    assert_eq!(
        second.stats.cache_misses, 0,
        "an identical repeat must be fully served from the cache"
    );
    assert_eq!(second.stats.cache_hits, first.stats.cache_misses);
    assert!(
        second.stats.traffic.messages < first.stats.traffic.messages,
        "cached probes must not pay the probe traffic again ({} vs {})",
        second.stats.traffic.messages,
        first.stats.traffic.messages
    );

    // A different query sharing grams still gets partial hits.
    let third = similar(&mut e, "pattern012wore", from);
    assert!(third.stats.cache_hits > 0, "shared grams must hit");

    let counters = e.broker_counters().expect("broker installed");
    assert_eq!(
        counters.cache_hits,
        second.stats.cache_hits + third.stats.cache_hits,
        "broker lifetime counters must equal the per-query attribution"
    );
}

#[test]
fn caches_are_per_initiator() {
    let mut e = engine(BrokerConfig::cache_only(), 17);
    let a = sqo_overlay::PeerId(1);
    let b = sqo_overlay::PeerId(2);
    similar(&mut e, "pattern020word", a);
    let other = similar(&mut e, "pattern020word", b);
    assert_eq!(other.stats.cache_hits, 0, "initiator b must not see a's cache");
}

#[test]
fn churn_epoch_invalidates_cached_lists() {
    let mut e = engine(BrokerConfig::cache_only(), 19);
    let from = sqo_overlay::PeerId(5);
    similar(&mut e, "pattern030word", from);
    let warm = similar(&mut e, "pattern030word", from);
    assert!(warm.stats.cache_hits > 0);

    // Any membership change bumps the epoch; nothing cached before it may
    // be served after it.
    let victim = sqo_overlay::PeerId(40);
    e.network_mut().fail_peer(victim);
    let after = similar(&mut e, "pattern030word", from);
    assert_eq!(after.stats.cache_hits, 0, "stale epoch must be a full miss");
    assert!(after.stats.cache_misses > 0);
    assert_eq!(
        results_of(&mut e, "pattern030word"),
        {
            // A broker-less engine that saw the same churn agrees.
            let mut fresh = engine(BrokerConfig::default(), 19);
            fresh.network_mut().fail_peer(victim);
            results_of(&mut fresh, "pattern030word")
        },
        "post-churn results must match the uncached engine"
    );
}

#[test]
fn publication_invalidates_cached_lists() {
    // Schema evolution (§3): rows published after a query filled the cache
    // must be visible to the next query — the cache epoch bumps on insert,
    // so pre-publish lists are never served post-publish.
    let mut e = engine(BrokerConfig::cache_only(), 31);
    let from = sqo_overlay::PeerId(4);
    similar(&mut e, "pattern005word", from);
    let warm = similar(&mut e, "pattern005word", from);
    assert!(warm.stats.cache_hits > 0, "repeat must be cached before the publish");

    e.publish_rows(&[Row::new("w:new", [("word", Value::from("pattern005word"))])]);
    let res = similar(&mut e, "pattern005word", from);
    assert_eq!(res.stats.cache_hits, 0, "publication must invalidate the cache");
    assert!(res.rows.iter().any(|m| m.oid == "w:new"), "the freshly published row must be found");
}

#[test]
fn route_failures_are_not_negative_cached() {
    // Kill everything except the initiator's partition: exact selects
    // fail to route. The failure must not be cached as an empty list —
    // after the peers revive, the select must succeed again.
    let rows: Vec<Row> =
        (0..20).map(|i| Row::new(format!("c:{i}"), [("hp", Value::from(i as i64))])).collect();
    let mut e = EngineBuilder::new()
        .peers(16)
        .seed(37)
        .cache_config(BrokerConfig::cache_only())
        .build_with_rows(&rows);
    let from = sqo_overlay::PeerId(0);
    let target = Value::Int(13);
    let baseline = select(&mut e, SelectTask::exact("hp", target.clone(), from)).rows.len();
    assert_eq!(baseline, 1, "sanity: the row exists");

    let my_part = e.network().peer_partition(from);
    let victims: Vec<sqo_overlay::PeerId> = (0..16u32)
        .map(sqo_overlay::PeerId)
        .filter(|p| e.network().peer_partition(*p) != my_part)
        .collect();
    for &v in &victims {
        e.network_mut().fail_peer(v);
    }
    let during = select(&mut e, SelectTask::exact("hp", target.clone(), from));
    for &v in &victims {
        e.network_mut().revive_peer(v);
    }
    let after = select(&mut e, SelectTask::exact("hp", target.clone(), from));
    assert_eq!(
        after.rows.len(),
        1,
        "a transient route failure (found {} during churn) must not stick as a cached empty list",
        during.rows.len()
    );
}

#[test]
fn batch_window_coalesces_a_joins_probes() {
    // A self-join's child selections probe overlapping gram keys from one
    // initiator; with batching on, probes from different children landing
    // in the same window share one routed exchange.
    let run = |cfg: BrokerConfig| {
        let mut e = engine(cfg, 23);
        let from = sqo_overlay::PeerId(7);
        let opts = sqo_core::JoinOptions {
            strategy: Strategy::QGrams,
            left_limit: Some(8),
            window: JoinWindow::Fixed(8),
        };
        let mut task = JoinTask::new("word", Some("word"), 1, from, &opts);
        let stats = e.run_task(&mut task);
        let mut pairs: Vec<(String, String)> =
            task.take_pairs().into_iter().map(|p| (p.left_value, p.right.matched)).collect();
        pairs.sort();
        (pairs, stats)
    };
    let (pairs_off, stats_off) = run(BrokerConfig::default());
    let (pairs_on, stats_on) = run(BrokerConfig::enabled());
    assert_eq!(pairs_off, pairs_on, "the broker must never change join results");
    assert!(!pairs_on.is_empty());
    assert!(
        stats_on.probes_coalesced > 0 || stats_on.cache_hits > 0,
        "a windowed self-join must coalesce or cache-hit"
    );
    assert!(
        stats_on.traffic.messages < stats_off.traffic.messages,
        "cache+batch must cut join traffic ({} vs {})",
        stats_on.traffic.messages,
        stats_off.traffic.messages
    );
}

#[test]
fn select_exact_and_keyword_use_the_cache() {
    let rows: Vec<Row> = (0..30)
        .map(|i| Row::new(format!("c:{i}"), [("hp", Value::from(100 + i as i64))]))
        .collect();
    let mut e = EngineBuilder::new()
        .peers(32)
        .seed(29)
        .cache_config(BrokerConfig::cache_only())
        .build_with_rows(&rows);
    // An initiator that does not hold the index entry itself: the data
    // sits on few partitions, and peers gather where it is.
    let index =
        e.network().partition_of(&sqo_storage::keys::attr_value_key("hp", &Value::Int(117)));
    let from = (0..e.network().peer_count() as u32)
        .map(sqo_overlay::PeerId)
        .find(|p| e.network().peer_partition(*p) != index)
        .expect("a peer elsewhere");
    let cold = select(&mut e, SelectTask::exact("hp", Value::Int(117), from));
    assert_eq!(cold.stats.cache_misses, 1);
    let warm = select(&mut e, SelectTask::exact("hp", Value::Int(117), from));
    assert_eq!(warm.stats.cache_hits, 1);
    assert_eq!(warm.rows.len(), cold.rows.len());
    assert_eq!(warm.rows[0].oid, "c:17");
    assert!(
        warm.stats.traffic.messages < cold.stats.traffic.messages,
        "cached exact select must skip the index retrieve"
    );

    let kw_cold = select(&mut e, SelectTask::keyword(Value::Int(123), from));
    let kw_warm = select(&mut e, SelectTask::keyword(Value::Int(123), from));
    assert_eq!(kw_warm.stats.cache_hits, 1);
    assert_eq!(kw_cold.rows.len(), kw_warm.rows.len());
}
