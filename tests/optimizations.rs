//! The §4 optimizations (delegation + batched retrieves) and the §4 filters
//! must change *cost*, never *results* — metamorphic tests across engine
//! configurations.

use sqo::core::{EngineBuilder, SimilarityEngine, Strategy};
use sqo::datasets::{bible_words, string_rows};
use sqo::plan::{PlanResult, Query, Session};
use sqo::strsim::filters::FilterConfig;

/// `Similar(query, word, d)` by `strategy` from a random peer.
fn similar(e: &mut SimilarityEngine, query: &str, d: usize, strategy: Strategy) -> PlanResult {
    let from = e.random_peer();
    let q = Query::similar(query, Some("word"), d).strategy(strategy);
    Session::new(e, from).run(&q).expect("a similarity query plans")
}

fn build(delegation: bool, filters: FilterConfig, seed: u64) -> (SimilarityEngine, Vec<String>) {
    let words = bible_words(1_200, 77);
    let rows = string_rows("word", &words, "w");
    let engine = EngineBuilder::new()
        .peers(128)
        .q(2)
        .seed(seed)
        .delegation(delegation)
        .filters(filters)
        .build_with_rows(&rows);
    (engine, words)
}

fn run_queries(engine: &mut SimilarityEngine, words: &[String]) -> (Vec<String>, u64) {
    let mut all_matches = Vec::new();
    let mut messages = 0;
    for (i, strategy) in [Strategy::QGrams, Strategy::QSamples].iter().enumerate() {
        for query in words.iter().step_by(191 + i) {
            let res = similar(engine, query, 2, *strategy);
            messages += res.stats.traffic.messages;
            for m in res.rows {
                all_matches.push(format!("{}:{}:{}", strategy.label(), query, m.value));
            }
        }
    }
    all_matches.sort_unstable();
    (all_matches, messages)
}

#[test]
fn delegation_changes_cost_not_results() {
    let (mut on, words) = build(true, FilterConfig::default(), 5);
    let (mut off, _) = build(false, FilterConfig::default(), 5);
    let (matches_on, msgs_on) = run_queries(&mut on, &words);
    let (matches_off, msgs_off) = run_queries(&mut off, &words);
    assert_eq!(matches_on, matches_off, "delegation altered results");
    assert!(msgs_on < msgs_off, "batching should save messages: {msgs_on} vs {msgs_off}");
}

#[test]
fn filters_change_cost_not_results() {
    // Length/position/count filters are sound: identical match sets, fewer
    // candidates.
    let (mut with, words) = build(true, FilterConfig::default(), 6);
    let (mut without, _) = build(true, FilterConfig::none(), 6);

    let mut candidates_with = 0usize;
    let mut candidates_without = 0usize;
    for query in words.iter().step_by(149) {
        let a = similar(&mut with, query, 1, Strategy::QGrams);
        let b = similar(&mut without, query, 1, Strategy::QGrams);
        let mut ma: Vec<String> = a.rows.iter().map(|m| m.value.to_string()).collect();
        let mut mb: Vec<String> = b.rows.iter().map(|m| m.value.to_string()).collect();
        ma.sort_unstable();
        mb.sort_unstable();
        assert_eq!(ma, mb, "filters dropped a true match for {query}");
        candidates_with += a.stats.candidates;
        candidates_without += b.stats.candidates;
    }
    assert!(
        candidates_with < candidates_without,
        "filters should prune candidates: {candidates_with} vs {candidates_without}"
    );
}

#[test]
fn replication_changes_cost_not_results() {
    let words = bible_words(800, 33);
    let rows = string_rows("word", &words, "w");
    let run = |replication: usize| {
        let mut e = EngineBuilder::new()
            .peers(64)
            .replication(replication)
            .q(2)
            .seed(9)
            .build_with_rows(&rows);
        let mut matches = Vec::new();
        for query in words.iter().step_by(101) {
            for m in similar(&mut e, query, 1, Strategy::QGrams).rows {
                matches.push(format!("{query}->{}", m.value));
            }
        }
        matches.sort_unstable();
        matches.dedup();
        matches
    };
    assert_eq!(run(1), run(4), "structural replication altered results");
}
