//! Cross-crate oracle tests: the distributed operators must agree with
//! local brute-force evaluation.
//!
//! For string similarity the gram strategies guarantee exact recall only in
//! the regime `|s| >= q·(d+1)` (see `sqo-core::similar` docs); these tests
//! assert **soundness everywhere** (no false positives — every returned
//! match really is within distance d) and **completeness in the guaranteed
//! regime**. The naive strategy is complete everywhere by construction and
//! is tested as such.

use proptest::prelude::*;
use sqo::core::{EngineBuilder, Rank, SimilarityEngine, Strategy};
use sqo::overlay::PeerId;
use sqo::plan::{PlanRow, Query, Session};
use sqo::storage::{Row, Value};
use sqo::strsim::edit::levenshtein;

/// `Similar(query, word, d)` from `from` with `strategy`: each match's
/// string and distance.
fn similar(
    e: &mut SimilarityEngine,
    query: &str,
    d: usize,
    from: PeerId,
    strategy: Strategy,
) -> Vec<(String, usize)> {
    let q = Query::similar(query, Some("word"), d).strategy(strategy);
    run(e, from, &q).iter().map(|r| (matched(r), r.score.expect("a distance") as usize)).collect()
}

/// Run `q` from `from` to completion: its rows.
fn run(e: &mut SimilarityEngine, from: PeerId, q: &Query) -> Vec<PlanRow> {
    Session::new(e, from).run(q).expect("plannable").rows
}

/// The string a similarity or join row matched.
fn matched(row: &PlanRow) -> String {
    row.value.as_str().expect("a string match").to_string()
}

fn word_rows(words: &[String]) -> Vec<Row> {
    words
        .iter()
        .enumerate()
        .map(|(i, w)| Row::new(format!("w:{i}"), [("word", Value::from(w.clone()))]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Naive similar == brute force, for arbitrary data and parameters.
    #[test]
    fn naive_similar_is_exact(
        words in prop::collection::hash_set("[a-d]{1,8}", 1..40),
        query in "[a-d]{1,8}",
        d in 0usize..3,
        peers in 1usize..40,
    ) {
        let words: Vec<String> = words.into_iter().collect();
        let mut e = EngineBuilder::new()
            .peers(peers)
            .q(2)
            .seed(1)
            .build_with_rows(&word_rows(&words));
        let from = e.random_peer();
        let res = similar(&mut e, &query, d, from, Strategy::Naive);
        let mut got: Vec<String> = res.into_iter().map(|(m, _)| m).collect();
        got.sort_unstable();
        got.dedup();
        let mut expect: Vec<String> =
            words.iter().filter(|w| levenshtein(&query, w) <= d).cloned().collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Gram strategies: sound everywhere, complete when |s| >= q(d+1).
    #[test]
    fn gram_similar_sound_and_complete_in_regime(
        words in prop::collection::hash_set("[a-c]{4,12}", 1..40),
        query in "[a-c]{4,12}",
        d in 0usize..3,
        seed in 0u64..50,
    ) {
        let q = 2usize;
        let words: Vec<String> = words.into_iter().collect();
        let mut e = EngineBuilder::new()
            .peers(24)
            .q(q)
            .seed(seed)
            .build_with_rows(&word_rows(&words));
        let from = e.random_peer();
        for strategy in [Strategy::QGrams, Strategy::QSamples] {
            let res = similar(&mut e, &query, d, from, strategy);
            // Soundness: every match is a true match at its stated distance.
            for (m, distance) in &res {
                prop_assert_eq!(levenshtein(&query, m), *distance);
                prop_assert!(*distance <= d);
            }
            // Completeness in the guaranteed regime.
            if query.chars().count() >= q * (d + 1) {
                let mut got: Vec<&String> = res.iter().map(|(m, _)| m).collect();
                got.sort_unstable();
                got.dedup();
                let mut expect: Vec<&String> =
                    words.iter().filter(|w| levenshtein(&query, w) <= d).collect();
                expect.sort_unstable();
                prop_assert_eq!(got, expect, "{:?} incomplete", strategy);
            }
        }
    }

    /// Numeric top-N (Algorithm 4) == sort-and-truncate oracle.
    #[test]
    fn top_n_numeric_oracle(
        values in prop::collection::vec(-1000i64..1000, 1..60),
        n in 1usize..12,
        peers in 1usize..40,
        mode in 0u8..3,
    ) {
        let rows: Vec<Row> = values
            .iter()
            .enumerate()
            .map(|(i, v)| Row::new(format!("o:{i}"), [("x", Value::from(*v))]))
            .collect();
        let mut e = EngineBuilder::new().peers(peers).seed(2).build_with_rows(&rows);
        let from = e.random_peer();
        let rank = match mode {
            0 => Rank::Min,
            1 => Rank::Max,
            _ => Rank::Nn(Value::Int(0)),
        };
        let res = run(&mut e, from, &Query::top_n_numeric("x", n, rank.clone()));
        let mut oracle: Vec<i64> = values.clone();
        match mode {
            0 => oracle.sort_unstable(),
            1 => oracle.sort_unstable_by(|a, b| b.cmp(a)),
            _ => oracle.sort_by_key(|v| v.abs()),
        }
        oracle.truncate(n);
        let got: Vec<i64> = res.iter().map(|r| r.value.as_int().unwrap()).collect();
        prop_assert_eq!(got.len(), oracle.len());
        // Scores must match the oracle's (values may tie in any order).
        for (g, o) in got.iter().zip(&oracle) {
            let gs = match mode { 0 => *g, 1 => -*g, _ => g.abs() };
            let os = match mode { 0 => *o, 1 => -*o, _ => o.abs() };
            prop_assert_eq!(gs, os, "rank {} mismatch", rank);
        }
    }

    /// Similarity self-join (Algorithm 3, naive strategy) == nested loop.
    #[test]
    fn sim_join_oracle(
        words in prop::collection::hash_set("[a-c]{2,6}", 1..25),
        d in 0usize..3,
        peers in 1usize..30,
    ) {
        let words: Vec<String> = words.into_iter().collect();
        let mut e = EngineBuilder::new()
            .peers(peers)
            .q(2)
            .seed(3)
            .build_with_rows(&word_rows(&words));
        let from = e.random_peer();
        let join = Query::join_scan("word", Some("word"), d)
            .strategy(Strategy::Naive)
            .left_limit(None)
            .window(1);
        let mut got: Vec<(String, String)> = run(&mut e, from, &join)
            .iter()
            .map(|r| (r.left.clone().expect("a join row").1, matched(r)))
            .collect();
        got.sort_unstable();
        let mut expect: Vec<(String, String)> = Vec::new();
        for a in &words {
            for b in &words {
                if levenshtein(a, b) <= d {
                    expect.push((a.clone(), b.clone()));
                }
            }
        }
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}

#[test]
fn strategies_consistent_on_fixed_corpus() {
    // A deterministic corpus exercising all three strategies at several
    // distances, cross-checked against brute force.
    let words: Vec<String> = [
        "overlay", "overlays", "overplay", "ovenlay", "network", "networks", "betwork", "painting",
        "painring", "print", "sprint", "splint",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut e = EngineBuilder::new().peers(32).q(2).seed(4).build_with_rows(&word_rows(&words));
    for d in 0..=2 {
        for query in ["overlay", "network", "paint", "sprint"] {
            let from = e.random_peer();
            let naive = similar(&mut e, query, d, from, Strategy::Naive);
            let brute: Vec<&String> = words.iter().filter(|w| levenshtein(query, w) <= d).collect();
            assert_eq!(naive.len(), brute.len(), "naive {query} d={d}");
            // Gram strategies are subsets of brute force (sound), and in the
            // guaranteed regime equal it.
            for strategy in [Strategy::QGrams, Strategy::QSamples] {
                let res = similar(&mut e, query, d, from, strategy);
                assert!(res.len() <= brute.len());
                if query.chars().count() >= 2 * (d + 1) {
                    assert_eq!(
                        res.len(),
                        brute.len(),
                        "{strategy:?} {query} d={d} incomplete in guaranteed regime"
                    );
                }
            }
        }
    }
}
