//! The broker exactness contract, as a property: every operator returns
//! **identical results** with the cache/batcher enabled vs disabled —
//! across replication factors, both probe strategies, and a churn schedule
//! (the churn epoch invalidates the cache, so stale replicas are never
//! served across a membership change).
//!
//! Churn is injected with explicit victims (`fail_peer`), not
//! `fail_random_fraction`: the two engines' RNG streams legitimately
//! diverge (cache hits skip routing draws), so only an externally chosen
//! victim set hits both engines identically. Queries run synchronously to
//! completion between churn steps — a batch window never spans a membership
//! change here, which is exactly the regime the epoch rule makes exact.

use proptest::prelude::*;
use sqo_core::{BrokerConfig, EngineBuilder, Rank, SimilarityEngine, Strategy};
use sqo_datasets::{bible_words, string_rows};
use sqo_overlay::PeerId;
use sqo_plan::{PlanRow, Query, Session};
use sqo_sim::{install, SimConfig};
use sqo_storage::triple::Value;

/// Run `q` from `from` to completion: its rows.
fn run(e: &mut SimilarityEngine, from: PeerId, q: &Query) -> Vec<PlanRow> {
    Session::new(e, from).run(q).expect("plannable").rows
}

/// The oids of `q`'s rows, sorted.
fn oids(e: &mut SimilarityEngine, from: PeerId, q: &Query) -> Vec<String> {
    let mut oids: Vec<String> = run(e, from, q).into_iter().map(|r| r.oid).collect();
    oids.sort();
    oids
}

fn build(words: &[String], replication: usize, seed: u64, cache: BrokerConfig) -> SimilarityEngine {
    let rows = string_rows("word", words, "w");
    let mut e = EngineBuilder::new()
        .peers(48)
        .replication(replication)
        .refs_per_level(3)
        .q(2)
        .seed(seed)
        .cache_config(cache)
        .build_with_rows(&rows);
    install(&mut e, SimConfig::default());
    e
}

/// Run the full operator battery and serialize every result; the returned
/// string is what must be byte-identical across broker configurations.
fn battery(e: &mut SimilarityEngine, words: &[String], strategy: Strategy, from: PeerId) -> String {
    let mut out = String::new();
    for s in [&words[0], &words[7], &words[13]] {
        let q = Query::similar(s, Some("word"), 1).strategy(strategy);
        let mut m: Vec<(String, String, usize)> = run(e, from, &q)
            .into_iter()
            .map(|m| (m.oid, m.value.to_string(), m.score.expect("a distance") as usize))
            .collect();
        m.sort();
        out.push_str(&format!("similar {s}: {m:?}\n"));
    }
    let join =
        Query::join_scan("word", Some("word"), 1).strategy(strategy).left_limit(Some(6)).window(4);
    let mut pairs: Vec<(String, String)> = run(e, from, &join)
        .into_iter()
        .map(|p| (p.left.expect("a join row").1, p.value.to_string()))
        .collect();
    pairs.sort();
    out.push_str(&format!("join: {pairs:?}\n"));
    let q = Query::top_n_similar(Some("word"), 3, words[3].as_str(), 3).strategy(strategy);
    let top: Vec<(String, f64)> =
        run(e, from, &q).into_iter().map(|i| (i.oid, i.score.expect("a score"))).collect();
    out.push_str(&format!("topn: {top:?}\n"));
    let sel = oids(e, from, &Query::select_exact("word", Value::from(words[5].as_str())));
    out.push_str(&format!("select: {sel:?}\n"));
    let kw = oids(e, from, &Query::select_keyword(Value::from(words[9].as_str())));
    out.push_str(&format!("keyword: {kw:?}\n"));
    let rng = oids(e, from, &Query::select_range("word", Value::from("a"), Value::from("m")));
    out.push_str(&format!("range: {rng:?}\n"));
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn operators_identical_with_and_without_broker(
        replication in 1usize..4,
        seed in 0u64..500,
        strategy_qsamples in any::<bool>(),
        churn in any::<bool>(),
    ) {
        let words = bible_words(150, seed ^ 0x5EED);
        let strategy = if strategy_qsamples { Strategy::QSamples } else { Strategy::QGrams };
        let from = PeerId(1);
        // Victims chosen outside both engines, identically.
        let victims: Vec<PeerId> = if churn {
            (0..48u32).filter(|i| i % 11 == 4).map(PeerId).collect()
        } else {
            Vec::new()
        };

        let run = |cache: BrokerConfig| {
            let mut e = build(&words, replication, seed, cache);
            let before = battery(&mut e, &words, strategy, from);
            for &v in &victims {
                e.network_mut().fail_peer(v);
            }
            let after = battery(&mut e, &words, strategy, from);
            (before, after)
        };
        let baseline = run(BrokerConfig::default());
        for cfg in [BrokerConfig::cache_only(), BrokerConfig::batch_only(), BrokerConfig::enabled()] {
            let got = run(cfg);
            prop_assert_eq!(
                &got.0, &baseline.0,
                "pre-churn results diverged (replication {}, seed {}, {:?})",
                replication, seed, cfg
            );
            prop_assert_eq!(
                &got.1, &baseline.1,
                "post-churn results diverged (replication {}, seed {}, {:?})",
                replication, seed, cfg
            );
        }
    }
}

/// The numeric-path operators never touch the gram-probe pipeline, but pin
/// them too: a broker must be a strict no-op for them.
#[test]
fn numeric_topn_unaffected_by_broker() {
    let rows: Vec<sqo_storage::triple::Row> = (0..60)
        .map(|i| {
            sqo_storage::triple::Row::new(
                format!("n:{i}"),
                [("hp", Value::from((40 + i * 13 % 350) as i64))],
            )
        })
        .collect();
    let run = |cache: BrokerConfig| {
        let mut e =
            EngineBuilder::new().peers(32).seed(4).cache_config(cache).build_with_rows(&rows);
        install(&mut e, SimConfig::default());
        let from = PeerId(2);
        let res = run(&mut e, from, &Query::top_n_numeric("hp", 5, Rank::Nn(Value::Int(150))));
        res.into_iter().map(|i| (i.oid, i.score.expect("a score") as i64)).collect::<Vec<_>>()
    };
    assert_eq!(run(BrokerConfig::default()), run(BrokerConfig::enabled()));
}
