//! §8 storage sanity through the umbrella crate: datasets → engine →
//! publication statistics. The §6 workload checks that used to live here
//! are asserted on the committed `BENCH_figure1.json` cells by
//! `sqo-bench`'s `figure1` tests.

use sqo::datasets::{bible_words, string_rows};

#[test]
fn storage_overhead_within_reason() {
    // §8: the triple + q-gram blow-up is the price of similarity support;
    // make sure it stays in the expected band for word-like data (3 base
    // postings + ~len-1 bigram postings + schema grams per triple).
    let words = bible_words(1_000, 8);
    let rows = string_rows("word", &words, "w");
    let engine = sqo::core::EngineBuilder::new().peers(16).q(2).build_with_rows(&rows);
    let stats = engine.publish_stats();
    let factor = stats.overhead_factor();
    assert!(
        (5.0..20.0).contains(&factor),
        "posting blow-up {factor:.1}x outside the expected band"
    );
    assert_eq!(stats.triples, 1_000);
}
