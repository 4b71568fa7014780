//! End-to-end smoke of the full evaluation pipeline: datasets → engine →
//! §6 workload → figure-shape sanity. A miniature of `figure1 --smoke`
//! living in the test suite so a break in any layer surfaces here.

use sqo::core::Strategy;
use sqo::datasets::{bible_words, painting_titles, string_rows};
use sqo_bench::workload::{run_workload, WorkloadSpec};

#[test]
fn words_workload_shapes() {
    let words = bible_words(2_000, 3);
    let rows = string_rows("word", &words, "w");
    let spec = WorkloadSpec::smoke();

    let mut per_strategy = Vec::new();
    for strategy in Strategy::ALL {
        let mut engine =
            sqo::core::EngineBuilder::new().peers(256).q(2).seed(31).build_with_rows(&rows);
        let report = run_workload(&mut engine, "word", &words, &spec, strategy, 17);
        assert_eq!(report.queries_run, spec.total_queries());
        assert!(report.total.traffic.messages > 0);
        assert!(report.total.matches > 0, "{strategy:?} found nothing");
        per_strategy.push((strategy, report));
    }

    // The naive method's hidden local cost dwarfs the gram methods'.
    let naive = per_strategy.iter().find(|(s, _)| *s == Strategy::Naive).unwrap();
    let qgrams = per_strategy.iter().find(|(s, _)| *s == Strategy::QGrams).unwrap();
    assert!(
        naive.1.total.edit_comparisons > 5 * qgrams.1.total.edit_comparisons,
        "naive local comparisons {} vs qgrams {}",
        naive.1.total.edit_comparisons,
        qgrams.1.total.edit_comparisons
    );
}

#[test]
fn titles_workload_runs() {
    // Long strings with spaces — the q-sample sweet spot: far fewer probes
    // than full q-grams.
    let titles = painting_titles(800, 5);
    let rows = string_rows("title", &titles, "t");
    let spec = WorkloadSpec::smoke();

    let mut engine =
        sqo::core::EngineBuilder::new().peers(128).q(2).seed(32).build_with_rows(&rows);
    let grams = run_workload(&mut engine, "title", &titles, &spec, Strategy::QGrams, 9);
    let mut engine =
        sqo::core::EngineBuilder::new().peers(128).q(2).seed(32).build_with_rows(&rows);
    let samples = run_workload(&mut engine, "title", &titles, &spec, Strategy::QSamples, 9);

    assert!(
        (samples.total.probes as f64) < 0.5 * grams.total.probes as f64,
        "on long titles q-samples must probe far fewer keys: {} vs {}",
        samples.total.probes,
        grams.total.probes
    );
}

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
