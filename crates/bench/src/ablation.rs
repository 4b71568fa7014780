//! Ablations over the design choices DESIGN.md calls out:
//!
//! * **A1 — q-gram length**: q ∈ {2, 3, 4} trades probe count against
//!   candidate selectivity and recall (the paper never states its q; this
//!   is the calibration experiment behind our default q = 2).
//! * **A2 — filters**: length/position/count filters on vs. off — how much
//!   candidate traffic each prunes (Gravano et al.'s claim in our setting).
//! * **A3 — delegation & batching**: the two §4 optimizations on vs. off.
//! * **A4 — strategy recall**: achieved recall of qgrams/qsamples against
//!   the naive oracle in the lossy short-string regime (the completeness
//!   caveat documented in `sqo-core::similar`).
//! * **A5 — value-carrying gram postings**: §4's closing suggestion
//!   ("storing complete strings together with q-grams could potentially
//!   improve performance even more") — bigger postings, but candidates
//!   verify before any object fetch.

use sqo_core::{EngineBuilder, SimilarityEngine, Strategy};
use sqo_datasets::{bible_words, string_rows};
use sqo_plan::{Query, Session};
use sqo_storage::triple::Value;
use sqo_strsim::filters::FilterConfig;

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    pub experiment: &'static str,
    pub variant: String,
    pub messages_per_query: f64,
    pub volume_kib_per_query: f64,
    pub candidates_per_query: f64,
    pub matches: usize,
    /// Fraction of the naive oracle's matches found (1.0 = complete).
    pub recall: f64,
}

/// Shared fixture: a mid-sized word network and a fixed query batch.
struct Fixture {
    words: Vec<String>,
    queries: Vec<String>,
    peers: usize,
    d: usize,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let words = bible_words(4_000, seed);
        let queries: Vec<String> = words.iter().step_by(173).take(24).cloned().collect();
        Self { words, queries, peers: 512, d: 1 }
    }

    fn engine(&self, q: usize, delegation: bool, filters: FilterConfig) -> SimilarityEngine {
        self.engine_carrying(q, delegation, filters, false)
    }

    fn engine_carrying(
        &self,
        q: usize,
        delegation: bool,
        filters: FilterConfig,
        carry: bool,
    ) -> SimilarityEngine {
        let rows = string_rows("word", &self.words, "w");
        let publish = sqo_storage::publish::PublishConfig { q, grams_carry_value: carry };
        EngineBuilder::new()
            .peers(self.peers)
            .publish_config(publish)
            .seed(99)
            .delegation(delegation)
            .filters(filters)
            .build_with_rows(&rows)
    }

    /// Run the query batch; returns (point sans experiment/variant, match
    /// multiset) for recall computation.
    fn run(
        &self,
        engine: &mut SimilarityEngine,
        strategy: Strategy,
    ) -> (AblationPoint, Vec<(String, String)>) {
        engine.network_mut().reset_metrics();
        let mut candidates = 0usize;
        let mut matches = Vec::new();
        let mut total_msgs = 0u64;
        let mut total_bytes = 0u64;
        for query in &self.queries {
            let from = engine.random_peer();
            let q = Query::similar(query.as_str(), Some("word"), self.d).strategy(strategy);
            let res = Session::new(engine, from).run(&q).expect("a similarity query plans");
            candidates += res.stats.candidates;
            total_msgs += res.stats.traffic.messages;
            total_bytes += res.stats.traffic.bytes;
            for row in res.rows {
                if let Value::Str(matched) = row.value {
                    matches.push((query.clone(), matched));
                }
            }
        }
        let nq = self.queries.len() as f64;
        (
            AblationPoint {
                experiment: "",
                variant: String::new(),
                messages_per_query: total_msgs as f64 / nq,
                volume_kib_per_query: total_bytes as f64 / nq / 1024.0,
                candidates_per_query: candidates as f64 / nq,
                matches: matches.len(),
                recall: 0.0,
            },
            matches,
        )
    }
}

fn recall(found: &[(String, String)], oracle: &[(String, String)]) -> f64 {
    if oracle.is_empty() {
        return 1.0;
    }
    let found: std::collections::HashSet<_> = found.iter().collect();
    let hit = oracle.iter().filter(|m| found.contains(m)).count();
    hit as f64 / oracle.len() as f64
}

/// Run all ablations; returns the table rows.
pub fn run_ablations(seed: u64) -> Vec<AblationPoint> {
    let fx = Fixture::new(seed);
    let mut out = Vec::new();

    // Oracle: the naive method is exact by construction.
    let mut oracle_engine = fx.engine(3, true, FilterConfig::default());
    let (_, oracle) = fx.run(&mut oracle_engine, Strategy::Naive);

    // ---- A1: q length --------------------------------------------------
    for q in [2usize, 3, 4] {
        let mut e = fx.engine(q, true, FilterConfig::default());
        let (mut p, found) = fx.run(&mut e, Strategy::QGrams);
        p.experiment = "A1-q-length";
        p.variant = format!("q={q}");
        p.recall = recall(&found, &oracle);
        out.push(p);
    }

    // ---- A2: filters ----------------------------------------------------
    let variants: [(&str, FilterConfig); 4] = [
        ("all", FilterConfig::default()),
        ("no-position", FilterConfig { position: false, ..FilterConfig::default() }),
        ("no-length", FilterConfig { length: false, ..FilterConfig::default() }),
        ("none", FilterConfig::none()),
    ];
    for (name, filters) in variants {
        let mut e = fx.engine(2, true, filters);
        let (mut p, found) = fx.run(&mut e, Strategy::QGrams);
        p.experiment = "A2-filters";
        p.variant = name.to_string();
        p.recall = recall(&found, &oracle);
        out.push(p);
    }

    // ---- A3: delegation / batching ---------------------------------------
    for delegation in [true, false] {
        let mut e = fx.engine(2, delegation, FilterConfig::default());
        let (mut p, found) = fx.run(&mut e, Strategy::QGrams);
        p.experiment = "A3-delegation";
        p.variant = if delegation { "batched (on)" } else { "per-key (off)" }.to_string();
        p.recall = recall(&found, &oracle);
        out.push(p);
    }

    // ---- A5: value-carrying gram postings ---------------------------------
    for carry in [false, true] {
        let mut e = fx.engine_carrying(2, true, FilterConfig::default(), carry);
        let (mut p, found) = fx.run(&mut e, Strategy::QGrams);
        p.experiment = "A5-carry-value";
        p.variant = if carry { "grams+value" } else { "grams only" }.to_string();
        p.recall = recall(&found, &oracle);
        out.push(p);
    }

    // ---- A4: strategy recall ---------------------------------------------
    for strategy in [Strategy::QGrams, Strategy::QSamples, Strategy::Naive] {
        let mut e = fx.engine(2, true, FilterConfig::default());
        let (mut p, found) = fx.run(&mut e, strategy);
        p.experiment = "A4-strategy";
        p.variant = strategy.label().to_string();
        p.recall = recall(&found, &oracle);
        out.push(p);
    }

    out
}

/// Render as an aligned table.
pub fn render(points: &[AblationPoint]) -> String {
    let mut s = String::from(
        "== Ablations (A1 q-length, A2 filters, A3 delegation, A4 strategy recall, A5 value-carrying grams) ==\n",
    );
    s.push_str(&format!(
        "{:<16}{:<16}{:>12}{:>12}{:>12}{:>9}{:>8}\n",
        "experiment", "variant", "msgs/query", "KiB/query", "cand/query", "matches", "recall"
    ));
    for p in points {
        s.push_str(&format!(
            "{:<16}{:<16}{:>12.1}{:>12.2}{:>12.1}{:>9}{:>8.3}\n",
            p.experiment,
            p.variant,
            p.messages_per_query,
            p.volume_kib_per_query,
            p.candidates_per_query,
            p.matches,
            p.recall
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_produce_consistent_trends() {
        let points = run_ablations(5);
        let find = |exp: &str, var: &str| {
            points
                .iter()
                .find(|p| p.experiment == exp && p.variant == var)
                .unwrap_or_else(|| panic!("missing {exp}/{var}"))
        };
        // A2: disabling all filters can only increase candidates.
        assert!(
            find("A2-filters", "none").candidates_per_query
                >= find("A2-filters", "all").candidates_per_query
        );
        // A3: batching can only reduce messages.
        assert!(
            find("A3-delegation", "batched (on)").messages_per_query
                <= find("A3-delegation", "per-key (off)").messages_per_query
        );
        // A4: naive recall is 1 by construction.
        assert!((find("A4-strategy", "strings").recall - 1.0).abs() < 1e-9);
        // Filters never hurt recall (soundness).
        assert!(
            (find("A2-filters", "all").recall - find("A2-filters", "none").recall).abs() < 1e-9
        );
        // A5: carrying values trades volume for fewer messages, same recall.
        let plain = find("A5-carry-value", "grams only");
        let carry = find("A5-carry-value", "grams+value");
        assert!((plain.recall - carry.recall).abs() < 1e-9);
        assert!(carry.messages_per_query <= plain.messages_per_query);
    }
}
