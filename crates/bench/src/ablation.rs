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

use sqo_core::{EngineBuilder, QueryStats, SimilarityEngine, Strategy};
use sqo_datasets::{bible_words, string_rows};
use sqo_plan::{Query, Session};
use sqo_storage::publish::PublishConfig;
use sqo_storage::triple::{Row, Value};
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

sqo_obs::json_record! {
    AblationPoint {
        experiment, variant, messages_per_query, volume_kib_per_query, candidates_per_query,
        matches, recall,
    };
}

/// Shared fixture: a mid-sized word network of 512 peers and a fixed
/// batch of distance-1 selections.
struct Fixture {
    rows: Vec<Row>,
    queries: Vec<String>,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let words = bible_words(4_000, seed);
        let queries = words.iter().step_by(173).take(24).cloned().collect();
        Self { rows: string_rows("word", &words, "w"), queries }
    }

    fn engine(&self, q: usize, batched: bool, f: FilterConfig, carry: bool) -> SimilarityEngine {
        let publish = PublishConfig { q, grams_carry_value: carry };
        let builder = EngineBuilder::new().peers(512).publish_config(publish).seed(99);
        builder.delegation(batched).filters(f).build_with_rows(&self.rows)
    }

    /// Run the query batch; returns the point sans experiment, variant
    /// and recall, and the match multiset recall is computed from.
    fn run(&self, engine: &mut SimilarityEngine, strategy: Strategy) -> Measured {
        let (mut total, mut matches) = (QueryStats::default(), Vec::new());
        for query in &self.queries {
            let from = engine.random_peer();
            let q = Query::similar(query.as_str(), Some("word"), 1).strategy(strategy);
            let res = Session::new(engine, from).run(&q).expect("a similarity query plans");
            total.absorb(&res.stats);
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
                messages_per_query: total.traffic.messages as f64 / nq,
                volume_kib_per_query: total.traffic.bytes as f64 / nq / 1024.0,
                candidates_per_query: total.candidates as f64 / nq,
                matches: matches.len(),
                recall: 0.0,
            },
            matches,
        )
    }
}

/// A measured point and its matches.
type Measured = (AblationPoint, Vec<(String, String)>);

fn recall(found: &[(String, String)], oracle: &[(String, String)]) -> f64 {
    if oracle.is_empty() {
        return 1.0;
    }
    let found: std::collections::HashSet<_> = found.iter().collect();
    let hit = oracle.iter().filter(|m| found.contains(m)).count();
    hit as f64 / oracle.len() as f64
}

/// Run all ablations; returns the table rows. A configuration two
/// experiments share (q = 2, every filter, batching on, grams only) is
/// built and measured once.
pub fn run_ablations(seed: u64) -> Vec<AblationPoint> {
    let fx = Fixture::new(seed);
    let all = FilterConfig::default();
    // Oracle: the naive method is exact by construction.
    let mut q3 = fx.engine(3, true, all, false);
    let (_, oracle) = fx.run(&mut q3, Strategy::Naive);
    let mut out = Vec::new();
    let mut push = |experiment, variant: &str, (mut p, found): Measured| {
        p.experiment = experiment;
        p.variant = variant.to_string();
        p.recall = recall(&found, &oracle);
        out.push(p);
    };
    let mut base = fx.engine(2, true, all, false);
    let grams = fx.run(&mut base, Strategy::QGrams);
    let [samples, strings] = [Strategy::QSamples, Strategy::Naive].map(|s| fx.run(&mut base, s));
    let variant = |q, delegation, filters, carry| {
        fx.run(&mut fx.engine(q, delegation, filters, carry), Strategy::QGrams)
    };

    push("A1-q-length", "q=2", grams.clone());
    push("A1-q-length", "q=3", fx.run(&mut q3, Strategy::QGrams));
    push("A1-q-length", "q=4", variant(4, true, all, false));
    push("A2-filters", "all", grams.clone());
    push(
        "A2-filters",
        "no-position",
        variant(2, true, FilterConfig { position: false, ..all }, false),
    );
    push("A2-filters", "no-length", variant(2, true, FilterConfig { length: false, ..all }, false));
    push("A2-filters", "none", variant(2, true, FilterConfig::none(), false));
    push("A3-delegation", "batched (on)", grams.clone());
    push("A3-delegation", "per-key (off)", variant(2, false, all, false));
    push("A5-carry-value", "grams only", grams.clone());
    push("A5-carry-value", "grams+value", variant(2, true, all, true));
    push("A4-strategy", "qgrams", grams);
    push("A4-strategy", "qsamples", samples);
    push("A4-strategy", "strings", strings);
    out
}

/// Render as an aligned table.
pub fn render(points: &[AblationPoint]) -> String {
    let mut s = String::from(
        "\n== Ablations (A1 q-length, A2 filters, A3 delegation, A4 strategy recall, A5 value-carrying grams) ==\n",
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
    use crate::figure1::committed::{num, rows};
    use sqo_obs::Json;

    /// The A1–A5 orderings, on the committed bytes.
    #[test]
    fn ablations_produce_consistent_trends() {
        let points = rows("ablation");
        let find = |exp: &str, var: &str| {
            let is = |p: &Json, k, v| p.get(k).and_then(Json::as_str) == Some(v);
            let p = points.iter().find(|p| is(p, "experiment", exp) && is(p, "variant", var));
            p.unwrap_or_else(|| panic!("missing {exp}/{var}")).clone()
        };
        let (all, none) = (find("A2-filters", "all"), find("A2-filters", "none"));
        // A2: disabling all filters can only increase candidates, and
        // filters never hurt recall (soundness).
        assert!(num(&none, "candidates_per_query") >= num(&all, "candidates_per_query"));
        assert_eq!(num(&all, "recall"), num(&none, "recall"));
        // A3: batching can only reduce messages.
        let (on, off) =
            (find("A3-delegation", "batched (on)"), find("A3-delegation", "per-key (off)"));
        assert!(num(&on, "messages_per_query") <= num(&off, "messages_per_query"));
        // A4: naive recall is 1 by construction.
        assert_eq!(num(&find("A4-strategy", "strings"), "recall"), 1.0);
        // A5: carrying values trades volume for fewer messages, same recall.
        let (plain, carry) =
            (find("A5-carry-value", "grams only"), find("A5-carry-value", "grams+value"));
        assert_eq!(num(&plain, "recall"), num(&carry, "recall"));
        assert!(num(&carry, "messages_per_query") <= num(&plain, "messages_per_query"));
    }
}
