//! The planner's cardinality/cost model: zero-message posting-list size
//! estimates that feed the cost-based rewrite pass.
//!
//! Estimates come from [`SimilarityEngine::estimate_key_cardinality`],
//! which consults (in order of reliability) the initiator's **own
//! partitions** (exact local counts), the posting cache's **valid cached
//! lists** (exact sizes already paid for, via the `sqo-cache` broker), and
//! a **trie-depth heuristic** (a partition at depth `d` holds an expected
//! `2^-d` share of the stored volume). No source touches the wire, so
//! planning stays free of messages and virtual time.
//!
//! Two derived figures drive the rewrites:
//!
//! * [`CostModel::attr_cardinality`] — rows stored under an attribute
//!   (its scan prefix plus the short-value side family): the size of a
//!   join side.
//! * [`CostModel::predicate_cost`] — the summed posting-list sizes of a
//!   similarity predicate's gram probe keys: the stage-1 candidate volume
//!   a `Similar` sub-query will pull, i.e. how expensive a conjunction
//!   leg is to run first.
//!
//! Every estimate is recorded in the plan's `explain()` notes, so golden
//! snapshots pin the decisions *and* the numbers they were based on.

use sqo_core::{CardEstimate, CardSource, SimilarityEngine, Strategy};
use sqo_overlay::peer::PeerId;
use sqo_storage::keys;
use sqo_strsim::qgram::qgrams;
use sqo_strsim::qsample::qsamples;

/// A borrowed view of the engine the planner estimates against: the
/// initiating peer fixes which partitions count as "local" and whose
/// cached lists are visible.
pub struct CostModel<'a> {
    engine: &'a SimilarityEngine,
    from: PeerId,
}

impl<'a> CostModel<'a> {
    /// A cost model for plans initiated at `from`.
    pub fn new(engine: &'a SimilarityEngine, from: PeerId) -> Self {
        Self { engine, from }
    }

    /// Estimated rows stored under attribute `attr` — the cardinality of
    /// a join side or a full attribute scan (base postings plus the
    /// short-value side family).
    pub fn attr_cardinality(&self, attr: &str) -> CardEstimate {
        let base = self.engine.estimate_key_cardinality(self.from, &keys::attr_scan_prefix(attr));
        let short =
            self.engine.estimate_key_cardinality(self.from, &keys::short_value_prefix(attr));
        base.merge(short)
    }

    /// Estimated stage-1 candidate volume of the similarity predicate
    /// `dist(attr, query) <= d`: the summed posting-list sizes of its gram
    /// probe keys under `strategy`. Queries shorter than the gram length
    /// fall back to the attribute cardinality (they run the naive scan).
    pub fn predicate_cost(
        &self,
        attr: &str,
        query: &str,
        d: usize,
        strategy: Strategy,
    ) -> CardEstimate {
        let q = self.engine.q();
        if query.chars().count() < q || strategy == Strategy::Naive {
            return self.attr_cardinality(attr);
        }
        let probes = match strategy {
            Strategy::QGrams => qgrams(query, q),
            Strategy::QSamples => qsamples(query, q, d),
            Strategy::Naive => unreachable!("handled above"),
        };
        let mut grams: Vec<&str> = probes.iter().map(|g| g.gram.as_str()).collect();
        grams.sort_unstable();
        grams.dedup();
        grams
            .into_iter()
            .map(|g| {
                self.engine.estimate_key_cardinality(self.from, &keys::instance_gram_key(attr, g))
            })
            .fold(CardEstimate { rows: 0, source: CardSource::LocalExact }, CardEstimate::merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_core::{BrokerConfig, CardSource, EngineBuilder};
    use sqo_overlay::key::Key;
    use sqo_storage::{Row, Value};

    fn skewed_rows() -> Vec<Row> {
        // "big" carries 60 rows, "small" 3.
        let mut rows: Vec<Row> = (0..60)
            .map(|i| Row::new(format!("b:{i}"), [("big", Value::from(format!("bigval{i:03}")))]))
            .collect();
        for i in 0..3 {
            rows.push(Row::new(format!("s:{i}"), [("small", Value::from(format!("smol{i}")))]));
        }
        rows
    }

    /// A peer that stores `key`'s partition — its estimates for that key
    /// come from exact local counts.
    fn owner_of(e: &mut SimilarityEngine, key: &Key) -> PeerId {
        let part = e.network().partition_of(key);
        e.network_mut().partition_member(part).expect("alive member")
    }

    #[test]
    fn attr_cardinality_exact_on_own_partition_beats_structural_fallback() {
        let mut e = EngineBuilder::new().peers(64).q(2).seed(91).build_with_rows(&skewed_rows());
        let from = owner_of(&mut e, &keys::attr_scan_prefix("big"));
        let cm = CostModel::new(&e, from);
        let big = cm.attr_cardinality("big");
        let small = cm.attr_cardinality("small");
        assert_eq!(big.source, CardSource::LocalExact, "initiator owns the partition");
        assert!(
            big.rows >= 60,
            "exact local count must see all 60 base postings (got {})",
            big.rows
        );
        assert!(
            big.rows > small.rows,
            "60-row attribute must estimate larger than 3-row one ({} vs {})",
            big.rows,
            small.rows
        );
    }

    #[test]
    fn predicate_cost_tracks_posting_volume() {
        let mut e = EngineBuilder::new().peers(64).q(2).seed(91).build_with_rows(&skewed_rows());
        // The query's first gram key locates the attribute's instance-gram
        // region; estimates from its owner are exact for those lists.
        let probe = keys::instance_gram_key("big", "bi");
        let from = owner_of(&mut e, &probe);
        let cm = CostModel::new(&e, from);
        let heavy = cm.predicate_cost("big", "bigval001", 1, Strategy::QGrams);
        let light = cm.predicate_cost("small", "smol1", 1, Strategy::QGrams);
        assert!(
            heavy.rows > light.rows,
            "grams of the popular attribute estimate heavier ({} vs {})",
            heavy.rows,
            light.rows
        );
    }

    #[test]
    fn cached_lists_feed_exact_sizes() {
        let mut e = EngineBuilder::new()
            .peers(64)
            .q(2)
            .seed(92)
            .cache_config(BrokerConfig::cache_only())
            .build_with_rows(&skewed_rows());
        let from = e.random_peer();
        // Cold: nothing local, nothing cached for a remote gram key.
        let probe = keys::instance_gram_key("big", "bi");
        let cold = e.estimate_key_cardinality(from, &probe);
        // Warm the cache by actually running the similarity query.
        let q = crate::Query::similar("bigval001", Some("big"), 1).strategy(Strategy::QGrams);
        crate::Session::new(&mut e, from).run(&q).expect("plannable");
        let warm = e.estimate_key_cardinality(from, &probe);
        if cold.source == CardSource::LocalExact {
            // Unlucky draw: the random initiator owns the partition, the
            // cache never gets consulted. Still exact either way.
            assert_eq!(warm.source, CardSource::LocalExact);
        } else {
            assert_eq!(warm.source, CardSource::CachedList, "warm estimate uses the cached list");
            assert!(warm.rows >= 60, "all 60 values share the 'bi' gram (got {})", warm.rows);
        }
    }

    #[test]
    fn short_queries_fall_back_to_attr_cardinality() {
        let mut e = EngineBuilder::new().peers(64).q(2).seed(91).build_with_rows(&skewed_rows());
        let from = e.random_peer();
        let cm = CostModel::new(&e, from);
        let naive = cm.predicate_cost("big", "x", 1, Strategy::QGrams);
        assert_eq!(naive.rows, cm.attr_cardinality("big").rows);
    }
}
