//! The paper's evaluation workload (§6).
//!
//! *"In each test we processed a mix of 6 queries initiated 40 times. The
//! set consists of three top-N queries, filtering the N = 5, 10, 15 nearest
//! neighbors to a provided search string (up to a maximal distance of 5),
//! and three similarity self-joins over one column. The joins are processed
//! with a maximal join distance of d = 1, 2, 3 on the chosen column. In each
//! run we chose the initiating peer as well as the search string (from the
//! set of all strings) of each query randomly and started each of the three
//! methods successively."*
//!
//! One calibration note: the paper's total
//! message counts (≈10³–10⁴ for the whole 240-query mix) are inconsistent
//! with joining a 10⁵-row column in full — a single full self-join would
//! dwarf them. The joins here therefore run over a bounded stratified left
//! sample (`join_left_limit`, default 20), which preserves the join's
//! *per-left-object* cost profile that the figure actually compares.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_core::{QueryStats, SimilarityEngine, Strategy};
use sqo_datasets::ZipfSampler;
use sqo_plan::{Query, Session};

/// The §6 query mix, parameterized.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Top-N sizes (paper: 5, 10, 15).
    pub top_n: Vec<usize>,
    /// Maximal distance for the top-N NN search (paper: 5).
    pub top_n_dmax: usize,
    /// Self-join distances (paper: 1, 2, 3).
    pub join_distances: Vec<usize>,
    /// Initiations per query (paper: 40).
    pub initiations: usize,
    /// Left-side cap per join (see module docs).
    pub join_left_limit: Option<usize>,
    /// Zipf exponent for search-string popularity; 0.0 = uniform (the
    /// paper's random choice), > 0 enables the skewed-workload ablation.
    pub zipf_exponent: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            top_n: vec![5, 10, 15],
            top_n_dmax: 5,
            join_distances: vec![1, 2, 3],
            initiations: 40,
            join_left_limit: Some(20),
            zipf_exponent: 0.0,
        }
    }
}

impl WorkloadSpec {
    /// A scaled-down mix for tests and smoke runs.
    pub fn smoke() -> Self {
        Self {
            top_n: vec![3],
            top_n_dmax: 2,
            join_distances: vec![1],
            initiations: 2,
            join_left_limit: Some(4),
            zipf_exponent: 0.0,
        }
    }

    /// Total number of query initiations in the mix.
    pub fn total_queries(&self) -> usize {
        (self.top_n.len() + self.join_distances.len()) * self.initiations
    }
}

/// Aggregated outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    pub total: QueryStats,
    pub queries_run: usize,
    pub top_n_stats: QueryStats,
    pub join_stats: QueryStats,
}

impl WorkloadReport {
    /// Messages per query, the y-axis of Figure 1 (a)/(c) divided by the
    /// mix size.
    pub fn messages_per_query(&self) -> f64 {
        if self.queries_run == 0 {
            return 0.0;
        }
        self.total.traffic.messages as f64 / self.queries_run as f64
    }
}

/// Run the §6 mix against `engine` on string attribute `attr`, drawing
/// search strings from `strings`. Deterministic for a given `seed`. Every
/// query goes through a [`Session`] with `strategy` — and, for the joins,
/// the one-selection window and the spec's left cap — pinned.
pub fn run_workload(
    engine: &mut SimilarityEngine,
    attr: &str,
    strings: &[String],
    spec: &WorkloadSpec,
    strategy: Strategy,
    seed: u64,
) -> WorkloadReport {
    assert!(!strings.is_empty(), "workload needs a non-empty string pool");
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf =
        (spec.zipf_exponent > 0.0).then(|| ZipfSampler::new(strings.len(), spec.zipf_exponent));
    let pick = |rng: &mut StdRng| -> &str {
        let idx = match &zipf {
            Some(z) => z.sample(rng),
            None => rng.gen_range(0..strings.len()),
        };
        &strings[idx]
    };

    let mut report = WorkloadReport::default();
    for _ in 0..spec.initiations {
        for &n in &spec.top_n {
            let s = pick(&mut rng).to_string();
            let from = engine.random_peer();
            let q = Query::top_n_similar(Some(attr), n, s, spec.top_n_dmax).strategy(strategy);
            let res = Session::new(engine, from).run(&q).expect("a top-N of n >= 1 plans");
            report.total.absorb(&res.stats);
            report.top_n_stats.absorb(&res.stats);
            report.queries_run += 1;
        }
        for &d in &spec.join_distances {
            let from = engine.random_peer();
            let q = Query::join_scan(attr, Some(attr), d)
                .strategy(strategy)
                .window(1)
                .left_limit(spec.join_left_limit);
            let res = Session::new(engine, from).run(&q).expect("a self-join plans");
            report.total.absorb(&res.stats);
            report.join_stats.absorb(&res.stats);
            report.queries_run += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_core::EngineBuilder;
    use sqo_storage::triple::{Row, Value};

    fn engine(words: &[String], peers: usize) -> SimilarityEngine {
        let rows: Vec<Row> = words
            .iter()
            .enumerate()
            .map(|(i, w)| Row::new(format!("w:{i}"), [("word", Value::from(w.clone()))]))
            .collect();
        EngineBuilder::new().peers(peers).seed(60).q(2).build_with_rows(&rows)
    }

    #[test]
    fn smoke_mix_runs_and_counts() {
        let words = sqo_datasets::bible_words(300, 9);
        let mut e = engine(&words, 32);
        let spec = WorkloadSpec::smoke();
        let rep = run_workload(&mut e, "word", &words, &spec, Strategy::QGrams, 1);
        assert_eq!(rep.queries_run, spec.total_queries());
        assert!(rep.total.traffic.messages > 0);
        assert!(rep.messages_per_query() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let words = sqo_datasets::bible_words(200, 10);
        let spec = WorkloadSpec::smoke();
        let run = || {
            let mut e = engine(&words, 16);
            run_workload(&mut e, "word", &words, &spec, Strategy::QSamples, 5).total.traffic
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn qsamples_probe_no_more_than_qgrams() {
        let words = sqo_datasets::bible_words(400, 11);
        let spec = WorkloadSpec::smoke();
        let mut e1 = engine(&words, 64);
        let g = run_workload(&mut e1, "word", &words, &spec, Strategy::QGrams, 3);
        let mut e2 = engine(&words, 64);
        let s = run_workload(&mut e2, "word", &words, &spec, Strategy::QSamples, 3);
        assert!(
            s.total.probes <= g.total.probes,
            "samples {0} vs grams {1}",
            s.total.probes,
            g.total.probes
        );
    }

    #[test]
    fn paper_mix_shape() {
        let spec = WorkloadSpec::default();
        assert_eq!(spec.total_queries(), 240);
    }
}
