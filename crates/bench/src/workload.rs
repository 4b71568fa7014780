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
use sqo_overlay::peer::PeerId;
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
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            top_n: vec![5, 10, 15],
            top_n_dmax: 5,
            join_distances: vec![1, 2, 3],
            initiations: 40,
            join_left_limit: Some(20),
        }
    }
}

impl WorkloadSpec {
    /// Total number of query initiations in the mix.
    pub fn total_queries(&self) -> usize {
        (self.top_n.len() + self.join_distances.len()) * self.initiations
    }
}

/// One operator's share of a workload run: its queries' summed stats, the
/// remote legs they addressed by [`sqo_core::Leg`] kind (indexed `kind as usize`)
/// and the objects their fetch legs asked for.
#[derive(Debug, Clone, Default)]
pub struct OperatorTotals {
    pub queries: usize,
    pub stats: QueryStats,
    pub legs: [u64; 5],
    pub objects: u64,
}

impl OperatorTotals {
    fn run(&mut self, engine: &mut SimilarityEngine, from: PeerId, q: &Query) {
        let (legs, objects) = engine.legs();
        let res = Session::new(engine, from).run(q).expect("a §6 query plans");
        let (after, fetched) = engine.legs();
        self.queries += 1;
        self.stats.absorb(&res.stats);
        for (sum, (now, then)) in self.legs.iter_mut().zip(after.iter().zip(legs)) {
            *sum += now - then;
        }
        self.objects += fetched - objects;
    }
}

/// Aggregated outcome of one workload run, split by operator.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    pub top_n: OperatorTotals,
    pub join: OperatorTotals,
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
    let pick = |rng: &mut StdRng| strings[rng.gen_range(0..strings.len())].as_str();

    let mut report = WorkloadReport::default();
    for _ in 0..spec.initiations {
        for &n in &spec.top_n {
            let s = pick(&mut rng).to_string();
            let from = engine.random_peer();
            let q = Query::top_n_similar(Some(attr), n, s, spec.top_n_dmax).strategy(strategy);
            report.top_n.run(engine, from, &q);
        }
        for &d in &spec.join_distances {
            let from = engine.random_peer();
            let q = Query::join_scan(attr, Some(attr), d)
                .strategy(strategy)
                .window(1)
                .left_limit(spec.join_left_limit);
            report.join.run(engine, from, &q);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_core::{EngineBuilder, Leg};
    use sqo_storage::triple::{Row, Value};

    fn engine(words: &[String], peers: usize) -> SimilarityEngine {
        let rows: Vec<Row> = words
            .iter()
            .enumerate()
            .map(|(i, w)| Row::new(format!("w:{i}"), [("word", Value::from(w.clone()))]))
            .collect();
        EngineBuilder::new().peers(peers).seed(60).q(2).build_with_rows(&rows)
    }

    /// One top-N and one self-join, twice.
    fn small() -> WorkloadSpec {
        WorkloadSpec {
            top_n: vec![3],
            top_n_dmax: 2,
            join_distances: vec![1],
            initiations: 2,
            join_left_limit: Some(4),
        }
    }

    #[test]
    fn smoke_mix_runs_and_counts() {
        let words = sqo_datasets::bible_words(300, 9);
        let mut e = engine(&words, 32);
        let rep = run_workload(&mut e, "word", &words, &small(), Strategy::QGrams, 1);
        assert_eq!(rep.top_n.queries + rep.join.queries, small().total_queries());
        for op in [&rep.top_n, &rep.join] {
            assert!(op.stats.traffic.messages > 0);
            assert_eq!(op.legs.iter().sum::<u64>(), op.stats.partitions_addressed);
        }
        assert!(rep.top_n.legs[Leg::Probe as usize] > 0);
        assert!(rep.join.legs[Leg::JoinLeft as usize] > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let words = sqo_datasets::bible_words(200, 10);
        let run = || {
            let mut e = engine(&words, 16);
            let rep = run_workload(&mut e, "word", &words, &small(), Strategy::QSamples, 5);
            (rep.top_n.stats.traffic, rep.join.stats.traffic, rep.top_n.legs, rep.join.objects)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn qsamples_probe_no_more_than_qgrams() {
        let words = sqo_datasets::bible_words(400, 11);
        let mut e1 = engine(&words, 64);
        let g = run_workload(&mut e1, "word", &words, &small(), Strategy::QGrams, 3);
        let mut e2 = engine(&words, 64);
        let s = run_workload(&mut e2, "word", &words, &small(), Strategy::QSamples, 3);
        let probes = |r: &WorkloadReport| r.top_n.stats.probes + r.join.stats.probes;
        assert!(probes(&s) <= probes(&g), "samples {} vs grams {}", probes(&s), probes(&g));
    }

    #[test]
    fn paper_mix_shape() {
        let spec = WorkloadSpec::default();
        assert_eq!(spec.total_queries(), 240);
    }
}
