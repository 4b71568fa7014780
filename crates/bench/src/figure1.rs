//! The Figure 1 experiment: messages and data volume of the three string-
//! similarity methods over network size, on both datasets.
//!
//! Setup per §6: the dataset is published into a P-Grid of `n` peers; the
//! query mix (3 top-N with N = 5/10/15 up to distance 5, 3 similarity
//! self-joins with d = 1/2/3) is initiated 40 times from random peers with
//! random search strings, once per method (`qsamples`, `qgrams`,
//! `strings`); the y-axes are the *averaged* per-query message count and
//! data volume. The peer axis is logarithmic from ~100 to ~100,000.
//!
//! The default configuration runs a scaled-down instance (smaller dataset,
//! fewer initiations, peer counts up to 32k) that finishes in about 14–18 s
//! (release build, two CPUs) and preserves every comparison the figure
//! makes; `Figure1Config::full()` reproduces the paper-scale run (106,704
//! words / 66,349 titles, 40 initiations, up to 131,072 peers).

use crate::workload::{run_workload, WorkloadReport, WorkloadSpec};
use sqo_core::{EngineBuilder, SimilarityEngine, Strategy};
use sqo_datasets::{bible_words, painting_titles, string_rows};
use sqo_obs::ToJson;

/// Which of the paper's two datasets a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Words,
    Titles,
}

/// A dataset writes as its variant name.
impl ToJson for Dataset {
    fn write_json(&self, out: &mut String) {
        out.push_str(match self {
            Dataset::Words => "\"Words\"",
            Dataset::Titles => "\"Titles\"",
        });
    }
}

impl Dataset {
    pub fn label(self) -> &'static str {
        match self {
            Dataset::Words => "bible words",
            Dataset::Titles => "painting titles",
        }
    }

    pub fn attr(self) -> &'static str {
        match self {
            Dataset::Words => "word",
            Dataset::Titles => "title",
        }
    }

    /// Generate the dataset strings.
    pub fn strings(self, size: usize, seed: u64) -> Vec<String> {
        match self {
            Dataset::Words => bible_words(size, seed),
            Dataset::Titles => painting_titles(size, seed),
        }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct Figure1Config {
    pub datasets: Vec<Dataset>,
    pub words_size: usize,
    pub titles_size: usize,
    pub peer_counts: Vec<usize>,
    pub spec: WorkloadSpec,
    pub q: usize,
    pub seed: u64,
    pub strategies: Vec<Strategy>,
}

impl Default for Figure1Config {
    fn default() -> Self {
        Self {
            datasets: vec![Dataset::Words, Dataset::Titles],
            words_size: 20_000,
            titles_size: 10_000,
            peer_counts: vec![128, 512, 2048, 8192, 32_768],
            spec: WorkloadSpec { initiations: 10, ..WorkloadSpec::default() },
            q: 2,
            seed: 42,
            strategies: Strategy::ALL.to_vec(),
        }
    }
}

impl Figure1Config {
    /// The paper-scale configuration: about 11.5 min in a release build on
    /// two CPUs, its peer counts split over four processes.
    pub fn full() -> Self {
        Self {
            words_size: sqo_datasets::BIBLE_WORD_COUNT,
            titles_size: sqo_datasets::PAINTING_TITLE_COUNT,
            peer_counts: vec![128, 512, 2048, 8192, 32_768, 131_072],
            spec: WorkloadSpec::default(),
            ..Self::default()
        }
    }

    /// A seconds-scale configuration for tests.
    pub fn smoke() -> Self {
        Self {
            datasets: vec![Dataset::Words],
            words_size: 1_500,
            titles_size: 800,
            peer_counts: vec![32, 256],
            spec: WorkloadSpec::smoke(),
            ..Self::default()
        }
    }
}

/// One (dataset, peers, strategy) measurement — a point of a Figure 1 curve.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    pub dataset: Dataset,
    pub peers: usize,
    pub partitions: usize,
    pub strategy: &'static str,
    pub queries: usize,
    /// Figure 1 (a)/(c): average messages per query.
    pub messages_per_query: f64,
    /// Figure 1 (b)/(d): average data volume per query, in KiB.
    pub volume_kib_per_query: f64,
    /// Hidden local CPU cost the paper remarks on (§6).
    pub edit_comparisons_per_query: f64,
    pub candidates_per_query: f64,
    pub matches_total: usize,
}

sqo_obs::json_record! {
    SeriesPoint {
        dataset, peers, partitions, strategy, queries, messages_per_query, volume_kib_per_query,
        edit_comparisons_per_query, candidates_per_query, matches_total,
    };
}

fn build_engine(
    dataset: Dataset,
    strings: &[String],
    peers: usize,
    q: usize,
    seed: u64,
) -> SimilarityEngine {
    let rows = string_rows(dataset.attr(), strings, "s");
    EngineBuilder::new().peers(peers).q(q).seed(seed).build_with_rows(&rows)
}

fn measure(
    engine: &mut SimilarityEngine,
    dataset: Dataset,
    strings: &[String],
    strategy: Strategy,
    spec: &WorkloadSpec,
    seed: u64,
) -> SeriesPoint {
    engine.network_mut().reset_metrics();
    let report: WorkloadReport =
        run_workload(engine, dataset.attr(), strings, spec, strategy, seed);
    let q = report.queries_run.max(1) as f64;
    SeriesPoint {
        dataset,
        peers: engine.network().peer_count(),
        partitions: engine.network().partition_count(),
        strategy: strategy.label(),
        queries: report.queries_run,
        messages_per_query: report.total.traffic.messages as f64 / q,
        volume_kib_per_query: report.total.traffic.bytes as f64 / q / 1024.0,
        edit_comparisons_per_query: report.total.edit_comparisons as f64 / q,
        candidates_per_query: report.total.candidates as f64 / q,
        matches_total: report.total.matches,
    }
}

/// Run the sweep. `progress` is called after each measured point (the CLI
/// prints incrementally; tests pass a no-op).
pub fn run_figure1(
    cfg: &Figure1Config,
    mut progress: impl FnMut(&SeriesPoint),
) -> Vec<SeriesPoint> {
    let mut out = Vec::new();
    for &dataset in &cfg.datasets {
        let size = match dataset {
            Dataset::Words => cfg.words_size,
            Dataset::Titles => cfg.titles_size,
        };
        let strings = dataset.strings(size, cfg.seed);
        for &peers in &cfg.peer_counts {
            let mut engine = build_engine(dataset, &strings, peers, cfg.q, cfg.seed);
            for &strategy in &cfg.strategies {
                let point = measure(&mut engine, dataset, &strings, strategy, &cfg.spec, cfg.seed);
                progress(&point);
                out.push(point);
            }
        }
    }
    out
}

/// Render points as aligned text tables, one per (dataset, metric) — the
/// four panels of Figure 1.
pub fn render_tables(points: &[SeriesPoint]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for dataset in [Dataset::Words, Dataset::Titles] {
        let ds: Vec<&SeriesPoint> = points.iter().filter(|p| p.dataset == dataset).collect();
        if ds.is_empty() {
            continue;
        }
        let mut peers: Vec<usize> = ds.iter().map(|p| p.peers).collect();
        peers.sort_unstable();
        peers.dedup();
        for (metric, panel) in [("messages", "messages / query"), ("volume", "KiB / query")] {
            writeln!(s, "\n== Figure 1 [{} — {}] ==", dataset.label(), panel).unwrap();
            write!(s, "{:>10}", "peers").unwrap();
            for strat in ["qsamples", "qgrams", "strings"] {
                write!(s, "{strat:>12}").unwrap();
            }
            writeln!(s).unwrap();
            for &n in &peers {
                write!(s, "{n:>10}").unwrap();
                for strat in ["qsamples", "qgrams", "strings"] {
                    let v = ds.iter().find(|p| p.peers == n && p.strategy == strat).map(|p| {
                        if metric == "messages" {
                            p.messages_per_query
                        } else {
                            p.volume_kib_per_query
                        }
                    });
                    match v {
                        Some(v) => write!(s, "{v:>12.1}").unwrap(),
                        None => write!(s, "{:>12}", "-").unwrap(),
                    }
                }
                writeln!(s).unwrap();
            }
        }
    }
    s
}

/// CSV rendering: the machine-readable companion of [`render_tables`], one
/// row per series point (`figure1 --csv PATH` writes it).
pub fn render_csv(points: &[SeriesPoint]) -> String {
    let mut s = String::from(
        "dataset,peers,partitions,strategy,queries,messages_per_query,volume_kib_per_query,edit_comparisons_per_query,candidates_per_query,matches_total\n",
    );
    for p in points {
        s.push_str(&format!(
            "{:?},{},{},{},{},{:.2},{:.3},{:.1},{:.1},{}\n",
            p.dataset,
            p.peers,
            p.partitions,
            p.strategy,
            p.queries,
            p.messages_per_query,
            p.volume_kib_per_query,
            p.edit_comparisons_per_query,
            p.candidates_per_query,
            p.matches_total
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_all_points() {
        let cfg = Figure1Config::smoke();
        let points = run_figure1(&cfg, |_| {});
        assert_eq!(points.len(), cfg.peer_counts.len() * cfg.strategies.len());
        for p in &points {
            assert!(p.queries > 0);
            assert!(p.messages_per_query > 0.0);
            assert!(p.volume_kib_per_query > 0.0);
        }
    }

    #[test]
    fn naive_grows_faster_than_grams() {
        // The core claim of Figure 1: the naive method's per-query messages
        // grow ~linearly with the network while the gram methods grow
        // sub-linearly, so the growth *ratio* between small and large
        // networks must be clearly higher for naive. Naive contacts the
        // partitions that hold strings, not the peers, so the world must be
        // large enough for those to keep multiplying up to 1 024 peers:
        // naive grows 33× here against 28× on 3 000 words. Eight
        // initiations per query kind, since a handful of queries is a small
        // sample: on this world the ratio read 1.41× with two (four
        // queries), 1.73× with four, and 1.9× to 2.2× with six to sixteen.
        let cfg = Figure1Config {
            datasets: vec![Dataset::Words],
            words_size: 10_000,
            peer_counts: vec![64, 1024],
            spec: WorkloadSpec { initiations: 8, ..WorkloadSpec::smoke() },
            ..Figure1Config::default()
        };
        let points = run_figure1(&cfg, |_| {});
        let get = |peers: usize, strat: &str| {
            points
                .iter()
                .find(|p| p.peers == peers && p.strategy == strat)
                .map(|p| p.messages_per_query)
                .unwrap()
        };
        let naive_growth = get(1024, "strings") / get(64, "strings");
        let qgram_growth = get(1024, "qgrams") / get(64, "qgrams");
        assert!(
            naive_growth > qgram_growth * 1.5,
            "naive growth {naive_growth:.2} vs qgram growth {qgram_growth:.2}"
        );
    }

    #[test]
    fn renderers_cover_every_point() {
        let cfg = Figure1Config::smoke();
        let points = run_figure1(&cfg, |_| {});
        let tables = render_tables(&points);
        assert!(tables.contains("bible words"));
        assert!(tables.contains("qsamples"));
        let csv = render_csv(&points);
        assert_eq!(csv.lines().count(), points.len() + 1);
    }
}
