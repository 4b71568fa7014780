//! The §6 evaluation as one artifact, `BENCH_figure1.json`: Figure 1's
//! messages and data volume of the three string-similarity methods over
//! network size, on both datasets, split by operator and by leg kind,
//! beside the §2 routing cost, the §8 storage overhead and the ablations.
//!
//! Setup per §6: the dataset is published into a P-Grid of `n` peers; the
//! query mix (3 top-N with N = 5/10/15 up to distance 5, 3 similarity
//! self-joins with d = 1/2/3) is initiated from random peers with random
//! search strings, once per method (`qsamples`, `qgrams`, `strings`); a
//! cell is one (dataset, peers, carried values, method, operator) and
//! gives per-query averages. Carried values are
//! `PublishConfig::grams_carry_value`: gram postings that also store the
//! full string, as §4 suggests. The routing table is measured on the
//! words engines the cells built, after their queries.
//!
//! The default configuration is a scaled-down instance whose artifact is
//! the committed **golden file**: `tests/bench_figure1.rs` rebuilds it
//! in-process and demands the committed bytes, and the modules' tests
//! assert §6 on those bytes. [`Figure1Config::full`] is the paper-scale run
//! (106,704 words / 66,349 titles, 40 initiations, up to 131,072 peers).

use crate::ablation::{run_ablations, AblationPoint};
use crate::meta::GenMeta;
use crate::routing::{measure_routing, RoutingPoint};
use crate::storage_overhead::{run_publish_cost, run_storage_overhead};
use crate::storage_overhead::{OverheadPoint, PublishCostPoint};
use crate::workload::{run_workload, OperatorTotals, WorkloadSpec};
use sqo_core::{EngineBuilder, Leg, Strategy};
use sqo_datasets::{bible_words, painting_titles, string_rows};
use sqo_obs::to_json_pretty;
use sqo_storage::publish::PublishConfig;

/// The paper's two datasets: (name, attribute).
const DATASETS: [(&str, &str); 2] = [("Words", "word"), ("Titles", "title")];

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct Figure1Config {
    pub words_size: usize,
    pub titles_size: usize,
    pub peer_counts: Vec<usize>,
    pub spec: WorkloadSpec,
    pub q: usize,
    pub seed: u64,
}

/// Routing lookups per words engine.
const LOOKUPS: usize = 400;

impl Default for Figure1Config {
    /// The golden file's scale, chosen so that a debug build regenerates
    /// it within half a minute on two CPUs.
    fn default() -> Self {
        Self {
            words_size: 5_000,
            titles_size: 2_500,
            peer_counts: vec![64, 256, 1024, 4096],
            spec: WorkloadSpec { initiations: 3, ..WorkloadSpec::default() },
            q: 2,
            seed: 42,
        }
    }
}

impl Figure1Config {
    /// The paper-scale configuration. Its carried-values-off half took
    /// about 11.5 min in a release build on two CPUs, its peer counts
    /// split over four processes (`docs/FIGURE1.md`).
    pub fn full() -> Self {
        Self {
            words_size: sqo_datasets::BIBLE_WORD_COUNT,
            titles_size: sqo_datasets::PAINTING_TITLE_COUNT,
            peer_counts: vec![128, 512, 2048, 8192, 32_768, 131_072],
            spec: WorkloadSpec::default(),
            ..Self::default()
        }
    }
}

/// One (dataset, peers, carried values, method, operator) cell; every
/// figure but `queries` and `matches` is per query.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `"Words"` or `"Titles"`.
    pub dataset: &'static str,
    pub peers: usize,
    pub partitions: usize,
    /// `"on"` when gram postings carry their string.
    pub carry: &'static str,
    pub strategy: &'static str,
    /// `"top_n"` or `"join"`.
    pub operator: &'static str,
    pub queries: usize,
    /// Figure 1 (a)/(c).
    pub messages: f64,
    /// Figure 1 (b)/(d).
    pub kib: f64,
    /// Remote legs addressed, by kind ([`Leg`]).
    pub probe_legs: f64,
    pub fetch_legs: f64,
    pub naive_legs: f64,
    pub join_left_legs: f64,
    pub short_legs: f64,
    pub route_hops: f64,
    pub forward_msgs: f64,
    pub result_msgs: f64,
    pub objects_fetched: f64,
    pub probes: f64,
    pub candidates: f64,
    /// Hidden local CPU cost the paper remarks on (§6).
    pub edit_comparisons: f64,
    pub matches: usize,
}

sqo_obs::json_record! {
    Cell {
        dataset, peers, partitions, carry, strategy, operator, queries, messages, kib, probe_legs,
        fetch_legs, naive_legs, join_left_legs, short_legs, route_hops, forward_msgs, result_msgs,
        objects_fetched, probes, candidates, edit_comparisons, matches,
    };
}

/// Where a cell was measured: dataset, peers, partitions, carried values.
type At = (&'static str, usize, usize, bool);

impl Cell {
    fn of(at: At, s: Strategy, op: &'static str, t: &OperatorTotals) -> Self {
        let per = |n: u64| n as f64 / t.queries.max(1) as f64;
        let (m, legs) = (&t.stats.traffic, |kind: Leg| per(t.legs[kind as usize]));
        Cell {
            dataset: at.0,
            peers: at.1,
            partitions: at.2,
            carry: if at.3 { "on" } else { "off" },
            strategy: s.label(),
            operator: op,
            queries: t.queries,
            messages: per(m.messages),
            kib: per(m.bytes) / 1024.0,
            probe_legs: legs(Leg::Probe),
            fetch_legs: legs(Leg::Fetch),
            naive_legs: legs(Leg::Naive),
            join_left_legs: legs(Leg::JoinLeft),
            short_legs: legs(Leg::Short),
            route_hops: per(m.route_hops),
            forward_msgs: per(m.forward_msgs),
            result_msgs: per(m.result_msgs),
            objects_fetched: per(t.objects),
            probes: per(t.stats.probes as u64),
            candidates: per(t.stats.candidates as u64),
            edit_comparisons: per(t.stats.edit_comparisons),
            matches: t.stats.matches,
        }
    }
}

/// Everything `BENCH_figure1.json` holds.
#[derive(Debug, Clone)]
pub struct Figure1 {
    pub cells: Vec<Cell>,
    /// §2: hops per lookup, one row per peer count.
    pub routing: Vec<RoutingPoint>,
    /// §8: postings per triple as the attribute count grows.
    pub storage: Vec<OverheadPoint>,
    /// §8: publication messages per row as the attribute count grows.
    pub publish: Vec<PublishCostPoint>,
    /// A1–A5.
    pub ablation: Vec<AblationPoint>,
}

sqo_obs::json_record! { Figure1 { cells, routing, storage, publish, ablation }; }

/// Run the sweep. `progress` gets each cell as it is measured (the bin
/// prints incrementally; tests pass a no-op).
pub fn run_figure1(cfg: &Figure1Config, mut progress: impl FnMut(&Cell)) -> Figure1 {
    let (mut cells, mut routing) = (Vec::new(), Vec::new());
    for (dataset, attr) in DATASETS {
        let words = dataset == "Words";
        let size = if words { cfg.words_size } else { cfg.titles_size };
        let strings =
            if words { bible_words(size, cfg.seed) } else { painting_titles(size, cfg.seed) };
        let rows = string_rows(attr, &strings, "s");
        for carry in [false, true] {
            for &peers in &cfg.peer_counts {
                let mut engine = EngineBuilder::new()
                    .peers(peers)
                    .publish_config(PublishConfig { q: cfg.q, grams_carry_value: carry })
                    .seed(cfg.seed)
                    .build_with_rows(&rows);
                let at = (dataset, peers, engine.network().partition_count(), carry);
                for strategy in Strategy::ALL {
                    let r =
                        run_workload(&mut engine, attr, &strings, &cfg.spec, strategy, cfg.seed);
                    for (op, totals) in [("top_n", &r.top_n), ("join", &r.join)] {
                        cells.push(Cell::of(at, strategy, op, totals));
                        progress(cells.last().expect("just pushed"));
                    }
                }
                if words && !carry {
                    routing.push(measure_routing(&mut engine, LOOKUPS, size));
                }
            }
        }
    }
    Figure1 {
        cells,
        routing,
        storage: run_storage_overhead(6, 200, 3, cfg.seed),
        publish: run_publish_cost(6, 8, cfg.seed),
        ablation: run_ablations(cfg.seed),
    }
}

/// The `BENCH_figure1.json` text of `sweep`, run with `cfg`: the
/// `generated` block, then the tables. A pure function of its arguments,
/// so the same configuration yields the same bytes on any host and in
/// any build profile.
pub fn artifact(cfg: &Figure1Config, sweep: &Figure1) -> String {
    struct Artifact<'a> {
        generated: GenMeta,
        figure1: &'a Figure1,
    }
    sqo_obs::json_record! { Artifact<'a> { generated, figure1 }; }
    let queries = sweep.cells.iter().map(|c| c.queries).sum();
    let peers = cfg.peer_counts.iter().copied().max().unwrap_or(0);
    let generated = GenMeta::new(cfg.seed, peers, queries)
        .workload("words", cfg.words_size as u64)
        .workload("titles", cfg.titles_size as u64)
        .workload("initiations", cfg.spec.initiations as u64)
        .workload("peer_counts", cfg.peer_counts.len() as u64)
        .workload("q", cfg.q as u64)
        .workload("lookups", LOOKUPS as u64);
    to_json_pretty(&Artifact { generated, figure1: sweep })
}

/// Every table of `sweep` as aligned text: the cells (the four panels of
/// Figure 1 are their `msgs` and `KiB` columns), then §2, §8 and A1–A5.
pub fn render(sweep: &Figure1) -> String {
    use std::fmt::Write;
    let mut s = String::from(
        "== Figure 1: per query; legs addressed by kind ==\n\
         dataset carry   peers  parts strategy op        msgs      KiB  probe  fetch  naive   \
         left  short objects    hops     fwd replies\n",
    );
    for c in &sweep.cells {
        let _ = write!(
            s,
            "{:<7} {:<5} {:>7} {:>6} {:<8} {:<5} {:>9.1} {:>8.2}",
            c.dataset, c.carry, c.peers, c.partitions, c.strategy, c.operator, c.messages, c.kib
        );
        let legs = [c.probe_legs, c.fetch_legs, c.naive_legs, c.join_left_legs, c.short_legs];
        s.push_str(&legs.map(|l| format!(" {l:>6.1}")).concat());
        let rest = [c.objects_fetched, c.route_hops, c.forward_msgs, c.result_msgs];
        s.push_str(&rest.map(|n| format!(" {n:>7.1}")).concat());
        s.push('\n');
    }
    s.push_str(&crate::routing::render(&sweep.routing));
    s.push_str(&crate::storage_overhead::render(&sweep.storage));
    s.push_str(&crate::storage_overhead::render_publish(&sweep.publish));
    s.push_str(&crate::ablation::render(&sweep.ablation));
    s
}

/// What the tests that assert §6 on the committed bytes read.
#[cfg(test)]
pub(crate) mod committed {
    use sqo_obs::Json;

    /// The rows of `table` in the committed `BENCH_figure1.json`.
    pub(crate) fn rows(table: &str) -> Vec<Json> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figure1.json");
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let json = sqo_obs::parse_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
        let rows = json.get("figure1").and_then(|f| f.get(table)).and_then(Json::as_array);
        rows.unwrap_or_else(|| panic!("no table {table} in {path}")).to_vec()
    }

    /// Field `key` of an artifact row, as a number.
    pub(crate) fn num(row: &Json, key: &str) -> f64 {
        row.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("no number {key}"))
    }

    /// Least-squares line through `xy`: (slope, intercept, largest absolute
    /// residual).
    pub(crate) fn fit(xy: &[(f64, f64)]) -> (f64, f64, f64) {
        let n = xy.len() as f64;
        let (mx, my) =
            (xy.iter().map(|p| p.0).sum::<f64>() / n, xy.iter().map(|p| p.1).sum::<f64>() / n);
        let sxy: f64 = xy.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
        let sxx: f64 = xy.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        let worst = xy.iter().map(|(x, y)| (y - intercept - slope * x).abs()).fold(0.0, f64::max);
        (slope, intercept, worst)
    }
}

#[cfg(test)]
mod tests {
    use super::committed::{fit, num, rows};
    use super::*;
    use sqo_obs::Json;

    const METHODS: [&str; 3] = ["strings", "qsamples", "qgrams"];

    /// The committed cells of one curve, "<dataset> <carry> <method>
    /// <operator>", by ascending peer count.
    fn curve(cells: &[Json], key: &str) -> Vec<Json> {
        let keys = ["dataset", "carry", "strategy", "operator"];
        let is = |c: &&Json| {
            keys.iter().zip(key.split(' ')).all(|(k, v)| c.get(k).and_then(Json::as_str) == Some(v))
        };
        cells.iter().filter(is).cloned().collect()
    }

    /// Every curve key, carried values off and on.
    fn curves() -> Vec<String> {
        let mut out = Vec::new();
        for ds in ["Words", "Titles"] {
            for carry in ["off", "on"] {
                for m in METHODS {
                    out.extend(["top_n", "join"].map(|op| format!("{ds} {carry} {m} {op}")));
                }
            }
        }
        out
    }

    #[test]
    fn the_artifact_holds_every_cell() {
        let (cells, cfg) = (rows("cells"), Figure1Config::default());
        assert_eq!(cells.len(), curves().len() * cfg.peer_counts.len());
        for key in curves() {
            let c = curve(&cells, &key);
            assert_eq!(
                c.iter().map(|c| num(c, "peers") as usize).collect::<Vec<_>>(),
                cfg.peer_counts
            );
            for c in c {
                assert!(
                    num(&c, "queries") > 0.0 && num(&c, "messages") > 0.0 && num(&c, "kib") > 0.0
                );
            }
        }
    }

    /// Figure 1's core claim: the naive method's messages grow about
    /// linearly with the network, the q-gram method's slower.
    #[test]
    fn naive_grows_faster_than_grams() {
        let cells = rows("cells");
        for ds_op in ["Words top_n", "Words join", "Titles top_n", "Titles join"] {
            let (ds, op) = ds_op.split_once(' ').expect("two words");
            let growth = |m| {
                let c = curve(&cells, &format!("{ds} off {m} {op}"));
                num(&c[c.len() - 1], "messages") / num(&c[0], "messages")
            };
            let (naive, grams) = (growth("strings"), growth("qgrams"));
            assert!(naive > 1.5 * grams, "{ds_op}: naive grows {naive:.1}x, q-grams {grams:.1}x");
        }
    }

    /// Cheapest to dearest per panel and operator, carried values off, at
    /// each peer count: `s` strings, `m` q-samples, `g` q-grams. The naive
    /// method is cheapest in small networks (`docs/FIGURE1.md`).
    const ORDER: &str =
        "Words top_n messages smg smg sgm smg, Words join messages smg smg sgm gms, \
        Words top_n kib smg smg smg smg, Words join kib smg smg smg sgm, \
        Titles top_n messages smg smg sgm gms, Titles join messages smg smg smg gms, \
        Titles top_n kib smg smg smg smg, Titles join kib smg smg smg mgs";

    #[test]
    fn methods_rank_per_panel_as_they_stand() {
        let cells = rows("cells");
        for panel in ORDER.split(", ") {
            let words: Vec<&str> = panel.split(' ').collect();
            let (ds, op, metric, orders) = (words[0], words[1], words[2], &words[3..]);
            let by_method = METHODS.map(|m| curve(&cells, &format!("{ds} off {m} {op}")));
            for (i, want) in orders.iter().enumerate() {
                let mut at: Vec<(f64, char)> = by_method
                    .iter()
                    .zip("smg".chars())
                    .map(|(c, m)| (num(&c[i], metric), m))
                    .collect();
                at.sort_by(|a, b| a.0.total_cmp(&b.0));
                let got: String = at.iter().map(|(_, m)| m).collect();
                assert_eq!(&got, want, "{ds} {op} {metric}, peer count #{i}");
            }
        }
    }

    /// The curves whose messages fit `a + b·log2 P` at least twice as
    /// closely (largest residual) as `a + b·P`; `LINEAR` the reverse. Every
    /// other curve is bent between the two.
    const LOG: &str = "Titles off qgrams top_n, Titles off qgrams join, Titles on qsamples top_n, \
        Titles on qgrams top_n, Titles on qgrams join";
    const LINEAR: &str =
        "Words off qsamples top_n, Words off qgrams top_n, Words off qgrams join, \
        Words off strings top_n, Words off strings join, Words on strings top_n, \
        Words on strings join, Titles off strings top_n, Titles off strings join, \
        Titles on qsamples join, Titles on strings top_n, Titles on strings join";

    #[test]
    fn message_curves_fit_log_or_linear_as_they_stand() {
        let cells = rows("cells");
        for key in curves() {
            let c = curve(&cells, &key);
            let residual = |x: fn(f64) -> f64| {
                fit(&c.iter().map(|c| (x(num(c, "peers")), num(c, "messages"))).collect::<Vec<_>>())
                    .2
            };
            let (log, linear) = (residual(f64::log2), residual(|p| p));
            let shape = if log * 2.0 < linear {
                "log"
            } else if linear * 2.0 < log {
                "linear"
            } else {
                "bent"
            };
            let want = if LOG.split(", ").any(|k| k == key) {
                "log"
            } else if LINEAR.split(", ").any(|k| k == key) {
                "linear"
            } else {
                "bent"
            };
            assert_eq!(
                shape, want,
                "{key}: residual {log:.0} to a + b·log2 P, {linear:.0} to a + b·P"
            );
        }
    }

    /// A linear gram top-N curve is its object fetches: at the largest
    /// network, fetch legs are most of its legs.
    #[test]
    fn fetch_legs_are_most_of_a_linear_top_n_curves_legs() {
        let cells = rows("cells");
        for key in LINEAR.split(", ").filter(|k| k.ends_with("top_n") && !k.contains("strings")) {
            let c = curve(&cells, key).pop().expect("a curve");
            let kinds = ["probe_legs", "fetch_legs", "naive_legs", "join_left_legs", "short_legs"];
            let legs: f64 = kinds.iter().map(|k| num(&c, k)).sum();
            assert!(
                num(&c, "fetch_legs") > legs / 2.0,
                "{key}: {} of {legs} legs fetch",
                num(&c, "fetch_legs")
            );
        }
    }

    /// A query fetches each candidate's object at most once, and carried
    /// values (verifying before the fetch) never add a fetch leg.
    #[test]
    fn no_object_is_fetched_twice_and_carried_values_add_no_fetch() {
        let cells = rows("cells");
        for c in &cells {
            assert!(num(c, "objects_fetched") <= num(c, "candidates"), "{c:?}");
        }
        for key in curves().iter().filter(|k| k.contains(" off ") && !k.contains("strings")) {
            let (off, on) = (curve(&cells, key), curve(&cells, &key.replace(" off ", " on ")));
            for (off, on) in off.iter().zip(&on) {
                assert!(num(on, "fetch_legs") <= num(off, "fetch_legs"), "{key}");
            }
        }
    }

    /// Q-samples probe no more keys than q-grams anywhere, and far fewer on
    /// long titles, the q-sample sweet spot.
    #[test]
    fn qsamples_probe_fewer_keys_than_qgrams() {
        let cells = rows("cells");
        for key in curves().iter().filter(|k| k.contains("qgrams")) {
            let (grams, samples) =
                (curve(&cells, key), curve(&cells, &key.replace("qgrams", "qsamples")));
            for (g, s) in grams.iter().zip(&samples) {
                let bound = if key.starts_with("Titles") { 0.5 } else { 1.0 };
                assert!(num(s, "probes") <= bound * num(g, "probes"), "{key}");
            }
        }
    }

    /// Every method finds matches, and the naive method's hidden local
    /// cost dwarfs the q-gram method's (§6).
    #[test]
    fn every_method_finds_matches_and_naive_compares_most() {
        let cells = rows("cells");
        for key in curves().iter().filter(|k| k.contains("qgrams")) {
            let (grams, naive) =
                (curve(&cells, key), curve(&cells, &key.replace("qgrams", "strings")));
            for (g, n) in grams.iter().zip(&naive) {
                assert!(num(g, "matches") > 0.0 && num(n, "matches") > 0.0, "{key}");
                let (ng, nn) = (num(g, "edit_comparisons"), num(n, "edit_comparisons"));
                assert!(nn > 5.0 * ng, "{key}: naive compares {nn:.0}, q-grams {ng:.0}");
            }
        }
    }

    #[test]
    fn renderers_cover_every_point() {
        let cell =
            |peers, s| Cell::of(("Titles", peers, peers, true), s, "join", &Default::default());
        let sweep = Figure1 {
            cells: Strategy::ALL.iter().flat_map(|&s| [cell(64, s), cell(256, s)]).collect(),
            routing: Vec::new(),
            storage: run_storage_overhead(2, 3, 3, 1),
            publish: Vec::new(),
            ablation: Vec::new(),
        };
        let text = render(&sweep);
        assert_eq!(text.lines().filter(|l| l.starts_with("Titles  on")).count(), 6, "{text}");
        for table in ["Figure 1", "E5", "E6:", "E6b", "Ablations"] {
            assert!(text.contains(table), "{table} missing:\n{text}");
        }
        assert!(text.contains("     2        6"), "{text}");
    }
}
