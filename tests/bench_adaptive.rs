//! `BENCH_latency.json` is the golden file of the default latency sweep:
//! the first test rebuilds it in-process and demands the committed bytes,
//! so the pins below read a file that is tied to the code:
//!
//! * the artifact carries the window sweep (w1 / w8 / auto columns),
//! * `window=auto` simjoin p50 **and** p99 are no worse than the best
//!   static window (of {1, 8}) at **both 1 and 16 clients, for every
//!   latency model and cache mode** — the adaptive window never loses to
//!   the best static choice an operator could have tuned by hand,
//! * auto strictly beats the paper's serial loop (w1) somewhere, so the
//!   column is not vacuous,
//! * queue time is attributed per operator (not one run-wide figure
//!   duplicated into every row).
//!
//! Regenerate with `cargo run --release -p sqo-bench --bin latency` from
//! the repository root whenever execution economics change, and review the
//! diff.

use sqo::obs::{parse_json, Json};
use sqo_bench::latency::{artifact, run_latency_sweep, LatencyBenchConfig};
use sqo_bench::meta::golden_mismatch;
use std::collections::BTreeMap;

fn committed() -> String {
    let path = format!("{}/BENCH_latency.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn load() -> Json {
    parse_json(&committed()).unwrap_or_else(|e| panic!("parse BENCH_latency.json: {e}"))
}

fn points(artifact: &Json) -> &[Json] {
    let points = artifact.get("points").and_then(Json::as_array).expect("points array");
    assert!(!points.is_empty(), "no points in the artifact");
    points
}

fn u(p: &Json, key: &str) -> u64 {
    p.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("point field {key}"))
}

fn s<'a>(p: &'a Json, key: &str) -> &'a str {
    p.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("point field {key}"))
}

/// Any drift in the driver, the simulator or an operator, a reseeded or
/// resized sweep, and a stale or hand-edited file all fail here.
#[test]
fn committed_artifact_is_what_the_default_sweep_generates() {
    let cfg = LatencyBenchConfig::default();
    let fresh = artifact(&cfg, &run_latency_sweep(&cfg).points);
    if let Some(msg) = golden_mismatch("BENCH_latency.json", "latency", &committed(), &fresh) {
        panic!("{msg}");
    }
}

#[test]
fn committed_bench_carries_the_window_sweep() {
    let a = load();
    for w in ["w1", "w8", "auto"] {
        assert!(
            points(&a).iter().any(|p| s(p, "window") == w && s(p, "operator") == "simjoin"),
            "window column {w} missing from the committed artifact"
        );
    }
}

/// The headline: auto meets or beats the best static window everywhere
/// it matters.
#[test]
fn auto_window_meets_or_beats_best_static_at_1_and_16_clients() {
    let a = load();
    let points = points(&a);
    let find = |model: &str, clients: u64, cache: &str, window: &str| -> (u64, u64) {
        let p = points
            .iter()
            .find(|p| {
                s(p, "model") == model
                    && u(p, "clients") == clients
                    && s(p, "cache") == cache
                    && s(p, "window") == window
                    && s(p, "operator") == "simjoin"
            })
            .unwrap_or_else(|| panic!("missing point {model}/{clients}/{cache}/{window}"));
        (u(p, "p50_us"), u(p, "p99_us"))
    };
    let models: Vec<&str> = {
        let mut m: Vec<&str> = points.iter().map(|p| s(p, "model")).collect();
        m.sort_unstable();
        m.dedup();
        m
    };
    assert_eq!(models.len(), 4, "all four latency models present: {models:?}");
    let mut auto_strictly_beat_w1 = false;
    for model in &models {
        for clients in [1, 16] {
            for cache in ["off", "on"] {
                let (w1_p50, w1_p99) = find(model, clients, cache, "w1");
                let (w8_p50, w8_p99) = find(model, clients, cache, "w8");
                let (auto_p50, auto_p99) = find(model, clients, cache, "auto");
                let best_p50 = w1_p50.min(w8_p50);
                let best_p99 = w1_p99.min(w8_p99);
                assert!(
                    auto_p50 <= best_p50,
                    "{model}/{clients}c/{cache}: auto p50 {auto_p50} vs best static {best_p50}"
                );
                assert!(
                    auto_p99 <= best_p99,
                    "{model}/{clients}c/{cache}: auto p99 {auto_p99} vs best static {best_p99}"
                );
                if auto_p50 < w1_p50 {
                    auto_strictly_beat_w1 = true;
                }
            }
        }
    }
    assert!(auto_strictly_beat_w1, "auto must strictly beat the serial loop somewhere");
}

/// Queue time must be per-operator: within one run (a fixed
/// model/clients/cache/window cell) the operators' queue figures must
/// not all be identical — the old artifact duplicated the run-wide total
/// into every row.
#[test]
fn queue_time_is_attributed_per_operator() {
    let a = load();
    let mut by_run: BTreeMap<(&str, u64, &str, &str), Vec<u64>> = BTreeMap::new();
    for p in points(&a) {
        by_run
            .entry((s(p, "model"), u(p, "clients"), s(p, "cache"), s(p, "window")))
            .or_default()
            .push(u(p, "queue_us"));
    }
    let mut differentiated = 0usize;
    for (run, queues) in &by_run {
        assert!(queues.len() >= 4, "operators missing from run {run:?}");
        if queues.iter().any(|q| q != &queues[0]) {
            differentiated += 1;
        }
    }
    assert!(
        differentiated * 10 >= by_run.len() * 9,
        "queue attribution looks run-wide again: only {differentiated}/{} runs differentiated",
        by_run.len()
    );
}
