//! Acceptance pins on the committed `BENCH_simscale.json`:
//!
//! * the build sweep reaches 10⁵ peers and the arena-backed overlay
//!   stays under a third of the seed's 5 649 B/peer resident footprint,
//! * the event-core sweep drives the 10³-query workload, and the sharded
//!   windowed core (shards ≥ 2) beats the serial heap baseline by ≥ 1.5× events/sec,
//! * every engine configuration produced the same `ScaleOutcome`
//!   (`deterministic: true`, equal checksums),
//! * the `sim.*` metric gauges are wired into the artifact.
//!
//! The committed file is a deterministic-workload run of
//! `cargo run --release -p sqo-bench --bin simscale`; regenerate it
//! whenever overlay state or event-core economics change.

use sqo::obs::{parse_json, Json};

fn load() -> Json {
    let path = format!("{}/BENCH_simscale.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn points<'a>(artifact: &'a Json, list: &str) -> &'a [Json] {
    let points = artifact.get(list).and_then(Json::as_array).unwrap_or_else(|| panic!("{list}[]"));
    assert!(!points.is_empty(), "no {list} points in the artifact");
    points
}

fn u(p: &Json, key: &str) -> u64 {
    p.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("field {key}"))
}

fn f(p: &Json, key: &str) -> f64 {
    p.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("field {key}"))
}

fn is(p: &Json, key: &str, want: &str) -> bool {
    p.get(key).and_then(Json::as_str) == Some(want)
}

/// The headline RSS claim: 10⁵ peers on board, and the arena overlay
/// holds at most a third of the seed's per-peer resident footprint.
#[test]
fn overlay_rss_per_peer_beats_seed_by_3x() {
    let a = load();
    let big = points(&a, "builds")
        .iter()
        .find(|b| u(b, "peers") >= 100_000)
        .expect("a 10^5-peer build point");
    let seed = u(&a, "seed_rss_per_peer_bytes");
    assert_eq!(seed, 5_649, "seed baseline recorded in the artifact");
    let rss = u(big, "rss_per_peer_bytes");
    assert!(rss <= seed / 3, "rss {rss} B/peer exceeds a third of the {seed} B/peer seed");
}

/// The headline throughput claim: on one core, the windowed sharded core
/// beats the serial heap baseline by ≥ 1.5× events/sec at shards ≥ 2.
#[test]
fn sharded_core_beats_serial_by_1_5x() {
    let a = load();
    let scale = points(&a, "scale");
    let serial = scale.iter().find(|s| is(s, "mode", "serial")).expect("a serial baseline point");
    assert_eq!(u(serial, "queries"), 1_000, "the 10^3-query sweep");
    let serial_eps = f(serial, "events_per_sec");
    assert!(serial_eps > 0.0);
    let sharded: Vec<&Json> =
        scale.iter().filter(|s| is(s, "mode", "sharded") && u(s, "shards") >= 2).collect();
    assert!(sharded.len() >= 2, "sharded sweep covers at least two shard counts");
    for s in sharded {
        let ratio = f(s, "events_per_sec") / serial_eps;
        assert!(ratio >= 1.5, "shards={} only reached {ratio:.2}x serial", u(s, "shards"));
    }
}

/// Determinism: the artifact's engines all agreed, every query completed,
/// and all configurations carry the same outcome checksum (compared as
/// parsed — `f64`-rounded — numbers; the exact `u64` comparison is the
/// bench's own `deterministic` flag).
#[test]
fn all_engines_agreed_and_completed() {
    let a = load();
    assert_eq!(
        a.get("deterministic").and_then(Json::as_bool),
        Some(true),
        "engines diverged in the committed run"
    );
    let scale = points(&a, "scale");
    let first = &scale[0];
    assert_eq!(u(first, "queries_done"), u(first, "queries"), "all queries completed");
    for s in scale {
        assert_eq!(u(s, "queries_done"), u(first, "queries_done"));
        assert_eq!(s.get("checksum"), first.get("checksum"), "outcome checksum differs for {s:?}");
    }
}

/// The `sim.*` gauges are folded into the artifact's metrics registry —
/// including the per-shard telemetry of the windowed core (occupancy,
/// imbalance, conservative-window stalls, and the events-per-shard
/// histogram).
#[test]
fn sim_metrics_are_exported() {
    let a = load();
    let metrics = a.get("metrics").and_then(Json::as_object).expect("metrics registry");
    // Gauges, counters and histograms are sections keyed by metric name.
    let exported = |name: &str| metrics.values().any(|section| section.get(name).is_some());
    for g in [
        "sim.events_per_sec",
        "sim.rss_peak_bytes",
        "sim.rss_per_peer_bytes",
        "sim.shard.count",
        "sim.shard.events_max",
        "sim.shard.events_min",
        "sim.shard.imbalance",
        "sim.shard.windows_swept",
        "sim.shard.empty_windows",
        "sim.shard.events",
    ] {
        assert!(exported(g), "metric {g} missing from registry");
    }
}
