//! `BENCH_churn.json` is the golden file of the default replication-payoff
//! sweep: the first test rebuilds it in-process and demands the committed
//! bytes, so the long-horizon pins below (PR 10 acceptance) read a file
//! that is tied to the code:
//!
//! * with repair **on**, the churned cell keeps late-horizon completeness
//!   ≥ 0.999 with zero lost partitions and stationary tail latency,
//! * with repair **off**, the same fault plan decays the overlay — late
//!   completeness drops below the repair-on cell,
//! * the fault-free control rows are identical between repair off/on
//!   (zero-fault equivalence, pinned in the artifact itself).
//!
//! Regenerate with `cargo run --release -p sqo-bench --bin churn` from the
//! repository root, and review the diff.

use sqo_bench::churn::{artifact, run_churn_bench, ChurnBenchConfig};
use sqo_bench::meta::golden_mismatch;
use sqo_obs::{parse_json, Json};

fn committed() -> String {
    let path = format!("{}/BENCH_churn.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn load() -> Json {
    parse_json(&committed()).unwrap_or_else(|e| panic!("parse BENCH_churn.json: {e}"))
}

fn grid(artifact: &Json) -> &[Json] {
    artifact.get("churn_grid").and_then(Json::as_array).expect("churn_grid array")
}

fn u(p: &Json, key: &str) -> u64 {
    p.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("point field {key}"))
}

fn s<'a>(p: &'a Json, key: &str) -> &'a str {
    p.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("point field {key}"))
}

fn find<'a>(points: &'a [Json], churned: bool, repair: &str) -> &'a Json {
    points
        .iter()
        .find(|p| (u(p, "churn_permille") > 0) == churned && s(p, "repair") == repair)
        .unwrap_or_else(|| panic!("no churned={churned} repair={repair} point"))
}

/// Any drift in the fault plan, the repair loop or the driver, a resized
/// sweep, and a stale or hand-edited file all fail here. Running the
/// sweep here is also its determinism check: it must land on bytes
/// another process wrote.
#[test]
fn committed_artifact_is_what_the_default_sweep_generates() {
    let cfg = ChurnBenchConfig::default();
    let fresh = artifact(&cfg, &run_churn_bench(&cfg));
    if let Some(msg) = golden_mismatch("BENCH_churn.json", "churn", &committed(), &fresh) {
        panic!("{msg}");
    }
}

#[test]
fn repair_on_keeps_late_horizon_completeness_while_repair_off_decays() {
    let a = load();
    let points = grid(&a);
    let on = find(points, true, "on");
    let off = find(points, true, "off");

    // The healed overlay answers (essentially) everything in the late half.
    assert!(
        u(on, "late_completeness_milli") >= 999,
        "repair-on late completeness decayed: {}",
        u(on, "late_completeness_milli")
    );
    assert_eq!(u(on, "lost_partitions"), 0, "repair must leave no partition dead");
    assert!(u(on, "repair_passes") > 0, "the churned cell must actually run repair");
    assert!(u(on, "recruited") > 0, "repair must recruit replacement replicas");
    // Peers sit only where the data is, so every partition repair heals
    // holds some, and every recruit copies it.
    for p in points.iter().filter(|p| u(p, "recruited") > 0) {
        assert!(u(p, "repair_bytes") > 0, "{} recruits copied nothing", u(p, "recruited"));
    }

    // Without repair the same fault plan kills partitions' last replicas
    // and late-horizon completeness visibly decays.
    assert!(
        u(off, "late_completeness_milli") < 999,
        "repair-off should decay under the committed fault plan, got {}",
        u(off, "late_completeness_milli")
    );
    assert!(
        u(off, "late_completeness_milli") < u(on, "late_completeness_milli"),
        "repair must strictly improve late completeness"
    );
    assert_eq!(u(off, "recruited"), 0, "repair-off rows must recruit nothing");
}

#[test]
fn repair_on_tail_latency_stays_stationary() {
    let a = load();
    let points = grid(&a);
    let on = find(points, true, "on");
    let off = find(points, true, "off");
    let control = find(points, false, "on");

    // Healed late-half tail stays within the fault-free envelope (+25%):
    // repair removes the dead-replica retries that inflate the tail.
    let budget = u(control, "late_p99_us") + u(control, "late_p99_us") / 4;
    assert!(
        u(on, "late_p99_us") <= budget,
        "repair-on late p99 {}us exceeds control-derived budget {}us",
        u(on, "late_p99_us"),
        budget
    );
    // The decayed overlay's tail is visibly worse than the healed one.
    assert!(
        u(off, "late_p99_us") > u(on, "late_p99_us"),
        "repair-off late p99 {}us should exceed repair-on {}us",
        u(off, "late_p99_us"),
        u(on, "late_p99_us")
    );
}

#[test]
fn fault_free_control_rows_are_identical_across_repair_modes() {
    let a = load();
    let points = grid(&a);
    let off = find(points, false, "off");
    let on = find(points, false, "on");
    // Installing a repair policy must be a no-op without faults: every
    // measured field of the control rows agrees.
    for key in [
        "early_p50_us",
        "early_p99_us",
        "late_p50_us",
        "late_p99_us",
        "early_completeness_milli",
        "late_completeness_milli",
        "retries",
        "gave_up",
        "messages",
        "skipped_arrivals",
    ] {
        assert_eq!(u(off, key), u(on, key), "control rows disagree on {key}");
    }
    assert_eq!(u(off, "late_completeness_milli"), 1000, "fault-free runs are complete");
    for key in ["repair_passes", "recruited", "repair_bytes", "lost_partitions"] {
        assert_eq!(u(on, key), 0, "no faults ⇒ no {key}");
    }
}
