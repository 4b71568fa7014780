//! Acceptance pins on the perf-regression gate, driven against the
//! committed `BENCH_*.json` artifacts:
//!
//! * each committed baseline passes the gate against itself (with a
//!   nonzero number of gated comparisons — the gate is not vacuous),
//! * an injected +10% p99 regression (latency) / +15% RSS regression
//!   (simscale) demonstrably fails,
//! * a baseline with a perturbed generation seed is refused as
//!   incomparable ([`EXIT_MISMATCH`]) rather than diffed,
//! * both artifacts carry the `schema_version` / `generated` envelope the
//!   comparator keys on.

use sqo_bench::regress::{
    compare_artifacts, inject_regression, perturb_seed, selftest, GateConfig, EXIT_MISMATCH,
    EXIT_OK, EXIT_REGRESSION,
};
use sqo_obs::{parse_json, Json};

fn load(name: &str) -> Json {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

#[test]
fn committed_baselines_pass_against_themselves() {
    for name in ["BENCH_latency.json", "BENCH_simscale.json", "BENCH_churn.json"] {
        let a = load(name);
        let rep = compare_artifacts(&a, &a, &GateConfig::default());
        assert_eq!(rep.exit_code(), EXIT_OK, "{name}: {}", rep.render());
        assert!(rep.checked > 0, "{name}: the gate must perform comparisons");
    }
}

#[test]
fn injected_regression_fails_the_gate() {
    for name in ["BENCH_latency.json", "BENCH_simscale.json", "BENCH_churn.json"] {
        let a = load(name);
        let hurt = inject_regression(&a, 1.15);
        let rep = compare_artifacts(&a, &hurt, &GateConfig::default());
        assert_eq!(rep.exit_code(), EXIT_REGRESSION, "{name}: {}", rep.render());
    }
    // The headline number: +10% p99 on the latency artifact specifically.
    let a = load("BENCH_latency.json");
    let hurt = inject_regression(&a, 1.10);
    let rep = compare_artifacts(&a, &hurt, &GateConfig::default());
    assert_eq!(rep.exit_code(), EXIT_REGRESSION, "+10%% p99 must fail: {}", rep.render());
    assert!(rep.regressions.iter().all(|r| r.contains("p99_us")), "{:?}", rep.regressions);
}

#[test]
fn mismatched_baseline_is_refused_not_diffed() {
    for name in ["BENCH_latency.json", "BENCH_simscale.json", "BENCH_churn.json"] {
        let a = load(name);
        let reseeded = perturb_seed(&a);
        let rep = compare_artifacts(&reseeded, &a, &GateConfig::default());
        assert_eq!(rep.exit_code(), EXIT_MISMATCH, "{name}: {}", rep.render());
        assert!(rep.regressions.is_empty(), "a mismatch must pre-empt any diff");
    }
}

#[test]
fn artifacts_carry_the_generation_envelope() {
    for name in ["BENCH_latency.json", "BENCH_simscale.json", "BENCH_churn.json"] {
        let a = load(name);
        assert_eq!(
            a.get("schema_version").and_then(Json::as_u64),
            Some(u64::from(sqo_bench::meta::SCHEMA_VERSION)),
            "{name}: schema_version"
        );
        let g = a.get("generated").unwrap_or_else(|| panic!("{name}: generated block"));
        for field in ["seed", "peers", "queries"] {
            assert!(g.get(field).and_then(Json::as_u64).is_some(), "{name}: generated.{field}");
        }
        let tc = g.get("toolchain").and_then(Json::as_str).unwrap_or("");
        assert!(!tc.is_empty(), "{name}: toolchain recorded");
    }
}

#[test]
fn gate_selftest_is_healthy_on_committed_artifacts() {
    for name in ["BENCH_latency.json", "BENCH_simscale.json", "BENCH_churn.json"] {
        let failures = selftest(&load(name), &GateConfig::default());
        assert!(failures.is_empty(), "{name}: {failures:?}");
    }
}
