//! The perf-regression gate: diff a fresh bench sweep against a committed
//! `BENCH_*.json` baseline with noise-aware thresholds.
//!
//! Two artifact kinds are understood, recognised by shape:
//!
//! * **latency** (`{schema_version, generated, points: [...]}`) — points
//!   keyed on `(model, clients, cache, window, operator)`; `p50_us`
//!   and `p99_us` regress when the current value exceeds the baseline by
//!   more than [`GateConfig::rel_latency`] *and* an absolute floor
//!   ([`GateConfig::abs_floor_us`] — sub-floor jitter on microsecond-scale
//!   points never trips the gate); `messages` regress beyond
//!   [`GateConfig::rel_messages`] (virtual traffic is deterministic, so
//!   the tolerance is tight).
//! * **simscale** (`{schema_version, generated, builds, scale, ...}`) —
//!   `deterministic: false` is an unconditional failure,
//!   `rss_per_peer_bytes` of the largest build regresses beyond
//!   [`GateConfig::rel_rss`]; wall-clock throughput (`events_per_sec`,
//!   `speedup_vs_serial`) is **report-only** — CI boxes are too noisy to
//!   gate on.
//! * **churn** (`{schema_version, generated, churn_grid: [...]}`) — the
//!   replication-payoff study, keyed on `(churn_permille, repair, model)`;
//!   `late_p50_us` / `late_p99_us` regress like latency points, and
//!   `late_completeness_milli` regresses when it *drops* below the
//!   baseline at all (completeness under a deterministic fault plan is
//!   exact — any decay is a robustness regression, not noise).
//!
//! Before any diff the gate checks `schema_version` and the `generated`
//! block: a different schema, seed or workload size is not a regression
//! but an **apples-to-oranges mismatch**, reported with its own exit code
//! ([`EXIT_MISMATCH`]) so CI can distinguish "the code got slower" from
//! "the baseline needs regenerating". Toolchain drift only warns.

use sqo_obs::Json;

/// Everything matches the baseline within thresholds.
pub const EXIT_OK: i32 = 0;
/// At least one gated metric regressed.
pub const EXIT_REGRESSION: i32 = 1;
/// Bad invocation or unreadable artifact.
pub const EXIT_USAGE: i32 = 2;
/// Baseline and current artifact are not comparable (schema version,
/// seed or workload differ) — regenerate the baseline instead.
pub const EXIT_MISMATCH: i32 = 3;

/// Noise thresholds of the gate. The defaults are deliberately tighter
/// than the +10% injection the self-test uses: a 5% latency drift with a
/// 50µs floor, 2% on deterministic message counts, 10% on RSS.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Relative headroom on `p50_us` / `p99_us`.
    pub rel_latency: f64,
    /// Absolute floor under which latency drift never trips the gate.
    pub abs_floor_us: u64,
    /// Relative headroom on per-point `messages`.
    pub rel_messages: f64,
    /// Relative headroom on `rss_per_peer_bytes`.
    pub rel_rss: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self { rel_latency: 0.05, abs_floor_us: 50, rel_messages: 0.02, rel_rss: 0.10 }
    }
}

/// Outcome of one gate run.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// `"latency"` or `"simscale"`.
    pub kind: String,
    /// Gated comparisons performed.
    pub checked: usize,
    /// One line per regressed metric.
    pub regressions: Vec<String>,
    /// Report-only observations (throughput drift, extra points…).
    pub notes: Vec<String>,
    /// Set when the artifacts are not comparable; pre-empts any diff.
    pub mismatch: Option<String>,
}

impl GateReport {
    pub fn ok(&self) -> bool {
        self.mismatch.is_none() && self.regressions.is_empty()
    }

    pub fn exit_code(&self) -> i32 {
        if self.mismatch.is_some() {
            EXIT_MISMATCH
        } else if self.regressions.is_empty() {
            EXIT_OK
        } else {
            EXIT_REGRESSION
        }
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        if let Some(m) = &self.mismatch {
            s.push_str(&format!("MISMATCH ({}): {m}\n", self.kind));
            s.push_str("baseline and current are not comparable; regenerate the baseline\n");
            return s;
        }
        for n in &self.notes {
            s.push_str(&format!("note: {n}\n"));
        }
        for r in &self.regressions {
            s.push_str(&format!("REGRESSION: {r}\n"));
        }
        s.push_str(&format!(
            "{}: {} comparisons, {} regressions -> {}\n",
            self.kind,
            self.checked,
            self.regressions.len(),
            if self.ok() { "PASS" } else { "FAIL" }
        ));
        s
    }
}

fn u64_of(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or("")
}

/// `(model, clients, cache, window, operator)` — the latency sweep's
/// point identity.
fn latency_key(p: &Json) -> String {
    format!(
        "{}/{}c/cache={}/{}/{}",
        str_of(p, "model"),
        u64_of(p, "clients"),
        str_of(p, "cache"),
        str_of(p, "window"),
        str_of(p, "operator"),
    )
}

/// Compare the `schema_version` + `generated` envelopes. Returns a
/// mismatch description, or `None` when comparable (toolchain drift goes
/// to `notes` instead).
fn check_envelope(base: &Json, cur: &Json, notes: &mut Vec<String>) -> Option<String> {
    let bv = base.get("schema_version").and_then(Json::as_u64);
    let cv = cur.get("schema_version").and_then(Json::as_u64);
    match (bv, cv) {
        (None, _) => return Some("baseline has no schema_version (pre-gate artifact)".into()),
        (_, None) => return Some("current artifact has no schema_version".into()),
        (Some(b), Some(c)) if b != c => {
            return Some(format!("schema_version {b} (baseline) vs {c} (current)"))
        }
        _ => {}
    }
    let (bg, cg) = (base.get("generated"), cur.get("generated"));
    let (Some(bg), Some(cg)) = (bg, cg) else {
        return Some("missing generated block".into());
    };
    for field in ["seed", "peers", "queries"] {
        let (b, c) = (u64_of(bg, field), u64_of(cg, field));
        if b != c {
            return Some(format!("generated.{field} {b} (baseline) vs {c} (current)"));
        }
    }
    if let (Some(bw), Some(cw)) =
        (bg.get("workload").and_then(Json::as_object), cg.get("workload").and_then(Json::as_object))
    {
        for (name, bv) in bw {
            let cv = cw.get(name).and_then(Json::as_u64);
            if cv != bv.as_u64() {
                return Some(format!("generated.workload.{name} differs"));
            }
        }
    }
    let (bt, ct) = (str_of(bg, "toolchain"), str_of(cg, "toolchain"));
    if bt != ct {
        notes.push(format!("toolchain drift: {bt:?} -> {ct:?}"));
    }
    None
}

fn gate_latency(base: &Json, cur: &Json, cfg: &GateConfig, rep: &mut GateReport) {
    let empty: Vec<Json> = Vec::new();
    let base_pts = base.get("points").and_then(Json::as_array).unwrap_or(&empty);
    let cur_pts = cur.get("points").and_then(Json::as_array).unwrap_or(&empty);
    let cur_by_key: std::collections::BTreeMap<String, &Json> =
        cur_pts.iter().map(|p| (latency_key(p), p)).collect();
    if cur_pts.len() > base_pts.len() {
        rep.notes.push(format!(
            "current sweep has {} points vs {} in the baseline",
            cur_pts.len(),
            base_pts.len()
        ));
    }
    for bp in base_pts {
        let key = latency_key(bp);
        let Some(cp) = cur_by_key.get(&key) else {
            rep.regressions.push(format!("{key}: point missing from current sweep"));
            continue;
        };
        for metric in ["p50_us", "p99_us"] {
            rep.checked += 1;
            let (b, c) = (u64_of(bp, metric), u64_of(cp, metric));
            let limit = (b as f64 * (1.0 + cfg.rel_latency)) + cfg.abs_floor_us as f64;
            if c as f64 > limit {
                rep.regressions.push(format!(
                    "{key}: {metric} {b} -> {c} (+{:.1}%, limit {:.0})",
                    (c as f64 / b.max(1) as f64 - 1.0) * 100.0,
                    limit
                ));
            }
        }
        rep.checked += 1;
        let (b, c) = (u64_of(bp, "messages"), u64_of(cp, "messages"));
        if c as f64 > b as f64 * (1.0 + cfg.rel_messages) + 1.0 {
            rep.regressions.push(format!("{key}: messages {b} -> {c}"));
        }
    }
}

/// `(churn_permille, repair, model)` — the churn grid's point identity.
fn churn_key(p: &Json) -> String {
    format!(
        "{}permille/repair={}/{}",
        u64_of(p, "churn_permille"),
        str_of(p, "repair"),
        str_of(p, "model"),
    )
}

fn gate_churn(base: &Json, cur: &Json, cfg: &GateConfig, rep: &mut GateReport) {
    let empty: Vec<Json> = Vec::new();
    let base_pts = base.get("churn_grid").and_then(Json::as_array).unwrap_or(&empty);
    let cur_pts = cur.get("churn_grid").and_then(Json::as_array).unwrap_or(&empty);
    let cur_by_key: std::collections::BTreeMap<String, &Json> =
        cur_pts.iter().map(|p| (churn_key(p), p)).collect();
    for bp in base_pts {
        let key = churn_key(bp);
        let Some(cp) = cur_by_key.get(&key) else {
            rep.regressions.push(format!("{key}: point missing from current sweep"));
            continue;
        };
        for metric in ["late_p50_us", "late_p99_us"] {
            rep.checked += 1;
            let (b, c) = (u64_of(bp, metric), u64_of(cp, metric));
            let limit = (b as f64 * (1.0 + cfg.rel_latency)) + cfg.abs_floor_us as f64;
            if c as f64 > limit {
                rep.regressions.push(format!(
                    "{key}: {metric} {b} -> {c} (+{:.1}%, limit {:.0})",
                    (c as f64 / b.max(1) as f64 - 1.0) * 100.0,
                    limit
                ));
            }
        }
        // Completeness is deterministic under the scripted fault plan:
        // gate exactly, no noise headroom.
        rep.checked += 1;
        let (b, c) = (u64_of(bp, "late_completeness_milli"), u64_of(cp, "late_completeness_milli"));
        if c < b {
            rep.regressions.push(format!("{key}: late_completeness_milli {b} -> {c}"));
        }
    }
}

fn gate_simscale(base: &Json, cur: &Json, cfg: &GateConfig, rep: &mut GateReport) {
    rep.checked += 1;
    if cur.get("deterministic").and_then(Json::as_bool) != Some(true) {
        rep.regressions.push("deterministic: sharded engines diverged from serial".into());
    }
    let largest = |j: &Json| {
        j.get("builds")
            .and_then(Json::as_array)
            .and_then(|b| b.iter().max_by_key(|p| u64_of(p, "peers")))
            .map(|p| (u64_of(p, "peers"), u64_of(p, "rss_per_peer_bytes")))
    };
    if let (Some((bp, brss)), Some((cp, crss))) = (largest(base), largest(cur)) {
        rep.checked += 1;
        if bp == cp && crss as f64 > brss as f64 * (1.0 + cfg.rel_rss) {
            rep.regressions.push(format!(
                "rss_per_peer_bytes at {bp} peers: {brss} -> {crss} (limit +{:.0}%)",
                cfg.rel_rss * 100.0
            ));
        }
    }
    // Wall-clock is report-only: surface drift, never gate on it.
    let eps =
        |j: &Json| j.path(&["metrics", "gauges", "sim.events_per_sec"]).and_then(Json::as_f64);
    if let (Some(b), Some(c)) = (eps(base), eps(cur)) {
        if b > 0.0 {
            rep.notes.push(format!(
                "sim.events_per_sec {:.0} -> {:.0} ({:+.1}%, report-only)",
                b,
                c,
                (c / b - 1.0) * 100.0
            ));
        }
    }
}

/// Diff `cur` against `base`. The artifact kind is recognised from the
/// shape (`points` = latency, `scale`/`builds` = simscale); mixing kinds
/// is a mismatch.
pub fn compare_artifacts(base: &Json, cur: &Json, cfg: &GateConfig) -> GateReport {
    let kind_of = |j: &Json| {
        if j.get("points").is_some() {
            "latency"
        } else if j.get("churn_grid").is_some() {
            "churn"
        } else if j.get("scale").is_some() || j.get("builds").is_some() {
            "simscale"
        } else {
            "unknown"
        }
    };
    let (bk, ck) = (kind_of(base), kind_of(cur));
    let mut rep = GateReport { kind: bk.into(), ..GateReport::default() };
    if bk != ck || bk == "unknown" {
        rep.mismatch = Some(format!("artifact kinds differ or unrecognised: {bk} vs {ck}"));
        return rep;
    }
    rep.mismatch = check_envelope(base, cur, &mut rep.notes);
    if rep.mismatch.is_some() {
        return rep;
    }
    match bk {
        "latency" => gate_latency(base, cur, cfg, &mut rep),
        "churn" => gate_churn(base, cur, cfg, &mut rep),
        _ => gate_simscale(base, cur, cfg, &mut rep),
    }
    rep
}

/// Return a copy of a latency artifact with every point's `p99_us`
/// inflated by `factor` — the self-test's synthetic regression. A churn
/// artifact gets `late_p99_us` inflated, a simscale artifact the largest
/// build's `rss_per_peer_bytes`.
pub fn inject_regression(artifact: &Json, factor: f64) -> Json {
    let mut j = artifact.clone();
    let scale_num = |v: &mut Json| {
        if let Json::Num(n) = v {
            *n = (*n * factor).ceil();
        }
    };
    if let Json::Obj(o) = &mut j {
        if let Some(Json::Arr(points)) = o.get_mut("points") {
            for p in points {
                if let Json::Obj(po) = p {
                    if let Some(v) = po.get_mut("p99_us") {
                        scale_num(v);
                    }
                }
            }
        }
        if let Some(Json::Arr(points)) = o.get_mut("churn_grid") {
            for p in points {
                if let Json::Obj(po) = p {
                    if let Some(v) = po.get_mut("late_p99_us") {
                        scale_num(v);
                    }
                }
            }
        }
        if let Some(Json::Arr(builds)) = o.get_mut("builds") {
            if let Some(Json::Obj(po)) = builds.iter_mut().max_by_key(|p| u64_of(p, "peers")) {
                if let Some(v) = po.get_mut("rss_per_peer_bytes") {
                    scale_num(v);
                }
            }
        }
    }
    j
}

/// Return a copy of the artifact with `generated.seed` bumped — the
/// self-test's mismatched baseline.
pub fn perturb_seed(artifact: &Json) -> Json {
    let mut j = artifact.clone();
    if let Json::Obj(o) = &mut j {
        if let Some(Json::Obj(g)) = o.get_mut("generated") {
            if let Some(Json::Num(n)) = g.get_mut("seed") {
                *n += 1.0;
            }
        }
    }
    j
}

/// The gate's self-test: the artifact must pass against itself, fail
/// against an injected +10% regression, and refuse a seed-perturbed copy
/// with [`EXIT_MISMATCH`]. Returns the failures (empty = healthy).
pub fn selftest(artifact: &Json, cfg: &GateConfig) -> Vec<String> {
    let mut failures = Vec::new();
    let clean = compare_artifacts(artifact, artifact, cfg);
    if !clean.ok() || clean.checked == 0 {
        failures.push(format!(
            "self-compare must pass with >0 checks (checked={}, ok={})",
            clean.checked,
            clean.ok()
        ));
    }
    let injected = inject_regression(artifact, 1.10);
    let hurt = compare_artifacts(artifact, &injected, cfg);
    if hurt.exit_code() != EXIT_REGRESSION {
        failures.push(format!(
            "gate must fail on an injected +10% regression (exit={})",
            hurt.exit_code()
        ));
    }
    let reseeded = perturb_seed(artifact);
    let mismatched = compare_artifacts(&reseeded, artifact, cfg);
    if mismatched.exit_code() != EXIT_MISMATCH {
        failures.push(format!(
            "gate must refuse a baseline with a different seed (exit={})",
            mismatched.exit_code()
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_obs::parse_json;

    fn latency_artifact() -> Json {
        parse_json(
            r#"{
              "schema_version": 1,
              "generated": {"seed": 73, "peers": 256, "queries": 288,
                            "toolchain": "rustc 1.0", "workload": {"words": 2000}},
              "points": [
                {"model": "constant", "clients": 1, "cache": "off", "window": "w1",
                 "operator": "similar", "p50_us": 10000, "p99_us": 20000, "messages": 100},
                {"model": "constant", "clients": 16, "cache": "on", "window": "auto",
                 "operator": "simjoin", "p50_us": 40000, "p99_us": 90000, "messages": 400}
              ]
            }"#,
        )
        .expect("valid artifact")
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = latency_artifact();
        let rep = compare_artifacts(&a, &a, &GateConfig::default());
        assert!(rep.ok(), "{}", rep.render());
        assert_eq!(rep.checked, 6);
        assert_eq!(rep.exit_code(), EXIT_OK);
    }

    #[test]
    fn injected_ten_percent_p99_fails() {
        let a = latency_artifact();
        let hurt = inject_regression(&a, 1.10);
        let rep = compare_artifacts(&a, &hurt, &GateConfig::default());
        assert_eq!(rep.exit_code(), EXIT_REGRESSION, "{}", rep.render());
        assert!(rep.regressions.iter().all(|r| r.contains("p99_us")), "{:?}", rep.regressions);
    }

    #[test]
    fn sub_floor_jitter_does_not_trip() {
        let a = latency_artifact();
        // +40µs on a 10ms point is under the 50µs absolute floor even
        // though the relative threshold alone would allow far more.
        let cfg = GateConfig { rel_latency: 0.0, ..GateConfig::default() };
        let mut hurt = a.clone();
        if let Json::Obj(o) = &mut hurt {
            if let Some(Json::Arr(p)) = o.get_mut("points") {
                if let Json::Obj(po) = &mut p[0] {
                    po.insert("p99_us".into(), Json::Num(20040.0));
                }
            }
        }
        let rep = compare_artifacts(&a, &hurt, &cfg);
        assert!(rep.ok(), "{}", rep.render());
    }

    #[test]
    fn different_seed_is_a_mismatch_not_a_regression() {
        let a = latency_artifact();
        let b = perturb_seed(&a);
        let rep = compare_artifacts(&b, &a, &GateConfig::default());
        assert_eq!(rep.exit_code(), EXIT_MISMATCH, "{}", rep.render());
    }

    #[test]
    fn missing_point_is_a_regression() {
        let a = latency_artifact();
        let mut b = a.clone();
        if let Json::Obj(o) = &mut b {
            if let Some(Json::Arr(p)) = o.get_mut("points") {
                p.pop();
            }
        }
        let rep = compare_artifacts(&a, &b, &GateConfig::default());
        assert_eq!(rep.exit_code(), EXIT_REGRESSION);
        assert!(rep.regressions[0].contains("missing"), "{:?}", rep.regressions);
    }

    #[test]
    fn selftest_passes_on_a_healthy_artifact() {
        let a = latency_artifact();
        assert!(selftest(&a, &GateConfig::default()).is_empty());
    }

    fn churn_artifact() -> Json {
        parse_json(
            r#"{
              "schema_version": 1,
              "generated": {"seed": 73, "peers": 128, "queries": 384,
                            "toolchain": "rustc 1.0", "workload": {"min_alive": 2}},
              "churn_grid": [
                {"churn_permille": 0, "repair": "off", "model": "uniform",
                 "late_p50_us": 33000, "late_p99_us": 180000,
                 "late_completeness_milli": 1000},
                {"churn_permille": 80, "repair": "on", "model": "uniform",
                 "late_p50_us": 34000, "late_p99_us": 175000,
                 "late_completeness_milli": 1000}
              ]
            }"#,
        )
        .expect("valid artifact")
    }

    #[test]
    fn churn_artifact_passes_against_itself_and_fails_injected() {
        let a = churn_artifact();
        let rep = compare_artifacts(&a, &a, &GateConfig::default());
        assert!(rep.ok(), "{}", rep.render());
        assert_eq!(rep.kind, "churn");
        assert_eq!(rep.checked, 6);
        let hurt = inject_regression(&a, 1.10);
        let rep = compare_artifacts(&a, &hurt, &GateConfig::default());
        assert_eq!(rep.exit_code(), EXIT_REGRESSION, "{}", rep.render());
        assert!(rep.regressions.iter().all(|r| r.contains("late_p99_us")), "{:?}", rep.regressions);
    }

    #[test]
    fn any_completeness_decay_is_a_churn_regression() {
        let a = churn_artifact();
        // One permille of lost answers: under the absolute-exactness rule
        // for deterministic completeness this must fail, even though the
        // same relative drift on a latency metric would pass.
        let mut hurt = a.clone();
        if let Json::Obj(o) = &mut hurt {
            if let Some(Json::Arr(p)) = o.get_mut("churn_grid") {
                if let Json::Obj(po) = &mut p[1] {
                    po.insert("late_completeness_milli".into(), Json::Num(999.0));
                }
            }
        }
        let rep = compare_artifacts(&a, &hurt, &GateConfig::default());
        assert_eq!(rep.exit_code(), EXIT_REGRESSION, "{}", rep.render());
        assert!(
            rep.regressions.iter().all(|r| r.contains("late_completeness_milli")),
            "{:?}",
            rep.regressions
        );
    }

    #[test]
    fn churn_and_latency_kinds_do_not_mix() {
        let rep = compare_artifacts(&churn_artifact(), &latency_artifact(), &GateConfig::default());
        assert_eq!(rep.exit_code(), EXIT_MISMATCH, "{}", rep.render());
    }
}
