//! The replication-payoff study: the §6 query mix driven through a
//! deterministic crash-wave fault plan ([`sqo_sim::FaultPlan::periodic`]),
//! with self-healing repair off vs on — the robustness counterpart of the
//! latency sweep. Each cell reports the driver's **early/late phase
//! split**: with repair off the overlay decays (partitions lose their
//! last alive replica and late-horizon completeness drops), with repair
//! on ([`sqo_overlay::ReplicationPolicy`]) the late half stays whole.
//! The fault-free control row (`churn_permille = 0`) pins the zero-fault
//! equivalence in the artifact itself: repair-off and repair-on rows are
//! identical when nothing ever fails.
//!
//! The committed `BENCH_churn.json` at the repository root is the
//! **golden file** of the default configuration: `tests/bench_churn.rs`
//! rebuilds [`artifact`] in-process and demands the committed bytes, then
//! pins the claims the file makes.

use crate::meta::GenMeta;
use sqo_core::{DegradePolicy, EngineBuilder, JoinWindow, SimilarityEngine, Strategy};
use sqo_datasets::{bible_words, string_rows};
use sqo_obs::to_json_pretty;
use sqo_overlay::ReplicationPolicy;
use sqo_sim::{
    run_driver, Arrival, DriverConfig, DriverReport, FaultPlan, LatencyModel, PhaseSummary,
    QueryKind, SimConfig,
};

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ChurnBenchConfig {
    pub words: usize,
    pub peers: usize,
    /// Structural replication factor the world is built with.
    pub replication: usize,
    pub clients: usize,
    pub queries_per_client: usize,
    pub mean_interarrival_us: u64,
    pub model: LatencyModel,
    /// Per-wave crash fractions swept, in permille. `0` is the fault-free
    /// control row (no events injected — the zero-fault-equivalence cell).
    pub crash_permilles: Vec<u64>,
    /// Crash-wave cadence of the periodic fault plan.
    pub period_us: u64,
    /// Fault-plan horizon. Sized to end **inside the run's first half**:
    /// the burst of crash waves hits the early phase, and the late phase
    /// measures the steady state it leaves behind — healed (repair on) or
    /// decayed (repair off). A plan spanning the whole run would instead
    /// measure in-flight message loss, which no repair can undo.
    pub horizon_us: u64,
    /// Repair target when the repair-on cell runs.
    pub min_alive: usize,
    /// Graceful-degradation policy installed on every engine (per-leg
    /// retries keep reachable partitions answering around dead replicas,
    /// so completeness isolates *lost* partitions, not unlucky routing).
    pub retries: u32,
    pub backoff_us: u64,
    pub strategy: Strategy,
    pub seed: u64,
}

impl Default for ChurnBenchConfig {
    /// Replication 1 at 110 ‰ a wave: peers go where the data is, so this
    /// world's 1 200 words sit on a few partitions each dealt members by
    /// its load, the light ones one or two. At replication 4 the data sits
    /// on 3 partitions of 34 to 60 members, which 8 % waves never push
    /// below two: repair had nothing to heal and no partition was lost
    /// without it.
    fn default() -> Self {
        Self {
            words: 1_200,
            peers: 128,
            replication: 1,
            clients: 8,
            queries_per_client: 12,
            mean_interarrival_us: 200_000,
            model: LatencyModel::Uniform { min_us: 300, max_us: 4_000 },
            crash_permilles: vec![0, 110],
            period_us: 125_000,
            horizon_us: 750_000,
            min_alive: 2,
            retries: 2,
            backoff_us: 500,
            strategy: Strategy::QGrams,
            seed: 73,
        }
    }
}

/// One (churn level × repair mode) measurement.
#[derive(Debug, Clone)]
pub struct ChurnPoint {
    /// Per-wave crash fraction in permille (0 = fault-free control).
    pub churn_permille: u64,
    /// Self-healing mode label ("off" / "on").
    pub repair: String,
    pub model: String,
    /// Latency percentiles of the run's first half…
    pub early_p50_us: u64,
    pub early_p99_us: u64,
    /// …and its second half — stationary under repair, inflated without.
    pub late_p50_us: u64,
    pub late_p99_us: u64,
    /// Result completeness (answered/addressed partitions) per half, both
    /// as a raw rate and in permille (the integer the tests compare).
    pub early_completeness: f64,
    pub early_completeness_milli: u64,
    pub late_completeness: f64,
    pub late_completeness_milli: u64,
    /// Leg retries performed / queries that exhausted their retry budget.
    pub retries: u64,
    pub gave_up: u64,
    /// Self-healing totals (all zero in the repair-off rows).
    pub repair_passes: u64,
    pub recruited: u64,
    pub repair_bytes: u64,
    /// Partitions with zero alive replicas after the last pass.
    pub lost_partitions: u64,
    pub unfilled_deficits: u64,
    /// Overlay messages of the whole run (repair traffic is charged here).
    pub messages: u64,
    /// Arrivals that found no alive initiator and were skipped.
    pub skipped_arrivals: u64,
}

sqo_obs::json_record! {
    ChurnPoint {
        churn_permille, repair, model, early_p50_us, early_p99_us, late_p50_us, late_p99_us,
        early_completeness, early_completeness_milli, late_completeness, late_completeness_milli,
        retries, gave_up, repair_passes, recruited, repair_bytes, lost_partitions,
        unfilled_deficits, messages, skipped_arrivals,
    };
}

fn fresh_engine(cfg: &ChurnBenchConfig, words: &[String]) -> SimilarityEngine {
    let rows = string_rows("word", words, "w");
    EngineBuilder::new()
        .peers(cfg.peers)
        .q(2)
        .replication(cfg.replication)
        .seed(cfg.seed)
        .degrade(DegradePolicy {
            retries: cfg.retries,
            backoff_us: cfg.backoff_us,
            deadline_us: None,
        })
        .build_with_rows(&rows)
}

fn milli(rate: f64) -> u64 {
    (rate * 1000.0).round() as u64
}

fn point_of(
    report: &DriverReport,
    permille: u64,
    repair: bool,
    model: &LatencyModel,
) -> ChurnPoint {
    let phase = |p: &PhaseSummary| (p.summary.p50_us, p.summary.p99_us, p.completeness);
    let (early_p50, early_p99, early_c) = phase(&report.phases.early);
    let (late_p50, late_p99, late_c) = phase(&report.phases.late);
    let totals = report.repair.unwrap_or_default();
    ChurnPoint {
        churn_permille: permille,
        repair: if repair { "on" } else { "off" }.into(),
        model: model.label().to_string(),
        early_p50_us: early_p50,
        early_p99_us: early_p99,
        late_p50_us: late_p50,
        late_p99_us: late_p99,
        early_completeness: early_c,
        early_completeness_milli: milli(early_c),
        late_completeness: late_c,
        late_completeness_milli: milli(late_c),
        retries: report.total.retries,
        gave_up: report.total.gave_up,
        repair_passes: totals.passes,
        recruited: totals.recruited,
        repair_bytes: totals.bytes_copied,
        lost_partitions: totals.lost_partitions,
        unfilled_deficits: totals.unfilled_deficits,
        messages: report.total.traffic.messages,
        skipped_arrivals: report.diagnostics.len() as u64,
    }
}

/// Run the sweep: every crash level × repair off/on. Deterministic for a
/// given configuration.
pub fn run_churn_bench(cfg: &ChurnBenchConfig) -> Vec<ChurnPoint> {
    let words = bible_words(cfg.words, 23);
    let mut out = Vec::new();
    for &permille in &cfg.crash_permilles {
        let faults = if permille == 0 {
            FaultPlan::default()
        } else {
            FaultPlan::periodic(
                cfg.seed,
                cfg.horizon_us,
                cfg.period_us,
                permille as f64 / 1000.0,
                0.0,
            )
        };
        for repair in [false, true] {
            let mut engine = fresh_engine(cfg, &words);
            let driver_cfg = DriverConfig {
                clients: cfg.clients,
                queries_per_client: cfg.queries_per_client,
                arrival: Arrival::Poisson { mean_interarrival_us: cfg.mean_interarrival_us },
                mix: vec![
                    QueryKind::Similar { d: 1 },
                    QueryKind::SimJoin { d: 1, left_limit: Some(8), window: JoinWindow::Fixed(1) },
                    QueryKind::TopN { n: 5, d_max: 3 },
                ],
                strategy: cfg.strategy,
                sim: SimConfig { latency: cfg.model, ..SimConfig::default() },
                faults: faults.clone(),
                repair: repair.then_some(ReplicationPolicy { min_alive: cfg.min_alive }),
                sticky_initiators: true,
                seed: cfg.seed,
                ..DriverConfig::default()
            };
            let report = run_driver(&mut engine, "word", &words, &driver_cfg);
            out.push(point_of(&report, permille, repair, &cfg.model));
        }
    }
    out
}

/// The `BENCH_churn.json` text for a sweep of `cfg` that produced
/// `points`: the `generated` block, then the grid. A pure function of its
/// arguments — the same configuration yields the same bytes on any host
/// and in any build profile.
pub fn artifact(cfg: &ChurnBenchConfig, points: &[ChurnPoint]) -> String {
    struct Artifact<'a> {
        generated: GenMeta,
        churn_grid: &'a [ChurnPoint],
    }
    sqo_obs::json_record! { Artifact<'a> { generated, churn_grid }; }
    let queries = cfg.crash_permilles.len() * 2 * cfg.clients * cfg.queries_per_client;
    let generated = GenMeta::new(cfg.seed, cfg.peers, queries)
        .workload("words", cfg.words as u64)
        .workload("replication", cfg.replication as u64)
        .workload("clients", cfg.clients as u64)
        .workload("queries_per_client", cfg.queries_per_client as u64)
        .workload("crash_levels", cfg.crash_permilles.len() as u64)
        .workload("period_us", cfg.period_us)
        .workload("horizon_us", cfg.horizon_us)
        .workload("min_alive", cfg.min_alive as u64);
    to_json_pretty(&Artifact { generated, churn_grid: points })
}

/// Human-readable table of a sweep.
pub fn render(points: &[ChurnPoint]) -> String {
    let mut s = String::from(
        "churn  repair  early_p50(ms) late_p50(ms) late_p99(ms)  early_cmpl late_cmpl  \
         recruited lost  gave_up\n",
    );
    for p in points {
        s.push_str(&format!(
            "{:>4}‰  {:<6} {:>13.2} {:>12.2} {:>12.2} {:>11.3} {:>9.3} {:>10} {:>4} {:>8}\n",
            p.churn_permille,
            p.repair,
            p.early_p50_us as f64 / 1e3,
            p.late_p50_us as f64 / 1e3,
            p.late_p99_us as f64 / 1e3,
            p.early_completeness,
            p.late_completeness,
            p.recruited,
            p.lost_partitions,
            p.gave_up,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_shows_the_repair_payoff() {
        let cfg = ChurnBenchConfig::default();
        let a = run_churn_bench(&cfg);
        // crash levels × repair off/on.
        assert_eq!(a.len(), cfg.crash_permilles.len() * 2);
        // Zero-fault equivalence, visible in the artifact: the control
        // rows must agree on every field except the repair label and its
        // all-zero totals.
        let control: Vec<&ChurnPoint> = a.iter().filter(|p| p.churn_permille == 0).collect();
        assert_eq!(control.len(), 2);
        let (off, on) = (control[0], control[1]);
        assert_eq!((off.late_p50_us, off.late_p99_us), (on.late_p50_us, on.late_p99_us));
        assert_eq!(off.messages, on.messages, "repair must charge nothing without faults");
        assert_eq!(off.late_completeness_milli, 1000);
        assert_eq!(on.late_completeness_milli, 1000);
        assert_eq!(on.recruited, 0);
        // The churned repair-on cell actually heals.
        let healed = a
            .iter()
            .find(|p| p.churn_permille > 0 && p.repair == "on")
            .expect("churned repair-on row");
        assert!(healed.repair_passes > 0, "faults must trigger repair passes");
        assert!(!render(&a).is_empty());
    }
}
