//! The concurrent-workload driver: replays the paper's §6 query mix as `N`
//! concurrent clients against a simulated network, under a configurable
//! latency model, arrival process and fault script ([`FaultPlan`]: crash
//! waves, partition wipes, revivals, loss spikes) — and reports throughput
//! plus p50/p95/p99 latency per operator.
//!
//! Queries execute as **interleaved steps on the event queue**: every query
//! is a resumable [`ExecStep`] task (`sqo-core`'s stepped operators), and
//! the driver pops task steps, arrivals and fault events off one
//! [`EventQueue`] in virtual-time order. A step is one bounded chunk
//! of operator work — typically a single routed sub-request (a probe
//! branch, an object-fetch branch, one hop sequence) — charged against the
//! shared per-peer service queues of [`NetSim`](crate::NetSim). Because
//! steps execute in time order across *all* in-flight queries, contention
//! is symmetric: an early-arriving long query queues behind the traffic of
//! queries that arrive while it is still in flight, and vice versa. (The
//! pre-refactor driver executed each query atomically, so earlier-simulated
//! queries could not see later arrivals; that one-sided approximation is
//! gone.)
//!
//! Everything is deterministic: the driver installs a fresh `NetSim`, seeds
//! every stream from [`DriverConfig::seed`], and schedules all events on
//! one [`EventQueue`] with FIFO tie-breaking (a task re-enqueueing a step
//! at the current timestamp goes behind already-queued same-time events).
//! Two runs with the same inputs produce byte-identical reports.

use crate::events::{EventQueue, QueueState};
use crate::fault::{FaultKind, FaultPlan};
use crate::netsim::{install, install_restored, set_installed_loss, SimConfig};
use crate::report::{LatencySummary, OperatorLatency};
use crate::seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_core::{
    BrokerConfig, BrokerCounters, CacheBatchBroker, ExecStep, JoinWindow, QueryStats,
    SimilarityEngine, StepOutcome, Strategy,
};
use sqo_datasets::ZipfSampler;
use sqo_obs::{LogHistogram, MetricsRegistry};
use sqo_overlay::{PeerId, ReplicationPolicy, SimLatency, TraceEvent, TraceTrack};
use sqo_plan::{PlannerEnv, PreparedQuery};
use sqo_storage::Value;

/// How clients space their queries.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrival {
    /// Open loop: every client issues queries at Poisson arrivals with the
    /// given mean interarrival time, regardless of completions — the
    /// production-traffic model; queries pile up when the network is slow.
    Poisson { mean_interarrival_us: u64 },
    /// Closed loop: a client issues its next query `think_us` after the
    /// previous one completes. `Closed { 0 }` with one client is the serial
    /// baseline every concurrency comparison starts from.
    Closed { think_us: u64 },
    /// Explicit first arrivals: client `c` starts at `offsets_us[c % len]`;
    /// its subsequent queries follow closed-loop with zero think time.
    /// This is how the symmetry tests control exactly which queries
    /// overlap.
    Explicit { offsets_us: Vec<u64> },
}

/// One query template of the workload mix.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// `Similar(s, attr, d)`.
    Similar { d: usize },
    /// String top-N (`N` nearest neighbors up to `d_max`).
    TopN { n: usize, d_max: usize },
    /// Similarity self-join over the workload attribute, with a bounded
    /// outstanding-request window (`window` per-left selections pipelined
    /// from the initiator; `Fixed(1)` = the paper's serial loop,
    /// [`JoinWindow::Auto`] = AIMD congestion control).
    SimJoin { d: usize, left_limit: Option<usize>, window: JoinWindow },
    /// A VQL `dist()` filter query over the workload attribute.
    Vql { d: usize },
    /// A multi-operator plan pipeline — prefix-range select over the
    /// workload attribute (the drawn string's first two characters), its
    /// rows joined against the attribute at distance `d`, best `n` pairs
    /// kept.
    Pipeline { d: usize, n: usize, left_limit: Option<usize>, window: JoinWindow },
}

impl QueryKind {
    /// Every operator label — the closed set [`Self::label`] draws from
    /// (checkpoint decoders validate against it).
    pub const LABELS: [&'static str; 5] = ["similar", "topn", "simjoin", "vql", "pipeline"];

    /// Operator family, the grouping key of the latency report.
    pub fn label(&self) -> &'static str {
        Self::LABELS[match self {
            QueryKind::Similar { .. } => 0,
            QueryKind::TopN { .. } => 1,
            QueryKind::SimJoin { .. } => 2,
            QueryKind::Vql { .. } => 3,
            QueryKind::Pipeline { .. } => 4,
        }]
    }
}

/// Workload-driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    pub clients: usize,
    pub queries_per_client: usize,
    pub arrival: Arrival,
    /// Query templates, assigned round-robin (offset per client).
    pub mix: Vec<QueryKind>,
    pub strategy: Strategy,
    /// Virtual-time model installed on the network for the run.
    pub sim: SimConfig,
    /// Deterministic fault script replayed on the event queue alongside
    /// arrivals: crash waves, targeted partition wipes, revivals, transient
    /// loss spikes — the one way a run changes membership or loss (peers
    /// die mid-workload; queries must still terminate). The default empty
    /// plan injects nothing and changes nothing.
    pub faults: FaultPlan,
    /// Self-healing: when set, the driver runs one
    /// [`repair_epoch`](sqo_overlay::Network::repair_epoch) pass after
    /// every membership-fault event, recruiting alive peers into
    /// under-replicated partitions (charged as real traffic). `None`
    /// (default) leaves the overlay to decay.
    pub repair: Option<ReplicationPolicy>,
    /// Hot-path services for the run: when any is enabled the driver
    /// installs a fresh [`CacheBatchBroker`] on the engine (and removes any
    /// stale one otherwise), so every run owns its own cache state.
    pub cache: BrokerConfig,
    /// Query-string skew: `0.0` picks uniformly from the pool (the PR 2
    /// baseline behavior); `> 0.0` draws string ranks from a Zipf
    /// distribution with this exponent — the production-shaped workload
    /// where popular strings (and their gram partitions) dominate.
    pub zipf_s: f64,
    /// `true` pins each client to one initiator peer for the whole run (a
    /// client keeps its access point, which is what makes initiator-side
    /// caches meaningful); `false` draws a fresh random initiator per
    /// query (the PR 2 baseline behavior).
    pub sticky_initiators: bool,
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            clients: 4,
            queries_per_client: 5,
            arrival: Arrival::Poisson { mean_interarrival_us: 20_000 },
            mix: vec![
                QueryKind::Similar { d: 1 },
                QueryKind::TopN { n: 5, d_max: 3 },
                QueryKind::SimJoin { d: 1, left_limit: Some(8), window: JoinWindow::Fixed(1) },
            ],
            strategy: Strategy::QGrams,
            sim: SimConfig::default(),
            faults: FaultPlan::default(),
            repair: None,
            cache: BrokerConfig::default(),
            zipf_s: 0.0,
            sticky_initiators: false,
            seed: 7,
        }
    }
}

/// Hot-path service usage over one driven run (all zeros without a broker).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CacheReport {
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 when the cache was never consulted.
    pub hit_rate: f64,
    /// Probe submissions that rode a coalescing channel another probe's
    /// route opened.
    pub probes_coalesced: u64,
    /// Routed exchanges that opened a coalescing channel.
    pub channels_opened: u64,
    /// Overlay messages the coalesced probes avoided.
    pub messages_saved: u64,
    /// Cache inserts the TinyLFU admission gate turned away (0 with the
    /// gate off).
    pub admission_rejects: u64,
}

impl From<BrokerCounters> for CacheReport {
    fn from(c: BrokerCounters) -> Self {
        Self {
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            hit_rate: c.hit_rate(),
            probes_coalesced: c.probes_coalesced,
            channels_opened: c.channels_opened,
            messages_saved: c.messages_saved,
            admission_rejects: c.admission_rejects,
        }
    }
}

/// Accumulated self-healing activity over a driven run (all zeros when
/// [`DriverConfig::repair`] is `None`).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RepairTotals {
    /// Repair passes executed (one per membership fault).
    pub passes: u64,
    /// Peers recruited into under-replicated partitions, summed over all
    /// passes.
    pub recruited: u64,
    /// Payload bytes the recruitments copied, summed over all passes.
    pub bytes_copied: u64,
    /// Partitions with zero alive replicas as of the **last** pass — the
    /// unrecoverable residue repair cannot touch (gauge, not a sum).
    pub lost_partitions: u64,
    /// Deficient partitions the last pass could not fully top up (gauge).
    pub unfilled_deficits: u64,
}

/// One phase's latency and degradation profile (see [`PhaseReport`]).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    pub summary: LatencySummary,
    /// Answered / addressed partition legs over the phase's queries — 1.0
    /// when nothing was skipped or unreachable.
    pub completeness: f64,
    pub retries: u64,
    pub gave_up: u64,
}

/// The run split at its halfway point (by completion count): `early` is
/// the first half of completions, `late` the second. Under sustained churn
/// the comparison is the stationarity check — with repair on, `late`
/// should look like `early`; without it, completeness decays and tails
/// grow as replicas die off.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PhaseReport {
    pub early: PhaseSummary,
    pub late: PhaseSummary,
}

/// Outcome of a driven workload.
///
/// The typed fields (`total`, `cache`, `per_operator`) remain the
/// first-class views; [`DriverReport::metrics`] re-expresses the same run
/// under the unified dotted-name schema (`traffic.*`, `cache.*`,
/// `latency.*` — see [`MetricsRegistry`]) so every serializer emits one
/// shape.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Per-operator-family latency summaries, sorted by operator name.
    pub per_operator: Vec<OperatorLatency>,
    /// All queries together.
    pub overall: LatencySummary,
    /// Aggregated operator stats (traffic, probes, simulated latency).
    pub total: QueryStats,
    /// Hot-path service usage (hit rate, coalesced probes, messages saved).
    pub cache: CacheReport,
    /// The run under the unified metric schema: counters/gauges folded
    /// from `total` and `cache`, plus the overall and per-operator latency
    /// histograms (`latency.query_us`, `latency.<op>_us`).
    pub metrics: MetricsRegistry,
    pub queries_run: usize,
    /// Virtual time from first arrival to last completion.
    pub virtual_span_us: u64,
    /// Queries per virtual second.
    pub throughput_qps: f64,
    /// Early/late halves of the run — the stationarity view churn and
    /// repair experiments compare.
    pub phases: PhaseReport,
    /// Self-healing totals; `Some` exactly when [`DriverConfig::repair`]
    /// was configured.
    pub repair: Option<RepairTotals>,
    /// Human-readable anomalies the run survived (e.g. an arrival that
    /// found no alive initiator). Empty on a healthy run.
    pub diagnostics: Vec<String>,
}

sqo_obs::json_record! {
    CacheReport {
        cache_hits, cache_misses, hit_rate, probes_coalesced, channels_opened, messages_saved,
        admission_rejects,
    };
    RepairTotals { passes, recruited, bytes_copied, lost_partitions, unfilled_deficits };
    PhaseSummary { summary, completeness, retries, gave_up };
    PhaseReport { early, late };
    DriverReport {
        per_operator, overall, total, cache, metrics, queries_run, virtual_span_us,
        throughput_qps, phases, repair, diagnostics,
    };
}

#[derive(Clone, Copy)]
enum Ev {
    Arrive {
        client: usize,
    },
    /// Resume the in-flight task in `slot`.
    Step {
        slot: usize,
    },
    /// Apply `cfg.faults.events[idx]`.
    Fault {
        idx: usize,
    },
    /// End of the loss spike scheduled by `cfg.faults.events[idx]`:
    /// restore the run's baseline loss model.
    FaultClear {
        idx: usize,
    },
}

/// One in-flight query: a resumable operator task plus its bookkeeping.
struct InFlight {
    task: Box<dyn ExecStep>,
    label: &'static str,
    client: usize,
    arrival_us: u64,
    /// Query trace track, allocated at arrival when a trace sink is
    /// installed; the driver attributes each of this task's steps to it.
    trace: Option<u64>,
}

/// What a paused run keeps of its loop: every per-client RNG stream, the
/// accumulated histograms and stats, the loss spike in force. The loop
/// runs on it and a [`DriverCheckpoint`] carries it whole.
#[derive(Debug, Clone)]
pub struct RunState {
    /// Fault index of the [`FaultKind::LossSpike`] in force (`None`: the
    /// baseline loss model), until a `FaultClear` restores the baseline;
    /// [`resume_driver`] installs the restored `NetSim` under this spike's
    /// loss.
    pub in_force: Option<u32>,
    /// Queries issued so far, per client.
    pub issued: Vec<usize>,
    /// Sticky initiator peers (when [`DriverConfig::sticky_initiators`]).
    pub initiators: Option<Vec<PeerId>>,
    /// Each client's stream.
    pub client_rngs: Vec<StdRng>,
    /// Per-operator accumulators, ascending by label (one of
    /// [`QueryKind::LABELS`]): latency histogram, absorbed stats.
    pub by_operator: Vec<(&'static str, LogHistogram, QueryStats)>,
    pub all_latencies: LogHistogram,
    pub total: QueryStats,
    pub queries_run: usize,
    pub first_start: u64,
    pub last_end: u64,
    /// First / second half of completions (latencies + absorbed stats) —
    /// the stationarity split of [`PhaseReport`].
    pub early: (LogHistogram, QueryStats),
    pub late: (LogHistogram, QueryStats),
    /// Self-healing totals so far.
    pub repair: RepairTotals,
    /// Anomalies recorded so far.
    pub diagnostics: Vec<String>,
}

/// The driver's mutable loop state, separated from the engine so a run can
/// pause at a quiesce boundary, walk itself into a [`DriverCheckpoint`],
/// and later be rebuilt to continue: the [`RunState`] plus the live event
/// queue and in-flight tasks.
struct LoopState {
    run: RunState,
    q: EventQueue<Ev>,
    flights: Vec<Option<InFlight>>,
    free_slots: Vec<usize>,
}

impl LoopState {
    fn fresh(engine: &mut SimilarityEngine, cfg: &DriverConfig) -> Self {
        // Per-client deterministic streams: query arguments and arrival
        // jitter. One documented derivation for every stream — see
        // [`crate::seed`].
        let mut client_rngs: Vec<StdRng> = (0..cfg.clients)
            .map(|c| StdRng::seed_from_u64(seed::derive(cfg.seed, seed::CLIENT_STREAM, c as u64)))
            .collect();
        // Sticky access points: each client keeps one initiator peer, which
        // is what gives its posting cache a working set to accumulate.
        let initiators: Option<Vec<PeerId>> =
            cfg.sticky_initiators.then(|| (0..cfg.clients).map(|_| engine.random_peer()).collect());

        let mut q: EventQueue<Ev> = EventQueue::new();
        // Fault script: each event at its time; a loss spike additionally
        // schedules the restore of the baseline model.
        for (idx, ev) in cfg.faults.events.iter().enumerate() {
            q.push(ev.at_us, Ev::Fault { idx });
            if let FaultKind::LossSpike { duration_us, .. } = ev.kind {
                q.push(ev.at_us.saturating_add(duration_us), Ev::FaultClear { idx });
            }
        }
        // First arrivals.
        for (c, rng) in client_rngs.iter_mut().enumerate() {
            let t = match &cfg.arrival {
                Arrival::Poisson { mean_interarrival_us } => exp_sample(rng, *mean_interarrival_us),
                Arrival::Closed { .. } => 0,
                Arrival::Explicit { offsets_us } => offsets_us[c % offsets_us.len()],
            };
            q.push(t, Ev::Arrive { client: c });
        }

        let run = RunState {
            in_force: None,
            issued: vec![0usize; cfg.clients],
            initiators,
            client_rngs,
            by_operator: Vec::new(),
            all_latencies: LogHistogram::new(),
            total: QueryStats::default(),
            queries_run: 0,
            first_start: u64::MAX,
            last_end: 0,
            early: (LogHistogram::new(), QueryStats::default()),
            late: (LogHistogram::new(), QueryStats::default()),
            repair: RepairTotals::default(),
            diagnostics: Vec::new(),
        };
        Self { run, q, flights: Vec::new(), free_slots: Vec::new() }
    }

    /// Rebuild the loop from a checkpoint image (see [`resume_driver`]):
    /// the image holds the loop's own values, so only the queue's events
    /// are translated.
    fn restore(ckpt: DriverCheckpoint) -> Self {
        let QueueState { seq, now_us, entries } = ckpt.queue;
        let entries = entries.into_iter().map(|(at, seq, ev)| (at, seq, ev.into())).collect();
        Self {
            run: ckpt.run,
            q: EventQueue::from_state(QueueState { seq, now_us, entries }),
            flights: Vec::new(),
            free_slots: Vec::new(),
        }
    }

    /// Walk the paused loop into an owned checkpoint. Only legal at a
    /// quiesce boundary: every flight slot must be empty, so the queue
    /// holds no `Step` events (the one variant that cannot be serialized —
    /// it indexes a live `Box<dyn ExecStep>` state machine).
    fn checkpoint(self, engine: &mut SimilarityEngine) -> DriverCheckpoint {
        assert!(
            self.flights.iter().all(Option::is_none),
            "checkpoint requires an empty in-flight table"
        );
        let QueueState { seq, now_us, entries } = self.q.export_state();
        let entries = entries.into_iter().map(|(at, seq, ev)| (at, seq, ev.into())).collect();
        DriverCheckpoint {
            queue: QueueState { seq, now_us, entries },
            run: self.run,
            netsim: crate::netsim::export_installed(engine)
                .expect("the driver installed a NetSim on this engine"),
        }
    }
}

impl From<Ev> for EvSnap {
    fn from(ev: Ev) -> Self {
        match ev {
            Ev::Arrive { client } => EvSnap::Arrive { client: client as u32 },
            Ev::Fault { idx } => EvSnap::Fault { idx: idx as u32 },
            Ev::FaultClear { idx } => EvSnap::FaultClear { idx: idx as u32 },
            Ev::Step { .. } => unreachable!("no steps pending at a quiesce boundary"),
        }
    }
}

impl From<EvSnap> for Ev {
    fn from(ev: EvSnap) -> Self {
        match ev {
            EvSnap::Arrive { client } => Ev::Arrive { client: client as usize },
            EvSnap::Fault { idx } => Ev::Fault { idx: idx as usize },
            EvSnap::FaultClear { idx } => Ev::FaultClear { idx: idx as usize },
        }
    }
}

/// A serializable pending driver event. `Step` has no image: checkpoints
/// are taken only at quiesce boundaries, where no task is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvSnap {
    Arrive { client: u32 },
    Fault { idx: u32 },
    FaultClear { idx: u32 },
}

/// The owned image of a paused driver run: pending arrivals and faults with
/// their queue positions, the loop's [`RunState`], and the virtual-time
/// charger's state. Static inputs (the [`DriverConfig`], attribute, string
/// pool, and the engine's world state) are *not* carried here —
/// [`resume_driver`] takes them again, and `sqo-snap`'s artifact bundles
/// the world alongside.
#[derive(Debug, Clone)]
pub struct DriverCheckpoint {
    pub queue: QueueState<EvSnap>,
    pub run: RunState,
    /// The installed [`NetSim`](crate::NetSim)'s image.
    pub netsim: crate::netsim::NetSimState,
}

/// Outcome of [`run_driver_until`]: either the workload drained before the
/// stop bound mattered, or the run paused at the first quiesce boundary at
/// or after it.
// One value exists per run, immediately destructured — the variant size
// gap is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum DriverPhase {
    Done(DriverReport),
    Paused(DriverCheckpoint),
}

/// Run the driven workload. Installs a fresh [`NetSim`](crate::NetSim) (replacing any
/// sink already on the network). Two identical invocations on **freshly
/// built engines** yield identical reports; re-driving the *same* engine
/// is not a reproduction — the first run advances the network's RNG and,
/// under a fault script, permanently kills peers.
///
/// Panics, before the engine is touched, on inputs no run can drive (see
/// [`run_driver_until`]).
pub fn run_driver(
    engine: &mut SimilarityEngine,
    attr: &str,
    strings: &[String],
    cfg: &DriverConfig,
) -> DriverReport {
    match drive(engine, attr, strings, cfg, None) {
        Ok(DriverPhase::Done(report)) => report,
        Ok(DriverPhase::Paused(_)) => unreachable!("no stop bound was given"),
        Err(e) => panic!("{e}"),
    }
}

/// Run the driven workload at most to the first **quiesce boundary** at or
/// after `stop_us`: the first moment in virtual time where no query is in
/// flight and the next pending event is at `>= stop_us`. In-flight task
/// state machines cannot be serialized, so a checkpoint waits for the
/// event loop to drain them; under heavy overlap the boundary can land
/// well after `stop_us`, and a workload whose queries never all drain
/// simply runs to completion ([`DriverPhase::Done`]).
///
/// On [`DriverPhase::Paused`] the engine is left live at the boundary —
/// network, broker and installed `NetSim` all reflect the paused run —
/// ready for `sqo-snap` to walk into an artifact.
///
/// Inputs no run can drive are an `Err`, returned before the engine is
/// touched: an empty string pool, workload or mix, explicit arrivals
/// without an offset, and a fault plan that wipes a partition the network
/// does not have or crashes / revives a fraction outside `[0, 1]`.
pub fn run_driver_until(
    engine: &mut SimilarityEngine,
    attr: &str,
    strings: &[String],
    cfg: &DriverConfig,
    stop_us: u64,
) -> Result<DriverPhase, &'static str> {
    drive(engine, attr, strings, cfg, Some(stop_us))
}

/// Resume a paused run from its checkpoint image. `engine` must be the
/// restored world the checkpoint was taken against (same peer count, same
/// network RNG position, same broker state — `sqo-snap` rebuilds all of it);
/// `cfg`, `attr` and `strings` must equal the original run's. The restored
/// [`NetSim`](crate::NetSim) is installed from the image — unlike
/// [`run_driver`], nothing is reset: the engine's broker is left exactly as
/// restored.
///
/// Running the remainder produces a report byte-identical to the
/// uninterrupted run's. A checkpoint of another client count or peer
/// count, one whose pending faults or loss spike in force the plan does
/// not hold, and the inputs [`run_driver_until`] refuses are errors,
/// returned before the engine is touched.
pub fn resume_driver(
    engine: &mut SimilarityEngine,
    attr: &str,
    strings: &[String],
    cfg: &DriverConfig,
    ckpt: DriverCheckpoint,
) -> Result<DriverReport, &'static str> {
    let run = &ckpt.run;
    if run.client_rngs.len() != cfg.clients || run.issued.len() != cfg.clients {
        return Err("checkpoint has a different client count");
    }
    check_inputs(engine, strings, cfg)?;
    let faults = &cfg.faults.events;
    let unknown_fault = ckpt.queue.entries.iter().any(|(_, _, ev)| match *ev {
        EvSnap::Fault { idx } | EvSnap::FaultClear { idx } => idx as usize >= faults.len(),
        EvSnap::Arrive { .. } => false,
    });
    if unknown_fault {
        return Err("checkpoint has a pending fault its plan does not hold");
    }
    // The restored NetSim runs under the loss model in force at the pause.
    let loss = match run.in_force.map(|idx| faults.get(idx as usize).map(|f| f.kind)) {
        None => cfg.sim.loss,
        Some(Some(FaultKind::LossSpike { loss, .. })) => loss,
        Some(_) => return Err("checkpoint's loss spike in force is not one its plan holds"),
    };
    install_restored(engine, SimConfig { loss, ..cfg.sim }, ckpt.netsim.clone())?;
    let st = LoopState::restore(ckpt);
    match run_loop(engine, attr, strings, cfg, st, None) {
        DriverPhase::Done(report) => Ok(report),
        DriverPhase::Paused(_) => unreachable!("no stop bound was given"),
    }
}

fn drive(
    engine: &mut SimilarityEngine,
    attr: &str,
    strings: &[String],
    cfg: &DriverConfig,
    stop_us: Option<u64>,
) -> Result<DriverPhase, &'static str> {
    check_inputs(engine, strings, cfg)?;
    install(engine, cfg.sim);
    // The driver owns the run's broker: fresh state per run, stale brokers
    // from a previous run removed.
    if cfg.cache.any_enabled() {
        engine.set_broker(CacheBatchBroker::new(cfg.cache));
    } else {
        engine.clear_broker();
    }
    let st = LoopState::fresh(engine, cfg);
    Ok(run_loop(engine, attr, strings, cfg, st, stop_us))
}

/// The one check of a run's inputs (listed at [`run_driver_until`]), shared
/// by a fresh and a resumed run.
fn check_inputs(
    engine: &SimilarityEngine,
    strings: &[String],
    cfg: &DriverConfig,
) -> Result<(), &'static str> {
    if strings.is_empty() {
        return Err("driver needs a non-empty string pool");
    }
    if cfg.clients == 0 || cfg.queries_per_client == 0 {
        return Err("empty workload");
    }
    if cfg.mix.is_empty() {
        return Err("empty query mix");
    }
    if matches!(&cfg.arrival, Arrival::Explicit { offsets_us } if offsets_us.is_empty()) {
        return Err("explicit arrivals need at least one offset");
    }
    let parts = engine.network().partition_count();
    for fault in &cfg.faults.events {
        match fault.kind {
            FaultKind::WipePartition { part } if part >= parts => {
                return Err("fault plan wipes a partition the network does not have");
            }
            FaultKind::Crash { fraction } | FaultKind::Revive { fraction }
                if !(0.0..=1.0).contains(&fraction) =>
            {
                return Err("fault plan crashes or revives a fraction outside [0, 1]");
            }
            _ => {}
        }
    }
    Ok(())
}

/// The event loop plus report assembly: pops arrivals, task steps and
/// faults in global virtual-time order until the queue drains (or, with a
/// stop bound, until the first quiesce boundary at or after it).
fn run_loop(
    engine: &mut SimilarityEngine,
    attr: &str,
    strings: &[String],
    cfg: &DriverConfig,
    mut st: LoopState,
    stop_us: Option<u64>,
) -> DriverPhase {
    // The planner environment is invariant for the run (defaults and
    // broker services are fixed before the loop starts): snapshot it once
    // instead of per-dispatch.
    let planner_env = PlannerEnv::of(engine);
    let zipf = (cfg.zipf_s > 0.0).then(|| ZipfSampler::new(strings.len(), cfg.zipf_s));

    let LoopState { run, q, flights, free_slots } = &mut st;
    let RunState {
        in_force,
        issued,
        initiators,
        client_rngs,
        by_operator,
        all_latencies,
        total,
        queries_run,
        first_start,
        last_end,
        early,
        late,
        repair,
        diagnostics,
    } = run;

    // Completion-count split point of the early/late phase view.
    let half = (cfg.clients * cfg.queries_per_client) / 2;

    let paused = loop {
        // Quiesce check BEFORE popping: pausing must not consume an event.
        if let Some(stop) = stop_us {
            if flights.iter().all(Option::is_none)
                && q.peek_next_us().is_some_and(|next| next >= stop)
            {
                break true;
            }
        }
        let Some((t, ev)) = q.pop() else { break false };
        match ev {
            Ev::Fault { idx } => {
                let fault = cfg.faults.events[idx];
                let membership = match fault.kind {
                    FaultKind::Crash { fraction } => {
                        engine.network_mut().fail_random_fraction(fraction);
                        true
                    }
                    FaultKind::WipePartition { part } => {
                        engine.network_mut().fail_partition(part);
                        true
                    }
                    FaultKind::Revive { fraction } => {
                        engine.network_mut().revive_random_fraction(fraction);
                        true
                    }
                    FaultKind::LossSpike { loss, .. } => {
                        set_installed_loss(engine, loss);
                        *in_force = Some(idx as u32);
                        false
                    }
                };
                engine.network().trace_with(|| {
                    TraceEvent::instant(t, TraceTrack::Control, "fault", "run")
                        .arg("kind", fault.kind.label())
                        .arg("idx", idx)
                });
                // Loss spikes change no membership; repair has nothing to
                // scan for.
                if membership {
                    run_repair(engine, cfg, t, repair);
                }
            }
            Ev::FaultClear { idx } => {
                set_installed_loss(engine, cfg.sim.loss);
                *in_force = None;
                engine.network().trace_with(|| {
                    TraceEvent::instant(t, TraceTrack::Control, "fault-clear", "run")
                        .arg("kind", cfg.faults.events[idx].kind.label())
                        .arg("idx", idx)
                });
            }
            Ev::Arrive { client } => {
                let kind = cfg.mix[(issued[client] + client) % cfg.mix.len()].clone();
                issued[client] += 1;
                let s = {
                    let rng = &mut client_rngs[client];
                    let idx = match &zipf {
                        Some(z) => z.sample(rng),
                        None => rng.gen_range(0..strings.len()),
                    };
                    strings[idx].clone()
                };
                let from = match initiators.as_mut() {
                    Some(per_client) => {
                        let cur = per_client[client];
                        if engine.network().peer_alive(cur) {
                            Some(cur)
                        } else {
                            // The client's access point died. The overlay
                            // survived (that is the whole point of
                            // replication), so the client reconnects to a
                            // fresh alive peer instead of dying with its
                            // entry node — recorded as an anomaly, since a
                            // re-pin resets initiator-side cache locality.
                            let next = engine.try_random_peer();
                            if let Some(p) = next {
                                per_client[client] = p;
                                diagnostics.push(format!(
                                    "client {client}: sticky initiator {} died; re-pinned \
                                     to {} at t={t}us",
                                    cur.0, p.0
                                ));
                            }
                            next
                        }
                    }
                    None => engine.try_random_peer(),
                };
                let Some(from) = from else {
                    // Every peer is dead: the query cannot even start.
                    // Record the anomaly, count the slot as issued (done
                    // above) and keep the client's arrival process alive so
                    // the run drains instead of deadlocking — a later
                    // revival can still serve its remaining queries.
                    diagnostics.push(format!(
                        "client {client} query {}: no alive initiator at t={t}us; skipped",
                        issued[client]
                    ));
                    if issued[client] < cfg.queries_per_client {
                        let next = match &cfg.arrival {
                            Arrival::Poisson { mean_interarrival_us } => {
                                t + exp_sample(&mut client_rngs[client], *mean_interarrival_us)
                            }
                            Arrival::Closed { think_us } => t + (*think_us).max(1),
                            Arrival::Explicit { .. } => t + 1,
                        };
                        q.push(next, Ev::Arrive { client });
                    }
                    continue;
                };
                let trace = engine
                    .network()
                    .has_trace_sink()
                    .then(|| engine.network_mut().next_trace_query_id());
                let flight = InFlight {
                    task: build_task(&planner_env, attr, &s, from, &kind, cfg.strategy),
                    label: kind.label(),
                    client,
                    arrival_us: t,
                    trace,
                };
                let slot = match free_slots.pop() {
                    Some(slot) => {
                        flights[slot] = Some(flight);
                        slot
                    }
                    None => {
                        flights.push(Some(flight));
                        flights.len() - 1
                    }
                };
                // The task's first step runs at the arrival time; steps of
                // other in-flight queries interleave with it from then on.
                q.push(t, Ev::Step { slot });

                // Open-loop arrivals are independent of completions.
                if let Arrival::Poisson { mean_interarrival_us } = &cfg.arrival {
                    if issued[client] < cfg.queries_per_client {
                        let next = t + exp_sample(&mut client_rngs[client], *mean_interarrival_us);
                        q.push(next, Ev::Arrive { client });
                    }
                }
            }
            Ev::Step { slot } => {
                let flight = flights[slot].as_mut().expect("step for a finished task");
                // Attribute this step's charges (message instants, step
                // spans) to the flight's query track.
                let trace = flight.trace;
                if trace.is_some() {
                    engine.network_mut().set_trace_query(trace);
                }
                let outcome = flight.task.step(engine, t);
                if trace.is_some() {
                    engine.network_mut().set_trace_query(None);
                }
                match outcome {
                    StepOutcome::Yield { at_us } => q.push(at_us, Ev::Step { slot }),
                    StepOutcome::Done(stats) => {
                        let flight = flights[slot].take().expect("checked above");
                        free_slots.push(slot);
                        // A query that produced no sim profile (an operator
                        // error path, or a run without timing events) must
                        // not poison the span accounting with start=0: pin
                        // its empty window to the arrival time.
                        let sim = stats.sim.unwrap_or(SimLatency {
                            start_us: flight.arrival_us,
                            end_us: flight.arrival_us,
                            ..Default::default()
                        });
                        if let Some(qid) = trace {
                            let (client, label) = (flight.client, flight.label);
                            engine.network().trace_with(|| {
                                TraceEvent::span(
                                    sim.start_us,
                                    sim.elapsed_us,
                                    TraceTrack::Query(qid),
                                    label,
                                    "query",
                                )
                                .arg("client", client)
                                .arg("messages", stats.traffic.messages)
                                .arg("cache_hits", stats.cache_hits)
                                .arg("cache_misses", stats.cache_misses)
                                .arg("parts_addressed", stats.partitions_addressed)
                                .arg("parts_answered", stats.partitions_answered)
                            });
                        }
                        let (label, at) =
                            (flight.label, by_operator.partition_point(|a| a.0 < flight.label));
                        if by_operator.get(at).is_none_or(|a| a.0 != label) {
                            by_operator
                                .insert(at, (label, LogHistogram::new(), Default::default()));
                        }
                        let (_, lats, op_stats) = &mut by_operator[at];
                        lats.record(sim.elapsed_us);
                        op_stats.absorb(&stats);
                        all_latencies.record(sim.elapsed_us);
                        total.absorb(&stats);
                        // Stationarity split: first half of completions vs
                        // the rest (skipped arrivals never complete, so a
                        // heavily-degraded run just has a thinner late
                        // half).
                        let phase = if *queries_run < half { &mut *early } else { &mut *late };
                        phase.0.record(sim.elapsed_us);
                        phase.1.absorb(&stats);
                        *queries_run += 1;
                        *first_start = (*first_start).min(sim.start_us);
                        *last_end = (*last_end).max(sim.end_us);

                        // Closed-loop clients think, then re-arrive.
                        let think = match &cfg.arrival {
                            Arrival::Closed { think_us } => Some(*think_us),
                            Arrival::Explicit { .. } => Some(0),
                            Arrival::Poisson { .. } => None,
                        };
                        if let Some(think_us) = think {
                            if issued[flight.client] < cfg.queries_per_client {
                                q.push(sim.end_us + think_us, Ev::Arrive { client: flight.client });
                            }
                        }
                    }
                }
            }
        }
    };

    if paused {
        return DriverPhase::Paused(st.checkpoint(engine));
    }
    let run = st.run;

    // The unified metric schema: counters and gauges folded from the run
    // totals, the latency distributions as histograms. The typed report
    // fields below stay as views over the same numbers.
    let mut metrics = MetricsRegistry::new();
    metrics.absorb_query_stats(&run.total);
    metrics.histogram_merge("latency.query_us", &run.all_latencies);
    for (op, lats, _) in &run.by_operator {
        metrics.histogram_merge(format!("latency.{op}_us"), lats);
    }

    let per_operator: Vec<OperatorLatency> = run
        .by_operator
        .into_iter()
        .map(|(op, lats, op_stats)| OperatorLatency {
            operator: op.to_string(),
            summary: LatencySummary::of_histogram(&lats),
            messages: op_stats.traffic.messages,
            // Queue time is attributed per operator from its own queries'
            // absorbed stats — not the run-wide total duplicated into
            // every row — so window adaptation shows up per op.
            queue_us: op_stats.sim.map(|s| s.queue_us).unwrap_or(0),
            cache_hits: op_stats.cache_hits,
            probes_coalesced: op_stats.probes_coalesced,
            window_peak: op_stats.join_window_peak,
            window_shrinks: op_stats.join_window_shrinks,
            completeness: op_stats.completeness(),
            retries: op_stats.retries,
            gave_up: op_stats.gave_up,
        })
        .collect();
    let virtual_span_us = run.last_end.saturating_sub(run.first_start.min(run.last_end));
    let throughput_qps = if virtual_span_us > 0 {
        run.queries_run as f64 / (virtual_span_us as f64 / 1_000_000.0)
    } else {
        0.0
    };
    let overall = LatencySummary::of_histogram(&run.all_latencies);
    let cache = engine.broker_counters().map(CacheReport::from).unwrap_or_default();
    if let Some(c) = engine.broker_counters() {
        metrics.absorb_broker_counters(&c);
    }
    metrics.counter_add("run.queries", run.queries_run as u64);
    metrics.gauge_set("run.throughput_qps", throughput_qps);
    // Self-healing visibility — emitted only when repair is configured, so
    // a repair-free run's registry is untouched.
    if cfg.repair.is_some() {
        metrics.counter_add("repair.passes", run.repair.passes);
        metrics.counter_add("repair.recruited", run.repair.recruited);
        metrics.counter_add("repair.bytes_copied", run.repair.bytes_copied);
        metrics.gauge_set("repair.lost_partitions", run.repair.lost_partitions as f64);
        metrics.gauge_set("repair.unfilled_deficits", run.repair.unfilled_deficits as f64);
    }
    // Per-operator attribution under `op.<name>.*` — most notably the
    // per-operator queue time, which used to live only in the typed
    // `per_operator` rows and bypassed the registry.
    for row in &per_operator {
        let p = format!("op.{}", row.operator);
        metrics.counter_add(format!("{p}.queue_us"), row.queue_us);
        metrics.counter_add(format!("{p}.messages"), row.messages);
        metrics.counter_add(format!("{p}.cache_hits"), row.cache_hits);
        metrics.counter_add(format!("{p}.probes_coalesced"), row.probes_coalesced);
        metrics.counter_add(format!("{p}.window_shrinks"), row.window_shrinks);
        if row.window_peak > 0 {
            metrics.gauge_set(format!("{p}.window_peak"), row.window_peak as f64);
        }
    }

    let phase_summary = |(h, s): &(LogHistogram, QueryStats)| PhaseSummary {
        summary: LatencySummary::of_histogram(h),
        completeness: s.completeness(),
        retries: s.retries,
        gave_up: s.gave_up,
    };
    DriverPhase::Done(DriverReport {
        per_operator,
        overall,
        total: run.total,
        cache,
        metrics,
        queries_run: run.queries_run,
        virtual_span_us,
        throughput_qps,
        phases: PhaseReport { early: phase_summary(&run.early), late: phase_summary(&run.late) },
        repair: cfg.repair.map(|_| run.repair),
        diagnostics: run.diagnostics,
    })
}

/// One self-healing pass after a membership event: charge repair traffic
/// at the event's virtual time, then fold the pass outcome into the run's
/// [`RepairTotals`]. A no-op without a configured policy.
fn run_repair(
    engine: &mut SimilarityEngine,
    cfg: &DriverConfig,
    t: u64,
    totals: &mut RepairTotals,
) {
    let Some(policy) = cfg.repair else { return };
    engine.network_mut().sim_reset_to_us(t);
    let rep = engine.network_mut().repair_epoch(&policy);
    totals.passes += 1;
    totals.recruited += rep.recruited;
    totals.bytes_copied += rep.bytes_copied;
    // Gauges: the state as of the most recent pass, not a sum.
    totals.lost_partitions = rep.lost as u64;
    totals.unfilled_deficits = rep.unfilled as u64;
}

/// Exponential interarrival sample with the given mean (microseconds).
fn exp_sample(rng: &mut StdRng, mean_us: u64) -> u64 {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let x = -(1.0 - u).max(f64::MIN_POSITIVE).ln() * mean_us as f64;
    x.clamp(0.0, 1e12) as u64
}

/// Construct the resumable task for one query of the mix.
///
/// Every template becomes a `sqo-plan` [`Query`](sqo_plan::Query) prepared
/// against the engine's planner environment — `QueryKind` dispatch is a
/// thin shim over the unified IR; VQL goes through its own planner.
fn build_task(
    env: &PlannerEnv,
    attr: &str,
    s: &str,
    from: sqo_overlay::PeerId,
    kind: &QueryKind,
    strategy: Strategy,
) -> Box<dyn ExecStep> {
    use sqo_plan::Query;

    if let QueryKind::Vql { d } = kind {
        // The search string lands inside a single-quoted VQL literal;
        // neutralize quotes so a stray apostrophe in the pool cannot
        // turn every Vql query into a silent parse error.
        let s = s.replace('\'', " ");
        let query =
            format!("SELECT ?o WHERE {{ (?o,{attr},?v) FILTER (dist(?v,'{s}') < {}) }}", d + 1);
        let opts = sqo_vql::ExecOptions { strategy };
        return match sqo_vql::VqlTask::prepare(&query, from, &opts) {
            Ok(task) => Box::new(task),
            // A parse/plan error costs nothing on the wire: an
            // immediately-done task with empty stats.
            Err(_) => Box::new(NullTask),
        };
    }

    let q = match kind {
        QueryKind::Similar { d } => Query::similar(s, Some(attr), *d),
        QueryKind::TopN { n, d_max } => Query::top_n_similar(Some(attr), *n, s, *d_max),
        QueryKind::SimJoin { d, left_limit, window } => {
            Query::join_scan(attr, Some(attr), *d).left_limit(*left_limit).window_mode(*window)
        }
        QueryKind::Pipeline { d, n, left_limit, window } => {
            // Prefix-range select: every word sharing the drawn string's
            // first two characters feeds the join's left side.
            let prefix: String = s.chars().take(2).collect();
            let hi = format!("{prefix}\u{10FFFF}");
            Query::select_range(attr, Value::from(prefix), Value::from(hi))
                .sim_join(attr, Some(attr), *d)
                .top_n(*n)
                .left_limit(*left_limit)
                .window_mode(*window)
        }
        QueryKind::Vql { .. } => unreachable!("handled above"),
    };
    match PreparedQuery::with_env(&q.strategy(strategy), env, from) {
        Ok(prepared) => Box::new(prepared.task()),
        Err(_) => Box::new(NullTask),
    }
}

/// A task that completes instantly with empty stats (failed query
/// construction).
struct NullTask;

impl ExecStep for NullTask {
    fn step(&mut self, _engine: &mut SimilarityEngine, _at_us: u64) -> StepOutcome {
        StepOutcome::Done(QueryStats::default())
    }
}
