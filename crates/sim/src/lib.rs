//! # sqo-sim — deterministic discrete-event network simulation
//!
//! The paper evaluates its operators by *counting* messages on a
//! shared-memory P-Grid simulator; `sqo-overlay` reproduces that. This
//! crate adds the dimension the counting model cannot express: **time**.
//! A virtual clock, a binary-heap event queue, pluggable latency models,
//! message loss with retry, and per-peer serial service queues turn hop
//! counts into simulated wall-clock latency — and single queries into
//! concurrent workloads whose tail latency reflects contention.
//!
//! * [`events`] — the virtual clock + event queue (deterministic
//!   tie-breaking, exportable for checkpoints).
//! * [`latency`] — [`LatencyModel`] (constant / uniform jitter / log-normal
//!   WAN / per-link asymmetric) and [`LossModel`] (timeout + retry).
//! * [`netsim`] — [`NetSim`], the [`sqo_overlay::clock::EventSink`]
//!   implementation: critical-path fork/join accounting and per-peer serial
//!   queues.
//! * [`driver`] — the concurrent-workload driver: N clients, Poisson /
//!   closed-loop / explicit arrivals, a [`FaultPlan`] script (crash waves,
//!   partition wipes, revivals, loss spikes), per-operator p50/p95/p99. Queries run as **interleaved steps on the event queue**
//!   (`sqo-core`'s resumable operator tasks), so contention between
//!   in-flight queries is symmetric at step granularity.
//! * [`scale`] — `ScaleSim`, the sharded event core: retrieval decomposed
//!   into true per-message events routed by a clone of the overlay's own
//!   topology ([`Topology`]), executed by one window loop in conservative
//!   lookahead windows (width = minimum service + link latency) per peer
//!   shard — deterministic for every shard count, and sized for 10⁵–10⁶
//!   peers.
//! * [`report`] — latency summaries.
//!
//! ## Quickstart
//!
//! ```
//! use sqo_core::EngineBuilder;
//! use sqo_datasets::{bible_words, string_rows};
//! use sqo_sim::{run_driver, Arrival, DriverConfig, LatencyModel, SimConfig};
//!
//! let words = bible_words(300, 9);
//! let rows = string_rows("word", &words, "w");
//! let mut engine = EngineBuilder::new().peers(64).q(2).seed(1).build_with_rows(&rows);
//!
//! let cfg = DriverConfig {
//!     clients: 4,
//!     queries_per_client: 3,
//!     arrival: Arrival::Poisson { mean_interarrival_us: 10_000 },
//!     sim: SimConfig {
//!         latency: LatencyModel::Uniform { min_us: 500, max_us: 2_000 },
//!         ..SimConfig::default()
//!     },
//!     ..DriverConfig::default()
//! };
//! let report = run_driver(&mut engine, "word", &words, &cfg);
//! assert_eq!(report.queries_run, 12);
//! assert!(report.overall.p99_us >= report.overall.p50_us);
//! ```
//!
//! Or instrument individual queries without the driver:
//!
//! ```
//! use sqo_core::{EngineBuilder, Strategy};
//! use sqo_datasets::{bible_words, string_rows};
//! use sqo_plan::{Query, Session};
//! use sqo_sim::{install, SimConfig};
//!
//! let words = bible_words(200, 3);
//! let rows = string_rows("word", &words, "w");
//! let mut engine = EngineBuilder::new().peers(32).seed(2).build_with_rows(&rows);
//! install(&mut engine, SimConfig::default());
//!
//! let from = engine.random_peer();
//! let q = Query::similar(words[0].as_str(), Some("word"), 1).strategy(Strategy::QGrams);
//! let res = Session::new(&mut engine, from).run(&q).unwrap();
//! let sim = res.stats.sim.expect("sink installed");
//! assert!(sim.elapsed_us > 0, "a remote query takes virtual time");
//! ```

pub mod driver;
pub mod events;
pub mod fault;
pub mod latency;
pub mod netsim;
pub mod report;
pub mod scale;
pub mod seed;

pub use driver::{
    resume_driver, run_driver, run_driver_until, Arrival, CacheReport, DriverCheckpoint,
    DriverConfig, DriverPhase, DriverReport, PhaseReport, PhaseSummary, QueryKind, RepairTotals,
};
pub use events::{EventQueue, QueueState};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use latency::{LatencyModel, LossModel};
pub use netsim::{install, install_restored, set_installed_loss, NetSim, NetSimState, SimConfig};
pub use report::{percentile_us, LatencySummary, OperatorLatency};
pub use scale::{
    resume_serial, resume_sharded, rss_now_bytes, run_serial, run_serial_until, run_sharded,
    ScaleCheckpoint, ScaleConfig, ScaleOutcome, ScalePhase, ScaleRun, Topology,
};
pub use sqo_obs::{LogHistogram, MetricsRegistry, TraceCollector};
pub use sqo_overlay::SimLatency;
