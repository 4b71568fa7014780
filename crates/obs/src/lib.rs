//! # sqo-obs — observability: virtual-time tracing, metrics, exporters
//!
//! The paper's evaluation attributes cost (messages, bandwidth, hops); the
//! simulator adds *when*. This crate makes both inspectable:
//!
//! * [`TraceCollector`] — the canonical [`sqo_overlay::TraceSink`]: records
//!   the structured span/instant/counter stream the overlay, simulator and
//!   operator tasks emit on the virtual-time axis (per-peer queue
//!   occupancy, per-query steps and messages, AIMD window samples).
//! * Exporters — deterministic JSONL ([`TraceCollector::to_jsonl`]), Chrome
//!   `trace_event` JSON loadable in Perfetto / `chrome://tracing`
//!   ([`TraceCollector::to_chrome_trace`]), and a per-query text flame view
//!   ([`TraceCollector::flame`]).
//! * [`MetricsRegistry`] — counters, gauges and log-bucketed histograms
//!   behind one dotted-name schema, absorbing the scattered counter structs
//!   (`QueryStats`, `BrokerCounters`, overlay `Metrics`).
//! * [`LogHistogram`] — the streaming HDR-style histogram backing the
//!   registry and the workload driver's percentiles.
//! * [`BlameProfiler`] — causal latency attribution: folds the cause-tagged
//!   step stream into an exhaustive per-query blame tree (link / queue /
//!   service / stall, summing to 100% of the critical path exactly), with
//!   per-operator aggregates and K-slowest tail exemplars.
//! * [`SloMonitor`] — a sliding virtual-time-window SLO watchdog:
//!   declarative per-operator objectives ([`SloSpec`]), `slo_burn` instants
//!   on every ok → violating edge, a rendered [`SloReport`] verdict.
//! * [`FanoutSink`] — attach several sinks (collector + profiler +
//!   watchdog) to one network.
//! * [`to_json`] / [`to_json_pretty`] and [`parse_json`] / [`validate_json`]
//!   — the workspace's one JSON writer (an artifact type implements
//!   [`ToJson`] through a [`json_record!`] field list) and its strict reader.
//!
//! See `docs/TRACING.md` for the event schema, the cause-tag vocabulary,
//! blame-tree semantics, and the SLO spec format.
//!
//! Install a collector on an engine's network and every subsequent traced
//! query streams into it:
//!
//! ```
//! use sqo_core::{EngineBuilder, Strategy};
//! use sqo_datasets::{bible_words, string_rows};
//! use sqo_obs::TraceCollector;
//! use sqo_plan::{Query, Session};
//!
//! let words = bible_words(120, 3);
//! let rows = string_rows("word", &words, "w");
//! let mut engine = EngineBuilder::new().peers(16).seed(3).build_with_rows(&rows);
//! let collector = TraceCollector::shared();
//! engine.network_mut().set_trace_sink(TraceCollector::as_sink(&collector));
//!
//! let from = engine.random_peer();
//! let q = Query::similar(words[0].as_str(), Some("word"), 1).strategy(Strategy::QGrams);
//! Session::new(&mut engine, from).run(&q).unwrap();
//! assert!(!collector.borrow().is_empty(), "the query produced trace events");
//! let jsonl = collector.borrow().to_jsonl();
//! assert!(jsonl.contains("\"cat\":\"query\""));
//! ```
//!
//! `sqo-datasets` and `sqo-plan` above are dev-dependencies of this crate
//! only; in an application any engine works the same way. Tracing is strictly
//! observational: with no sink installed every emission site is a single
//! branch, and installing one never changes results or counters (pinned
//! byte-identical by the `obs_smoke` tests in `sqo-sim`).

pub mod blame;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod slo;
pub mod trace;

pub use blame::{BlameProfiler, Exemplar, OperatorBlame, QueryBlame};
pub use hist::LogHistogram;
pub use json::{
    parse_json, to_json, to_json_pretty, validate_json, write_json_string, Json, ToJson,
};
pub use metrics::MetricsRegistry;
pub use slo::{SloMonitor, SloReport, SloSpec, SloVerdict};
pub use sqo_overlay::{SharedTraceSink, TraceEvent, TraceSink, TraceTrack, TraceValue};
pub use trace::{FanoutSink, TraceCollector};
