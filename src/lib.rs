//! # sqo — Similarity Queries on Structured Data in Structured Overlays
//!
//! Umbrella crate re-exporting the public API of the workspace, which
//! reproduces Karnstedt, Sattler, Hauswirth & Schmidt, *Similarity Queries on
//! Structured Data in Structured Overlays* (ICDE 2006) in Rust:
//!
//! * [`overlay`] — the P-Grid binary-trie DHT substrate with an
//!   message/bandwidth-accounting shared-memory simulator,
//! * [`storage`] — the vertically-oriented triple storage scheme with q-gram
//!   index postings,
//! * [`strsim`] — edit distance, positional q-grams, q-samples and pruning
//!   filters,
//! * [`cache`] — hot-path services: initiator-side posting caches with
//!   churn-epoch invalidation and cross-query probe coalescing,
//! * [`core`] — the physical similarity operators (`Similar`, `SimJoin`,
//!   `TopN`, naive baseline),
//! * [`plan`] — the unified logical-plan layer: the typed `Query` builder,
//!   one operator-tree IR every query surface compiles into, planner
//!   rewrites, `explain()`, and the `Session`/`PreparedQuery` lifecycle,
//! * [`vql`] — the Vertical Query Language: parser, planner, executor
//!   (lowered onto the shared plan IR),
//! * [`datasets`] — synthetic datasets (the paper's §6 query mix runs in
//!   `sqo-bench`),
//! * [`obs`] — observability: virtual-time tracing (JSONL + Chrome
//!   `trace_event` exports), log-bucketed latency histograms, and the
//!   unified metrics registry,
//! * [`sim`] — the discrete-event network simulator: virtual time, latency
//!   models, loss/retry, and concurrent-query workload driving with
//!   per-operator latency percentiles,
//! * [`snap`] — checkpoint, fork, and deterministic replay: freeze the full
//!   simulation world (overlay, virtual time, driver queue, caches, scale
//!   core) into a versioned binary artifact, thaw it byte-identically, or
//!   branch N runs off one warm checkpoint.
//!
//! ## Quickstart
//!
//! ```
//! use sqo::core::{EngineBuilder, Strategy};
//! use sqo::plan::{Query, Session};
//! use sqo::storage::Row;
//!
//! let rows = vec![
//!     Row::new("car:1", [("name", "BMW 320d"), ("color", "blue")]),
//!     Row::new("car:2", [("name", "BMW 320i"), ("color", "red")]),
//!     Row::new("car:3", [("name", "Audi A4"), ("color", "blue")]),
//! ];
//! let mut engine = EngineBuilder::new().peers(32).seed(7).build_with_rows(&rows);
//! let initiator = engine.random_peer();
//! let mut session = Session::new(&mut engine, initiator);
//! let q = Query::similar("BMW 320x", Some("name"), 1).strategy(Strategy::QGrams);
//! assert_eq!(session.run(&q).unwrap().rows.len(), 2);
//! ```

pub use sqo_cache as cache;
pub use sqo_core as core;
pub use sqo_datasets as datasets;
pub use sqo_obs as obs;
pub use sqo_overlay as overlay;
pub use sqo_plan as plan;
pub use sqo_sim as sim;
pub use sqo_snap as snap;
pub use sqo_storage as storage;
pub use sqo_strsim as strsim;
pub use sqo_vql as vql;
