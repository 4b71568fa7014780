//! The benchmark's whole view of the program under test.
//!
//! Every `sqo::` import of this package sits in this file and names only
//! public items ROADMAP does not plan to delete. Deliberately absent: the
//! legacy `SimilarityEngine` query methods (`similar`, `sim_join`,
//! `top_n_*`, …), `ApiMode`, `uniform_refs`, `cost_rewrites` and
//! `ScaleConfig::threads` — configs are built with `..Default::default()`
//! so those fields are never named and the simplicity items can delete
//! them without touching the benchmark.

// datasets
pub use sqo::datasets::{bible_words, painting_titles, string_rows};

// storage
pub use sqo::storage::keys::{attr_value_range, instance_gram_key};
pub use sqo::storage::{postings_for_rows, Posting, PublishConfig, PublishStats, Row, Value};

// overlay
pub use sqo::overlay::{Key, Network, NetworkConfig, PeerId};

// strsim
pub use sqo::strsim::{levenshtein, levenshtein_bounded, qgrams, qsamples};

// cache
pub use sqo::cache::{FrequencySketch, LruCache};

// core: engine construction and the accessors the benchmark reads
// (`publish_rows_traced`, `network`, `network_mut`, `random_peer`,
// `edit_comparisons`, `config` are methods of `SimilarityEngine`).
pub use sqo::core::{
    BrokerConfig, EngineBuilder, JoinWindow, QueryStats, SimilarityEngine, Strategy,
};

// plan: the one query surface
pub use sqo::plan::{PlanResult, PlanRow, Query, Session};

// vql
pub use sqo::vql::{parse as vql_parse, run as vql_run, ExecOptions as VqlOptions};

// sim: the driver, the virtual-time sink, the event queue, the scale core
pub use sqo::sim::{
    install, run_driver, run_serial, run_sharded, Arrival, DriverConfig, DriverReport, EventQueue,
    LatencyModel, QueryKind, ScaleConfig, SimConfig, Topology,
};

// snap
pub use sqo::snap::Snapshot;

// obs: sinks, the histogram, and the workspace's one JSON reader
pub use sqo::obs::{parse_json, BlameProfiler, FanoutSink, Json, LogHistogram, TraceCollector};
