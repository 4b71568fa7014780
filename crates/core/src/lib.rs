//! # sqo-core — the paper's physical similarity operators
//!
//! Implements §4 and §5 of Karnstedt et al., *Similarity Queries on
//! Structured Data in Structured Overlays* (ICDE 2006) on top of the
//! `sqo-overlay` P-Grid substrate and the `sqo-storage` vertical scheme:
//!
//! * [`similar`] — the basic similarity operator (Algorithm 2) in its
//!   q-gram, q-sample and naive variants, on instance and schema level;
//! * [`naive`] — the broadcast baseline of §4 / Figure 1;
//! * [`simjoin`] — similarity joins (Algorithm 3);
//! * [`topn`] — top-N queries with density-estimated range enlargement
//!   (Algorithms 4 and 5) and MIN / MAX / NN ranking ([`ranking`]);
//! * [`select`] — exact, range, keyword and numeric-similarity selections;
//! * [`engine`] — the façade owning the network, with the §4 delegation and
//!   batched-retrieval optimizations;
//! * [`broker`] — the hot path: probe branches flow through the
//!   `sqo-cache` broker (initiator-side posting cache + cross-query probe
//!   batching) when one is installed, filtered by a [`ProbeFilter`];
//! * [`stats`] — per-query message/bandwidth/work accounting.

pub mod adaptive;
pub mod broker;
pub mod engine;
pub mod multi;
pub mod naive;
pub mod ranking;
pub mod select;
pub mod similar;
pub mod simjoin;
pub mod stats;
pub mod topn;

pub use adaptive::{AimdWindow, JoinWindow};
pub use broker::ProbeFilter;
pub use engine::{
    finalize_stats, CardEstimate, CardSource, DegradePolicy, EngineBuilder, EngineConfig, ExecStep,
    QueryDefaults, SimilarityEngine, StepOutcome,
};
pub use multi::{AttrPredicate, MultiMatch, MultiStrategy, MultiTask};
pub use ranking::Rank;
pub use select::{SelectHit, SelectTask};
pub use similar::{SimilarMatch, SimilarTask, Strategy};
pub use simjoin::{JoinOptions, JoinPair, JoinTask};
pub use sqo_cache::{BrokerConfig, BrokerCounters, CacheBatchBroker};
pub use stats::QueryStats;
pub use topn::{TopNItem, TopNTask};
