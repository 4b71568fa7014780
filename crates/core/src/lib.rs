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

/// The object accessor and `Debug` of a result row — an operator's or a
/// plan's — that carries its object as a fetched handle (`handle`) beside
/// its `oid`: `object()` builds it, and `Debug` shows it built, as the
/// field `object` between the fields listed before and after the `;`.
#[macro_export]
macro_rules! built_object {
    ($row:ident { $($before:ident),* ; $($after:ident),* }) => {
        impl $row {
            /// The complete object ("build complete object o from T′"),
            /// built from the handle.
            pub fn object(&self) -> sqo_storage::posting::Object {
                self.handle.materialize(&self.oid)
            }
        }

        impl std::fmt::Debug for $row {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let mut s = f.debug_struct(stringify!($row));
                $(s.field(stringify!($before), &self.$before);)*
                s.field("object", &self.object());
                $(s.field(stringify!($after), &self.$after);)*
                s.finish()
            }
        }
    };
}

pub mod adaptive;
pub mod broker;
pub mod engine;
mod memo;
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
    Leg, QueryDefaults, SimilarityEngine, StepOutcome,
};
pub use multi::{AttrPredicate, MultiMatch, MultiStrategy, MultiTask};
pub use ranking::Rank;
pub use select::{SelectHit, SelectTask};
pub use similar::{SimilarMatch, SimilarTask, Strategy};
pub use simjoin::{JoinOptions, JoinPair, JoinTask};
pub use sqo_cache::{BrokerConfig, BrokerCounters, CacheBatchBroker};
pub use stats::QueryStats;
pub use topn::{TopNItem, TopNTask};
