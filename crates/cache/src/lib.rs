//! # sqo-cache — hot-path caching & probe batching
//!
//! The similarity operators decompose every query into a fan-out of exact
//! q-gram key probes against the overlay. Over a skewed workload the same
//! posting lists are fetched again and again, and concurrent queries route
//! duplicate probes to the same partitions — pure overlay traffic with no
//! reuse. This crate provides the two composable services that recover it:
//!
//! * [`LruCache`] — a bounded, initiator-side LRU of gram-key →
//!   posting-list entries. Entries carry a virtual-time TTL and the
//!   overlay's **cache epoch** ([`sqo_overlay::Network::cache_epoch`]): any
//!   membership change or publication invalidates everything cached before
//!   it, so neither a stale replica nor a pre-publish list is ever served
//!   across such an event. Because the cache stores
//!   the *full* (unfiltered) list, any query's length/position filter can
//!   run against it at the initiator — results are byte-identical to the
//!   delegated filter-at-owner path. An entry copies no posting: it holds
//!   the runs its reply read ([`sqo_overlay::HeldRun`]), which a write
//!   copies before it changes them and which the epoch then fences.
//! * [`ChannelPool`] — cross-query probe coalescing. The first probe to a
//!   partition routes normally (the overlay's
//!   [`retrieve_multi_lists`](sqo_overlay::Network::retrieve_multi_lists) shape) and
//!   leaves the exchange open for a small virtual-time window; probes from
//!   other in-flight tasks arriving within it ride the open channel — one
//!   direct request/reply instead of a routed chain, the overlay charged
//!   for routing once per window.
//!
//! [`CacheBatchBroker`] combines both behind one façade; `sqo-core`'s
//! engine holds one and calls it from its stepped probe pipeline. The
//! broker itself is pure bookkeeping — it never touches the network, so
//! the engine stays the single place where messages are charged.

pub mod batch;
pub mod broker;
pub mod lru;
pub mod sketch;

pub use batch::{ChannelPool, ChannelPoolState, PartitionChannel};
pub use broker::{BrokerConfig, BrokerCounters, BrokerState, CacheBatchBroker};
pub use lru::{LruCache, LruEntryState, LruState};
pub use sketch::{FrequencySketch, SketchState};
