//! The similarity engine: a P-Grid network populated with vertical triple
//! postings, plus the shared machinery (batched probes, object fetches) the
//! physical operators are built on.

use crate::adaptive::JoinWindow;
use crate::broker::ProbeFilter;
use crate::memo::{HostMemo, Reuse};
use crate::stats::QueryStats;
use rustc_hash::{FxHashMap, FxHashSet};
use sqo_cache::{BrokerConfig, BrokerCounters, CacheBatchBroker};
use sqo_overlay::key::Key;
use sqo_overlay::network::{ItemRun, Network, NetworkConfig};
use sqo_overlay::peer::{Item, PeerId};
use sqo_overlay::trie::find_partition_from;
use sqo_overlay::{Metrics, PartitionStore, TraceEvent, TraceTrack};
use sqo_storage::keys::{oid_key_in, oid_key_into};
use sqo_storage::objects::{Fetch, Fetched, Objects};
use sqo_storage::posting::{ObjectPostings, Posting};
use sqo_storage::publish::{batch_for_rows, PublishConfig, PublishStats};
use sqo_storage::triple::Row;
use sqo_strsim::filters::FilterConfig;
use std::ops::Range;
use std::rc::Rc;

/// Per-query execution defaults, grouped so higher layers (the `sqo-plan`
/// planner, workload drivers) inherit one coherent block instead of poking
/// individual engine knobs. A logical plan starts from the engine's
/// defaults and may override the per-query members (strategy, join window,
/// join left limit) per plan node; the engine-state-coupled members
/// (delegation, filters, cache services) apply to every query the engine
/// runs.
#[derive(Debug, Clone)]
pub struct QueryDefaults {
    /// Enable the two §4 optimizations: query delegation and batching of
    /// `Retrieve` calls per target peer (shower-style contact-once).
    pub delegation: bool,
    /// Candidate pruning filters (count / length / position).
    pub filters: FilterConfig,
    /// Default string-similarity strategy for queries that don't pick one.
    pub strategy: crate::similar::Strategy,
    /// Default similarity-join pipelining window ([`JoinOptions::window`](crate::simjoin::JoinOptions::window)):
    /// how many per-left selections the initiator keeps in flight —
    /// static, or AIMD congestion-controlled ([`JoinWindow::Auto`]).
    pub join_window: JoinWindow,
    /// Default cap on a join's left side (`None` joins everything).
    pub join_left_limit: Option<usize>,
    /// Hot-path services: initiator-side posting cache + cross-query probe
    /// batching (`sqo-cache`). Both default to off, which keeps the engine
    /// byte-identical to the broker-less pipeline.
    pub cache: BrokerConfig,
    /// Graceful-degradation policy under churn: per-leg route retries
    /// against alternate replicas, and a per-query virtual-time deadline.
    /// The default (no retries, no deadline) keeps the engine
    /// byte-identical to the pre-degradation pipeline.
    pub degrade: DegradePolicy,
}

impl Default for QueryDefaults {
    fn default() -> Self {
        Self {
            delegation: true,
            filters: FilterConfig::default(),
            strategy: crate::similar::Strategy::QGrams,
            join_window: JoinWindow::Fixed(1),
            join_left_limit: None,
            cache: BrokerConfig::default(),
            degrade: DegradePolicy::default(),
        }
    }
}

/// How queries degrade instead of failing when the overlay is churning.
///
/// Retries re-attempt a failed remote leg (routing draws fresh replica
/// choices, so a retry genuinely tries alternate alive replicas), each
/// preceded by a linear virtual-time backoff charged as stall on the
/// query's critical path. The deadline caps a similarity query's fan-out:
/// once virtual time passes `arrival + deadline_us`, remaining branches
/// are dropped, the answer is returned partial, and the query is marked
/// `gave_up` (see [`QueryStats::completeness`]).
///
/// The all-zero default is behavior-neutral: no extra route attempts, no
/// RNG draws, no deadline — required for zero-fault byte-equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradePolicy {
    /// Extra attempts per failed remote leg (0 disables retries).
    pub retries: u32,
    /// Backoff before the `i`-th retry: `i * backoff_us` of virtual time,
    /// charged as stall inside the query's step window.
    pub backoff_us: u64,
    /// Per-query deadline in virtual µs (None: run to completion).
    pub deadline_us: Option<u64>,
}

impl DegradePolicy {
    /// True when any degradation mechanism is active.
    pub fn is_active(&self) -> bool {
        self.retries > 0 || self.deadline_us.is_some()
    }
}

impl QueryDefaults {
    /// The [`JoinOptions`](crate::simjoin::JoinOptions) these defaults imply.
    pub fn join_options(&self) -> crate::simjoin::JoinOptions {
        crate::simjoin::JoinOptions {
            strategy: self.strategy,
            left_limit: self.join_left_limit,
            window: self.join_window,
        }
    }
}

/// Everything configurable about an engine.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    pub network: NetworkConfig,
    pub publish: PublishConfig,
    /// Per-query execution defaults (delegation, filters, strategy, join
    /// window, cache services) that plans inherit.
    pub query: QueryDefaults,
}

/// Fluent constructor for [`SimilarityEngine`].
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    cfg: EngineConfig,
}

impl EngineBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of peers in the simulated network.
    pub fn peers(mut self, n: usize) -> Self {
        self.cfg.network.peers = n;
        self
    }

    /// Structural replication factor (peers per key-space partition).
    pub fn replication(mut self, r: usize) -> Self {
        self.cfg.network.replication = r;
        self
    }

    /// Routing references per trie level.
    pub fn refs_per_level(mut self, k: usize) -> Self {
        self.cfg.network.refs_per_level = k;
        self
    }

    /// RNG seed (determinism).
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.network.seed = s;
        self
    }

    /// q-gram length used for indexing and probing.
    pub fn q(mut self, q: usize) -> Self {
        assert!(q >= 1);
        self.cfg.publish.q = q;
        self
    }

    /// Toggle the §4 delegation/batching optimizations.
    pub fn delegation(mut self, on: bool) -> Self {
        self.cfg.query.delegation = on;
        self
    }

    /// Candidate filter configuration.
    pub fn filters(mut self, f: FilterConfig) -> Self {
        self.cfg.query.filters = f;
        self
    }

    /// Default similarity-join pipelining window (see
    /// [`QueryDefaults::join_window`]). Accepts a plain `usize` (a fixed
    /// window) or a [`JoinWindow`].
    pub fn join_window(mut self, w: impl Into<JoinWindow>) -> Self {
        self.cfg.query.join_window = w.into();
        self
    }

    /// Full publish configuration (index family toggles).
    pub fn publish_config(mut self, p: PublishConfig) -> Self {
        self.cfg.publish = p;
        self
    }

    /// Hot-path service configuration (posting cache + probe batching).
    /// When any service is enabled, the built engine carries a
    /// [`CacheBatchBroker`] and probe branches flow through it.
    pub fn cache_config(mut self, c: BrokerConfig) -> Self {
        self.cfg.query.cache = c;
        self
    }

    /// Graceful-degradation policy (leg retries + query deadline).
    pub fn degrade(mut self, d: DegradePolicy) -> Self {
        self.cfg.query.degrade = d;
        self
    }

    /// Build the network and publish `rows` into it.
    pub fn build_with_rows(self, rows: &[Row]) -> SimilarityEngine {
        let mut objects = Objects::default();
        let (batch, publish_stats) =
            batch_for_rows(rows, &self.cfg.publish, |oid| objects.number(oid));
        let net = Network::build_groups(self.cfg.network.clone(), batch.into_sorted_groups());
        objects.place_network(&net);
        let broker =
            self.cfg.query.cache.any_enabled().then(|| CacheBatchBroker::new(self.cfg.query.cache));
        SimilarityEngine::from_parts(self.cfg, net, publish_stats, 0, broker, Rc::new(objects))
    }
}

/// A populated similarity-query engine — the system of the paper.
pub struct SimilarityEngine {
    pub(crate) net: Network<Posting>,
    pub(crate) cfg: EngineConfig,
    publish_stats: PublishStats,
    /// Monotone count of edit-distance invocations; stats windows snapshot
    /// it and report the delta ([`QueryStats::edit_comparisons`]), so steps
    /// of interleaved queries never steal each other's comparisons.
    pub(crate) edit_comparisons: u64,
    /// Hot-path services (posting cache + probe batcher); `None` keeps the
    /// probe pipeline on the broker-less delegated path.
    broker: Option<CacheBatchBroker>,
    /// Monotone remote-leg counters backing the degraded-answer signal
    /// ([`QueryStats::completeness`]): legs addressed by [`Leg`] kind, legs
    /// that answered and retries spent, snapshotted/delta'd per stats window
    /// like `edit_comparisons`; and the objects fetch legs asked for.
    pub(crate) legs_addressed: [u64; 5],
    pub(crate) objects_fetched: u64,
    pub(crate) legs_answered: u64,
    pub(crate) leg_retries: u64,
    /// What the engine derived from the stores at one cache epoch.
    pub(crate) memo: HostMemo,
    /// Run the reference paths the differential tests hold the engine to:
    /// the naive scan that reads every posting, the key-lookup fetch and
    /// stage 1.5's string-keyed grouping.
    #[cfg(test)]
    pub(crate) reference: bool,
    /// Object numbers and fetch spots, shared with a restore's snapshot.
    pub(crate) objects: Rc<Objects>,
}

/// A remote leg's kind: a probe, a fetch, or a scan — naive (or a selection of every
/// value), a join's left side, the short-string supplement ([`SimilarityEngine::legs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    Probe,
    Fetch,
    Naive,
    JoinLeft,
    Short,
}

/// One object-fetch branch: a range of the planned objects — those of one
/// partition with delegation, one object without.
pub(crate) type FetchBranch = Range<usize>;

/// An operator's object cache: each fetched object, by number.
pub(crate) type ObjectCache = FxHashMap<u32, Fetched>;

/// Where a probed key's postings lay when its leg answered: the run it was
/// read from — a handle, so what later publications merge into the
/// partition is not in it — and the key's place among the probe keys.
pub(crate) type Lent = (PartitionStore<Posting>, usize);

/// Where a probe's answered lists go. Every probe path — a delegated
/// branch, a per-key retrieve, a cache hit, a coalesced or a cache-filling
/// reply — hands each answered key's postings to one sink, which either
/// filters them into `out` or, when the task replays a kept outcome
/// ([`Reuse::Replay`]), only notes where they lie.
pub(crate) struct ProbeSink<'a> {
    /// The query's probe keys, ascending; branches are ranges of them, and
    /// a key's place here indexes its payload.
    keys: &'a [Key],
    filter: &'a ProbeFilter<'a>,
    out: &'a mut Vec<Posting>,
    reuse: &'a mut Reuse,
}

impl<'a> ProbeSink<'a> {
    /// The sink of a leg issued at `epoch`: a kept outcome replays while
    /// the epoch it was kept at holds; any other leg filters into `out`.
    pub(crate) fn new(
        keys: &'a [Key],
        filter: &'a ProbeFilter<'a>,
        out: &'a mut Vec<Posting>,
        reuse: &'a mut Reuse,
        epoch: u64,
    ) -> Self {
        if let Reuse::Replay { epoch: kept, collected, .. } = reuse {
            *collected |= *kept != epoch;
        }
        Self { keys, filter, out, reuse }
    }

    fn replays(&self) -> bool {
        matches!(self.reuse, Reuse::Replay { collected: false, .. })
    }

    /// Filter `list`, the postings of the key at `i`, where it lies: the
    /// survivors go onto the sink's buffer. Their bytes — the key's
    /// owner-side payload — are summed only where they count: returned
    /// when the reply that ships them is `charged`, and added to the key's
    /// entry when the task records. Otherwise 0 is returned.
    fn filter_in(&mut self, i: usize, list: &[Posting], charged: bool) -> usize {
        let sum = charged || matches!(self.reuse, Reuse::Record { .. });
        let mut bytes = 0;
        for p in self.filter.survivors(list) {
            if sum {
                bytes += p.size_bytes();
            }
            self.out.push(p.clone());
        }
        if let Reuse::Record { payloads } = self.reuse {
            payloads[i] += bytes;
        }
        bytes
    }

    /// The key at `i` was answered out of `store`: note it, and return the
    /// key's kept payload.
    fn lend(&mut self, i: usize, store: &PartitionStore<Posting>) -> usize {
        let Reuse::Replay { outcome, lent, .. } = self.reuse else {
            unreachable!("only a replaying sink lends")
        };
        lent.push((store.clone(), i));
        outcome.payloads[i]
    }

    /// The key at `i` answered `list`, which lies in the run `lies` gives:
    /// collected or lent, by the sink's mode.
    fn take<'s>(
        &mut self,
        i: usize,
        list: &[Posting],
        lies: impl FnOnce() -> &'s PartitionStore<Posting>,
    ) {
        if self.replays() {
            self.lend(i, lies());
        } else {
            self.filter_in(i, list, false);
        }
    }
}

/// Counter snapshot opening a stats window (see
/// [`SimilarityEngine::begin_query`]).
pub(crate) struct StatsSnap {
    traffic: Metrics,
    comparisons: u64,
    legs_addressed: u64,
    legs_answered: u64,
    leg_retries: u64,
}

/// How a [`CardEstimate`] was obtained, from most to least reliable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CardSource {
    /// Counted on the initiator's own partition(s) — measured data.
    LocalExact,
    /// Length of a valid cached posting list the initiator holds.
    CachedList,
    /// Structural heuristic from trie depth and total stored volume.
    TrieDepth,
}

impl CardSource {
    /// Short provenance label used by `explain()` cost notes.
    pub fn label(self) -> &'static str {
        match self {
            CardSource::LocalExact => "local",
            CardSource::CachedList => "cached",
            CardSource::TrieDepth => "trie",
        }
    }
}

/// A zero-message posting-count estimate (see
/// [`SimilarityEngine::estimate_key_cardinality`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardEstimate {
    /// Estimated number of postings.
    pub rows: u64,
    /// Where the number came from.
    pub source: CardSource,
}

impl CardEstimate {
    /// Combine two estimates of disjoint key sets: rows add, provenance
    /// follows the dominant contributor (the weaker source on a tie).
    pub fn merge(self, other: CardEstimate) -> CardEstimate {
        let source = match self.rows.cmp(&other.rows) {
            std::cmp::Ordering::Greater => self.source,
            std::cmp::Ordering::Less => other.source,
            std::cmp::Ordering::Equal => self.source.max(other.source),
        };
        CardEstimate { rows: self.rows.saturating_add(other.rows), source }
    }
}

impl SimilarityEngine {
    /// The q-gram length this engine indexes with.
    pub fn q(&self) -> usize {
        self.cfg.publish.q
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The per-query execution defaults plans inherit (and may override).
    pub fn defaults(&self) -> &QueryDefaults {
        &self.cfg.query
    }

    /// Storage-overhead accounting of the initial publication.
    pub fn publish_stats(&self) -> &PublishStats {
        &self.publish_stats
    }

    /// The underlying network (read access for tests and benches).
    pub fn network(&self) -> &Network<Posting> {
        &self.net
    }

    pub fn network_mut(&mut self) -> &mut Network<Posting> {
        &mut self.net
    }

    /// A random alive peer, for choosing workload initiators.
    ///
    /// # Panics
    /// Panics when every peer is dead; drivers that must survive total
    /// extinction use [`Self::try_random_peer`].
    pub fn random_peer(&mut self) -> PeerId {
        self.net.random_peer()
    }

    /// A random alive peer, or `None` when every peer is dead (same RNG
    /// draws as [`Self::random_peer`]).
    pub fn try_random_peer(&mut self) -> Option<PeerId> {
        self.net.random_alive_peer()
    }

    /// Install (or replace) the hot-path probe broker. Workload drivers use
    /// this to own a fresh broker per run.
    pub fn set_broker(&mut self, broker: CacheBatchBroker) {
        self.broker = Some(broker);
    }

    /// Remove the broker, returning the probe pipeline to the broker-less
    /// delegated path.
    pub fn clear_broker(&mut self) -> Option<CacheBatchBroker> {
        self.broker.take()
    }

    pub fn has_broker(&self) -> bool {
        self.broker.is_some()
    }

    /// True when an installed broker serves the initiator-side posting
    /// cache — the signal cache-aware planning keys off (with delegation
    /// on; the broker never overrides a delegation-off A/B baseline).
    pub fn cache_active(&self) -> bool {
        self.cfg.query.delegation && self.broker.as_ref().is_some_and(|b| b.cache_enabled())
    }

    /// Lifetime service counters of the installed broker (hit rate,
    /// coalesced probes, messages saved), if any.
    pub fn broker_counters(&self) -> Option<BrokerCounters> {
        self.broker.as_ref().map(|b| b.counters())
    }

    // ------------------------------------------------------------------
    // Checkpointing (`sqo-snap`)
    // ------------------------------------------------------------------

    /// The numbers and fetch spots of the stored objects (in no wire record).
    pub fn objects(&self) -> &Rc<Objects> {
        &self.objects
    }

    /// Remote legs addressed since the build, by [`Leg`], and the objects fetch legs asked for.
    pub fn legs(&self) -> ([u64; 5], u64) {
        (self.legs_addressed, self.objects_fetched)
    }

    /// Lifetime edit-distance comparison count (part of the checkpoint
    /// image; stats windows report deltas against it).
    pub fn edit_comparisons(&self) -> u64 {
        self.edit_comparisons
    }

    /// The installed broker's checkpoint image, if a broker is installed.
    pub fn broker_state(&self) -> Option<sqo_cache::BrokerState> {
        self.broker.as_ref().map(CacheBatchBroker::export_state)
    }

    /// Reassemble an engine from checkpointed parts: a restored network
    /// (see `sqo_overlay::Network::import_state`), the original config and
    /// counters, optionally a restored broker, and [`Self::objects`]. The engine
    /// behaves identically to the one the parts were exported from —
    /// `sqo-snap`'s round-trip suite pins report byte-identity on top.
    pub fn from_parts(
        cfg: EngineConfig,
        net: Network<Posting>,
        publish_stats: PublishStats,
        edit_comparisons: u64,
        broker: Option<CacheBatchBroker>,
        objects: Rc<Objects>,
    ) -> Self {
        // Leg counters restart at zero: stats windows only ever read
        // deltas, and checkpoints cut at quiesce (no open windows).
        SimilarityEngine {
            objects,
            net,
            cfg,
            publish_stats,
            edit_comparisons,
            broker,
            legs_addressed: [0; 5],
            objects_fetched: 0,
            legs_answered: 0,
            leg_retries: 0,
            memo: HostMemo::default(),
            #[cfg(test)]
            reference: false,
        }
    }

    // ------------------------------------------------------------------
    // Cardinality estimation (cost-based planning, `sqo-plan::cost`)
    // ------------------------------------------------------------------

    /// Estimate how many postings the overlay stores under `key` (prefix
    /// semantics, matching `Retrieve`), **without touching the wire**.
    /// Cheapest applicable source wins:
    ///
    /// 1. [`CardSource::LocalExact`] — the initiator stores (a partition
    ///    of) the key's subtree: count its own postings exactly. For a
    ///    multi-partition subtree the non-owned partitions are estimated
    ///    structurally and added — the initiator's (possibly empty) slice
    ///    is never extrapolated over partitions it cannot see.
    /// 2. [`CardSource::CachedList`] — the initiator's posting cache holds
    ///    a valid copy of the (single-partition) key's list: its exact
    ///    length, already paid for.
    /// 3. [`CardSource::TrieDepth`] — the structural fallback: a partition
    ///    at trie depth `d` covers a `2^-d` share of the key space, so its
    ///    expected load is `total / 2^d`, summed over the subtree — `total`
    ///    counting each partition's run once, however many members hold
    ///    it. A gap holds nothing and adds nothing.
    pub fn estimate_key_cardinality(&self, from: PeerId, key: &Key) -> CardEstimate {
        let (ps, pe) = self.net.subtree_of(key);
        let peered = self.net.topology().peered_in(ps, pe).iter().map(|p| *p as usize);
        // An id the network does not hold has no run to look at.
        let own = (from.index() < self.net.peer_count()).then(|| self.net.peer_partition(from));
        let total = self.net.stored_items() as u64;
        let structural = |p: usize| total >> (self.net.partition_depth(p).min(63) as u32);
        if let Some(own) = own.filter(|own| (ps..pe).contains(own)) {
            // Free local introspection: the peer's own run, no message.
            let rows = self.net.partition_store(own).prefix_entries(key).items.len() as u64;
            let local = CardEstimate { rows, source: CardSource::LocalExact };
            // Sibling partitions of the subtree are invisible locally:
            // estimate them structurally instead of extrapolating the
            // initiator's slice across data it cannot see.
            let siblings = peered
                .filter(|p| *p != own)
                .map(|p| CardEstimate { rows: structural(p), source: CardSource::TrieDepth })
                .fold(
                    CardEstimate { rows: 0, source: CardSource::LocalExact },
                    CardEstimate::merge,
                );
            return local.merge(siblings);
        }
        if pe.saturating_sub(ps) <= 1 {
            let now_us = self.net.sim_now_us().unwrap_or(0);
            let epoch = self.net.cache_epoch();
            if let Some(n) =
                self.broker.as_ref().and_then(|b| b.cache_peek_len(from, key, now_us, epoch))
            {
                return CardEstimate { rows: n as u64, source: CardSource::CachedList };
            }
        }
        let rows = peered.map(structural).sum();
        CardEstimate { rows, source: CardSource::TrieDepth }
    }

    /// Publish additional rows into the running network (schema evolution:
    /// "users can extend the schema to their needs by simply adding new
    /// triples", §3). Free of message accounting — use
    /// [`Self::publish_rows_traced`] to measure publication cost. Returns
    /// the number of postings **no peer stored** (their whole subtree is a
    /// peerless gap partition, see [`Network::insert_groups`]): 0 on any
    /// network whose every partition has a member.
    pub fn publish_rows(&mut self, rows: &[Row]) -> usize {
        let objects = Rc::make_mut(&mut self.objects);
        let (batch, stats) = batch_for_rows(rows, &self.cfg.publish, |oid| objects.number(oid));
        self.absorb_publish_stats(&stats);
        let unstored = self.net.insert_groups(batch.into_sorted_groups());
        Rc::make_mut(&mut self.objects).stored(&self.net, rows.iter().map(|r| r.oid.as_str()));
        unstored
    }

    /// Publish rows *from a peer*, paying overlay messages for every index
    /// posting. With delegation on, postings are batched per destination
    /// partition (one routed insert-message chain each, one store-payload
    /// message) — the batched-retrieve optimization mirrored on the write
    /// path; with delegation off, every posting is routed independently,
    /// which is the per-posting cost model behind the §8 claim that
    /// publication messages are "linear in the number of attribute columns".
    /// The batch is generated grouped ([`batch_for_rows`]) and only its
    /// distinct keys are ever sorted: the delegated path walks them beside
    /// the partition cover and loses or keeps whole groups, the
    /// per-posting path routes the postings in generation order.
    /// Either way what arrived is stored as one batch (a store changes
    /// nothing a later route looks at), and `matches` of the returned stats
    /// is the number of postings the overlay **stored**: those generated,
    /// less the ones whose route failed and the ones no peer stores
    /// ([`Self::publish_rows`]).
    pub fn publish_rows_traced(&mut self, rows: &[Row], from: PeerId) -> QueryStats {
        let snap = self.begin_query();
        let objects = Rc::make_mut(&mut self.objects);
        let (mut batch, stats) = batch_for_rows(rows, &self.cfg.publish, |oid| objects.number(oid));
        self.absorb_publish_stats(&stats);
        // The one comparison sort: over the batch's distinct keys.
        let order = batch.key_order();
        self.net.sim_fork();
        if self.cfg.query.delegation {
            // Group by destination partition: in key order a partition's
            // keys are one stretch, and the stretches come in partition
            // order — walk the sorted partition cover beside them.
            let keys = batch.keys();
            const LOST: usize = usize::MAX; // a payload whose stretch failed to route
            let mut payload = batch.payload().to_vec();
            let mut rest = order.as_slice();
            while let Some(&first) = rest.first() {
                let part = self.net.partition_of(&keys[first as usize]);
                let path = &self.net.paths()[part];
                // A key shorter than the path is stored by the whole subtree
                // and travels with the subtree's first partition.
                let under = |id: &u32| {
                    let k = &keys[*id as usize];
                    path.is_prefix_of(k) || self.net.partition_of(k) == part
                };
                let (stretch, after) =
                    rest.split_at(rest.iter().take_while(|id| under(id)).count());
                rest = after;
                self.net.sim_branch();
                // A partition's batch is routed by the first posting
                // generated for it: ids count up in generation order.
                let lead = *stretch.iter().min().expect("not empty");
                if let Ok(owner) = self.net.route(from, &keys[lead as usize]) {
                    if owner != from {
                        let bytes = stretch.iter().map(|id| payload[*id as usize]).sum();
                        self.net.send_direct(from, owner, bytes);
                    }
                } else {
                    stretch.iter().for_each(|id| payload[*id as usize] = LOST);
                }
            }
            if payload.contains(&LOST) {
                batch.retain(|id, _, _| payload[id as usize] != LOST);
            }
        } else {
            // Routed and charged one by one, in generation order.
            batch.retain(|_, key, posting| {
                self.net.sim_branch();
                let routed = self.net.route(from, key);
                if let Ok(owner) = routed {
                    if owner != from {
                        self.net.send_direct(from, owner, posting.size_bytes());
                    }
                }
                routed.is_ok()
            });
        }
        self.net.sim_join();
        let arrived = batch.entries().len();
        let stored = arrived - self.net.insert_groups(batch.into_groups(&order));
        Rc::make_mut(&mut self.objects).stored(&self.net, rows.iter().map(|r| r.oid.as_str()));
        let mut out = self.finish_query(&snap);
        out.matches = stored;
        out
    }

    fn absorb_publish_stats(&mut self, stats: &PublishStats) {
        self.publish_stats.rows += stats.rows;
        self.publish_stats.triples += stats.triples;
        self.publish_stats.base_postings += stats.base_postings;
        self.publish_stats.instance_gram_postings += stats.instance_gram_postings;
        self.publish_stats.schema_gram_postings += stats.schema_gram_postings;
        self.publish_stats.short_postings += stats.short_postings;
        self.publish_stats.total_bytes += stats.total_bytes;
    }

    // ------------------------------------------------------------------
    // Stats plumbing
    // ------------------------------------------------------------------

    /// Open a fresh stats window: snapshot the monotone traffic and
    /// comparison counters and open a virtual-time window on the network's
    /// event sink (if one is installed). Windows nest: an inner window's
    /// charges fold into the enclosing one.
    pub(crate) fn begin_query(&mut self) -> StatsSnap {
        self.net.sim_begin_query();
        StatsSnap {
            traffic: *self.net.metrics(),
            comparisons: self.edit_comparisons,
            legs_addressed: self.legs_addressed.iter().sum(),
            legs_answered: self.legs_answered,
            leg_retries: self.leg_retries,
        }
    }

    pub(crate) fn finish_query(&mut self, snap: &StatsSnap) -> QueryStats {
        QueryStats {
            traffic: self.net.metrics().delta(&snap.traffic),
            sim: self.net.sim_end_query(),
            edit_comparisons: self.edit_comparisons - snap.comparisons,
            partitions_addressed: self.legs_addressed.iter().sum::<u64>() - snap.legs_addressed,
            partitions_answered: self.legs_answered - snap.legs_answered,
            retries: self.leg_retries - snap.leg_retries,
            ..Default::default()
        }
    }

    /// Run a remote leg with the configured degradation policy: on a
    /// transient routing failure, re-attempt up to `retries` times, each
    /// preceded by a linear virtual-time backoff (charged as stall inside
    /// the open step window). A dead initiator is not transient — no
    /// replica can answer a peer that cannot ask — so it fails fast.
    /// Routing draws fresh replica choices per attempt, which is what
    /// makes a retry reach *alternate* alive replicas.
    pub(crate) fn with_leg_retry<R>(
        &mut self,
        mut attempt: impl FnMut(&mut Self) -> Result<R, sqo_overlay::RouteError>,
    ) -> Result<R, sqo_overlay::RouteError> {
        use sqo_overlay::RouteError;
        match attempt(self) {
            Ok(r) => Ok(r),
            Err(RouteError::InitiatorDead) => Err(RouteError::InitiatorDead),
            Err(first) => {
                let policy = self.cfg.query.degrade;
                let mut last = first;
                for i in 1..=policy.retries {
                    self.leg_retries += 1;
                    if policy.backoff_us > 0 {
                        if let Some(now) = self.net.sim_now_us() {
                            self.net.sim_reset_to_us(now + policy.backoff_us * i as u64);
                        }
                    }
                    match attempt(self) {
                        Ok(r) => return Ok(r),
                        Err(RouteError::InitiatorDead) => return Err(RouteError::InitiatorDead),
                        Err(e) => last = e,
                    }
                }
                Err(last)
            }
        }
    }

    /// One remote leg under [`Self::with_leg_retry`]: counted as addressed,
    /// and as answered when it routes.
    pub(crate) fn leg<R>(
        &mut self,
        kind: Leg,
        attempt: impl FnMut(&mut Self) -> Result<R, sqo_overlay::RouteError>,
    ) -> Option<R> {
        self.legs_addressed[kind as usize] += 1;
        let got = self.with_leg_retry(attempt).ok();
        self.legs_answered += u64::from(got.is_some());
        got
    }

    // ------------------------------------------------------------------
    // Batched index probes & object fetches (the §4 optimizations)
    // ------------------------------------------------------------------

    /// Group probe keys — ascending — into fan-out branches tagged with
    /// their destination partition: one branch per responsible partition
    /// with delegation on (contact-once batching), one branch per key with
    /// delegation off. A branch is a range of `keys`: ascending keys lie in
    /// ascending partitions ([`find_partition_from`]), so a partition's
    /// keys are one stretch of them, and branches come in partition order.
    pub(crate) fn plan_probe_parts(&self, keys: &[Key]) -> Vec<(usize, Range<usize>)> {
        debug_assert!(keys.is_sorted(), "probe keys ascend");
        let mut branches: Vec<(usize, Range<usize>)> = Vec::new();
        let mut part = 0;
        for (i, k) in keys.iter().enumerate() {
            part = find_partition_from(self.net.paths(), k.as_ref(), part);
            match branches.last_mut() {
                Some((p, branch)) if *p == part && self.cfg.query.delegation => branch.end = i + 1,
                _ => branches.push((part, i..i + 1)),
            }
        }
        branches
    }

    /// One probe branch — the keys at `keys` of the sink's — answered into
    /// `sink`. With delegation, one routed query chain to the keys'
    /// partition — each partition contacted exactly once ("we collect the
    /// calls to Retrieve() and contact peers only once", §4) — local scans,
    /// and **the filter run at the owning peer**: the delegated query
    /// carries the search string and distance, so the owner prunes by
    /// length/position locally and one combined reply carries only the
    /// survivors (this is what makes the q-gram methods' data volume
    /// sublinear). Without delegation, a full independent `Retrieve` per
    /// key: the whole posting list is charged to the wire and filtered at
    /// the initiator. Either way the lists are read where they lie
    /// ([`ProbeSink::take`]).
    pub(crate) fn probe_branch(&mut self, from: PeerId, keys: Range<usize>, sink: &mut ProbeSink) {
        let all = sink.keys;
        if !self.cfg.query.delegation {
            for i in keys {
                for run in &self.scan_prefix(Leg::Probe, from, &all[i]) {
                    let lies = || self.net.partition_store(run.part);
                    sink.take(i, self.net.run_items(run), lies);
                }
            }
            return;
        }
        if let Some(owner) = self.leg(Leg::Probe, |e| e.net.route(from, &all[keys.start])) {
            self.scan_filter_reply(owner, from, keys, sink);
        }
    }

    /// The owner-side half of a delegated probe: prefix-scan every key at
    /// `owner`, hand what each scan lends to `sink` — which filters it
    /// where it lies, or knows its payload — and send `from` one combined
    /// reply carrying the survivors' bytes.
    fn scan_filter_reply(
        &mut self,
        owner: PeerId,
        from: PeerId,
        keys: impl IntoIterator<Item = usize>,
        sink: &mut ProbeSink,
    ) {
        let all = sink.keys;
        let mut payload = 0usize;
        for i in keys {
            let run = self.net.local_prefix_run(owner, &all[i]);
            payload += if sink.replays() {
                sink.lend(i, self.net.partition_store(self.net.peer_partition(owner)))
            } else {
                sink.filter_in(i, run, true)
            };
        }
        if owner != from {
            self.net.send_direct(owner, from, payload);
        }
    }

    // ------------------------------------------------------------------
    // Brokered probes (the sqo-cache hot path; see crate::broker)
    // ------------------------------------------------------------------

    /// Issue one probe branch — the keys at `keys` of the sink's, all of
    /// partition `part` — through the broker at virtual time `at_us`: the
    /// answered lists go to `sink`, and the completion time is returned.
    ///
    /// Without a broker this is exactly the legacy delegated branch (filter
    /// at the owner, survivors travel), charged to `acc`. With one, probe
    /// keys consult the initiator's posting cache first (hits are free and
    /// filtered locally); the misses then either **ride** the destination
    /// partition's open coalescing channel (another probe routed there
    /// within the window — one direct request instead of a routed chain,
    /// the route charged once per window) or route normally and open the
    /// channel for the probes behind them.
    pub(crate) fn probe_issue(
        &mut self,
        acc: &mut QueryStats,
        from: PeerId,
        (part, keys): (usize, Range<usize>),
        at_us: u64,
        sink: &mut ProbeSink,
    ) -> u64 {
        // The broker rides on the §4 delegated pipeline; with delegation
        // off every probe is an independent full-list retrieve (the A/B
        // baseline), and the hot-path services must not quietly re-enable
        // the optimization they are being compared against.
        let (cache_on, batch_on) = match (&self.broker, self.cfg.query.delegation) {
            (Some(b), true) => (b.cache_enabled(), b.batch_enabled()),
            _ => (false, false),
        };
        if !cache_on && !batch_on {
            return self.charged(acc, at_us, |e| e.probe_branch(from, keys, sink)).1;
        }

        let all = sink.keys;
        let epoch = self.net.cache_epoch();
        let mut missing: Vec<usize> = Vec::new();
        if cache_on {
            let broker = self.broker.as_mut().expect("cache_on implies a broker");
            for i in keys {
                match broker.cache_get(from, &all[i], at_us, epoch) {
                    Some(list) => {
                        acc.cache_hits += 1;
                        let lies = || self.net.partition_store(self.net.partition_of(&all[i]));
                        sink.take(i, list, lies);
                    }
                    None => {
                        acc.cache_misses += 1;
                        missing.push(i);
                    }
                }
            }
        } else {
            missing.extend(keys);
        }
        if missing.is_empty() {
            // Every key served from the cache: no wire activity at all.
            return at_us;
        }
        // Cache on: the reply carries the **full** per-key lists so the
        // initiator can filter locally and fill its cache — the price of
        // making every later probe of these keys free. Cache off: the owner
        // filters and only survivors travel, byte-for-byte the legacy
        // delegated payload.
        let missing_keys = || missing.iter().map(|&i| &all[i]);

        let channel = if batch_on {
            let n_keys = missing.len() as u64;
            let c = self.broker.as_mut().and_then(|b| b.channel_lookup(part, at_us, epoch, n_keys));
            // A channel whose owner has since died is useless; the epoch
            // check already closes it (churn bumps the epoch), this is
            // belt-and-braces for direct `fail_peer` surgery mid-window.
            c.filter(|c| self.net.peer_alive(c.owner))
        } else {
            None
        };

        match channel {
            Some(c) => {
                // Ride the open exchange: one direct request to the known
                // owner (no routed chain), scans there, one reply.
                acc.probes_coalesced += missing.len() as u64;
                let broker = self.broker.as_mut().expect("channel came from the broker");
                broker.count_messages_saved(c.route_hops.saturating_sub(1));
                let owner = c.owner;
                let (lists, end) = self.charged(acc, at_us, |e| {
                    e.legs_addressed[Leg::Probe as usize] += 1;
                    e.legs_answered += 1;
                    if owner != from {
                        e.net.send_direct(from, owner, 0);
                    }
                    if cache_on {
                        e.net.scan_keys_and_reply_lists(owner, from, missing_keys())
                    } else {
                        e.scan_filter_reply(owner, from, missing.iter().copied(), sink);
                        Vec::new()
                    }
                });
                self.absorb_full_lists(from, owner, &missing, lists, end, sink);
                end
            }
            None => {
                let ((got, hops), end) = self.charged(acc, at_us, |e| {
                    let hops_before = e.net.metrics().route_hops;
                    // Full lists wanted (cache fill): this is exactly the
                    // overlay's multi-key retrieve. Without the cache, the
                    // owner filters and only survivors travel (the legacy
                    // delegated payload). A routing failure (churn) yields
                    // the same empty outcome an unreachable probe produces
                    // — after the degradation policy's retries, and counted
                    // as an addressed-but-unanswered leg.
                    let got = if cache_on {
                        e.leg(Leg::Probe, |e| e.net.retrieve_multi_lists(from, missing_keys()))
                    } else {
                        e.leg(Leg::Probe, |e| e.net.route(from, &all[missing[0]])).map(|owner| {
                            e.scan_filter_reply(owner, from, missing.iter().copied(), sink);
                            (owner, Vec::new())
                        })
                    };
                    let hops = e.net.metrics().route_hops - hops_before;
                    (got, hops)
                });
                if let Some((owner, lists)) = got {
                    if batch_on {
                        let broker = self.broker.as_mut().expect("batch_on implies a broker");
                        broker.channel_record(part, owner, hops, end, epoch);
                    }
                    self.absorb_full_lists(from, owner, &missing, lists, end, sink);
                }
                end
            }
        }
    }

    /// Fold a cache-filling reply from `owner` into the caller: hand every
    /// full list — the one of the key at `missing`'s same place — to
    /// `sink`, and move it, as the reply shipped it, into the initiator's
    /// cache at the current epoch, under a copy of its key.
    fn absorb_full_lists(
        &mut self,
        from: PeerId,
        owner: PeerId,
        missing: &[usize],
        lists: Vec<Vec<Posting>>,
        now_us: u64,
        sink: &mut ProbeSink,
    ) {
        let epoch = self.net.cache_epoch();
        for (&i, list) in missing.iter().zip(lists) {
            sink.take(i, &list, || self.net.partition_store(self.net.peer_partition(owner)));
            let broker = self.broker.as_mut().expect("full lists only travel to fill a cache");
            broker.cache_put(from, sink.keys[i].clone(), list, now_us, epoch);
        }
    }

    /// A single-key retrieve answered from the initiator's posting cache
    /// when possible (exact-match and keyword selections): `read` gets the
    /// postings where they lie, as one or more lists — the stored runs the
    /// replies lent without a cache, the cached list on a hit, the reply on
    /// a miss, which then fills the cache — and its answer is returned with
    /// the (hits, misses) counter delta; the caller runs inside a charged
    /// window and folds them into its stats afterwards.
    pub(crate) fn cached_retrieve<R>(
        &mut self,
        from: PeerId,
        key: &Key,
        read: impl FnOnce(&[&[Posting]]) -> R,
    ) -> (R, u64, u64) {
        let cache_on = self.broker.as_ref().is_some_and(|b| b.cache_enabled());
        if !cache_on {
            let runs = self.leg(Leg::Probe, |e| e.net.retrieve_runs(from, key)).unwrap_or_default();
            let lists: Vec<&[Posting]> = runs.iter().map(|r| self.net.run_items(r)).collect();
            return (read(&lists), 0, 0);
        }
        let epoch = self.net.cache_epoch();
        let now_us = self.net.sim_now_us().unwrap_or(0);
        let broker = self.broker.as_mut().expect("cache_on implies a broker");
        if let Some(list) = broker.cache_get(from, key, now_us, epoch) {
            return (read(&[list]), 1, 0);
        }
        // A routing failure (churn) is transient — the next draw may pick a
        // live replica — so it must not be negative-cached as an empty list.
        let Some(list) = self.leg(Leg::Probe, |e| e.net.retrieve_list(from, key)) else {
            return (read(&[]), 0, 1);
        };
        let answer = read(&[&list]);
        let now_us = self.net.sim_now_us().unwrap_or(0);
        let broker = self.broker.as_mut().expect("cache_on implies a broker");
        broker.cache_put(from, key.clone(), list, now_us, epoch);
        (answer, 0, 1)
    }

    /// Group object fetches into fan-out branches, ranges of `objects` (by
    /// ascending oid, so their keys and partitions ascend) in partition
    /// order: per owning partition with delegation, per object without. An
    /// object's partition is its spot's, or its key's galloped to.
    pub(crate) fn plan_fetch_branches<T: Fetch>(&self, objects: &[T]) -> Vec<FetchBranch> {
        debug_assert!(objects.windows(2).all(|w| w[0].oid() < w[1].oid()), "oids ascend strictly");
        if !self.cfg.query.delegation {
            return (0..objects.len()).map(|i| i..i + 1).collect();
        }
        let mut branches: Vec<FetchBranch> = Vec::new();
        let (mut part, mut buf) = (None, [0; _]);
        for (i, o) in objects.iter().enumerate() {
            let at = match o.spot(&self.objects) {
                Some(spot) => spot.part as usize,
                None => {
                    let key = oid_key_in(o.oid(), &mut buf);
                    find_partition_from(self.net.paths(), key, part.unwrap_or(0))
                }
            };
            match branches.last_mut() {
                Some(branch) if part == Some(at) => branch.end = i + 1,
                _ => branches.push(i..i + 1),
            }
            part = Some(at);
        }
        branches
    }

    /// One object-fetch branch: route by the first object's key, charge the
    /// owner the prefix scan of each object's key, and reply once with the
    /// objects' [`Object::repr_len`](sqo_storage::posting::Object::repr_len):
    /// a spot's payload, and one entry for a leaf key, no key looked up;
    /// else the key galloped to in the owner's run. `keep` gets each object
    /// as a handle on that run.
    pub(crate) fn fetch_branch<T: Fetch>(
        &mut self,
        from: PeerId,
        objects: &[T],
        mut keep: impl FnMut(&T, Fetched),
    ) {
        self.objects_fetched += objects.len() as u64;
        #[cfg(test)]
        if self.reference {
            return tests::reference_fetch_branch(self, from, objects, keep);
        }
        let mut key = Key::empty();
        if !self.cfg.query.delegation {
            for o in objects {
                oid_key_into(o.oid(), &mut key);
                if let Some(runs) = self.leg(Leg::Fetch, |e| e.net.retrieve_runs(from, &key)) {
                    let items = runs.iter().flat_map(|r| self.net.run_items(r));
                    keep(o, Fetched::Gathered(ObjectPostings::gather(o.oid(), items)));
                }
            }
            return;
        }
        oid_key_into(objects[0].oid(), &mut key);
        let Some(owner) = self.leg(Leg::Fetch, |e| e.net.route(from, &key)) else { return };
        let part = self.net.peer_partition(owner);
        let run = self.net.partition_store(part).clone();
        let (mut payload, mut cursor) = (0usize, 0);
        for o in objects {
            let spot = o.spot(&self.objects).filter(|s| s.part as usize == part);
            let bytes = match spot {
                Some(s) if s.leaf => {
                    self.net.charge_local_scan(owner, 1);
                    s.payload as usize
                }
                _ => {
                    oid_key_into(o.oid(), &mut key);
                    let items = self.net.local_prefix_run_from(owner, &key, &mut cursor);
                    spot.map_or_else(
                        || ObjectPostings::payload(o.oid(), items),
                        |s| s.payload as usize,
                    )
                }
            };
            debug_assert!(spot.is_none_or(|s| {
                oid_key_into(o.oid(), &mut key);
                let scan = run.prefix_entries(&key);
                (!s.leaf || scan.entries == 1)
                    && ObjectPostings::payload(o.oid(), scan.items) == bytes
            }));
            payload += bytes;
            keep(o, Fetched::At(run.clone()));
        }
        if owner != from {
            self.net.send_direct(owner, from, payload);
        }
    }

    /// Fetch the complete objects for a set of oids (Algorithm 2's "build
    /// complete object o from T′"): oid → the object as fetched, one
    /// without fields ([`Fetched::is_empty`]) for an oid nothing is stored
    /// under. The stepped operators' branches, run back to back (a plan's
    /// lookup by oid, a swapped join's scanned side).
    pub fn fetch_objects(
        &mut self,
        from: PeerId,
        oids: &FxHashSet<String>,
    ) -> FxHashMap<String, Fetched> {
        let mut sorted: Vec<&str> = oids.iter().map(String::as_str).collect();
        sorted.sort_unstable(); // the plan merges ascending oids
        let branches = self.plan_fetch_branches(&sorted);
        let mut result: FxHashMap<String, Fetched> = FxHashMap::default();
        self.net.sim_fork();
        for branch in branches {
            self.net.sim_branch();
            self.fetch_branch(from, &sorted[branch], |oid, fetched| {
                result.insert(oid.to_string(), fetched);
            });
        }
        self.net.sim_join();
        result
    }

    /// Distributed prefix scan (shower fan-out), e.g. "all values of
    /// attribute A": where the items each answering partition shipped lie
    /// (read them with `Network::run_items`). Thin wrapper over
    /// `Network::retrieve_runs`, with per-partition leg accounting:
    /// silenced shower siblings surface as addressed-but-unanswered legs
    /// instead of vanishing.
    pub(crate) fn scan_prefix(&mut self, kind: Leg, from: PeerId, prefix: &Key) -> Vec<ItemRun> {
        // `failed0` is re-snapshotted per attempt, so the shower accounting
        // below reflects only the attempt that answered.
        let mut failed0 = 0u64;
        let got = self.with_leg_retry(|e| {
            failed0 = e.net.metrics().failed_routes;
            e.net.retrieve_runs(from, prefix)
        });
        match got {
            Ok(runs) => {
                let failed = self.net.metrics().failed_routes - failed0;
                self.legs_addressed[kind as usize] += runs.len() as u64 + failed;
                self.legs_answered += runs.len() as u64;
                runs
            }
            Err(_) => {
                self.legs_addressed[kind as usize] += 1;
                Vec::new()
            }
        }
    }

    // ------------------------------------------------------------------
    // Stepped execution (the event-driven operator model)
    // ------------------------------------------------------------------

    /// Execute `f` as one atomic chunk of a stepped task: position the
    /// virtual clock at `at_us`, open a stats window around the chunk, and
    /// fold its charges (traffic, comparisons, legs, latency profile) into
    /// `acc` with [`QueryStats::absorb`].
    /// Returns `f`'s result and the virtual time the chunk completed at.
    ///
    /// Every wire interaction inside the chunk observes the per-peer
    /// backlogs left by *all* previously executed steps — of this task and
    /// of every other in-flight task — which is what makes contention
    /// symmetric when a driver interleaves tasks in global time order.
    pub fn charged<R>(
        &mut self,
        acc: &mut QueryStats,
        at_us: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        self.net.sim_reset_to_us(at_us);
        let snap = self.begin_query();
        let r = f(self);
        let step = self.finish_query(&snap);
        let end = self.net.sim_now_us().unwrap_or(at_us);
        if self.net.has_trace_sink() {
            if let Some(q) = self.net.trace_query() {
                self.net.trace_with(|| {
                    let b = step.sim.unwrap_or_default();
                    TraceEvent::span(
                        at_us,
                        end.saturating_sub(at_us),
                        TraceTrack::Query(q),
                        "step",
                        "exec",
                    )
                    .arg("messages", step.traffic.messages)
                    .arg("comparisons", step.edit_comparisons)
                    .arg("net", b.crit_net_us)
                    .arg("queue", b.crit_queue_us)
                    .arg("service", b.crit_service_us)
                    .arg("stall", b.crit_stall_us)
                });
            }
        }
        acc.absorb(&step);
        (r, end)
    }

    /// Drive a stepped task to completion on the current virtual clock —
    /// the synchronous execution path every public operator entry point
    /// uses. The task's steps run back to back (its internal fan-out
    /// bookkeeping still applies critical-path timing), so a standalone
    /// query costs exactly what its interleaved steps would.
    pub fn run_task(&mut self, task: &mut dyn ExecStep) -> QueryStats {
        let trace_q = self.trace_query_begin();
        let start = self.net.sim_now_us().unwrap_or(0);
        let mut at = start;
        let stats = loop {
            match task.step(self, at) {
                StepOutcome::Yield { at_us } => at = at_us,
                StepOutcome::Done(stats) => break stats,
            }
        };
        self.trace_query_end(trace_q, &stats, start);
        stats
    }

    /// Open a query trace track for a synchronous run: allocates a track id
    /// and attributes subsequent charges to it — unless no trace sink is
    /// installed, or a driver already attributed this task (an outer run
    /// keeps ownership). Pair with [`Self::trace_query_end`].
    pub fn trace_query_begin(&mut self) -> Option<u64> {
        if self.net.has_trace_sink() && self.net.trace_query().is_none() {
            let id = self.net.next_trace_query_id();
            self.net.set_trace_query(Some(id));
            Some(id)
        } else {
            None
        }
    }

    /// Close a track opened by [`Self::trace_query_begin`]: emit the
    /// whole-query span (the stats' latency envelope, or a zero-length span
    /// at `fallback_start_us` without an event sink) and clear the
    /// attribution. No-op when `trace_q` is `None`.
    pub fn trace_query_end(
        &mut self,
        trace_q: Option<u64>,
        stats: &QueryStats,
        fallback_start_us: u64,
    ) {
        let Some(q) = trace_q else { return };
        let (ts, dur) = match &stats.sim {
            Some(s) => (s.start_us, s.elapsed_us),
            None => (fallback_start_us, 0),
        };
        self.net.trace_with(|| {
            TraceEvent::span(ts, dur, TraceTrack::Query(q), "query", "query")
                .arg("probes", stats.probes)
                .arg("matches", stats.matches)
                .arg("messages", stats.traffic.messages)
        });
        self.net.set_trace_query(None);
    }
}

/// Close out a task's accumulated stats: a stepped query's latency is its
/// completion envelope (last result minus arrival), queue waits between
/// steps included. Custom [`ExecStep`] implementations call this right
/// before returning [`StepOutcome::Done`].
pub fn finalize_stats(stats: &mut QueryStats) {
    if let Some(s) = &mut stats.sim {
        s.elapsed_us = s.end_us.saturating_sub(s.start_us);
    }
}

/// Outcome of advancing a stepped task. (`Done` carries the full stats
/// block inline — tasks are few and the enum is immediately destructured,
/// so boxing would only add an allocation per query.)
#[derive(Debug, Clone, Copy)]
#[allow(clippy::large_enum_variant)]
pub enum StepOutcome {
    /// More work remains; resume the task at virtual time `at_us` (a
    /// fan-out branch may resume *before* the scheduler's current time —
    /// branches are charged from their fork point).
    Yield { at_us: u64 },
    /// The task completed; its accumulated, finalized stats.
    Done(QueryStats),
}

/// A resumable query execution: operator work split into explicit
/// continuation steps (issue-probe → await-responses → merge) that a
/// scheduler interleaves with other tasks on one event queue.
///
/// Each `step` call performs one bounded chunk of work — typically a single
/// routed sub-request — charged at the given virtual time, then yields the
/// time it wants to resume at. Implementations must make progress on every
/// call (the state machine advances even when routing fails), so a task
/// always terminates in finitely many steps.
pub trait ExecStep {
    /// Advance by one step at virtual time `at_us`.
    fn step(&mut self, engine: &mut SimilarityEngine, at_us: u64) -> StepOutcome;
}

/// Bookkeeping for a stepped parallel fan-out: every branch starts at the
/// fork frontier and the merge resumes at the latest branch completion —
/// the stepped counterpart of `sim_fork`/`sim_branch`/`sim_join`, except
/// that branches yield back to the scheduler instead of being charged
/// analytically in one synchronous sweep.
pub(crate) struct FanOut<B> {
    queue: std::collections::VecDeque<B>,
    /// Virtual time the fan-out was issued at; every branch is charged
    /// from here.
    pub fork_us: u64,
    /// Latest branch completion seen so far (the merge point).
    pub max_end_us: u64,
}

impl<B> FanOut<B> {
    pub(crate) fn new(branches: impl IntoIterator<Item = B>, fork_us: u64) -> Self {
        Self { queue: branches.into_iter().collect(), fork_us, max_end_us: fork_us }
    }

    /// Take the next branch to execute, if any remain.
    pub(crate) fn pop(&mut self) -> Option<B> {
        self.queue.pop_front()
    }

    /// Branches still queued — what a deadline drop forfeits.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn record_end(&mut self, end_us: u64) {
        self.max_end_us = self.max_end_us.max(end_us);
    }

    pub(crate) fn is_done(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_storage::posting::{Object, PostingKind};
    use sqo_storage::triple::Value;

    /// No peer, no replica or no reference per level is refused with the
    /// network check's message, not a division by zero on the way to it.
    #[test]
    fn an_unbuildable_network_is_refused_with_the_check_message() {
        let rows = [Row::new("o:1", [("name", Value::from("x"))])];
        for zero in [
            EngineBuilder::new().peers(0),
            EngineBuilder::new().replication(0),
            EngineBuilder::new().refs_per_level(0),
        ] {
            let build = std::panic::AssertUnwindSafe(|| zero.build_with_rows(&rows));
            let refused = std::panic::catch_unwind(build).err().expect("the build is refused");
            let message = refused.downcast_ref::<String>().map(String::as_str);
            assert_eq!(
                message,
                Some("need at least one peer, one replica and one reference per level")
            );
        }
    }

    fn cars() -> Vec<Row> {
        vec![
            Row::new("car:1", [("name", Value::from("BMW 320d")), ("hp", Value::from(190))]),
            Row::new("car:2", [("name", Value::from("Audi A4")), ("hp", Value::from(150))]),
            Row::new("car:3", [("name", Value::from("BMW 330i")), ("hp", Value::from(258))]),
        ]
    }

    /// `fetch_branch` before objects had numbers: every object's key made
    /// and looked up in the owner's run, each lookup galloping from the one
    /// before, every object gathered where it lay at fetch time and charged
    /// its `repr_len`.
    pub(crate) fn reference_fetch_branch<T: Fetch>(
        e: &mut SimilarityEngine,
        from: PeerId,
        objects: &[T],
        mut keep: impl FnMut(&T, Fetched),
    ) {
        let mut key = Key::empty();
        if !e.cfg.query.delegation {
            for o in objects {
                oid_key_into(o.oid(), &mut key);
                e.legs_addressed[Leg::Fetch as usize] += 1;
                if let Ok(runs) = e.with_leg_retry(|e| e.net.retrieve_runs(from, &key)) {
                    e.legs_answered += 1;
                    let items = runs.iter().flat_map(|r| e.net.run_items(r));
                    keep(o, Fetched::Gathered(ObjectPostings::gather(o.oid(), items)));
                }
            }
            return;
        }
        e.legs_addressed[Leg::Fetch as usize] += 1;
        oid_key_into(objects[0].oid(), &mut key);
        let Ok(owner) = e.with_leg_retry(|e| e.net.route(from, &key)) else {
            return;
        };
        e.legs_answered += 1;
        let (mut payload, mut cursor) = (0, 0);
        for o in objects {
            oid_key_into(o.oid(), &mut key);
            let run = e.net.local_prefix_run_from(owner, &key, &mut cursor);
            let obj = ObjectPostings::gather(o.oid(), run);
            payload += obj.repr_len(o.oid());
            keep(o, Fetched::Gathered(obj));
        }
        if owner != from {
            e.net.send_direct(owner, from, payload);
        }
    }

    /// Fetch one object by oid: `None` when nothing is stored under it.
    fn lookup(e: &mut SimilarityEngine, from: PeerId, oid: &str) -> Option<Object> {
        let objects = e.fetch_objects(from, &[oid.to_string()].into_iter().collect());
        objects.get(oid).filter(|o| !o.is_empty(oid)).map(|o| o.materialize(oid))
    }

    #[test]
    fn build_and_lookup_object() {
        let mut e = EngineBuilder::new().peers(16).seed(3).build_with_rows(&cars());
        let from = e.random_peer();
        let obj = lookup(&mut e, from, "car:1").expect("object exists");
        assert_eq!(obj.get("name"), Some(&Value::from("BMW 320d")));
        assert_eq!(obj.get("hp"), Some(&Value::from(190)));
    }

    #[test]
    fn lookup_missing_object() {
        let mut e = EngineBuilder::new().peers(16).build_with_rows(&cars());
        let from = e.random_peer();
        assert!(lookup(&mut e, from, "car:999").is_none());
    }

    /// Every branch of a probe of `keys`, back to back: what the stepped
    /// operators issue one branch per step.
    fn probe_all(
        e: &mut SimilarityEngine,
        from: PeerId,
        keys: &[Key],
        filter: &ProbeFilter<'_>,
    ) -> Vec<Posting> {
        let (mut out, mut off) = (Vec::new(), Reuse::Off);
        let mut sink = ProbeSink::new(keys, filter, &mut out, &mut off, 0);
        for (_part, branch) in e.plan_probe_parts(keys) {
            e.probe_branch(from, branch, &mut sink);
        }
        out
    }

    /// The filter a `Similar(s, attr, d)` query would carry, with its
    /// sorted distinct probe keys.
    fn probe_plan(s: &str, attr: &str, q: usize) -> (FxHashMap<String, Vec<u32>>, Vec<Key>) {
        let mut gram_positions: FxHashMap<String, Vec<u32>> = FxHashMap::default();
        for g in sqo_strsim::qgram::qgrams(s, q) {
            gram_positions.entry(g.gram).or_default().push(g.pos);
        }
        let mut keys: Vec<Key> =
            gram_positions.keys().map(|g| sqo_storage::keys::instance_gram_key(attr, g)).collect();
        keys.sort_unstable();
        (gram_positions, keys)
    }

    #[test]
    fn probe_keys_batched_vs_unbatched_same_results_fewer_messages() {
        let rows = cars();
        let (gram_positions, keys) = probe_plan("BMW 320", "name", 3);
        let filter = ProbeFilter::new(Some("name"), &gram_positions, 7, 1, FilterConfig::none());

        let run = |delegation: bool| {
            let mut e = EngineBuilder::new()
                .peers(64)
                .seed(11)
                .delegation(delegation)
                .build_with_rows(&rows);
            let from = e.random_peer();
            let snap = e.begin_query();
            let mut got = probe_all(&mut e, from, &keys, &filter);
            got.sort_by(|a, b| a.oid().cmp(b.oid()));
            let stats = e.finish_query(&snap);
            (got.len(), stats.traffic.messages)
        };
        let (n_del, msgs_del) = run(true);
        let (n_raw, msgs_raw) = run(false);
        assert_eq!(n_del, n_raw, "delegation must not change results");
        assert!(n_del > 0);
        assert!(
            msgs_del <= msgs_raw,
            "batching should not cost more messages ({msgs_del} vs {msgs_raw})"
        );
    }

    /// The probe pipeline reads stored postings in place and copies only
    /// survivors; what it returns and what it charges must not depend on
    /// that. Postings and `Metrics` for delegation on/off × broker on/off
    /// are pinned to the values the cloning pipeline produced (parent of
    /// the borrow-filter-copy change), two probe rounds each so the second
    /// exercises cache hits and channel rides. The route hops were pinned
    /// again when peers went where the data is: the routes got shorter
    /// (24 → 15, 12 → 7, 31 → 20), every reply and scan stayed as it was.
    #[test]
    fn probe_postings_and_traffic_match_the_pinned_cloning_pipeline() {
        let rows: Vec<Row> = (0..600u32)
            .map(|i| {
                let syl = ["an", "ba", "na", "ra", "ma", "ta", "in", "on"];
                let w: String =
                    (0..4).map(|k| syl[((i >> (3 * k)) & 7) as usize]).collect::<String>();
                Row::new(format!("w:{i}"), [("word", Value::from(w))])
            })
            .collect();
        let (gram_positions, keys) = probe_plan("bananara", "word", 3);
        let filter = ProbeFilter::new(Some("word"), &gram_positions, 8, 1, FilterConfig::default());
        let digest = |mut got: Vec<Posting>| {
            let mut rows: Vec<String> = got
                .drain(..)
                .map(|p| match p.kind() {
                    PostingKind::InstanceGram { .. } => {
                        format!("{}|{}|{}", p.oid(), p.gram(), p.pos())
                    }
                    _ => panic!("probe returned a non-gram posting: {p:?}"),
                })
                .collect();
            rows.sort_unstable();
            // FNV-1a over the sorted rows.
            let hash = rows
                .iter()
                .flat_map(|r| r.bytes().chain([b'\n']))
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            (rows.len(), hash)
        };
        let build = |delegation: bool, broker: bool| {
            let cache = if broker { BrokerConfig::enabled() } else { BrokerConfig::default() };
            EngineBuilder::new()
                .peers(64)
                .seed(11)
                .delegation(delegation)
                .cache_config(cache)
                .build_with_rows(&rows)
        };
        let run = |delegation: bool, broker: bool, rounds: usize| {
            let mut e = build(delegation, broker);
            let from = e.random_peer();
            let snap = e.begin_query();
            let mut acc = QueryStats::default();
            let mut answers = Vec::new();
            for _ in 0..rounds {
                let (mut got, mut off) = (Vec::new(), Reuse::Off);
                let mut sink = ProbeSink::new(&keys, &filter, &mut got, &mut off, 0);
                for branch in e.plan_probe_parts(&keys) {
                    e.probe_issue(&mut acc, from, branch, 0, &mut sink);
                }
                answers.push(digest(got));
            }
            assert!(answers.iter().all(|a| *a == answers[0]), "a warm cache changed the answer");
            (answers[0], e.finish_query(&snap).traffic)
        };
        let m =
            |messages, bytes, route_hops, result_msgs, result_bytes, local_items_scanned| Metrics {
                messages,
                bytes,
                route_hops,
                result_msgs,
                result_bytes,
                local_items_scanned,
                ..Metrics::default()
            };
        let pinned_postings = (276usize, 5_956_332_389_502_805_529u64);
        for (delegation, broker, pinned) in [
            (true, false, m(23, 16_268, 15, 8, 15_164, 10)),
            (true, true, m(11, 16_758, 7, 4, 16_230, 5)),
            (false, false, m(30, 33_900, 20, 10, 32_460, 10)),
            (false, true, m(30, 33_900, 20, 10, 32_460, 10)),
        ] {
            let (postings, traffic) = run(delegation, broker, 2);
            assert_eq!(postings, pinned_postings, "delegation {delegation}, broker {broker}");
            assert_eq!(traffic, pinned, "delegation {delegation}, broker {broker}");
        }
        // Without a broker, a brokered branch is the plain one.
        for delegation in [true, false] {
            let mut e = build(delegation, false);
            let from = e.random_peer();
            let snap = e.begin_query();
            let got = probe_all(&mut e, from, &keys, &filter);
            assert_eq!(digest(got), pinned_postings);
            assert_eq!(e.finish_query(&snap).traffic, run(delegation, false, 1).1);
        }
    }

    #[test]
    fn fetch_objects_batches() {
        let mut e = EngineBuilder::new().peers(32).seed(5).build_with_rows(&cars());
        let from = e.random_peer();
        let oids: FxHashSet<String> =
            ["car:1", "car:2", "car:3"].iter().map(|s| s.to_string()).collect();
        let objs = e.fetch_objects(from, &oids);
        assert_eq!(objs.len(), 3);
        assert_eq!(objs["car:2"].materialize("car:2").get("hp"), Some(&Value::from(150)));
    }

    /// A fetch branch as it was planned: each oid with its key.
    type KeyedBranch = Vec<(String, Key)>;

    /// `plan_fetch_branches` as it was: one hash-map group per partition,
    /// the groups sorted by partition, each oid's key made and kept.
    fn hashed_fetch_plan(e: &SimilarityEngine, oids: &[&str]) -> Vec<KeyedBranch> {
        let keyed = oids.iter().map(|o| (o.to_string(), sqo_storage::keys::oid_key(o)));
        if !e.cfg.query.delegation {
            return keyed.map(|ok| vec![ok]).collect();
        }
        let mut by_part: FxHashMap<usize, KeyedBranch> = FxHashMap::default();
        for (oid, key) in keyed {
            by_part.entry(e.net.partition_of(&key)).or_default().push((oid, key));
        }
        let mut parts: Vec<(usize, KeyedBranch)> = by_part.into_iter().collect();
        parts.sort_by_key(|(p, _)| *p);
        parts.into_iter().map(|(_, os)| os).collect()
    }

    /// `fetch_branch` as it was: every key the plan's, looked up in the
    /// owner's run afresh, every object assembled owned and charged its
    /// `repr_len`.
    fn owned_fetch(
        e: &mut SimilarityEngine,
        from: PeerId,
        oids: KeyedBranch,
    ) -> Vec<(String, Object)> {
        let mut out = Vec::new();
        if !e.cfg.query.delegation {
            for (oid, key) in oids {
                e.legs_addressed[Leg::Fetch as usize] += 1;
                if let Ok(postings) = e.with_leg_retry(|e| e.net.retrieve_list(from, &key)) {
                    e.legs_answered += 1;
                    let obj = Fetched::Gathered(ObjectPostings::gather(&oid, postings.iter()))
                        .materialize(&oid);
                    out.push((oid, obj));
                }
            }
            return out;
        }
        e.legs_addressed[Leg::Fetch as usize] += 1;
        let Ok(owner) = e.with_leg_retry(|e| e.net.route(from, &oids[0].1)) else {
            return out;
        };
        e.legs_answered += 1;
        let mut payload = 0;
        for (oid, key) in oids {
            let run = e.net.local_prefix_run(owner, &key);
            let obj = Fetched::Gathered(ObjectPostings::gather(&oid, run)).materialize(&oid);
            payload += obj.repr_len();
            out.push((oid, obj));
        }
        if owner != from {
            e.net.send_direct(owner, from, payload);
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config { cases: 32, ..Default::default() })]

        /// Sorted oids planned by merging — each partition galloped to
        /// from the one before, each key made in one reused buffer — make
        /// the branches the hash-map grouping of kept keys made, and a
        /// branch fetched by merging through the owner's run, its keys
        /// remade in one buffer, ships handles that materialize to the
        /// objects fetched afresh by the plan's keys, at the same legs,
        /// messages, bytes and scanned items. Oids share
        /// prefixes ("w:1", "w:10", …: keys shorter than the trie there),
        /// some share their first 32 bytes (a key repeats), some are not
        /// stored; delegation on and off.
        #[test]
        fn merged_fetches_are_the_hashed_grouping_and_the_fresh_lookups(
            ids in proptest::collection::hash_set(0u32..3_000, 1..120),
            long in proptest::collection::hash_set(0u32..40, 0..10),
            asked in proptest::collection::hash_set(0u32..3_200, 1..80),
            peers in 2usize..96,
            seed in 0u64..40,
            delegation in proptest::prelude::any::<bool>(),
        ) {
            let stem = "an-object-id-of-thirty-two-bytes";
            let oid_of = |i: &u32| if *i < 40 { format!("{stem}{i}") } else { format!("w:{i}") };
            let rows: Vec<Row> = ids
                .iter()
                .chain(&long)
                .map(|i| Row::new(oid_of(i), [("word", Value::from(format!("v{i}")))]))
                .collect();
            let build = || {
                EngineBuilder::new()
                    .peers(peers)
                    .seed(seed)
                    .delegation(delegation)
                    .build_with_rows(&rows)
            };
            let (mut merged, mut fresh) = (build(), build());
            let mut oids: Vec<String> = asked.iter().chain(&ids).chain(&long).map(oid_of).collect();
            oids.sort_unstable();
            oids.dedup();
            let oids: Vec<&str> = oids.iter().map(String::as_str).collect();

            let branches = merged.plan_fetch_branches(&oids);
            let keyed = hashed_fetch_plan(&fresh, &oids);
            let planned: Vec<Vec<&str>> =
                keyed.iter().map(|b| b.iter().map(|(oid, _)| oid.as_str()).collect()).collect();
            let stretches: Vec<&[&str]> = branches.iter().map(|b| &oids[b.clone()]).collect();
            proptest::prop_assert_eq!(stretches, planned);
            let from = merged.random_peer();
            proptest::prop_assert_eq!(fresh.random_peer(), from);
            for (branch, keyed) in branches.into_iter().zip(keyed) {
                let mut got: Vec<(String, Object)> = Vec::new();
                merged.fetch_branch(from, &oids[branch], |oid, obj| {
                    got.push((oid.to_string(), obj.materialize(oid)));
                });
                let want = owned_fetch(&mut fresh, from, keyed);
                proptest::prop_assert_eq!(got, want);
            }
            proptest::prop_assert_eq!(merged.net.metrics(), fresh.net.metrics());
            proptest::prop_assert_eq!(
                (merged.legs().0, merged.legs_answered),
                (fresh.legs().0, fresh.legs_answered)
            );
        }
    }

    #[test]
    fn publish_rows_extends_network() {
        let mut e = EngineBuilder::new().peers(16).build_with_rows(&cars());
        e.publish_rows(&[Row::new("car:4", [("name", Value::from("VW Golf"))])]);
        let from = e.random_peer();
        let obj = lookup(&mut e, from, "car:4");
        assert_eq!(obj.expect("published").get("name"), Some(&Value::from("VW Golf")));
        assert_eq!(e.publish_stats().rows, 4);
    }

    #[test]
    fn traced_publication_counts_messages_linearly_in_attributes() {
        // §8: publication messages are linear in the attribute count. The
        // base network must have a fine-grained trie (many partitions over
        // diverse keys) or all new postings funnel into the same few
        // partitions and batching hides the growth.
        let base: Vec<Row> = (0..300)
            .map(|i| {
                Row::new(
                    format!("b:{i}"),
                    [(format!("attr{:02}", i % 12), Value::from(format!("seed{i:04}word")))],
                )
            })
            .collect();
        let publish_cost = |n_attrs: usize| {
            let mut e = EngineBuilder::new().peers(256).seed(21).build_with_rows(&base);
            let from = e.random_peer();
            // Rows arrive one by one (the realistic pattern; a single huge
            // batch would saturate at one message per partition) with
            // per-row distinct values.
            let mut messages = 0;
            for r in 0..10 {
                let fields: Vec<(String, Value)> = (0..n_attrs)
                    .map(|i| (format!("attr{i:02}"), Value::from(format!("value{r:02}x{i:02}"))))
                    .collect();
                let row = Row::new(format!("n:{r}"), fields);
                messages += e.publish_rows_traced(&[row], from).traffic.messages;
            }
            // Data must actually be queryable afterwards.
            let obj = lookup(&mut e, from, "n:0");
            assert_eq!(obj.expect("published").fields.len(), n_attrs);
            messages
        };
        let m2 = publish_cost(2);
        let m8 = publish_cost(8);
        assert!(m8 > m2, "more attributes must cost more messages");
        assert!(
            m8 < m2 * 8,
            "batched publication should be sublinear in postings per partition ({m2} -> {m8})"
        );
    }

    /// `publish_rows_traced` as it was when a batch was a flat list of
    /// (key, posting) pairs: the delegated path sorts the postings into
    /// (key, generation) order and routes each partition's stretch by its
    /// first-generated posting, and the network sorts what arrived again.
    fn publish_flat(e: &mut SimilarityEngine, rows: &[Row], from: PeerId) -> QueryStats {
        let snap = e.begin_query();
        let (postings, stats) = sqo_storage::postings_for_rows(rows, &e.cfg.publish);
        e.absorb_publish_stats(&stats);
        let mut arrived = Vec::with_capacity(postings.len());
        e.net.sim_fork();
        if e.cfg.query.delegation {
            // In (key, generation) order, each pair with its generation.
            let mut sorted: Vec<(usize, (Key, Posting))> =
                postings.into_iter().enumerate().collect();
            sorted.sort_by(|(_, a), (_, b)| a.0.cmp(&b.0));
            let mut at = 0;
            while at < sorted.len() {
                let part = e.net.partition_of(&sorted[at].1 .0);
                let path = &e.net.paths()[part];
                let len = sorted[at..]
                    .iter()
                    .take_while(|(_, (k, _))| path.is_prefix_of(k) || e.net.partition_of(k) == part)
                    .count();
                let batch = &sorted[at..at + len];
                at += len;
                e.net.sim_branch();
                let (_, (lead, _)) = batch.iter().min_by_key(|(tag, _)| *tag).expect("not empty");
                if let Ok(owner) = e.net.route(from, lead) {
                    let payload: usize = batch.iter().map(|(_, (_, p))| p.size_bytes()).sum();
                    if owner != from {
                        e.net.send_direct(from, owner, payload);
                    }
                    arrived.extend(batch.iter().map(|(_, pair)| pair.clone()));
                }
            }
        } else {
            for (key, posting) in postings {
                e.net.sim_branch();
                if let Ok(owner) = e.net.route(from, &key) {
                    if owner != from {
                        e.net.send_direct(from, owner, posting.size_bytes());
                    }
                    arrived.push((key, posting));
                }
            }
        }
        e.net.sim_join();
        let stored = arrived.len() - e.net.insert_batch(arrived);
        let mut out = e.finish_query(&snap);
        out.matches = stored;
        out
    }

    /// Everything a snapshot of the engine's network would write.
    fn image(net: &Network<Posting>) -> String {
        format!("{:?}", net.export_state())
    }

    #[test]
    fn a_grouped_publish_draws_charges_and_stores_what_the_flat_batch_did() {
        let base: Vec<Row> = (0..120)
            .map(|i| {
                Row::new(format!("b:{i}"), [("title", Value::from(format!("seed{i:03}word")))])
            })
            .collect();
        // Repeated grams, a row with two attributes (its oid key repeats),
        // a value shorter than q and a number.
        let fresh: Vec<Row> = (0..40)
            .map(|i| {
                Row::new(
                    format!("n:{i}"),
                    [
                        ("title", Value::from(format!("word{:02}seed", i % 7))),
                        ("no", if i % 2 == 0 { Value::from(i) } else { Value::from("ab") }),
                    ],
                )
            })
            .collect();
        for delegation in [true, false] {
            let build = || {
                EngineBuilder::new().peers(48).seed(9).delegation(delegation).build_with_rows(&base)
            };
            // The build took the grouped road too.
            let grown = build();
            let flat_base = sqo_storage::postings_for_rows(&base, &grown.cfg.publish).0;
            let built = Network::build(grown.cfg.network.clone(), flat_base);
            assert_eq!(image(&grown.net), image(&built));

            let world = || {
                let mut e = build();
                // One partition the fresh rows publish into is dead: its
                // stretch is lost.
                let dead = e.net.partition_of(&sqo_storage::keys::oid_key("n:3"));
                for peer in e.net.partition_members(dead).to_vec() {
                    e.net.fail_peer(peer);
                }
                e
            };
            let (mut grouped, mut flat) = (world(), world());
            let from = grouped.random_peer();
            assert_eq!(flat.random_peer(), from);
            let stats = grouped.publish_rows_traced(&fresh, from);
            let reference = publish_flat(&mut flat, &fresh, from);
            assert_eq!(format!("{stats:?}"), format!("{reference:?}"), "delegation {delegation}");
            assert!(stats.traffic.messages > 0 && stats.matches > 0);
            let generated =
                grouped.publish_stats().total_postings() - grown.publish_stats().total_postings();
            assert!(stats.matches < generated, "the dead partition's stretch was lost");
            assert!(stats.completeness() == reference.completeness());
            assert_eq!(image(&grouped.net), image(&flat.net), "delegation {delegation}");
            assert_eq!(grouped.publish_stats(), flat.publish_stats());
            assert_eq!(grouped.net.unstored_items(), flat.net.unstored_items());
        }
    }

    /// The structural estimate reads what the network holds, not how many
    /// peers hold it: on one cover, four times the peers — surplus replicas
    /// dealt by load, never `replication` per partition — estimate a remote
    /// key exactly as before, and a key in a gap as nothing.
    #[test]
    fn the_trie_depth_estimate_does_not_scale_with_the_members() {
        let rows: Vec<Row> = (0..500)
            .map(|i| Row::new(format!("r:{i}"), [("word", Value::from(format!("w{i:03}rd")))]))
            .collect();
        let small = EngineBuilder::new().peers(32).seed(5).build_with_rows(&rows);
        let mut big = EngineBuilder::new().peers(128).seed(5).build_with_rows(&rows);
        let postings = sqo_storage::postings_for_rows(&rows, &big.cfg.publish).0;
        big.net = Network::build_with_paths(
            big.cfg.network.clone(),
            small.net.paths().to_vec(),
            postings,
        );
        assert!(big.net.total_stored_items() >= 3 * small.net.total_stored_items());
        let parts = small.net.partition_count();
        let held = |part: usize| !small.net.partition_store(part).is_empty();
        // The shallowest partition with data: the one with most to estimate.
        let data = (0..parts).filter(|p| held(*p)).min_by_key(|p| small.net.partition_depth(*p));
        let gap = (0..parts).find(|p| !held(*p));
        let (Some(data), Some(gap)) = (data, gap) else {
            panic!("the cover has partitions with and without data");
        };
        let estimate = |e: &SimilarityEngine, part: usize| {
            let key = e.net.paths()[part].child(false);
            let from = (0..e.net.peer_count() as u32)
                .map(PeerId)
                .find(|p| e.net.peer_partition(*p) != part)
                .expect("a peer elsewhere");
            e.estimate_key_cardinality(from, &key)
        };
        let (was, now) = (estimate(&small, data), estimate(&big, data));
        assert_eq!((was.source, now.source), (CardSource::TrieDepth, CardSource::TrieDepth));
        assert!(was.rows > 0);
        assert_eq!(now.rows, was.rows, "four times the replicas, the same data");
        assert_eq!(estimate(&big, gap).rows, 0, "a gap holds nothing");
    }

    #[test]
    fn quickstart_docs_example_compiles_against_builder() {
        let rows = cars();
        let e = EngineBuilder::new().peers(8).q(2).replication(2).build_with_rows(&rows);
        assert_eq!(e.q(), 2);
        assert_eq!(e.network().peer_count(), 8);
    }

    mod numbered {
        //! Objects by number against the reference fetch.
        //!
        //! The memo's trio runs the same calls: the kept and the dropped
        //! engine plan, fetch and verify by object number — spots charged
        //! without a lookup, objects gathered from the run handle held since
        //! the fetch when they are materialized — and the reference fetches
        //! as before numbers existed, every key looked up and every object
        //! gathered at fetch time ([`super::reference_fetch_branch`]). They
        //! must answer the same rows, `QueryStats` and trace events.

        use crate::engine::{DegradePolicy, EngineBuilder, SimilarityEngine};
        use crate::memo::tests::{Answering, Trio};
        use crate::multi::{AttrPredicate, MultiStrategy, MultiTask};
        use crate::select::SelectTask;
        use crate::similar::{SimilarTask, Strategy};
        use crate::simjoin::{JoinOptions, JoinTask};
        use crate::topn::TopNTask;
        use crate::JoinWindow;
        use rustc_hash::FxHashSet;
        use sqo_cache::BrokerConfig;
        use sqo_overlay::hash::MAX_STRING_KEY_BITS;
        use sqo_overlay::peer::PeerId;
        use sqo_storage::triple::{Row, Value};

        /// Rows whose oids prefix one another — `w:1`, `w:10`…`w:19`, `w:100`,
        /// … — on two attributes, values many objects share.
        fn rows(n: usize) -> Vec<Row> {
            let words =
                ["house", "horse", "mouse", "hause", "haus", "houses", "hose", "louse", "mousse"];
            (0..n)
                .map(|i| {
                    Row::new(
                        format!("w:{i}"),
                        [
                            ("word", Value::from(words[i % words.len()])),
                            (
                                "name",
                                Value::from(format!("{}{}", words[(i / 3) % words.len()], i % 7)),
                            ),
                        ],
                    )
                })
                .collect()
        }

        /// [`Trio::every_step`] of `make`'s task with `event` before each
        /// step in turn, on engines of `peers` peers holding [`rows`] built
        /// by `tune`.
        fn every_step(
            peers: usize,
            tune: &dyn Fn(EngineBuilder) -> EngineBuilder,
            make: &dyn Fn(PeerId) -> Box<dyn Answering>,
            event: &dyn Fn(&mut SimilarityEngine),
        ) {
            let rows = rows(160);
            let build =
                || tune(EngineBuilder::new().peers(peers).seed(47).q(2)).build_with_rows(&rows);
            Trio::every_step(&build, make, event);
        }

        fn top_n(strategy: Strategy) -> impl Fn(PeerId) -> Box<dyn Answering> {
            move |from| {
                let task = TopNTask::nearest(Some("word"), 4, "hoose", 5, from, strategy);
                Box::new(task.expect("n > 0"))
            }
        }

        /// A publication that gives every object another field — those the
        /// first shells fetched among them — and adds an object under a key
        /// an earlier one prefixes.
        fn publish_more(e: &mut SimilarityEngine) {
            let more: Vec<Row> = (0..160)
                .map(|i| Row::new(format!("w:{i}"), [("extra", Value::from(format!("more{i}")))]))
                .chain([Row::new("w:1000", [("word", Value::from("hoose"))])])
                .collect();
            e.publish_rows(&more);
        }

        /// String top-N over expanding shells — q-grams and q-samples; broker
        /// off, on, and delegation off — answers as the reference fetch does,
        /// with a publication before any one of its steps: an object fetched by
        /// an earlier shell is materialized as it was fetched.
        #[test]
        fn top_n_by_number_is_the_reference_fetch_with_a_publication_between_shells() {
            let brokered = |b: EngineBuilder| b.cache_config(BrokerConfig::enabled());
            let undelegated = |b: EngineBuilder| b.delegation(false);
            let tunes: [&dyn Fn(EngineBuilder) -> EngineBuilder; 3] =
                [&|b| b, &brokered, &undelegated];
            for tune in tunes {
                for strategy in [Strategy::QGrams, Strategy::QSamples] {
                    every_step(24, tune, &top_n(strategy), &publish_more);
                }
            }
        }

        /// Top-N whose fetch legs fail — a third of the peers die before a step —
        /// with and without leg retries, answers as the reference fetch does.
        #[test]
        fn top_n_by_number_is_the_reference_fetch_when_fetch_legs_fail() {
            let retrying =
                |b: EngineBuilder| b.degrade(DegradePolicy { retries: 2, ..Default::default() });
            let tunes: [&dyn Fn(EngineBuilder) -> EngineBuilder; 2] = [&|b| b, &retrying];
            let churn = |e: &mut SimilarityEngine| {
                e.network_mut().fail_random_fraction(0.35);
            };
            for tune in tunes {
                every_step(48, tune, &top_n(Strategy::QGrams), &churn);
            }
        }

        /// A selection, a join, a conjunction and the selections VQL lowers to
        /// answer as the reference fetch does, on a publication or a churn wave
        /// before any one of their steps.
        #[test]
        fn every_operator_by_number_is_the_reference_fetch() {
            let similar = |from| -> Box<dyn Answering> {
                Box::new(SimilarTask::new("hoose", Some("word"), 2, from, Strategy::QGrams))
            };
            let join = |from| -> Box<dyn Answering> {
                let opts = JoinOptions {
                    strategy: Strategy::QGrams,
                    left_limit: Some(6),
                    window: JoinWindow::Fixed(3),
                };
                Box::new(JoinTask::new("name", Some("word"), 1, from, &opts))
            };
            let multi = |from| -> Box<dyn Answering> {
                let preds = vec![
                    AttrPredicate::new("word", "mouse", 1),
                    AttrPredicate::new("name", "house3", 2),
                ];
                Box::new(
                    MultiTask::new(preds, from, Strategy::QGrams, MultiStrategy::Pipelined)
                        .expect("preds"),
                )
            };
            let range = |from| -> Box<dyn Answering> {
                Box::new(SelectTask::range("word", Value::from("ho"), Value::from("mo"), from))
            };
            let makes: [&dyn Fn(PeerId) -> Box<dyn Answering>; 4] =
                [&similar, &join, &multi, &range];
            let churn = |e: &mut SimilarityEngine| {
                e.network_mut().fail_random_fraction(0.3);
            };
            for make in makes {
                for hook in [&publish_more as &dyn Fn(&mut SimilarityEngine), &churn] {
                    every_step(32, &|b| b, make, hook);
                }
            }
        }

        /// The oids a fetch finds hard: oids that prefix one another, so the
        /// owner's scan of `key(w:1)` hits every entry under it; two oids longer
        /// than a key holds, which truncate to one key; and objects published in
        /// two batches. Every fetch — each oid alone and all of them in one plan —
        /// charges the scanned entries and payload bytes the reference fetch
        /// does and materializes the same object; delegation on and off, and on
        /// tries shallow and deep.
        #[test]
        fn hard_oids_fetch_as_the_reference_fetch() {
            let long = "l".repeat(MAX_STRING_KEY_BITS / 8 + 3);
            let oids: Vec<String> = ["w:1", "w:10", "w:11", "w:15", "w:19", "w:100", "w:2"]
                .iter()
                .map(|s| s.to_string())
                .chain([format!("{long}a"), format!("{long}b")])
                .collect();
            let first: Vec<Row> = oids
                .iter()
                .enumerate()
                .map(|(i, oid)| Row::new(oid.clone(), [("word", Value::from(format!("v{i}")))]))
                .collect();
            let second: Vec<Row> = [&oids[0], &oids[5], &oids[7]]
                .iter()
                .map(|oid| {
                    Row::new(
                        oid.to_string(),
                        [("tag", Value::from("again")), ("word", Value::from("v0"))],
                    )
                })
                .collect();
            for (peers, delegation) in [(4, true), (64, true), (256, true), (16, false)] {
                let build = || {
                    let mut e = EngineBuilder::new()
                        .peers(peers)
                        .seed(3)
                        .delegation(delegation)
                        .build_with_rows(&first);
                    e.publish_rows(&second);
                    e
                };
                let mut t = Trio::new(build);
                let from = t.all(|e| e.random_peer());
                let each = oids.iter().map(|oid| vec![oid.clone()]);
                for asked in each.chain([oids.clone()]) {
                    let asked: FxHashSet<String> = asked.into_iter().collect();
                    t.all(|e| {
                        let before = *e.network().metrics();
                        let objects = e.fetch_objects(from, &asked);
                        let mut objects: Vec<_> =
                            objects.iter().map(|(oid, o)| o.materialize(oid)).collect();
                        objects.sort_by(|a, b| a.oid.cmp(&b.oid));
                        let m = e.network().metrics().delta(&before);
                        (m.local_items_scanned, m.bytes, m.messages, objects)
                    });
                }
            }
        }

        /// Objects are numbered in publication order, first sight, whatever their
        /// oids hash to, and an object published again keeps its number. Every
        /// spot stays what a lookup in its run finds — its
        /// payload the gathered object's `repr_len`, its leaf that one entry
        /// has its key as a prefix — across publications, plain and traced,
        /// that give objects fields and add keys under theirs, on 6, 32 and
        /// 200 peers.
        #[test]
        fn numbers_follow_publication_order_and_spots_follow_publications() {
            let rows = rows(120);
            for peers in [6, 32, 200] {
                let mut e = EngineBuilder::new().peers(peers).seed(5).build_with_rows(&rows);
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(e.objects.get(&row.oid), Some(i as u32), "{}", row.oid);
                }
                let from = e.random_peer();
                let mut oids: FxHashSet<String> = rows.iter().map(|r| r.oid.clone()).collect();
                let check = |e: &SimilarityEngine, oids: &FxHashSet<String>, when: &str| {
                    let mut placed = 0;
                    for oid in oids {
                        let Some(s) = e.objects.spot(e.objects.get(oid).expect("numbered")) else {
                            continue;
                        };
                        let key = sqo_storage::keys::oid_key(oid);
                        let net = e.network();
                        assert!(net.paths()[s.part as usize].is_prefix_of(&key), "{oid} {when}");
                        let scan = net.partition_store(s.part as usize).prefix_entries(&key);
                        let bytes = super::ObjectPostings::gather(oid, scan.items).repr_len(oid);
                        assert_eq!(
                            (s.leaf, s.payload as usize),
                            (scan.entries == 1, bytes),
                            "{oid} {when}"
                        );
                        placed += 1;
                    }
                    placed
                };
                for batch in 0..4u32 {
                    e.fetch_objects(from, &oids);
                    assert!(check(&e, &oids, "after a fetch") > oids.len() / 2, "{peers} peers");
                    let more: Vec<Row> = (0..30)
                        .map(|i| i * 7 + batch)
                        .map(|i| {
                            Row::new(format!("w:{i}{batch}"), [("tag", Value::from(i as i64))])
                        })
                        .chain([Row::new("w:7", [("extra", Value::from(batch as i64))])])
                        .collect();
                    if batch % 2 == 0 {
                        e.publish_rows(&more);
                    } else {
                        e.publish_rows_traced(&more, from);
                    }
                    oids.extend(more.iter().map(|r| r.oid.clone()));
                    assert_eq!(e.objects.get("w:7"), Some(7));
                    check(&e, &oids, "after a publication");
                }
            }
        }
    }
}
