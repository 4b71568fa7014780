//! The shared-memory overlay simulator.
//!
//! This is the Rust counterpart of the paper's Java simulator (§6): the
//! entire P-Grid network lives in one address space, "messages" are function
//! calls, and every interaction that *would* cross the wire in a deployment
//! is charged to [`Metrics`] — one message per routing hop (Algorithm 1
//! forwards the query peer-to-peer), one per shower fan-out edge, one per
//! result transfer, with payload bytes counted for the data-volume measure.
//!
//! Peers go where the data is. The cover is grown by the splitter
//! ([`build_partitions`]), which also reports each partition's load; every
//! partition that holds data gets `replication` members and the surplus
//! goes by load per member (`Topology::dealt`, the one dealing rule). A
//! partition without data has no member — a **gap**. Nothing is sent into
//! a gap: a lookup whose key lies in one ends at the peer whose routing
//! level has no reference and answers empty, showers skip it, and a later
//! publication into it recruits a member first.
//!
//! The one write path, [`Network::insert_groups`], takes a batch that is a
//! run ([`SortedStore`]): it cuts the batch where its keys leave a
//! partition and merges each stretch into that partition's run, and a key
//! shorter than the trie depth into the run of every peered partition of
//! its subtree — each run keeps its own copy. Reads lend the runs' items
//! where they lie ([`Network::local_prefix_run`]); a reply that crosses the
//! simulated wire copies what it ships (a posting's copy is one
//! reference-count step).
//!
//! The simulation is fully deterministic for a given seed: routing reference
//! selection and initiator choice draw from one seeded RNG; dealing and
//! recruitment draw nothing.

use crate::clock::{EventSink, MsgKind, SharedTraceSink, SimLatency, TraceEvent, TraceTrack};
use crate::key::{Key, KeyRef};
use crate::metrics::Metrics;
use crate::peer::{Item, PeerId};
use crate::snapshot::NetworkState;
use crate::store::{PartitionStore, SortedStore};
use crate::topology::Topology;
use crate::trie::{build_partitions, find_partition, partition_loads, subtree_range};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Static parameters of a simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Number of peers |P|.
    pub peers: usize,
    /// Target structural-replication factor: the trie is split into about
    /// `peers / replication` partitions, every partition holding data gets
    /// `replication` members, and the peers left over replicate the
    /// partitions by load. All members of a partition hold its data.
    pub replication: usize,
    /// Routing references per trie level (redundancy for fault tolerance;
    /// P-Grid keeps several and picks randomly, which also spreads load).
    pub refs_per_level: usize,
    /// Fixed per-message envelope size in bytes (addresses, type, query id).
    pub msg_header_bytes: usize,
    /// RNG seed for deterministic simulation.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self { peers: 64, replication: 1, refs_per_level: 2, msg_header_bytes: 48, seed: 42 }
    }
}

impl NetworkConfig {
    /// What a network can be built from, `Err` naming what it cannot.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        if self.peers == 0 || self.replication == 0 || self.refs_per_level == 0 {
            return Err("need at least one peer, one replica and one reference per level");
        }
        // Every byte counter grows by the header; one of 4 GiB overflows them.
        if self.msg_header_bytes > u32::MAX as usize {
            return Err("a message header past 4 GiB");
        }
        Ok(())
    }
}

/// Routing failure (only observable under churn).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No alive routing reference towards the key at some trie level.
    NoAliveReference,
    /// The whole destination partition is dead.
    PartitionDead,
    /// The initiating peer itself is dead.
    InitiatorDead,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NoAliveReference => write!(f, "no alive routing reference"),
            RouteError::PartitionDead => write!(f, "destination partition has no alive peer"),
            RouteError::InitiatorDead => write!(f, "initiating peer is dead"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Target of the self-healing pass ([`Network::repair_epoch`]): how many
/// alive structural replicas every partition should keep under churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationPolicy {
    /// Minimum alive replicas per partition; partitions that fall below
    /// this (but still have at least one alive copy) are topped up from
    /// partitions holding surplus replicas.
    pub min_alive: usize,
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        Self { min_alive: 2 }
    }
}

impl ReplicationPolicy {
    /// A policy keeping at least `min_alive` alive replicas per partition.
    pub fn at_least(min_alive: usize) -> Self {
        assert!(min_alive >= 1, "replication target must be >= 1");
        Self { min_alive }
    }
}

/// Outcome of one [`Network::repair_epoch`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Partitions holding peers that were inspected.
    pub scanned: usize,
    /// Partitions found below the policy target with at least one alive
    /// replica left to copy from.
    pub deficient: usize,
    /// Partitions with **zero** alive replicas — unrecoverable by repair
    /// (no alive source to copy from); only a revival brings them back.
    pub lost: usize,
    /// Deficient partitions that could not be fully topped up because no
    /// donor partition had surplus alive replicas.
    pub unfilled: usize,
    /// Peers recruited into deficient partitions (one store copy each).
    pub recruited: u64,
    /// Payload bytes the recruitments copied over the wire.
    pub bytes_copied: u64,
}

impl RepairReport {
    /// True when the pass changed the network (recruited at least one peer).
    pub fn acted(&self) -> bool {
        self.recruited > 0
    }
}

/// What one reply of [`Network::retrieve_runs`] lends instead of copying:
/// the answering partition, and where the items it shipped lie in that
/// partition's run. Read it with [`Network::run_items`] before the network
/// is written to again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemRun {
    pub part: usize,
    pub items: Range<usize>,
}

/// The simulated P-Grid network holding items of type `T`: its data (the
/// [`NetworkState`] a snapshot freezes) and its observers.
pub struct Network<T> {
    /// Everything a checkpoint keeps — see [`crate::snapshot`].
    pub(crate) image: NetworkState<T>,
    /// Optional virtual-time charger; every wire interaction is mirrored
    /// into it (see [`crate::clock`]). `None` keeps the network a pure
    /// message counter with zero behavior change.
    pub(crate) sink: Option<Box<dyn EventSink>>,
    /// Optional structured-trace recorder, threaded alongside the event
    /// sink (see [`crate::clock::TraceSink`]), and lent to it on every
    /// charge so its per-peer occupancy spans go into the same stream.
    /// `None` keeps every emission site a single branch with zero behavior
    /// change.
    pub(crate) tracer: Option<SharedTraceSink>,
    /// The query track currently attributed on message instants; set by the
    /// executor around each charged step of a traced query.
    pub(crate) trace_query: Option<u64>,
    /// Items published into this network that no peer stored
    /// ([`Self::unstored_items`]).
    pub(crate) unstored: u64,
}

/// The distinct keys of a batch, ascending, each with its item count.
fn key_loads<T>(batch: &SortedStore<T>) -> Vec<(KeyRef<'_>, usize)> {
    batch.iter().map(|(key, items)| (key, items.len())).collect()
}

impl<T: Item> Network<T> {
    /// A network on `image`, with no observer installed.
    pub(crate) fn on(image: NetworkState<T>) -> Self {
        Network { image, sink: None, tracer: None, trace_query: None, unstored: 0 }
    }

    /// Construct a network of `cfg.peers` peers, build the trie adapted to
    /// the data keys, deal the peers by load, wire routing tables, and
    /// insert all items: a batch into the empty network.
    pub fn build(cfg: NetworkConfig, data: Vec<(Key, T)>) -> Self {
        Self::build_groups(cfg, SortedStore::from_pairs(data))
    }

    /// [`Self::build`] on data that is grouped already: the batch as a run.
    pub fn build_groups(cfg: NetworkConfig, batch: SortedStore<T>) -> Self {
        let mut net = Self::on_partitions_for(cfg, &key_loads(&batch));
        net.insert_groups(batch);
        net
    }

    /// The empty network on the cover grown for `keys` — the distinct data
    /// keys ascending, each with its item count.
    fn on_partitions_for(cfg: NetworkConfig, keys: &[(KeyRef<'_>, usize)]) -> Self {
        // Checked before a replication of 0 divides; `on_paths` refuses it.
        let target_partitions = cfg.check().map_or(1, |()| (cfg.peers / cfg.replication).max(1));
        let (paths, loads) = build_partitions(keys, target_partitions);
        Self::on_paths(cfg, paths, &loads)
    }

    /// Construct from an explicit partition cover, its peers dealt by the
    /// load `data` puts on each partition — the rule [`Self::build`] deals
    /// by, so a partition `data` leaves empty is a gap. A cover with more
    /// bearing partitions than peers leaves its trailing ones without a
    /// member, and their items unstored.
    pub fn build_with_paths(cfg: NetworkConfig, paths: Vec<Key>, data: Vec<(Key, T)>) -> Self {
        assert!(
            crate::trie::is_complete_cover(&paths),
            "partition paths must form a complete prefix-free cover"
        );
        let batch = SortedStore::from_pairs(data);
        let loads = partition_loads(&paths, &key_loads(&batch));
        let mut net = Self::on_paths(cfg, paths, &loads);
        net.insert_groups(batch);
        net
    }

    /// The empty network on the cover `paths`, whose partitions hold
    /// `loads` items.
    fn on_paths(cfg: NetworkConfig, paths: Vec<Key>, loads: &[usize]) -> Self {
        if let Err(unbuildable) = cfg.check() {
            panic!("{unbuildable}");
        }
        debug_assert!(paths.windows(2).all(|w| w[0] < w[1]), "paths must be sorted");

        let stores = std::iter::repeat_with(PartitionStore::default).take(paths.len()).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut topo = Topology::dealt(paths, loads, cfg.peers, cfg.replication);
        topo.wire_routing(cfg.refs_per_level, &mut rng);
        Self::on(NetworkState {
            alive: vec![true; cfg.peers],
            cfg,
            topo,
            stores,
            metrics: Metrics::default(),
            next_trace_query: 0,
            cache_epoch: 0,
            rng,
        })
    }

    /// Publish a batch — a run: one entry per distinct key, keys ascending —
    /// the network's one write path. The batch is cut where its keys leave
    /// a partition, walking them beside the sorted partition cover: a key
    /// still under its predecessor's partition path needs no lookup, and the
    /// keys between two lookups go to their partition as **one** merge of
    /// the run its replicas hold in common, however many items. A key
    /// shorter than the trie depth is a stretch of its own, appended to the
    /// run of every peered partition of its subtree. Equal to
    /// [`Self::insert_item`] per item, in order: same runs entry for entry,
    /// same epoch advance (one step per publication — items fetched before
    /// it no longer reflect the stored data). Items already lent or copied
    /// out to readers are never touched: a run a reader holds is copied
    /// before it is written.
    ///
    /// A key whose partition — for a key shorter than the trie depth, the
    /// first of its subtree — is a gap recruits a member into it first
    /// ([`Self::repair_epoch`]'s rule; see `recruit_into`), so that it is
    /// stored: a partition gains members when it gains load, which is when
    /// [`Self::build`] would have dealt it some. Returns how many of the
    /// batch's items **no peer stored** because no partition could give up
    /// a member: one with at least two alive members is needed, and at
    /// build time every gap has one waiting, unless an explicit cover has
    /// more partitions than there are peers or churn killed the surplus.
    /// An item under a key that some peered partition covers is stored
    /// there and not counted. The network keeps the running total
    /// ([`Self::unstored_items`]), the build's share included.
    pub fn insert_groups(&mut self, mut batch: SortedStore<T>) -> usize {
        self.image.cache_epoch += batch.item_count() as u64;
        // Where each stretch starts, and the partitions it goes to.
        let mut cuts: Vec<(usize, Range<usize>)> = Vec::new();
        let paths = &self.image.topo.paths;
        for (at, key) in batch.keys().enumerate() {
            let under = |(_, to): &(usize, Range<usize>)| {
                to.len() == 1 && paths[to.start].as_ref().is_prefix_of(key)
            };
            if !cuts.last().is_some_and(under) {
                let (s, e) = subtree_range(paths, key);
                debug_assert!(e > s, "complete cover guarantees an owner for every key");
                cuts.push((at, s..e));
            }
        }
        // Cut from the back, so each stretch moves once; store from the front.
        let mut stretches = Vec::with_capacity(cuts.len());
        for (at, to) in cuts.into_iter().rev() {
            stretches.push((to, batch.split_off(at)));
        }
        let mut unstored = 0;
        for (to, stretch) in stretches.into_iter().rev() {
            unstored += if to.len() > 1 {
                self.insert_short(stretch, to)
            } else {
                self.merge_into(to.start, stretch)
            };
        }
        self.unstored += unstored as u64;
        unstored
    }

    /// Publish a batch of `(key, item)` pairs: stable-sorted by key and,
    /// under one key, by rank (publications of one key and rank keep their
    /// order), grouped into a run, and handed to [`Self::insert_groups`],
    /// whose count of unstored items it returns.
    pub fn insert_batch(&mut self, batch: Vec<(Key, T)>) -> usize {
        self.insert_groups(SortedStore::from_pairs(batch))
    }

    /// How many items published into this network — by its build or by any
    /// [`Self::insert_batch`] since — no peer stored. 0 on any network that
    /// could always recruit into a gap; a network restored from an image
    /// counts from the restore.
    pub fn unstored_items(&self) -> u64 {
        self.unstored
    }

    /// A key shorter than the local trie depth — `entry`, a run of one — is
    /// stored by every peered partition of its subtree `cover`, each run
    /// appending the items to its own. The key counts towards the first
    /// partition of its subtree, as the splitter counts it, so a gap there
    /// recruits a member first. Returns the number of items left unstored:
    /// all of them when no partition of the subtree has a member.
    fn insert_short(&mut self, entry: SortedStore<T>, cover: Range<usize>) -> usize {
        if self.image.topo.is_gap(cover.start) {
            self.recruit_into(cover.start);
        }
        let peered = self.image.topo.peered_in(cover.start, cover.end);
        if peered.is_empty() {
            return entry.item_count();
        }
        for &part in peered {
            self.image.stores[part as usize].merge(entry.clone());
            debug_assert_eq!(self.image.check_store(part as usize), Ok(()));
        }
        0
    }

    /// Merge a stretch of a batch into the run of `part` — one merge,
    /// whatever the replication; into a gap, after recruiting a member.
    /// Returns the number of items dropped because no member could be
    /// recruited.
    fn merge_into(&mut self, part: usize, stretch: SortedStore<T>) -> usize {
        if self.image.topo.is_gap(part) && !self.recruit_into(part) {
            return stretch.item_count();
        }
        self.image.stores[part].merge(stretch);
        debug_assert_eq!(self.image.check_store(part), Ok(()));
        0
    }

    /// Give the gap `gap` a member, by [`Self::repair_epoch`]'s rule: the
    /// donor is the partition with the most alive members, at least two
    /// (ties to the lowest index), and its highest-id alive member moves.
    /// The routing is rewired incrementally and without a random draw
    /// (`Topology::recruit`). The recruit's run starts with what a member of
    /// the gap would have held all along: the keys shorter than its path
    /// that cover it, copied from the nearest peered partition, which holds
    /// every one of them. False — nothing moved — when no donor exists.
    fn recruit_into(&mut self, gap: usize) -> bool {
        let (topo, alive) = (&self.image.topo, &self.image.alive);
        let alive_in = |part: usize| topo.members(part).iter().filter(|p| alive[p.index()]).count();
        let donor = topo
            .peered_in(0, topo.partition_count())
            .iter()
            .map(|&d| (alive_in(d as usize), d as usize))
            .filter(|(n, _)| *n >= 2)
            .max_by_key(|&(n, d)| (n, std::cmp::Reverse(d)));
        let Some((_, donor)) = donor else { return false };
        let recruit = topo.members(donor).iter().copied().filter(|p| alive[p.index()]).max();
        let recruit = recruit.expect("a donor has alive members");
        let path = &topo.paths[gap];
        let beside =
            [topo.peered_in(0, gap).last(), topo.peered_in(gap, topo.partition_count()).first()];
        let nearest = beside
            .into_iter()
            .flatten()
            .map(|&p| p as usize)
            .max_by_key(|&p| topo.paths[p].common_prefix_len(path));
        // A run lists the prefixes of its partition's path first, shortest
        // first; those the gap's path extends are where it starts.
        let covering = nearest.map(|near| {
            let mut run = SortedStore::clone(&self.image.stores[near]);
            let short = run.keys().take_while(|k| k.is_prefix_of(path.as_ref())).count();
            run.split_off(short);
            run
        });
        self.image.topo.recruit(recruit, gap, self.image.cfg.refs_per_level);
        if let Some(covering) = covering.filter(|run| !run.is_empty()) {
            self.image.stores[gap].merge(covering);
            debug_assert_eq!(self.image.check_store(gap), Ok(()));
        }
        true
    }

    /// Publish one item: a batch of one (and its count of unstored items,
    /// 0 or 1).
    pub fn insert_item(&mut self, key: Key, item: T) -> usize {
        self.insert_batch(vec![(key, item)])
    }

    /// The structural invariants, `Err` naming the first breach — the
    /// check a decoded image passes before it exists
    /// ([`NetworkState::new`]): `cfg` names at least one peer, replica and
    /// reference per level; the per-peer tables have `cfg.peers` entries and
    /// there is one store per partition; the paths are a sorted complete
    /// cover; every peer is a member of exactly the partition it points at;
    /// the routing offsets stay inside their tables and every ρ(p, l) names
    /// peers of the complementary subtree at level `l`; and every run
    /// ascends strictly, its ends increase strictly to its item count (no
    /// entry is empty), each entry's items ascend by [`Item::rank`], and it
    /// holds only keys prefix-related to its partition's path.
    pub fn check_invariants(&self) -> Result<(), &'static str> {
        self.image.check()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn config(&self) -> &NetworkConfig {
        &self.image.cfg
    }

    pub fn peer_count(&self) -> usize {
        self.image.alive.len()
    }

    pub fn partition_count(&self) -> usize {
        self.image.topo.paths.len()
    }

    /// The network's structure: partition cover, membership, routing
    /// references (what message-level simulators clone).
    pub fn topology(&self) -> &Topology {
        &self.image.topo
    }

    /// Sorted partition paths (the global trie's leaves).
    pub fn paths(&self) -> &[Key] {
        &self.image.topo.paths
    }

    /// δ: the run of partition `part`, which its members hold in common.
    pub fn partition_store(&self, part: usize) -> &PartitionStore<T> {
        &self.image.stores[part]
    }

    /// Index of the partition peer `id` belongs to.
    pub fn peer_partition(&self, id: PeerId) -> usize {
        self.image.topo.partition_of(id)
    }

    /// The structural replicas of partition `part`.
    pub fn partition_members(&self, part: usize) -> &[PeerId] {
        &self.image.topo.part_peers[part]
    }

    pub fn metrics(&self) -> &Metrics {
        &self.image.metrics
    }

    /// Reset the traffic counters.
    pub fn reset_metrics(&mut self) {
        self.image.metrics = Metrics::default();
    }

    // ------------------------------------------------------------------
    // Virtual-time hook (see crate::clock)
    // ------------------------------------------------------------------

    /// Install an event sink; every subsequent wire interaction is charged
    /// to it. Replaces any previous sink.
    pub fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
    }

    /// Mutable access to the installed sink (checkpointing: callers
    /// downcast via [`EventSink::as_any_mut`] to capture or restore the
    /// concrete sink's state in place).
    pub fn event_sink_mut(&mut self) -> Option<&mut Box<dyn EventSink>> {
        self.sink.as_mut()
    }

    /// Open a virtual-time query window (no-op without a sink).
    pub fn sim_begin_query(&mut self) {
        if let Some(s) = &mut self.sink {
            s.begin_query();
        }
    }

    /// Close the query window and return its latency profile.
    pub fn sim_end_query(&mut self) -> Option<SimLatency> {
        self.sink.as_mut().map(|s| s.end_query())
    }

    /// Open a parallel fan-out at the current frontier (no-op without a
    /// sink). Callers running logically-parallel sub-requests in a loop
    /// bracket the loop with `sim_fork`/`sim_join` and prefix each
    /// iteration with `sim_branch` to get critical-path accounting.
    pub fn sim_fork(&mut self) {
        if let Some(s) = &mut self.sink {
            s.fork();
        }
    }

    /// Start the next branch of the innermost fork.
    pub fn sim_branch(&mut self) {
        if let Some(s) = &mut self.sink {
            s.branch();
        }
    }

    /// Close the innermost fork (frontier := latest branch completion).
    pub fn sim_join(&mut self) {
        if let Some(s) = &mut self.sink {
            s.join();
        }
    }

    /// Current virtual time, if a sink is installed.
    pub fn sim_now_us(&self) -> Option<u64> {
        self.sink.as_ref().map(|s| s.now_us())
    }

    /// Move the frontier to `t_us` (query arrival in a driven workload).
    pub fn sim_reset_to_us(&mut self, t_us: u64) {
        if let Some(s) = &mut self.sink {
            s.reset_to_us(t_us);
        }
    }

    // ------------------------------------------------------------------
    // Structured-trace hook (see crate::clock::TraceSink)
    // ------------------------------------------------------------------

    /// Install a trace sink; subsequent wire interactions of traced queries
    /// emit structured events into it. Replaces any previous sink. The
    /// network hands the sink to the installed event sink with every
    /// message and scan it charges, so the clock's per-peer spans follow
    /// the sink whenever it is set — before or after the clock is
    /// installed. Sinks only *observe* — installing one never changes
    /// query results or counters.
    pub fn set_trace_sink(&mut self, tracer: SharedTraceSink) {
        self.tracer = Some(tracer);
    }

    pub fn has_trace_sink(&self) -> bool {
        self.tracer.is_some()
    }

    /// Allocate the next per-query trace id (the key of that query's
    /// [`TraceTrack::Query`] track). Monotone from 1.
    pub fn next_trace_query_id(&mut self) -> u64 {
        self.image.next_trace_query += 1;
        self.image.next_trace_query
    }

    /// Set (or clear) the query track attributed on subsequently charged
    /// messages. The executor brackets each step of a traced query with
    /// this.
    pub fn set_trace_query(&mut self, query: Option<u64>) {
        self.trace_query = query;
    }

    /// The query track currently attributed, if any.
    pub fn trace_query(&self) -> Option<u64> {
        self.trace_query
    }

    /// Emit a trace event, building it lazily — without a sink the closure
    /// never runs, keeping tracing zero-cost when disabled.
    pub fn trace_with(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(f());
        }
    }

    // ------------------------------------------------------------------
    // Charge helpers: metrics + virtual time, together
    // ------------------------------------------------------------------

    /// One message `from → to` of the given kind: global metrics and
    /// virtual time charged together. `payload` is nonzero only for
    /// result-bearing messages.
    fn charge(&mut self, kind: MsgKind, from: PeerId, to: PeerId, payload: usize) {
        let hb = self.image.cfg.msg_header_bytes;
        match kind {
            MsgKind::Route => self.image.metrics.count_hop(hb),
            MsgKind::Forward => self.image.metrics.count_forward(hb),
            MsgKind::Result => self.image.metrics.count_result(hb, payload),
        }
        let bytes = hb + payload;
        if let Some(s) = &mut self.sink {
            s.deliver(from, to, bytes, kind, self.tracer.as_ref());
        }
        if self.tracer.is_some() {
            if let Some(q) = self.trace_query {
                // Stamp the instant at the message's completion time (the
                // frontier the sink just advanced to); without an event sink
                // there is no clock, so the instant sits at 0.
                let ts = self.sink.as_ref().map(|s| s.now_us()).unwrap_or(0);
                self.trace_with(|| {
                    TraceEvent::instant(ts, TraceTrack::Query(q), kind.label(), "msg")
                        .arg("from", from.index())
                        .arg("to", to.index())
                        .arg("bytes", bytes)
                });
            }
        }
    }

    /// Local scan work at `peer`. Takes the fields it charges instead of
    /// `&mut self`, so a scan can be charged while its run is still
    /// borrowed from the stores.
    fn charge_scan(
        metrics: &mut Metrics,
        sink: &mut Option<Box<dyn EventSink>>,
        tracer: &Option<SharedTraceSink>,
        peer: PeerId,
        touched: usize,
    ) {
        metrics.local_items_scanned += touched as u64;
        if let Some(s) = sink {
            s.local_work(peer, touched as u64, tracer.as_ref());
        }
    }

    /// True when `id` is a peer of the network and currently alive (not
    /// churned out).
    pub fn peer_alive(&self, id: PeerId) -> bool {
        self.image.alive.get(id.index()).copied().unwrap_or(false)
    }

    /// A uniformly random alive peer, or `None` when every peer is dead.
    /// Consumes exactly the draws [`Self::random_peer`] would, so swapping
    /// a call site between the two never shifts the RNG stream.
    pub fn random_alive_peer(&mut self) -> Option<PeerId> {
        if !self.image.alive.contains(&true) {
            return None;
        }
        loop {
            let id = PeerId(self.image.rng.gen_range(0..self.image.alive.len()) as u32);
            if self.image.alive[id.index()] {
                return Some(id);
            }
        }
    }

    /// A uniformly random alive peer (query initiators in the workload).
    ///
    /// # Panics
    /// Panics if every peer is dead — drivers that must survive total
    /// extinction use [`Self::random_alive_peer`].
    pub fn random_peer(&mut self) -> PeerId {
        self.random_alive_peer().expect("all peers dead")
    }

    /// Each partition's run with the number of replicas holding it.
    fn replicated(&self) -> impl Iterator<Item = (usize, &PartitionStore<T>)> {
        self.image.topo.part_peers.iter().map(Vec::len).zip(&self.image.stores)
    }

    /// Stored (key, item) pairs counted once per partition, replicas
    /// excluded — what the network holds however many members hold it (a
    /// key shorter than the trie depth counts once per partition it is
    /// stored in).
    pub fn stored_items(&self) -> usize {
        self.image.stores.iter().map(|store| store.item_count()).sum()
    }

    /// Total stored (key, item) pairs across all peers (replicas included).
    pub fn total_stored_items(&self) -> usize {
        self.replicated().map(|(members, store)| members * store.item_count()).sum()
    }

    /// Total stored payload bytes across all peers (replicas included).
    pub fn total_stored_bytes(&self) -> u64 {
        self.replicated().map(|(members, store)| members as u64 * store.stored_bytes()).sum()
    }

    // ------------------------------------------------------------------
    // Churn
    // ------------------------------------------------------------------

    /// Current cache-invalidation epoch; see the `cache_epoch` field docs.
    pub fn cache_epoch(&self) -> u64 {
        self.image.cache_epoch
    }

    pub fn fail_peer(&mut self, id: PeerId) {
        self.image.alive[id.index()] = false;
        self.image.cache_epoch += 1;
    }

    pub fn revive_peer(&mut self, id: PeerId) {
        self.image.alive[id.index()] = true;
        self.image.cache_epoch += 1;
    }

    /// Kill a random `fraction` of all peers. Returns the victims. The
    /// fraction is of *all* peers, but only alive peers can die, and one
    /// peer always survives — repeated churn (a driver schedule) must
    /// neither spin forever hunting victims that no longer exist nor leave
    /// the network unable to choose an initiator. Use `fail_peer` to kill a
    /// specific peer unconditionally.
    pub fn fail_random_fraction(&mut self, fraction: f64) -> Vec<PeerId> {
        self.flip_random_fraction(fraction, true, 1)
    }

    /// Revive a random `fraction` of all peers — the recovery mirror of
    /// [`Self::fail_random_fraction`]. Returns the revived peers. Churn is
    /// crash-stop: a dead peer stays a member of its partition, so a revival
    /// brings its replica back online with the partition's run.
    pub fn revive_random_fraction(&mut self, fraction: f64) -> Vec<PeerId> {
        self.flip_random_fraction(fraction, false, 0)
    }

    /// Flip the churn flag of a random `fraction` of all peers, drawn from
    /// those whose flag is `from` and leaving `spare` of them as they are.
    fn flip_random_fraction(&mut self, fraction: f64, from: bool, spare: usize) -> Vec<PeerId> {
        assert!((0.0..=1.0).contains(&fraction));
        let peers = self.image.alive.len();
        let eligible = self.image.alive.iter().filter(|alive| **alive == from).count();
        let n = ((peers as f64 * fraction).round() as usize).min(eligible.saturating_sub(spare));
        // Even an empty wave is a membership event: caches must not outlive
        // the *schedule point*, or two runs differing only in the wave size
        // would invalidate at different times.
        self.image.cache_epoch += 1;
        let mut flipped = Vec::with_capacity(n);
        while flipped.len() < n {
            let id = PeerId(self.image.rng.gen_range(0..peers) as u32);
            if self.image.alive[id.index()] == from {
                self.image.alive[id.index()] = !from;
                flipped.push(id);
            }
        }
        flipped
    }

    /// Kill every alive member of partition `part` (a targeted wipe: the
    /// partition's data becomes unavailable, and because no alive source
    /// remains, repair cannot recover it — only a revival can). Returns the
    /// victims.
    pub fn fail_partition(&mut self, part: usize) -> Vec<PeerId> {
        let victims: Vec<PeerId> = self.image.topo.part_peers[part]
            .iter()
            .copied()
            .filter(|p| self.image.alive[p.index()])
            .collect();
        for &p in &victims {
            self.image.alive[p.index()] = false;
        }
        self.image.cache_epoch += 1;
        victims
    }

    /// Number of currently alive peers.
    pub fn alive_peers(&self) -> usize {
        self.image.alive.iter().filter(|alive| **alive).count()
    }

    /// Number of alive structural replicas of partition `part`.
    pub fn partition_alive(&self, part: usize) -> usize {
        self.image.topo.part_peers[part].iter().filter(|p| self.image.alive[p.index()]).count()
    }

    // ------------------------------------------------------------------
    // Self-healing (failure detection + re-replication)
    // ------------------------------------------------------------------

    /// One failure-detection + re-replication pass: every partition whose
    /// alive replica count fell below `policy.min_alive` (but still has an
    /// alive copy) recruits alive peers out of partitions holding surplus
    /// replicas — a recruit holds the partition's run from then on — and
    /// charges the copy as real wire traffic (one result-class
    /// transfer of the partition payload per recruit, visible to metrics,
    /// the virtual clock and — blame-tagged
    /// `cause:"repair"` — the trace stream).
    ///
    /// Donor and recruit selection are deterministic (largest alive
    /// surplus, ties to the lowest partition index; the donor's highest-id
    /// alive member moves). If anything moved, the cache epoch bumps and
    /// the routing arena is rewired from the new membership so
    /// [`Self::route`] / `pick_alive_ref` regain candidates in the healed
    /// partitions. Partitions with zero alive replicas are reported as
    /// `lost` and left alone — there is no alive source to copy from.
    pub fn repair_epoch(&mut self, policy: &ReplicationPolicy) -> RepairReport {
        let target = policy.min_alive.max(1);
        let mut report = RepairReport::default();
        let parts = self.image.topo.paths.len();
        let mut alive_count: Vec<usize> = (0..parts).map(|p| self.partition_alive(p)).collect();
        for part in 0..parts {
            if self.image.topo.is_gap(part) {
                continue; // nothing to keep alive
            }
            report.scanned += 1;
            if alive_count[part] == 0 {
                report.lost += 1;
                continue;
            }
            if alive_count[part] >= target {
                continue;
            }
            report.deficient += 1;
            while alive_count[part] < target {
                // Donor: the partition with the largest alive surplus (ties
                // to the lowest index); recruiting never pushes a donor
                // below the target itself.
                let donor = (0..parts)
                    .filter(|&d| d != part && alive_count[d] > target)
                    .max_by_key(|&d| (alive_count[d], std::cmp::Reverse(d)));
                let Some(donor) = donor else {
                    report.unfilled += 1;
                    break;
                };
                let recruit = self.image.topo.part_peers[donor]
                    .iter()
                    .copied()
                    .filter(|p| self.image.alive[p.index()])
                    .max()
                    .expect("donor has alive surplus");
                let source = self.image.topo.part_peers[part]
                    .iter()
                    .copied()
                    .find(|p| self.image.alive[p.index()])
                    .expect("deficient partitions have an alive source");
                self.image.topo.part_peers[donor].retain(|p| *p != recruit);
                alive_count[donor] -= 1;
                self.image.topo.part_peers[part].push(recruit);
                alive_count[part] += 1;
                self.image.topo.part_of[recruit.index()] = part as u32;
                let bytes = self.image.stores[part].stored_bytes();
                self.send_direct(source, recruit, bytes as usize);
                let ts = self.sink.as_ref().map(|s| s.now_us()).unwrap_or(0);
                self.trace_with(|| {
                    TraceEvent::instant(ts, TraceTrack::Control, "repair", "run")
                        .arg("cause", "repair")
                        .arg("part", part)
                        .arg("from", source.index())
                        .arg("to", recruit.index())
                        .arg("bytes", bytes)
                });
                report.recruited += 1;
                report.bytes_copied += bytes;
            }
        }
        if report.recruited > 0 {
            // Membership moved: remotely cached data may be stale, and the
            // routing arena references peers whose trie depth changed.
            self.image.cache_epoch += 1;
            self.image.topo.wire_routing(self.image.cfg.refs_per_level, &mut self.image.rng);
            debug_assert_eq!(self.check_invariants(), Ok(()));
        }
        report
    }

    // ------------------------------------------------------------------
    // Routing (Algorithm 1)
    // ------------------------------------------------------------------

    /// Prefix-route from `from` towards `key`; returns the first peer whose
    /// path is a prefix of `key` (or extended by `key`) — or, when `key`
    /// lies in a gap, the peer whose routing level towards it has no
    /// reference: its subtree holds nothing, and that peer answers so (its
    /// own run holds nothing under `key` either). Each hop is one message.
    pub fn route(&mut self, from: PeerId, key: &Key) -> Result<PeerId, RouteError> {
        // An id the network does not hold cannot ask either.
        if !self.peer_alive(from) {
            return Err(RouteError::InitiatorDead);
        }
        let mut cur = from;
        // Every reference of level `l` leads into the complementary
        // subtree ([`Self::check_invariants`]), so each hop agrees with
        // `key` in at least one more bit than the last.
        for _ in 0..=key.len() {
            let Some(l) = self.image.topo.route_level(cur, key) else { return Ok(cur) };
            if self.image.topo.refs(cur, l).is_empty() {
                let own = self.image.topo.partition_of(cur);
                debug_assert!(self.image.stores[own].prefix_entries(key).is_empty());
                return Ok(cur);
            }
            let Some(next) = self.pick_alive_ref(cur, l) else {
                self.image.metrics.failed_routes += 1;
                return Err(RouteError::NoAliveReference);
            };
            self.charge(MsgKind::Route, cur, next, 0);
            cur = next;
        }
        unreachable!("a hop made no progress towards the key");
    }

    /// Select an alive reference of `peer` at level `l`, falling back to
    /// alive structural replicas of the referenced partitions. Uniform
    /// random by default; shortest-backlog when a virtual-time sink is
    /// installed. Allocates nothing: see [`pick_among`].
    fn pick_alive_ref(&mut self, peer: PeerId, l: usize) -> Option<PeerId> {
        let n = self.image.topo.refs(peer, l).len();
        debug_assert!(n > 0, "a level towards a gap is not picked from");
        let (topo, alive) = (&self.image.topo, &self.image.alive);
        if let Some(sink) = self.sink.as_deref() {
            // All alive references — and, for dead ones, the alive
            // structural replicas that make identical routing progress —
            // are equivalent next hops; prefer the least-loaded. Each peer
            // counts once, where it first appears.
            let seen = move || {
                topo.refs(peer, l).iter().flat_map(move |c| {
                    let reps = if alive[c.index()] {
                        std::slice::from_ref(c)
                    } else {
                        topo.members(topo.partition_of(*c))
                    };
                    reps.iter().copied().filter(|r| alive[r.index()])
                })
            };
            let cands =
                move || seen().enumerate().filter(move |&(i, p)| !seen().take(i).any(|q| q == p));
            return pick_among(Some(sink), &mut self.image.rng, || cands().map(|(_, p)| p));
        }
        // Arena lookups are by (peer, level, index) — no slice borrow held
        // across the RNG draws, so nothing needs cloning.
        let start = self.image.rng.gen_range(0..n);
        for i in 0..n {
            let cand = self.image.topo.refs(peer, l)[(start + i) % n];
            if self.image.alive[cand.index()] {
                return Some(cand);
            }
            // Dead reference: its structural replicas share the path, so any
            // alive one makes the same routing progress.
            let part = self.image.topo.partition_of(cand);
            if let Some(rep) = self.partition_member(part) {
                return Some(rep);
            }
        }
        None
    }

    /// Some alive peer of partition `part` — uniform random, or the one
    /// with the shortest backlog when load-aware selection is active. For
    /// shower fan-out, here and planned by operators.
    pub fn partition_member(&mut self, part: usize) -> Option<PeerId> {
        let (members, alive) = (self.image.topo.members(part), &self.image.alive);
        pick_among(self.sink.as_deref(), &mut self.image.rng, || {
            members.iter().copied().filter(|p| alive[p.index()])
        })
    }

    /// Index of the partition responsible for `key`.
    pub fn partition_of(&self, key: &Key) -> usize {
        find_partition(&self.image.topo.paths, key)
    }

    /// Contiguous partition-index range `[s, e)` of the subtree under `key`.
    pub fn subtree_of(&self, key: &Key) -> (usize, usize) {
        self.image.topo.subtree_of(key)
    }

    /// Trie depth (path bit length) of partition `part` — the granularity
    /// signal cardinality heuristics key off: a partition at depth `d`
    /// covers a `2^-d` share of the key space.
    pub fn partition_depth(&self, part: usize) -> usize {
        self.image.topo.paths[part].len()
    }

    // ------------------------------------------------------------------
    // Retrieval (Algorithm 1 + shower fan-out)
    // ------------------------------------------------------------------

    /// `Retrieve(key, p)`: all items whose key has `key` as a prefix, in
    /// partition and then key order.
    ///
    /// Routes to the responsible partition; if `key` is shallower than the
    /// trie, fans out shower-style to every partition of its subtree (one
    /// forward message each). One result message per answering partition.
    ///
    /// Items stored redundantly (keys shorter than the trie depth) may be
    /// returned once per covering partition; callers that care deduplicate
    /// by object identity.
    ///
    /// This is [`Self::retrieve_runs`] with the lent items copied out; a
    /// caller that only reads them calls that instead.
    pub fn retrieve_list(&mut self, from: PeerId, key: &Key) -> Result<Vec<T>, RouteError> {
        let runs = self.retrieve_runs(from, key)?;
        let mut out = Vec::with_capacity(runs.iter().map(|r| r.items.len()).sum());
        for run in &runs {
            out.extend_from_slice(self.run_items(run));
        }
        Ok(out)
    }

    /// The retrieve every prefix retrieval is charged through: the route,
    /// one forward per shower sibling, each responder's scan, and one reply
    /// per answering partition carrying its items' payload bytes — but the
    /// answer lends the items where they lie, one [`ItemRun`] per reply in
    /// partition order, instead of copying them.
    pub fn retrieve_runs(&mut self, from: PeerId, key: &Key) -> Result<Vec<ItemRun>, RouteError> {
        let entry = self.route(from, key)?;
        let parts = self.image.topo.subtree_of(key);
        Ok(self.lend_runs(from, entry, parts, |store| store.entries_under(key.as_ref())))
    }

    /// The shower of a lending scan that entered at `entry`, over the
    /// peered partitions of `[s, e)`: each responder's `scan` gives the
    /// entries it hits — what it is charged, and whose items and payload
    /// its reply lends.
    fn lend_runs(
        &mut self,
        from: PeerId,
        entry: PeerId,
        (s, e): (usize, usize),
        scan: impl Fn(&SortedStore<T>) -> Range<usize>,
    ) -> Vec<ItemRun> {
        let mut out = Vec::with_capacity(self.image.topo.peered_in(s, e).len());
        // The shower branches run in parallel in a deployment: each starts
        // from the moment the query reached `entry` and the initiator is
        // done when the *last* result arrives. Gaps get no branch.
        self.sim_fork();
        for i in 0..self.image.topo.peered_in(s, e).len() {
            let part = self.image.topo.peered_in(s, e)[i] as usize;
            self.sim_branch();
            let Some(responder) = self.shower_into(part, entry) else { continue };
            let store = &self.image.stores[part];
            let entries = scan(store);
            let (items, payload) =
                (store.item_range(entries.clone()), store.payload(entries.clone()));
            let (sink, tracer) = (&mut self.sink, &self.tracer);
            Self::charge_scan(&mut self.image.metrics, sink, tracer, responder, entries.len());
            if responder != from {
                self.send_direct(responder, from, payload);
            }
            out.push(ItemRun { part, items });
        }
        self.sim_join();
        out
    }

    /// The items one reply of [`Self::retrieve_runs`] or
    /// [`Self::range_query`] lent, where they lie.
    ///
    /// # Panics
    /// Panics when the run no longer fits its partition's items (the
    /// network was written to since the retrieve).
    pub fn run_items(&self, run: &ItemRun) -> &[T] {
        &self.image.stores[run.part].items()[run.items.clone()]
    }

    /// Who answers for the peered partition `part` in a shower that entered
    /// at `entry`: `entry` in its own partition, in a sibling an alive
    /// member reached by one forward — or nobody, a failed route, when the
    /// sibling is dead.
    fn shower_into(&mut self, part: usize, entry: PeerId) -> Option<PeerId> {
        if part == self.image.topo.partition_of(entry) {
            return Some(entry);
        }
        let member = self.partition_member(part);
        match member {
            Some(p) => self.forward_to(entry, p),
            None => self.image.metrics.failed_routes += 1,
        }
        member
    }

    /// The owner-side half of every multi-key retrieve shape: prefix-scan
    /// each key at `responder` (charging local work per key), then send the
    /// combined per-key lists to `from` as **one** reply message carrying
    /// the summed payload. [`Self::retrieve_multi_lists`] calls it with the
    /// whole coalesced batch at one owner; an operator that already
    /// knows the owner (a probe riding an open channel) calls it directly.
    /// A reply copies the items it ships: one list per key, in the order
    /// the keys came.
    pub fn scan_keys_and_reply_lists<'k>(
        &mut self,
        responder: PeerId,
        from: PeerId,
        keys: impl ExactSizeIterator<Item = &'k Key>,
    ) -> Vec<Vec<T>> {
        let store = &self.image.stores[self.image.topo.partition_of(responder)];
        let mut out = Vec::with_capacity(keys.len());
        let mut payload = 0usize;
        for key in keys {
            let entries = store.entries_under(key.as_ref());
            let (sink, tracer) = (&mut self.sink, &self.tracer);
            Self::charge_scan(&mut self.image.metrics, sink, tracer, responder, entries.len());
            payload += store.payload(entries.clone());
            out.push(store.items()[store.item_range(entries)].to_vec());
        }
        if responder != from {
            self.send_direct(responder, from, payload);
        }
        out
    }

    /// Range query over `[lo, hi]` (both inclusive), shower-style: route to
    /// the partition containing `lo`, then forward across the partitions
    /// intersecting the range; each responder replies directly to the
    /// initiator (Datta et al. \[6\]), charged its items' payload bytes.
    /// The answer lends them as [`Self::retrieve_runs`] does. An inverted
    /// range (`lo > hi`) holds nothing: its answer is empty, and it routes
    /// and sends nothing.
    pub fn range_query(
        &mut self,
        from: PeerId,
        lo: &Key,
        hi: &Key,
    ) -> Result<Vec<ItemRun>, RouteError> {
        if lo > hi {
            return Ok(Vec::new());
        }
        // Partitions intersecting [lo, hi]: sup(path) >= lo and path <= hi.
        // A partition whose path *extends* hi also qualifies: it stores
        // items whose key is a prefix of its path — in particular an item
        // with key exactly hi (sorted order puts such extensions directly
        // after hi, so the predicate stays monotone).
        let s = self
            .image
            .topo
            .paths
            .partition_point(|p| p.cmp_extended(true, lo) == std::cmp::Ordering::Less);
        let e = self.image.topo.paths.partition_point(|p| p <= hi || hi.is_prefix_of(p)).max(s);
        if s == e {
            return Ok(Vec::new());
        }
        let entry = self.route(from, lo)?;
        Ok(self.lend_runs(from, entry, (s, e), |store| store.range_entries(lo, hi)))
    }

    // ------------------------------------------------------------------
    // Delegation primitives (the §4 optimizations are built on these)
    // ------------------------------------------------------------------

    /// A direct message of `payload_bytes` between two known peers
    /// (delegation step or result return). One message, charged to the
    /// traffic counters and to the virtual clock.
    pub fn send_direct(&mut self, from: PeerId, to: PeerId, payload_bytes: usize) {
        self.charge(MsgKind::Result, from, to, payload_bytes);
    }

    /// Multi-key retrieve: one routed query chain carrying several exact
    /// keys that all map to the **same partition**, answered by one
    /// combined reply with the per-key lists (prefix-extension semantics
    /// per key, matching [`Self::retrieve_list`]). This is the wire
    /// primitive behind
    /// cross-query probe coalescing: `n` probes to the same partition cost
    /// one route and one reply instead of `n` of each. Returns the answering
    /// peer so callers can fan the payload onward. No key asks nothing: the
    /// answer is `from` with no list, and nothing is routed or sent.
    ///
    /// # Panics
    /// Debug-asserts that every key lands in the partition of the first.
    pub fn retrieve_multi_lists<'k>(
        &mut self,
        from: PeerId,
        keys: impl ExactSizeIterator<Item = &'k Key> + Clone,
    ) -> Result<(PeerId, Vec<Vec<T>>), RouteError> {
        let Some(first) = keys.clone().next() else { return Ok((from, Vec::new())) };
        debug_assert!(
            keys.clone().all(|k| self.partition_of(k) == self.partition_of(first)),
            "multi-key retrieve keys must share a partition"
        );
        let owner = self.route(from, first)?;
        let out = self.scan_keys_and_reply_lists(owner, from, keys);
        Ok((owner, out))
    }

    /// Local prefix scan at `peer` — free of messages, but accounted as
    /// local work (and as CPU occupancy on the virtual clock): one unit per
    /// entry hit, however many items it holds. The stored items are lent,
    /// not copied: callers filter them where they lie and clone only the
    /// survivors.
    pub fn local_prefix_run(&mut self, peer: PeerId, key: &Key) -> &[T] {
        let run = self.image.stores[self.image.topo.partition_of(peer)].prefix_entries(key);
        Self::charge_scan(&mut self.image.metrics, &mut self.sink, &self.tracer, peer, run.entries);
        run.items
    }

    /// [`Self::local_prefix_run`] for ascending keys scanned one after
    /// another at one peer, each lookup galloping from where the previous
    /// one started ([`SortedStore::prefix_entries_from`]; start `cursor`
    /// at 0). Lends the same items and charges the same scan.
    pub fn local_prefix_run_from(&mut self, peer: PeerId, key: &Key, cursor: &mut usize) -> &[T] {
        let store = &self.image.stores[self.image.topo.partition_of(peer)];
        let run = store.prefix_entries_from(key, cursor);
        Self::charge_scan(&mut self.image.metrics, &mut self.sink, &self.tracer, peer, run.entries);
        run.items
    }

    /// Charge `peer` the local scan of `entries` entries that
    /// [`Self::local_prefix_run`] charges, for a caller that knows the
    /// scan's hits without making it.
    pub fn charge_local_scan(&mut self, peer: PeerId, entries: usize) {
        Self::charge_scan(&mut self.image.metrics, &mut self.sink, &self.tracer, peer, entries);
    }

    /// Charge one forward message `from → to` (operator-driven shower
    /// step).
    pub fn forward_to(&mut self, from: PeerId, to: PeerId) {
        self.charge(MsgKind::Forward, from, to, 0);
    }
}

/// Choose among equally-good candidates, `cands()` listing each once:
/// the smallest service backlog when a virtual-time sink is installed
/// (uniform random among its ties), uniform random otherwise; `None` when
/// there is none. Counts instead of collecting: one pass finds the least
/// backlog and how many candidates tie on it, one `gen_range(0..ties)`
/// draws — the draw a list of the ties would have taken — and a second
/// pass walks to the drawn tie. No buffer, so a hop allocates nothing.
fn pick_among<I: Iterator<Item = PeerId>>(
    sink: Option<&dyn EventSink>,
    rng: &mut StdRng,
    cands: impl Fn() -> I,
) -> Option<PeerId> {
    let backlog = |p: PeerId| sink.map_or(0, |s| s.busy_until_us(p));
    let (mut least, mut ties) = (u64::MAX, 0usize);
    for p in cands() {
        let b = backlog(p);
        if b < least {
            (least, ties) = (b, 1);
        } else if b == least {
            ties += 1;
        }
    }
    if ties == 0 {
        return None;
    }
    let k = rng.gen_range(0..ties);
    cands().filter(|&p| backlog(p) == least).nth(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_str;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct W(String);
    impl Item for W {
        fn size_bytes(&self) -> usize {
            self.0.len()
        }
    }

    impl<T: Item> Network<T> {
        /// The copying retrieve [`Network::retrieve_runs`] replaced, as it
        /// was: each shower branch's responder scans and replies through
        /// `scan_keys_and_reply_lists`, which copies the items it ships.
        fn copied_retrieve_lists(
            &mut self,
            from: PeerId,
            key: &Key,
        ) -> Result<Vec<Vec<T>>, RouteError> {
            let entry = self.route(from, key)?;
            let (s, e) = self.image.topo.subtree_of(key);
            let mut out = Vec::new();
            self.sim_fork();
            for i in 0..self.image.topo.peered_in(s, e).len() {
                let part = self.image.topo.peered_in(s, e)[i] as usize;
                self.sim_branch();
                let Some(responder) = self.shower_into(part, entry) else { continue };
                out.extend(self.scan_keys_and_reply_lists(responder, from, [key].into_iter()));
            }
            self.sim_join();
            Ok(out)
        }
    }

    /// One call a network made on its clock.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Event {
        Deliver(PeerId, PeerId, usize, MsgKind),
        Work(PeerId, u64),
        Fork,
        Branch,
        Join,
    }

    /// A clock that only writes down what it is told.
    struct EventLog(Rc<RefCell<Vec<Event>>>);
    impl EventSink for EventLog {
        fn begin_query(&mut self) {}
        fn end_query(&mut self) -> SimLatency {
            SimLatency::default()
        }
        fn deliver(
            &mut self,
            from: PeerId,
            to: PeerId,
            bytes: usize,
            kind: MsgKind,
            _: Option<&SharedTraceSink>,
        ) {
            self.0.borrow_mut().push(Event::Deliver(from, to, bytes, kind));
        }
        fn local_work(&mut self, peer: PeerId, items: u64, _: Option<&SharedTraceSink>) {
            self.0.borrow_mut().push(Event::Work(peer, items));
        }
        fn fork(&mut self) {
            self.0.borrow_mut().push(Event::Fork);
        }
        fn branch(&mut self) {
            self.0.borrow_mut().push(Event::Branch);
        }
        fn join(&mut self) {
            self.0.borrow_mut().push(Event::Join);
        }
        fn now_us(&self) -> u64 {
            0
        }
        fn reset_to_us(&mut self, _: u64) {}
    }

    impl<T: Item> Network<T> {
        /// The pick [`pick_among`] replaced, as it was: the backlogs and
        /// the ties collected into lists, one draw among the ties.
        fn collected_pick_among(&mut self, cands: &[PeerId]) -> PeerId {
            debug_assert!(!cands.is_empty());
            let Some(sink) = self.sink.as_ref() else {
                return cands[self.image.rng.gen_range(0..cands.len())];
            };
            let backlogs: Vec<u64> = cands.iter().map(|p| sink.busy_until_us(*p)).collect();
            let min = *backlogs.iter().min().expect("non-empty");
            let tied: Vec<PeerId> =
                cands.iter().zip(&backlogs).filter(|(_, b)| **b == min).map(|(p, _)| *p).collect();
            tied[self.image.rng.gen_range(0..tied.len())]
        }

        /// `pick_alive_ref` as it was: the candidates collected first.
        fn collected_pick_alive_ref(&mut self, peer: PeerId, l: usize) -> Option<PeerId> {
            let n = self.image.topo.refs(peer, l).len();
            if self.sink.is_some() {
                let mut cands: Vec<PeerId> = Vec::new();
                for i in 0..n {
                    let cand = self.image.topo.refs(peer, l)[i];
                    if self.image.alive[cand.index()] {
                        if !cands.contains(&cand) {
                            cands.push(cand);
                        }
                        continue;
                    }
                    let part = self.image.topo.partition_of(cand);
                    for &rep in &self.image.topo.part_peers[part] {
                        if self.image.alive[rep.index()] && !cands.contains(&rep) {
                            cands.push(rep);
                        }
                    }
                }
                if cands.is_empty() {
                    return None;
                }
                return Some(self.collected_pick_among(&cands));
            }
            let start = self.image.rng.gen_range(0..n);
            for i in 0..n {
                let cand = self.image.topo.refs(peer, l)[(start + i) % n];
                if self.image.alive[cand.index()] {
                    return Some(cand);
                }
                let part = self.image.topo.partition_of(cand);
                if let Some(rep) = self.collected_partition_member(part) {
                    return Some(rep);
                }
            }
            None
        }

        /// `partition_member` as it was: the alive members collected first.
        fn collected_partition_member(&mut self, part: usize) -> Option<PeerId> {
            let members = &self.image.topo.part_peers[part];
            let alive: Vec<PeerId> =
                members.iter().copied().filter(|p| self.image.alive[p.index()]).collect();
            if alive.is_empty() {
                None
            } else {
                Some(self.collected_pick_among(&alive))
            }
        }
    }

    /// A clock that only answers backlogs, read from a table.
    struct Backlogs(Vec<u64>);
    impl EventSink for Backlogs {
        fn begin_query(&mut self) {}
        fn end_query(&mut self) -> SimLatency {
            SimLatency::default()
        }
        fn deliver(
            &mut self,
            _: PeerId,
            _: PeerId,
            _: usize,
            _: MsgKind,
            _: Option<&SharedTraceSink>,
        ) {
        }
        fn local_work(&mut self, _: PeerId, _: u64, _: Option<&SharedTraceSink>) {}
        fn fork(&mut self) {}
        fn branch(&mut self) {}
        fn join(&mut self) {}
        fn now_us(&self) -> u64 {
            0
        }
        fn reset_to_us(&mut self, _: u64) {}
        fn busy_until_us(&self, peer: PeerId) -> u64 {
            self.0[peer.index()]
        }
    }

    /// `pick` run twice from the same RNG state — the counting pick, then
    /// its collecting reference — answers the same peer and leaves the
    /// same RNG state.
    fn same_pick<T: Item>(
        net: &mut Network<T>,
        counted: impl Fn(&mut Network<T>) -> Option<PeerId>,
        collected: impl Fn(&mut Network<T>) -> Option<PeerId>,
    ) -> Result<(), String> {
        let before = net.image.rng.clone();
        let got = counted(net);
        let after = std::mem::replace(&mut net.image.rng, before);
        let want = collected(net);
        if got != want {
            return Err(format!("picked {got:?}, the reference {want:?}"));
        }
        if after != net.image.rng {
            return Err(format!("{got:?} left another RNG state"));
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config { cases: 512, ..Default::default() })]
        /// The counting picks are the collecting ones they replaced, on
        /// random reference tables: one level per peer whose references
        /// repeat and share partitions, replica sets that overlap, dead
        /// references whose replicas live, and — with a clock — backlogs
        /// from three values, so ties are the rule. Every peer's pick and
        /// every partition's member agree in peer and RNG state.
        #[test]
        fn the_counted_pick_is_the_collected_one(
            seed in proptest::prelude::any::<u64>(),
            peers in 1usize..24,
            parts in 1usize..8,
            refs in proptest::collection::vec(0usize..1_000, 1..64),
            shared in proptest::collection::vec((0usize..1_000, 0usize..1_000), 0..8),
            alive in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..24),
            backlogs in proptest::option::of(proptest::collection::vec(0u64..3, 1..24)),
        ) {
            let data: Vec<(Key, W)> = vec![(hash_str("w"), W("w".into()))];
            let cfg = NetworkConfig { peers, replication: 1, seed, ..Default::default() };
            let mut net = Network::build(cfg, data);
            // Peer `p` is in partition `p % parts`; a `shared` pair lists
            // a peer among another partition's members too.
            let part_of: Vec<u32> = (0..peers).map(|p| (p % parts) as u32).collect();
            let mut part_peers: Vec<Vec<PeerId>> = vec![Vec::new(); parts];
            for p in 0..peers {
                part_peers[p % parts].push(PeerId(p as u32));
            }
            for (p, part) in shared {
                part_peers[part % parts].push(PeerId((p % peers) as u32));
            }
            // One level per peer, with one to eight references each.
            let mut routing = crate::topology::RoutingArena::default();
            let mut r = refs.iter().cycle();
            for p in 0..peers {
                routing.peer_off.push(p as u32);
                routing.slice_off.push(routing.refs.len() as u32);
                let n = 1 + r.next().expect("cycled") % 8;
                for _ in 0..n {
                    routing.refs.push(PeerId((r.next().expect("cycled") % peers) as u32));
                }
            }
            routing.slice_off.push(routing.refs.len() as u32);
            let paths = vec![Key::empty(); parts];
            net.image.topo = Topology::new(paths, part_peers, part_of, routing);
            net.image.alive = (0..peers).map(|p| alive[p % alive.len()]).collect();
            if let Some(b) = backlogs {
                net.set_event_sink(Box::new(Backlogs((0..peers).map(|p| b[p % b.len()]).collect())));
            }
            for p in 0..peers {
                let p = PeerId(p as u32);
                let checked = same_pick(
                    &mut net,
                    |n| n.pick_alive_ref(p, 0),
                    |n| n.collected_pick_alive_ref(p, 0),
                );
                proptest::prop_assert_eq!(checked, Ok(()), "peer {}", p.index());
            }
            for part in 0..parts {
                let checked = same_pick(
                    &mut net,
                    |n| n.partition_member(part),
                    |n| n.collected_partition_member(part),
                );
                proptest::prop_assert_eq!(checked, Ok(()), "partition {}", part);
            }
        }
    }

    /// The lending retrieve is the copying one without the copy: on twin
    /// networks — the same build, the same seed, the same calls, with
    /// every peer alive and with a partition wiped — it answers the same
    /// items, leaves the same metrics (messages, bytes, route hops, failed
    /// routes) and tells the clock the same events, for exact keys and for
    /// prefixes that shower, over keys shorter than the trie.
    #[test]
    fn the_lending_retrieve_charges_what_the_copying_one_did() {
        let logged_net = |seed: u64| {
            let mut data: Vec<(Key, W)> =
                (0..300).map(|i| format!("w{i:03}")).map(|w| (hash_str(&w), W(w))).collect();
            for short in ["0", "01", "1", "110"] {
                data.push((Key::parse(short), W(format!("short {short}"))));
            }
            let cfg = NetworkConfig { peers: 64, replication: 2, seed, ..Default::default() };
            let mut net = Network::build(cfg, data);
            let log = Rc::default();
            net.set_event_sink(Box::new(EventLog(Rc::clone(&log))));
            (net, log)
        };
        let keys: Vec<Key> = ["", "0", "1", "01", "110", "0110", "10101"]
            .into_iter()
            .map(Key::parse)
            .chain((0..300).step_by(37).map(|i| hash_str(&format!("w{i:03}"))))
            .collect();
        for seed in 0..4 {
            for wipe in [false, true] {
                let (mut copied, copied_log) = logged_net(seed);
                let (mut lent, lent_log) = logged_net(seed);
                // The partition of one of the words asked for.
                let wiped = wipe.then(|| copied.partition_of(&keys[7 + seed as usize]));
                if let Some(part) = wiped {
                    assert_eq!(copied.fail_partition(part), lent.fail_partition(part));
                }
                for key in &keys {
                    for _ in 0..3 {
                        let from = copied.random_peer();
                        assert_eq!(lent.random_peer(), from);
                        let want = copied.copied_retrieve_lists(from, key);
                        let got = lent.retrieve_runs(from, key).map(|runs| {
                            runs.iter().map(|r| lent.run_items(r).to_vec()).collect::<Vec<_>>()
                        });
                        assert_eq!(got, want, "seed {seed}, wiped {wiped:?}, key {key}");
                    }
                }
                assert_eq!(lent.metrics(), copied.metrics(), "seed {seed}, wiped {wiped:?}");
                assert_eq!(*lent_log.borrow(), *copied_log.borrow(), "seed {seed}, {wiped:?}");
                let m = *copied.metrics();
                assert!(m.messages > 0 && m.route_hops > 0 && !copied_log.borrow().is_empty());
                assert_eq!(wiped.is_some(), m.failed_routes > 0, "seed {seed}");
            }
        }
    }

    /// Words whose first letters run through the alphabet: their keys part
    /// after a few shared bits, so a cover of a few dozen partitions has
    /// many that hold data (the `word…` keys of [`word_net`] share their
    /// first 32 bits and crowd into few).
    fn spread_words(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{}{i:03}", (b'a' + (i * 7 % 26) as u8) as char)).collect()
    }

    fn word_net(n_peers: usize, n_words: usize) -> (Network<W>, Vec<String>) {
        let words: Vec<String> = (0..n_words).map(|i| format!("word{i:05}")).collect();
        let data: Vec<(Key, W)> = words.iter().map(|w| (hash_str(w), W(w.clone()))).collect();
        let cfg = NetworkConfig { peers: n_peers, ..Default::default() };
        (Network::build(cfg, data), words)
    }

    #[test]
    fn every_key_is_retrievable() {
        let (mut net, words) = word_net(64, 300);
        for w in &words {
            let from = net.random_peer();
            let got = net.retrieve_list(from, &hash_str(w)).expect("route");
            assert!(got.contains(&W(w.clone())), "word {w} not found");
        }
    }

    #[test]
    fn retrieval_counts_messages() {
        let (mut net, words) = word_net(64, 300);
        net.reset_metrics();
        let owner = net.partition_of(&hash_str(&words[0]));
        let mut peers = (0..net.peer_count() as u32).map(PeerId);
        let from = peers.rfind(|p| net.peer_partition(*p) != owner).expect("a stranger");
        net.retrieve_list(from, &hash_str(&words[0])).unwrap();
        let m = net.metrics();
        assert!(m.messages >= 1, "retrieval from a remote peer must cost messages");
        assert!(m.result_msgs >= 1);
        assert!(m.result_bytes as usize >= words[0].len());
    }

    #[test]
    fn self_retrieval_costs_no_result_message() {
        // If the initiator owns the key, no messages at all are needed.
        let (mut net, words) = word_net(8, 50);
        let key = hash_str(&words[0]);
        let owner_part = net.partition_of(&key);
        let owner = net.partition_member(owner_part).unwrap();
        net.reset_metrics();
        let got = net.retrieve_list(owner, &key).unwrap();
        assert!(got.contains(&W(words[0].clone())));
        assert_eq!(net.metrics().route_hops, 0);
        assert_eq!(net.metrics().result_msgs, 0);
    }

    #[test]
    fn routing_cost_is_logarithmic() {
        // Expected ~0.5 * log2(P) hops per lookup (§2). Allow generous slack.
        let (mut net, words) = word_net(1024, 2000);
        net.reset_metrics();
        let lookups = 200;
        for i in 0..lookups {
            let from = net.random_peer();
            net.route(from, &hash_str(&words[i % words.len()])).unwrap();
        }
        let avg_hops = net.metrics().route_hops as f64 / lookups as f64;
        let log_p = (net.partition_count() as f64).log2();
        assert!(avg_hops <= log_p, "average hops {avg_hops:.2} exceeds log2(P) = {log_p:.2}");
        assert!(avg_hops >= 0.2 * log_p, "suspiciously cheap routing: {avg_hops:.2}");
    }

    #[test]
    fn prefix_retrieve_fans_out() {
        let (mut net, _words) = word_net(64, 300);
        let from = net.random_peer();
        // All 300 words share the prefix "word0"/"word": query "word" must
        // hit the whole subtree and return everything.
        let got = net.retrieve_list(from, &hash_str("word")).unwrap();
        assert_eq!(got.len(), 300);
    }

    #[test]
    fn range_query_matches_oracle() {
        let (mut net, words) = word_net(32, 200);
        let lo = hash_str("word00050");
        let hi = hash_str("word00149");
        let from = net.random_peer();
        let runs = net.range_query(from, &lo, &hi).unwrap();
        let mut got: Vec<String> =
            runs.iter().flat_map(|r| net.run_items(r)).map(|w| w.0.clone()).collect();
        got.sort_unstable();
        let expect: Vec<String> = words
            .iter()
            .filter(|w| {
                let k = hash_str(w);
                k >= lo && k <= hi
            })
            .cloned()
            .collect();
        assert_eq!(got, expect);
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn empty_range_is_empty_and_cheap() {
        let (mut net, _) = word_net(32, 100);
        net.reset_metrics();
        let from = net.random_peer();
        let lo = hash_str("zzz");
        let hi = hash_str("zzzz");
        let got = net.range_query(from, &lo, &hi).unwrap();
        assert!(got.iter().all(|run| run.items.is_empty()));
    }

    /// An inverted range answers empty and charges nothing — also where
    /// the partitions extending `hi` lie past `lo`'s (`hi` a prefix of
    /// `lo`).
    #[test]
    fn inverted_range_is_empty_and_charges_nothing() {
        let (mut net, _) = word_net(8, 10);
        net.reset_metrics();
        let from = net.random_peer();
        for (lo, hi) in [("b", "a"), ("word00005", "word0")] {
            let got = net.range_query(from, &hash_str(lo), &hash_str(hi)).unwrap();
            assert!(got.is_empty(), "{lo}..{hi}");
        }
        assert_eq!(*net.metrics(), Metrics::default(), "no route, no message, no scan");
    }

    #[test]
    fn single_peer_network_works() {
        let (mut net, words) = word_net(1, 20);
        assert_eq!(net.partition_count(), 1);
        let from = net.random_peer();
        let got = net.retrieve_list(from, &hash_str(&words[3])).unwrap();
        assert_eq!(got, vec![W(words[3].clone())]);
        assert_eq!(net.metrics().messages, 0, "single peer needs no messages");
    }

    #[test]
    fn replication_replicates_data() {
        let words = spread_words(100);
        let data: Vec<(Key, W)> = words.iter().map(|w| (hash_str(w), W(w.clone()))).collect();
        let cfg = NetworkConfig { peers: 32, replication: 4, ..Default::default() };
        let net = Network::build(cfg, data);
        assert!(net.partition_count() <= 8);
        assert_eq!(net.stored_items(), 100, "each item once, replicas excluded");
        // Every item is stored once per structural replica, and a partition
        // holding data has at least `replication` of them; one holding
        // nothing has none.
        let mut replicated = 0;
        for part in 0..net.partition_count() {
            let (members, items) =
                (net.partition_members(part).len(), net.partition_store(part).item_count());
            assert_eq!(members == 0, items == 0, "partition {part}: {members} members");
            assert!(items == 0 || members >= 4, "partition {part}: {members} members");
            replicated += members * items;
        }
        assert_eq!(net.total_stored_items(), replicated);
        assert!(replicated >= 100 * 4);
    }

    #[test]
    fn retrieval_survives_churn_with_replication() {
        let words = spread_words(200);
        let data: Vec<(Key, W)> = words.iter().map(|w| (hash_str(w), W(w.clone()))).collect();
        let cfg = NetworkConfig {
            peers: 64,
            replication: 4,
            refs_per_level: 3,
            seed: 7,
            ..Default::default()
        };
        let mut net = Network::build(cfg, data);
        net.fail_random_fraction(0.25);
        let mut found = 0;
        let mut attempted = 0;
        for w in &words {
            let from = net.random_peer();
            attempted += 1;
            if let Ok(items) = net.retrieve_list(from, &hash_str(w)) {
                if items.contains(&W(w.clone())) {
                    found += 1;
                }
            }
        }
        // With replication 4 and 25% churn the vast majority must survive.
        assert!(
            found as f64 >= 0.9 * attempted as f64,
            "only {found}/{attempted} lookups succeeded under churn"
        );
    }

    #[test]
    fn determinism_same_seed_same_traffic() {
        let run = || {
            let (mut net, words) = word_net(128, 500);
            net.reset_metrics();
            for i in 0..50 {
                let from = net.random_peer();
                net.retrieve_list(from, &hash_str(&words[i * 7 % words.len()])).unwrap();
            }
            *net.metrics()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dead_initiator_errors() {
        let (mut net, words) = word_net(16, 50);
        let from = net.random_peer();
        net.fail_peer(from);
        assert_eq!(net.retrieve_list(from, &hash_str(&words[0])), Err(RouteError::InitiatorDead));
    }

    #[test]
    fn repeated_churn_fractions_terminate_and_spare_one_peer() {
        let (mut net, _) = word_net(20, 60);
        // Cumulatively > 100%: must terminate (not spin hunting victims)
        // and must leave one peer alive for initiator selection.
        let first = net.fail_random_fraction(0.6).len();
        let second = net.fail_random_fraction(0.6).len();
        assert_eq!(first, 12);
        assert_eq!(second, 7, "second wave is capped at alive - 1");
        assert_eq!(net.fail_random_fraction(1.0).len(), 0);
        let survivor = net.random_peer(); // would panic if all were dead
        assert!(net.peer_alive(survivor));
    }

    #[test]
    fn churn_and_inserts_bump_the_epoch() {
        let (mut net, _) = word_net(16, 50);
        let e0 = net.cache_epoch();
        net.fail_peer(PeerId(3));
        assert_eq!(net.cache_epoch(), e0 + 1);
        net.revive_peer(PeerId(3));
        assert_eq!(net.cache_epoch(), e0 + 2);
        net.fail_random_fraction(0.1);
        assert_eq!(net.cache_epoch(), e0 + 3);
        // A zero-victim wave is still a membership event.
        net.fail_random_fraction(0.0);
        assert_eq!(net.cache_epoch(), e0 + 4);
        // Publication invalidates too: cached lists no longer reflect the
        // stored data.
        net.insert_item(hash_str("fresh"), W("fresh".into()));
        assert_eq!(net.cache_epoch(), e0 + 5);
    }

    #[test]
    fn retrieve_multi_matches_per_key_retrieves_with_fewer_messages() {
        let (mut net, words) = word_net(64, 300);
        // Pick a partition with several keys in it.
        let part = net.partition_of(&hash_str(&words[0]));
        let keys: Vec<Key> = words
            .iter()
            .filter(|w| net.partition_of(&hash_str(w)) == part)
            .take(4)
            .map(|w| hash_str(w))
            .collect();
        assert!(keys.len() >= 2, "need a shared partition to test coalescing");
        // Initiator outside the partition, so messages actually flow.
        let from = (0..net.peer_count() as u32)
            .map(PeerId)
            .find(|p| net.peer_partition(*p) != part)
            .unwrap();

        net.reset_metrics();
        let (_owner, multi) = net.retrieve_multi_lists(from, keys.iter()).expect("route");
        let multi_msgs = net.metrics().messages;

        net.reset_metrics();
        let mut singles = Vec::new();
        for k in &keys {
            singles.push(net.retrieve_list(from, k).expect("route"));
        }
        let single_msgs = net.metrics().messages;

        assert_eq!(multi, singles, "multi-key retrieve must return per-key lists verbatim");
        assert!(
            multi_msgs < single_msgs,
            "one routed chain + one reply must beat {} separate retrieves \
             ({multi_msgs} vs {single_msgs})",
            keys.len()
        );
    }

    /// A multi-key retrieve of no key answers nothing and charges nothing,
    /// as an inverted range does.
    #[test]
    fn a_multi_key_retrieve_of_no_key_is_empty_and_charges_nothing() {
        let (mut net, _) = word_net(8, 10);
        net.reset_metrics();
        let from = net.random_peer();
        let got = net.retrieve_multi_lists(from, std::iter::empty()).expect("nothing to route");
        assert_eq!(got, (from, Vec::new()));
        assert_eq!(*net.metrics(), Metrics::default(), "no route, no message, no scan");
    }

    #[test]
    fn random_alive_peer_is_none_when_all_peers_are_dead() {
        let (mut net, _) = word_net(6, 30);
        for i in 0..6 {
            net.fail_peer(PeerId(i));
        }
        assert_eq!(net.alive_peers(), 0);
        assert_eq!(net.random_alive_peer(), None);
    }

    #[test]
    fn revive_random_fraction_mirrors_fail() {
        let (mut net, _) = word_net(20, 60);
        let killed = net.fail_random_fraction(0.5).len();
        assert_eq!(killed, 10);
        let e0 = net.cache_epoch();
        let revived = net.revive_random_fraction(0.25);
        assert_eq!(revived.len(), 5);
        assert!(revived.iter().all(|p| net.peer_alive(*p)));
        assert_eq!(net.alive_peers(), 15);
        assert_eq!(net.cache_epoch(), e0 + 1);
        // Capped at the dead population; a zero wave still bumps the epoch.
        assert_eq!(net.revive_random_fraction(1.0).len(), 5);
        assert_eq!(net.revive_random_fraction(1.0).len(), 0);
        assert_eq!(net.cache_epoch(), e0 + 3);
    }

    #[test]
    fn fail_partition_kills_every_member_and_keeps_the_data() {
        let words = spread_words(120);
        let data: Vec<(Key, W)> = words.iter().map(|w| (hash_str(w), W(w.clone()))).collect();
        let cfg = NetworkConfig { peers: 32, replication: 4, ..Default::default() };
        let mut net = Network::build(cfg, data);
        let part = net.partition_of(&hash_str(&words[0]));
        let victims = net.fail_partition(part);
        assert!(!victims.is_empty());
        assert_eq!(net.partition_alive(part), 0);
        // Crash-stop: the stores survive, so a revival restores service.
        for &v in &victims {
            net.revive_peer(v);
        }
        assert_eq!(net.partition_alive(part), victims.len());
        let from = net.random_peer();
        let got = net.retrieve_list(from, &hash_str(&words[0])).expect("route after revival");
        assert!(got.contains(&W(words[0].clone())));
    }

    #[test]
    fn repair_epoch_restores_the_replication_target() {
        let words = spread_words(200);
        let data: Vec<(Key, W)> = words.iter().map(|w| (hash_str(w), W(w.clone()))).collect();
        let cfg = NetworkConfig { peers: 64, replication: 4, seed: 11, ..Default::default() };
        let mut net = Network::build(cfg, data);
        // Knock one partition down to a single alive replica.
        let part = net.partition_of(&hash_str(&words[0]));
        let members: Vec<PeerId> = net.partition_members(part).to_vec();
        for &m in &members[1..] {
            net.fail_peer(m);
        }
        assert_eq!(net.partition_alive(part), 1);

        net.reset_metrics();
        let e0 = net.cache_epoch();
        let policy = ReplicationPolicy::at_least(2);
        let report = net.repair_epoch(&policy);
        assert!(report.acted());
        assert_eq!(report.deficient, 1);
        assert_eq!(report.lost, 0);
        assert!(report.recruited >= 1);
        assert!(report.bytes_copied > 0);
        assert!(net.partition_alive(part) >= 2, "partition topped back up");
        // The copy is real traffic and a membership event.
        assert_eq!(net.metrics().result_msgs, report.recruited);
        assert!(net.metrics().result_bytes >= report.bytes_copied);
        assert_eq!(net.cache_epoch(), e0 + 1);
        // Recruits answer queries for their new partition.
        let from = net.random_peer();
        let got = net.retrieve_list(from, &hash_str(&words[0])).expect("route after repair");
        assert!(got.contains(&W(words[0].clone())));
        // A second pass finds nothing to do and charges nothing.
        net.reset_metrics();
        let again = net.repair_epoch(&policy);
        assert!(!again.acted());
        assert_eq!(net.metrics().messages, 0);
        assert_eq!(net.cache_epoch(), e0 + 1);
    }

    #[test]
    fn repair_epoch_reports_fully_dead_partitions_as_lost() {
        let words = spread_words(120);
        let data: Vec<(Key, W)> = words.iter().map(|w| (hash_str(w), W(w.clone()))).collect();
        let cfg = NetworkConfig { peers: 24, replication: 3, ..Default::default() };
        let mut net = Network::build(cfg, data);
        let part = net.partition_of(&hash_str(&words[0]));
        net.fail_partition(part);
        let report = net.repair_epoch(&ReplicationPolicy::at_least(2));
        assert!(report.lost >= 1, "an extinct partition is lost, not repaired");
        assert_eq!(net.partition_alive(part), 0, "no source, no recruits");
    }

    #[test]
    fn repair_is_deterministic_for_a_seed() {
        let run = || {
            let words = spread_words(150);
            let data: Vec<(Key, W)> = words.iter().map(|w| (hash_str(w), W(w.clone()))).collect();
            let cfg = NetworkConfig { peers: 48, replication: 4, seed: 13, ..Default::default() };
            let mut net = Network::build(cfg, data);
            net.fail_random_fraction(0.4);
            let report = net.repair_epoch(&ReplicationPolicy::at_least(2));
            let members: Vec<Vec<PeerId>> =
                (0..net.partition_count()).map(|p| net.partition_members(p).to_vec()).collect();
            (report, members, *net.metrics())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn send_direct_charges_both_endpoints() {
        /// Logs the endpoints and size of every delivered message.
        struct Deliveries(std::rc::Rc<std::cell::RefCell<Vec<(PeerId, PeerId, usize)>>>);
        impl EventSink for Deliveries {
            fn begin_query(&mut self) {}
            fn end_query(&mut self) -> SimLatency {
                SimLatency::default()
            }
            fn deliver(
                &mut self,
                from: PeerId,
                to: PeerId,
                bytes: usize,
                _: MsgKind,
                _: Option<&SharedTraceSink>,
            ) {
                self.0.borrow_mut().push((from, to, bytes));
            }
            fn local_work(&mut self, _: PeerId, _: u64, _: Option<&SharedTraceSink>) {}
            fn fork(&mut self) {}
            fn branch(&mut self) {}
            fn join(&mut self) {}
            fn now_us(&self) -> u64 {
                0
            }
            fn reset_to_us(&mut self, _: u64) {}
        }
        let (mut net, _) = word_net(8, 40);
        let log = std::rc::Rc::default();
        net.set_event_sink(Box::new(Deliveries(std::rc::Rc::clone(&log))));
        net.reset_metrics();
        let (a, b) = (PeerId(1), PeerId(5));
        net.send_direct(a, b, 500);
        let hb = net.config().msg_header_bytes;
        assert_eq!(*log.borrow(), [(a, b, hb + 500)]);
        let m = *net.metrics();
        assert_eq!(
            (m.messages, m.result_msgs, m.bytes, m.result_bytes),
            (1, 1, hb as u64 + 500, 500)
        );
        net.reset_metrics();
        assert_eq!(*net.metrics(), Metrics::default(), "reset clears the counters");
    }

    #[test]
    fn explicit_paths_constructor_validates_cover() {
        let result = std::panic::catch_unwind(|| {
            Network::<W>::build_with_paths(
                NetworkConfig::default(),
                vec![Key::parse("0")], // incomplete: misses "1"
                Vec::new(),
            )
        });
        assert!(result.is_err(), "incomplete covers must be rejected");
    }
}
