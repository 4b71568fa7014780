//! The combined cache + batcher façade the engine's probe pipeline talks
//! to.

use crate::batch::{ChannelPool, ChannelPoolState, PartitionChannel};
use crate::lru::{LruCache, LruState};
use sqo_overlay::key::Key;
use sqo_overlay::peer::PeerId;
use sqo_overlay::{HeldRun, PartitionStore, SortedStore};
use sqo_storage::posting::Posting;

/// Everything configurable about the hot-path services. Both services
/// default to **off** — the engine then behaves exactly as without a
/// broker, which is what the equivalence tests pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokerConfig {
    /// Enable the initiator-side posting cache.
    pub cache: bool,
    /// Cached (initiator, gram-key) entries kept before LRU eviction.
    pub cache_capacity: usize,
    /// Virtual-time TTL of a cached posting list, microseconds.
    pub cache_ttl_us: u64,
    /// TinyLFU admission gate on the posting cache: when full, a new list
    /// displaces a still-valid entry only if a frequency sketch estimates
    /// its key hotter — one-hit wonders stop washing out the hot set. Off
    /// by default (unconditional admission, the pre-gate behavior).
    pub admission: bool,
    /// Enable cross-query probe coalescing (partition channels).
    pub batch: bool,
    /// Coalescing window: after a probe routes to a partition, the
    /// exchange stays open this long (virtual time) and probes arriving
    /// within it ride the channel instead of routing again.
    pub batch_window_us: u64,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        Self {
            cache: false,
            cache_capacity: 4096,
            cache_ttl_us: 2_000_000, // 2 virtual seconds
            admission: false,
            batch: false,
            batch_window_us: 4_000,
        }
    }
}

impl BrokerConfig {
    /// Both services on, default sizing.
    pub fn enabled() -> Self {
        Self { cache: true, batch: true, ..Self::default() }
    }

    /// Cache only (no added probe latency from the batch window).
    pub fn cache_only() -> Self {
        Self { cache: true, ..Self::default() }
    }

    /// Cache with the TinyLFU admission gate (the A/B counterpart of
    /// [`BrokerConfig::cache_only`]).
    pub fn cache_with_admission() -> Self {
        Self { cache: true, admission: true, ..Self::default() }
    }

    /// Batching only (A/B isolation of the coalescing win).
    pub fn batch_only() -> Self {
        Self { batch: true, ..Self::default() }
    }

    pub fn any_enabled(&self) -> bool {
        self.cache || self.batch
    }
}

/// Lifetime service counters (the bench's hit-rate and messages-saved
/// lines come from here; per-query attribution lives in `QueryStats`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BrokerCounters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Probe submissions that rode a channel another probe's route opened.
    pub probes_coalesced: u64,
    /// Routed exchanges that opened a partition channel.
    pub channels_opened: u64,
    /// Cache inserts the TinyLFU admission gate turned away (0 with the
    /// gate off).
    pub admission_rejects: u64,
    /// Overlay messages the coalesced probes avoided: the route hops a
    /// rider would have paid, minus the single direct request it sent
    /// instead.
    pub messages_saved: u64,
}

impl BrokerCounters {
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The combined service: an initiator-keyed posting LRU plus the
/// per-partition channel pool. Pure bookkeeping — see the crate docs.
/// A cached list lends the runs its fill read, a [`HeldRun`] per answering
/// partition, and [`Self::export_state`] copies it out.
pub struct CacheBatchBroker {
    cfg: BrokerConfig,
    cache: LruCache<(PeerId, Key), Vec<HeldRun<Posting>>>,
    channels: ChannelPool,
    counters: BrokerCounters,
    /// The last lookup's cache key: the next lookup copies its own into
    /// this buffer, so a lookup allocates nothing.
    probe: (PeerId, Key),
}

impl CacheBatchBroker {
    pub fn new(cfg: BrokerConfig) -> Self {
        let (capacity, ttl) = (cfg.cache_capacity.max(1), cfg.cache_ttl_us);
        Self {
            cfg,
            cache: if cfg.admission {
                LruCache::with_admission(capacity, ttl)
            } else {
                LruCache::new(capacity, ttl)
            },
            channels: ChannelPool::new(cfg.batch_window_us),
            counters: BrokerCounters::default(),
            probe: (PeerId(0), Key::empty()),
        }
    }

    pub fn config(&self) -> &BrokerConfig {
        &self.cfg
    }

    pub fn counters(&self) -> BrokerCounters {
        let mut c = self.counters;
        c.admission_rejects = self.cache.admission_rejects();
        c
    }

    pub fn cache_enabled(&self) -> bool {
        self.cfg.cache
    }

    pub fn batch_enabled(&self) -> bool {
        self.cfg.batch
    }

    /// Cache lookup for `from`'s list of `key`: a hit lends the runs the
    /// list lies in, one per partition that answered the fill.
    pub fn cache_get(
        &mut self,
        from: PeerId,
        key: &Key,
        now_us: u64,
        epoch: u64,
    ) -> Option<&[HeldRun<Posting>]> {
        debug_assert!(self.cfg.cache);
        self.probe.0 = from;
        self.probe.1.clone_from(key);
        match self.cache.get(&self.probe, now_us, epoch) {
            Some(list) => {
                self.counters.cache_hits += 1;
                Some(list)
            }
            None => {
                self.counters.cache_misses += 1;
                None
            }
        }
    }

    /// Fill `from`'s cache with the full list fetched for `key` (subject
    /// to the admission gate when enabled): the runs the replies lent are
    /// kept as they arrived, under the key handed in.
    pub fn cache_put(
        &mut self,
        from: PeerId,
        key: Key,
        runs: Vec<HeldRun<Posting>>,
        now_us: u64,
        epoch: u64,
    ) {
        if self.cfg.cache {
            self.cache.put((from, key), runs, now_us, epoch);
        }
    }

    /// Size of `from`'s valid cached list of `key`, side-effect
    /// free (no counters, no LRU touch) — the cost model's exact-size
    /// source for lists the initiator already fetched.
    pub fn cache_peek_len(
        &self,
        from: PeerId,
        key: &Key,
        now_us: u64,
        epoch: u64,
    ) -> Option<usize> {
        if !self.cfg.cache {
            return None;
        }
        let list = self.cache.peek(&(from, key.clone()), now_us, epoch)?;
        Some(list.iter().map(|run| run.items.len()).sum())
    }

    /// The open channel for `part`, if any. `n_keys` is the number of probe
    /// keys that will ride it on success — `probes_coalesced` counts keys,
    /// matching the per-query `QueryStats` attribution.
    pub fn channel_lookup(
        &mut self,
        part: usize,
        now_us: u64,
        epoch: u64,
        n_keys: u64,
    ) -> Option<PartitionChannel> {
        debug_assert!(self.cfg.batch);
        let c = self.channels.lookup(part, now_us, epoch)?;
        self.counters.probes_coalesced += n_keys;
        Some(c)
    }

    /// Record a freshly routed exchange as `part`'s open channel.
    pub fn channel_record(
        &mut self,
        part: usize,
        owner: PeerId,
        route_hops: u64,
        now_us: u64,
        epoch: u64,
    ) {
        if self.cfg.batch {
            self.counters.channels_opened += 1;
            self.channels.record(part, owner, route_hops, now_us, epoch);
        }
    }

    /// Record overlay messages a coalesced probe avoided (counted by the
    /// engine, which knows what the routed exchange would have cost).
    pub fn count_messages_saved(&mut self, n: u64) {
        self.counters.messages_saved += n;
    }

    /// Walk the broker into an owned [`BrokerState`]: config, raw
    /// counters, the posting cache (with its admission sketch), and the
    /// open channel pool. Each cached list is exported as a copy.
    pub fn export_state(&self) -> BrokerState {
        let copy =
            |_: &_, runs: Vec<HeldRun<_>>| runs.iter().flat_map(HeldRun::items).cloned().collect();
        BrokerState {
            cfg: self.cfg,
            counters: self.counters,
            cache: self.cache.export_state().map_values(copy),
            channels: self.channels.export_state(),
        }
    }

    /// Rebuild a broker from an exported image. The restored broker makes
    /// exactly the hit/miss/coalesce decisions the original would have
    /// made next — including fencing entries whose churn epoch differs
    /// from the lookup's (in either direction) — and answers the same
    /// lists: each is held in a run of one entry under its key.
    pub fn from_state(state: BrokerState) -> Self {
        Self {
            cfg: state.cfg,
            cache: LruCache::from_state(state.cache.map_values(|(_, key), list| held(key, list))),
            channels: ChannelPool::from_state(state.channels),
            counters: state.counters,
            probe: (PeerId(0), Key::empty()),
        }
    }
}

/// `items`, a restored list of `key`, held in a run of one entry.
fn held(key: &Key, items: Vec<Posting>) -> Vec<HeldRun<Posting>> {
    let n = items.len();
    let (bytes, bits, ends) = (key.as_bytes().to_vec(), [key.len() as u32], vec![n as u32]);
    let store = SortedStore::from_parts(bytes, &bits, ends, items).map(PartitionStore::from_store);
    store.map(|store| HeldRun { store, items: 0..n }).into_iter().collect()
}

/// The owned image of a [`CacheBatchBroker`] (checkpointing).
#[derive(Debug, Clone)]
pub struct BrokerState {
    pub cfg: BrokerConfig,
    /// Raw lifetime counters (`admission_rejects` is derived on read and
    /// lives in the cache state).
    pub counters: BrokerCounters,
    pub cache: LruState<(PeerId, Key), Vec<Posting>>,
    pub channels: ChannelPoolState,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_hits_and_misses() {
        let mut b = CacheBatchBroker::new(BrokerConfig::cache_only());
        let k = Key::from_bytes(b"k");
        assert!(b.cache_get(PeerId(1), &k, 0, 0).is_none());
        b.cache_put(PeerId(1), k.clone(), Vec::new(), 0, 0);
        assert!(b.cache_get(PeerId(1), &k, 10, 0).is_some());
        assert!(b.cache_get(PeerId(2), &k, 10, 0).is_none(), "caches are per initiator");
        let c = b.counters();
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_misses, 2);
        assert!((c.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let mut b = CacheBatchBroker::new(BrokerConfig::batch_only());
        b.cache_put(PeerId(1), Key::from_bytes(b"k"), Vec::new(), 0, 0);
        assert!(!b.cache_enabled());
        assert!(b.batch_enabled());
    }

    #[test]
    fn restored_epoch_fences_entries_cached_by_a_diverged_branch() {
        // Checkpoint a broker under churn epoch 5 with one cached list.
        let mut b = CacheBatchBroker::new(BrokerConfig::cache_only());
        let k1 = Key::from_bytes(b"k1");
        let k2 = Key::from_bytes(b"k2");
        b.cache_put(PeerId(1), k1.clone(), Vec::new(), 0, 5);
        let checkpoint = b.export_state();

        // A diverged branch resumes from it, churns (epoch 5 -> 6), and
        // caches a fresh entry under the new epoch.
        let mut diverged = CacheBatchBroker::from_state(checkpoint.clone());
        diverged.cache_put(PeerId(1), k2.clone(), Vec::new(), 10, 6);
        assert!(diverged.cache_get(PeerId(1), &k2, 20, 6).is_some());

        // Restoring that branch's state and looking up under the original
        // checkpoint epoch (5): the post-divergence entry is invalid — the
        // restored `Network::cache_epoch` fences it even though its epoch
        // stamp is *newer* than the lookup's.
        let mut restored = CacheBatchBroker::from_state(diverged.export_state());
        assert!(
            restored.cache_get(PeerId(1), &k2, 30, 5).is_none(),
            "entry cached after the checkpoint must not be served at the restored epoch"
        );
        assert!(
            restored.cache_get(PeerId(1), &k1, 30, 5).is_some(),
            "the checkpoint-epoch entry is still valid"
        );
    }

    #[test]
    fn state_round_trip_keeps_counters_in_lockstep() {
        let mut b = CacheBatchBroker::new(BrokerConfig::enabled());
        let k = Key::from_bytes(b"k");
        b.cache_get(PeerId(1), &k, 0, 0); // miss
        b.cache_put(PeerId(1), k.clone(), Vec::new(), 0, 0);
        b.channel_record(4, PeerId(7), 3, 5, 0);
        b.channel_lookup(4, 10, 0, 2);
        b.channel_record(9, PeerId(2), 4, 12, 0);
        b.count_messages_saved(2);
        assert_eq!(b.counters().channels_opened, 2, "one per recorded exchange");
        let mut r = CacheBatchBroker::from_state(b.export_state());
        assert_eq!(r.counters(), b.counters());
        assert_eq!(r.counters().channels_opened, 2, "the count survives the image");
        // Both continue identically.
        assert!(b.cache_get(PeerId(1), &k, 20, 0).is_some());
        assert!(r.cache_get(PeerId(1), &k, 20, 0).is_some());
        assert!(b.channel_lookup(4, 20, 0, 1).is_some());
        assert!(r.channel_lookup(4, 20, 0, 1).is_some());
        b.channel_record(5, PeerId(3), 2, 25, 0);
        r.channel_record(5, PeerId(3), 2, 25, 0);
        assert_eq!(r.counters(), b.counters());
        assert_eq!(r.counters().channels_opened, 3);
        // Without batching no channel opens, and none is counted.
        let mut off = CacheBatchBroker::new(BrokerConfig::cache_only());
        off.channel_record(4, PeerId(7), 3, 5, 0);
        assert_eq!(off.counters().channels_opened, 0);
    }

    #[test]
    fn epoch_bump_is_a_miss() {
        let mut b = CacheBatchBroker::new(BrokerConfig::cache_only());
        let k = Key::from_bytes(b"k");
        b.cache_put(PeerId(1), k.clone(), Vec::new(), 0, 3);
        assert!(b.cache_get(PeerId(1), &k, 1, 3).is_some());
        assert!(b.cache_get(PeerId(1), &k, 2, 4).is_none(), "churn epoch invalidates");
    }
}
