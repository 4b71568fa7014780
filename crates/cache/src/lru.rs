//! A bounded LRU map with virtual-time TTL, epoch invalidation, and an
//! optional TinyLFU admission gate.
//!
//! Deliberately simple: a hash map from key to place in a vector of
//! entries (so a lookup hashes once) plus a monotone use-tick, with
//! eviction scanning for the least-recently-used entry. Capacities on the
//! hot path are a few thousand entries, and the scan only runs when the
//! cache is full — profile before reaching for an intrusive list.
//!
//! With admission enabled ([`LruCache::with_admission`]) every access is
//! recorded in a [`FrequencySketch`], and a new key may displace a still-
//! valid victim only if its estimated access frequency is higher — the
//! classic TinyLFU gate that keeps one-hit wonders from washing hot
//! entries out of a small cache.

use crate::sketch::{FrequencySketch, SketchState};
use rustc_hash::FxHashMap;
use std::hash::{Hash, Hasher};

struct Entry<V> {
    value: V,
    /// Churn epoch the value was fetched under; a bumped epoch kills it.
    epoch: u64,
    /// Virtual time the value was inserted (TTL anchor).
    inserted_us: u64,
    /// Monotone use-tick for LRU ordering.
    last_used: u64,
}

/// Bounded LRU with TTL + epoch validity. `get` misses (and evicts) expired
/// and stale-epoch entries, so callers never see invalid data.
pub struct LruCache<K, V> {
    /// Each resident key's place in `entries`, whose empty places `free` lists.
    map: FxHashMap<K, usize>,
    entries: Vec<Option<Entry<V>>>,
    free: Vec<usize>,
    capacity: usize,
    ttl_us: u64,
    tick: u64,
    /// TinyLFU admission gate; `None` admits unconditionally. Boxed: most
    /// caches run without one, and every engine holds its broker inline.
    sketch: Option<Box<FrequencySketch>>,
    /// Inserts the admission gate turned away.
    rejected: u64,
}

fn key_hash<K: Hash>(key: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// # Panics
    /// Panics if `capacity == 0` (use an `Option` instead of an empty cache).
    pub fn new(capacity: usize, ttl_us: u64) -> Self {
        assert!(capacity > 0, "zero-capacity cache");
        let (map, entries, free) = (FxHashMap::default(), Vec::new(), Vec::new());
        Self { map, entries, free, capacity, ttl_us, tick: 0, sketch: None, rejected: 0 }
    }

    /// Like [`LruCache::new`], with the TinyLFU admission gate enabled.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_admission(capacity: usize, ttl_us: u64) -> Self {
        let mut c = Self::new(capacity, ttl_us);
        c.sketch = Some(Box::new(FrequencySketch::for_capacity(capacity)));
        c
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts the admission gate rejected (0 without admission).
    pub fn admission_rejects(&self) -> u64 {
        self.rejected
    }

    fn entry(&self, at: usize) -> &Entry<V> {
        self.entries[at].as_ref().expect("a resident key's place holds its entry")
    }

    fn valid(&self, at: usize, now_us: u64, epoch: u64) -> bool {
        let e = self.entry(at);
        e.epoch == epoch && now_us.saturating_sub(e.inserted_us) <= self.ttl_us
    }

    fn remove(&mut self, key: &K, at: usize) {
        self.map.remove(key);
        self.entries[at] = None;
        self.free.push(at);
    }

    /// Look up `key` at virtual time `now_us` under churn epoch `epoch`.
    /// Expired or stale entries are evicted and reported as a miss.
    pub fn get(&mut self, key: &K, now_us: u64, epoch: u64) -> Option<&V> {
        if let Some(s) = &mut self.sketch {
            s.record(key_hash(key));
        }
        let &at = self.map.get(key)?;
        if !self.valid(at, now_us, epoch) {
            self.remove(key, at);
            return None;
        }
        self.tick += 1;
        let e = self.entries[at].as_mut()?;
        e.last_used = self.tick;
        Some(&e.value)
    }

    /// Validity check without side effects: no LRU touch, no frequency
    /// record, no eviction. The cost model peeks cached list sizes here.
    pub fn peek(&self, key: &K, now_us: u64, epoch: u64) -> Option<&V> {
        let &at = self.map.get(key)?;
        self.valid(at, now_us, epoch).then(|| &self.entry(at).value)
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used entry
    /// when the cache is full. With admission enabled, a new key displaces
    /// a still-valid victim only if the sketch estimates it hotter; the
    /// insert is otherwise rejected. Returns whether the value was stored.
    pub fn put(&mut self, key: K, value: V, now_us: u64, epoch: u64) -> bool {
        // Writes are accesses too (canonical TinyLFU records every
        // reference): a key that is repeatedly written but never looked
        // up still accumulates frequency, so it can eventually displace a
        // colder resident instead of being rejected forever.
        if let Some(s) = &mut self.sketch {
            s.record(key_hash(&key));
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Prefer evicting an invalid entry; otherwise the LRU one.
            let victim = self
                .map
                .iter()
                .map(|(k, &at)| (k, at, self.valid(at, now_us, epoch)))
                .min_by_key(|&(_, at, valid)| (valid, self.entry(at).last_used))
                .map(|(k, at, valid)| (k.clone(), at, valid));
            if let Some((vk, at, victim_valid)) = victim {
                if victim_valid {
                    if let Some(s) = &self.sketch {
                        // The TinyLFU gate: keep the established entry
                        // unless the newcomer is estimated strictly hotter.
                        if s.estimate(key_hash(&key)) <= s.estimate(key_hash(&vk)) {
                            self.rejected += 1;
                            return false;
                        }
                    }
                }
                self.remove(&vk, at);
            }
        }
        let entry = Some(Entry { value, epoch, inserted_us: now_us, last_used: self.tick });
        let at =
            *self.map.entry(key).or_insert_with(|| self.free.pop().unwrap_or(self.entries.len()));
        match self.entries.get_mut(at) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
        true
    }

    /// Rebuild a cache from an exported image.
    ///
    /// # Panics
    /// Panics on internally inconsistent state ([`LruState::check`]) — a
    /// decoder checks first, so this is a bug, not a runtime condition.
    pub fn from_state(state: LruState<K, V>) -> Self {
        if let Err(breach) = state.check() {
            panic!("{breach}");
        }
        let LruState { capacity, ttl_us, tick, rejected, entries, sketch } = state;
        let mut c = Self::new(capacity as usize, ttl_us);
        c.sketch = sketch.map(|s| Box::new(FrequencySketch::from_state(s)));
        (c.tick, c.rejected) = (tick, rejected);
        for LruEntryState { key, value, epoch, inserted_us, last_used } in entries {
            c.map.insert(key, c.entries.len());
            c.entries.push(Some(Entry { value, epoch, inserted_us, last_used }));
        }
        c
    }
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Walk the cache into an owned [`LruState`]. Entries are exported
    /// **sorted by `last_used`** — ticks are unique (every access bumps
    /// the counter), so equal caches export equal state regardless of
    /// hash-map iteration order.
    pub fn export_state(&self) -> LruState<K, V> {
        let mut entries: Vec<LruEntryState<K, V>> = self
            .map
            .iter()
            .map(|(k, &at)| (k, self.entry(at)))
            .map(|(k, e)| LruEntryState {
                key: k.clone(),
                value: e.value.clone(),
                epoch: e.epoch,
                inserted_us: e.inserted_us,
                last_used: e.last_used,
            })
            .collect();
        entries.sort_by_key(|e| e.last_used);
        LruState {
            capacity: self.capacity as u64,
            ttl_us: self.ttl_us,
            tick: self.tick,
            rejected: self.rejected,
            entries,
            sketch: self.sketch.as_deref().map(FrequencySketch::export_state),
        }
    }
}

/// One exported cache entry (see [`LruCache::export_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LruEntryState<K, V> {
    pub key: K,
    pub value: V,
    /// Churn epoch the value was fetched under.
    pub epoch: u64,
    /// Virtual insert time (TTL anchor).
    pub inserted_us: u64,
    /// LRU use-tick (unique per entry).
    pub last_used: u64,
}

/// The owned image of an [`LruCache`] (checkpointing). Restoring it
/// reproduces the cache bit-for-bit: same residents, same LRU order,
/// same admission-sketch contents, same tick — so a restored run makes
/// exactly the hit/miss/evict decisions the original would have made.
#[derive(Debug, Clone, PartialEq)]
pub struct LruState<K, V> {
    pub capacity: u64,
    pub ttl_us: u64,
    pub tick: u64,
    pub rejected: u64,
    /// Entries sorted by `last_used`, oldest first.
    pub entries: Vec<LruEntryState<K, V>>,
    pub sketch: Option<SketchState>,
}

impl<K, V> LruState<K, V> {
    /// The same image with each value replaced by `f` of its key and it.
    pub fn map_values<W>(self, mut f: impl FnMut(&K, V) -> W) -> LruState<K, W> {
        let LruState { capacity, ttl_us, tick, rejected, entries, sketch } = self;
        let entries = entries
            .into_iter()
            .map(|LruEntryState { key, value, epoch, inserted_us, last_used }| LruEntryState {
                value: f(&key, value),
                key,
                epoch,
                inserted_us,
                last_used,
            })
            .collect();
        LruState { capacity, ttl_us, tick, rejected, entries, sketch }
    }

    /// What [`LruCache::from_state`] requires of an image, `Err` naming the
    /// first breach — for a decoder to refuse what a restore would die on.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.capacity == 0 {
            return Err("zero-capacity cache");
        }
        if self.entries.len() as u64 > self.capacity {
            return Err("more cache entries than capacity");
        }
        if self.entries.iter().any(|e| e.last_used > self.tick) {
            return Err("cache entry used after the cache's own tick");
        }
        self.sketch.as_ref().map_or(Ok(()), SketchState::check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_and_lru_eviction() {
        let mut c: LruCache<u32, &str> = LruCache::new(2, 1_000);
        c.put(1, "a", 0, 0);
        c.put(2, "b", 0, 0);
        assert_eq!(c.get(&1, 10, 0), Some(&"a")); // 1 is now most recent
        c.put(3, "c", 20, 0); // evicts 2
        assert_eq!(c.get(&2, 30, 0), None);
        assert_eq!(c.get(&1, 30, 0), Some(&"a"));
        assert_eq!(c.get(&3, 30, 0), Some(&"c"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn ttl_expires_entries() {
        let mut c: LruCache<u32, u32> = LruCache::new(4, 100);
        c.put(1, 11, 0, 0);
        assert_eq!(c.get(&1, 100, 0), Some(&11), "at the TTL boundary, still valid");
        assert_eq!(c.get(&1, 101, 0), None, "past the TTL, expired");
        assert!(c.is_empty(), "expired entries are evicted on lookup");
    }

    #[test]
    fn epoch_bump_invalidates_everything_older() {
        let mut c: LruCache<u32, u32> = LruCache::new(4, 1_000_000);
        c.put(1, 11, 0, 0);
        c.put(2, 22, 0, 0);
        assert_eq!(c.get(&1, 10, 1), None, "entry from epoch 0 is dead in epoch 1");
        c.put(3, 33, 10, 1);
        assert_eq!(c.get(&3, 20, 1), Some(&33));
        assert_eq!(c.get(&2, 20, 1), None);
    }

    #[test]
    fn full_cache_prefers_evicting_invalid_entries() {
        let mut c: LruCache<u32, u32> = LruCache::new(2, 50);
        c.put(1, 11, 0, 0); // will be expired by t=100
        c.put(2, 22, 90, 0); // still fresh at t=100
        c.put(3, 33, 100, 0); // must evict 1 (expired), not 2 (LRU but valid)
        assert_eq!(c.get(&2, 100, 0), Some(&22));
        assert_eq!(c.get(&3, 100, 0), Some(&33));
    }

    #[test]
    fn refresh_updates_in_place_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2, 1_000);
        c.put(1, 11, 0, 0);
        c.put(2, 22, 0, 0);
        c.put(1, 111, 5, 0); // refresh, not insert: nothing evicted
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1, 10, 0), Some(&111));
        assert_eq!(c.get(&2, 10, 0), Some(&22));
    }

    #[test]
    fn peek_has_no_side_effects() {
        let mut c: LruCache<u32, &str> = LruCache::new(2, 1_000);
        c.put(1, "a", 0, 0);
        c.put(2, "b", 0, 0);
        assert_eq!(c.peek(&1, 10, 0), Some(&"a"));
        assert_eq!(c.peek(&1, 2_000, 0), None, "expired entries peek as absent...");
        assert_eq!(c.len(), 2, "...but are not evicted by the peek");
        // Peeking must not refresh LRU order: 1 stays the older entry.
        c.peek(&1, 10, 0);
        c.get(&2, 20, 0);
        c.put(3, "c", 30, 0);
        assert_eq!(c.get(&1, 40, 0), None, "1 was evicted despite being peeked last");
    }

    #[test]
    fn admission_gate_rejects_one_hit_wonders() {
        let mut c: LruCache<u32, u32> = LruCache::with_admission(4, 1_000_000);
        // Establish 4 hot keys with repeated accesses.
        for k in 0..4u32 {
            c.put(k, k, 0, 0);
        }
        for _ in 0..8 {
            for k in 0..4u32 {
                c.get(&k, 1, 0);
            }
        }
        // A stream of one-hit wonders must not displace them.
        for w in 100..200u32 {
            c.put(w, w, 2, 0);
        }
        for k in 0..4u32 {
            assert_eq!(c.get(&k, 3, 0), Some(&k), "hot key {k} survived the wonder stream");
        }
        assert!(c.admission_rejects() > 0, "the gate actually fired");
    }

    #[test]
    fn admission_gate_admits_keys_that_became_hot() {
        let mut c: LruCache<u32, u32> = LruCache::with_admission(2, 1_000_000);
        c.put(1, 11, 0, 0);
        c.put(2, 22, 0, 0);
        // Key 3 gets accessed (missing) repeatedly — its sketch frequency
        // rises above the never-again-touched residents'.
        for _ in 0..6 {
            c.get(&3, 1, 0);
        }
        assert!(c.put(3, 33, 2, 0), "a genuinely hot newcomer is admitted");
        assert_eq!(c.get(&3, 3, 0), Some(&33));
    }

    #[test]
    fn epoch_fencing_is_exact_not_monotone() {
        // The validity check is `entry.epoch == lookup.epoch`, not `<=`:
        // an entry stamped with a *later* epoch (cached by a diverged
        // branch after a checkpoint) is just as dead under the restored
        // epoch as a pre-churn entry is after the bump.
        let mut c: LruCache<u32, u32> = LruCache::new(4, 1_000_000);
        c.put(1, 11, 0, 7);
        assert_eq!(c.get(&1, 1, 6), None, "future-epoch entry must be fenced");
        c.put(2, 22, 2, 6);
        assert_eq!(c.get(&2, 3, 6), Some(&22), "same-epoch entry is served");
    }

    #[test]
    fn state_round_trip_preserves_lru_order_and_ticks() {
        let mut c: LruCache<u32, u32> = LruCache::new(2, 1_000_000);
        c.put(1, 11, 0, 0);
        c.put(2, 22, 0, 0);
        c.get(&1, 5, 0); // 1 becomes most recent; 2 is now the LRU victim
        let state = c.export_state();
        assert_eq!(state.entries.len(), 2);
        assert!(state.entries[0].last_used < state.entries[1].last_used, "sorted by use-tick");
        let mut r = LruCache::from_state(state);
        // Both caches evict the same victim on the next insert.
        c.put(3, 33, 10, 0);
        r.put(3, 33, 10, 0);
        for cache in [&mut c, &mut r] {
            assert_eq!(cache.get(&2, 11, 0), None, "2 was the LRU victim");
            assert_eq!(cache.get(&1, 11, 0), Some(&11));
            assert_eq!(cache.get(&3, 11, 0), Some(&33));
        }
        assert_eq!(c.export_state(), r.export_state());
    }

    #[test]
    fn state_round_trip_carries_the_admission_sketch() {
        let mut c: LruCache<u32, u32> = LruCache::with_admission(2, 1_000_000);
        c.put(1, 11, 0, 0);
        c.put(2, 22, 0, 0);
        for _ in 0..8 {
            c.get(&1, 1, 0);
            c.get(&2, 1, 0);
        }
        let mut r = LruCache::from_state(c.export_state());
        // A cold newcomer is rejected by both (the sketch survived), and
        // the reject counters stay in lockstep.
        assert!(!c.put(9, 99, 2, 0));
        assert!(!r.put(9, 99, 2, 0));
        assert_eq!(c.admission_rejects(), r.admission_rejects());
        assert!(c.admission_rejects() > 0);
    }

    #[test]
    fn admission_never_blocks_invalid_victims() {
        let mut c: LruCache<u32, u32> = LruCache::with_admission(2, 10);
        c.put(1, 11, 0, 0);
        c.put(2, 22, 0, 0);
        // Both residents expired: a cold newcomer still gets in.
        assert!(c.put(9, 99, 1_000, 0));
        assert_eq!(c.get(&9, 1_001, 0), Some(&99));
        assert_eq!(c.admission_rejects(), 0);
    }
}
