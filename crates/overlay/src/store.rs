//! Compact, structurally-shared partition stores.
//!
//! The seed network gave every peer its own `BTreeMap<Key, SmallVec<T>>`:
//! at replication factor `k` each partition's data was materialized `k`
//! times, and every node of every map was a separate heap allocation. At
//! 10⁵–10⁶ peers that layout dominates RSS and caps the reachable network
//! size. This module replaces it with three pieces:
//!
//! * [`SortedStore`] — one sorted run of `(key, posting-list)` pairs per
//!   *partition*. Keys are [`SharedKey`]s (`Arc<Key>`) and lists are
//!   [`PostingList`]s (`Arc<Vec<T>>`), so replicas, query replies and
//!   caches all reference the same immutable allocations.
//! * [`PartitionStore`] — the per-peer handle: an `Arc<SortedStore>`
//!   shared by every structural replica of a partition. Mutation goes
//!   through copy-on-write ([`Arc::make_mut`]); the network re-shares the
//!   handle after each insert so replication factor `k` costs `k` pointer
//!   copies, not `k` data copies.
//! * [`KeyTable`] — a key interner. Keys published repeatedly (multiple
//!   postings under one gram key, redundant coverage across sibling
//!   partitions) resolve to one shared `Arc<Key>` instead of a fresh
//!   allocation per insertion site.
//!
//! Scan semantics (prefix, inclusive range, exact) and the reported
//! `touched` counts are bit-compatible with the seed's `BTreeMap` walk:
//! the run is sorted by the same total [`Key`] order, a "map entry" is one
//! run entry, and within a key items keep insertion order.

use crate::key::Key;
use crate::peer::Item;
use std::sync::Arc;

/// An interned, shareable key (see [`KeyTable`]).
pub type SharedKey = Arc<Key>;

/// An immutable, shareable posting list. Replies, caches and replicas
/// hold clones of the `Arc`, never copies of the items.
pub type PostingList<T> = Arc<Vec<T>>;

/// A contiguous stretch of a [`SortedStore`]: what the scans lend out.
pub type Run<T> = [(SharedKey, PostingList<T>)];

/// The items of `run` in scan order (key order, publication order within
/// a key), borrowed — callers filter first and clone only what they keep.
pub fn run_items<T>(run: &Run<T>) -> impl Iterator<Item = &T> {
    run.iter().flat_map(|(_, list)| list.iter())
}

/// One sorted run of `(key, posting-list)` entries — the store of one
/// partition, shared by all of its structural replicas.
///
/// Invariant: entries are strictly sorted by key (no duplicates); the
/// per-key item order is publication order, matching the seed's
/// `BTreeMap<Key, SmallVec<T>>` semantics entry for entry.
#[derive(Debug)]
pub struct SortedStore<T> {
    entries: Vec<(SharedKey, PostingList<T>)>,
}

impl<T> Default for SortedStore<T> {
    fn default() -> Self {
        Self { entries: Vec::new() }
    }
}

impl<T: Clone> Clone for SortedStore<T> {
    fn clone(&self) -> Self {
        Self { entries: self.entries.clone() }
    }
}

impl<T: Item> SortedStore<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys (run entries).
    pub fn key_count(&self) -> usize {
        self.entries.len()
    }

    /// The full sorted run.
    pub fn entries(&self) -> &Run<T> {
        &self.entries
    }

    /// Append an entry known to sort after everything present (bulk load).
    pub fn push_sorted(&mut self, key: SharedKey, list: PostingList<T>) {
        debug_assert!(
            self.entries.last().map(|(k, _)| **k < *key).unwrap_or(true),
            "push_sorted requires strictly ascending keys"
        );
        self.entries.push((key, list));
    }

    /// Insert one item under `key`, preserving sort order. An existing
    /// list is extended copy-on-write (shared readers keep the old list);
    /// a new key splices a fresh single-item list into the run.
    pub fn insert(&mut self, key: SharedKey, item: T) {
        match self.entries.binary_search_by(|(k, _)| (**k).cmp(&key)) {
            Ok(i) => Arc::make_mut(&mut self.entries[i].1).push(item),
            Err(i) => self.entries.insert(i, (key, Arc::new(vec![item]))),
        }
    }

    /// Index of the first entry whose key is `>= key`.
    fn lower_bound(&self, key: &Key) -> usize {
        self.entries.partition_point(|(k, _)| **k < *key)
    }

    /// The contiguous sub-run of entries whose key has `key` as a prefix.
    /// Zero-copy: the caller clones the `Arc`s it wants to keep.
    pub fn prefix_entries(&self, key: &Key) -> &Run<T> {
        let s = self.lower_bound(key);
        let e = s + self.entries[s..].partition_point(|(k, _)| key.is_prefix_of(k));
        &self.entries[s..e]
    }

    /// The contiguous sub-run with `lo <= key <= hi` (both inclusive).
    pub fn range_entries(&self, lo: &Key, hi: &Key) -> &Run<T> {
        let s = self.lower_bound(lo);
        let e = s + self.entries[s..].partition_point(|(k, _)| **k <= *hi);
        &self.entries[s..e]
    }

    /// The posting list stored under exactly `key`, if any.
    pub fn exact_entry(&self, key: &Key) -> Option<&PostingList<T>> {
        self.entries.binary_search_by(|(k, _)| (**k).cmp(key)).ok().map(|i| &self.entries[i].1)
    }

    /// Total stored (key, item) pairs.
    pub fn item_count(&self) -> usize {
        self.entries.iter().map(|(_, l)| l.len()).sum()
    }

    /// Total payload bytes, for storage-overhead accounting.
    pub fn stored_bytes(&self) -> u64 {
        run_items(&self.entries).map(|i| i.size_bytes() as u64).sum()
    }
}

/// A peer's handle onto its partition's [`SortedStore`].
///
/// All structural replicas of a partition hold clones of one `Arc`; the
/// network's insert path briefly detaches the siblings, mutates the run
/// in place (`Arc::make_mut` sees a unique reference), and re-shares the
/// handle — so a `k`-replicated insert costs one list edit plus `k`
/// pointer writes.
#[derive(Debug)]
pub struct PartitionStore<T>(Arc<SortedStore<T>>);

impl<T> Default for PartitionStore<T> {
    fn default() -> Self {
        Self(Arc::new(SortedStore { entries: Vec::new() }))
    }
}

impl<T> Clone for PartitionStore<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T: Item> PartitionStore<T> {
    /// Wrap a freshly-built run (bulk load).
    pub fn from_store(store: SortedStore<T>) -> Self {
        Self(Arc::new(store))
    }

    /// Another handle onto the same run (what replicas hold).
    pub fn share(&self) -> Self {
        self.clone()
    }

    /// True when both handles reference the same run (replica check).
    pub fn shares_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Copy-on-write insert; in place when this is the only handle.
    pub fn insert(&mut self, key: SharedKey, item: T) {
        Arc::make_mut(&mut self.0).insert(key, item);
    }
}

impl<T> std::ops::Deref for PartitionStore<T> {
    type Target = SortedStore<T>;
    fn deref(&self) -> &SortedStore<T> {
        &self.0
    }
}

// `Arc::make_mut` needs `SortedStore: Clone`, which needs `T: Clone` —
// satisfied for every `T: Item`.

/// Key interner: resolves equal [`Key`]s to one shared allocation.
///
/// The network runs every published key through the table, so a key that
/// appears many times (the common case for gram and attribute keys, and
/// for keys replicated into several sibling partitions) is stored once
/// and referenced everywhere — the "shared table of interned path
/// prefixes" of the arena layout. Lookup is a binary search over a sorted
/// vector; insertion keeps it sorted.
#[derive(Debug, Default, Clone)]
pub struct KeyTable {
    keys: Vec<SharedKey>,
}

impl KeyTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The shared handle for `key`, interning it on first sight.
    pub fn intern(&mut self, key: &Key) -> SharedKey {
        match self.keys.binary_search_by(|k| (**k).cmp(key)) {
            Ok(i) => Arc::clone(&self.keys[i]),
            Err(i) => {
                let shared: SharedKey = Arc::new(key.clone());
                self.keys.insert(i, Arc::clone(&shared));
                shared
            }
        }
    }

    /// Intern an owned key without cloning it on first sight.
    pub fn intern_owned(&mut self, key: Key) -> SharedKey {
        match self.keys.binary_search_by(|k| (**k).cmp(&key)) {
            Ok(i) => Arc::clone(&self.keys[i]),
            Err(i) => {
                let shared: SharedKey = Arc::new(key);
                self.keys.insert(i, Arc::clone(&shared));
                shared
            }
        }
    }

    /// The interned keys as owned values, in sorted order (the snapshot
    /// image; rebuild with [`Self::from_sorted_keys`]).
    pub fn export_keys(&self) -> Vec<Key> {
        self.keys.iter().map(|k| (**k).clone()).collect()
    }

    /// Rebuild a table from sorted distinct keys, returning the shared
    /// handles aligned to the input order so callers can re-link stores
    /// to the same allocations the table holds.
    ///
    /// # Panics
    /// Panics when the keys are not strictly ascending.
    pub fn from_sorted_keys(keys: Vec<Key>) -> (Self, Vec<SharedKey>) {
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "interned keys must be sorted and distinct");
        let shared: Vec<SharedKey> = keys.into_iter().map(Arc::new).collect();
        (Self { keys: shared.clone() }, shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_str;

    #[derive(Debug, Clone, PartialEq)]
    struct S(&'static str);
    impl Item for S {
        fn size_bytes(&self) -> usize {
            self.0.len()
        }
    }

    fn store() -> SortedStore<S> {
        let mut s = SortedStore::new();
        let mut table = KeyTable::new();
        for w in ["alpha", "alpine", "beta", "alp", "gamma"] {
            s.insert(table.intern(&hash_str(w)), S(w));
        }
        s
    }

    #[test]
    fn insert_keeps_the_run_sorted_and_prefix_scans_match() {
        let s = store();
        let hits = s.prefix_entries(&hash_str("alp"));
        assert_eq!(hits.len(), 3);
        let names: Vec<_> = hits.iter().flat_map(|(_, l)| l.iter()).map(|x| x.0).collect();
        assert_eq!(names, vec!["alp", "alpha", "alpine"]);
        assert!(s.entries().windows(2).all(|w| *w[0].0 < *w[1].0));
    }

    #[test]
    fn range_is_inclusive_and_exact_finds_single_keys() {
        let s = store();
        let hits = s.range_entries(&hash_str("alpha"), &hash_str("beta"));
        let names: Vec<_> = hits.iter().flat_map(|(_, l)| l.iter()).map(|x| x.0).collect();
        assert_eq!(names, vec!["alpha", "alpine", "beta"]);
        assert_eq!(s.exact_entry(&hash_str("beta")).unwrap().len(), 1);
        assert!(s.exact_entry(&hash_str("delta")).is_none());
    }

    #[test]
    fn same_key_items_keep_insertion_order() {
        let mut s = store();
        let mut t = KeyTable::new();
        s.insert(t.intern(&hash_str("beta")), S("beta2"));
        let l = s.exact_entry(&hash_str("beta")).unwrap();
        assert_eq!(l.as_slice(), &[S("beta"), S("beta2")]);
        assert_eq!(s.item_count(), 6);
    }

    #[test]
    fn partition_store_cow_preserves_shared_readers() {
        let mut a = PartitionStore::from_store(store());
        let b = a.share();
        assert!(a.shares_with(&b));
        // A reader holding the old posting list is unaffected by the COW
        // insert below.
        let before = Arc::clone(b.exact_entry(&hash_str("gamma")).unwrap());
        a.insert(Arc::new(hash_str("gamma")), S("gamma2"));
        assert!(!a.shares_with(&b));
        assert_eq!(before.len(), 1);
        assert_eq!(a.exact_entry(&hash_str("gamma")).unwrap().len(), 2);
        assert_eq!(b.exact_entry(&hash_str("gamma")).unwrap().len(), 1);
    }

    #[test]
    fn interner_returns_the_same_allocation_for_equal_keys() {
        let mut t = KeyTable::new();
        let a = t.intern(&hash_str("alpha"));
        let b = t.intern(&hash_str("alpha"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.len(), 1);
        let c = t.intern_owned(hash_str("beta"));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn stored_bytes_and_counts_match_the_seed_semantics() {
        let s = store();
        assert_eq!(s.key_count(), 5);
        assert_eq!(s.item_count(), 5);
        assert_eq!(
            s.stored_bytes(),
            ("alpha".len() + "alpine".len() + "beta".len() + "alp".len() + "gamma".len()) as u64
        );
    }
}
