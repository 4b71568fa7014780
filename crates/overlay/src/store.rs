//! Compact, structurally-shared partition stores.
//!
//! The seed network gave every peer its own `BTreeMap<Key, SmallVec<T>>`:
//! at replication factor `k` each partition's data was materialized `k`
//! times, and every node of every map was a separate heap allocation. At
//! 10⁵–10⁶ peers that layout dominates RSS and caps the reachable network
//! size. This module replaces it with two pieces:
//!
//! * [`SortedStore`] — one sorted run of `(key, posting-list)` pairs per
//!   *partition*. The run owns its [`Key`]s — a lookup compares against
//!   what the run itself holds, one hop from the entry — and lists are
//!   [`PostingList`]s (`Arc<Vec<T>>`), so replicas, query replies and
//!   caches all reference the same immutable allocations. A run changes in
//!   one way only: [`SortedStore::merge`] folds a key-sorted batch into it
//!   in a single pass.
//! * [`PartitionStore`] — the per-peer handle: an `Arc<SortedStore>`
//!   shared by every structural replica of a partition. Mutation goes
//!   through copy-on-write ([`Arc::make_mut`]); the network re-shares the
//!   handle after each merge so replication factor `k` costs `k` pointer
//!   copies, not `k` data copies.
//!
//! Scan semantics (prefix, inclusive range, exact) and the reported
//! `touched` counts are bit-compatible with the seed's `BTreeMap` walk:
//! the run is sorted by the same total [`Key`] order, a "map entry" is one
//! run entry, and within a key items keep insertion order.

use crate::key::Key;
use crate::peer::Item;
use std::sync::Arc;

/// An immutable, shareable posting list. Replies, caches and replicas
/// hold clones of the `Arc`, never copies of the items.
pub type PostingList<T> = Arc<Vec<T>>;

/// A contiguous stretch of a [`SortedStore`]: what the scans lend out.
pub type Run<T> = [(Key, PostingList<T>)];

/// The items of `run` in scan order (key order, publication order within
/// a key), borrowed — callers filter first and clone only what they keep.
pub fn run_items<T>(run: &Run<T>) -> impl Iterator<Item = &T> {
    run.iter().flat_map(|(_, list)| list.iter())
}

/// The partition point of `run` under `pred`, found by doubling from the
/// front and bisecting the last stride: twice log₂ of the answer instead of
/// log₂ of the run, for an answer known to be near.
fn gallop<E>(run: &[E], pred: impl Fn(&E) -> bool) -> usize {
    let mut bound = 1;
    while bound <= run.len() && pred(&run[bound - 1]) {
        bound *= 2;
    }
    // `run[bound / 2 - 1]` passed, `run[bound - 1]` failed or is past the end.
    let (lo, hi) = (bound / 2, run.len().min(bound - 1));
    lo + run[lo..hi].partition_point(pred)
}

/// One sorted run of `(key, posting-list)` entries — the store of one
/// partition, shared by all of its structural replicas.
///
/// Invariant: entries are strictly sorted by key (no duplicates); the
/// per-key item order is publication order, matching the seed's
/// `BTreeMap<Key, SmallVec<T>>` semantics entry for entry.
#[derive(Debug, Clone)]
pub struct SortedStore<T> {
    entries: Vec<(Key, PostingList<T>)>,
}

impl<T: Item> SortedStore<T> {
    /// A run from entries already in order (snapshot import).
    ///
    /// # Panics
    /// Panics when the keys are not strictly ascending.
    pub fn from_sorted(entries: Vec<(Key, PostingList<T>)>) -> Self {
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "a run is strictly ascending");
        Self { entries }
    }

    /// The full sorted run.
    pub fn entries(&self) -> &Run<T> {
        &self.entries
    }

    /// Fold a batch with strictly ascending keys into the run — the one way
    /// a run changes. A key the run lacks takes the batch's list handle as
    /// is; a key it has gets the batch's items appended copy-on-write
    /// (readers holding the old list keep it) or, with `replace`, takes the
    /// batch's handle in place of its own — how the network keeps one list
    /// under a key that several partitions cover. New entries are spliced
    /// in one backward pass that moves only what lies behind the first of
    /// them, each entry once.
    pub fn merge(&mut self, batch: impl IntoIterator<Item = (Key, PostingList<T>)>, replace: bool) {
        // New keys, each with the index of the entry it goes in front of.
        let mut fresh: Vec<(usize, Key, PostingList<T>)> = Vec::new();
        let mut at = 0;
        for (key, list) in batch {
            at += gallop(&self.entries[at..], |(k, _)| *k < key);
            debug_assert!(
                fresh.last().is_none_or(|(_, k, _)| *k < key)
                    && (at == 0 || self.entries[at - 1].0 < key),
                "a batch ascends strictly"
            );
            match self.entries.get_mut(at) {
                Some((k, old)) if *k == key && replace => *old = list,
                Some((k, old)) if *k == key => {
                    Arc::make_mut(old).extend(Arc::unwrap_or_clone(list));
                }
                _ => fresh.push((at, key, list)),
            }
        }
        let Some((_, _, any)) = fresh.first() else { return };
        // Open one slot per new key at the end, then walk backwards: the
        // entries between two insertion points swap past the slots still
        // open, and the new key drops into the last of them.
        let slot = (Key::empty(), Arc::clone(any));
        let mut end = self.entries.len();
        self.entries.resize(end + fresh.len(), slot);
        for (open, (at, key, list)) in fresh.into_iter().enumerate().rev() {
            for i in (at..end).rev() {
                self.entries.swap(i, i + open + 1);
            }
            self.entries[at + open] = (key, list);
            end = at;
        }
    }

    /// Index of the first entry whose key is `>= key`.
    fn lower_bound(&self, key: &Key) -> usize {
        self.entries.partition_point(|(k, _)| k < key)
    }

    /// The contiguous sub-run of entries whose key has `key` as a prefix.
    /// Zero-copy: the caller clones the `Arc`s it wants to keep. The end
    /// is galloped to from the start — a probe for an exact gram or
    /// attribute key hits one entry, and delimiting it costs two
    /// comparisons, not a bisection of the rest of the run.
    pub fn prefix_entries(&self, key: &Key) -> &Run<T> {
        let tail = &self.entries[self.lower_bound(key)..];
        &tail[..gallop(tail, |(k, _)| key.is_prefix_of(k))]
    }

    /// The contiguous sub-run with `lo <= key <= hi` (both inclusive).
    pub fn range_entries(&self, lo: &Key, hi: &Key) -> &Run<T> {
        let s = self.lower_bound(lo);
        let e = s + self.entries[s..].partition_point(|(k, _)| k <= hi);
        &self.entries[s..e]
    }

    /// The posting list stored under exactly `key`, if any.
    pub fn exact_entry(&self, key: &Key) -> Option<&PostingList<T>> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key)).ok().map(|i| &self.entries[i].1)
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
/// network's write path briefly detaches the siblings, merges into the run
/// in place (`Arc::make_mut` sees a unique reference), and re-shares the
/// handle — so a `k`-replicated batch costs one merge plus `k` pointer
/// writes.
#[derive(Debug)]
pub struct PartitionStore<T>(Arc<SortedStore<T>>);

impl<T> Default for PartitionStore<T> {
    fn default() -> Self {
        Self(Arc::new(SortedStore { entries: Vec::new() }))
    }
}

/// Another handle onto the same run (what replicas hold).
impl<T> Clone for PartitionStore<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T: Item> PartitionStore<T> {
    /// Wrap a freshly-built run (snapshot import).
    pub fn from_store(store: SortedStore<T>) -> Self {
        Self(Arc::new(store))
    }

    /// True when both handles reference the same run (replica check).
    pub fn shares_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Copy-on-write [`SortedStore::merge`]; in place when this is the
    /// only handle.
    pub fn merge(&mut self, batch: impl IntoIterator<Item = (Key, PostingList<T>)>, replace: bool) {
        Arc::make_mut(&mut self.0).merge(batch, replace);
    }
}

impl<T> std::ops::Deref for PartitionStore<T> {
    type Target = SortedStore<T>;
    fn deref(&self) -> &SortedStore<T> {
        &self.0
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

    /// One single-item merge per word, in the order given.
    fn merged(words: &[&'static str]) -> SortedStore<S> {
        let mut s = SortedStore::from_sorted(Vec::new());
        for w in words {
            s.merge(vec![(hash_str(w), Arc::new(vec![S(w)]))], false);
        }
        s
    }

    fn store() -> SortedStore<S> {
        merged(&["alpha", "alpine", "beta", "alp", "gamma"])
    }

    fn names(run: &Run<S>) -> Vec<&'static str> {
        run_items(run).map(|x| x.0).collect()
    }

    #[test]
    fn insert_keeps_the_run_sorted_and_prefix_scans_match() {
        let s = store();
        let hits = s.prefix_entries(&hash_str("alp"));
        assert_eq!(hits.len(), 3);
        assert_eq!(names(hits), vec!["alp", "alpha", "alpine"]);
        assert!(s.entries().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn one_merge_equals_the_same_keys_merged_one_by_one() {
        // New keys in front of, between and behind the old ones, and two
        // of them next to each other.
        let mut s = merged(&["beta", "delta", "gamma"]);
        let mut batch: Vec<(Key, PostingList<S>)> = ["alpha", "beta", "cat", "cow", "zeta"]
            .into_iter()
            .map(|w| (hash_str(w), Arc::new(vec![S(w)])))
            .collect();
        batch.sort_by(|a, b| a.0.cmp(&b.0));
        s.merge(batch, false);
        let one_by_one = merged(&["beta", "delta", "gamma", "alpha", "beta", "cat", "cow", "zeta"]);
        assert_eq!(names(s.entries()), names(one_by_one.entries()));
        assert_eq!(
            names(s.entries()),
            ["alpha", "beta", "beta", "cat", "cow", "delta", "gamma", "zeta"]
        );
        assert_eq!(s.entries().len(), 7);
    }

    #[test]
    fn prefix_hits_of_every_length_are_delimited_exactly() {
        // 0, 1, 2, 3, 4, 5 and 9 hits, in the middle of the run and
        // running to its end: every branch of the galloping end bound.
        let words = [
            "a", "ba", "bb", "ca", "cb", "cc", "da", "db", "dc", "dd", "ea", "eb", "ec", "ed",
            "ee", "za", "zb", "zc", "zd", "ze", "zf", "zg", "zh", "zi",
        ];
        let s = merged(&words);
        for (prefix, want) in [("x", 0), ("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5), ("z", 9)]
        {
            let hits = s.prefix_entries(&hash_str(prefix));
            assert_eq!(hits.len(), want, "prefix {prefix:?}");
            assert!(names(hits).iter().all(|w| w.starts_with(prefix)));
        }
        assert_eq!(s.prefix_entries(&hash_str("zi")).len(), 1, "the last entry alone");
        assert_eq!(s.prefix_entries(&Key::empty()).len(), words.len(), "the whole run");
        assert!(SortedStore::<S>::from_sorted(Vec::new())
            .prefix_entries(&hash_str("a"))
            .is_empty());
    }

    #[test]
    fn range_is_inclusive_and_exact_finds_single_keys() {
        let s = store();
        let hits = s.range_entries(&hash_str("alpha"), &hash_str("beta"));
        assert_eq!(names(hits), vec!["alpha", "alpine", "beta"]);
        assert_eq!(s.exact_entry(&hash_str("beta")).unwrap().len(), 1);
        assert!(s.exact_entry(&hash_str("delta")).is_none());
    }

    #[test]
    fn same_key_items_keep_insertion_order() {
        let mut s = store();
        s.merge(vec![(hash_str("beta"), Arc::new(vec![S("beta2"), S("beta3")]))], false);
        let l = s.exact_entry(&hash_str("beta")).unwrap();
        assert_eq!(l.as_slice(), &[S("beta"), S("beta2"), S("beta3")]);
        assert_eq!(s.item_count(), 7);
    }

    #[test]
    fn replace_hands_the_run_the_batch_list_itself() {
        let mut s = store();
        let list = Arc::new(vec![S("beta"), S("beta2")]);
        s.merge(vec![(hash_str("beta"), Arc::clone(&list))], true);
        assert!(Arc::ptr_eq(s.exact_entry(&hash_str("beta")).unwrap(), &list));
        assert_eq!(s.item_count(), 6);
    }

    #[test]
    fn partition_store_cow_preserves_shared_readers() {
        let mut a = PartitionStore::from_store(store());
        let b = a.clone();
        assert!(a.shares_with(&b));
        // A reader holding the old posting list is unaffected by the COW
        // merge below.
        let before = Arc::clone(b.exact_entry(&hash_str("gamma")).unwrap());
        a.merge(vec![(hash_str("gamma"), Arc::new(vec![S("gamma2")]))], false);
        assert!(!a.shares_with(&b));
        assert_eq!(before.len(), 1);
        assert_eq!(a.exact_entry(&hash_str("gamma")).unwrap().len(), 2);
        assert_eq!(b.exact_entry(&hash_str("gamma")).unwrap().len(), 1);
    }

    #[test]
    fn stored_bytes_and_counts_match_the_seed_semantics() {
        let s = store();
        assert_eq!(s.entries().len(), 5);
        assert_eq!(s.item_count(), 5);
        assert_eq!(
            s.stored_bytes(),
            ("alpha".len() + "alpine".len() + "beta".len() + "alp".len() + "gamma".len()) as u64
        );
    }
}
