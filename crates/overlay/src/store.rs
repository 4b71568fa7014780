//! Compact, structurally-shared partition stores.
//!
//! The seed network gave every peer its own `BTreeMap<Key, Vec<T>>`:
//! at replication factor `k` each partition's data was materialized `k`
//! times, and every node of every map was a separate heap allocation. At
//! 10⁵–10⁶ peers that layout dominates RSS and caps the reachable network
//! size. This module replaces it with two pieces:
//!
//! * [`SortedStore`] — one sorted run of `(key, posting-list)` pairs per
//!   *partition*, held as three flat arrays: every key's packed bytes back
//!   to back in one buffer, one `(byte offset, bit length)` span per key,
//!   one [`PostingList`] handle per key. A lookup bisects the spans and
//!   compares [`KeyRef`] views into the buffer, so what a search touches
//!   is two dense arrays whose layout does not depend on the order the
//!   keys were allocated in — a run built by a bulk load, one grown a
//!   publish at a time and one decoded from a snapshot read alike. Lists
//!   are `Arc<Vec<T>>`, so replicas, query replies, caches and snapshots
//!   all reference the same immutable allocations. A run changes in one
//!   way only: [`SortedStore::merge`] folds a key-sorted batch into it in
//!   a single pass.
//! * [`PartitionStore`] — δ(p), the handle the network keeps per
//!   *partition*: an `Arc<SortedStore>` that is the store of every
//!   structural replica of the partition, and that every snapshot taken of
//!   the network holds a clone of ([`crate::snapshot`]). Mutation goes
//!   through copy-on-write ([`Arc::make_mut`]): replication factor `k`
//!   costs one merge, and a write into a run a snapshot or a fork still
//!   holds copies that run's arrays once (never its lists' items) and
//!   leaves the other holder's untouched.
//!
//! Scan semantics (prefix, inclusive range, exact) and the reported
//! `touched` counts are bit-compatible with the seed's `BTreeMap` walk:
//! the run is sorted by the same total [`Key`] order, a "map entry" is one
//! run entry, and within a key items keep insertion order.

use crate::gallop;
use crate::key::{Key, KeyRef};
use crate::peer::Item;
use std::fmt;
use std::sync::Arc;

/// An immutable, shareable posting list. Replies, caches and replicas
/// hold clones of the `Arc`, never copies of the items.
pub type PostingList<T> = Arc<Vec<T>>;

/// A contiguous stretch of a [`SortedStore`], as the scans lend it out:
/// the posting lists of its entries, in key order.
pub type Run<T> = [PostingList<T>];

/// The items of `run` in scan order (key order, publication order within
/// a key), borrowed — callers filter first and clone only what they keep.
pub fn run_items<T>(run: &Run<T>) -> impl Iterator<Item = &T> {
    run.iter().flat_map(|list| list.iter())
}

/// Where one key lies in its run's byte buffer.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    /// Offset of the key's first byte.
    off: u32,
    /// The key's length in bits; it occupies `bits.div_ceil(8)` bytes.
    bits: u32,
}

impl Span {
    /// An offset or a length as a span holds it.
    ///
    /// # Panics
    /// Panics past `u32::MAX`: the keys of one run stay under 4 GiB.
    fn word(v: usize) -> u32 {
        u32::try_from(v).expect("the keys of one run stay under 4 GiB")
    }

    /// The span of `key` written at byte `off` of a run's buffer.
    fn at(off: usize, key: KeyRef<'_>) -> Span {
        Span { off: Span::word(off), bits: Span::word(key.len()) }
    }
}

/// One sorted run of `(key, posting-list)` entries — the store of one
/// partition, and so of all of its structural replicas.
///
/// Invariant: `spans` and `lists` are parallel, the spans tile `bytes` in
/// order without gaps, and the keys they delimit are strictly ascending
/// (no duplicates); the per-key item order is publication order, matching
/// the seed's `BTreeMap<Key, Vec<T>>` semantics entry for entry.
#[derive(Clone)]
pub struct SortedStore<T> {
    bytes: Vec<u8>,
    spans: Vec<Span>,
    lists: Vec<PostingList<T>>,
}

impl<T> Default for SortedStore<T> {
    fn default() -> Self {
        Self { bytes: Vec::new(), spans: Vec::new(), lists: Vec::new() }
    }
}

/// The run as the map it stands for: `{key: [items]}` in key order.
impl<T: fmt::Debug> fmt::Debug for SortedStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> SortedStore<T> {
    /// A run from entries already in order (snapshot decoding), or `None`
    /// when the keys are not strictly ascending.
    pub fn from_sorted<'k>(
        entries: impl IntoIterator<Item = (KeyRef<'k>, PostingList<T>)>,
    ) -> Option<Self> {
        let entries = entries.into_iter();
        let mut run = Self::default();
        run.spans.reserve_exact(entries.size_hint().0);
        run.lists.reserve_exact(entries.size_hint().0);
        let mut last: Option<KeyRef<'k>> = None;
        for (key, list) in entries {
            if last.is_some_and(|last| last >= key) {
                return None;
            }
            last = Some(key);
            run.spans.push(Span::at(run.bytes.len(), key));
            run.bytes.extend_from_slice(key.as_bytes());
            run.lists.push(list);
        }
        Some(run)
    }

    /// Number of entries (distinct keys).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The full sorted run.
    pub fn entries(&self) -> &Run<T> {
        &self.lists
    }

    /// The stored keys, ascending — views into the run's buffer.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = KeyRef<'_>> {
        self.spans.iter().map(|s| self.view(*s))
    }

    /// The entries in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (KeyRef<'_>, &PostingList<T>)> {
        self.keys().zip(&self.lists)
    }

    #[inline]
    fn view(&self, span: Span) -> KeyRef<'_> {
        let (off, bits) = (span.off as usize, span.bits as usize);
        KeyRef::trusted(&self.bytes[off..off + bits.div_ceil(8)], bits)
    }

    /// The key of entry `i`, if the run is that long.
    fn key_at(&self, i: usize) -> Option<KeyRef<'_>> {
        self.spans.get(i).map(|span| self.view(*span))
    }

    /// Index of the first entry whose key is `>= key`.
    fn lower_bound(&self, key: KeyRef<'_>) -> usize {
        self.spans.partition_point(|s| self.view(*s) < key)
    }

    /// The contiguous sub-run of entries whose key has `key` as a prefix.
    /// Zero-copy: the caller clones the `Arc`s it wants to keep. The end
    /// is galloped to from the start — a probe for an exact gram or
    /// attribute key hits one entry, and delimiting it costs two
    /// comparisons, not a bisection of the rest of the run.
    pub fn prefix_entries(&self, key: &Key) -> &Run<T> {
        let key = key.as_ref();
        self.prefix_run_at(self.lower_bound(key), key)
    }

    /// [`Self::prefix_entries`] for a key whose entries start at `*cursor`
    /// or later — ascending keys looked up one after another, the cursor
    /// carried from each lookup to the next. The start is galloped to from
    /// the cursor, which is left there: a key equal to this one, or a
    /// greater one, starts there or later.
    ///
    /// # Panics
    /// Panics when `*cursor` is past the run's end; debug builds check that
    /// no entry before it is `>= key`.
    pub fn prefix_entries_from(&self, key: &Key, cursor: &mut usize) -> &Run<T> {
        let key = key.as_ref();
        debug_assert!(
            self.key_at(cursor.wrapping_sub(1)).is_none_or(|before| before < key),
            "the cursor lies past the entries of {key}"
        );
        *cursor += gallop(&self.spans[*cursor..], |span| self.view(*span) < key);
        self.prefix_run_at(*cursor, key)
    }

    /// The entries from `s`, the first `>= key`, whose key has `key` as a
    /// prefix.
    fn prefix_run_at(&self, s: usize, key: KeyRef<'_>) -> &Run<T> {
        let e = s + gallop(&self.spans[s..], |span| key.is_prefix_of(self.view(*span)));
        &self.lists[s..e]
    }

    /// The contiguous sub-run with `lo <= key <= hi` (both inclusive).
    pub fn range_entries(&self, lo: &Key, hi: &Key) -> &Run<T> {
        let s = self.lower_bound(lo.as_ref());
        let e = s + self.spans[s..].partition_point(|span| self.view(*span) <= hi.as_ref());
        &self.lists[s..e]
    }

    /// The posting list stored under exactly `key`, if any.
    pub fn exact_entry(&self, key: &Key) -> Option<&PostingList<T>> {
        let at = self.lower_bound(key.as_ref());
        (self.key_at(at) == Some(key.as_ref())).then(|| &self.lists[at])
    }

    /// Total stored (key, item) pairs.
    pub fn item_count(&self) -> usize {
        self.lists.iter().map(|l| l.len()).sum()
    }
}

impl<T: Item> SortedStore<T> {
    /// Fold a batch with strictly ascending keys into the run — the one way
    /// a run changes. A key the run lacks takes the batch's list handle as
    /// is; a key it has gets the batch's items appended copy-on-write
    /// (readers holding the old list keep it) or, with `replace`, takes the
    /// batch's handle in place of its own — how the network keeps one list
    /// under a key that several partitions cover. New entries are spliced
    /// into the three arrays in one backward pass that moves only what
    /// lies behind the first of them, each entry and each key byte once —
    /// a batch of one shifts half a run on average, a bulk load into the
    /// empty run writes its keys straight into place.
    ///
    /// # Panics
    /// Panics on a batch whose keys do not ascend strictly — in release
    /// builds too: two equal new keys would become two entries, and the run
    /// would no longer be the map the scans, `exact_entry` and the snapshot
    /// codec take it for. The panic leaves a valid run: no new entry has
    /// been spliced in yet (items of the batch's earlier keys may have been
    /// appended).
    pub fn merge(&mut self, batch: impl IntoIterator<Item = (Key, PostingList<T>)>, replace: bool) {
        // New keys, each with the index of the entry it goes in front of.
        let batch = batch.into_iter();
        let mut fresh: Vec<(usize, Key, PostingList<T>)> = Vec::with_capacity(batch.size_hint().0);
        let mut at = 0;
        // The batch's previous key, when it is entry `i` of the run;
        // otherwise it is the last of `fresh`.
        let mut stored_prev: Option<usize> = None;
        for (key, list) in batch {
            let k = key.as_ref();
            let prev = match stored_prev {
                Some(i) => Some(self.view(self.spans[i])),
                None => fresh.last().map(|(_, last, _)| last.as_ref()),
            };
            assert!(prev.is_none_or(|prev| prev < k), "a batch ascends strictly");
            at += gallop(&self.spans[at..], |s| self.view(*s) < k);
            if self.key_at(at) != Some(k) {
                fresh.push((at, key, list));
                stored_prev = None;
                continue;
            }
            stored_prev = Some(at);
            if replace {
                self.lists[at] = list;
            } else {
                Arc::make_mut(&mut self.lists[at]).extend(Arc::unwrap_or_clone(list));
            }
        }
        let Some((_, _, any)) = fresh.first() else { return };
        // Open room for the new keys at the end of all three arrays, then
        // walk backwards: the entries between two insertion points move up
        // past the slots still open (their bytes by the bytes still to be
        // written in front of them), and the new key drops in below them.
        let (entries, old_bytes) = (self.spans.len(), self.bytes.len());
        let mut shift: usize = fresh.iter().map(|(_, key, _)| key.as_bytes().len()).sum();
        // The new end fits a span's offset, and so does every offset below.
        self.bytes.resize(Span::word(old_bytes + shift) as usize, 0);
        self.spans.resize(entries + fresh.len(), Span::default());
        self.lists.resize(entries + fresh.len(), Arc::clone(any));
        let (mut end, mut byte_end) = (entries, old_bytes);
        for (open, (at, key, list)) in fresh.into_iter().enumerate().rev() {
            let byte_at = if at == end { byte_end } else { self.spans[at].off as usize };
            self.bytes.copy_within(byte_at..byte_end, byte_at + shift);
            for i in (at..end).rev() {
                let Span { off, bits } = self.spans[i];
                self.spans[i + open + 1] = Span { off: off + shift as u32, bits };
                self.lists.swap(i, i + open + 1);
            }
            shift -= key.as_bytes().len();
            let off = byte_at + shift;
            self.bytes[off..off + key.as_bytes().len()].copy_from_slice(key.as_bytes());
            self.spans[at + open] = Span::at(off, key.as_ref());
            self.lists[at + open] = list;
            (end, byte_end) = (at, byte_at);
        }
    }

    /// Total payload bytes, for storage-overhead accounting.
    pub fn stored_bytes(&self) -> u64 {
        run_items(&self.lists).map(|i| i.size_bytes() as u64).sum()
    }
}

/// A handle onto a partition's [`SortedStore`].
///
/// The network holds one per partition — the store of all its structural
/// replicas — and merges into the run in place (`Arc::make_mut` sees a
/// unique reference). A snapshot of the network holds one more clone per
/// partition; the first merge after it copies the run's arrays and goes on
/// from there.
#[derive(Debug)]
pub struct PartitionStore<T>(Arc<SortedStore<T>>);

impl<T> Default for PartitionStore<T> {
    fn default() -> Self {
        Self(Arc::default())
    }
}

/// Another handle onto the same run (what snapshots and forks hold).
impl<T> Clone for PartitionStore<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T> PartitionStore<T> {
    /// Wrap a freshly-built run (snapshot decoding).
    pub fn from_store(store: SortedStore<T>) -> Self {
        Self(Arc::new(store))
    }

    /// True when both handles reference the same run (fork check).
    pub fn shares_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl<T: Item> PartitionStore<T> {
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
        let mut s = SortedStore::default();
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

    /// The layout invariant: the spans tile the key buffer in order.
    fn tiled(s: &SortedStore<S>) -> bool {
        let mut end = 0;
        let in_order = s.spans.iter().all(|span| {
            let fits = span.off == end;
            end += span.bits.div_ceil(8);
            fits
        });
        in_order && end as usize == s.bytes.len() && s.spans.len() == s.lists.len()
    }

    #[test]
    fn insert_keeps_the_run_sorted_and_prefix_scans_match() {
        let s = store();
        let hits = s.prefix_entries(&hash_str("alp"));
        assert_eq!(hits.len(), 3);
        assert_eq!(names(hits), vec!["alp", "alpha", "alpine"]);
        assert!(s.keys().zip(s.keys().skip(1)).all(|(a, b)| a < b));
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
        assert!(tiled(&s) && tiled(&one_by_one));
        let words: Vec<Key> = ["alpha", "beta", "cat", "cow", "delta", "gamma", "zeta"]
            .into_iter()
            .map(hash_str)
            .collect();
        assert!(s.keys().eq(words.iter().map(Key::as_ref)), "each key's bytes moved with it");
    }

    /// `merge` refuses a batch out of order with a real check — this test
    /// runs in CI's release step too — and the run it leaves is valid.
    #[test]
    fn a_batch_that_does_not_ascend_strictly_is_refused_in_release_builds_too() {
        let one = |w: &'static str| (hash_str(w), Arc::new(vec![S(w)]));
        for batch in [
            vec![one("cat"), one("cat")],   // a new key twice
            vec![one("cow"), one("cat")],   // new keys descending
            vec![one("delta"), one("cat")], // a new key behind a stored one
            vec![one("zeta"), one("beta")], // a stored key behind a new one
        ] {
            let mut s = merged(&["beta", "delta", "gamma"]);
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.merge(batch, false);
            }));
            assert!(refused.is_err(), "merged a batch out of order");
            assert!(tiled(&s) && s.keys().zip(s.keys().skip(1)).all(|(a, b)| a < b));
            assert_eq!(s.len(), 3, "nothing was spliced in");
        }
    }

    #[test]
    fn a_run_from_sorted_entries_is_that_run_and_disorder_is_refused() {
        let s = store();
        let entries = || s.iter().map(|(k, l)| (k, Arc::clone(l)));
        let copy = SortedStore::from_sorted(entries()).expect("a run's own entries ascend");
        assert!(tiled(&copy));
        assert!(copy.keys().eq(s.keys()));
        assert!(copy.entries().iter().zip(s.entries()).all(|(a, b)| Arc::ptr_eq(a, b)));
        let reversed: Vec<_> = entries().collect::<Vec<_>>().into_iter().rev().collect();
        assert!(SortedStore::from_sorted(reversed).is_none(), "descending");
        let twice = entries().take(1).chain(entries().take(1));
        assert!(SortedStore::from_sorted(twice).is_none(), "a key twice");
        assert!(SortedStore::<S>::from_sorted([]).expect("no entries").is_empty());
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
        assert!(SortedStore::<S>::default().prefix_entries(&hash_str("a")).is_empty());
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

    // The scans and counts again, through a handle grown by its own
    // copy-on-write merges — how the network reads and writes a run.

    fn handle() -> PartitionStore<S> {
        let mut p = PartitionStore::default();
        for w in ["alpha", "alpine", "beta", "alp", "gamma"] {
            p.merge(vec![(hash_str(w), Arc::new(vec![S(w)]))], false);
        }
        p
    }

    #[test]
    fn prefix_scan_matches_extension_semantics() {
        let p = handle();
        let run = p.prefix_entries(&hash_str("alp"));
        assert_eq!(names(run), vec!["alp", "alpha", "alpine"]);
        assert_eq!(run.len(), 3);
    }

    #[test]
    fn exact_scan() {
        let p = handle();
        assert_eq!(**p.exact_entry(&hash_str("beta")).unwrap(), vec![S("beta")]);
        assert!(p.exact_entry(&hash_str("delta")).is_none());
    }

    #[test]
    fn range_scan_inclusive() {
        let p = handle();
        let hits = p.range_entries(&hash_str("alpha"), &hash_str("beta"));
        assert_eq!(names(hits), vec!["alpha", "alpine", "beta"]);
    }

    #[test]
    fn multiple_items_same_key() {
        let mut p = handle();
        p.merge(vec![(hash_str("beta"), Arc::new(vec![S("beta")]))], false);
        assert_eq!(p.exact_entry(&hash_str("beta")).unwrap().len(), 2);
        assert_eq!(p.item_count(), 6);
    }

    #[test]
    fn stored_bytes_sums_payloads() {
        let p = handle();
        assert_eq!(
            p.stored_bytes(),
            ("alpha".len() + "alpine".len() + "beta".len() + "alp".len() + "gamma".len()) as u64
        );
    }
}
