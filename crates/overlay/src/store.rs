//! Compact, structurally-shared partition stores.
//!
//! The seed network gave every peer its own `BTreeMap<Key, Vec<T>>`:
//! at replication factor `k` each partition's data was materialized `k`
//! times, and every node of every map was a separate heap allocation. At
//! 10⁵–10⁶ peers that layout dominates RSS and caps the reachable network
//! size. This module replaces it with two pieces:
//!
//! * [`SortedStore`] — one sorted run of `(key, items)` entries per
//!   *partition*, held as four flat arrays: every key's packed bytes back
//!   to back in one buffer, one `(byte offset, bit length)` span per key,
//!   one end offset per key, and **one** array of items in key order
//!   (within a key, ascending by the items' [`Item::rank`], equal ranks in
//!   publication order). A lookup bisects the spans and
//!   compares [`KeyRef`] views into the buffer, so what a search touches
//!   is dense arrays whose layout does not depend on the order the keys
//!   were allocated in — a run built by a bulk load, one grown a publish
//!   at a time and one decoded from a snapshot read alike. Keys ascend, so
//!   whatever a scan hits — a prefix, a range, one key — is one contiguous
//!   slice of the items, lent as a [`Stretch`]. A run is made from arrays
//!   in one checked place, [`SortedStore::from_parts`], and changes in one
//!   way only: [`SortedStore::merge`] folds another run — a publication
//!   batch is one — into it in a single pass.
//!   A run also has one derived column, built by the first reply that asks
//!   for it and never written to a snapshot: each entry's cumulative
//!   payload ([`Item::size_bytes`] summed in entry order), so a reply of
//!   whole entries reads its bytes as one subtraction
//!   ([`SortedStore::payload`]). `from_parts` and `from_pairs` start
//!   without it, and `merge` and `split_off` drop it, so building,
//!   publishing into and decoding a run do no more work than before.
//! * [`PartitionStore`] — δ(p), the handle the network keeps per
//!   *partition*: an `Rc<SortedStore>` that is the store of every
//!   structural replica of the partition, and that every snapshot taken of
//!   the network holds a clone of ([`crate::snapshot`]). Mutation goes
//!   through copy-on-write ([`Rc::make_mut`]): replication factor `k`
//!   costs one merge, and a write into a run a snapshot or a fork still
//!   holds copies that run's arrays once and leaves the other holder's
//!   untouched.
//!
//! Scan semantics (prefix, inclusive range, exact) and the reported
//! `touched` counts are bit-compatible with the seed's `BTreeMap` walk:
//! the run is sorted by the same total [`Key`] order, a "map entry" is one
//! run entry — a scan is charged its entries, not its items. Within a key
//! the items ascend by rank and tie in insertion order; for an item type
//! that leaves every rank equal, that is the seed's insertion order.

use crate::gallop;
use crate::key::{Key, KeyRef};
use crate::peer::Item;
use std::cell::OnceCell;
use std::fmt;
use std::ops::Range;
use std::panic::RefUnwindSafe;
use std::rc::Rc;

/// Where one key lies in its run's byte buffer.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Offset of the key's first byte.
    off: u32,
    /// The key's length in bits; it occupies `bits.div_ceil(8)` bytes.
    bits: u32,
}

/// An offset, a length or a count as a run holds it.
///
/// # Panics
/// Panics past `u32::MAX`: one run stays under 4 GiB of keys and 2³² items.
fn word(v: usize) -> u32 {
    u32::try_from(v).expect("one run stays under 4 GiB of keys and 2^32 items")
}

impl Span {
    /// The span of `key` written at byte `off` of a run's buffer.
    fn at(off: usize, key: KeyRef<'_>) -> Span {
        Span { off: word(off), bits: word(key.len()) }
    }
}

/// What a scan of a run lends: how many entries it hit, and their items —
/// one contiguous slice, in key order.
#[derive(Debug)]
pub struct Stretch<'a, T> {
    /// The entries (distinct keys) hit: what the scan is charged.
    pub entries: usize,
    /// Their items, in key order and rank order within a key.
    pub items: &'a [T],
}

impl<T> Stretch<'_, T> {
    /// True when the scan hit no entry.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// One sorted run of `(key, items)` entries — the store of one partition,
/// and so of all of its structural replicas.
///
/// Invariant: `spans` and `ends` are parallel, the spans tile `bytes` in
/// order without gaps, the keys they delimit are strictly ascending (no
/// duplicates), and the ends increase strictly up to `items.len()` — every
/// entry holds at least one item, entry `i` holding
/// `items[ends[i - 1]..ends[i]]` — and each entry's items ascend by
/// [`Item::rank`], equal ranks in publication order. With every rank equal
/// that is the seed's `BTreeMap<Key, Vec<T>>` semantics entry for entry.
/// `sums`, once built, holds `len() + 1` payloads: entry `i`'s items'
/// [`Item::size_bytes`] and those of every entry before it at `i + 1`.
#[derive(Clone)]
pub struct SortedStore<T> {
    bytes: Vec<u8>,
    spans: Vec<Span>,
    ends: Vec<u32>,
    items: Vec<T>,
    sums: OnceCell<Vec<usize>>,
}

impl<T> Default for SortedStore<T> {
    fn default() -> Self {
        let (bytes, spans, ends, items) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        Self { bytes, spans, ends, items, sums: OnceCell::new() }
    }
}

/// A run read across a caught panic is whole: the payload column is set
/// once and never changed, and a panic while it is built leaves it unset.
impl<T: RefUnwindSafe> RefUnwindSafe for SortedStore<T> {}

/// The run as the map it stands for: `{key: [items]}` in key order.
impl<T: fmt::Debug> fmt::Debug for SortedStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> SortedStore<T> {
    /// A run from its arrays (snapshot decoding): the keys' packed bytes
    /// back to back, each key's length in bits, each key's end offset into
    /// `items`. `None` — nothing is trusted — when the keys do not tile
    /// `bytes` or set a padding bit, do not ascend strictly, or the ends do
    /// not increase strictly from above 0 to `items.len()`, one per key.
    /// The order of each entry's items is the caller's to keep: a batch
    /// builds it, and an image checks it ([`Self::ranked`]).
    pub fn from_parts(bytes: Vec<u8>, bits: &[u32], ends: Vec<u32>, items: Vec<T>) -> Option<Self> {
        let mut last_end = 0;
        for &end in &ends {
            if end <= last_end {
                return None;
            }
            last_end = end;
        }
        if ends.len() != bits.len() || last_end as usize != items.len() {
            return None;
        }
        let mut spans = Vec::with_capacity(bits.len());
        let (mut off, mut last) = (0, None);
        for &len in bits {
            let end = off + (len as usize).div_ceil(8);
            let key = KeyRef::new(bytes.get(off..end)?, len as usize)?;
            if last.is_some_and(|last| last >= key) {
                return None;
            }
            last = Some(key);
            spans.push(Span { off: u32::try_from(off).ok()?, bits: len });
            off = end;
        }
        (off == bytes.len()).then(|| Self { bytes, spans, ends, items, sums: OnceCell::new() })
    }

    /// Number of entries (distinct keys).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total stored (key, item) pairs.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Every item of the run, in key order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The keys' packed bytes, back to back in key order.
    pub fn key_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Per entry, the index one past its last item.
    pub fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// The stored keys, ascending — views into the run's buffer.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = KeyRef<'_>> {
        self.spans.iter().map(|s| self.view(*s))
    }

    /// The entries in key order, each with its items.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (KeyRef<'_>, &[T])> {
        (0..self.len()).map(|i| (self.key(i), self.stretch(i..i + 1).items))
    }

    #[inline]
    fn view(&self, span: Span) -> KeyRef<'_> {
        let (off, bits) = (span.off as usize, span.bits as usize);
        KeyRef::trusted(&self.bytes[off..off + bits.div_ceil(8)], bits)
    }

    fn key(&self, i: usize) -> KeyRef<'_> {
        self.view(self.spans[i])
    }

    /// The key of entry `i`, if the run is that long.
    fn key_at(&self, i: usize) -> Option<KeyRef<'_>> {
        self.spans.get(i).map(|span| self.view(*span))
    }

    /// Index of the first item of entry `i` (the item count for `len()`).
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |before| self.ends[before] as usize)
    }

    /// The items of entry `i`, counted.
    fn count(&self, i: usize) -> usize {
        self.ends[i] as usize - self.start(i)
    }

    /// The positions in [`Self::items`] of entries `entries`' items.
    pub fn item_range(&self, entries: Range<usize>) -> Range<usize> {
        self.start(entries.start)..self.start(entries.end)
    }

    /// Entries `entries`, as a scan lends them.
    fn stretch(&self, entries: Range<usize>) -> Stretch<'_, T> {
        Stretch { entries: entries.len(), items: &self.items[self.item_range(entries)] }
    }

    /// Index of the first entry whose key is `>= key`.
    fn lower_bound(&self, key: KeyRef<'_>) -> usize {
        self.spans.partition_point(|s| self.view(*s) < key)
    }

    /// The entries whose key has `key` as a prefix. Zero-copy: the caller
    /// clones the items it wants to keep. The end is galloped to from the
    /// start — a probe for an exact gram or attribute key hits one entry,
    /// and delimiting it costs two comparisons, not a bisection of the rest
    /// of the run.
    pub fn prefix_entries(&self, key: &Key) -> Stretch<'_, T> {
        let key = key.as_ref();
        self.stretch(self.prefix_run_at(self.lower_bound(key), key))
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
    pub fn prefix_entries_from(&self, key: &Key, cursor: &mut usize) -> Stretch<'_, T> {
        let key = key.as_ref();
        debug_assert!(
            self.key_at(cursor.wrapping_sub(1)).is_none_or(|before| before < key),
            "the cursor lies past the entries of {key}"
        );
        *cursor += gallop(&self.spans[*cursor..], |span| self.view(*span) < key);
        self.stretch(self.prefix_run_at(*cursor, key))
    }

    /// The entries from `s`, the first `>= key`, whose key has `key` as a
    /// prefix.
    fn prefix_run_at(&self, s: usize, key: KeyRef<'_>) -> Range<usize> {
        s..s + gallop(&self.spans[s..], |span| key.is_prefix_of(self.view(*span)))
    }

    /// The indices of the entries with `lo <= key <= hi` (both inclusive).
    pub fn range_entries(&self, lo: &Key, hi: &Key) -> Range<usize> {
        let s = self.lower_bound(lo.as_ref());
        s..s + self.spans[s..].partition_point(|span| self.view(*span) <= hi.as_ref())
    }

    /// The index of the entry whose key is `key`, if one is.
    pub fn entry_index(&self, key: KeyRef<'_>) -> Option<usize> {
        let at = self.lower_bound(key);
        (self.key_at(at) == Some(key)).then_some(at)
    }

    /// Entry `at` as an object fetch reads it: its key, how many entries
    /// have that key as a prefix — what a scan of it is charged — and the
    /// items stored under exactly that key.
    ///
    /// # Panics
    /// Panics when `at` is out of range.
    pub fn entry(&self, at: usize) -> (KeyRef<'_>, usize, &[T]) {
        let key = self.key(at);
        (key, self.prefix_run_at(at, key).len(), self.stretch(at..at + 1).items)
    }

    /// The indices of the entries whose key has `prefix` as a prefix.
    pub fn entries_under(&self, prefix: KeyRef<'_>) -> Range<usize> {
        self.prefix_run_at(self.lower_bound(prefix), prefix)
    }

    /// The items stored under exactly `key`, if any.
    pub fn exact_entry(&self, key: &Key) -> Option<&[T]> {
        let at = self.lower_bound(key.as_ref());
        (self.key_at(at) == Some(key.as_ref())).then(|| self.stretch(at..at + 1).items)
    }

    /// Split the run at entry `at`: the run keeps the entries before it, and
    /// the entries from it on — their key bytes, spans, ends and items — move
    /// into the run returned. Nothing is cloned, and the payload column is
    /// dropped unless the whole run moves (`at == 0`).
    ///
    /// # Panics
    /// Panics when `at > len()`.
    pub fn split_off(&mut self, at: usize) -> Self {
        if at == 0 {
            return std::mem::take(self);
        }
        let byte_at = self.spans.get(at).map_or(self.bytes.len(), |s| s.off as usize);
        let item_at = self.start(at);
        let spans = self.spans.split_off(at);
        let ends = self.ends.split_off(at);
        self.sums.take();
        Self {
            bytes: self.bytes.split_off(byte_at),
            spans: spans.into_iter().map(|s| Span { off: s.off - word(byte_at), ..s }).collect(),
            ends: ends.into_iter().map(|end| end - word(item_at)).collect(),
            items: self.items.split_off(item_at),
            sums: OnceCell::new(),
        }
    }

    /// Close an entry: `key`, which sorts behind every key of the run, and
    /// the items appended since the last entry ended.
    fn push_key(&mut self, key: KeyRef<'_>) {
        self.spans.push(Span::at(self.bytes.len(), key));
        self.bytes.extend_from_slice(key.as_bytes());
        self.ends.push(word(self.items.len()));
    }

    fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.spans.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.items.shrink_to_fit();
    }
}

impl<T: Item> SortedStore<T> {
    /// The run of `pairs`: stable-sorted by key and, within a key, by rank —
    /// the items of one key and rank keep their order — one entry per
    /// distinct key. Each item's rank is taken once.
    pub fn from_pairs(pairs: Vec<(Key, T)>) -> Self {
        let mut ranked: Vec<(Key, u64, T)> =
            pairs.into_iter().map(|(key, item)| (key, item.rank(), item)).collect();
        ranked.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut run = Self { items: Vec::with_capacity(ranked.len()), ..Self::default() };
        for (key, _, item) in ranked {
            run.items.push(item);
            let end = word(run.items.len());
            if run.spans.last().is_some_and(|s| run.view(*s) == key.as_ref()) {
                *run.ends.last_mut().expect("an end per span") = end;
            } else {
                run.spans.push(Span::at(run.bytes.len(), key.as_ref()));
                run.bytes.extend_from_slice(key.as_bytes());
                run.ends.push(end);
            }
        }
        run
    }

    /// Whether every entry's items ascend by rank — the order a run keeps,
    /// checked with each item's rank taken once (an entry of one item is
    /// not asked).
    pub fn ranked(&self) -> bool {
        let mut start = 0;
        self.ends.iter().all(|&end| {
            let entry = &self.items[start..end as usize];
            start = end as usize;
            entry.len() < 2 || entry.iter().map(Item::rank).is_sorted()
        })
    }

    /// Fold `batch` into the run — the one way a run changes. A key the
    /// run lacks enters with the batch's items; a key it has gets them
    /// merged into its own by rank, a stored item ahead of a new one of
    /// equal rank, so each entry still ascends by rank and ties stay in
    /// publication order. Each new item's place among the stored ones is
    /// galloped to from the previous one's. One forward pass over both
    /// runs writes the result into arrays reserved at their final size
    /// (exactly, for the items), moving every key and every item once; a
    /// batch into the empty run is taken as it is.
    pub fn merge(&mut self, mut batch: Self) {
        if self.is_empty() {
            *self = batch;
            self.shrink_to_fit();
            return;
        }
        // What is left of both runs once their items are taken out still
        // answers for their keys and counts.
        let mut old = std::mem::take(self);
        let mut old_items = std::mem::take(&mut old.items).into_iter();
        let mut new_items = std::mem::take(&mut batch.items).into_iter();
        let entries = old.len() + batch.len();
        self.bytes.reserve_exact(old.bytes.len() + batch.bytes.len());
        self.spans.reserve_exact(entries);
        self.ends.reserve_exact(entries);
        self.items.reserve_exact(old_items.len() + new_items.len());
        let mut at = 0;
        for j in 0..batch.len() {
            let key = batch.key(j);
            let before = at + gallop(&old.spans[at..], |s| old.view(*s) < key);
            for i in at..before {
                self.items.extend(old_items.by_ref().take(old.count(i)));
                self.push_key(old.key(i));
            }
            at = before;
            let mut stored = if old.key_at(at) == Some(key) { old.count(at) } else { 0 };
            at += usize::from(stored > 0);
            for item in new_items.by_ref().take(batch.count(j)) {
                let rank = item.rank();
                let ahead = gallop(&old_items.as_slice()[..stored], |o| o.rank() <= rank);
                self.items.extend(old_items.by_ref().take(ahead));
                stored -= ahead;
                self.items.push(item);
            }
            self.items.extend(old_items.by_ref().take(stored));
            self.push_key(key);
        }
        for i in at..old.len() {
            self.items.extend(old_items.by_ref().take(old.count(i)));
            self.push_key(old.key(i));
        }
    }

    /// The payload bytes of entries `entries`' items — what a reply of
    /// whole entries ships: the difference of two cumulative sums, the
    /// column built on the first call since the run last changed.
    ///
    /// # Panics
    /// Panics when `entries` runs past [`Self::len`].
    pub fn payload(&self, entries: Range<usize>) -> usize {
        let sums = self.sums.get_or_init(|| {
            let mut sums = Vec::with_capacity(self.len() + 1);
            sums.push(0);
            for i in 0..self.len() {
                let entry = &self.items[self.item_range(i..i + 1)];
                sums.push(sums[i] + entry.iter().map(Item::size_bytes).sum::<usize>());
            }
            sums
        });
        let bytes = sums[entries.end] - sums[entries.start];
        debug_assert_eq!(
            bytes,
            self.items[self.item_range(entries)].iter().map(Item::size_bytes).sum::<usize>()
        );
        bytes
    }

    /// Total payload bytes, for storage-overhead accounting.
    pub fn stored_bytes(&self) -> u64 {
        self.payload(0..self.len()) as u64
    }
}

/// A handle onto a partition's [`SortedStore`].
///
/// The network holds one per partition — the store of all its structural
/// replicas — and merges into the run in place (`Rc::make_mut` sees a
/// unique reference). A snapshot of the network holds one more clone per
/// partition; the first merge after it copies the run's arrays and goes on
/// from there.
#[derive(Debug)]
pub struct PartitionStore<T>(Rc<SortedStore<T>>);

impl<T> Default for PartitionStore<T> {
    fn default() -> Self {
        Self(Rc::default())
    }
}

/// Another handle onto the same run (what snapshots and forks hold).
impl<T> Clone for PartitionStore<T> {
    fn clone(&self) -> Self {
        Self(Rc::clone(&self.0))
    }
}

impl<T> PartitionStore<T> {
    /// Wrap a freshly-built run (snapshot decoding).
    pub fn from_store(store: SortedStore<T>) -> Self {
        Self(Rc::new(store))
    }

    /// True when both handles reference the same run (fork check).
    pub fn shares_with(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

impl<T: Item> PartitionStore<T> {
    /// Copy-on-write [`SortedStore::merge`]; in place when this is the
    /// only handle.
    pub fn merge(&mut self, batch: SortedStore<T>) {
        Rc::make_mut(&mut self.0).merge(batch);
    }
}

/// Items held where they lie ([`crate::Network::hold`]): a handle on their
/// run, which a merge copies before it writes, and their range in it.
#[derive(Debug, Clone)]
pub struct HeldRun<T> {
    pub store: PartitionStore<T>,
    pub items: Range<usize>,
}

impl<T> HeldRun<T> {
    pub fn items(&self) -> &[T] {
        &self.store.items()[self.items.clone()]
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

    /// A run of one entry per word, each holding the word.
    fn batch(words: &[&'static str]) -> SortedStore<S> {
        SortedStore::from_pairs(words.iter().map(|w| (hash_str(w), S(w))).collect())
    }

    /// One single-item merge per word, in the order given.
    fn merged(words: &[&'static str]) -> SortedStore<S> {
        let mut s = SortedStore::default();
        for w in words {
            s.merge(batch(&[w]));
        }
        s
    }

    fn store() -> SortedStore<S> {
        merged(&["alpha", "alpine", "beta", "alp", "gamma"])
    }

    fn names(items: &[S]) -> Vec<&'static str> {
        items.iter().map(|x| x.0).collect()
    }

    /// The layout invariant: the spans tile the key buffer in order, and
    /// the ends rise strictly to the item count, one per key.
    fn tiled(s: &SortedStore<S>) -> bool {
        let mut end = 0;
        let in_order = s.spans.iter().all(|span| {
            let fits = span.off == end;
            end += span.bits.div_ceil(8);
            fits
        });
        let rising = s.ends.iter().zip(std::iter::once(&0).chain(&s.ends)).all(|(e, b)| e > b);
        in_order
            && end as usize == s.bytes.len()
            && s.spans.len() == s.ends.len()
            && rising
            && s.ends.last().map_or(0, |e| *e as usize) == s.items.len()
    }

    /// The arrays of `words`' keys, one item each, in the order given.
    fn parts(words: &[&'static str]) -> (Vec<u8>, Vec<u32>, Vec<u32>, Vec<S>) {
        let keys: Vec<Key> = words.iter().map(|w| hash_str(w)).collect();
        let bytes = keys.iter().flat_map(|k| k.as_bytes().to_vec()).collect();
        let bits = keys.iter().map(|k| k.len() as u32).collect();
        (bytes, bits, (1..=words.len() as u32).collect(), words.iter().map(|w| S(w)).collect())
    }

    #[test]
    fn insert_keeps_the_run_sorted_and_prefix_scans_match() {
        let s = store();
        let hits = s.prefix_entries(&hash_str("alp"));
        assert_eq!(hits.entries, 3);
        assert_eq!(names(hits.items), vec!["alp", "alpha", "alpine"]);
        assert!(s.keys().zip(s.keys().skip(1)).all(|(a, b)| a < b));
        assert!(tiled(&s));
    }

    #[test]
    fn one_merge_equals_the_same_keys_merged_one_by_one() {
        // New keys in front of, between and behind the old ones, two of
        // them next to each other, and one the run holds already.
        let mut s = merged(&["beta", "delta", "gamma"]);
        s.merge(batch(&["alpha", "beta", "cat", "cow", "zeta"]));
        let one_by_one = merged(&["beta", "delta", "gamma", "alpha", "beta", "cat", "cow", "zeta"]);
        assert_eq!(names(s.items()), names(one_by_one.items()));
        assert_eq!(
            names(s.items()),
            ["alpha", "beta", "beta", "cat", "cow", "delta", "gamma", "zeta"]
        );
        assert_eq!(s.len(), 7);
        assert!(tiled(&s) && tiled(&one_by_one));
        let words: Vec<Key> = ["alpha", "beta", "cat", "cow", "delta", "gamma", "zeta"]
            .into_iter()
            .map(hash_str)
            .collect();
        assert!(s.keys().eq(words.iter().map(Key::as_ref)), "each key's bytes moved with it");
        assert_eq!(s.items.capacity(), s.item_count(), "the items were reserved exactly");
    }

    /// A batch is a run, so no merge ever sees one out of order: the one
    /// constructor from arrays refuses it with a real check — this test
    /// runs in CI's release step too — and the run it was meant for stays
    /// as it was.
    #[test]
    fn a_batch_that_does_not_ascend_strictly_is_refused_in_release_builds_too() {
        let s = merged(&["beta", "delta", "gamma"]);
        for words in [
            ["cat", "cat"],   // a new key twice
            ["cow", "cat"],   // new keys descending
            ["delta", "cat"], // a new key behind a stored one
            ["zeta", "beta"], // a stored key behind a new one
        ] {
            let (bytes, bits, ends, items) = parts(&words);
            assert!(SortedStore::from_parts(bytes, &bits, ends, items).is_none(), "{words:?}");
            assert!(tiled(&s) && s.len() == 3);
        }
    }

    #[test]
    fn a_run_from_sorted_entries_is_that_run_and_disorder_is_refused() {
        let s = store();
        let own = || (s.key_bytes().to_vec(), s.keys().map(|k| k.len() as u32).collect::<Vec<_>>());
        let (bytes, bits) = own();
        let copy = SortedStore::from_parts(bytes, &bits, s.ends().to_vec(), s.items().to_vec())
            .expect("a run's own arrays are a run");
        assert!(tiled(&copy));
        assert_eq!(format!("{copy:?}"), format!("{s:?}"));

        let refused = |bytes: Vec<u8>, bits: &[u32], ends: Vec<u32>, items: Vec<S>| {
            SortedStore::from_parts(bytes, bits, ends, items).is_none()
        };
        let mut words = ["alp", "alpha", "alpine", "beta", "gamma"];
        let (bytes, bits, ends, items) = parts(&words);
        assert!(!refused(bytes.clone(), &bits, ends.clone(), items.clone()), "well formed");
        words.reverse();
        let (rb, rbits, rends, ritems) = parts(&words);
        assert!(refused(rb, &rbits, rends, ritems), "descending");
        let (tb, tbits, tends, titems) = parts(&["alp", "alp"]);
        assert!(refused(tb, &tbits, tends, titems), "a key twice");
        assert!(
            refused(bytes.clone(), &bits, vec![1, 2, 2, 4, 5], items.clone()),
            "an empty entry"
        );
        assert!(refused(bytes.clone(), &bits, vec![1, 3, 2, 4, 5], items.clone()), "ends descend");
        assert!(
            refused(bytes.clone(), &bits, vec![0, 2, 3, 4, 5], items.clone()),
            "a first end of 0"
        );
        assert!(
            refused(bytes.clone(), &bits, vec![1, 2, 3, 4, 6], items.clone()),
            "past the items"
        );
        assert!(refused(bytes.clone(), &bits, ends[..4].to_vec(), items.clone()), "an end short");
        assert!(refused(bytes.clone(), &bits[..4], ends.clone(), items.clone()), "a key short");
        assert!(refused(bytes[1..].to_vec(), &bits, ends.clone(), items.clone()), "a byte short");
        assert!(
            refused([&bytes[..], &[0]].concat(), &bits, ends.clone(), items.clone()),
            "a byte over"
        );
        let three = Key::parse("101").as_bytes()[0];
        assert!(!refused(vec![three], &[3], vec![1], vec![S("x")]), "three bits");
        assert!(refused(vec![three | 1], &[3], vec![1], vec![S("x")]), "a padding bit");
        assert!(SortedStore::<S>::from_parts(Vec::new(), &[], Vec::new(), Vec::new())
            .expect("no entries")
            .is_empty());
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
            assert_eq!(hits.entries, want, "prefix {prefix:?}");
            assert_eq!(hits.items.len(), want, "one item per entry");
            assert!(names(hits.items).iter().all(|w| w.starts_with(prefix)));
        }
        assert_eq!(s.prefix_entries(&hash_str("zi")).entries, 1, "the last entry alone");
        assert_eq!(s.prefix_entries(&Key::empty()).entries, words.len(), "the whole run");
        assert!(SortedStore::<S>::default().prefix_entries(&hash_str("a")).is_empty());
    }

    #[test]
    fn range_is_inclusive_and_exact_finds_single_keys() {
        let s = store();
        let entries = s.range_entries(&hash_str("alpha"), &hash_str("beta"));
        assert_eq!(
            names(&s.items()[s.item_range(entries.clone())]),
            vec!["alpha", "alpine", "beta"]
        );
        assert_eq!(entries.len(), 3);
        assert_eq!(s.payload(entries), "alpha".len() + "alpine".len() + "beta".len());
        assert_eq!(s.exact_entry(&hash_str("beta")).unwrap().len(), 1);
        assert!(s.exact_entry(&hash_str("delta")).is_none());
    }

    #[test]
    fn same_key_items_keep_insertion_order() {
        let mut s = store();
        let beta = hash_str("beta");
        s.merge(SortedStore::from_pairs(vec![
            (beta.clone(), S("beta2")),
            (beta.clone(), S("beta3")),
        ]));
        assert_eq!(s.exact_entry(&beta).unwrap(), &[S("beta"), S("beta2"), S("beta3")]);
        assert_eq!(s.item_count(), 7);
        assert_eq!(s.prefix_entries(&hash_str("beta")).entries, 1, "one entry, three items");
        assert!(tiled(&s));
    }

    #[test]
    fn a_run_split_anywhere_merges_back_into_itself() {
        let s = merged(&["alp", "alpha", "alpine", "beta", "beta", "gamma"]);
        for at in 0..=s.len() {
            let mut head = s.clone();
            let tail = head.split_off(at);
            assert_eq!((head.len(), tail.len()), (at, s.len() - at));
            assert!(tiled(&head) && tiled(&tail), "split at {at}");
            head.merge(tail);
            assert_eq!(format!("{head:?}"), format!("{s:?}"), "split at {at}");
        }
    }

    #[test]
    fn partition_store_cow_preserves_shared_readers() {
        let mut a = PartitionStore::from_store(store());
        let b = a.clone();
        assert!(a.shares_with(&b));
        // A reader holding the old run is unaffected by the COW merge below.
        a.merge(batch(&["gamma"]));
        assert!(!a.shares_with(&b));
        assert_eq!(a.exact_entry(&hash_str("gamma")).unwrap().len(), 2);
        assert_eq!(b.exact_entry(&hash_str("gamma")).unwrap().len(), 1);
        assert_eq!((a.item_count(), b.item_count()), (6, 5));
    }

    #[test]
    fn stored_bytes_and_counts_match_the_seed_semantics() {
        let s = store();
        assert_eq!(s.len(), 5);
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
            p.merge(batch(&[w]));
        }
        p
    }

    #[test]
    fn prefix_scan_matches_extension_semantics() {
        let p = handle();
        let run = p.prefix_entries(&hash_str("alp"));
        assert_eq!(names(run.items), vec!["alp", "alpha", "alpine"]);
        assert_eq!(run.entries, 3);
    }

    #[test]
    fn exact_scan() {
        let p = handle();
        assert_eq!(p.exact_entry(&hash_str("beta")).unwrap(), [S("beta")]);
        assert!(p.exact_entry(&hash_str("delta")).is_none());
    }

    #[test]
    fn range_scan_inclusive() {
        let p = handle();
        let entries = p.range_entries(&hash_str("alpha"), &hash_str("beta"));
        assert_eq!(names(&p.items()[p.item_range(entries)]), vec!["alpha", "alpine", "beta"]);
    }

    #[test]
    fn multiple_items_same_key() {
        let mut p = handle();
        p.merge(batch(&["beta"]));
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
