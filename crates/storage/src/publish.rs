//! Publication pipeline: rows → triples → keyed index postings.
//!
//! §4: *"instead of inserting `key(Ai#vi) → (oid, Ai, vi)` one time, we
//! insert `key(Ai#q_ij) → (oid, Ai, q_ij)` for each q-gram of `vi`, and
//! `key(q_Aj) → (oid, q_Aj, vi)` for each q-gram of `Ai`. This increases
//! the storage overhead but enables efficient querying on q-grams."*
//!
//! The paper's §8 conclusion asserts the overhead is "negligible on modern
//! computers" and "linear in the number of attribute columns" — the
//! `storage_overhead` bench regenerates that accounting from
//! [`PublishStats`].
//!
//! A batch is published in two passes. The first sorts the batch's triples
//! by (attribute, value) — the order the `A#v` family stores them in — and
//! lays them out as one [`TripleSlab`]: what an attribute scan reads next
//! is what lies next. The second walks the rows in the order given and
//! emits each triple's postings, every posting a handle on the slab.
//!
//! **Group before you sort.** A batch has far fewer keys than postings —
//! 1 000 painting titles (corpus seed 2006) are 44 452 postings under
//! 6 348 keys — so the pipeline's product is a [`PostingBatch`]: the
//! batch's *distinct* keys, each made once, and its postings in generation
//! order, each with the id of its key; per key, how many postings it has
//! and the bytes they ship, counted as they are made, where the record is
//! at hand. A gram posting finds its span and its key's id in one hash
//! lookup by (attribute, the gram packed into one integer word), without a
//! key being built or its text compared; only a gram of over 7 bytes is
//! looked up by its text. Only the first posting of a gram under an
//! attribute misses; it takes the span from the [`GramInterner`], which
//! gives equal grams of the batch one span whatever their attribute or
//! level, and the id from the keys by bytes — two attribute names that
//! share their first 32 bytes truncate to the same key, and a batch must
//! not hold one key under two ids. Ordering a batch is then a sort of its
//! distinct keys by their first 16 bytes as one integer, whole only where
//! those tie ([`PostingBatch::key_order`]), and a counting pass that moves
//! every posting straight into its place in one key-ordered array
//! ([`PostingBatch::into_groups`]) — the batch becomes a run, as the
//! overlay stores it: no comparison ever looks at a posting. Per triple
//! nothing is allocated; per distinct key, its bytes.
//!
//! [`postings_for_rows`] is the same batch flattened — one cloned key per
//! posting — and, posting for posting, what publishing the triples one at a
//! time gives ([`postings_for_triple`] is a batch of one).

use crate::keys::{self, AttrPrefixes, ValueParts};
use crate::objects::UNNUMBERED;
use crate::posting::{rank_parts, wire_size, BaseKind, Posting, PostingKind};
use crate::slab::{GramInterner, GramSpan, SlabBuilder, TripleSlab};
use crate::triple::{Row, Triple, ValueRef};
use rustc_hash::{FxHashMap, FxHashSet};
use sqo_overlay::hash::order_bits_f64;
use sqo_overlay::key::Key;
use sqo_overlay::peer::Item;
use sqo_overlay::SortedStore;
use sqo_strsim::qgram::qgram_spans;
use std::cmp::Ordering;
use std::rc::Rc;

/// Indexing parameters.
#[derive(Debug, Clone)]
pub struct PublishConfig {
    /// q-gram length (the paper's experiments use small q; default 3).
    pub q: usize,
    /// Ship the complete value inside every instance-gram posting (§4's
    /// closing optimization suggestion): larger postings, but `Similar` can
    /// verify candidates before fetching any object.
    pub grams_carry_value: bool,
}

impl Default for PublishConfig {
    fn default() -> Self {
        Self { q: 3, grams_carry_value: false }
    }
}

/// Storage-overhead accounting for a publication batch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PublishStats {
    pub rows: usize,
    pub triples: usize,
    pub base_postings: usize,
    pub instance_gram_postings: usize,
    pub schema_gram_postings: usize,
    pub short_postings: usize,
    pub total_bytes: u64,
}

impl PublishStats {
    pub fn total_postings(&self) -> usize {
        self.base_postings
            + self.instance_gram_postings
            + self.schema_gram_postings
            + self.short_postings
    }

    /// Blow-up factor relative to storing each triple exactly once.
    pub fn overhead_factor(&self) -> f64 {
        if self.triples == 0 {
            return 0.0;
        }
        self.total_postings() as f64 / self.triples as f64
    }
}

/// A publication batch, grouped: its distinct keys, and its postings in
/// generation order, each with the id of its key (an index into the keys).
///
/// The keys are pairwise distinct *as bytes*, and ids are handed out at
/// first sight: the key of the posting generated first has id 0, and of two
/// keys the one with the smaller id was generated for first.
#[derive(Debug)]
pub struct PostingBatch {
    keys: Vec<Key>,
    entries: Vec<(u32, Posting)>,
    /// How many of `entries` each key has, by id.
    count: Vec<u32>,
    /// What those entries ship ([`Item::size_bytes`]), by id.
    payload: Vec<usize>,
}

impl PostingBatch {
    /// The distinct keys, by id.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The postings in generation order, each with its key's id.
    pub fn entries(&self) -> &[(u32, Posting)] {
        &self.entries
    }

    /// The bytes each key's postings ship, by id: the sum of their
    /// [`Item::size_bytes`], counted as they were made, less what
    /// [`Self::retain`] dropped.
    pub fn payload(&self) -> &[usize] {
        &self.payload
    }

    /// Drop the postings `keep` refuses; it is asked once per posting, in
    /// generation order, with the posting's key id and key. The keys stay.
    pub fn retain(&mut self, mut keep: impl FnMut(u32, &Key, &Posting) -> bool) {
        let Self { keys, entries, count, payload } = self;
        entries.retain(|(id, posting)| {
            let kept = keep(*id, &keys[*id as usize], posting);
            if !kept {
                count[*id as usize] -= 1;
                payload[*id as usize] -= posting.size_bytes();
            }
            kept
        });
    }

    /// The batch as (key, posting) pairs in generation order: a key per
    /// posting — the batch's own for the last posting under it, a clone for
    /// the others.
    pub fn flatten(self) -> Vec<(Key, Posting)> {
        let Self { mut keys, entries, count: mut left, .. } = self;
        entries
            .into_iter()
            .map(|(id, posting)| {
                let (key, left) = (&mut keys[id as usize], &mut left[id as usize]);
                *left -= 1;
                (if *left == 0 { std::mem::take(key) } else { key.clone() }, posting)
            })
            .collect()
    }

    /// The key ids in ascending order of their keys — the one comparison
    /// sort a batch needs, over its distinct keys. A key's first 16 bytes,
    /// zero-padded, are one big-endian `u128`, its head: keys are whole
    /// bytes, so of two keys whose heads differ the smaller head is the
    /// smaller key, and only keys whose heads tie are compared whole.
    pub fn key_order(&self) -> Vec<u32> {
        let head = |key: &Key| {
            let (bytes, mut head) = (key.as_bytes(), [0; 16]);
            let n = bytes.len().min(16);
            head[..n].copy_from_slice(&bytes[..n]);
            u128::from_be_bytes(head)
        };
        let heads: Vec<u128> = self.keys.iter().map(head).collect();
        let mut order: Vec<u32> = (0..self.keys.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            heads[a].cmp(&heads[b]).then_with(|| self.keys[a].cmp(&self.keys[b]))
        });
        order
    }

    /// The batch as the overlay stores it: a run of one entry per key that
    /// still has postings, keys ascending, the postings of a key in rank
    /// order ([`Posting`]'s `Item::rank`: a gram's by source length, then
    /// position), equal ranks in generation order. `order` is
    /// [`Self::key_order`] of this batch, taken before or after a
    /// [`Self::retain`]; a caller that has no use for the order itself takes
    /// [`Self::into_sorted_groups`]. A counting pass: each key's postings
    /// start where the keys before it end, and every posting moves once,
    /// straight into its place in the run's one posting array; a key whose
    /// postings did not arrive in rank order is then sorted, each rank
    /// taken once.
    ///
    /// # Panics
    /// If `order` leaves out the id of a key that has postings, or is not
    /// the ascending order of the keys.
    pub fn into_groups(self, order: &[u32]) -> SortedStore<Posting> {
        let Self { keys, entries, count, .. } = self;
        // A run counts its items in `u32`s, and so does `end` below.
        u32::try_from(entries.len()).expect("a batch stays under 2^32 postings");
        let (mut bytes, mut bits, mut ends) = (Vec::new(), Vec::new(), Vec::new());
        // Where the next posting of each key goes.
        let mut next = vec![0u32; keys.len()];
        let mut end = 0;
        for &id in order.iter().filter(|id| count[**id as usize] > 0) {
            let key = &keys[id as usize];
            bytes.extend_from_slice(key.as_bytes());
            bits.push(key.len() as u32);
            next[id as usize] = end;
            end += count[id as usize];
            ends.push(end);
        }
        let mut slots: Vec<Option<Posting>> = vec![None; entries.len()];
        for (id, posting) in entries {
            let at = &mut next[id as usize];
            slots[*at as usize] = Some(posting);
            *at += 1;
        }
        let mut scratch = RankScratch::default();
        let mut start = 0;
        for &end in &ends {
            let key = &mut slots[start..end as usize];
            start = end as usize;
            if key.len() > 1 {
                rank_order(key, &mut scratch);
            }
        }
        let postings = slots.into_iter().map(|p| p.expect("order names every key")).collect();
        SortedStore::from_parts(bytes, &bits, ends, postings).expect("`order` sorts the keys")
    }

    /// [`Self::into_groups`] in the batch's own [`Self::key_order`].
    pub fn into_sorted_groups(self) -> SortedStore<Posting> {
        let order = self.key_order();
        self.into_groups(&order)
    }
}

/// Put one key's postings into rank order, equal ranks in the order they
/// came. Each rank is taken once and packed with the posting's place into
/// one word; no two places are equal, so one unstable sort of the words is
/// stable by rank, and the postings then follow the words' places. A word
/// is a `u64` — source length and position in 16 bits each, the place in
/// 32 — while every rank of the key fits that, and a `u128` — the whole
/// rank above the place — once one does not: the narrow words sort
/// faster (`docs/PERFORMANCE.md`, the twelfth rule).
fn rank_order(key: &mut [Option<Posting>], scratch: &mut RankScratch) {
    let rank = |p: &Option<Posting>| p.as_ref().map_or(0, Item::rank);
    let mut wide = false;
    scratch.narrow.clear();
    scratch.narrow.extend(key.iter().zip(0u32..).map(|(p, at)| {
        let (len, pos) = rank_parts(rank(p));
        wide |= (len | pos) >> 16 != 0;
        u64::from(len) << 48 | u64::from(pos) << 32 | u64::from(at)
    }));
    if !wide {
        follow(key, &mut scratch.narrow, &mut scratch.taken);
    } else {
        let words =
            key.iter().zip(0u32..).map(|(p, at)| u128::from(rank(p)) << 32 | u128::from(at));
        scratch.wide.clear();
        scratch.wide.extend(words);
        follow(key, &mut scratch.wide, &mut scratch.taken);
    }
}

/// Sort `words` and move each posting of `key` to the place of its word,
/// whose low 32 bits name where the posting stands now.
fn follow<W: Ord + Copy + Into<u128>>(
    key: &mut [Option<Posting>],
    words: &mut [W],
    taken: &mut Vec<Option<Posting>>,
) {
    if words.is_sorted() {
        return;
    }
    words.sort_unstable();
    taken.clear();
    taken.extend(key.iter_mut().map(Option::take));
    for (slot, &word) in key.iter_mut().zip(words.iter()) {
        *slot = taken[word.into() as u32 as usize].take();
    }
}

/// What [`rank_order`] works in, reused from key to key.
#[derive(Default)]
struct RankScratch {
    narrow: Vec<u64>,
    wide: Vec<u128>,
    /// The key's postings, taken out while they are put back in order.
    taken: Vec<Option<Posting>>,
}

/// An id per distinct key of a batch being generated, handed out at first
/// sight, and each key's postings so far — how many, and the bytes they
/// ship: every lookup is for one posting.
#[derive(Default)]
struct KeyIds<'s> {
    /// Every key made so far, by its bytes: the authority on "same key".
    /// Every fragment of every family is whole bytes, so the bytes are the
    /// key.
    by_bytes: FxHashMap<Box<[u8]>, u32>,
    /// The gram postings so far, by (attribute id, or `None` at schema
    /// level; the gram as one word, [`packed`]): the gram's span and its
    /// key's id, in one lookup that builds no key and reads no text. It
    /// misses once per gram and attribute; then `spans` gives the span,
    /// which equal grams share across attributes and levels, and
    /// `by_bytes` the id. A gram too long to pack is looked up in `long`
    /// by its text.
    packed: FxHashMap<(Option<u32>, u64), (GramSpan, u32)>,
    long: FxHashMap<(Option<u32>, &'s str), (GramSpan, u32)>,
    spans: GramInterner<'s>,
    /// Postings per key, by id, and the bytes they ship.
    count: Vec<u32>,
    payload: Vec<usize>,
    /// Where a key is spelled out to be looked up.
    scratch: Vec<u8>,
}

/// A gram of at most 7 bytes as one word — its bytes from the low end up,
/// its length in the top byte, so equal words are equal grams — stirred by
/// an odd multiply and a rotation, both one-to-one: Fx hashing leaves the
/// low bits it indexes by to the word's low bits, which would be the
/// first byte or two of the gram alone.
fn packed(gram: &str) -> Option<u64> {
    let bytes = gram.as_bytes();
    (bytes.len() < 8).then(|| {
        let word = bytes.iter().rev().fold(0, |word, b| word << 8 | u64::from(*b));
        (word | (bytes.len() as u64) << 56).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32)
    })
}

impl<'s> KeyIds<'s> {
    /// Room for the keys of a batch of `triples` triples without a rehash
    /// on most batches: the three base keys of each.
    fn for_triples(triples: usize) -> Self {
        let mut ids = Self::default();
        ids.by_bytes.reserve(3 * triples);
        ids.count.reserve(3 * triples);
        ids.payload.reserve(3 * triples);
        ids
    }

    /// The id of the key made of `parts`, for one more posting under it,
    /// of `size` bytes.
    fn id(&mut self, parts: &[&[u8]], size: usize) -> u32 {
        self.scratch.clear();
        for part in parts {
            self.scratch.extend_from_slice(part);
        }
        let id = match self.by_bytes.get(self.scratch.as_slice()) {
            Some(id) => *id,
            None => {
                let id = u32::try_from(self.count.len()).expect("a batch stays under 2^32 keys");
                self.by_bytes.insert(self.scratch.as_slice().into(), id);
                self.count.push(0);
                self.payload.push(0);
                id
            }
        };
        self.count[id as usize] += 1;
        self.payload[id as usize] += size;
        id
    }

    /// The span of `gram` and the id of its key under `attr`, for one more
    /// posting under it, of `size` bytes: `locate` finds this occurrence of
    /// the gram if it is the batch's first, and `parts` spells the key if
    /// it is new.
    fn gram(
        &mut self,
        attr: Option<u32>,
        gram: &'s str,
        locate: impl FnOnce() -> Option<GramSpan>,
        parts: &[&[u8]],
        size: usize,
    ) -> (GramSpan, u32) {
        let word = packed(gram);
        let seen = match word {
            Some(word) => self.packed.get(&(attr, word)),
            None => self.long.get(&(attr, gram)),
        };
        if let Some(&(span, id)) = seen {
            self.count[id as usize] += 1;
            self.payload[id as usize] += size;
            return (span, id);
        }
        let span = self.spans.share(gram, locate).expect("a q-gram stays under 64 KiB");
        let id = self.id(parts, size);
        match word {
            Some(word) => self.packed.insert((attr, word), (span, id)),
            None => self.long.insert((attr, gram), (span, id)),
        };
        (span, id)
    }

    /// The batch of `entries`, whose keys these are.
    fn into_batch(self, entries: Vec<(u32, Posting)>) -> PostingBatch {
        let mut keys = vec![Key::empty(); self.count.len()];
        for (bytes, id) in self.by_bytes {
            let bits = bytes.len() * 8;
            keys[id as usize] = Key::from_raw_parts(bytes.into_vec(), bits);
        }
        PostingBatch { keys, entries, count: self.count, payload: self.payload }
    }
}

/// All (key, posting) pairs for one triple: a batch of one.
pub fn postings_for_triple(triple: &Triple, cfg: &PublishConfig) -> Vec<(Key, Posting)> {
    let mut entries = Vec::new();
    let slab = TripleSlab::of([triple]);
    let mut ids = KeyIds::for_triples(1);
    let under = AttrPrefixes::new(triple.attr.as_str());
    push_postings(&mut entries, &mut ids, &slab, 0, &under, cfg);
    ids.into_batch(entries).flatten()
}

/// Append the postings of triple `index` of `slab` to `out`, each with the
/// id `ids` has for its key — and, for a gram, the span `ids` has for it,
/// so equal grams of one batch are one span — taking the key prefixes of
/// its attribute from `under`. `ids` counts each posting and what it
/// ships under its key, read off the record here.
fn push_postings<'s>(
    out: &mut Vec<(u32, Posting)>,
    ids: &mut KeyIds<'s>,
    slab: &'s Rc<TripleSlab>,
    index: u32,
    under: &AttrPrefixes,
    cfg: &PublishConfig,
) {
    let tr = slab.triple(index);
    let value = tr.value();
    let mut push = |key: u32, posting: Posting| out.push((key, posting));
    // What a posting without a gram keeps inline, and what it ships (the
    // whole triple), read off the record here, once per triple.
    let (chars, attr, whole) = (tr.char_len(), tr.attr_id(), tr.repr_len());
    let plain = |kind| Posting::without_gram(kind, slab, index, chars, attr);

    // The three base insertions of §3.
    push(ids.id(&keys::oid_parts(tr.oid()), whole), plain(PostingKind::Base(BaseKind::Oid)));
    let v = ValueParts::of(value);
    let kind = PostingKind::Base(BaseKind::AttrValue);
    push(ids.id(&under.attr_value(&v), whole), plain(kind));
    push(ids.id(&keys::value_parts(&v), whole), plain(PostingKind::Base(BaseKind::Value)));

    // Instance-level grams for string values (§4).
    if let ValueRef::Str(s) = value {
        let mut spans = qgram_spans(s, cfg.q).peekable();
        if spans.peek().is_none() {
            // |v| < q: the gram index cannot see it; the short-value
            // family keeps similarity search complete.
            push(ids.id(&under.short_value(s), whole), plain(PostingKind::ShortValue));
        }
        let kind = PostingKind::InstanceGram { carries_value: cfg.grams_carry_value };
        for (bytes, pos) in spans {
            let gram = &s[bytes.clone()];
            let locate = || GramSpan::at(tr.value_offset(), bytes);
            let size = wire_size(tr, kind, gram.len());
            let (span, key) = ids.gram(Some(attr), gram, locate, &under.instance_gram(gram), size);
            push(key, Posting::with_gram(kind, slab, index, span, pos, chars));
        }
    }

    // Schema-level grams of the attribute name (§4).
    let (name, name_chars) = (tr.attr().as_str(), Some(tr.attr_char_len()));
    let mut spans = qgram_spans(name, cfg.q).peekable();
    if spans.peek().is_none() {
        push(ids.id(&keys::short_attr_parts(name), whole), plain(PostingKind::ShortAttr));
    }
    let kind = PostingKind::SchemaGram;
    for (bytes, pos) in spans {
        let gram = &name[bytes.clone()];
        let locate = || GramSpan::at(tr.attr_offset(), bytes);
        let size = wire_size(tr, kind, gram.len());
        let (span, key) = ids.gram(None, gram, locate, &keys::schema_gram_parts(gram), size);
        push(key, Posting::with_gram(kind, slab, index, span, pos, name_chars));
    }
}

/// The slab of a batch: its triples in (attribute, value) order — the
/// order the `A#v` family stores them in, so an attribute scan reads
/// records and text front to back — and, per triple in row order, its
/// index there. The sort is stable: equal pairs keep row order, as the
/// postings of one key do. Each row's object is numbered by `number`, in
/// row order.
fn slab_of_rows(rows: &[Row], mut number: impl FnMut(&str) -> u32) -> (Rc<TripleSlab>, Vec<u32>) {
    // Equal names become one `&str`, the first seen, so the sort compares
    // names in a few hot bytes instead of in every row's own allocation.
    let mut names: FxHashSet<&str> = FxHashSet::default();
    let triples: Vec<(&str, ValueRef<'_>, (&Row, u32))> = rows
        .iter()
        .flat_map(|row| {
            let row = (row, number(&row.oid));
            row.0.fields.iter().map(move |(attr, value)| (row, attr, value))
        })
        .map(|(row, attr, value)| {
            let name = match names.get(attr.as_str()) {
                Some(name) => *name,
                None => {
                    names.insert(attr.as_str());
                    attr.as_str()
                }
            };
            (name, value.as_ref(), row)
        })
        .collect();
    let count = u32::try_from(triples.len()).expect("a batch stays under 2^32 triples");
    let mut order: Vec<u32> = (0..count).collect();
    order.sort_by(|&a, &b| {
        let ((name_a, value_a, _), (name_b, value_b, _)) =
            (triples[a as usize], triples[b as usize]);
        name_a.cmp(name_b).then_with(|| key_order(value_a, value_b))
    });

    let (value_bytes, oid_bytes) = triples.iter().fold((0, 0), |(v, o), (_, value, (row, _))| {
        (v + value.as_str().map_or(0, str::len), o + row.oid.len())
    });
    let mut slab = SlabBuilder::with_capacity(triples.len(), value_bytes, oid_bytes);
    let mut index_of = vec![0; triples.len()];
    for at in order {
        let (name, value, (row, object)) = triples[at as usize];
        index_of[at as usize] =
            slab.push(&row.oid, name, value, object).expect("a batch stays under 4 GiB of text");
    }
    (slab.finish().expect("a batch stays under 4 GiB of text"), index_of)
}

/// The order of the value fragments of the keys: ints, floats, strings,
/// each domain in its own order.
fn key_order(a: ValueRef<'_>, b: ValueRef<'_>) -> Ordering {
    let domain = |v: ValueRef<'_>| match v {
        ValueRef::Int(_) => 0,
        ValueRef::Float(_) => 1,
        ValueRef::Str(_) => 2,
    };
    match (a, b) {
        (ValueRef::Int(a), ValueRef::Int(b)) => a.cmp(&b),
        (ValueRef::Float(a), ValueRef::Float(b)) => order_bits_f64(a).cmp(&order_bits_f64(b)),
        (ValueRef::Str(a), ValueRef::Str(b)) => a.cmp(b),
        _ => domain(a).cmp(&domain(b)),
    }
}

/// The grouped batch of `rows`, with accounting. The batch's triples are
/// one slab, which every posting holds a handle on; per triple the pipeline
/// allocates nothing, per distinct key its bytes. `number` numbers each
/// row's object ([`crate::objects`]): an engine's interner, or
/// `|_| UNNUMBERED` for a batch no engine publishes.
pub fn batch_for_rows(
    rows: &[Row],
    cfg: &PublishConfig,
    number: impl FnMut(&str) -> u32,
) -> (PostingBatch, PublishStats) {
    let mut stats = PublishStats { rows: rows.len(), ..Default::default() };
    let (slab, index_of) = slab_of_rows(rows, number);
    let prefixes: Vec<AttrPrefixes> = slab.names().map(|n| AttrPrefixes::new(n.as_str())).collect();
    let mut ids = KeyIds::for_triples(slab.len());
    // Typical fan-out: 3 base + ~len grams per string triple.
    let mut entries = Vec::with_capacity(rows.len() * 8);
    for index in index_of {
        stats.triples += 1;
        let under = &prefixes[slab.triple(index).attr_id() as usize];
        let first = entries.len();
        push_postings(&mut entries, &mut ids, &slab, index, under, cfg);
        for (_, posting) in &entries[first..] {
            match posting.kind() {
                PostingKind::Base(_) => stats.base_postings += 1,
                PostingKind::InstanceGram { .. } => stats.instance_gram_postings += 1,
                PostingKind::SchemaGram => stats.schema_gram_postings += 1,
                PostingKind::ShortValue | PostingKind::ShortAttr => stats.short_postings += 1,
            }
        }
    }
    stats.total_bytes = ids.payload.iter().sum::<usize>() as u64;
    (ids.into_batch(entries), stats)
}

/// Postings for a batch of rows as (key, posting) pairs in generation
/// order, with accounting: [`batch_for_rows`], flattened — a cloned key per
/// posting. A caller that wants the accounting, or groups, takes
/// [`batch_for_rows`]; the flat pairs serve tests and the `benchmark/`
/// package (its `storage.postings_s` span, its ingest and churn set-up),
/// the one non-test caller left, which a change that claims a speed-up
/// may not edit.
pub fn postings_for_rows(rows: &[Row], cfg: &PublishConfig) -> (Vec<(Key, Posting)>, PublishStats) {
    let (batch, stats) = batch_for_rows(rows, cfg, |_| UNNUMBERED);
    (batch.flatten(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Value;

    fn cfg() -> PublishConfig {
        PublishConfig::default()
    }

    fn count(ps: &[(Key, Posting)], of: fn(PostingKind) -> bool) -> usize {
        ps.iter().filter(|(_, p)| of(p.kind())).count()
    }

    const BASE: fn(PostingKind) -> bool = |k| matches!(k, PostingKind::Base(_));
    const INSTANCE_GRAM: fn(PostingKind) -> bool =
        |k| matches!(k, PostingKind::InstanceGram { .. });
    const SCHEMA_GRAM: fn(PostingKind) -> bool = |k| k == PostingKind::SchemaGram;
    const SHORT_VALUE: fn(PostingKind) -> bool = |k| k == PostingKind::ShortValue;
    const SHORT_ATTR: fn(PostingKind) -> bool = |k| k == PostingKind::ShortAttr;

    #[test]
    fn string_triple_posting_inventory() {
        let t = Triple::new("car:1", "name", "bmw320");
        let ps = postings_for_triple(&t, &cfg());
        assert_eq!(count(&ps, BASE), 3, "the three §3 insertions");
        assert_eq!(count(&ps, INSTANCE_GRAM), "bmw320".len() - 3 + 1, "one per value q-gram");
        assert_eq!(count(&ps, SCHEMA_GRAM), "name".len() - 3 + 1, "one per attr-name q-gram");
    }

    #[test]
    fn numeric_triple_has_no_instance_grams() {
        let t = Triple::new("car:1", "horsepower", 190);
        let ps = postings_for_triple(&t, &cfg());
        assert_eq!(count(&ps, INSTANCE_GRAM) + count(&ps, SHORT_VALUE), 0);
        // Schema grams still exist: attribute names are strings.
        assert!(count(&ps, SCHEMA_GRAM) > 0);
    }

    #[test]
    fn short_value_goes_to_side_family() {
        let t = Triple::new("o", "name", "ab"); // |v| = 2 < q = 3
        let ps = postings_for_triple(&t, &cfg());
        assert_eq!((count(&ps, SHORT_VALUE), count(&ps, INSTANCE_GRAM)), (1, 0));
    }

    #[test]
    fn short_attr_goes_to_side_family() {
        let t = Triple::new("o", "hp", 10); // |A| = 2 < q = 3
        let ps = postings_for_triple(&t, &cfg());
        assert_eq!((count(&ps, SHORT_ATTR), count(&ps, SCHEMA_GRAM)), (1, 0));
    }

    #[test]
    fn batch_stats_add_up() {
        let rows = vec![
            Row::new("car:1", [("name", Value::from("bmw")), ("hp", Value::from(190))]),
            Row::new("car:2", [("name", Value::from("audi a4"))]),
        ];
        let (ps, stats) = postings_for_rows(&rows, &cfg());
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.triples, 3);
        assert_eq!(stats.total_postings(), ps.len());
        assert!(stats.overhead_factor() > 3.0, "grams must add overhead");
        assert_eq!(stats.total_bytes, ps.iter().map(|(_, p)| p.size_bytes() as u64).sum::<u64>());
    }

    #[test]
    fn overhead_is_linear_in_attribute_count() {
        // The §8 claim: postings grow linearly with the number of columns.
        let mk = |n: usize| {
            let fields: Vec<(String, Value)> =
                (0..n).map(|i| (format!("attr{i:02}"), Value::from("valstring"))).collect();
            let rows = vec![Row::new("o", fields)];
            postings_for_rows(&rows, &cfg()).1.total_postings()
        };
        let p2 = mk(2);
        let p4 = mk(4);
        let p8 = mk(8);
        assert_eq!(p4 - p2, (p8 - p4) / 2, "per-column posting count is constant");
    }

    /// Two gram postings of a batch have one span exactly when they carry
    /// one gram — which `Posting::same_gram`'s fast path and the
    /// snapshot's gram table rely on — at instance and schema level, for a
    /// gram under two attributes and at both levels, and for non-ASCII
    /// grams.
    #[test]
    fn a_batch_has_one_span_per_distinct_gram() {
        let rows = vec![
            Row::new("o:1", [("name", Value::from("named")), ("title", Value::from("entitled"))]),
            Row::new("o:2", [("title", Value::from("name")), ("名前", Value::from("名前は名前"))]),
            Row::new("o:3", [("名前", Value::from("title")), ("name", Value::from("née 名前"))]),
        ];
        for q in 1..4 {
            let (batch, _) = batch_for_rows(&rows, &PublishConfig { q, ..cfg() }, |_| UNNUMBERED);
            let grams = batch.entries().iter().map(|(_, p)| p).filter(|p| p.kind().has_gram());
            let mut span_of: FxHashMap<&str, GramSpan> = FxHashMap::default();
            let mut text_of: FxHashMap<GramSpan, &str> = FxHashMap::default();
            // Per gram text: the attributes it is an instance gram under,
            // and whether it is a schema gram too.
            let mut seen: FxHashMap<&str, (FxHashSet<u32>, bool)> = FxHashMap::default();
            for p in grams {
                let (text, span) = (p.gram(), p.gram_span());
                assert_eq!(*span_of.entry(text).or_insert(span), span, "{text:?}, q = {q}");
                assert_eq!(*text_of.entry(span).or_insert(text), text, "q = {q}");
                let (attrs, schema) = seen.entry(text).or_default();
                match p.kind() {
                    PostingKind::SchemaGram => *schema = true,
                    _ => _ = attrs.insert(p.attr_id()),
                }
            }
            // The cases asked for are there.
            let shared = |text: &str| seen.get(text).map(|(attrs, schema)| (attrs.len(), *schema));
            for text in [&"name"[..q], &"title"[5 - q..]] {
                assert!(shared(text).is_some_and(|(attrs, schema)| attrs >= 2 && schema), "{text}");
            }
            // "名前" is a schema gram only while it is no shorter than q.
            let jp: String = "名前は".chars().take(q).collect();
            let both = |(attrs, schema)| attrs >= 1 && schema == (q <= 2);
            assert!(shared(&jp).is_some_and(both), "{jp}");
        }
    }

    /// A key's postings leave `into_groups` in rank order, ties in
    /// generation order — what a stable sort of the flat batch by (key,
    /// rank) gives — for short keys, long keys, keys whose every rank ties,
    /// and a key one of whose sources is longer than 64 Ki chars.
    #[test]
    fn every_key_leaves_in_rank_order_whatever_its_size() {
        let value = |i: usize| format!("{}abc{}", "x".repeat(i % 17), "y".repeat(i * 7 % 13));
        for (n, long) in [(20, false), (300, false), (300, true)] {
            let mut rows: Vec<Row> = (0..n)
                .map(|i| Row::new(format!("o:{i}"), [("name", Value::from(value(i)))]))
                .collect();
            if long {
                let source = format!("{}abc", "z".repeat(70_000));
                rows.push(Row::new("o:long", [("name", Value::from(source))]));
            }
            let (batch, _) = batch_for_rows(&rows, &cfg(), |_| UNNUMBERED);
            let mut flat = batch_for_rows(&rows, &cfg(), |_| UNNUMBERED).0.flatten();
            flat.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.rank().cmp(&b.1.rank())));
            let run = batch.into_sorted_groups();
            let grouped: Vec<(Key, Posting)> = run
                .iter()
                .flat_map(|(k, items)| items.iter().map(move |p| (k.to_key(), p.clone())))
                .collect();
            assert!(grouped == flat, "{n} rows, a long source: {long}");
            let abc = keys::instance_gram_key("name", "abc");
            let list = run.exact_entry(&abc).expect("the shared gram's key");
            assert_eq!(list.len(), n + usize::from(long));
            assert!(list.windows(2).any(|w| w[0].triple_id().1 > w[1].triple_id().1), "reordered");
        }
    }

    /// A gram packs into one word while it has at most 7 bytes, and two
    /// grams pack alike only when they are equal: a gram and the same gram
    /// with NUL bytes after it differ by their length byte.
    #[test]
    fn a_packed_word_is_one_gram() {
        let grams = [
            "", "\0", "\0\0", "a", "a\0", "a\0\0", "\0a", "ab", "abcdefg", "abcdef\0", "é", "é\0",
            "日",
        ];
        for (i, a) in grams.iter().enumerate() {
            assert!(packed(a).is_some(), "{a:?}");
            for b in &grams[..i] {
                assert_ne!(packed(a), packed(b), "{a:?} and {b:?}");
            }
        }
        assert_eq!(packed("abcdefgh"), None);
        assert_eq!(packed("日本語"), None);
    }
}
