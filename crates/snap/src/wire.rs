//! The snapshot wire format: a hand-rolled little-endian binary codec.
//!
//! The snapshot artifact has its own explicit codec, apart from the
//! workspace's JSON writer (`sqo_obs::to_json`): every byte of the artifact
//! is written by this file, the layout is stable under refactors of the
//! source structs, and the version envelope (`MAGIC` +
//! [`SCHEMA_VERSION`](crate::SCHEMA_VERSION)) is checked before a single
//! field is decoded.
//!
//! Each layout is stated **once**, as an implementation of [`Wire`]: `put`
//! appends a value, `get` reads it back. Primitives and containers are
//! implemented once each; a plain record is one field list given to
//! `record!`, which derives both halves from it (and runs the record's own
//! check after decoding, where it names one). Only the records whose
//! decoding goes through a check between fields keep a hand-written `get`
//! beside their `put`: the network image ([`NetworkState::new`]), a run
//! ([`SortedStore::from_parts`]), a posting (against the triple table), the
//! driver's queue, run state and checkpoint (sequence numbers, clock, clients,
//! operator labels) and every enum tag.
//!
//! Layout conventions:
//!
//! * all integers little-endian; `usize` travels as `u64`,
//! * `f64` travels as its IEEE-754 bit pattern (`to_bits`), so restored
//!   floats are bit-identical,
//! * sequences are a `u64` length followed by the elements (bytes and
//!   strings: the raw bytes),
//! * options are a `u8` tag (0 = none, 1 = some),
//! * enums are a `u8` discriminant followed by the variant's fields,
//! * records and tuples are their fields in order, with nothing between.
//!
//! Triples are numbered: in the live engine a triple is a record of its
//! batch's [`TripleSlab`], which backs its base posting and every gram
//! posting cut from it, and the codec writes each stored triple once, in
//! the order the walk of the runs first meets it, into a table up front
//! ([`Enc::triples`]). Postings reference the table by index. The decoder
//! builds **one slab** straight from that table ([`Dec::triples`]) and
//! every decoded posting is a handle on it, so a restored world allocates
//! nothing per triple. Names are spelled out per triple and gram texts per
//! posting; the slab holds each name once, and a gram is found where it
//! lies in its value (or name) and becomes a span of the slab's text — how
//! `postings_for_rows` lays out a built world.
//!
//! The stores are written run by run, each as the arrays it is: its keys'
//! packed bytes, their bit lengths, their end offsets and its postings.
//! The decoder hands each run's arrays to [`SortedStore::from_parts`], the
//! one constructor that checks them, so a run that decodes is a run.

use crate::{SnapError, Snapshot, WorldState};
use rand::rngs::StdRng;
use rustc_hash::FxHashMap;
use sqo_cache::{
    BrokerConfig, BrokerCounters, BrokerState, ChannelPoolState, LruEntryState, LruState,
    PartitionChannel, SketchState,
};
use sqo_core::QueryStats;
use sqo_obs::LogHistogram;
use sqo_overlay::{
    Item, Key, KeyRef, Metrics, NetworkConfig, NetworkState, PartitionStore, PeerId, RoutingArena,
    SimLatency, SortedStore, Topology,
};
use sqo_sim::driver::{DriverCheckpoint, EvSnap, RepairTotals, RunState};
use sqo_sim::netsim::Blame;
use sqo_sim::scale::{Ev, EvKind, QState, ScaleCheckpoint};
use sqo_sim::{NetSimState, QueryKind, QueueState};
use sqo_storage::keys::one_gram_entry;
use sqo_storage::{
    BaseKind, GramInterner, Objects, Posting, PostingKind, PublishStats, SlabBuilder, TripleRef,
    TripleSlab, ValueRef,
};
use std::rc::Rc;

type R<T> = Result<T, SnapError>;

/// A value's wire layout: `put` appends it, `get` reads it back. `'a` is
/// the input a decoded value may borrow from (a string, a key's bytes).
pub trait Wire<'a>: Sized {
    fn put(&self, e: &mut Enc<'_>);
    fn get(d: &mut Dec<'a>) -> R<Self>;

    /// A sequence of values: its length, then each. `u8` overrides the
    /// pair to copy its bytes at once.
    fn put_seq(items: &[Self], e: &mut Enc<'_>) {
        items.len().put(e);
        items.iter().for_each(|it| it.put(e));
    }
    fn get_seq(d: &mut Dec<'a>) -> R<Vec<Self>> {
        d.seq(Self::get)
    }
}

// ---------------------------------------------------------------------
// Encoder and decoder
// ---------------------------------------------------------------------

/// Append-only encoder over a byte buffer.
#[derive(Default)]
pub struct Enc<'t> {
    pub buf: Vec<u8>,
    /// The artifact's triple table: a posting is written as its index.
    triples: TripleTable<'t>,
}

impl<'t> Enc<'t> {
    pub fn put<'a>(&mut self, v: &impl Wire<'a>) {
        v.put(self);
    }

    /// A slice as a sequence, the layout of a `Vec` of its elements.
    pub fn seq<'a, T: Wire<'a>>(&mut self, items: &[T]) {
        T::put_seq(items, self);
    }

    /// Write the triple table; every posting written after it refers to
    /// its triple by its index in `table`.
    pub fn triples(&mut self, table: TripleTable<'t>) {
        self.put(&table.order.len());
        for t in &table.order {
            let triple: WireTriple = (t.oid(), t.attr().as_str(), t.value());
            self.put(&triple);
        }
        self.triples = table;
    }
}

/// Cursor-style decoder; every read is bounds-checked and returns a
/// [`SnapError`] instead of panicking on truncated or corrupt input.
pub struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
    /// The decoded triple table (empty until [`Dec::triples`] reads one):
    /// every decoded posting is a handle on its slab.
    slab: Rc<TripleSlab>,
    /// The numbers of the slab's objects, by first sight in the table.
    objects: Objects,
    /// One span of the slab's text per distinct gram met so far.
    grams: GramInterner<'a>,
}

impl<'a> Dec<'a> {
    pub fn new(b: &'a [u8]) -> Self {
        let (slab, objects, grams) =
            (TripleSlab::of([]), Objects::default(), GramInterner::default());
        Dec { b, pos: 0, slab, objects, grams }
    }
    pub fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub fn get<T: Wire<'a>>(&mut self) -> R<T> {
        T::get(self)
    }
    /// Sequence length with a sanity bound: a sequence of `len` elements
    /// needs at least `len` bytes of input, so a corrupt length can never
    /// trigger a huge allocation.
    fn seq_len(&mut self) -> R<usize> {
        let n: usize = self.get()?;
        if n > self.remaining() {
            return Err(SnapError::Corrupt("sequence length exceeds input"));
        }
        Ok(n)
    }
    /// A sequence whose elements `f` reads (and checks) one by one.
    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> R<T>) -> R<Vec<T>> {
        let n = self.seq_len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(f(self)?);
        }
        Ok(v)
    }

    /// Read the triple table [`Enc::triples`] wrote into one slab, which
    /// every posting decoded afterwards is checked against and refers to.
    /// Its objects are numbered by first sight in the table: the numbers
    /// travel in no record.
    pub fn triples(&mut self) -> R<()> {
        const FULL: SnapError = SnapError::Corrupt("triple table exceeds 4 GiB of text");
        let n = self.seq_len()?;
        let mut slab = SlabBuilder::with_capacity(n, 0, 0);
        let mut last = ("", 0);
        for _ in 0..n {
            let (oid, attr, value): WireTriple = self.get()?;
            if oid != last.0 {
                last = (oid, self.objects.number(oid));
            }
            slab.push(oid, attr, value, last.1).map_err(|_| FULL)?;
        }
        self.slab = slab.finish().map_err(|_| FULL)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Primitives and containers
// ---------------------------------------------------------------------

macro_rules! little_endian {
    ($($t:ty),+) => {$(
        impl<'a> Wire<'a> for $t {
            fn put(&self, e: &mut Enc<'_>) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(d: &mut Dec<'a>) -> R<Self> {
                let bytes = d.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized by the take")))
            }
        }
    )+};
}

little_endian!(u32, u64, i64);

impl<'a> Wire<'a> for u8 {
    fn put(&self, e: &mut Enc<'_>) {
        e.buf.push(*self);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        Ok(d.take(1)?[0])
    }
    fn put_seq(items: &[u8], e: &mut Enc<'_>) {
        items.len().put(e);
        e.buf.extend_from_slice(items);
    }
    fn get_seq(d: &mut Dec<'a>) -> R<Vec<u8>> {
        <&[u8]>::get(d).map(<[u8]>::to_vec)
    }
}

/// Bytes where they lie in the input.
impl<'a> Wire<'a> for &'a [u8] {
    fn put(&self, e: &mut Enc<'_>) {
        u8::put_seq(self, e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        let n = d.get()?;
        d.take(n)
    }
}

impl<'a> Wire<'a> for usize {
    fn put(&self, e: &mut Enc<'_>) {
        (*self as u64).put(e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        usize::try_from(u64::get(d)?).map_err(|_| SnapError::Corrupt("usize overflow"))
    }
}

impl<'a> Wire<'a> for f64 {
    fn put(&self, e: &mut Enc<'_>) {
        self.to_bits().put(e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        u64::get(d).map(f64::from_bits)
    }
}

impl<'a> Wire<'a> for bool {
    fn put(&self, e: &mut Enc<'_>) {
        (*self as u8).put(e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        match u8::get(d)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool tag out of range")),
        }
    }
}

impl<'a> Wire<'a> for &'a str {
    fn put(&self, e: &mut Enc<'_>) {
        self.as_bytes().put(e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        std::str::from_utf8(d.get()?).map_err(|_| SnapError::Corrupt("invalid utf-8"))
    }
}

impl<'a> Wire<'a> for String {
    fn put(&self, e: &mut Enc<'_>) {
        self.as_str().put(e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        <&str>::get(d).map(str::to_string)
    }
}

impl<'a, T: Wire<'a>> Wire<'a> for Vec<T> {
    fn put(&self, e: &mut Enc<'_>) {
        T::put_seq(self, e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        T::get_seq(d)
    }
}

impl<'a, T: Wire<'a>> Wire<'a> for Option<T> {
    fn put(&self, e: &mut Enc<'_>) {
        match self {
            None => 0u8.put(e),
            Some(x) => {
                1u8.put(e);
                x.put(e);
            }
        }
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        match u8::get(d)? {
            0 => Ok(None),
            1 => Ok(Some(d.get()?)),
            _ => Err(SnapError::Corrupt("option tag out of range")),
        }
    }
}

impl<'a, T: Wire<'a> + Copy + Default, const N: usize> Wire<'a> for [T; N] {
    fn put(&self, e: &mut Enc<'_>) {
        self.iter().for_each(|x| x.put(e));
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        let mut out = [T::default(); N];
        for x in &mut out {
            *x = d.get()?;
        }
        Ok(out)
    }
}

macro_rules! tuple {
    ($($t:ident),+) => {
        impl<'a, $($t: Wire<'a>),+> Wire<'a> for ($($t,)+) {
            #[allow(non_snake_case)]
            fn put(&self, e: &mut Enc<'_>) {
                let ($($t,)+) = self;
                $($t.put(e);)+
            }
            fn get(d: &mut Dec<'a>) -> R<Self> {
                Ok(($(d.get::<$t>()?,)+))
            }
        }
    };
}

tuple!(A, B);
tuple!(A, B, C);
tuple!(A, B, C, D);
tuple!(A, B, C, D, E);

// ---------------------------------------------------------------------
// Records: one field list each
// ---------------------------------------------------------------------

/// `record!(Type { field, … } [check path];)` writes a record as its fields
/// in the order listed and reads them back in that order; a named check
/// (`fn(&Type) -> Result<(), &'static str>`) runs on the decoded record.
macro_rules! record {
    ($($ty:ty { $($field:ident),+ $(,)? } $(check $check:path)?;)+) => {$(
        impl<'a> Wire<'a> for $ty {
            fn put(&self, e: &mut Enc<'_>) {
                $(self.$field.put(e);)+
            }
            fn get(d: &mut Dec<'a>) -> R<Self> {
                let record = Self { $($field: d.get()?,)+ };
                $($check(&record).map_err(SnapError::Corrupt)?;)?
                Ok(record)
            }
        }
    )+};
}

/// A world's objects travel in no record: the decoder numbered its records
/// by first sight in the triple table, and their spots are placed on the
/// decoded runs.
impl<'a> Wire<'a> for WorldState {
    fn put(&self, e: &mut Enc<'_>) {
        self.net.put(e);
        self.publish.put(e);
        self.edit_comparisons.put(e);
        self.broker.put(e);
    }

    fn get(d: &mut Dec<'a>) -> R<Self> {
        let net: NetworkState<Posting> = d.get()?;
        let (publish, edit_comparisons, broker) = (d.get()?, d.get()?, d.get()?);
        let mut objects = std::mem::take(&mut d.objects);
        objects.place_all(net.topology().paths(), net.stores().iter().map(|s| &**s));
        Ok(WorldState { net, publish, edit_comparisons, broker, objects: Rc::new(objects) })
    }
}

type CacheEntry = LruEntryState<(PeerId, Key), Vec<Posting>>;
type Cache = LruState<(PeerId, Key), Vec<Posting>>;

record! {
    Snapshot { world, driver, scale };
    PublishStats {
        rows, triples, base_postings, instance_gram_postings, schema_gram_postings,
        short_postings, total_bytes,
    };
    NetworkConfig { peers, replication, refs_per_level, msg_header_bytes, seed };
    RoutingArena { refs, slice_off, peer_off };
    Metrics {
        messages, bytes, route_hops, forward_msgs, result_msgs, result_bytes, failed_routes,
        local_items_scanned,
    };
    SimLatency {
        start_us, end_us, elapsed_us, net_us, queue_us, service_us, timed_messages,
        retransmissions, crit_net_us, crit_queue_us, crit_service_us, crit_stall_us,
    };
    BrokerState { cfg, counters, cache, channels };
    BrokerConfig { cache, cache_capacity, cache_ttl_us, admission, batch, batch_window_us };
    BrokerCounters {
        cache_hits, cache_misses, probes_coalesced, channels_opened, admission_rejects,
        messages_saved,
    };
    Cache { capacity, ttl_us, tick, rejected, entries, sketch } check Cache::check;
    CacheEntry { key, value, epoch, inserted_us, last_used } check ranked_if_one_entry;
    SketchState { table, slots, doorkeeper, recorded, reset_at };
    ChannelPoolState { window_us, channels };
    PartitionChannel { owner, opened_us, route_hops, epoch };
    QueryStats {
        traffic, sim, probes, candidates, edit_comparisons, matches, rounds, cache_hits,
        cache_misses, probes_coalesced, join_window_peak, join_window_shrinks,
        partitions_addressed, partitions_answered, retries, gave_up,
    };
    RepairTotals { passes, recruited, bytes_copied, lost_partitions, unfilled_deficits };
    NetSimState { rng, frontier_us, busy_until_us, blame };
    Blame { net_us, queue_us, service_us, stall_us };
    ScaleCheckpoint { stop_us, pending, busy, qstate, events };
    Ev { at_us, qid, step, peer, kind };
    QState { expected, got, done_us };
}

/// A cached list is a scan's reply, which a probe filters by bisection when
/// it is one gram key's ([`one_gram_entry`]): such a list must ascend by
/// rank, as the run it was copied from did, or a probe served from it could
/// miss survivors.
fn ranked_if_one_entry(entry: &CacheEntry) -> Result<(), &'static str> {
    let list = &entry.value;
    if one_gram_entry(list) && !list.iter().map(Item::rank).is_sorted() {
        return Err("a cached gram list does not ascend by rank");
    }
    Ok(())
}

impl<'a> Wire<'a> for PeerId {
    fn put(&self, e: &mut Enc<'_>) {
        self.0.put(e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        u32::get(d).map(PeerId)
    }
}

/// A key where it lies in the input: its bytes, then its bit length.
impl<'a> Wire<'a> for KeyRef<'a> {
    fn put(&self, e: &mut Enc<'_>) {
        self.as_bytes().put(e);
        self.len().put(e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        let bytes = d.get()?;
        KeyRef::new(bytes, d.get()?)
            .ok_or(SnapError::Corrupt("key bytes do not match bit length, or padding bits are set"))
    }
}

impl<'a> Wire<'a> for Key {
    fn put(&self, e: &mut Enc<'_>) {
        self.as_ref().put(e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        KeyRef::get(d).map(KeyRef::to_key)
    }
}

impl<'a> Wire<'a> for StdRng {
    fn put(&self, e: &mut Enc<'_>) {
        self.state_words().put(e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        // Xoshiro cannot leave the all-zero state, and
        // `StdRng::from_state_words` refuses it.
        match d.get::<[u64; 4]>()? {
            [0, 0, 0, 0] => Err(SnapError::Corrupt("an RNG state is all zero")),
            words => Ok(StdRng::from_state_words(words)),
        }
    }
}

/// `(count, sum, min, max, (bucket, count) pairs)` — see
/// [`LogHistogram::export_parts`].
impl<'a> Wire<'a> for LogHistogram {
    fn put(&self, e: &mut Enc<'_>) {
        self.export_parts().put(e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        let (count, sum, min, max, buckets) = d.get()?;
        Ok(LogHistogram::from_parts(count, sum, min, max, buckets))
    }
}

// ---------------------------------------------------------------------
// Triples and postings
// ---------------------------------------------------------------------

/// Encode-side triple table: the distinct stored triples of the world
/// being written, in discovery order. A stored triple is a record of a
/// slab, so "met before" is a look into that slab's array of wire indices.
/// The table borrows the slabs — the snapshot outlives its encoding.
#[derive(Default)]
pub struct TripleTable<'a> {
    order: Vec<TripleRef<'a>>,
    /// Per slab met: the wire index of each record, `u32::MAX` until met.
    remap: FxHashMap<*const TripleSlab, Vec<u32>>,
}

impl<'a> TripleTable<'a> {
    /// Walk every posting reachable from the world (the network's runs in
    /// partition order, then the broker-cached lists) so the table is
    /// complete before anything that refers to it is encoded.
    pub fn collect(net: &'a NetworkState<Posting>, broker: Option<&'a BrokerState>) -> Self {
        let mut table = Self::default();
        let stored = net.stores().iter().map(|run| run.items());
        let cached = broker.iter().flat_map(|b| &b.cache.entries).map(|e| e.value.as_slice());
        for p in stored.chain(cached).flatten() {
            let (slab, index) = p.triple_id();
            let of_slab =
                table.remap.entry(Rc::as_ptr(slab)).or_insert_with(|| vec![u32::MAX; slab.len()]);
            let wire = &mut of_slab[index as usize];
            if *wire == u32::MAX {
                *wire = table.order.len() as u32;
                table.order.push(slab.triple(index));
            }
        }
        table
    }

    /// The index `p` refers to its triple by; `collect` met every posting.
    fn index_of(&self, p: &Posting) -> u32 {
        let (slab, index) = p.triple_id();
        self.remap[&Rc::as_ptr(slab)][index as usize]
    }
}

/// A triple of the table: oid, attribute name, value.
type WireTriple<'a> = (&'a str, &'a str, ValueRef<'a>);

impl<'a> Wire<'a> for ValueRef<'a> {
    fn put(&self, e: &mut Enc<'_>) {
        match *self {
            ValueRef::Str(s) => (0u8, s).put(e),
            ValueRef::Int(i) => (1u8, i).put(e),
            ValueRef::Float(f) => (2u8, f).put(e),
        }
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        Ok(match u8::get(d)? {
            0 => ValueRef::Str(d.get()?),
            1 => ValueRef::Int(d.get()?),
            2 => ValueRef::Float(d.get()?),
            _ => return Err(SnapError::Corrupt("value tag out of range")),
        })
    }
}

impl<'a> Wire<'a> for BaseKind {
    fn put(&self, e: &mut Enc<'_>) {
        let tag: u8 = match self {
            BaseKind::Oid => 0,
            BaseKind::AttrValue => 1,
            BaseKind::Value => 2,
        };
        tag.put(e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        match u8::get(d)? {
            0 => Ok(BaseKind::Oid),
            1 => Ok(BaseKind::AttrValue),
            2 => Ok(BaseKind::Value),
            _ => Err(SnapError::Corrupt("base-kind tag out of range")),
        }
    }
}

/// Kind tag, triple index, then the kind's payload: a base posting's base
/// kind; a gram posting's gram text and position (and, for an instance
/// gram, whether it carries its value); nothing for a short posting.
impl<'a> Wire<'a> for Posting {
    fn put(&self, e: &mut Enc<'_>) {
        let kind = self.kind();
        let tag: u8 = match kind {
            PostingKind::Base(_) => 0,
            PostingKind::InstanceGram { .. } => 1,
            PostingKind::SchemaGram => 2,
            PostingKind::ShortValue => 3,
            PostingKind::ShortAttr => 4,
        };
        let index = e.triples.index_of(self);
        (tag, index).put(e);
        match kind {
            PostingKind::Base(base) => base.put(e),
            PostingKind::InstanceGram { carries_value } => {
                (self.gram(), self.pos(), carries_value).put(e)
            }
            PostingKind::SchemaGram => (self.gram(), self.pos()).put(e),
            PostingKind::ShortValue | PostingKind::ShortAttr => {}
        }
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        const STRAY: SnapError = SnapError::Corrupt("gram is not in its source at its position");
        let (tag, index): (u8, u32) = d.get()?;
        let (kind, gram) = match tag {
            0 => (PostingKind::Base(d.get()?), None),
            1 | 2 => {
                let (text, pos): (&str, u32) = d.get()?;
                let kind = match tag {
                    1 => PostingKind::InstanceGram { carries_value: d.get()? },
                    _ => PostingKind::SchemaGram,
                };
                let slab = &d.slab;
                let span = d.grams.share(text, || match tag {
                    1 => slab.value_gram(index, pos, text),
                    _ => slab.name_gram(index, pos, text),
                });
                (kind, Some((span.ok_or(STRAY)?, pos)))
            }
            3 => (PostingKind::ShortValue, None),
            4 => (PostingKind::ShortAttr, None),
            _ => return Err(SnapError::Corrupt("posting tag out of range")),
        };
        Posting::new(kind, &d.slab, index, gram)
            .ok_or(SnapError::Corrupt("triple index out of range"))
    }
}

// ---------------------------------------------------------------------
// Network image
// ---------------------------------------------------------------------

/// A run as its arrays: key bytes, each key's bit length, end offsets,
/// postings — decoded through the one constructor that checks them.
impl<'a> Wire<'a> for PartitionStore<Posting> {
    fn put(&self, e: &mut Enc<'_>) {
        e.seq(self.key_bytes());
        e.put(&self.len());
        self.keys().for_each(|k| (k.len() as u32).put(e));
        e.seq(self.ends());
        e.seq(self.items());
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        let (bytes, bits, ends, postings): (_, Vec<u32>, _, _) = d.get()?;
        SortedStore::from_parts(bytes, &bits, ends, postings)
            .map(PartitionStore::from_store)
            .ok_or(SnapError::Corrupt("a run's keys do not ascend or its arrays disagree"))
    }
}

/// Config, the topology's tables (with the alive flags between membership
/// and routing), the runs, the counters, the RNG — decoded through
/// [`NetworkState::new`], which checks the tables against each other as a
/// live network checks itself, so an image that decodes is one that
/// restores and routes.
impl<'a> Wire<'a> for NetworkState<Posting> {
    fn put(&self, e: &mut Enc<'_>) {
        let Topology { paths, part_peers, part_of, routing, .. } = self.topology();
        e.put(self.config());
        e.put(paths);
        e.put(part_peers);
        e.put(part_of);
        e.seq(self.alive());
        e.put(routing);
        e.seq(self.stores());
        e.put(self.metrics());
        e.put(&(self.next_trace_query(), self.cache_epoch(), self.rng_words()));
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        let (cfg, paths, part_peers, part_of) = d.get()?;
        let (alive, routing, stores, metrics) = d.get()?;
        let (next_query, epoch, rng) = d.get()?;
        let topo = Topology::new(paths, part_peers, part_of, routing);
        NetworkState::new(cfg, topo, alive, stores, metrics, next_query, epoch, rng)
            .map_err(SnapError::Corrupt)
    }
}

// ---------------------------------------------------------------------
// Driver checkpoint
// ---------------------------------------------------------------------

impl<'a> Wire<'a> for EvSnap {
    fn put(&self, e: &mut Enc<'_>) {
        match *self {
            EvSnap::Arrive { client } => (0u8, client).put(e),
            EvSnap::Fault { idx } => (1u8, idx).put(e),
            EvSnap::FaultClear { idx } => (2u8, idx).put(e),
        }
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        Ok(match u8::get(d)? {
            0 => EvSnap::Arrive { client: d.get()? },
            1 => EvSnap::Fault { idx: d.get()? },
            2 => EvSnap::FaultClear { idx: d.get()? },
            _ => return Err(SnapError::Corrupt("event tag out of range")),
        })
    }
}

/// Counter, clock, then `(at, seq, event)` entries. `EventQueue::from_state`
/// asserts that every entry lies below the counter and at or after the
/// clock; a damaged artifact fails here instead, entry by entry.
impl<'a, E: Wire<'a>> Wire<'a> for QueueState<E> {
    fn put(&self, e: &mut Enc<'_>) {
        e.put(&(self.seq, self.now_us));
        e.put(&self.entries);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        let (seq, now_us) = d.get()?;
        let entries = d.seq(|d| {
            let (at, entry_seq) = d.get()?;
            if entry_seq >= seq {
                return Err(SnapError::Corrupt("pending event seq at or past the queue counter"));
            }
            if at < now_us {
                return Err(SnapError::Corrupt("pending event earlier than the queue clock"));
            }
            Ok((at, entry_seq, d.get()?))
        })?;
        Ok(QueueState { seq, now_us, entries })
    }
}

/// The fields in declaration order. Decoding checks that the per-operator
/// accumulators are under the driver's labels, ascending, as the loop
/// keeps them.
impl<'a> Wire<'a> for RunState {
    fn put(&self, e: &mut Enc<'_>) {
        e.put(&self.in_force);
        e.put(&self.issued);
        e.put(&self.initiators);
        e.put(&self.client_rngs);
        e.put(&self.by_operator);
        e.put(&self.all_latencies);
        e.put(&self.total);
        e.put(&(self.queries_run, self.first_start, self.last_end));
        e.put(&self.early);
        e.put(&self.late);
        e.put(&self.repair);
        e.put(&self.diagnostics);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        let (in_force, issued, initiators, client_rngs) = d.get()?;
        let mut last = None;
        let by_operator = d.seq(|d| {
            // The driver keys its accumulators by the static label set; a
            // foreign label has no accumulator to restore into.
            let label = <&str>::get(d)?;
            let label = QueryKind::LABELS
                .into_iter()
                .find(|l| *l == label)
                .ok_or(SnapError::Corrupt("unknown operator label"))?;
            if last.is_some_and(|prev| prev >= label) {
                return Err(SnapError::Corrupt("operator labels do not ascend"));
            }
            last = Some(label);
            let (lats, stats) = d.get()?;
            Ok((label, lats, stats))
        })?;
        let (all_latencies, total, (queries_run, first_start, last_end)) = d.get()?;
        let (early, late, repair, diagnostics) = d.get()?;
        Ok(RunState {
            in_force,
            issued,
            initiators,
            client_rngs,
            by_operator,
            all_latencies,
            total,
            queries_run,
            first_start,
            last_end,
            early,
            late,
            repair,
            diagnostics,
        })
    }
}

/// Queue, run, `NetSim` image. Decoding checks that every pending arrival
/// has a client stream.
impl<'a> Wire<'a> for DriverCheckpoint {
    fn put(&self, e: &mut Enc<'_>) {
        e.put(&self.queue);
        e.put(&self.run);
        e.put(&self.netsim);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        let (queue, run): (QueueState<EvSnap>, RunState) = d.get()?;
        let clients = run.client_rngs.len();
        if queue.entries.iter().any(
            |(_, _, ev)| matches!(ev, EvSnap::Arrive { client } if *client as usize >= clients),
        ) {
            return Err(SnapError::Corrupt(
                "arrival for a client the checkpoint has no stream for",
            ));
        }
        Ok(DriverCheckpoint { queue, run, netsim: d.get()? })
    }
}

// ---------------------------------------------------------------------
// Scale checkpoint
// ---------------------------------------------------------------------

/// Kind tag, then the `of` payload — zero unless a `Result`.
impl<'a> Wire<'a> for EvKind {
    fn put(&self, e: &mut Enc<'_>) {
        let (kind, of): (u8, u32) = match *self {
            EvKind::Query => (0, 0),
            EvKind::Forward => (1, 0),
            EvKind::Result { of } => (2, of),
        };
        (kind, of).put(e);
    }
    fn get(d: &mut Dec<'a>) -> R<Self> {
        match d.get::<(u8, u32)>()? {
            (0, 0) => Ok(EvKind::Query),
            (1, 0) => Ok(EvKind::Forward),
            (2, of) => Ok(EvKind::Result { of }),
            _ => Err(SnapError::Corrupt("scale event kind out of range")),
        }
    }
}
