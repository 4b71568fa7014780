//! The snapshot wire format: a hand-rolled little-endian binary codec.
//!
//! The workspace's vendored `serde` stand-in serializes but does not
//! deserialize, so the snapshot artifact has its own explicit codec. That
//! is a feature, not a workaround: every byte of the artifact is written
//! by a function in this file, the layout is stable under refactors of
//! the source structs, and the version envelope (`MAGIC` +
//! [`SCHEMA_VERSION`](crate::SCHEMA_VERSION)) is checked before a single
//! field is decoded.
//!
//! Layout conventions:
//!
//! * all integers little-endian; `usize` travels as `u64`,
//! * `f64` travels as its IEEE-754 bit pattern (`to_bits`), so restored
//!   floats are bit-identical,
//! * sequences are a `u64` length followed by the elements,
//! * options are a `u8` tag (0 = none, 1 = some),
//! * enums are a `u8` discriminant followed by the variant's fields.
//!
//! Triples are numbered: in the live engine a triple is a record of its
//! batch's [`TripleSlab`], which backs its base posting and every gram
//! posting cut from it, and the codec writes each stored triple once, in
//! the order the walk of the runs first meets it, into a table up front.
//! Postings reference the table by index. The decoder builds **one slab**
//! straight from that table and every decoded posting is a handle on it,
//! so a restored world allocates nothing per triple. Names are spelled out
//! per triple and gram texts per posting; the slab holds each name once,
//! and a gram is found where it lies in its value (or name) and becomes a
//! span of the slab's text — how `postings_for_rows` lays out a built world.
//!
//! The stores are written run by run, each as the arrays it is: its keys'
//! packed bytes, their bit lengths, their end offsets and its postings.
//! The decoder hands each run's arrays to [`SortedStore::from_parts`], the
//! one constructor that checks them, so a run that decodes is a run.

use crate::SnapError;
use rustc_hash::FxHashMap;
use sqo_cache::{
    BrokerConfig, BrokerCounters, BrokerState, ChannelPoolState, LruEntryState, LruState,
    PartitionChannel, SketchState,
};
use sqo_overlay::{
    Key, KeyRef, Metrics, NetworkConfig, NetworkState, PartitionStore, PeerId, PeerLoad,
    RoutingArena, SimLatency, SortedStore, Topology,
};
use sqo_sim::driver::{DriverCheckpoint, EvSnap, HistParts, RepairTotals};
use sqo_sim::scale::{Ev, EvKind, QState, ScaleCheckpoint};
use sqo_sim::{NetSimState, QueryKind, QueueState};
use sqo_storage::{
    BaseKind, GramInterner, Posting, PostingKind, SlabBuilder, TripleRef, TripleSlab, ValueRef,
};
use std::sync::Arc;

use sqo_core::QueryStats;

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// Append-only encoder over a byte buffer.
pub struct Enc {
    pub buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for it in items {
            f(self, it);
        }
    }
    pub fn opt<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }
}

impl Default for Enc {
    fn default() -> Self {
        Self::new()
    }
}

/// Cursor-style decoder; every read is bounds-checked and returns a
/// [`SnapError`] instead of panicking on truncated or corrupt input.
pub struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

type R<T> = Result<T, SnapError>;

impl<'a> Dec<'a> {
    pub fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
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
    pub fn u8(&mut self) -> R<u8> {
        Ok(self.take(1)?[0])
    }
    pub fn u32(&mut self) -> R<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    pub fn u64(&mut self) -> R<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    pub fn usize(&mut self) -> R<usize> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("usize overflow"))
    }
    pub fn i64(&mut self) -> R<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    pub fn f64(&mut self) -> R<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub fn bool(&mut self) -> R<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool tag out of range")),
        }
    }
    pub fn bytes(&mut self) -> R<&'a [u8]> {
        let n = self.usize()?;
        self.take(n)
    }
    pub fn str(&mut self) -> R<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapError::Corrupt("invalid utf-8"))
    }
    pub fn string(&mut self) -> R<String> {
        self.str().map(str::to_string)
    }
    /// Sequence length with a sanity bound: a sequence of `len` elements
    /// needs at least `len` bytes of input, so a corrupt length can never
    /// trigger a huge allocation.
    pub fn seq_len(&mut self) -> R<usize> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::Corrupt("sequence length exceeds input"));
        }
        Ok(n)
    }
    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> R<T>) -> R<Vec<T>> {
        let n = self.seq_len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(f(self)?);
        }
        Ok(v)
    }
    pub fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> R<T>) -> R<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(SnapError::Corrupt("option tag out of range")),
        }
    }
}

// ---------------------------------------------------------------------
// Triple numbering
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
                table.remap.entry(Arc::as_ptr(slab)).or_insert_with(|| vec![u32::MAX; slab.len()]);
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
        self.remap[&Arc::as_ptr(slab)][index as usize]
    }

    pub fn encode(&self, e: &mut Enc) {
        e.seq(&self.order, |e, t| triple(e, *t));
    }
}

/// Decode-side twin of [`TripleTable`]: the one slab the triple table
/// became, and one span of its text per distinct gram met so far.
pub struct DecodedTriples<'a> {
    slab: Arc<TripleSlab>,
    grams: GramInterner<'a>,
}

pub fn decode_triple_table<'a>(d: &mut Dec<'a>) -> R<DecodedTriples<'a>> {
    const FULL: SnapError = SnapError::Corrupt("triple table exceeds 4 GiB of text");
    let n = d.seq_len()?;
    let mut slab = SlabBuilder::with_capacity(n, 0, 0);
    for _ in 0..n {
        let (oid, attr) = (d.str()?, d.str()?);
        let value = match d.u8()? {
            0 => ValueRef::Str(d.str()?),
            1 => ValueRef::Int(d.i64()?),
            2 => ValueRef::Float(d.f64()?),
            _ => return Err(SnapError::Corrupt("value tag out of range")),
        };
        slab.push(oid, attr, value).map_err(|_| FULL)?;
    }
    Ok(DecodedTriples { slab: slab.finish().map_err(|_| FULL)?, grams: GramInterner::default() })
}

fn triple(e: &mut Enc, t: TripleRef<'_>) {
    e.str(t.oid());
    e.str(t.attr().as_str());
    match t.value() {
        ValueRef::Str(s) => {
            e.u8(0);
            e.str(s);
        }
        ValueRef::Int(i) => {
            e.u8(1);
            e.i64(i);
        }
        ValueRef::Float(f) => {
            e.u8(2);
            e.f64(f);
        }
    }
}

fn posting(e: &mut Enc, t: &TripleTable<'_>, p: &Posting) {
    let kind = p.kind();
    e.u8(match kind {
        PostingKind::Base(_) => 0,
        PostingKind::InstanceGram { .. } => 1,
        PostingKind::SchemaGram => 2,
        PostingKind::ShortValue => 3,
        PostingKind::ShortAttr => 4,
    });
    e.u32(t.index_of(p));
    match kind {
        PostingKind::Base(BaseKind::Oid) => e.u8(0),
        PostingKind::Base(BaseKind::AttrValue) => e.u8(1),
        PostingKind::Base(BaseKind::Value) => e.u8(2),
        PostingKind::InstanceGram { .. } | PostingKind::SchemaGram => {
            e.str(p.gram());
            e.u32(p.pos());
            if let PostingKind::InstanceGram { carries_value } = kind {
                e.bool(carries_value);
            }
        }
        PostingKind::ShortValue | PostingKind::ShortAttr => {}
    }
}

fn de_posting<'a>(d: &mut Dec<'a>, table: &mut DecodedTriples<'a>) -> R<Posting> {
    const STRAY: SnapError = SnapError::Corrupt("gram is not in its source at its position");
    let (tag, index) = (d.u8()?, d.u32()?);
    let DecodedTriples { slab, grams } = table;
    let (kind, gram) = match tag {
        0 => {
            let kind = match d.u8()? {
                0 => BaseKind::Oid,
                1 => BaseKind::AttrValue,
                2 => BaseKind::Value,
                _ => return Err(SnapError::Corrupt("base-kind tag out of range")),
            };
            (PostingKind::Base(kind), None)
        }
        1 | 2 => {
            let (text, pos) = (d.str()?, d.u32()?);
            let (kind, span) = if tag == 1 {
                let kind = PostingKind::InstanceGram { carries_value: d.bool()? };
                (kind, grams.share(text, || slab.value_gram(index, pos, text)))
            } else {
                (PostingKind::SchemaGram, grams.share(text, || slab.name_gram(index, pos, text)))
            };
            (kind, Some((span.ok_or(STRAY)?, pos)))
        }
        3 => (PostingKind::ShortValue, None),
        4 => (PostingKind::ShortAttr, None),
        _ => return Err(SnapError::Corrupt("posting tag out of range")),
    };
    Posting::new(kind, slab, index, gram).ok_or(SnapError::Corrupt("triple index out of range"))
}

// ---------------------------------------------------------------------
// Small overlay pieces
// ---------------------------------------------------------------------

fn key(e: &mut Enc, k: KeyRef<'_>) {
    e.bytes(k.as_bytes());
    e.usize(k.len());
}

/// A key where it lies in the artifact.
fn de_key_ref<'a>(d: &mut Dec<'a>) -> R<KeyRef<'a>> {
    let bytes = d.bytes()?;
    KeyRef::new(bytes, d.usize()?)
        .ok_or(SnapError::Corrupt("key bytes do not match bit length, or padding bits are set"))
}

fn de_key(d: &mut Dec<'_>) -> R<Key> {
    de_key_ref(d).map(KeyRef::to_key)
}

fn metrics(e: &mut Enc, m: &Metrics) {
    for v in [
        m.messages,
        m.bytes,
        m.route_hops,
        m.forward_msgs,
        m.result_msgs,
        m.result_bytes,
        m.failed_routes,
        m.local_items_scanned,
    ] {
        e.u64(v);
    }
}

fn de_metrics(d: &mut Dec<'_>) -> R<Metrics> {
    Ok(Metrics {
        messages: d.u64()?,
        bytes: d.u64()?,
        route_hops: d.u64()?,
        forward_msgs: d.u64()?,
        result_msgs: d.u64()?,
        result_bytes: d.u64()?,
        failed_routes: d.u64()?,
        local_items_scanned: d.u64()?,
    })
}

fn sim_latency(e: &mut Enc, s: &SimLatency) {
    for v in [
        s.start_us,
        s.end_us,
        s.elapsed_us,
        s.net_us,
        s.queue_us,
        s.service_us,
        s.route_us,
        s.forward_us,
        s.result_us,
        s.timed_messages,
        s.retransmissions,
        s.crit_net_us,
        s.crit_queue_us,
        s.crit_service_us,
        s.crit_stall_us,
    ] {
        e.u64(v);
    }
}

fn de_sim_latency(d: &mut Dec<'_>) -> R<SimLatency> {
    Ok(SimLatency {
        start_us: d.u64()?,
        end_us: d.u64()?,
        elapsed_us: d.u64()?,
        net_us: d.u64()?,
        queue_us: d.u64()?,
        service_us: d.u64()?,
        route_us: d.u64()?,
        forward_us: d.u64()?,
        result_us: d.u64()?,
        timed_messages: d.u64()?,
        retransmissions: d.u64()?,
        crit_net_us: d.u64()?,
        crit_queue_us: d.u64()?,
        crit_service_us: d.u64()?,
        crit_stall_us: d.u64()?,
    })
}

fn rng_words(e: &mut Enc, w: &[u64; 4]) {
    for v in w {
        e.u64(*v);
    }
}

fn de_rng_words(d: &mut Dec<'_>) -> R<[u64; 4]> {
    Ok([d.u64()?, d.u64()?, d.u64()?, d.u64()?])
}

// ---------------------------------------------------------------------
// Network image
// ---------------------------------------------------------------------

/// The network image; `t` is collected from it and written before it.
pub fn network_state(e: &mut Enc, t: &TripleTable<'_>, s: &NetworkState<Posting>) {
    let (c, Topology { paths, part_peers, part_of, routing, .. }) = (s.config(), s.topology());
    e.usize(c.peers);
    e.usize(c.replication);
    e.usize(c.refs_per_level);
    e.usize(c.msg_header_bytes);
    e.u64(c.seed);
    e.seq(paths, |e, k| key(e, k.as_ref()));
    e.seq(part_peers, |e, ps| e.seq(ps, |e, p| e.u32(p.0)));
    e.seq(part_of, |e, v| e.u32(*v));
    e.seq(s.alive(), |e, v| e.bool(*v));
    e.seq(&routing.refs, |e, p| e.u32(p.0));
    e.seq(&routing.slice_off, |e, v| e.u32(*v));
    e.seq(&routing.peer_off, |e, v| e.u32(*v));
    e.seq(s.stores(), |e, run| {
        e.bytes(run.key_bytes());
        e.usize(run.len());
        for k in run.keys() {
            e.u32(k.len() as u32);
        }
        e.seq(run.ends(), |e, end| e.u32(*end));
        e.seq(run.items(), |e, p| posting(e, t, p));
    });
    metrics(e, s.metrics());
    e.seq(s.peer_loads(), |e, p| {
        for v in [p.msgs_sent, p.msgs_recv, p.bytes_sent, p.bytes_recv] {
            e.u64(v);
        }
    });
    e.u64(s.next_trace_query());
    e.u64(s.cache_epoch());
    rng_words(e, &s.rng_words());
}

pub fn de_network_state<'a>(
    d: &mut Dec<'a>,
    table: &mut DecodedTriples<'a>,
) -> R<NetworkState<Posting>> {
    let cfg = NetworkConfig {
        peers: d.usize()?,
        replication: d.usize()?,
        refs_per_level: d.usize()?,
        msg_header_bytes: d.usize()?,
        seed: d.u64()?,
    };
    let paths = d.seq(de_key)?;
    let part_peers = d.seq(|d| d.seq(|d| Ok(PeerId(d.u32()?))))?;
    let part_of = d.seq(|d| d.u32())?;
    let alive = d.seq(|d| d.bool())?;
    let routing = RoutingArena {
        refs: d.seq(|d| Ok(PeerId(d.u32()?)))?,
        slice_off: d.seq(|d| d.u32())?,
        peer_off: d.seq(|d| d.u32())?,
    };
    let stores = d.seq(|d| {
        let bytes = d.bytes()?.to_vec();
        let (bits, ends) = (d.seq(|d| d.u32())?, d.seq(|d| d.u32())?);
        let postings = d.seq(|d| de_posting(d, table))?;
        SortedStore::from_parts(bytes, &bits, ends, postings)
            .map(PartitionStore::from_store)
            .ok_or(SnapError::Corrupt("a run's keys do not ascend or its arrays disagree"))
    })?;
    let metrics = de_metrics(d)?;
    let peer_load = d.seq(|d| {
        Ok(PeerLoad {
            msgs_sent: d.u64()?,
            msgs_recv: d.u64()?,
            bytes_sent: d.u64()?,
            bytes_recv: d.u64()?,
        })
    })?;
    let (next_query, epoch, rng) = (d.u64()?, d.u64()?, de_rng_words(d)?);
    // The image's one constructor checks the tables against each other —
    // what a live network checks of itself — so an image that decodes is
    // one that restores and routes.
    let topo = Topology::new(paths, part_peers, part_of, routing);
    NetworkState::new(cfg, topo, alive, stores, metrics, peer_load, next_query, epoch, rng)
        .map_err(SnapError::Corrupt)
}

// ---------------------------------------------------------------------
// Broker image
// ---------------------------------------------------------------------

pub fn broker_state(e: &mut Enc, t: &TripleTable<'_>, b: &BrokerState) {
    let c = &b.cfg;
    e.bool(c.cache);
    e.usize(c.cache_capacity);
    e.u64(c.cache_ttl_us);
    e.bool(c.admission);
    e.bool(c.batch);
    e.u64(c.batch_window_us);
    let k = &b.counters;
    for v in [
        k.cache_hits,
        k.cache_misses,
        k.probes_coalesced,
        k.channels_opened,
        k.admission_rejects,
        k.messages_saved,
    ] {
        e.u64(v);
    }
    let l = &b.cache;
    e.u64(l.capacity);
    e.u64(l.ttl_us);
    e.u64(l.tick);
    e.u64(l.rejected);
    e.seq(&l.entries, |e, ent| {
        e.u32(ent.key.0 .0);
        key(e, ent.key.1.as_ref());
        e.seq(&ent.value, |e, p| posting(e, t, p));
        e.u64(ent.epoch);
        e.u64(ent.inserted_us);
        e.u64(ent.last_used);
    });
    e.opt(l.sketch.as_ref(), |e, s| {
        e.bytes(&s.table);
        e.u64(s.slots);
        e.seq(&s.doorkeeper, |e, v| e.u64(*v));
        e.u64(s.recorded);
        e.u64(s.reset_at);
    });
    let ch = &b.channels;
    e.u64(ch.window_us);
    e.seq(&ch.channels, |e, (part, c)| {
        e.u64(*part);
        e.u32(c.owner.0);
        e.u64(c.opened_us);
        e.u64(c.route_hops);
        e.u64(c.epoch);
    });
    e.u64(ch.opened);
    e.u64(ch.rides);
}

pub fn de_broker_state<'a>(d: &mut Dec<'a>, table: &mut DecodedTriples<'a>) -> R<BrokerState> {
    let cfg = BrokerConfig {
        cache: d.bool()?,
        cache_capacity: d.usize()?,
        cache_ttl_us: d.u64()?,
        admission: d.bool()?,
        batch: d.bool()?,
        batch_window_us: d.u64()?,
    };
    let counters = BrokerCounters {
        cache_hits: d.u64()?,
        cache_misses: d.u64()?,
        probes_coalesced: d.u64()?,
        channels_opened: d.u64()?,
        admission_rejects: d.u64()?,
        messages_saved: d.u64()?,
    };
    let capacity = d.u64()?;
    let ttl_us = d.u64()?;
    let tick = d.u64()?;
    let rejected = d.u64()?;
    let entries = d.seq(|d| {
        Ok(LruEntryState {
            key: (PeerId(d.u32()?), de_key(d)?),
            value: d.seq(|d| de_posting(d, table))?,
            epoch: d.u64()?,
            inserted_us: d.u64()?,
            last_used: d.u64()?,
        })
    })?;
    let sketch = d.opt(|d| {
        Ok(SketchState {
            table: d.bytes()?.to_vec(),
            slots: d.u64()?,
            doorkeeper: d.seq(|d| d.u64())?,
            recorded: d.u64()?,
            reset_at: d.u64()?,
        })
    })?;
    let cache = LruState { capacity, ttl_us, tick, rejected, entries, sketch };
    cache.check().map_err(SnapError::Corrupt)?;
    let channels = ChannelPoolState {
        window_us: d.u64()?,
        channels: d.seq(|d| {
            Ok((
                d.u64()?,
                PartitionChannel {
                    owner: PeerId(d.u32()?),
                    opened_us: d.u64()?,
                    route_hops: d.u64()?,
                    epoch: d.u64()?,
                },
            ))
        })?,
        opened: d.u64()?,
        rides: d.u64()?,
    };
    Ok(BrokerState { cfg, counters, cache, channels })
}

// ---------------------------------------------------------------------
// Driver checkpoint
// ---------------------------------------------------------------------

fn query_stats(e: &mut Enc, s: &QueryStats) {
    metrics(e, &s.traffic);
    e.opt(s.sim.as_ref(), sim_latency);
    e.usize(s.probes);
    e.usize(s.candidates);
    e.u64(s.edit_comparisons);
    e.usize(s.matches);
    e.usize(s.rounds);
    e.u64(s.cache_hits);
    e.u64(s.cache_misses);
    e.u64(s.probes_coalesced);
    e.usize(s.join_window_peak);
    e.u64(s.join_window_shrinks);
    e.u64(s.partitions_addressed);
    e.u64(s.partitions_answered);
    e.u64(s.retries);
    e.u64(s.gave_up);
}

fn de_query_stats(d: &mut Dec<'_>) -> R<QueryStats> {
    Ok(QueryStats {
        traffic: de_metrics(d)?,
        sim: d.opt(de_sim_latency)?,
        probes: d.usize()?,
        candidates: d.usize()?,
        edit_comparisons: d.u64()?,
        matches: d.usize()?,
        rounds: d.usize()?,
        cache_hits: d.u64()?,
        cache_misses: d.u64()?,
        probes_coalesced: d.u64()?,
        join_window_peak: d.usize()?,
        join_window_shrinks: d.u64()?,
        partitions_addressed: d.u64()?,
        partitions_answered: d.u64()?,
        retries: d.u64()?,
        gave_up: d.u64()?,
    })
}

fn hist(e: &mut Enc, h: &HistParts) {
    let (count, sum, min, max, buckets) = h;
    e.u64(*count);
    e.u64(*sum);
    e.u64(*min);
    e.u64(*max);
    e.seq(buckets, |e, (b, n)| {
        e.u32(*b);
        e.u64(*n);
    });
}

fn de_hist(d: &mut Dec<'_>) -> R<HistParts> {
    Ok((d.u64()?, d.u64()?, d.u64()?, d.u64()?, d.seq(|d| Ok((d.u32()?, d.u64()?)))?))
}

fn repair_totals(e: &mut Enc, r: &RepairTotals) {
    for v in [r.passes, r.recruited, r.bytes_copied, r.lost_partitions, r.unfilled_deficits] {
        e.u64(v);
    }
}

fn de_repair_totals(d: &mut Dec<'_>) -> R<RepairTotals> {
    Ok(RepairTotals {
        passes: d.u64()?,
        recruited: d.u64()?,
        bytes_copied: d.u64()?,
        lost_partitions: d.u64()?,
        unfilled_deficits: d.u64()?,
    })
}

fn netsim_state(e: &mut Enc, s: &NetSimState) {
    rng_words(e, &s.rng);
    e.u64(s.frontier_us);
    e.u64(s.clock_us);
    e.seq(&s.busy_until_us, |e, v| e.u64(*v));
    for v in s.blame {
        e.u64(v);
    }
    sim_latency(e, &s.totals);
}

fn de_netsim_state(d: &mut Dec<'_>) -> R<NetSimState> {
    Ok(NetSimState {
        rng: de_rng_words(d)?,
        frontier_us: d.u64()?,
        clock_us: d.u64()?,
        busy_until_us: d.seq(|d| d.u64())?,
        blame: [d.u64()?, d.u64()?, d.u64()?, d.u64()?],
        totals: de_sim_latency(d)?,
    })
}

pub fn driver_checkpoint(e: &mut Enc, c: &DriverCheckpoint) {
    let q = &c.queue;
    e.u64(q.seq);
    e.u64(q.now_us);
    e.seq(&q.entries, |e, (at, seq, ev)| {
        e.u64(*at);
        e.u64(*seq);
        match ev {
            EvSnap::Arrive { client } => {
                e.u8(0);
                e.u32(*client);
            }
            EvSnap::Churn { idx } => {
                e.u8(1);
                e.u32(*idx);
            }
            EvSnap::Fault { idx } => {
                e.u8(2);
                e.u32(*idx);
            }
            EvSnap::FaultClear { idx } => {
                e.u8(3);
                e.u32(*idx);
            }
        }
    });
    e.seq(&c.issued, |e, v| e.u64(*v));
    e.opt(c.initiators.as_ref(), |e, ps| e.seq(ps, |e, p| e.u32(p.0)));
    e.seq(&c.client_rngs, rng_words);
    e.seq(&c.by_operator, |e, (label, h, s)| {
        e.str(label);
        hist(e, h);
        query_stats(e, s);
    });
    hist(e, &c.all_latencies);
    query_stats(e, &c.total);
    e.u64(c.queries_run);
    e.u64(c.first_start);
    e.u64(c.last_end);
    hist(e, &c.early.0);
    query_stats(e, &c.early.1);
    hist(e, &c.late.0);
    query_stats(e, &c.late.1);
    repair_totals(e, &c.repair);
    e.seq(&c.diagnostics, |e, s| e.str(s));
    netsim_state(e, &c.netsim);
}

pub fn de_driver_checkpoint(d: &mut Dec<'_>) -> R<DriverCheckpoint> {
    let seq = d.u64()?;
    let now_us = d.u64()?;
    // `EventQueue::from_state` asserts these two invariants; a damaged
    // artifact must fail here, not panic inside `resume_driver`.
    let entries = d.seq(|d| {
        let (at, entry_seq) = (d.u64()?, d.u64()?);
        if entry_seq >= seq {
            return Err(SnapError::Corrupt("pending event seq at or past the queue counter"));
        }
        if at < now_us {
            return Err(SnapError::Corrupt("pending event earlier than the queue clock"));
        }
        let ev = match d.u8()? {
            0 => EvSnap::Arrive { client: d.u32()? },
            1 => EvSnap::Churn { idx: d.u32()? },
            2 => EvSnap::Fault { idx: d.u32()? },
            3 => EvSnap::FaultClear { idx: d.u32()? },
            _ => return Err(SnapError::Corrupt("event tag out of range")),
        };
        Ok((at, entry_seq, ev))
    })?;
    let issued = d.seq(|d| d.u64())?;
    let initiators = d.opt(|d| d.seq(|d| Ok(PeerId(d.u32()?))))?;
    let client_rngs = d.seq(|d| de_rng_words(d))?;
    let clients = client_rngs.len();
    if entries
        .iter()
        .any(|(_, _, ev)| matches!(ev, EvSnap::Arrive { client } if *client as usize >= clients))
    {
        return Err(SnapError::Corrupt("arrival for a client the checkpoint has no stream for"));
    }
    Ok(DriverCheckpoint {
        queue: QueueState { seq, now_us, entries },
        issued,
        initiators,
        client_rngs,
        by_operator: d.seq(|d| {
            // The driver keys its accumulators by the static label set; a
            // foreign label has no accumulator to restore into.
            let label = d.str()?;
            let label = QueryKind::LABELS
                .into_iter()
                .find(|l| *l == label)
                .ok_or(SnapError::Corrupt("unknown operator label"))?;
            Ok((label, de_hist(d)?, de_query_stats(d)?))
        })?,
        all_latencies: de_hist(d)?,
        total: de_query_stats(d)?,
        queries_run: d.u64()?,
        first_start: d.u64()?,
        last_end: d.u64()?,
        early: (de_hist(d)?, de_query_stats(d)?),
        late: (de_hist(d)?, de_query_stats(d)?),
        repair: de_repair_totals(d)?,
        diagnostics: d.seq(|d| d.string())?,
        netsim: de_netsim_state(d)?,
    })
}

// ---------------------------------------------------------------------
// Scale checkpoint
// ---------------------------------------------------------------------

pub fn scale_checkpoint(e: &mut Enc, c: &ScaleCheckpoint) {
    e.u64(c.stop_us);
    e.seq(&c.pending, |e, ev| {
        e.u64(ev.at_us);
        e.u32(ev.qid);
        e.u32(ev.step);
        e.u32(ev.peer);
        // Kind tag, then the `of` payload (zero unless a `Result`).
        let (kind, of) = match ev.kind {
            EvKind::Query => (0, 0),
            EvKind::Forward => (1, 0),
            EvKind::Result { of } => (2, of),
        };
        e.u8(kind);
        e.u32(of);
    });
    e.seq(&c.busy, |e, v| e.u64(*v));
    e.seq(&c.qstate, |e, q| {
        e.u32(q.expected);
        e.u32(q.got);
        e.u64(q.done_us);
    });
    e.u64(c.events);
}

pub fn de_scale_checkpoint(d: &mut Dec<'_>) -> R<ScaleCheckpoint> {
    Ok(ScaleCheckpoint {
        stop_us: d.u64()?,
        pending: d.seq(|d| {
            Ok(Ev {
                at_us: d.u64()?,
                qid: d.u32()?,
                step: d.u32()?,
                peer: d.u32()?,
                kind: match (d.u8()?, d.u32()?) {
                    (0, 0) => EvKind::Query,
                    (1, 0) => EvKind::Forward,
                    (2, of) => EvKind::Result { of },
                    _ => return Err(SnapError::Corrupt("scale event kind out of range")),
                },
            })
        })?,
        busy: d.seq(|d| d.u64())?,
        qstate: d.seq(|d| Ok(QState { expected: d.u32()?, got: d.u32()?, done_us: d.u64()? }))?,
        events: d.u64()?,
    })
}

// ---------------------------------------------------------------------
// Publish stats
// ---------------------------------------------------------------------

pub fn publish_stats(e: &mut Enc, s: &sqo_storage::PublishStats) {
    e.usize(s.rows);
    e.usize(s.triples);
    e.usize(s.base_postings);
    e.usize(s.instance_gram_postings);
    e.usize(s.schema_gram_postings);
    e.usize(s.short_postings);
    e.u64(s.total_bytes);
}

pub fn de_publish_stats(d: &mut Dec<'_>) -> R<sqo_storage::PublishStats> {
    Ok(sqo_storage::PublishStats {
        rows: d.usize()?,
        triples: d.usize()?,
        base_postings: d.usize()?,
        instance_gram_postings: d.usize()?,
        schema_gram_postings: d.usize()?,
        short_postings: d.usize()?,
        total_bytes: d.u64()?,
    })
}
