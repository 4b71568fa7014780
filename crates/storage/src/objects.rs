//! Objects by number.
//!
//! Every object an engine publishes gets a dense host-side number at its
//! first publication — first sight, so numbers follow publication order —
//! which each of its slab records carries ([`Posting::object`]). Operators
//! key their object caches, dedup checks and fetch plans by it.
//!
//! [`Objects`] is the interner and, per number, the [`Spot`] a delegated
//! fetch of the object is answered at, kept where the stores are written:
//! [`Objects::place_all`] when a world is built or decoded,
//! [`Objects::stored`] after a publication; a restore copies the
//! snapshot's. Repair and recruitment move members, and a key recruitment
//! copies is shorter than its partition's path: no spot describes one. The
//! numbers are in no wire record: a decoder numbers by first sight in its
//! triple table.

use crate::keys::{self, OidKeyBuf};
use crate::posting::{fields_of, Object, ObjectPostings, Posting};
use crate::triple::ValueRef;
use rustc_hash::{FxHashMap, FxHasher};
use sqo_overlay::key::{Key, KeyRef};
use sqo_overlay::trie::subtree_range;
use sqo_overlay::{Network, PartitionStore, SortedStore};
use std::hash::Hasher;

/// The number of a record no interner numbered (a free-standing batch).
pub const UNNUMBERED: u32 = u32::MAX;

/// Where a delegated fetch of an object is answered and what it charges:
/// the partition whose run holds `key(oid)`, a key longer than its path;
/// the object's [`ObjectPostings::repr_len`]; and whether no other key of
/// the run extends the object's (an oid key has no terminator: `w:1`'s
/// scan hits `w:10`), so that the owner's scan hits one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spot {
    pub part: u32,
    pub payload: u32,
    pub leaf: bool,
}

/// One number: where its oid ends in the interner's text, the next lower
/// number whose oid hashes alike, and its spot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    end: u32,
    next: u32,
    spot: Option<Spot>,
}

/// An engine's object numbers and spots. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Objects {
    /// Every numbered oid, back to back in number order.
    text: String,
    slots: Vec<Slot>,
    /// Per hash of an oid, the highest number whose oid has it.
    heads: FxHashMap<u32, u32>,
}

fn hash(oid: &str) -> u32 {
    let mut h = FxHasher::default();
    h.write(oid.as_bytes());
    (h.finish() >> 32) as u32
}

/// The number of `oid` on the chain from number `n` down, if one is.
fn find(text: &str, slots: &[Slot], mut n: u32, oid: &str) -> Option<u32> {
    while n != UNNUMBERED {
        let start = n.checked_sub(1).map_or(0, |m| slots[m as usize].end);
        let Slot { end, next, .. } = slots[n as usize];
        if &text[start as usize..end as usize] == oid {
            return Some(n);
        }
        n = next;
    }
    None
}

impl Objects {
    /// The number of `oid`, if it has one.
    pub fn get(&self, oid: &str) -> Option<u32> {
        find(&self.text, &self.slots, *self.heads.get(&hash(oid))?, oid)
    }

    /// The number of `oid`, the next free one at first sight.
    pub fn number(&mut self, oid: &str) -> u32 {
        let head = self.heads.entry(hash(oid)).or_insert(UNNUMBERED);
        if let Some(n) = find(&self.text, &self.slots, *head, oid) {
            return n;
        }
        let (n, next) = (u32::try_from(self.slots.len()).expect("under 2^32 objects"), *head);
        *head = n;
        self.text.push_str(oid);
        let end = u32::try_from(self.text.len()).expect("under 4 GiB of oids");
        self.slots.push(Slot { end, next, spot: None });
        n
    }

    /// Where a delegated fetch of object `n` is answered, if its key is
    /// stored under one partition's path.
    pub fn spot(&self, n: u32) -> Option<Spot> {
        self.slots.get(n as usize)?.spot
    }

    /// Bring up to date, after a publication of `oids` into `net`, the
    /// spots of their objects and of the objects under the key just before
    /// each of theirs in its run, when that key is a prefix of it: its scan
    /// now hits one more entry. Every other key that prefixes it prefixes
    /// that one too, so its objects lost their leaf when that key arrived,
    /// or were placed after it. Nothing is allocated.
    pub fn stored<'a>(&mut self, net: &Network<Posting>, oids: impl IntoIterator<Item = &'a str>) {
        let mut buf: OidKeyBuf = [0; _];
        for oid in oids {
            let key = keys::oid_key_in(oid, &mut buf);
            let (part, end) = subtree_range(net.paths(), key);
            let run = net.partition_store(part);
            let Some(at) = run.entry_index(key).filter(|_| end == part + 1) else { continue };
            self.place(part, run.entry(at));
            let before = at.checked_sub(1).map(|b| run.entry(b));
            let prefix = before.filter(|(prefix, ..)| prefix.is_prefix_of(key));
            for p in prefix.map_or(&[][..], |(.., items)| items) {
                let slot = self.slots.get_mut(p.object() as usize);
                if let Some(spot) = slot.and_then(|s| s.spot.as_mut()) {
                    spot.leaf = false;
                }
            }
        }
    }

    /// Set the spot of every object stored under a key of the oid family
    /// longer than its partition's path — `paths` and `runs` in partition
    /// order — in one walk over each run's oid keys.
    pub fn place_all<'r>(
        &mut self,
        paths: &[Key],
        runs: impl IntoIterator<Item = &'r SortedStore<Posting>>,
    ) {
        let family = [keys::IndexFamily::Oid as u8];
        let family = KeyRef::new(&family, 8).expect("one byte");
        for (part, (path, run)) in paths.iter().zip(runs).enumerate() {
            for entry in run.entries_under(family).map(|at| run.entry(at)) {
                if entry.0.len() >= path.len() {
                    self.place(part, entry);
                }
            }
        }
    }

    /// [`Self::place_all`] over `net`'s partitions.
    pub fn place_network(&mut self, net: &Network<Posting>) {
        self.place_all(net.paths(), (0..net.partition_count()).map(|p| &**net.partition_store(p)));
    }

    /// Set the spot, at `part`, of every object stored under `entry`'s key,
    /// whose scan hits its count of entries (more than one object only
    /// where long oids truncate to one key).
    fn place(&mut self, part: usize, (_, entries, items): (KeyRef<'_>, usize, &[Posting])) {
        for (i, p) in items.iter().enumerate() {
            let n = p.object();
            if let Some(slot) = self.slots.get_mut(n as usize) {
                if !items[..i].iter().any(|q| q.object() == n) {
                    // One field: its `repr_len` less the 4 bytes a triple
                    // frames more than a field, without reading any text.
                    let payload = match items {
                        [one] if one.as_base().is_some() => one.triple().repr_len() - 4,
                        _ => ObjectPostings::payload(p.oid(), items),
                    } as u32;
                    slot.spot = Some(Spot { part: part as u32, payload, leaf: entries == 1 });
                }
            }
        }
    }
}

/// What a fetch plan lists: an object, by a posting of it or by its oid.
pub trait Fetch {
    fn oid(&self) -> &str;
    /// The object's number; `None` for an oid nothing published.
    fn number(&self, objects: &Objects) -> Option<u32>;

    /// [`Objects::spot`] of the object.
    fn spot(&self, objects: &Objects) -> Option<Spot> {
        objects.spot(self.number(objects)?)
    }
}

impl Fetch for Posting {
    fn oid(&self) -> &str {
        Posting::oid(self)
    }

    fn number(&self, _: &Objects) -> Option<u32> {
        Some(self.object())
    }
}

impl Fetch for &str {
    fn oid(&self) -> &str {
        self
    }

    fn number(&self, objects: &Objects) -> Option<u32> {
        objects.get(self)
    }
}

/// A fetched object as an operator's cache keeps it and a result row
/// carries it: the run its owner answered from — a handle, so a later
/// publication into the partition is not in it — or, fetched by a retrieve
/// of its own, its postings. A clone is a refcount step (a list copy for a
/// gathered object of several fields). Its fields are read where they lie;
/// [`Self::materialize`] is the one place they become owned values.
#[derive(Clone)]
pub enum Fetched {
    At(PartitionStore<Posting>),
    Gathered(ObjectPostings),
}

impl Fetched {
    /// The postings the object of `oid` is read from: its key's entry in
    /// the run, or its gathered fields.
    fn items(&self, oid: &str) -> &[Posting] {
        match self {
            Fetched::At(run) => {
                let mut buf: OidKeyBuf = [0; _];
                let key = keys::oid_key_in(oid, &mut buf);
                run.entry_index(key).map_or(&[][..], |at| run.entry(at).2)
            }
            Fetched::Gathered(postings) => postings.postings(),
        }
    }

    /// The values of `oid`'s attribute `attr` as fetched, lent, in the
    /// order [`Self::materialize`] lists them.
    pub fn values<'a>(&'a self, oid: &'a str, attr: &'a str) -> impl Iterator<Item = ValueRef<'a>> {
        fields_of(oid, self.items(oid))
            .filter(move |t| t.attr().as_str() == attr)
            .map(|t| t.value())
    }

    /// True when the object of `oid` was fetched without a field (nothing
    /// is stored under its oid).
    pub fn is_empty(&self, oid: &str) -> bool {
        fields_of(oid, self.items(oid)).next().is_none()
    }

    /// The object of `oid` as it was fetched: the oid and a copy of every
    /// field, ordered by attribute name, equal names in arrival order.
    pub fn materialize(&self, oid: &str) -> Object {
        let fields =
            fields_of(oid, self.items(oid)).map(|t| (t.attr().clone(), t.value().to_value()));
        let mut fields: Vec<_> = fields.collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Object { oid: oid.to_string(), fields }
    }
}
