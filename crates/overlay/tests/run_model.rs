//! A partition's run against its model. A run is four arrays — key bytes,
//! one span and one end offset per key, one item array — and it stands for
//! a `BTreeMap<Key, Vec<T>>`: random sequences of merges into several runs
//! at once, a key shorter than a run's path going into every run under it,
//! must leave each run its map entry for entry, and every scan must lend
//! exactly the map's items and count exactly its entries. The one
//! constructor from arrays, `SortedStore::from_parts`, must accept exactly
//! the arrays that are a run. Within a key a run keeps its items in rank
//! order, older items first among equal ranks — through merges, from
//! arrays, and on every write path of a network. Every scan's payload —
//! what a reply of its whole entries ships, one subtraction of the run's
//! cumulative column — must be the model's items' sizes summed one by one,
//! through merges, splits and `from_parts` round trips alike.

use proptest::prelude::*;
use sqo_overlay::key::Key;
use sqo_overlay::peer::Item;
use sqo_overlay::{Network, NetworkConfig, ReplicationPolicy};
use sqo_overlay::{PartitionStore, SortedStore, Stretch};
use std::collections::BTreeMap;
use std::ops::Bound;

/// A numbered item of 1 to 7 bytes, so that payloads tell items apart.
#[derive(Debug, Clone, PartialEq, Eq)]
struct S(u32);
impl Item for S {
    fn size_bytes(&self) -> usize {
        1 + self.0 as usize % 7
    }
}

/// The model's payload: each item's size, summed one by one.
fn bytes(items: &[S]) -> usize {
    items.iter().map(Item::size_bytes).sum()
}

type Model = BTreeMap<Key, Vec<S>>;

/// A numbered item with a rank of its own: ranks of a few values, so that
/// the items of a key both tie and differ.
#[derive(Debug, Clone, PartialEq, Eq)]
struct R(u32, u8);
impl Item for R {
    fn size_bytes(&self) -> usize {
        4
    }
    fn rank(&self) -> u64 {
        u64::from(self.1)
    }
}

/// Publish `item` under `key` in the model of a ranked run: behind every
/// item of the key whose rank is not greater.
fn publish(model: &mut BTreeMap<Key, Vec<R>>, key: &Key, item: R) {
    let items = model.entry(key.clone()).or_default();
    let at = items.partition_point(|held| held.1 <= item.1);
    items.insert(at, item);
}

/// Keys of 0 to 9 bits: prefixes of one another, of different lengths, and
/// short of the paths below.
fn key() -> impl Strategy<Value = Key> {
    prop::collection::vec(any::<bool>(), 0..10).prop_map(Key::from_bits)
}

/// A complete cover of one to eight paths, grown by splitting the leaf each
/// choice names: the partitions whose runs are merged into.
fn cover() -> impl Strategy<Value = Vec<Key>> {
    prop::collection::vec(any::<usize>(), 0..7).prop_map(|choices| {
        let mut leaves = vec![Key::empty()];
        for c in choices {
            let leaf = leaves.swap_remove(c % leaves.len());
            leaves.extend([leaf.child(false), leaf.child(true)]);
        }
        leaves.sort_unstable();
        leaves
    })
}

/// What a stretch lends: its entry count and its items.
fn lent(run: Stretch<'_, S>) -> (usize, Vec<S>) {
    (run.entries, run.items.to_vec())
}

/// The same of `run`'s range `[lo, hi]`.
fn in_range(run: &SortedStore<S>, lo: &Key, hi: &Key) -> (usize, Vec<S>) {
    let entries = run.range_entries(lo, hi);
    (entries.len(), run.items()[run.item_range(entries)].to_vec())
}

/// The same of the model's entries.
fn want<'a>(entries: impl Iterator<Item = (&'a Key, &'a Vec<S>)>) -> (usize, Vec<S>) {
    entries.fold((0, Vec::new()), |(n, mut items), (_, more)| {
        items.extend(more.iter().cloned());
        (n + 1, items)
    })
}

/// The `len` bits of the key packed at byte `off` of `bytes`, and whether
/// its padding bits are clear — `None` when the bytes run out.
fn unpack(bytes: &[u8], off: usize, len: u32) -> Option<(Vec<bool>, bool)> {
    let n = (len as usize).div_ceil(8);
    let packed = bytes.get(off..off + n)?;
    let all: Vec<bool> = (0..n * 8).map(|i| packed[i / 8] >> (7 - i % 8) & 1 == 1).collect();
    let clean = !all[len as usize..].contains(&true);
    Some((all[..len as usize].to_vec(), clean))
}

/// The arrays are a run, by a reading of its invariant that shares no code
/// with the store: one end per key, rising strictly from above 0 to the
/// item count; keys tiling the bytes, padding clear, strictly ascending as
/// bit strings (a prefix before its extensions).
fn well_formed(bytes: &[u8], bits: &[u32], ends: &[u32], items: usize) -> bool {
    let rising = ends.iter().zip(std::iter::once(&0).chain(ends)).all(|(e, before)| e > before);
    if bits.len() != ends.len() || !rising || ends.last().map_or(0, |e| *e as usize) != items {
        return false;
    }
    let (mut off, mut last): (usize, Option<Vec<bool>>) = (0, None);
    for &len in bits {
        let Some((key, clean)) = unpack(bytes, off, len) else { return false };
        if !clean || last.as_ref().is_some_and(|last| *last >= key) {
            return false;
        }
        off += (len as usize).div_ceil(8);
        last = Some(key);
    }
    off == bytes.len()
}

/// A run's arrays, as a snapshot writes them.
fn arrays(run: &SortedStore<S>) -> (Vec<u8>, Vec<u32>, Vec<u32>, Vec<S>) {
    let bits = run.keys().map(|k| k.len() as u32).collect();
    (run.key_bytes().to_vec(), bits, run.ends().to_vec(), run.items().to_vec())
}

/// Every scan of `run` against `model`, for every probe: `prefix_entries`,
/// `prefix_entries_from` with one cursor carried through the probes in
/// ascending order, `exact_entry`, and `range_entries` between each two —
/// each with its payload — and the run's `stored_bytes`.
fn scans_agree(run: &SortedStore<S>, model: &Model, probes: &[Key]) {
    let mut probes: Vec<Key> = probes.iter().chain(model.keys()).cloned().collect();
    probes.push(Key::empty());
    probes.sort_unstable();
    let mut cursor = 0;
    for p in &probes {
        let under = want(model.iter().filter(|(k, _)| p.is_prefix_of(k)));
        prop_assert_eq!(run.payload(run.entries_under(p.as_ref())), bytes(&under.1), "{}", p);
        prop_assert_eq!(lent(run.prefix_entries(p)), under.clone(), "prefix {}", p);
        prop_assert_eq!(lent(run.prefix_entries_from(p, &mut cursor)), under, "from {}", p);
        prop_assert_eq!(run.exact_entry(p).map(<[S]>::to_vec), model.get(p).cloned());
        let exact = run.entry_index(p.as_ref()).map(|at| run.payload(at..at + 1));
        prop_assert_eq!(exact, model.get(p).map(|items| bytes(items)), "exact {}", p);
        for q in probes.iter().filter(|q| p <= *q) {
            let within = want(model.range((Bound::Included(p), Bound::Included(q))));
            let payload = run.payload(run.range_entries(p, q));
            prop_assert_eq!(payload, bytes(&within.1), "range payload {}..={}", p, q);
            prop_assert_eq!(in_range(run, p, q), within, "range {}..={}", p, q);
        }
    }
    prop_assert_eq!(run.stored_bytes(), bytes(&want(model.iter()).1) as u64);
}

proptest! {
    /// Batch after batch — new keys, more items under stored keys, keys
    /// that are prefixes of one another, empty batches and batches of one
    /// key — merged into the runs of a cover, a key going to every run
    /// whose path it is prefix-related to (so a key shorter than a path
    /// lands in several runs): each run is its model entry for entry, with
    /// every scan lending the model's items and counting its entries and
    /// payloads. A reader holding a run from before a merge keeps what it
    /// held, and a batch split anywhere and merged as its two halves is the
    /// same merge. Each run, its payload column built, split anywhere is two
    /// runs whose scans are the model's halves; made again from its arrays,
    /// it is its model too.
    #[test]
    fn merges_into_several_runs_are_their_models(
        paths in cover(),
        batches in prop::collection::vec(prop::collection::vec((key(), 1usize..3), 0..10), 1..6),
        probes in prop::collection::vec(key(), 0..8),
        split in any::<usize>(),
    ) {
        let mut runs: Vec<PartitionStore<S>> = vec![PartitionStore::default(); paths.len()];
        let mut models: Vec<Model> = vec![Model::new(); paths.len()];
        let mut next = 0u32;
        for batch in batches {
            let mut pairs: Vec<(Key, S)> = Vec::new();
            for (k, n) in batch {
                for _ in 0..n {
                    pairs.push((k.clone(), S(next)));
                    next += 1;
                }
            }
            for (part, path) in paths.iter().enumerate() {
                let mine: Vec<(Key, S)> = pairs
                    .iter()
                    .filter(|(k, _)| path.is_prefix_of(k) || k.is_prefix_of(path))
                    .cloned()
                    .collect();
                for (k, item) in &mine {
                    models[part].entry(k.clone()).or_default().push(item.clone());
                }
                let held = runs[part].clone();
                let was = format!("{held:?}");
                let sub = SortedStore::from_pairs(mine);
                // The same batch, split and merged half by half, into a copy.
                let mut halves = SortedStore::clone(&runs[part]);
                let (mut head, at) = (sub.clone(), split % (sub.len() + 1));
                let tail = head.split_off(at);
                halves.merge(head);
                halves.merge(tail);
                runs[part].merge(sub);
                prop_assert_eq!(format!("{held:?}"), was, "a reader's run changed");
                prop_assert_eq!(format!("{halves:?}"), format!("{:?}", *runs[part]));

                let run: &SortedStore<S> = &runs[part];
                let model = &models[part];
                let entries: Vec<(Key, Vec<S>)> =
                    run.iter().map(|(k, items)| (k.to_key(), items.to_vec())).collect();
                let reference: Vec<(Key, Vec<S>)> =
                    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                prop_assert_eq!(entries, reference);
                prop_assert_eq!((run.len(), run.items().to_vec()), want(model.iter()));
                prop_assert_eq!(run.item_count(), run.items().len());
                scans_agree(run, model, &probes);
                let (mut head, at) = (run.clone(), split % (run.len() + 1));
                let tail = head.split_off(at);
                let half = |r: std::ops::Range<usize>| -> Model {
                    model.iter().take(r.end).skip(r.start).map(|(k, v)| (k.clone(), v.clone())).collect()
                };
                scans_agree(&head, &half(0..at), &probes);
                scans_agree(&tail, &half(at..run.len()), &probes);
                let (key_bytes, bits, ends, items) = arrays(run);
                let copy = SortedStore::from_parts(key_bytes, &bits, ends, items);
                prop_assert_eq!(format!("{copy:?}"), format!("Some({run:?})"));
                scans_agree(&copy.expect("a run's own arrays"), model, &probes);
            }
        }
    }

    /// `from_parts` accepts exactly the well-formed arrays: a run's own
    /// arrays, and those arrays after one random edit — an end moved, two
    /// ends swapped, a key's bit length changed, a byte dropped or a bit
    /// flipped, an item added or dropped, two keys' bytes swapped, the last
    /// end or bit length dropped — each judged by a reading of the
    /// invariant that shares no code with the store. What it accepts reads
    /// back key for key and item for item.
    #[test]
    fn from_parts_accepts_exactly_the_well_formed_arrays(
        pairs in prop::collection::vec((key(), any::<u32>()), 0..12),
        edit in 0usize..10,
        at in any::<usize>(),
        by in any::<u32>(),
    ) {
        let run = SortedStore::from_pairs(pairs.into_iter().map(|(k, n)| (k, S(n))).collect());
        let (mut bytes, mut bits, mut ends, mut items) = arrays(&run);
        let n = bits.len();
        match edit {
            1 if n > 0 => ends[at % n] = by % (items.len() as u32 + 2),
            2 if n > 1 => ends.swap(at % (n - 1), at % (n - 1) + 1),
            3 if n > 0 => bits[at % n] = by % 24,
            4 if !bytes.is_empty() => {
                bytes.remove(at % bytes.len());
            }
            5 if !bytes.is_empty() => {
                let i = at % bytes.len();
                bytes[i] ^= 1 << (by % 8);
            }
            6 if by % 2 == 0 => items.push(S(by)),
            6 => {
                items.pop();
            }
            7 if n > 1 && bits[0] == bits[1] => {
                let len = (bits[0] as usize).div_ceil(8);
                bytes[..2 * len].rotate_left(len);
            }
            8 => {
                ends.pop();
            }
            9 => {
                bits.pop();
            }
            _ => {}
        }
        let ok = well_formed(&bytes, &bits, &ends, items.len());
        let made = SortedStore::from_parts(bytes.clone(), &bits, ends.clone(), items.clone());
        prop_assert_eq!(made.is_some(), ok, "edit {} of {:?}", edit, run);
        if let Some(made) = made {
            let mut off = 0;
            for ((key, got), (len, end)) in made.iter().zip(bits.iter().zip(&ends)) {
                let (want_bits, _) = unpack(&bytes, off, *len).expect("well formed");
                prop_assert_eq!(key.to_key(), Key::from_bits(want_bits));
                off += (*len as usize).div_ceil(8);
                let start = *end as usize - got.len();
                prop_assert_eq!(got, &items[start..*end as usize]);
            }
            prop_assert_eq!(made.items(), &items[..]);
        }
    }

    /// Items whose ranks tie and differ, merged batch after batch (each
    /// batch a run, by `from_pairs`): each key's items ascend by rank, an
    /// older item ahead of a newer one of equal rank — the model inserts
    /// each publication behind every item of its key whose rank is not
    /// greater. A batch split anywhere and merged as its two halves is the
    /// same merge. The run's arrays make the run again; with two
    /// neighbours of one entry and different ranks swapped they still make
    /// a run, and `ranked` — what an image's check asks of every run —
    /// says it is out of order.
    #[test]
    fn merges_keep_each_key_in_rank_order_older_items_first_on_ties(
        batches in prop::collection::vec(prop::collection::vec((key(), 0u8..3), 0..12), 1..6),
        split in any::<usize>(),
        swap in any::<usize>(),
    ) {
        let mut run: SortedStore<R> = SortedStore::default();
        let mut model: BTreeMap<Key, Vec<R>> = BTreeMap::new();
        let mut next = 0u32;
        for batch in batches {
            let mut pairs = Vec::new();
            for (k, rank) in batch {
                publish(&mut model, &k, R(next, rank));
                pairs.push((k, R(next, rank)));
                next += 1;
            }
            let sub = SortedStore::from_pairs(pairs);
            let mut halves = run.clone();
            let (mut head, at) = (sub.clone(), split % (sub.len() + 1));
            let tail = head.split_off(at);
            halves.merge(head);
            halves.merge(tail);
            run.merge(sub);
            prop_assert_eq!(format!("{halves:?}"), format!("{run:?}"));
            let entries: Vec<(Key, Vec<R>)> =
                run.iter().map(|(k, items)| (k.to_key(), items.to_vec())).collect();
            let reference: Vec<(Key, Vec<R>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(entries, reference);
            prop_assert!(run.ranked());
        }
        let bits: Vec<u32> = run.keys().map(|k| k.len() as u32).collect();
        let (bytes, ends, items) = (run.key_bytes().to_vec(), run.ends().to_vec(), run.items().to_vec());
        let copy = SortedStore::from_parts(bytes.clone(), &bits, ends.clone(), items.clone());
        prop_assert_eq!(format!("{copy:?}"), format!("Some({run:?})"));
        // Two neighbours of one entry whose ranks differ, if there are any.
        let starts: Vec<u32> = std::iter::once(0).chain(ends.iter().copied()).collect();
        let neighbours: Vec<usize> = (1..items.len())
            .filter(|i| !starts.contains(&(*i as u32)) && items[i - 1].1 != items[*i].1)
            .collect();
        if !neighbours.is_empty() {
            let at = neighbours[swap % neighbours.len()];
            let mut swapped = items;
            swapped.swap(at - 1, at);
            let made = SortedStore::from_parts(bytes, &bits, ends, swapped).expect("the arrays fit");
            prop_assert!(!made.ranked());
        }
    }

    /// Every write path of a network keeps the order: a batch, the same
    /// publications one at a time and a build on all of them store the
    /// same ordered lists; a publication into a gap recruits a member,
    /// whose run starts as a copy of the covering keys as they lie; and a
    /// repair, which moves members and never items, leaves every run as it
    /// was — each network passing its invariant check, rank order included.
    #[test]
    fn every_write_path_keeps_rank_order(
        base in prop::collection::vec((key(), 0u8..3), 0..40),
        batch in prop::collection::vec((key(), 0u8..3), 0..40),
        partitions in 1usize..10,
        replication in 2usize..4,
        seed in 0u64..50,
    ) {
        let numbered = |pubs: &[(Key, u8)], first: usize| -> Vec<(Key, R)> {
            pubs.iter().enumerate().map(|(i, (k, r))| (k.clone(), R((first + i) as u32, *r))).collect()
        };
        let (base, batch) = (numbered(&base, 0), numbered(&batch, base.len()));
        let cfg = NetworkConfig { peers: partitions * replication, replication, seed, ..Default::default() };
        let all = [base.clone(), batch.clone()].concat();
        let built = Network::build(cfg.clone(), all.clone());
        let grown = || Network::build_with_paths(cfg.clone(), built.paths().to_vec(), base.clone());
        let mut batched = grown();
        batched.insert_batch(batch.clone());
        let mut one_by_one = grown();
        for (k, item) in batch {
            one_by_one.insert_item(k, item);
        }
        let runs = |net: &Network<R>| format!("{:?}", net.export_state().stores());
        for net in [&batched, &one_by_one] {
            prop_assert_eq!(runs(net), runs(&built));
        }
        let mut model: BTreeMap<Key, Vec<R>> = BTreeMap::new();
        for (k, item) in &all {
            publish(&mut model, k, item.clone());
        }
        for net in [&built, &batched, &one_by_one] {
            prop_assert_eq!(net.check_invariants(), Ok(()));
            for part in 0..net.partition_count() {
                for (k, items) in net.partition_store(part).iter() {
                    prop_assert_eq!(Some(items), model.get(&k.to_key()).map(Vec::as_slice));
                }
            }
        }
        let before = runs(&batched);
        batched.fail_random_fraction(0.4);
        batched.repair_epoch(&ReplicationPolicy::at_least(replication));
        prop_assert_eq!(batched.check_invariants(), Ok(()));
        prop_assert_eq!(runs(&batched), before);
    }
}
