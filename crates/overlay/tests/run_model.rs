//! A partition's run against its model. A run is four arrays — key bytes,
//! one span and one end offset per key, one item array — and it stands for
//! a `BTreeMap<Key, Vec<T>>`: random sequences of merges into several runs
//! at once, a key shorter than a run's path going into every run under it,
//! must leave each run its map entry for entry, and every scan must lend
//! exactly the map's items and count exactly its entries. The one
//! constructor from arrays, `SortedStore::from_parts`, must accept exactly
//! the arrays that are a run.

use proptest::prelude::*;
use sqo_overlay::key::Key;
use sqo_overlay::peer::Item;
use sqo_overlay::{PartitionStore, SortedStore, Stretch};
use std::collections::BTreeMap;
use std::ops::Bound;

#[derive(Debug, Clone, PartialEq, Eq)]
struct S(u32);
impl Item for S {
    fn size_bytes(&self) -> usize {
        4
    }
}

type Model = BTreeMap<Key, Vec<S>>;

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
/// ascending order, `exact_entry`, and `range_entries` between each two.
fn scans_agree(run: &SortedStore<S>, model: &Model, probes: &[Key]) {
    let mut probes: Vec<Key> = probes.iter().chain(model.keys()).cloned().collect();
    probes.push(Key::empty());
    probes.sort_unstable();
    let mut cursor = 0;
    for p in &probes {
        let under = want(model.iter().filter(|(k, _)| p.is_prefix_of(k)));
        prop_assert_eq!(lent(run.prefix_entries(p)), under.clone(), "prefix {}", p);
        prop_assert_eq!(lent(run.prefix_entries_from(p, &mut cursor)), under, "from {}", p);
        prop_assert_eq!(run.exact_entry(p).map(<[S]>::to_vec), model.get(p).cloned());
        for q in probes.iter().filter(|q| p <= *q) {
            let within = want(model.range((Bound::Included(p), Bound::Included(q))));
            prop_assert_eq!(lent(run.range_entries(p, q)), within, "range {}..={}", p, q);
        }
    }
}

proptest! {
    /// Batch after batch — new keys, more items under stored keys, keys
    /// that are prefixes of one another, empty batches and batches of one
    /// key — merged into the runs of a cover, a key going to every run
    /// whose path it is prefix-related to (so a key shorter than a path
    /// lands in several runs): each run is its model entry for entry, with
    /// every scan lending the model's items and counting its entries. A
    /// reader holding a run from before a merge keeps what it held, and a
    /// batch split anywhere and merged as its two halves is the same merge.
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
                let (bytes, bits, ends, items) = arrays(run);
                let copy = SortedStore::from_parts(bytes, &bits, ends, items);
                prop_assert_eq!(format!("{copy:?}"), format!("Some({run:?})"));
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
}
