//! Property tests for the overlay's one write path: `SortedStore::merge`
//! against a `BTreeMap` reference, `Network::insert_groups` against
//! `insert_batch` of the same publications flattened, against the same
//! publications made one at a time and against a network built on all of
//! them at once — with the recruitments a publication into a gap makes —
//! and the weighted `build_partitions` against the splitter that looked at
//! one key per posting.

use proptest::prelude::*;
use sqo_overlay::key::Key;
use sqo_overlay::network::{Network, NetworkConfig};
use sqo_overlay::peer::Item;
use sqo_overlay::trie::{build_partitions, partition_loads, MAX_PATH_BITS};
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

/// Keys of 0 to 9 bits: short enough to collide often, to be prefixes of
/// one another, and to fall short of a trie a few levels deep.
fn key() -> impl Strategy<Value = Key> {
    prop::collection::vec(any::<bool>(), 0..10).prop_map(Key::from_bits)
}

/// Publications numbered from `first`, so every item is distinct and the
/// order within a key is checkable.
fn numbered(keys: Vec<Key>, first: usize) -> Vec<(Key, S)> {
    keys.into_iter().enumerate().map(|(i, k)| (k, S((first + i) as u32))).collect()
}

/// The publications as `insert_groups` takes them: a run, one entry per
/// distinct key, keys ascending, publication order within a key.
fn groups(batch: &[(Key, S)]) -> SortedStore<S> {
    SortedStore::from_pairs(batch.to_vec())
}

/// The splitter as it was when it looked at one key per posting: sort them
/// all, a partition's load is the length of its stretch.
fn per_posting_partitions(mut keys: Vec<Key>, target: usize) -> Vec<Key> {
    keys.sort_unstable();
    // (load, shallower first, smaller path first) — a max-heap by hand.
    let mut open: Vec<(Key, usize, usize)> = vec![(Key::empty(), 0, keys.len())];
    let mut done: Vec<Key> = Vec::new();
    while open.len() + done.len() < target {
        let Some(top) = (0..open.len()).max_by(|&a, &b| {
            let ((pa, la, ha), (pb, lb, hb)) = (&open[a], &open[b]);
            (ha - la, pb.len(), pb).cmp(&(hb - lb, pa.len(), pa))
        }) else {
            break;
        };
        let (path, lo, hi) = open.swap_remove(top);
        if hi - lo <= 1 || path.len() >= MAX_PATH_BITS || keys[lo] == keys[hi - 1] {
            done.push(path);
            continue;
        }
        let depth = path.len();
        let split = keys[lo..hi].partition_point(|k| k.len() <= depth || !k.bit(depth)) + lo;
        open.push((path.child(false), lo, split));
        open.push((path.child(true), split, hi));
    }
    let mut paths: Vec<Key> = done.into_iter().chain(open.into_iter().map(|c| c.0)).collect();
    paths.sort_unstable();
    paths
}

/// A lent stretch of a run: its entry count and its items. Items are
/// numbered apart, so the items of a stretch name its entries.
fn lent(run: Stretch<'_, S>) -> (usize, Vec<S>) {
    (run.entries, run.items.to_vec())
}

/// The same of `run`'s range `[lo, hi]`.
fn in_range(run: &SortedStore<S>, lo: &Key, hi: &Key) -> (usize, Vec<S>) {
    let entries = run.range_entries(lo, hi);
    (entries.len(), run.items()[run.item_range(entries)].to_vec())
}

/// The same of the reference's entries.
fn want<'a>(entries: impl Iterator<Item = (&'a Key, &'a Vec<S>)>) -> (usize, Vec<S>) {
    entries.fold((0, Vec::new()), |(n, mut items), (_, more)| {
        items.extend(more.iter().cloned());
        (n + 1, items)
    })
}

/// Everything a snapshot would write, and so everything two networks can
/// differ in: cover, membership, routing, the runs entry for entry, epoch,
/// counters, RNG position.
fn image(net: &Network<S>) -> String {
    format!("{:?}", net.export_state())
}

/// What the network stores, and nothing of who stores it: the runs entry
/// for entry, the epoch and the unstored count.
fn data(net: &Network<S>) -> String {
    let state = net.export_state();
    format!("{:?} {} {}", state.stores(), net.cache_epoch(), net.unstored_items())
}

proptest! {
    /// Merging batch after batch equals extending a `BTreeMap<Key, Vec>`:
    /// same entries in the same order, publication order within a key —
    /// and after every merge the three scans delimit exactly what the map
    /// holds, for hits of no, one and many entries, in the middle of the
    /// run and running to its end. A reader holding the run from before a
    /// merge still sees the run as it was.
    #[test]
    fn merge_equals_a_btreemap_and_scans_delimit_exactly(
        batches in prop::collection::vec(prop::collection::vec((key(), 1usize..4), 0..12), 1..8),
        probes in prop::collection::vec(key(), 1..12),
    ) {
        let mut run: PartitionStore<S> = PartitionStore::default();
        let mut map: BTreeMap<Key, Vec<S>> = BTreeMap::new();
        let mut next = 0u32;
        for batch in batches {
            // Every publication numbered apart: what `merge` takes is their run.
            let mut pairs = Vec::new();
            for (k, n) in batch {
                for _ in 0..n {
                    map.entry(k.clone()).or_default().push(S(next));
                    pairs.push((k.clone(), S(next)));
                    next += 1;
                }
            }
            let held = run.clone();
            let was = format!("{held:?}");
            run.merge(SortedStore::from_pairs(pairs));

            let stored: Vec<(Key, Vec<S>)> =
                run.iter().map(|(k, items)| (k.to_key(), items.to_vec())).collect();
            let reference: Vec<(Key, Vec<S>)> = map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(stored, reference);
            prop_assert_eq!(run.len(), map.len());
            prop_assert_eq!((run.len(), run.items().to_vec()), want(map.iter()));
            prop_assert_eq!(format!("{held:?}"), was, "a reader's run changed");

            for p in probes.iter().chain(map.keys()).chain([&Key::empty()]) {
                let under = want(map.iter().filter(|(k, _)| p.is_prefix_of(k)));
                prop_assert_eq!(lent(run.prefix_entries(p)), under, "prefix {}", p);
                prop_assert_eq!(run.exact_entry(p).map(<[S]>::to_vec), map.get(p).cloned());
                for q in &probes {
                    let (lo, hi) = if p <= q { (p, q) } else { (q, p) };
                    let within = want(map.range((Bound::Included(lo), Bound::Included(hi))));
                    prop_assert_eq!(in_range(&run, lo, hi), within, "range {}..={}", lo, hi);
                }
            }
        }
    }

    /// A batch of groups equals the flat batch, equals its publications
    /// made one by one, and equals having been there from the build, flat
    /// or grouped — with duplicate keys, keys shorter than the trie depth
    /// (stored by every peered partition of their subtree, each run its own
    /// copy) and one to four replicas per partition. The base leaves gaps
    /// the batch publishes into, and each recruits a member.
    ///
    /// Who is recruited depends on the order the gaps are reached in, so
    /// the whole snapshot image — membership and routing included — is
    /// equal where the publications reach the network in key order: as a
    /// batch, as groups and one by one in key order. Published one by one in
    /// any order, or there from the build, the network stores the same:
    /// the same runs, epoch, and nothing unstored.
    #[test]
    fn a_batch_equals_its_items_one_by_one_and_the_build_on_all_of_them(
        base in prop::collection::vec(key(), 0..60),
        batch in prop::collection::vec(key(), 0..60),
        partitions in 1usize..12,
        replication in 1usize..5,
        seed in 0u64..50,
    ) {
        let (base, batch) = (numbered(base.clone(), 0), numbered(batch, base.len()));
        let cfg = NetworkConfig { peers: partitions * replication, replication, seed, ..Default::default() };
        let all = [base.clone(), batch.clone()].concat();
        let built = Network::build(cfg.clone(), all.clone());
        let built_grouped = Network::build_groups(cfg.clone(), groups(&all));
        // The same cover for all: the one the full data set grew.
        let grown = || Network::build_with_paths(cfg.clone(), built.paths().to_vec(), base.clone());

        let mut batched = grown();
        prop_assert_eq!(batched.insert_batch(batch.clone()), 0);
        let mut in_groups = grown();
        prop_assert_eq!(in_groups.insert_groups(groups(&batch)), 0);
        // An empty batch publishes nothing, not even an epoch step.
        prop_assert_eq!(in_groups.insert_groups(SortedStore::default()), 0);
        let mut in_key_order = grown();
        let mut sorted = batch.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, item) in sorted {
            in_key_order.insert_item(k, item);
        }
        let mut one_by_one = grown();
        for (k, item) in batch {
            one_by_one.insert_item(k, item);
        }

        prop_assert_eq!(image(&built_grouped), image(&built));
        for net in [&in_groups, &in_key_order] {
            prop_assert_eq!(image(net), image(&batched));
        }
        for net in [&built_grouped, &batched, &in_groups, &in_key_order, &one_by_one] {
            prop_assert_eq!(data(net), data(&built));
            prop_assert_eq!(net.check_invariants(), Ok(()));
            prop_assert_eq!(net.unstored_items(), 0);
            // Every partition the build gave members has some, and no other.
            for part in 0..built.partition_count() {
                prop_assert_eq!(
                    net.partition_members(part).is_empty(),
                    built.partition_members(part).is_empty()
                );
            }
        }
        // Redundant coverage is a copy per run: every peered partition
        // under a short key holds the same items.
        for (k, _) in &base {
            let (s, e) = built.subtree_of(k);
            let copies: Vec<_> = built
                .topology()
                .peered_in(s, e)
                .iter()
                .map(|p| built.partition_store(*p as usize).exact_entry(k).expect("stored"))
                .collect();
            prop_assert!(copies.iter().all(|items| *items == copies[0]));
        }
    }

    /// The same equivalence on a cover with a gap no member can be
    /// recruited into (a cover with more partitions holding data than
    /// peers: the dealing runs out before the last one, and no partition
    /// has a member to spare): publications whose subtree is, or includes,
    /// the gap skip it and land everywhere else — and a publication whose
    /// *whole* subtree is the gap, which no peer stores, is counted out to
    /// the caller, and kept by the network, instead of vanishing.
    #[test]
    fn a_peerless_gap_partition_takes_nothing_and_breaks_nothing(
        base in prop::collection::vec(key(), 0..40),
        batch in prop::collection::vec(key(), 0..40),
        seed in 0u64..50,
    ) {
        let paths: Vec<Key> = ["000", "001", "01", "10", "11"].map(Key::parse).to_vec();
        // Every partition holds data; four peers for five of them: one
        // each, none left for "11", and none to spare for it later.
        const GAP: usize = 4;
        let cfg = NetworkConfig { peers: paths.len() - 1, seed, ..Default::default() };
        let mut base = base;
        base.extend(["0000", "0010", "010", "100", "110"].map(Key::parse));
        let (base, batch) = (numbered(base.clone(), 0), numbered(batch, base.len()));
        let on = |data: Vec<(Key, S)>| Network::build_with_paths(cfg.clone(), paths.clone(), data);

        let built = on([base.clone(), batch.clone()].concat());
        prop_assert!(built.partition_members(GAP).is_empty(), "the gap stayed peerless");
        let swallowed =
            |data: &[(Key, S)]| data.iter().filter(|(k, _)| built.subtree_of(k) == (GAP, GAP + 1)).count();
        let lost = swallowed(&batch);
        let mut batched = on(base.clone());
        prop_assert_eq!(batched.insert_batch(batch.clone()), lost);
        let mut in_groups = on(base.clone());
        prop_assert_eq!(in_groups.insert_groups(groups(&batch)), lost);
        let mut one_by_one = on(base.clone());
        let singly: usize = batch.iter().cloned().map(|(k, item)| one_by_one.insert_item(k, item)).sum();
        prop_assert_eq!(singly, lost);
        // The network keeps the count, the build's share included: exactly
        // what the gap swallowed, however the postings came in.
        for net in [&built, &batched, &in_groups, &one_by_one] {
            prop_assert_eq!(net.unstored_items(), (swallowed(&base) + lost) as u64);
            prop_assert_eq!(net.cache_epoch(), built.cache_epoch());
            prop_assert_eq!(image(net), image(&built));
        }
        prop_assert_eq!(built.check_invariants(), Ok(()));

        // Every publication is stored by every peered partition it covers.
        for (k, item) in &batch {
            let (s, e) = built.subtree_of(k);
            for part in (s..e).filter(|p| *p != GAP) {
                let store = built.partition_store(part);
                prop_assert!(store.prefix_entries(k).items.contains(item));
            }
        }
    }

    /// Splitting on the distinct keys, each weighing its postings, grows
    /// the cover that splitting on one key per posting grew: same loads,
    /// same split points, same paths — for heavy keys, keys that are
    /// prefixes of one another and targets past what the data can fill.
    /// The loads it reports are the ones an explicit cover is dealt by.
    #[test]
    fn weighted_partitions_are_the_per_posting_partitions(
        keys in prop::collection::vec((key(), 1usize..6), 0..40),
        target in 1usize..24,
    ) {
        let mut weight: BTreeMap<Key, usize> = BTreeMap::new();
        for (k, n) in &keys {
            *weight.entry(k.clone()).or_default() += n;
        }
        let weighted: Vec<_> = weight.iter().map(|(k, n)| (k.as_ref(), *n)).collect();
        let per_posting: Vec<Key> =
            keys.iter().flat_map(|(k, n)| std::iter::repeat_n(k.clone(), *n)).collect();
        let (paths, loads) = build_partitions(&weighted, target);
        prop_assert_eq!(&paths, &per_posting_partitions(per_posting, target));
        prop_assert_eq!(loads.iter().sum::<usize>(), keys.iter().map(|(_, n)| n).sum::<usize>());
        prop_assert_eq!(loads, partition_loads(&paths, &weighted));
    }
}
