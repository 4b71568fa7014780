//! Gaps as a property. A partition that holds no data has no peer, and
//! nothing a caller sees may depend on it: a lookup answers what a
//! brute-force scan of every store answers, a key in a gap answers empty at
//! the cost of its route alone, a publication into a gap recruits a member
//! and is stored, every image passes the check a decoder runs, and a
//! partition's shower range is the subtree it names — on covers the
//! splitter grew and on explicit ones.

use proptest::prelude::*;
use sqo_overlay::key::Key;
use sqo_overlay::network::{Network, NetworkConfig};
use sqo_overlay::peer::{Item, PeerId};
use sqo_overlay::trie::partition_loads;
use sqo_overlay::NetworkState;
use std::collections::BTreeSet;

#[derive(Debug, Clone, PartialEq, Eq)]
struct S(u32);
impl Item for S {
    fn size_bytes(&self) -> usize {
        4
    }
}

/// Keys of 0 to 11 bits: prefixes of one another, short of the trie depth,
/// and crowded enough that a cover has siblings holding nothing.
fn key() -> impl Strategy<Value = Key> {
    prop::collection::vec(any::<bool>(), 0..12).prop_map(Key::from_bits)
}

/// A complete cover grown by splitting the leaf each choice names.
fn cover() -> impl Strategy<Value = Vec<Key>> {
    prop::collection::vec(any::<usize>(), 0..10).prop_map(|choices| {
        let mut leaves = vec![Key::empty()];
        for c in choices {
            let leaf = leaves.swap_remove(c % leaves.len());
            leaves.extend([leaf.child(false), leaf.child(true)]);
        }
        leaves.sort_unstable();
        leaves
    })
}

fn numbered(keys: Vec<Key>, first: usize) -> Vec<(Key, S)> {
    keys.into_iter().enumerate().map(|(i, k)| (k, S((first + i) as u32))).collect()
}

/// Every item under `key` in any store, partition by partition.
fn brute(net: &Network<S>, key: &Key) -> Vec<u32> {
    let stores = (0..net.partition_count()).map(|part| net.partition_store(part));
    stores.flat_map(|store| store.prefix_entries(key).items.iter().map(|s| s.0)).collect()
}

/// Every distinct item any store holds.
fn held(net: &Network<S>) -> BTreeSet<u32> {
    brute(net, &Key::empty()).into_iter().collect()
}

/// The network's image taken apart and put together the way a decoder
/// does: through the one constructor, which checks it.
fn decoded(net: &Network<S>) -> Result<NetworkState<S>, &'static str> {
    let state = net.export_state();
    let stores = (0..net.partition_count()).map(|part| net.partition_store(part).clone());
    NetworkState::new(
        state.config().clone(),
        state.topology().clone(),
        state.alive().to_vec(),
        stores.collect(),
        *state.metrics(),
        state.next_trace_query(),
        state.cache_epoch(),
        state.rng_words(),
    )
}

/// Look `key` up from `from`: the answer equals the brute-force scan, and a
/// key whose subtree is all gaps costs its route and nothing else.
fn look_up(net: &mut Network<S>, from: PeerId, key: &Key) {
    let before = *net.metrics();
    let got: Vec<u32> =
        net.retrieve_list(from, key).expect("nobody is dead").iter().map(|s| s.0).collect();
    prop_assert_eq!(&got, &brute(net, key), "retrieve {} from {:?}", key, from);
    let spent = net.metrics().delta(&before);
    prop_assert_eq!(spent.failed_routes, 0);
    let (s, e) = net.subtree_of(key);
    if net.topology().peered_in(s, e).is_empty() {
        prop_assert!(got.is_empty());
        prop_assert_eq!(spent.messages, spent.route_hops, "a gap is sent nothing");
    }
}

proptest! {
    /// Worlds with gaps — grown by the splitter or dealt on an explicit
    /// cover, one to three replicas, one to three references per level —
    /// answer every lookup as the stores do, before and after a batch that
    /// publishes into gaps; the batch is stored whenever there are as many
    /// peers as partitions (a surplus member for every gap); and every
    /// image passes the decoder's check.
    #[test]
    fn lookups_and_publications_see_through_gaps(
        base in prop::collection::vec(key(), 0..50),
        batch in prop::collection::vec(key(), 0..30),
        probes in prop::collection::vec(key(), 0..10),
        explicit in prop::option::of(cover()),
        peers in 1usize..40,
        replication in 1usize..4,
        refs_per_level in 1usize..4,
        seed in 0u64..50,
    ) {
        let (base, batch) = (numbered(base.clone(), 0), numbered(batch, base.len()));
        let cfg = NetworkConfig { peers, replication, refs_per_level, seed, ..Default::default() };
        let mut net = match explicit.clone() {
            Some(paths) => Network::build_with_paths(cfg, paths, base.clone()),
            None => Network::build(cfg, base.clone()),
        };
        let parts = net.partition_count();
        prop_assert_eq!(decoded(&net).err(), None);

        // Peers sit where the data is: a gap holds nothing; on a grown
        // cover every peer holds something (unless nothing was published).
        let mut sorted = base.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let keys: Vec<_> = sorted.chunk_by(|a, b| a.0 == b.0).map(|g| (g[0].0.as_ref(), g.len())).collect();
        let loads = partition_loads(net.paths(), &keys);
        for (part, load) in loads.iter().enumerate() {
            let members = net.partition_members(part).len();
            prop_assert!(members > 0 || net.partition_store(part).is_empty(), "a gap holds nothing");
            prop_assert!(members == 0 || *load > 0 || base.is_empty(), "peers on an empty partition");
        }
        // The replica count follows the load: a partition holding data has
        // `replication` members while the peers last, and a partition got
        // a member beyond those only while its load per member was the
        // largest — no later than any other partition's.
        let bearing = loads.iter().filter(|l| **l > 0).count();
        for a in 0..parts {
            let (ma, la) = (net.partition_members(a).len(), loads[a]);
            prop_assert!(la == 0 || ma >= replication || peers < bearing * replication);
            for b in (0..parts).filter(|b| net.partition_members(*b).len() > replication) {
                let (mb, lb) = (net.partition_members(b).len(), loads[b]);
                prop_assert!(la == 0 || lb * ma >= la * (mb - 1), "{} over {}", b, a);
            }
        }

        let initiators = [PeerId(0), PeerId((peers / 2) as u32), PeerId(peers as u32 - 1)];
        let gaps: Vec<Key> = (0..parts)
            .filter(|p| net.partition_members(*p).is_empty())
            .map(|p| net.paths()[p].child(true))
            .collect();
        let lookups: Vec<Key> =
            base.iter().chain(&batch).map(|(k, _)| k.clone()).chain(probes).chain(gaps).collect();
        for from in initiators {
            for k in &lookups {
                look_up(&mut net, from, k);
            }
        }

        let unstored_before = net.unstored_items();
        let lost = net.insert_batch(batch.clone());
        prop_assert_eq!(net.unstored_items(), unstored_before + lost as u64);
        if peers >= parts {
            prop_assert_eq!(net.unstored_items(), 0, "a member was there to recruit");
        }
        // Every item published is held somewhere or counted as unstored.
        prop_assert_eq!(held(&net).len() as u64 + net.unstored_items(), (base.len() + batch.len()) as u64);
        prop_assert_eq!(net.check_invariants(), Ok(()));
        prop_assert_eq!(decoded(&net).err(), None);
        for from in initiators {
            for k in &lookups {
                look_up(&mut net, from, k);
            }
        }
    }

    /// The check a decoder runs refuses a routing level emptied over a
    /// subtree that has members: an empty level reads as "nothing there",
    /// so such an image would answer wrongly.
    #[test]
    fn an_empty_level_over_a_peered_subtree_is_refused(
        base in prop::collection::vec(key(), 1..50),
        peers in 2usize..40,
        at in any::<usize>(),
        seed in 0u64..50,
    ) {
        let cfg = NetworkConfig { peers, seed, ..Default::default() };
        let net = Network::build(cfg, numbered(base, 0));
        let state = net.export_state();
        let mut topo = state.topology().clone();
        let arena = &mut topo.routing;
        let filled: Vec<usize> = (0..arena.slice_off.len() - 1)
            .filter(|l| arena.slice_off[l + 1] > arena.slice_off[*l])
            .collect();
        prop_assume!(!filled.is_empty());
        let level = filled[at % filled.len()];
        let (s, e) = (arena.slice_off[level] as usize, arena.slice_off[level + 1] as usize);
        arena.refs.drain(s..e);
        for off in &mut arena.slice_off[level + 1..] {
            *off -= (e - s) as u32;
        }
        let stores = (0..net.partition_count()).map(|part| net.partition_store(part).clone());
        let image = NetworkState::new(
            state.config().clone(),
            topo,
            state.alive().to_vec(),
            stores.collect(),
            *state.metrics(),
            state.next_trace_query(),
            state.cache_epoch(),
            state.rng_words(),
        );
        prop_assert_eq!(image.err(), Some("a routing level is empty over a peered subtree, or names a gap"));
    }

    /// A partition's shower range, galloped to from the partition, is the
    /// subtree under its path's prefix — for every partition and prefix
    /// length of grown and explicit covers with gaps.
    #[test]
    fn sharing_is_the_subtree_of_the_prefix(
        base in prop::collection::vec(key(), 0..50),
        explicit in prop::option::of(cover()),
        peers in 1usize..40,
    ) {
        let cfg = NetworkConfig { peers, ..Default::default() };
        let net = match explicit {
            Some(paths) => Network::build_with_paths(cfg, paths, numbered(base, 0)),
            None => Network::build(cfg, numbered(base, 0)),
        };
        let topo = net.topology();
        for (part, path) in topo.paths().iter().enumerate() {
            for bits in 0..=path.len() {
                prop_assert_eq!(
                    topo.sharing(part, bits),
                    topo.subtree_of(&path.prefix(bits)),
                    "{} at {} bits", path, bits
                );
            }
        }
    }
}

/// One recruitment in detail: four peers on a cover whose data sits under
/// "00" alone. A key under "11" answers empty from the first hop it cannot
/// take; published, it recruits the highest-id member of "00", which
/// answers for it from then on. A key shorter than the trie that covers
/// two gaps recruits into the first of them, and a later recruit into the
/// second starts with a copy of that key's items.
#[test]
fn a_publication_into_a_gap_recruits_and_is_found() {
    let paths: Vec<Key> = ["00", "01", "10", "11"].map(Key::parse).to_vec();
    let base = numbered(["000", "001", "0001"].map(Key::parse).to_vec(), 0);
    let cfg = NetworkConfig { peers: 4, seed: 3, ..Default::default() };
    let mut net = Network::build_with_paths(cfg, paths, base);
    assert_eq!(net.partition_members(0).len(), 4, "every peer where the data is");
    let far = Key::parse("1101");
    net.reset_metrics();
    assert!(net.retrieve_list(PeerId(0), &far).expect("answered").is_empty());
    assert_eq!(net.metrics().messages, 0, "level 0 of \"00\" has no reference: \"1\" is all gaps");

    assert_eq!(net.insert_item(Key::parse("1"), S(10)), 0);
    assert_eq!(net.partition_members(2), [PeerId(3)], "the short key recruits into \"10\"");
    assert_eq!(net.insert_item(far.clone(), S(11)), 0);
    assert_eq!(net.partition_members(3), [PeerId(2)], "the next highest-id member of \"00\"");
    assert_eq!(net.check_invariants(), Ok(()));
    let short =
        |part: usize| net.partition_store(part).exact_entry(&Key::parse("1")).map(<[S]>::to_vec);
    let (ten, eleven) = (short(2).expect("stored"), short(3).expect("copied on recruitment"));
    assert_eq!((ten.as_slice(), eleven.as_slice()), ([S(10)].as_slice(), [S(10)].as_slice()));

    net.reset_metrics();
    assert_eq!(net.retrieve_list(PeerId(0), &far).expect("answered"), [S(11)]);
    // Level 0 of "00" gained the first recruit, in "10", whose level 1
    // names the second.
    assert_eq!(net.metrics().route_hops, 2);
    assert_eq!(net.retrieve_list(PeerId(2), &far).expect("answered"), [S(11)]);
    assert!(net.partition_members(1).is_empty(), "nothing was published under \"01\"");
    assert_eq!(net.unstored_items(), 0);
}
