//! Property-based tests for the overlay substrate: key algebra, hashing,
//! trie construction and end-to-end retrieval.

use proptest::prelude::*;
use sqo_overlay::hash::{hash_i64, hash_str};
use sqo_overlay::key::{Key, KeyRef};
use sqo_overlay::network::{Network, NetworkConfig};
use sqo_overlay::peer::{Item, PeerId};
use sqo_overlay::trie::{build_partitions, find_partition, find_partition_from, is_complete_cover};
use sqo_overlay::{EventSink, MsgKind, SharedTraceSink, SimLatency};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct S(String);
impl Item for S {
    fn size_bytes(&self) -> usize {
        self.0.len()
    }
}

/// An event sink that only logs what it is charged.
#[derive(Default)]
struct ChargeLog {
    local_work: Rc<RefCell<Vec<(PeerId, u64)>>>,
    messages: Rc<RefCell<u64>>,
}
impl EventSink for ChargeLog {
    fn begin_query(&mut self) {}
    fn end_query(&mut self) -> SimLatency {
        SimLatency::default()
    }
    fn deliver(&mut self, _: PeerId, _: PeerId, _: usize, _: MsgKind, _: Option<&SharedTraceSink>) {
        *self.messages.borrow_mut() += 1;
    }
    fn local_work(&mut self, peer: PeerId, items: u64, _: Option<&SharedTraceSink>) {
        self.local_work.borrow_mut().push((peer, items));
    }
    fn fork(&mut self) {}
    fn branch(&mut self) {}
    fn join(&mut self) {}
    fn now_us(&self) -> u64 {
        0
    }
    fn reset_to_us(&mut self, _t_us: u64) {}
}

/// A complete cover split by hand: each path, depth first, splits while the
/// draws say so and it is shorter than `depth` bits. Sorted.
fn cover_of(splits: &[bool], depth: usize) -> Vec<Key> {
    let mut draws = splits.iter();
    let (mut open, mut leaves) = (vec![Key::empty()], Vec::new());
    while let Some(path) = open.pop() {
        if path.len() < depth && draws.next() == Some(&true) {
            open.extend([path.child(true), path.child(false)]);
        } else {
            leaves.push(path);
        }
    }
    leaves.sort_unstable();
    leaves
}

/// Locate ascending `keys` one after another, each from the previous one's
/// partition, and check every answer against `find_partition`.
fn assert_galloped_lookups(paths: &[Key], keys: &[Key]) {
    prop_assert!(is_complete_cover(paths));
    let mut part = 0;
    for key in keys {
        part = find_partition_from(paths, key.as_ref(), part);
        prop_assert_eq!(part, find_partition(paths, key), "key {}", key);
    }
}

fn bits() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), 0..40)
}

proptest! {
    /// Key ordering equals lexicographic ordering of the bit strings.
    #[test]
    fn key_order_is_bit_lexicographic(a in bits(), b in bits()) {
        let ka = Key::from_bits(a.iter().copied());
        let kb = Key::from_bits(b.iter().copied());
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
    }

    /// parse/to_bit_string round-trips, prefix() really truncates.
    #[test]
    fn key_roundtrip_and_prefix(a in bits(), l in 0usize..40) {
        let k = Key::from_bits(a.iter().copied());
        prop_assert_eq!(Key::parse(&k.to_bit_string()), k.clone());
        let l = l.min(a.len());
        let p = k.prefix(l);
        prop_assert_eq!(p.len(), l);
        prop_assert!(p.is_prefix_of(&k));
        prop_assert_eq!(k.common_prefix_len(&p), l);
    }

    /// concat, common_prefix_len and is_prefix_of equal their bit-string
    /// definitions on keys long enough for the word-wise compare, sharing a
    /// long prefix, with byte-aligned and unaligned operands.
    #[test]
    fn key_algebra_matches_the_bit_string_reference(
        shared in prop::collection::vec(any::<bool>(), 0..160),
        ta in prop::collection::vec(any::<bool>(), 0..40),
        tb in prop::collection::vec(any::<bool>(), 0..40),
        align in any::<bool>(),
    ) {
        let mut shared = shared;
        if align {
            shared.truncate(shared.len() / 8 * 8);
        }
        let (a, b) = ([&shared[..], &ta[..]].concat(), [&shared[..], &tb[..]].concat());
        let key = |bits: &[bool]| Key::from_bits(bits.iter().copied());
        let (ka, kb) = (key(&a), key(&b));

        prop_assert_eq!(key(&shared).concat(&key(&ta)), ka.clone());
        prop_assert_eq!(ka.concat(&kb), key(&[&a[..], &b[..]].concat()));

        let common = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
        prop_assert_eq!(ka.common_prefix_len(&kb), common);
        prop_assert_eq!(kb.common_prefix_len(&ka), common);
        prop_assert_eq!(ka.is_prefix_of(&kb), b.starts_with(&a));
        prop_assert!(key(&shared).is_prefix_of(&ka));
        if !a.is_empty() {
            // a with its last bit flipped differs from a in the padded byte.
            prop_assert!(!ka.complement_at(a.len() - 1).is_prefix_of(&ka));
        }
    }

    /// A borrowed view orders, equals and prefix-tests as the bit strings
    /// do — and so as `Key` does — when its bytes lie in a buffer shared
    /// with other keys, back to back as a run stores them: unaligned
    /// lengths, proper prefixes and the empty key included. A view is
    /// refused when the byte count is off or a padding bit is set.
    #[test]
    fn key_views_into_a_shared_buffer_agree_with_the_bit_strings(
        shared in prop::collection::vec(any::<bool>(), 0..100),
        tails in prop::collection::vec(prop::collection::vec(any::<bool>(), 0..20), 2..6),
        cut in 0usize..100,
    ) {
        // The shared prefix alone, a proper prefix of it, and extensions.
        let mut strings: Vec<Vec<bool>> =
            tails.iter().map(|t| [&shared[..], &t[..]].concat()).collect();
        strings.push(shared.clone());
        strings.push(shared[..cut.min(shared.len())].to_vec());
        let keys: Vec<Key> = strings.iter().map(|b| Key::from_bits(b.iter().copied())).collect();
        let mut buffer = Vec::new();
        let spans: Vec<(usize, usize)> = keys
            .iter()
            .map(|k| {
                buffer.extend_from_slice(k.as_bytes());
                (buffer.len() - k.as_bytes().len(), k.len())
            })
            .collect();
        let view = |i: usize| {
            let (off, bits) = spans[i];
            KeyRef::new(&buffer[off..off + bits.div_ceil(8)], bits).expect("a packed key")
        };
        for (i, a) in strings.iter().enumerate() {
            prop_assert_eq!(view(i), keys[i].as_ref());
            prop_assert_eq!(view(i).to_key(), keys[i].clone());
            prop_assert_eq!(view(i).to_string(), keys[i].to_string());
            for (j, b) in strings.iter().enumerate() {
                prop_assert_eq!(view(i).cmp(&view(j)), a.cmp(b));
                prop_assert_eq!(view(i) == view(j), a == b);
                prop_assert_eq!(view(i).is_prefix_of(view(j)), b.starts_with(a));
                let common = a.iter().zip(b).take_while(|(x, y)| x == y).count();
                prop_assert_eq!(view(i).common_prefix_len(view(j)), common);
                // …which is what the owned keys answer.
                prop_assert_eq!(keys[i].cmp(&keys[j]), a.cmp(b));
                prop_assert_eq!(keys[i].is_prefix_of(&keys[j]), b.starts_with(a));
            }
            let (off, bits) = spans[i];
            let bytes = &buffer[off..off + bits.div_ceil(8)];
            prop_assert!(KeyRef::new(bytes, bits + 8).is_none(), "a byte short");
            if bits % 8 != 0 {
                let mut dirty = bytes.to_vec();
                *dirty.last_mut().expect("bits > 0") |= 1;
                prop_assert!(KeyRef::new(&dirty, bits).is_none(), "a padding bit set");
            }
        }
    }

    /// common_prefix_len is symmetric and bounded by both lengths.
    #[test]
    fn common_prefix_symmetric(a in bits(), b in bits()) {
        let ka = Key::from_bits(a.iter().copied());
        let kb = Key::from_bits(b.iter().copied());
        let l = ka.common_prefix_len(&kb);
        prop_assert_eq!(l, kb.common_prefix_len(&ka));
        prop_assert!(l <= a.len().min(b.len()));
        if l < a.len().min(b.len()) {
            prop_assert_ne!(ka.bit(l), kb.bit(l));
        }
    }

    /// Order-preserving string hash: a <= b ⇒ key(a) <= key(b), and the
    /// prefix relation carries over.
    #[test]
    fn string_hash_preserves_order(a in "[a-z ]{0,20}", b in "[a-z ]{0,20}") {
        let (ka, kb) = (hash_str(&a), hash_str(&b));
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(ka <= kb),
            std::cmp::Ordering::Equal => prop_assert_eq!(&ka, &kb),
            std::cmp::Ordering::Greater => prop_assert!(ka >= kb),
        }
        if a.starts_with(&b) {
            prop_assert!(kb.is_prefix_of(&ka));
        }
    }

    /// Order-preserving integer hash.
    #[test]
    fn int_hash_preserves_order(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(hash_i64(a).cmp(&hash_i64(b)), a.cmp(&b));
    }

    /// Trie construction yields a complete prefix-free cover and
    /// find_partition always returns a covering partition.
    #[test]
    fn trie_cover_and_lookup(
        words in prop::collection::hash_set("[a-z]{1,8}", 1..60),
        target in 1usize..40,
    ) {
        let words: Vec<String> = words.into_iter().collect();
        let mut keys: Vec<Key> = words.iter().map(|w| hash_str(w)).collect();
        // Distinct words, but a word is a prefix-free key only up to the
        // hash's 32-byte cut: here always.
        keys.sort_unstable();
        let (paths, _) = build_partitions(&keys.iter().map(|k| (k.as_ref(), 1)).collect::<Vec<_>>(), target);
        prop_assert!(paths.len() <= target);
        prop_assert!(is_complete_cover(&paths));
        for k in &keys {
            let idx = find_partition(&paths, k);
            prop_assert!(
                paths[idx].is_prefix_of(k) || k.is_prefix_of(&paths[idx]),
                "partition {} does not cover key {}", paths[idx], k
            );
        }
    }

    /// Ascending keys located one after another, each galloping from the
    /// previous key's partition, land where `find_partition` puts them: on
    /// covers split by hand (down to 8 bits, leaves of every depth — gaps,
    /// whatever data there is) and on covers grown from words, with keys
    /// that repeat, keys shorter than the trie (proper prefixes of paths,
    /// the empty key among them) and keys deeper than it.
    #[test]
    fn galloped_partitions_are_find_partitions_of_ascending_keys(
        splits in prop::collection::vec(any::<bool>(), 0..64),
        tails in prop::collection::vec(prop::collection::vec(any::<bool>(), 0..14), 0..40),
        cuts in prop::collection::vec((0usize..256, 0usize..8), 0..12),
        words in prop::collection::hash_set("[a-c]{1,6}", 1..40),
        target in 1usize..24,
    ) {
        let explicit = cover_of(&splits, 8);
        let mut keys: Vec<Key> = tails.iter().map(|t| Key::from_bits(t.iter().copied())).collect();
        keys.extend(cuts.iter().map(|(at, cut)| {
            let path = &explicit[at % explicit.len()];
            path.prefix((*cut).min(path.len().saturating_sub(1)))
        }));
        keys.extend(keys.clone().into_iter().step_by(3));
        keys.sort_unstable();
        assert_galloped_lookups(&explicit, &keys);

        let words: Vec<String> = words.into_iter().collect();
        let mut data: Vec<Key> = words.iter().map(|w| hash_str(w)).collect();
        data.sort_unstable();
        let (grown, _) = build_partitions(&data.iter().map(|k| (k.as_ref(), 1)).collect::<Vec<_>>(), target);
        let mut keys: Vec<Key> = words
            .iter()
            .flat_map(|w| (0..=w.len()).map(move |n| hash_str(&w[..n])))
            .collect();
        keys.extend(data.iter().map(|k| k.prefix(k.len() / 2)));
        keys.sort_unstable();
        assert_galloped_lookups(&grown, &keys);
    }

    /// Ascending keys scanned one after another at one peer, the cursor
    /// carried from each scan to the next, lend the entries a fresh scan
    /// lends — the very same stretch of the run — and charge the same
    /// `touched` count, on repeated keys, keys with no entry and keys that
    /// are prefixes of several.
    #[test]
    fn scans_from_a_cursor_lend_and_charge_what_fresh_scans_do(
        words in prop::collection::vec("[a-c]{1,5}", 1..80),
        probes in prop::collection::vec("[a-d]{0,4}", 1..30),
        peers in 1usize..24,
        seed in 0u64..50,
        at in any::<u32>(),
    ) {
        let data: Vec<(Key, S)> = words.iter().map(|w| (hash_str(w), S(w.clone()))).collect();
        let cfg = NetworkConfig { peers, seed, ..Default::default() };
        let mut net = Network::build(cfg, data);
        let peer = PeerId(at % net.peer_count() as u32);
        let mut keys: Vec<Key> = probes.iter().map(|p| hash_str(p)).collect();
        keys.sort_unstable();

        let store = net.partition_store(net.peer_partition(peer)).clone();
        let mut cursor = 0;
        for key in &keys {
            let fresh = store.prefix_entries(key);
            let carried = store.prefix_entries_from(key, &mut cursor);
            prop_assert!(std::ptr::eq(fresh.items, carried.items), "{key}: another stretch of the run");
            prop_assert_eq!(fresh.entries, carried.entries);
        }
        let mut cursor = 0;
        for key in &keys {
            let before = *net.metrics();
            let fresh: Vec<S> = net.local_prefix_run(peer, key).to_vec();
            let touched = net.metrics().delta(&before).local_items_scanned;
            let before = *net.metrics();
            let carried: Vec<S> = net.local_prefix_run_from(peer, key, &mut cursor).to_vec();
            prop_assert_eq!(carried, fresh);
            prop_assert_eq!(net.metrics().delta(&before).local_items_scanned, touched);
        }
    }

    /// End-to-end: every inserted item is retrievable from any initiator,
    /// for arbitrary data and network sizes.
    #[test]
    fn retrieve_finds_everything(
        words in prop::collection::hash_set("[a-z]{1,10}", 1..40),
        peers in 1usize..50,
        seed in 0u64..100,
    ) {
        let words: Vec<String> = words.into_iter().collect();
        let data: Vec<(Key, S)> = words.iter().map(|w| (hash_str(w), S(w.clone()))).collect();
        let cfg = NetworkConfig { peers, seed, ..Default::default() };
        let mut net = Network::build(cfg, data);
        for w in &words {
            let from = net.random_peer();
            let got = net.retrieve_list(from, &hash_str(w)).expect("routing failed");
            prop_assert!(got.contains(&S(w.clone())), "missing {w}");
        }
    }

    /// The borrowing local scan lends out exactly what the store holds
    /// under the prefix — same items, same order — and charges exactly one
    /// local scan of `touched = entries` to the metrics and to the sink,
    /// with no message.
    #[test]
    fn local_prefix_run_lends_the_stored_entries_and_charges_one_scan(
        words in prop::collection::vec("[a-c]{1,5}", 1..80),
        prefix in "[a-c]{0,3}",
        peers in 1usize..40,
        replication in 1usize..4,
        seed in 0u64..50,
        at in any::<u32>(),
    ) {
        let data: Vec<(Key, S)> = words.iter().map(|w| (hash_str(w), S(w.clone()))).collect();
        let cfg = NetworkConfig { peers, replication, seed, ..Default::default() };
        let mut net = Network::build(cfg, data);
        let log = ChargeLog::default();
        let (work, messages) = (Rc::clone(&log.local_work), Rc::clone(&log.messages));
        net.set_event_sink(Box::new(log));
        let peer = PeerId(at % net.peer_count() as u32);
        let key = hash_str(&prefix);

        let stored = net.partition_store(net.peer_partition(peer)).prefix_entries(&key);
        let touched = stored.entries as u64;
        let expect: Vec<S> = stored.items.to_vec();
        prop_assert!(expect.iter().all(|s| s.0.starts_with(&prefix)));

        let before = *net.metrics();
        let lent: Vec<S> = net.local_prefix_run(peer, &key).to_vec();
        prop_assert_eq!(lent, expect);
        let delta = net.metrics().delta(&before);
        prop_assert_eq!(delta.local_items_scanned, touched);
        prop_assert_eq!((delta.messages, delta.bytes), (0, 0));
        prop_assert_eq!(&*work.borrow(), &vec![(peer, touched)]);
        prop_assert_eq!(*messages.borrow(), 0);
    }

    /// Replica fallback under heavy churn: kill up to all-but-one member of
    /// every partition — routing must still reach every partition (the
    /// surviving replica makes identical routing progress), and a gap's
    /// path still gets its answer, "nothing here", from an alive peer; then
    /// make some partitions extinct — routing to those must error, never
    /// land on a wrong peer.
    #[test]
    fn routing_replica_fallback_under_heavy_churn(
        words in prop::collection::hash_set("[a-z]{1,8}", 5..40),
        peers in 8usize..64,
        seed in 0u64..50,
        kills in prop::collection::vec(0usize..16, 1..64),
        extinct_mask in any::<u32>(),
    ) {
        let words: Vec<String> = words.into_iter().collect();
        let data: Vec<(Key, S)> = words.iter().map(|w| (hash_str(w), S(w.clone()))).collect();
        let cfg = NetworkConfig { peers, replication: 4, seed, ..Default::default() };
        let mut net = Network::build(cfg, data);
        let parts = net.partition_count();
        // Where a route may end: at an alive member of the key's partition,
        // or, for a gap, at an alive peer with nothing under the key.
        let lands_right = |net: &Network<S>, p: PeerId, part: usize, key: &Key| {
            let home = net.peer_partition(p);
            let gap = net.partition_members(part).is_empty();
            net.peer_alive(p)
                && if gap {
                    net.partition_store(home).prefix_entries(key).is_empty()
                } else {
                    home == part
                }
        };
        // Phase 1: per partition, kill up to all-but-one member.
        for part in 0..parts {
            let members = net.partition_members(part).to_vec();
            if members.is_empty() {
                continue; // a gap: nobody to kill
            }
            let kill = kills[part % kills.len()].min(members.len() - 1);
            for &m in members.iter().take(kill) {
                net.fail_peer(m);
            }
            prop_assert!(net.partition_alive(part) >= 1);
        }
        let from = net.random_alive_peer().expect("every partition kept a survivor");
        for part in 0..parts {
            let key = net.paths()[part].clone();
            let got = net.route(from, &key);
            match got {
                Ok(p) => prop_assert!(lands_right(&net, p, part, &key), "{part} routed to {p:?}"),
                Err(e) => prop_assert!(false, "partition {part} unreachable: {e}"),
            }
        }
        // Phase 2: make some partitions extinct (always sparing at least
        // one); routing to them must error — never return a wrong peer.
        let mut spared_any = false;
        let peered: Vec<usize> = (0..parts).filter(|p| !net.partition_members(*p).is_empty()).collect();
        for (i, &part) in peered.iter().enumerate() {
            if i + 1 == peered.len() && !spared_any {
                break;
            }
            if (extinct_mask >> (part % 32)) & 1 == 1 {
                net.fail_partition(part);
            } else {
                spared_any = true;
            }
        }
        let from = net.random_alive_peer().expect("a partition was spared");
        for part in 0..parts {
            let key = net.paths()[part].clone();
            // A routing error (NoAliveReference or PartitionDead) is an
            // honest failure; a success must land on an alive owner, or on
            // an alive peer answering for a gap.
            if let Ok(p) = net.route(from, &key) {
                prop_assert!(lands_right(&net, p, part, &key), "{part} routed to {p:?}");
                let gap = net.partition_members(part).is_empty();
                prop_assert!(gap || net.partition_alive(part) >= 1);
            }
        }
    }

    /// Range queries agree with the brute-force oracle.
    #[test]
    fn range_query_oracle(
        words in prop::collection::hash_set("[a-z]{1,6}", 1..40),
        lo in "[a-z]{0,6}",
        hi in "[a-z]{0,6}",
        peers in 1usize..30,
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let (klo, khi) = (hash_str(&lo), hash_str(&hi));
        let words: Vec<String> = words.into_iter().collect();
        let data: Vec<(Key, S)> = words.iter().map(|w| (hash_str(w), S(w.clone()))).collect();
        let cfg = NetworkConfig { peers, ..Default::default() };
        let mut net = Network::build(cfg, data);
        let from = net.random_peer();
        let runs = net.range_query(from, &klo, &khi).unwrap();
        let mut got: Vec<String> =
            runs.iter().flat_map(|r| net.run_items(r)).map(|s| s.0.clone()).collect();
        got.sort_unstable();
        got.dedup();
        let mut expect: Vec<String> = words
            .iter()
            .filter(|w| {
                let k = hash_str(w);
                k >= klo && k <= khi
            })
            .cloned()
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
