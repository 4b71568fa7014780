//! Peer state: a dense id, a churn flag, and a shared store handle.
//!
//! The seed kept the full P-Grid state — path π(p), routing table ρ(p, l),
//! replica set σ(p), store δ(p) — as owned fields of every peer, which at
//! replication `k` materialized every partition's data and path `k` times.
//! The compact layout moves everything shareable out of the peer; the
//! structural part lives in the network's [`Topology`](crate::Topology):
//!
//! * π(p) is [`Topology::path`](crate::Topology::path) — one path per
//!   *partition*, found through the peer → partition table.
//! * ρ(p, l) is [`Topology::refs`](crate::Topology::refs) — flat slices of
//!   one routing arena, indexed by peer id.
//! * σ(p) is [`Topology::members`](crate::Topology::members) of the peer's
//!   partition, other than the peer itself.
//! * δ(p) is a [`PartitionStore`] — an `Arc` handle onto the partition's
//!   sorted run, shared by all structural replicas and by every snapshot
//!   taken of the network (see [`crate::store`]); the run holds its keys
//!   in one buffer of its own, and the network writes it one merge per
//!   batch ([`Network::insert_batch`](crate::Network::insert_batch)).
//!
//! What remains per peer is a few machine words, so 10⁶ peers cost
//! megabytes, not gigabytes.

use crate::key::Key;
use crate::store::{run_items, PartitionStore};

/// Dense peer identifier (index into the network's peer table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

impl PeerId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Anything storable in the overlay. The byte size feeds the data-volume
/// accounting; items are cheap to clone (payloads are typically `Arc`ed).
pub trait Item: Clone {
    /// Serialized size in bytes, as charged to result messages.
    fn size_bytes(&self) -> usize;
}

/// A peer of the overlay network (compact form — see the module docs for
/// where the rest of the paper's per-peer state lives).
#[derive(Debug, Clone)]
pub struct Peer<T> {
    pub id: PeerId,
    /// δ(p): handle onto the partition's shared sorted run.
    pub store: PartitionStore<T>,
    /// Churn flag; dead peers neither answer nor forward.
    pub alive: bool,
}

impl<T: Item> Peer<T> {
    /// Number of items whose key has `key` as a prefix, without cloning
    /// them — free local introspection for cardinality estimation.
    pub fn count_prefix(&self, key: &Key) -> usize {
        run_items(self.store.prefix_entries(key)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_str;
    use std::sync::Arc;

    #[derive(Debug, Clone, PartialEq)]
    struct S(&'static str);
    impl Item for S {
        fn size_bytes(&self) -> usize {
            self.0.len()
        }
    }

    fn insert(p: &mut Peer<S>, w: &'static str) {
        p.store.merge(vec![(hash_str(w), Arc::new(vec![S(w)]))], false);
    }

    fn peer() -> Peer<S> {
        let mut p = Peer { id: PeerId(0), store: PartitionStore::default(), alive: true };
        for w in ["alpha", "alpine", "beta", "alp", "gamma"] {
            insert(&mut p, w);
        }
        p
    }

    #[test]
    fn prefix_scan_matches_extension_semantics() {
        let p = peer();
        let run = p.store.prefix_entries(&hash_str("alp"));
        let names: Vec<_> = run_items(run).map(|s| s.0).collect();
        assert_eq!(names, vec!["alp", "alpha", "alpine"]);
        assert_eq!(run.len(), 3);
    }

    #[test]
    fn exact_scan() {
        let p = peer();
        assert_eq!(**p.store.exact_entry(&hash_str("beta")).unwrap(), vec![S("beta")]);
        assert!(p.store.exact_entry(&hash_str("delta")).is_none());
    }

    #[test]
    fn range_scan_inclusive() {
        let p = peer();
        let hits = p.store.range_entries(&hash_str("alpha"), &hash_str("beta"));
        let mut names: Vec<_> = run_items(hits).map(|s| s.0).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["alpha", "alpine", "beta"]);
    }

    #[test]
    fn multiple_items_same_key() {
        let mut p = peer();
        insert(&mut p, "beta");
        assert_eq!(p.store.exact_entry(&hash_str("beta")).unwrap().len(), 2);
        assert_eq!(p.store.item_count(), 6);
    }

    #[test]
    fn stored_bytes_sums_payloads() {
        let p = peer();
        assert_eq!(
            p.store.stored_bytes(),
            ("alpha".len() + "alpine".len() + "beta".len() + "alp".len() + "gamma".len()) as u64
        );
    }
}
