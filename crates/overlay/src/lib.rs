//! # sqo-overlay — the P-Grid substrate
//!
//! A from-scratch implementation of the P-Grid distributed hash table
//! (Aberer et al. \[1, 2\]) as used by the paper: a binary-trie key space
//! with order-preserving hashing, prefix routing (Algorithm 1 of the paper),
//! structural replication, and shower-style range queries (Datta et al.
//! \[6\]) — wrapped in a deterministic shared-memory simulator that accounts
//! every message and byte, reproducing the measurement methodology of the
//! paper's evaluation (§6).
//!
//! Layering:
//!
//! * [`key`] — arbitrary-length binary keys with the prefix algebra.
//! * [`hash`] — order- and prefix-preserving hashing of strings and numbers.
//! * [`trie`] — construction of a load-balanced partition cover.
//! * [`peer`] — [`PeerId`] and the [`Item`] trait.
//! * [`topology`] — the paper's π(p)/ρ(p,l)/σ(p) for the whole network in
//!   one structure, and Algorithm 1's per-hop decision over it.
//! * [`store`] — δ(p), one per partition: sorted runs laid out as flat
//!   arrays (one key arena, a span and an end offset per key, one item
//!   array in key order); a scan lends a slice of the items, and a write is
//!   one merge of a batch that is itself a run.
//! * [`snapshot`] — [`NetworkState`], the network's data: configuration,
//!   topology, churn flags, stores, counters, RNG. What a checkpoint
//!   clones, and valid whenever it exists.
//! * [`network`] — the simulator, a [`NetworkState`] plus its observers:
//!   the one write path
//!   ([`Network::insert_groups`]), routing, retrieval, range queries,
//!   delegation primitives, churn.
//! * [`metrics`] — message/bandwidth accounting.
//! * [`clock`] — the virtual-time hook: an [`EventSink`] installed on the
//!   network turns hop counts into simulated latency (implemented by
//!   `sqo-sim`).
//!
//! [`Network`] stays generic over its item type. Its one production item is
//! `sqo_storage::Posting`, but `sqo-storage` depends on this crate for
//! [`Key`], so this crate cannot name `Posting` without moving crates — a
//! move that deletes nothing. The other instantiations are the tests' small
//! items.

pub mod clock;
pub mod hash;
pub mod key;
pub mod metrics;
pub mod network;
pub mod peer;
pub mod snapshot;
pub mod store;
pub mod topology;
pub mod trie;

pub use clock::{
    EventSink, MsgKind, SharedTraceSink, SimLatency, TraceEvent, TraceSink, TraceTrack, TraceValue,
};
pub use key::{Key, KeyRef};
pub use metrics::Metrics;
pub use network::{ItemRun, Network, NetworkConfig, RepairReport, ReplicationPolicy, RouteError};
pub use peer::{Item, PeerId};
pub use snapshot::NetworkState;
pub use store::{HeldRun, PartitionStore, SortedStore, Stretch};
pub use topology::{RoutingArena, Topology};

/// The partition point of `run` under `pred`, found by doubling from the
/// front and bisecting the last stride: twice log₂ of the answer instead of
/// log₂ of the run, for an answer known to be near the front.
#[inline]
pub(crate) fn gallop<E>(run: &[E], pred: impl Fn(&E) -> bool) -> usize {
    let mut bound = 1;
    while bound <= run.len() && pred(&run[bound - 1]) {
        bound *= 2;
    }
    // `run[bound / 2 - 1]` passed, `run[bound - 1]` failed or is past the end.
    let (lo, hi) = (bound / 2, run.len().min(bound - 1));
    lo + run[lo..hi].partition_point(pred)
}

/// [`gallop`] from the back: the same partition point, for an answer known
/// to be near the end.
#[inline]
pub(crate) fn gallop_back<E>(run: &[E], pred: impl Fn(&E) -> bool) -> usize {
    let n = run.len();
    let mut bound = 1;
    while bound <= n && !pred(&run[n - bound]) {
        bound *= 2;
    }
    // `run[n - bound / 2]` failed, `run[n - bound]` passed or is before the start.
    let (lo, hi) = ((n + 1).saturating_sub(bound), n - bound / 2);
    lo + run[lo..hi].partition_point(pred)
}

#[cfg(test)]
mod tests {
    use super::{gallop, gallop_back};

    #[test]
    fn both_gallops_find_every_partition_point() {
        for n in 0..70 {
            let run: Vec<usize> = (0..n).collect();
            for at in 0..=n {
                assert_eq!(gallop(&run, |x| *x < at), at, "from the front, {at} of {n}");
                assert_eq!(gallop_back(&run, |x| *x < at), at, "from the back, {at} of {n}");
            }
        }
    }
}
