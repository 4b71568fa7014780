//! The overlay's structure, owned once: the partition cover, who sits in
//! which partition, and every peer's routing references.
//!
//! [`Topology`] is the paper's per-peer state minus the data, held once for
//! the whole network instead of once per peer:
//!
//! * π(p) is [`Topology::path`] — one path per *partition*, found through
//!   the peer → partition table.
//! * ρ(p, l) is [`Topology::refs`] — flat slices of one routing arena,
//!   indexed by peer id.
//! * σ(p) is [`Topology::members`] of the peer's partition, other than the
//!   peer itself.
//! * δ(p) is the partition's run, which the network keeps beside the
//!   topology, one per partition (see [`crate::store`]).
//!
//! Plus the one decision Algorithm 1 makes at every hop,
//! [`Topology::route_level`]. The [`Network`](crate::Network) holds one and
//! routes by it; message-level simulators clone it and route by the same
//! tables.

use crate::key::Key;
use crate::peer::PeerId;
use crate::trie::{is_complete_cover, subtree_range};
use rand::rngs::StdRng;
use rand::Rng;

/// Flattened routing tables of the whole network: ρ(p, l) for every peer
/// and level as slices of one arena — three flat vectors for the entire
/// network, no heap block per peer.
///
/// Layout: `refs` concatenates every level's references in (peer, level)
/// order. `slice_off[peer_first_level(p) + l]` is the start of ρ(p, l) in
/// `refs` (with a trailing sentinel), and `peer_off[p]` is peer `p`'s
/// first level index, so a peer at trie depth `d` contributes `d`
/// consecutive level slices.
///
/// Plain data, like the [`Topology`] it is part of.
#[derive(Debug, Clone, Default)]
pub struct RoutingArena {
    pub refs: Vec<PeerId>,
    pub slice_off: Vec<u32>,
    pub peer_off: Vec<u32>,
}

impl RoutingArena {
    /// ρ(p, l): the reference slice of peer `p` at level `l`.
    #[inline]
    pub fn refs(&self, p: PeerId, l: usize) -> &[PeerId] {
        let base = self.peer_off[p.index()] as usize + l;
        &self.refs[self.slice_off[base] as usize..self.slice_off[base + 1] as usize]
    }
}

/// The structure of an overlay network (see the module docs). The one a
/// network routes by is written only by its construction and its repair
/// pass. The tables are plain data so that a codec can spell them; they are
/// checked, against each other and against the stores, where they enter a
/// network image ([`NetworkState::new`](crate::NetworkState::new)).
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Sorted, prefix-free, complete partition paths.
    pub paths: Vec<Key>,
    /// Peers per partition (structural replicas).
    pub part_peers: Vec<Vec<PeerId>>,
    /// Peer → partition index.
    pub part_of: Vec<u32>,
    /// Flattened ρ(p, l) for every peer.
    pub routing: RoutingArena,
}

impl Topology {
    pub fn peer_count(&self) -> usize {
        self.part_of.len()
    }

    pub fn partition_count(&self) -> usize {
        self.paths.len()
    }

    /// Sorted partition paths (the global trie's leaves) — paths live once
    /// per partition, not once per peer.
    pub fn paths(&self) -> &[Key] {
        &self.paths
    }

    /// Index of the partition peer `p` belongs to.
    #[inline]
    pub fn partition_of(&self, p: PeerId) -> usize {
        self.part_of[p.index()] as usize
    }

    /// π(p): the path of peer `p`'s partition.
    #[inline]
    pub fn path(&self, p: PeerId) -> &Key {
        &self.paths[self.partition_of(p)]
    }

    /// ρ(p, l): peer `p`'s routing references at trie level `l`.
    #[inline]
    pub fn refs(&self, p: PeerId, l: usize) -> &[PeerId] {
        self.routing.refs(p, l)
    }

    /// The structural replicas of partition `part` (σ(p) is this list for
    /// `p`'s partition, minus `p`).
    #[inline]
    pub fn members(&self, part: usize) -> &[PeerId] {
        &self.part_peers[part]
    }

    /// Contiguous partition-index range `[s, e)` of the subtree under `key`.
    pub fn subtree_of(&self, key: &Key) -> (usize, usize) {
        subtree_range(&self.paths, key)
    }

    /// The decision Algorithm 1 makes when a query for `key` reaches
    /// `peer`: `None` when the peer is responsible (its path is a prefix of
    /// `key`, or extended by it), otherwise the first trie level at which
    /// path and key differ — the level whose references make progress.
    #[inline]
    pub fn route_level(&self, peer: PeerId, key: &Key) -> Option<usize> {
        let path = self.path(peer);
        // One is a prefix of the other exactly when they agree on every
        // bit both have.
        let l = path.common_prefix_len(key);
        (l < path.len().min(key.len())).then_some(l)
    }

    /// Rebuild the routing arena from the current membership: for every
    /// peer and level, up to `refs_per_level` distinct random peers from
    /// the complementary subtree.
    pub(crate) fn wire_routing(&mut self, refs_per_level: usize, rng: &mut StdRng) {
        let mut arena = RoutingArena {
            refs: Vec::new(),
            slice_off: vec![0],
            peer_off: Vec::with_capacity(self.part_of.len() + 1),
        };
        for &part in &self.part_of {
            arena.peer_off.push((arena.slice_off.len() - 1) as u32);
            let path = &self.paths[part as usize];
            for l in 0..path.len() {
                let comp = path.complement_at(l);
                let (s, e) = subtree_range(&self.paths, &comp);
                debug_assert!(e > s, "complete cover guarantees a complementary subtree");
                let level = arena.refs.len();
                let mut guard = 0;
                while arena.refs.len() - level < refs_per_level && guard < refs_per_level * 8 {
                    guard += 1;
                    let part = rng.gen_range(s..e);
                    let members = &self.part_peers[part];
                    if members.is_empty() {
                        continue; // a cover with more partitions than peers
                    }
                    let peer = members[rng.gen_range(0..members.len())];
                    if !arena.refs[level..].contains(&peer) {
                        arena.refs.push(peer);
                    }
                }
                arena.slice_off.push(arena.refs.len() as u32);
            }
        }
        arena.peer_off.push((arena.slice_off.len() - 1) as u32);
        self.routing = arena;
    }

    /// The topology's share of [`Network::check_invariants`](crate::Network::check_invariants):
    /// cover, membership, routing. A reference of level `l` into the
    /// complementary subtree agrees with the key in one more bit than the
    /// peer holding it, which is why routing ends.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        let peers = self.part_of.len();
        if !self.paths.windows(2).all(|w| w[0] < w[1]) || !is_complete_cover(&self.paths) {
            return Err("the partition paths are not a sorted complete cover");
        }
        if self.part_peers.len() != self.paths.len() {
            return Err("the member lists are not one per partition");
        }
        // As many memberships as peers, each peer holding one of them where
        // it points: no room for a stranger, a duplicate or a second home.
        let home = |p: usize| self.part_peers.get(self.part_of[p] as usize);
        if self.part_peers.iter().map(Vec::len).sum::<usize>() != peers
            || !(0..peers).all(|p| home(p).is_some_and(|m| m.contains(&PeerId(p as u32))))
        {
            return Err("membership and the peer-to-partition table disagree");
        }
        let arena = &self.routing;
        if arena.peer_off.len() != peers + 1 {
            return Err("the routing arena is not one entry per peer");
        }
        for (&first, &part) in arena.peer_off.iter().zip(&self.part_of) {
            let path = &self.paths[part as usize];
            let first = first as usize;
            let Some(offs) = arena.slice_off.get(first..=first + path.len()) else {
                return Err("a peer's routing levels overrun the offset table");
            };
            for (l, level) in offs.windows(2).enumerate() {
                let Some(refs) = arena.refs.get(level[0] as usize..level[1] as usize) else {
                    return Err("routing offsets descend or overrun the references");
                };
                let complementary = |q: &PeerId| {
                    let theirs = self.part_of.get(q.index()).map(|p| &self.paths[*p as usize]);
                    theirs.is_some_and(|t| t.len() > l && t.common_prefix_len(path) == l)
                };
                if !refs.iter().all(complementary) {
                    return Err("a routing reference leaves the complementary subtree");
                }
            }
        }
        Ok(())
    }
}
