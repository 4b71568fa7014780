//! The overlay's structure, owned once: the partition cover, who sits in
//! which partition, and every peer's routing references.
//!
//! [`Topology`] is the paper's per-peer state minus the data — π(p) is
//! [`Topology::path`], ρ(p, l) is [`Topology::refs`], σ(p) is
//! [`Topology::members`] of the peer's partition — plus the one decision
//! Algorithm 1 makes at every hop, [`Topology::route_level`]. The
//! [`Network`](crate::Network) holds one and routes by it; message-level
//! simulators clone it and route by the same tables.

use crate::key::Key;
use crate::peer::PeerId;
use crate::trie::subtree_range;
use rand::rngs::StdRng;
use rand::Rng;
use smallvec::SmallVec;

/// Flattened routing tables of the whole network: ρ(p, l) for every peer
/// and level as slices of one arena, replacing the seed's per-peer
/// `Vec<SmallVec<PeerId>>` (two heap blocks per peer) with three flat
/// vectors for the entire network.
///
/// Layout: `refs` concatenates every level's references in (peer, level)
/// order. `slice_off[peer_first_level(p) + l]` is the start of ρ(p, l) in
/// `refs` (with a trailing sentinel), and `peer_off[p]` is peer `p`'s
/// first level index, so a peer at trie depth `d` contributes `d`
/// consecutive level slices.
#[derive(Debug, Clone, Default)]
pub struct RoutingArena {
    pub(crate) refs: Vec<PeerId>,
    pub(crate) slice_off: Vec<u32>,
    pub(crate) peer_off: Vec<u32>,
}

impl RoutingArena {
    /// ρ(p, l): the reference slice of peer `p` at level `l`.
    #[inline]
    pub fn refs(&self, p: PeerId, l: usize) -> &[PeerId] {
        let base = self.peer_off[p.index()] as usize + l;
        &self.refs[self.slice_off[base] as usize..self.slice_off[base + 1] as usize]
    }
}

/// The structure of an overlay network (see the module docs). Written only
/// by network construction, the repair pass and snapshot import.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Sorted, prefix-free, complete partition paths.
    pub(crate) paths: Vec<Key>,
    /// Peers per partition (structural replicas).
    pub(crate) part_peers: Vec<SmallVec<[PeerId; 4]>>,
    /// Peer → partition index.
    pub(crate) part_of: Vec<u32>,
    /// Flattened ρ(p, l) for every peer.
    pub(crate) routing: RoutingArena,
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
                let mut level_refs: SmallVec<[PeerId; 4]> = SmallVec::new();
                let mut guard = 0;
                while level_refs.len() < refs_per_level && guard < refs_per_level * 8 {
                    guard += 1;
                    let part = rng.gen_range(s..e);
                    let members = &self.part_peers[part];
                    if members.is_empty() {
                        continue; // peerless gap partition (bootstrap tries)
                    }
                    let peer = members[rng.gen_range(0..members.len())];
                    if !level_refs.contains(&peer) {
                        level_refs.push(peer);
                    }
                }
                arena.refs.extend_from_slice(&level_refs);
                arena.slice_off.push(arena.refs.len() as u32);
            }
        }
        arena.peer_off.push((arena.slice_off.len() - 1) as u32);
        self.routing = arena;
    }
}
