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
//! Peers go where the data is (`Topology::dealt`): a partition that holds
//! no key has no member. Such a **gap** is where the topology alone says
//! "nothing here": [`Topology::peered_in`] lists the partitions of a range
//! that have members, and a routing level has no reference exactly when
//! its complementary subtree is all gaps. Routing, showers and the
//! operators above read gaps there and nowhere else.
//!
//! Plus the one decision Algorithm 1 makes at every hop,
//! [`Topology::route_level`]. The [`Network`](crate::Network) holds one and
//! routes by it; message-level simulators clone it and route by the same
//! tables.

use crate::key::Key;
use crate::peer::PeerId;
use crate::trie::{is_complete_cover, subtree_range};
use crate::{gallop, gallop_back};
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// network routes by is written only by its construction, its repair pass
/// and a publication's recruitment. The tables are plain data so that a
/// codec can spell them; they are checked, against each other and against
/// the stores, where they enter a network image
/// ([`NetworkState::new`](crate::NetworkState::new)).
#[derive(Debug, Clone)]
pub struct Topology {
    /// Sorted, prefix-free, complete partition paths.
    pub paths: Vec<Key>,
    /// Peers per partition (structural replicas); empty for a gap.
    pub part_peers: Vec<Vec<PeerId>>,
    /// Peer → partition index.
    pub part_of: Vec<u32>,
    /// Flattened ρ(p, l) for every peer.
    pub routing: RoutingArena,
    /// The partitions with a member, ascending — derived from `part_peers`.
    peered: Vec<u32>,
    /// `peered_before[i]`: how many of the partitions before `i` have a
    /// member, for every `i` up to the partition count.
    peered_before: Vec<u32>,
}

/// A bearing partition in the surplus dealing: its load and members so far.
/// The greatest is the one with the largest load per member (compared
/// exactly, by cross-multiplication), ties to the lowest index.
#[derive(PartialEq, Eq)]
struct Share {
    load: usize,
    members: usize,
    part: usize,
}

impl Ord for Share {
    fn cmp(&self, other: &Self) -> Ordering {
        let (mine, theirs) =
            (self.load as u128 * other.members as u128, other.load as u128 * self.members as u128);
        mine.cmp(&theirs).then(other.part.cmp(&self.part))
    }
}

impl PartialOrd for Share {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Topology {
    /// A topology from its tables; the gap index is derived from
    /// `part_peers`. Nothing is checked here —
    /// [`NetworkState::new`](crate::NetworkState::new) checks what it is
    /// given.
    pub fn new(
        paths: Vec<Key>,
        part_peers: Vec<Vec<PeerId>>,
        part_of: Vec<u32>,
        routing: RoutingArena,
    ) -> Self {
        let mut topo =
            Topology { paths, part_peers, part_of, routing, peered: vec![], peered_before: vec![] };
        topo.reindex();
        topo
    }

    /// The one dealing rule: `peers` peers on the sorted cover `paths`
    /// whose partitions hold `loads` items. Every partition that holds data
    /// first gets `replication` members, in rounds over the partitions in
    /// order (fewer only when the peers run out); every further peer goes
    /// to the partition with the largest load per member, ties to the
    /// lowest index. A partition without load gets no peer — it is a gap —
    /// unless no partition holds data, when the first takes them all.
    /// Peer ids count up in dealing order. No routing is wired.
    pub(crate) fn dealt(
        paths: Vec<Key>,
        loads: &[usize],
        peers: usize,
        replication: usize,
    ) -> Self {
        debug_assert_eq!(paths.len(), loads.len());
        let mut bearing: Vec<usize> = (0..loads.len()).filter(|p| loads[*p] > 0).collect();
        if bearing.is_empty() {
            bearing.push(0);
        }
        let mut part_peers: Vec<Vec<PeerId>> = vec![Vec::new(); paths.len()];
        let mut part_of: Vec<u32> = Vec::with_capacity(peers);
        let deal = |part: usize, part_peers: &mut [Vec<PeerId>], part_of: &mut Vec<u32>| {
            part_peers[part].push(PeerId(part_of.len() as u32));
            part_of.push(part as u32);
        };
        for &part in bearing.iter().cycle().take(peers.min(bearing.len() * replication)) {
            deal(part, &mut part_peers, &mut part_of);
        }
        let mut shares: BinaryHeap<Share> = BinaryHeap::new();
        if part_of.len() < peers {
            shares.extend(bearing.iter().map(|&part| Share {
                load: loads[part],
                members: part_peers[part].len(),
                part,
            }));
        }
        while part_of.len() < peers {
            let mut top = shares.pop().expect("a bearing partition");
            deal(top.part, &mut part_peers, &mut part_of);
            top.members += 1;
            shares.push(top);
        }
        Self::new(paths, part_peers, part_of, RoutingArena::default())
    }

    /// Derive the gap index from `part_peers`, reusing its buffers.
    fn reindex(&mut self) {
        self.peered.clear();
        self.peered_before.clear();
        self.peered_before.push(0);
        for (part, members) in self.part_peers.iter().enumerate() {
            if !members.is_empty() {
                self.peered.push(part as u32);
            }
            self.peered_before.push(self.peered.len() as u32);
        }
    }

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

    /// ρ(p, l): peer `p`'s routing references at trie level `l`. Empty
    /// exactly when the complementary subtree at `l` is all gaps.
    #[inline]
    pub fn refs(&self, p: PeerId, l: usize) -> &[PeerId] {
        self.routing.refs(p, l)
    }

    /// The structural replicas of partition `part` (σ(p) is this list for
    /// `p`'s partition, minus `p`); empty for a gap.
    #[inline]
    pub fn members(&self, part: usize) -> &[PeerId] {
        &self.part_peers[part]
    }

    /// True when partition `part` has no member: it holds nothing, and
    /// nothing is sent there.
    #[inline]
    pub fn is_gap(&self, part: usize) -> bool {
        self.part_peers[part].is_empty()
    }

    /// The partitions of `[s, e)` that have a member, ascending — a range
    /// with its gaps left out, in O(1).
    #[inline]
    pub fn peered_in(&self, s: usize, e: usize) -> &[u32] {
        &self.peered[self.peered_before[s] as usize..self.peered_before[e] as usize]
    }

    /// Contiguous partition-index range `[s, e)` of the subtree under `key`.
    pub fn subtree_of(&self, key: &Key) -> (usize, usize) {
        subtree_range(&self.paths, key.as_ref())
    }

    /// The partition range `[s, e)` of the subtree under the first `bits`
    /// bits of partition `part`'s path: the partitions that share them —
    /// [`Self::subtree_of`] that prefix, found without building it. In
    /// sorted paths the common prefix with a fixed path falls monotonically
    /// on both sides of it, so the partitions sharing `bits` bits with it
    /// are a run around it. A prefix a few bits short of the path covers a
    /// handful of neighbours, so each end is galloped to outward from
    /// `part`: a few comparisons, not a bisection of the whole cover.
    pub fn sharing(&self, part: usize, bits: usize) -> (usize, usize) {
        let path = self.paths[part].as_ref();
        let shares = |p: &Key| p.as_ref().common_prefix_len(path) >= bits;
        let s = gallop_back(&self.paths[..part], |p| !shares(p));
        let e = part + 1 + gallop(&self.paths[part + 1..], shares);
        (s, e)
    }

    /// The partition range of the complementary subtree of partition
    /// `part` at level `l`: the partitions whose path agrees with the
    /// part's in exactly its first `l` bits — those sharing `l` bits less
    /// those sharing `l + 1`, on the side bit `l` does not take: two
    /// bisections on that side, where four would do both sides. A recruit
    /// wires its own levels by this; the wiring and the check of a whole
    /// topology sweep the cover instead (`Complements`), and are held to
    /// this.
    pub fn complement_of(&self, part: usize, l: usize) -> (usize, usize) {
        let path = self.paths[part].as_ref();
        let shares = |p: &Key, bits: usize| p.as_ref().common_prefix_len(path) >= bits;
        if path.bit(l) {
            let s = self.paths[..part].partition_point(|p| !shares(p, l));
            let e = s + self.paths[s..part].partition_point(|p| !shares(p, l + 1));
            (s, e)
        } else {
            let s = part + 1 + self.paths[part + 1..].partition_point(|p| shares(p, l + 1));
            let e = s + self.paths[s..].partition_point(|p| shares(p, l));
            (s, e)
        }
    }

    /// The decision Algorithm 1 makes when a query for `key` reaches
    /// `peer`: `None` when the peer is responsible (its path is a prefix of
    /// `key`, or extended by it), otherwise the first trie level at which
    /// path and key differ — the level whose references make progress, or
    /// whose empty reference slice says the key lies in a gap.
    #[inline]
    pub fn route_level(&self, peer: PeerId, key: &Key) -> Option<usize> {
        let path = self.path(peer);
        // One is a prefix of the other exactly when they agree on every
        // bit both have.
        let l = path.common_prefix_len(key);
        (l < path.len().min(key.len())).then_some(l)
    }

    /// Rebuild the routing arena from the current membership: for every
    /// peer and level, up to `refs_per_level` distinct random members of
    /// the peered partitions of the complementary subtree — none when it
    /// is all gaps. The subtrees come from one sweep of the cover
    /// (`Complements`), not from a search per partition and level.
    pub(crate) fn wire_routing(&mut self, refs_per_level: usize, rng: &mut StdRng) {
        self.reindex();
        let complements = Complements::of(self);
        let mut arena = RoutingArena {
            refs: Vec::new(),
            slice_off: vec![0],
            peer_off: Vec::with_capacity(self.part_of.len() + 1),
        };
        for &part in &self.part_of {
            arena.peer_off.push((arena.slice_off.len() - 1) as u32);
            for &(lo, hi) in complements.levels(part as usize) {
                let peered = &self.peered[lo as usize..hi as usize];
                let level = arena.refs.len();
                let mut guard = 0;
                while !peered.is_empty()
                    && arena.refs.len() - level < refs_per_level
                    && guard < refs_per_level * 8
                {
                    guard += 1;
                    let members = &self.part_peers[peered[rng.gen_range(0..peered.len())] as usize];
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

    /// Move peer `r` out of its partition, which keeps another member, into
    /// the gap `to`, and rewire without a random draw — so a publication
    /// recruits the same way whether it comes alone or in a batch:
    ///
    /// * `r`'s own levels name up to `refs_per_level` members of the peered
    ///   partitions of each complementary subtree, spread evenly over them;
    /// * a reference to `r` elsewhere becomes a member of its old partition
    ///   that the slice does not name yet (or goes, when there is none);
    /// * the one level of each other peer whose complementary subtree holds
    ///   `to` gains `r` if it had no reference — its subtree was all gaps.
    pub(crate) fn recruit(&mut self, r: PeerId, to: usize, refs_per_level: usize) {
        let from = self.partition_of(r);
        debug_assert!(self.is_gap(to) && self.part_peers[from].len() >= 2, "a donor keeps one");
        self.part_peers[from].retain(|p| *p != r);
        self.part_peers[to].push(r);
        self.part_of[r.index()] = to as u32;
        self.reindex();
        let RoutingArena { refs: old_refs, slice_off: old_off, peer_off: mut offs } =
            std::mem::take(&mut self.routing);
        let levels = self.paths[to].len();
        let mut refs = Vec::with_capacity(old_refs.len() + self.part_of.len() + levels);
        let mut slice_off = Vec::with_capacity(old_off.len() + levels);
        slice_off.push(0);
        for p in 0..self.part_of.len() {
            let first = offs[p] as usize;
            offs[p] = (slice_off.len() - 1) as u32;
            let part = self.part_of[p] as usize;
            if p == r.index() {
                for l in 0..levels {
                    let (s, e) = self.complement_of(to, l);
                    let peered = self.peered_in(s, e);
                    let level = refs.len();
                    for k in (0..refs_per_level).filter(|_| !peered.is_empty()) {
                        let members =
                            &self.part_peers[peered[k * peered.len() / refs_per_level] as usize];
                        let peer = members[(p + k) % members.len()];
                        if !refs[level..].contains(&peer) {
                            refs.push(peer);
                        }
                    }
                    slice_off.push(refs.len() as u32);
                }
                continue;
            }
            let meets = self.paths[part].common_prefix_len(&self.paths[to]);
            for l in 0..self.paths[part].len() {
                let old = &old_refs[old_off[first + l] as usize..old_off[first + l + 1] as usize];
                if old.is_empty() && l == meets {
                    refs.push(r);
                }
                for &q in old {
                    if q != r {
                        refs.push(q);
                    } else if let Some(&standin) =
                        self.part_peers[from].iter().find(|m| !old.contains(m))
                    {
                        refs.push(standin);
                    }
                }
                slice_off.push(refs.len() as u32);
            }
        }
        offs[self.part_of.len()] = (slice_off.len() - 1) as u32;
        self.routing = RoutingArena { refs, slice_off, peer_off: offs };
    }

    /// The topology's share of [`Network::check_invariants`](crate::Network::check_invariants):
    /// cover, membership, gap index, routing. A reference of level `l` into
    /// the complementary subtree agrees with the key in one more bit than
    /// the peer holding it, which is why routing ends; and a level has no
    /// reference exactly when that subtree has no member, which is why an
    /// empty level may answer "nothing here". The cover and the gap index
    /// are checked before the complementary subtrees are swept from them.
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
        let indexed = self.peered_before.len() == self.paths.len() + 1
            && self.peered_before.last().is_some_and(|n| *n as usize == self.peered.len())
            && (0..self.paths.len()).all(|part| {
                let before = self.peered_before[part] as usize;
                let here = self.peered_before[part + 1] as usize - before;
                here == usize::from(!self.is_gap(part))
                    && (here == 0 || self.peered[before] as usize == part)
            });
        if !indexed {
            return Err("the gap index disagrees with the membership");
        }
        let arena = &self.routing;
        if arena.peer_off.len() != peers + 1 {
            return Err("the routing arena is not one entry per peer");
        }
        let complements = Complements::of(self);
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
                let (lo, hi) = complements.levels(part as usize)[l];
                if refs.is_empty() != (lo == hi) {
                    return Err("a routing level is empty over a peered subtree, or names a gap");
                }
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

/// The peered partitions of each level's complementary subtree, for every
/// partition with members, as ranges into [`Topology::peered_in`]'s index:
/// all members of a partition route by the same levels, so the wiring and
/// the check, which read them once per peer and level, find them once per
/// partition — all of them in one sweep of the cover ([`Self::sweep`]).
struct Complements {
    /// Where each partition's levels start in `ranges` (a gap has none).
    first: Vec<u32>,
    ranges: Vec<(u32, u32)>,
}

/// A boundary between two neighbouring partitions, as the sweep's stack
/// holds it: one more than the bits the two paths share — 0 for an end of
/// the cover, which shares nothing with anything — and the index of the
/// partition right of it.
type Boundary = (u32, u32);

impl Complements {
    fn of(topo: &Topology) -> Self {
        let complements =
            Self::sweep(&topo.paths, |part| !topo.is_gap(part), |part| topo.peered_before[part]);
        debug_assert!((0..topo.paths.len()).filter(|p| !topo.is_gap(*p)).all(|part| {
            complements.levels(part).iter().enumerate().all(|(l, range)| {
                let (s, e) = topo.complement_of(part, l);
                *range == (topo.peered_before[s], topo.peered_before[e])
            })
        }));
        complements
    }

    /// Every level's complementary subtree of each partition of the sorted
    /// complete cover `paths` that `keep` takes, its two ends mapped through
    /// `at`. The partitions sharing the first `b` bits of a path are a run
    /// around it, and the run ends where a neighbouring pair shares fewer
    /// than `b` bits; so the common prefix of each neighbouring pair is
    /// computed once, and a monotonic stack of those pairs — the nearest
    /// pair sharing fewer bits than all pairs closer in — is swept once in
    /// each direction. Going right, the stack gives `L_b`, where the run of
    /// `b` shared bits starts, for every `b`; going left, `R_b`, where it
    /// ends. Level `l`'s complement is `[L_l, L_{l+1})` when bit `l` is 1,
    /// and `[R_{l+1}, R_l)` when it is 0: the work is one step per level,
    /// with no key compared.
    fn sweep(paths: &[Key], keep: impl Fn(usize) -> bool, at: impl Fn(usize) -> u32) -> Self {
        let n = paths.len();
        // `depth[i]`: the depth of the boundary before partition `i` (a
        // `Boundary`'s first field); `depth[0]` is never read.
        let depth: Vec<u32> = std::iter::once(0)
            .chain(paths.windows(2).map(|w| w[0].common_prefix_len(&w[1]) as u32 + 1))
            .collect();
        let mut first = Vec::with_capacity(n + 1);
        let mut levels = 0;
        for (part, path) in paths.iter().enumerate() {
            first.push(levels);
            if keep(part) {
                levels += u32::try_from(path.len()).expect("a path stays under 2^32 bits");
            }
        }
        first.push(levels);
        let mut ranges = vec![(0, 0); levels as usize];
        let mut stack: Vec<Boundary> = Vec::new();
        let mut fill = |part: usize, stack: &mut Vec<Boundary>, bit: bool| {
            let out = &mut ranges[first[part] as usize..first[part + 1] as usize];
            if out.is_empty() {
                return;
            }
            // The run of `b` shared bits ends at the top-most boundary that
            // shares fewer; `b` only falls, so the walk only goes down.
            let mut top = stack.len();
            let mut end = |b: usize| {
                while stack[top - 1].0 as usize > b {
                    top -= 1;
                }
                stack[top - 1].1 as usize
            };
            let path = &paths[part];
            let mut inner = end(path.len());
            for l in (0..path.len()).rev() {
                let outer = end(l);
                if path.bit(l) == bit {
                    let (s, e) = (inner.min(outer), inner.max(outer));
                    out[l] = (at(s), at(e));
                }
                inner = outer;
            }
        };
        let push = |stack: &mut Vec<Boundary>, boundary: Boundary| {
            while stack.last().is_some_and(|top| top.0 >= boundary.0) {
                stack.pop();
            }
            stack.push(boundary);
        };
        // Rightward: the levels whose bit is 1, complemented on the left.
        stack.push((0, 0));
        for (part, &before) in depth.iter().enumerate() {
            if part > 0 {
                push(&mut stack, (before, part as u32));
            }
            fill(part, &mut stack, true);
        }
        // Leftward: the levels whose bit is 0, complemented on the right.
        stack.clear();
        stack.push((0, n as u32));
        for part in (0..n).rev() {
            if let Some(&after) = depth.get(part + 1) {
                push(&mut stack, (after, part as u32 + 1));
            }
            fill(part, &mut stack, false);
        }
        Complements { first, ranges }
    }

    /// The levels of the peered partition `part`, by level.
    fn levels(&self, part: usize) -> &[(u32, u32)] {
        &self.ranges[self.first[part] as usize..self.first[part + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cover() -> Vec<Key> {
        ["000", "0010", "0011", "01", "100", "101", "11"].map(Key::parse).to_vec()
    }

    #[test]
    fn the_complement_is_found_without_building_its_path() {
        let paths = cover();
        let topo = Topology::new(
            paths.clone(),
            vec![vec![]; paths.len()],
            vec![],
            RoutingArena::default(),
        );
        for (part, path) in paths.iter().enumerate() {
            for l in 0..path.len() {
                assert_eq!(
                    topo.complement_of(part, l),
                    subtree_range(&paths, path.complement_at(l).as_ref()),
                    "{path} at level {l}"
                );
            }
        }
    }

    /// A complete cover of one of four shapes: the root alone, its two
    /// children, a trie grown by splitting the leaf each choice names, and
    /// a spine of 64 to 103 levels turning as `turns` says, with the same
    /// splits hung on it.
    fn shaped_cover(shape: usize, choices: &[usize], turns: u64) -> Vec<Key> {
        let mut leaves = match shape % 4 {
            0 => return vec![Key::empty()],
            1 => return vec![Key::parse("0"), Key::parse("1")],
            2 => vec![Key::empty()],
            _ => {
                let (mut leaves, mut node) = (vec![], Key::empty());
                for l in 0..64 + turns as usize % 40 {
                    let turn = turns.rotate_right(l as u32) & 1 == 1;
                    leaves.push(node.child(!turn));
                    node = node.child(turn);
                }
                leaves.push(node);
                leaves
            }
        };
        for c in choices {
            let leaf = leaves.swap_remove(c % leaves.len());
            leaves.extend([leaf.child(false), leaf.child(true)]);
        }
        leaves.sort_unstable();
        leaves
    }

    proptest::proptest! {
        /// The sweep is the search it replaced: for every partition of a
        /// cover and every level, the swept range is `complement_of`'s —
        /// by partition over the whole cover, and through the gap index
        /// with the gaps left out.
        #[test]
        fn the_swept_complements_are_the_searched_ones(
            shape in 0usize..4,
            choices in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..40),
            turns in proptest::prelude::any::<u64>(),
            gaps in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..8),
        ) {
            let paths = shaped_cover(shape, &choices, turns);
            let part_peers: Vec<Vec<PeerId>> = (0..paths.len())
                .map(|p| if gaps[p % gaps.len()] { vec![] } else { vec![PeerId(p as u32)] })
                .collect();
            let topo = Topology::new(paths.clone(), part_peers, vec![], RoutingArena::default());
            let every = Complements::sweep(&paths, |_| true, |part| part as u32);
            let peered = Complements::of(&topo);
            for (part, path) in paths.iter().enumerate() {
                proptest::prop_assert_eq!(every.levels(part).len(), path.len());
                for (l, range) in every.levels(part).iter().enumerate() {
                    let (s, e) = topo.complement_of(part, l);
                    proptest::prop_assert_eq!(*range, (s as u32, e as u32), "{} at {}", path, l);
                }
                let mapped: Vec<(u32, u32)> = if topo.is_gap(part) {
                    vec![]
                } else {
                    let at = |p: u32| topo.peered_before[p as usize];
                    every.levels(part).iter().map(|(s, e)| (at(*s), at(*e))).collect()
                };
                proptest::prop_assert_eq!(peered.levels(part), mapped.as_slice());
            }
        }
    }

    #[test]
    fn peers_go_where_the_data_is() {
        let loads = [6, 0, 3, 0, 0, 9, 1];
        let topo = Topology::dealt(cover(), &loads, 10, 1);
        let counts: Vec<usize> = (0..7).map(|p| topo.members(p).len()).collect();
        // One each for the four bearing partitions, then six by load per
        // member: 9/1, 6/1, 9/2, and then 6/2 = 3/1 = 9/3, served in index
        // order.
        assert_eq!(counts, [3, 0, 2, 0, 0, 4, 1]);
        assert_eq!(topo.peered_in(0, 7), [0, 2, 5, 6]);
        assert_eq!(topo.peered_in(1, 5), [2]);
        assert!(topo.peered_in(3, 5).is_empty());
        assert!(topo.is_gap(1) && !topo.is_gap(6));
        // Replication first, in rounds; fewer when the peers run out.
        let few = Topology::dealt(cover(), &loads, 6, 2);
        let counts: Vec<usize> = (0..7).map(|p| few.members(p).len()).collect();
        assert_eq!(counts, [2, 0, 2, 0, 0, 1, 1]);
        // No data at all: the first partition takes every peer.
        let empty = Topology::dealt(cover(), &[0; 7], 3, 2);
        assert_eq!(empty.members(0).len(), 3);
    }

    #[test]
    fn a_level_is_empty_exactly_over_gaps_and_a_recruit_fills_them() {
        let loads = [6, 0, 3, 0, 0, 9, 1];
        let mut topo = Topology::dealt(cover(), &loads, 10, 1);
        topo.wire_routing(2, &mut StdRng::seed_from_u64(5));
        assert_eq!(topo.check(), Ok(()));
        // "01" is a gap and so is all of "10" but "101".
        for to in [3, 1, 4] {
            let donor = (0..7).max_by_key(|p| (topo.members(*p).len(), std::cmp::Reverse(*p)));
            let donor = donor.expect("a partition");
            let recruit = *topo.members(donor).iter().max().expect("members");
            topo.recruit(recruit, to, 2);
            assert_eq!(topo.check(), Ok(()), "after recruiting into {to}");
            assert_eq!(topo.members(to), [recruit]);
        }
        assert_eq!(topo.peered_in(0, 7), [0, 1, 2, 3, 4, 5, 6]);
    }
}
