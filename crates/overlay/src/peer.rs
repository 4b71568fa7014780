//! What the overlay names and what it stores: [`PeerId`] and [`Item`].
//!
//! A peer is an index. Everything the paper keeps per peer — path π(p),
//! routing table ρ(p, l), replica set σ(p), store δ(p) — lives once per
//! network or once per partition and is found through that index (see
//! [`crate::topology`] for π, ρ and σ, [`crate::store`] for δ), so 10⁶
//! peers cost megabytes, not gigabytes.

/// Dense peer identifier (index into the network's per-peer tables).
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
/// accounting; items are cheap to clone (payloads are typically behind an `Rc`).
pub trait Item: Clone {
    /// Serialized size in bytes, as charged to result messages.
    fn size_bytes(&self) -> usize;

    /// Where the item stands among the items of its key: a run keeps each
    /// key's items in ascending rank, items of equal rank in publication
    /// order. By default every item ties, so a key's items stay in
    /// publication order.
    fn rank(&self) -> u64 {
        0
    }
}
