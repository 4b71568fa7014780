//! The probe-broker seam: how the engine's stepped probe pipeline talks to
//! the hot-path services of `sqo-cache`.
//!
//! Every gram-probe branch of every operator (`similar` directly; `select`,
//! `sim_join`, `similar_multi` and string `top_n` through their child
//! [`SimilarTask`](crate::similar::SimilarTask)s) flows through a
//! [`ProbeBroker`] when one is installed on the engine:
//!
//! 1. **Cache consult** — each probe key is first looked up in the
//!    initiator's posting cache (full, unfiltered lists, validated by TTL
//!    and churn epoch). Hits apply the query's [`ProbeFilter`] locally and
//!    cost nothing on the wire.
//! 2. **Channel ride** — the remaining keys go to the destination
//!    partition. If another probe routed there within the coalescing
//!    window, the exchange is still open: the probe rides it — one direct
//!    request/reply pair instead of a routed chain. Otherwise it routes
//!    normally and opens the partition's channel for the next window.
//!
//! Because cached probes return the *full* posting lists and the filter is
//! a pure function of the query, results are byte-identical to the
//! broker-less delegated path (filter at the owner, survivors travel) —
//! the equivalence suite pins this, churn included.
//!
//! The trait is bookkeeping-only: the broker never touches the network, so
//! the engine remains the single place where messages are charged and the
//! simulation stays deterministic.

use rustc_hash::FxHashMap;
use sqo_cache::{BrokerCounters, CacheBatchBroker, PartitionChannel};
use sqo_overlay::key::Key;
use sqo_overlay::peer::PeerId;
use sqo_overlay::PostingList;
use sqo_storage::posting::Posting;
use sqo_strsim::filters::{char_len, length_filter, position_filter, FilterConfig};

/// The per-query gram-posting filter as plain data, so it can run wherever
/// the posting list happens to be: at the owning peer (delegated probes),
/// at the initiator over a cached list, or over a coalesced batch reply.
/// Identical logic in every location is what keeps broker on/off results
/// byte-identical.
pub struct ProbeFilter<'a> {
    /// Instance level: the queried attribute. `None` selects schema level.
    pub attr: Option<&'a str>,
    /// Positions of each distinct probed gram in the search string.
    pub gram_positions: &'a FxHashMap<String, Vec<u32>>,
    /// Search-string length in chars.
    pub s_len: usize,
    /// Edit-distance bound.
    pub d: usize,
    /// Which of the cheap filters are active.
    pub filters: FilterConfig,
}

impl ProbeFilter<'_> {
    /// The postings among `items` that pass the "a == ξ(t′, 2)" guard of
    /// Algorithm 2 plus the position and length filters — still borrowed,
    /// so the caller copies survivors only. Postings stored under one key
    /// carry one gram, so its query positions are looked up when the gram
    /// changes, not once per posting.
    pub fn survivors<'p>(
        &'p self,
        items: impl Iterator<Item = &'p Posting> + 'p,
    ) -> impl Iterator<Item = &'p Posting> + 'p {
        let mut probed: Option<(&str, &[u32])> = None;
        items.filter(move |p| {
            let (gram, pos, source) = match (self.attr, *p) {
                (Some(a), Posting::InstanceGram { triple, gram, pos, .. }) => {
                    if triple.attr.as_str() != a {
                        return false;
                    }
                    let Some(text) = triple.value.as_str() else { return false };
                    (&**gram, *pos, text)
                }
                (None, Posting::SchemaGram { triple, gram, pos }) => {
                    (&**gram, *pos, triple.attr.as_str())
                }
                _ => return false,
            };
            let q_positions = match probed {
                Some((g, qp)) if g == gram => qp,
                _ => {
                    let Some(qp) = self.gram_positions.get(gram) else {
                        return false; // not a probed gram (shouldn't happen: exact keys)
                    };
                    probed = Some((gram, qp));
                    qp.as_slice()
                }
            };
            if self.filters.position
                && !q_positions.iter().any(|&qp| position_filter(pos, qp, self.d))
            {
                return false;
            }
            !self.filters.length || length_filter(char_len(source), self.s_len, self.d)
        })
    }
}

/// Bookkeeping interface of the hot-path services (see module docs). The
/// canonical implementation is [`sqo_cache::CacheBatchBroker`]; tests may
/// install counting or fault-injecting stand-ins.
pub trait ProbeBroker {
    fn cache_enabled(&self) -> bool;
    fn batch_enabled(&self) -> bool;

    /// Cache lookup of `from`'s copy of `key`'s full posting list. The
    /// returned list is a shared handle (an `Arc` clone of the cached
    /// entry), so hits copy no postings.
    fn cache_get(
        &mut self,
        from: PeerId,
        key: &Key,
        now_us: u64,
        epoch: u64,
    ) -> Option<PostingList<Posting>>;

    /// Fill `from`'s cache (no-op when the cache is disabled). The broker
    /// stores the handle as-is — caller and cache share one allocation.
    fn cache_put(
        &mut self,
        from: PeerId,
        key: &Key,
        list: PostingList<Posting>,
        now_us: u64,
        epoch: u64,
    );

    /// Size of `from`'s cached copy of `key`'s posting list, if a valid
    /// one is held — a side-effect-free peek (no hit/miss counting, no LRU
    /// touch) used by cost-based planning for exact cardinalities the
    /// initiator already paid for. Default: unknown.
    fn cache_peek_len(
        &self,
        _from: PeerId,
        _key: &Key,
        _now_us: u64,
        _epoch: u64,
    ) -> Option<usize> {
        None
    }

    /// The open coalescing channel for `part`, if one was routed within
    /// the window. `n_keys` probe keys will ride it on success (the
    /// broker's `probes_coalesced` counter is key-granular, matching the
    /// per-query `QueryStats` attribution).
    fn channel_lookup(
        &mut self,
        part: usize,
        now_us: u64,
        epoch: u64,
        n_keys: u64,
    ) -> Option<PartitionChannel>;

    /// Record a freshly routed exchange as `part`'s open channel.
    fn channel_record(
        &mut self,
        part: usize,
        owner: PeerId,
        route_hops: u64,
        now_us: u64,
        epoch: u64,
    );

    /// Record overlay messages a coalesced probe avoided.
    fn count_messages_saved(&mut self, n: u64);

    /// Lifetime service counters.
    fn counters(&self) -> BrokerCounters;

    /// Owned checkpoint image of the broker, if the implementation
    /// supports checkpointing. The canonical [`CacheBatchBroker`] does;
    /// test stand-ins keep the default `None` (a checkpoint then simply
    /// records "no broker state" and a restore builds a fresh one).
    fn export_state(&self) -> Option<sqo_cache::BrokerState> {
        None
    }
}

impl ProbeBroker for CacheBatchBroker {
    fn cache_enabled(&self) -> bool {
        CacheBatchBroker::cache_enabled(self)
    }

    fn batch_enabled(&self) -> bool {
        CacheBatchBroker::batch_enabled(self)
    }

    fn cache_get(
        &mut self,
        from: PeerId,
        key: &Key,
        now_us: u64,
        epoch: u64,
    ) -> Option<PostingList<Posting>> {
        CacheBatchBroker::cache_get(self, from, key, now_us, epoch)
    }

    fn cache_put(
        &mut self,
        from: PeerId,
        key: &Key,
        list: PostingList<Posting>,
        now_us: u64,
        epoch: u64,
    ) {
        CacheBatchBroker::cache_put(self, from, key, list, now_us, epoch)
    }

    fn cache_peek_len(&self, from: PeerId, key: &Key, now_us: u64, epoch: u64) -> Option<usize> {
        CacheBatchBroker::cache_peek_len(self, from, key, now_us, epoch)
    }

    fn channel_lookup(
        &mut self,
        part: usize,
        now_us: u64,
        epoch: u64,
        n_keys: u64,
    ) -> Option<PartitionChannel> {
        CacheBatchBroker::channel_lookup(self, part, now_us, epoch, n_keys)
    }

    fn channel_record(
        &mut self,
        part: usize,
        owner: PeerId,
        route_hops: u64,
        now_us: u64,
        epoch: u64,
    ) {
        CacheBatchBroker::channel_record(self, part, owner, route_hops, now_us, epoch)
    }

    fn count_messages_saved(&mut self, n: u64) {
        CacheBatchBroker::count_messages_saved(self, n)
    }

    fn counters(&self) -> BrokerCounters {
        CacheBatchBroker::counters(self)
    }

    fn export_state(&self) -> Option<sqo_cache::BrokerState> {
        Some(CacheBatchBroker::export_state(self))
    }
}
