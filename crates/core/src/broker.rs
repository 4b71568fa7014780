//! How the engine's stepped probe pipeline talks to the hot-path services
//! of `sqo-cache`.
//!
//! Every gram-probe branch of every operator (`similar` directly; `select`,
//! `sim_join`, `similar_multi` and string `top_n` through their child
//! [`SimilarTask`](crate::similar::SimilarTask)s) flows through the
//! [`CacheBatchBroker`](sqo_cache::CacheBatchBroker) when one is installed
//! on the engine:
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
//! The broker is bookkeeping-only: it never touches the network, so the
//! engine remains the single place where messages are charged and the
//! simulation stays deterministic.

use rustc_hash::FxHashMap;
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
