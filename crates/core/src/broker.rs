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
use sqo_storage::posting::{Posting, PostingKind};
use sqo_storage::slab::AttrGuard;
use sqo_strsim::filters::{length_filter, position_filter, FilterConfig};

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
    /// so the caller copies survivors only.
    ///
    /// The conjunction is pure, so it runs cheapest first, and none of it
    /// reads text: gram and position are inline in the posting, the
    /// attribute is an id of the posting's slab, the length a stored count.
    /// Postings stored under one key carry one gram — one span, for those
    /// of one batch — so its query positions are looked up when the gram
    /// changes, not once per posting. The guard cannot be skipped for the
    /// key's sake: keys truncate, so two attributes can share one.
    pub fn survivors<'p>(
        &'p self,
        items: impl Iterator<Item = &'p Posting> + 'p,
    ) -> impl Iterator<Item = &'p Posting> + 'p {
        let mut probed: Option<(&Posting, &[u32])> = None;
        let mut queried = AttrGuard::new(self.attr.unwrap_or_default());
        items.filter(move |&p| {
            match (self.attr, p.kind()) {
                (Some(_), PostingKind::InstanceGram { .. }) | (None, PostingKind::SchemaGram) => {}
                _ => return false,
            }
            let q_positions = match probed {
                Some((last, qp)) if last.same_gram(p) => qp,
                _ => {
                    let Some(qp) = self.gram_positions.get(p.gram()) else {
                        return false; // not a probed gram (shouldn't happen: exact keys)
                    };
                    probed = Some((p, qp));
                    qp.as_slice()
                }
            };
            if self.filters.position
                && !q_positions.iter().any(|&qp| position_filter(p.pos(), qp, self.d))
            {
                return false;
            }
            if self.attr.is_some() && !queried.admits(p) {
                return false;
            }
            // `None`: an instance gram of a value that is no string.
            let Some(source_len) = p.source_len() else { return false };
            !self.filters.length || length_filter(source_len, self.s_len, self.d)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use crate::similar::tests::similar;
    use crate::similar::Strategy;
    use sqo_storage::keys::instance_gram_key;
    use sqo_storage::publish::{postings_for_rows, PublishConfig};
    use sqo_storage::triple::{Row, Value};

    /// Keys hold 32 bytes of an attribute name, so two names equal that far
    /// store their grams under the same keys and the owner's list mixes
    /// them: the attribute guard, checked after the inline filters now, is
    /// all that tells them apart.
    #[test]
    fn attributes_sharing_a_truncated_key_are_separated_by_the_guard() {
        let stem = "an_attribute_name_32_bytes_long__";
        let (left, right) = (format!("{stem}left"), format!("{stem}right"));
        assert_eq!(instance_gram_key(&left, "pai"), instance_gram_key(&right, "pai"));
        let rows = [
            Row::new("o:1", [(left.as_str(), Value::from("painting"))]),
            Row::new("o:2", [(right.as_str(), Value::from("painting"))]),
            Row::new("o:3", [(right.as_str(), Value::from(7))]),
        ];

        let (postings, _) = postings_for_rows(&rows, &PublishConfig::default());
        let key = instance_gram_key(&left, "pai");
        let list: Vec<&Posting> =
            postings.iter().filter(|(k, _)| *k == key).map(|(_, p)| p).collect();
        assert_eq!(list.len(), 2, "both attributes post `pai` under one key");
        let gram_positions: FxHashMap<String, Vec<u32>> =
            [("pai".to_string(), vec![0])].into_iter().collect();
        for (attr, oid) in [(&left, "o:1"), (&right, "o:2")] {
            let filter = ProbeFilter {
                attr: Some(attr),
                gram_positions: &gram_positions,
                s_len: 8,
                d: 1,
                filters: FilterConfig::default(),
            };
            let kept: Vec<&str> =
                filter.survivors(list.iter().copied()).map(Posting::oid).collect();
            assert_eq!(kept, [oid], "only {attr}'s posting survives");
        }

        // And end to end, through routing, delegation and verification.
        let mut e = EngineBuilder::new().peers(16).seed(3).build_with_rows(&rows);
        let from = e.random_peer();
        let res = similar(&mut e, "painting", Some(&right), 1, from, Strategy::QGrams);
        let oids: Vec<&str> = res.matches.iter().map(|m| m.oid.as_str()).collect();
        assert_eq!(oids, ["o:2"]);
    }
}
