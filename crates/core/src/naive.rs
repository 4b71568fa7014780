//! The naive string-similarity baseline (§4).
//!
//! *"A naive approach to process string similarity is to send a query to
//! each peer which is responsible for a part of the strings to be compared.
//! The contacted peers then compare the queried string to the data available
//! locally and send matching results back to the peer having initiated the
//! query. As shown in Section 6 this approach does not scale well."*
//!
//! Instance level: every partition holding values of the attribute is
//! contacted (the `key(A # *)` subtree plus the short-value side family);
//! schema level: every partition holding *any* attribute-value posting.
//! Contacted peers run the edit-distance verification locally — free of
//! messages but charged to [`QueryStats::edit_comparisons`](crate::stats::QueryStats::edit_comparisons), the "enormous
//! effort incurred by comparing the strings at the peers locally" the paper
//! remarks on. Only matching triples travel back.

use crate::engine::SimilarityEngine;
use crate::similar::Candidate;
use sqo_overlay::key::Key;
use sqo_overlay::peer::PeerId;
use sqo_overlay::run_items;
use sqo_storage::posting::PostingKind;
use sqo_storage::slab::AttrGuard;
use sqo_strsim::edit::BoundedLevenshtein;

impl SimilarityEngine {
    /// One branch of the naive broadcast: forward into partition `part`
    /// (unless it is the routing entry's own partition), compare the query
    /// string — prepared once per query in `verifier` — against everything
    /// stored there, and reply with the matching triples. Returns `None`
    /// when the partition has no alive member — the branch silently drops,
    /// exactly like a dead responder would.
    ///
    /// This is the per-partition body the stepped
    /// [`SimilarTask`](crate::similar::SimilarTask) schedules one event at
    /// a time, replacing the old synchronous fork/branch/join sweep.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn naive_branch(
        &mut self,
        verifier: &mut BoundedLevenshtein<'_>,
        attr: Option<&str>,
        from: PeerId,
        entry: PeerId,
        entry_part: usize,
        part: usize,
        prefix: &Key,
    ) -> Option<Vec<Candidate>> {
        self.legs_addressed += 1;
        let responder = if part == entry_part {
            entry
        } else {
            let p = self.net.partition_member(part)?;
            self.net.forward_to(entry, p);
            p
        };
        self.legs_answered += 1;
        // Local comparison at the data peer, over the stored postings where
        // they lie: only matches are copied out.
        let mut local_matches: Vec<Candidate> = Vec::new();
        let mut payload = 0usize;
        let mut comparisons = 0u64;
        let mut seen_attr_names: Vec<&str> = Vec::new();
        // Keys truncate, so the scanned prefix may hold another attribute's
        // postings too.
        let mut queried = AttrGuard::new(attr.unwrap_or_default());
        for p in run_items(self.net.local_prefix_run(responder, prefix)) {
            let triple = p.triple();
            match (attr, p.kind()) {
                (Some(a), PostingKind::Base(_) | PostingKind::ShortValue) => {
                    if !queried.admits(triple) {
                        continue;
                    }
                    let Some(text) = triple.value_str() else { continue };
                    comparisons += 1;
                    if verifier.distance(text).is_some() {
                        payload += triple.repr_len();
                        local_matches.push(Candidate::new(triple.oid(), a, text));
                    }
                }
                (None, PostingKind::Base(_) | PostingKind::ShortAttr) => {
                    let name = triple.attr().as_str();
                    // One comparison per distinct local name, the way an
                    // implementation would actually do it.
                    if !seen_attr_names.contains(&name) {
                        seen_attr_names.push(name);
                        comparisons += 1;
                    }
                    if verifier.distance(name).is_some() {
                        payload += triple.repr_len();
                        local_matches.push(Candidate::new(triple.oid(), name, name));
                    }
                }
                _ => {}
            }
        }
        self.edit_comparisons += comparisons;
        if responder != from && !local_matches.is_empty() {
            self.net.send_direct(responder, from, payload);
        }
        Some(local_matches)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::EngineBuilder;
    use crate::similar::Strategy;
    use sqo_storage::triple::{Row, Value};

    fn rows() -> Vec<Row> {
        ["painting", "paintxng", "sculpture", "mural", "paint"]
            .iter()
            .enumerate()
            .map(|(i, w)| Row::new(format!("t:{i}"), [("title", Value::from(*w))]))
            .collect()
    }

    #[test]
    fn naive_matches_are_correct() {
        let mut e = EngineBuilder::new().peers(32).seed(20).build_with_rows(&rows());
        let from = e.random_peer();
        let res = e.similar("painting", Some("title"), 1, from, Strategy::Naive);
        let mut found: Vec<&str> = res.matches.iter().map(|m| m.matched.as_str()).collect();
        found.sort_unstable();
        assert_eq!(found, vec!["painting", "paintxng"]);
    }

    #[test]
    fn naive_message_cost_grows_with_network() {
        let data: Vec<Row> = (0..400)
            .map(|i| Row::new(format!("w:{i}"), [("word", Value::from(format!("tok{i:04}en")))]))
            .collect();
        let cost = |peers: usize| {
            let mut e = EngineBuilder::new().peers(peers).seed(21).build_with_rows(&data);
            let from = e.random_peer();
            e.similar("tok0001en", Some("word"), 1, from, Strategy::Naive).stats.traffic.messages
        };
        let small = cost(16);
        let large = cost(256);
        assert!(
            large >= small * 4,
            "naive cost must grow ~linearly with peers: {small} -> {large}"
        );
    }

    #[test]
    fn naive_schema_level() {
        let data = vec![
            Row::new("a:1", [("dealer", Value::from(1))]),
            Row::new("a:2", [("dealerx", Value::from(2))]),
            Row::new("a:3", [("price", Value::from(3))]),
        ];
        let mut e = EngineBuilder::new().peers(16).seed(22).build_with_rows(&data);
        let from = e.random_peer();
        let res = e.similar("dealer", None, 1, from, Strategy::Naive);
        let mut attrs: Vec<&str> = res.matches.iter().map(|m| m.attr.as_str()).collect();
        attrs.sort_unstable();
        assert_eq!(attrs, vec!["dealer", "dealerx"]);
    }
}
