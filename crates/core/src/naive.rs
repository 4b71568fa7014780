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
//!
//! A peer's comparison is gated on what is stored. At instance level a
//! posting of the `A#v` family carries its attribute's id and its value's
//! char count inline, so the attribute guard, "is it a string" and the
//! length window are answered by the 24-byte posting alone; the record and
//! the text are read only for a candidate inside the window, which is then
//! streamed through the verifier's bit-parallel kernel (a banded DP for a
//! query over 64 chars). Every string of the queried attribute counts as
//! one comparison, the window's rejects included. At schema level each
//! distinct local attribute name is one comparison and is verified once, on
//! its stored char count; the postings that share it reuse the verdict.

use crate::engine::SimilarityEngine;
use crate::similar::Candidate;
use sqo_overlay::key::Key;
use sqo_overlay::peer::PeerId;
use sqo_storage::posting::PostingKind;
use sqo_storage::slab::AttrGuard;
use sqo_strsim::edit::BoundedLevenshtein;

impl SimilarityEngine {
    /// One branch of the naive broadcast: forward into partition `part`
    /// (unless it is the routing entry's own partition), compare the query
    /// string — prepared once per query in `verifier` — against everything
    /// stored there, and reply with the matching triples, as handles on the
    /// postings they were found through. Returns `None`
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
        // they lie: only a match is taken out, as a handle on its posting.
        let mut local_matches: Vec<Candidate> = Vec::new();
        let mut payload = 0usize;
        let mut comparisons = 0u64;
        // Each distinct local attribute name with its verdict.
        let mut seen_attr_names: Vec<(&str, bool)> = Vec::new();
        // Keys truncate, so the scanned prefix may hold another attribute's
        // postings too.
        let mut queried = AttrGuard::new(attr.unwrap_or_default());
        for p in self.net.local_prefix_run(responder, prefix) {
            match (attr, p.kind()) {
                (Some(_), PostingKind::Base(_) | PostingKind::ShortValue) => {
                    // Guard, string, window: the posting alone answers.
                    if !queried.admits(p) {
                        continue;
                    }
                    let Some(chars) = p.char_len() else { continue };
                    comparisons += 1;
                    if !verifier.admits_len(chars) {
                        continue;
                    }
                    let triple = p.triple();
                    let Some(text) = triple.value_str() else { continue };
                    if verifier.distance_of(text, chars).is_some() {
                        payload += triple.repr_len();
                        local_matches.push(Candidate::new(p.clone(), chars, false));
                    }
                }
                (None, PostingKind::Base(_) | PostingKind::ShortAttr) => {
                    let triple = p.triple();
                    let (name, chars) = (triple.attr().as_str(), triple.attr_char_len());
                    // One comparison per distinct local name, the way an
                    // implementation would actually do it.
                    let matched = match seen_attr_names.iter().find(|(seen, _)| *seen == name) {
                        Some(&(_, matched)) => matched,
                        None => {
                            comparisons += 1;
                            let matched = verifier.distance_of(name, chars).is_some();
                            seen_attr_names.push((name, matched));
                            matched
                        }
                    };
                    if matched {
                        payload += triple.repr_len();
                        local_matches.push(Candidate::new(p.clone(), chars, true));
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
    use crate::similar::tests::similar;
    use crate::similar::Strategy;
    use sqo_storage::triple::{Row, Value};
    use sqo_strsim::levenshtein;

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
        let res = similar(&mut e, "painting", Some("title"), 1, from, Strategy::Naive);
        let mut found: Vec<&str> = res.matches.iter().map(|m| m.matched.as_str()).collect();
        found.sort_unstable();
        assert_eq!(found, vec!["painting", "paintxng"]);
    }

    /// A world the scan's gates must all see through: numbers, values
    /// shorter than q, non-ASCII values, values past 32 bytes, an empty
    /// string, a non-ASCII and a short attribute name, and two attribute
    /// names sharing their first 32 bytes (one key family, told apart by
    /// the attribute guard only).
    fn gated_world() -> (Vec<Row>, String) {
        let stem = "an_attribute_name_32_bytes_long__";
        let (left, right) = (format!("{stem}left"), format!("{stem}right"));
        let values: [Value; 12] = [
            "painting".into(),
            "paintings".into(),
            "päinting".into(),
            "日本語の絵画".into(),
            "pa".into(),
            "p".into(),
            "".into(),
            "a painting of a harbour at dusk, in oil on canvas".into(),
            "a painting of a harbour at dusk, in oil on canvaz".into(),
            Value::Int(7),
            Value::Float(2.5),
            "paintxng".into(),
        ];
        let mut rows: Vec<Row> = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| Row::new(format!("o:{i:02}"), [(left.as_str(), v)]))
            .collect();
        rows.push(Row::new("o:20", [(right.as_str(), "painting")]));
        rows.push(Row::new("o:21", [(right.as_str(), Value::Int(8))]));
        rows.push(Row::new("o:22", [("title", "painting"), ("titel", "x")]));
        rows.push(Row::new("o:23", [("tïtle", Value::Int(1)), ("hp", Value::Int(190))]));
        rows.push(Row::new("o:24", [("ti", "pa"), ("title", "")]));
        (rows, left)
    }

    /// The gated naive scan answers what a brute-force pass over the rows
    /// answers, at instance and schema level for d = 0…3, and counts the
    /// comparisons and charges the traffic the ungated scan did: the
    /// numbers pinned are those the scan read before it was gated on
    /// stored counts (`2872312`).
    #[test]
    fn the_gated_scan_answers_and_costs_what_the_ungated_one_did() {
        let (rows, left) = gated_world();
        let mut e = EngineBuilder::new().peers(16).seed(23).build_with_rows(&rows);
        let from = e.random_peer();
        let mut measured = Vec::new();
        for (query, attr) in
            [("painting", Some(left.as_str())), ("päinting", Some(&left)), ("title", None)]
        {
            for d in 0..=3 {
                let res = similar(&mut e, query, attr, d, from, Strategy::Naive);
                let mut got: Vec<(String, String, String, usize)> = res
                    .matches
                    .iter()
                    .map(|m| (m.oid.clone(), m.attr.to_string(), m.matched.clone(), m.distance))
                    .collect();
                got.sort();
                let mut want: Vec<(String, String, String, usize)> = Vec::new();
                for row in &rows {
                    for (a, v) in &row.fields {
                        let text = match attr {
                            Some(queried) if a.as_str() == queried => v.as_str(),
                            Some(_) => None,
                            None => Some(a.as_str()),
                        };
                        let Some(text) = text else { continue };
                        let dist = levenshtein(query, text);
                        if dist <= d {
                            want.push((row.oid.clone(), a.to_string(), text.to_string(), dist));
                        }
                    }
                }
                want.sort();
                want.dedup();
                assert_eq!(got, want, "{query:?} at {attr:?}, d = {d}");
                let t = res.stats.traffic;
                measured.push((res.stats.edit_comparisons, t.messages, t.bytes));
            }
        }
        assert_eq!(measured, PINNED_COSTS, "edit comparisons, messages, bytes per case");
    }

    /// `(edit_comparisons, messages, bytes)` of each case above, in order.
    const PINNED_COSTS: [(u64, u64, u64); 12] = [
        (14, 5, 358),
        (17, 5, 716),
        (17, 5, 716),
        (17, 5, 716),
        (14, 5, 360),
        (15, 5, 478),
        (17, 5, 716),
        (17, 5, 716),
        (11, 5, 358),
        (12, 5, 432),
        (13, 5, 454),
        (14, 6, 542),
    ];

    #[test]
    fn naive_message_cost_grows_with_network() {
        let data: Vec<Row> = (0..400)
            .map(|i| Row::new(format!("w:{i}"), [("word", Value::from(format!("tok{i:04}en")))]))
            .collect();
        let cost = |peers: usize| {
            let mut e = EngineBuilder::new().peers(peers).seed(21).build_with_rows(&data);
            let from = e.random_peer();
            similar(&mut e, "tok0001en", Some("word"), 1, from, Strategy::Naive)
                .stats
                .traffic
                .messages
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
        let res = similar(&mut e, "dealer", None, 1, from, Strategy::Naive);
        let mut attrs: Vec<&str> = res.matches.iter().map(|m| m.attr.as_str()).collect();
        attrs.sort_unstable();
        assert_eq!(attrs, vec!["dealer", "dealerx"]);
    }
}
