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
//! **Instance level reads only the length window.** Every string of the
//! queried attribute in the responder's run counts as one comparison, but
//! only those whose char count lies in `|s| ∓ d` can match. A branch still
//! routes, forwards, scans its run (charged one unit per entry) and replies
//! exactly as before; it adds its partition's stretch of the length-ordered
//! view the engine's memo keeps (`crate::memo`) to the comparisons, bisects
//! the stretch's column of char counts to the window and streams the
//! window's strings — back to back in the view's text buffer — through the
//! verifier's bit-parallel kernel (a banded DP for a query over 64 chars).
//! A posting and its record are read only for a match: its reply payload
//! and its candidate, which goes straight onto the task's buffer.
//!
//! At schema level each distinct local attribute name is one comparison and
//! is verified once, on its stored char count; the postings that share it
//! reuse the verdict.

use crate::engine::{Leg, SimilarityEngine};
use crate::similar::Candidate;
use sqo_overlay::key::Key;
use sqo_overlay::peer::PeerId;
use sqo_storage::posting::PostingKind;
use sqo_strsim::edit::BoundedLevenshtein;

impl SimilarityEngine {
    /// One branch of the naive broadcast: forward into partition `part`
    /// (unless it is the routing entry's own partition), compare the query
    /// string — prepared once per query in `verifier` — against what is
    /// stored there, and reply with the matching triples, pushed onto `out`
    /// as handles on the postings they were found through. Returns false
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
        out: &mut Vec<Candidate>,
    ) -> bool {
        self.legs_addressed[Leg::Naive as usize] += 1;
        let responder = if part == entry_part {
            entry
        } else {
            let Some(p) = self.net.partition_member(part) else { return false };
            self.net.forward_to(entry, p);
            p
        };
        self.legs_answered += 1;
        let before = out.len();
        let payload = match attr {
            #[cfg(test)]
            Some(attr) if self.reference => {
                tests::read_every_posting(self, verifier, attr, responder, prefix, out)
            }
            Some(attr) => self.verify_window(verifier, attr, responder, prefix, out),
            None => self.verify_names(verifier, responder, prefix, out),
        };
        if responder != from && out.len() > before {
            self.net.send_direct(responder, from, payload);
        }
        true
    }

    /// Instance level at `responder`: scan its run under `prefix` (charged
    /// as a scan of every entry), count every string of `attr` there as a
    /// comparison, and verify those inside the length window — read from
    /// the partition's stretch of the view. Returns the matches' payload.
    fn verify_window(
        &mut self,
        verifier: &mut BoundedLevenshtein<'_>,
        attr: &str,
        responder: PeerId,
        prefix: &Key,
        out: &mut Vec<Candidate>,
    ) -> usize {
        // The run the scan reads is that of the responder's partition.
        let part = self.net.peer_partition(responder);
        let strings = self.memo.stretch(&self.net, prefix, attr, part);
        self.edit_comparisons += strings.index.len() as u64;
        let items = self.net.local_prefix_run(responder, prefix);
        let window = verifier.len_window();
        let start = strings.chars.partition_point(|&c| (c as usize) < *window.start());
        let end = strings.chars.partition_point(|&c| c as usize <= *window.end());
        let mut payload = 0;
        for k in start..end {
            let (at, chars) = (strings.offsets[k] as usize, strings.chars[k] as usize);
            let text = &strings.text[at..strings.offsets[k + 1] as usize];
            if verifier.distance_of(text, chars).is_some() {
                let p = &items[strings.index[k] as usize];
                payload += p.triple().repr_len();
                out.push(Candidate::new(p.clone(), chars, false));
            }
        }
        payload
    }

    /// Schema level at `responder`: every attribute-value posting under
    /// `prefix`, each distinct local attribute name verified once. Returns
    /// the matches' payload.
    fn verify_names(
        &mut self,
        verifier: &mut BoundedLevenshtein<'_>,
        responder: PeerId,
        prefix: &Key,
        out: &mut Vec<Candidate>,
    ) -> usize {
        let mut payload = 0;
        let mut comparisons = 0u64;
        // Each distinct local attribute name with its verdict.
        let mut seen_attr_names: Vec<(&str, bool)> = Vec::new();
        for p in self.net.local_prefix_run(responder, prefix) {
            if !matches!(p.kind(), PostingKind::Base(_) | PostingKind::ShortAttr) {
                continue;
            }
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
                out.push(Candidate::new(p.clone(), chars, true));
            }
        }
        self.edit_comparisons += comparisons;
        payload
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::adaptive::JoinWindow;
    use crate::engine::EngineBuilder;
    use crate::memo::tests::{no_hook, Hook, Trio, KEPT};
    use crate::similar::tests::similar;
    use crate::similar::{SimilarTask, Strategy};
    use crate::simjoin::{JoinOptions, JoinTask};
    use crate::stats::QueryStats;
    use sqo_overlay::network::ReplicationPolicy;
    use sqo_storage::keys;
    use sqo_storage::slab::AttrGuard;
    use sqo_storage::triple::{Row, Value};
    use sqo_strsim::levenshtein;

    /// The instance-level scan before it had views, kept as the reference:
    /// every posting of the run read, guarded, counted and gated on its
    /// char count one by one.
    pub(crate) fn read_every_posting(
        e: &mut SimilarityEngine,
        verifier: &mut BoundedLevenshtein<'_>,
        attr: &str,
        responder: PeerId,
        prefix: &Key,
        out: &mut Vec<Candidate>,
    ) -> usize {
        let mut payload = 0;
        let mut comparisons = 0u64;
        let mut queried = AttrGuard::new(attr);
        for p in e.net.local_prefix_run(responder, prefix) {
            if !matches!(p.kind(), PostingKind::Base(_) | PostingKind::ShortValue)
                || !queried.admits(p)
            {
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
                out.push(Candidate::new(p.clone(), chars, false));
            }
        }
        e.edit_comparisons += comparisons;
        payload
    }

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

    /// Two attribute names that share their first 32 bytes: one key family,
    /// told apart by the attribute guard only.
    fn twin_names() -> (String, String) {
        let stem = "an_attribute_name_32_bytes_long__";
        (format!("{stem}left"), format!("{stem}right"))
    }

    /// Strings `k` edits from "painting" at `k` chars fewer and `k` more
    /// for k = 0…4 — a match at each end of every window — non-ASCII ones
    /// (chars ≠ bytes), values shorter than q = 3, numbers and a long
    /// title: under `title`, with filler that spreads its family over
    /// several partitions, and under both [`twin_names`], `batch` 1 in the
    /// other field order so that the names' ids differ between two slabs.
    fn length_world(batch: usize) -> Vec<Row> {
        let (left, right) = twin_names();
        let mut values: Vec<Value> = Vec::new();
        for k in 0..=4 {
            values.push(Value::from(&"painting"[..8 - k]));
            values.push(Value::from(format!("painting{}", "s".repeat(k))));
        }
        for v in ["päinting", "päintingś", "日本語の絵画", "pa", "p", "", "a painting at dusk, oil"]
        {
            values.push(Value::from(v));
        }
        values.extend([Value::Int(7), Value::Float(2.5)]);
        let twins = values.iter().enumerate().map(|(i, v)| {
            let mut fields = [(left.as_str(), v.clone()), (right.as_str(), v.clone())];
            if batch == 1 {
                fields.reverse();
            }
            Row::new(format!("o:{batch}:{i:03}"), fields)
        });
        let filler = (0..240).map(|i| Value::from(format!("{}{i:03}", ["f", "pa", "pai"][i % 3])));
        let titles = values
            .iter()
            .cloned()
            .chain(filler)
            .enumerate()
            .map(|(i, v)| Row::new(format!("t:{batch}:{i:03}"), [("title", v)]));
        twins.chain(titles).collect()
    }

    /// 256 partitions: enough for `title`'s family to span several.
    fn engine(rows: &[Row]) -> SimilarityEngine {
        EngineBuilder::new().peers(512).replication(2).seed(45).q(3).build_with_rows(rows)
    }

    /// The trio of engines over `rows`.
    fn trio(rows: &[Row]) -> Trio {
        Trio::new(|| engine(rows))
    }

    /// A naive `Similar(s, attr, d)` from `from` on the trio: its stats.
    fn similar_on(
        t: &mut Trio,
        (s, attr, d): (&str, Option<&str>, usize),
        from: PeerId,
        hook: Hook<'_>,
    ) -> QueryStats {
        t.run(|| SimilarTask::new(s, attr, d, from, Strategy::Naive), hook).0
    }

    /// Every partition's stretch of a view is what the reference reads
    /// in that partition's run: the `(chars, index)` of each posting of
    /// the attribute that holds a string, ordered by chars, each entry with
    /// its posting's char count and string — in runs that hold a second
    /// attribute under the same truncated key and postings of two slabs.
    #[test]
    fn a_stretch_is_its_runs_strings_of_the_attribute_by_length() {
        let (left, right) = twin_names();
        let mut e = engine(&length_world(0));
        e.publish_rows(&length_world(1));
        let mut stretches = 0;
        for attr in ["title", &left, &right] {
            for prefix in [keys::attr_scan_prefix(attr), keys::short_value_prefix(attr)] {
                let (ps, pe) = e.net.subtree_of(&prefix);
                for &part in e.net.topology().peered_in(ps, pe).to_vec().iter() {
                    let items = e.net.partition_store(part as usize).prefix_entries(&prefix).items;
                    let mut queried = AttrGuard::new(attr);
                    let mut want: Vec<(usize, u32)> = (0..items.len())
                        .filter(|&i| {
                            let p = &items[i];
                            matches!(p.kind(), PostingKind::Base(_) | PostingKind::ShortValue)
                                && queried.admits(p)
                        })
                        .filter_map(|i| Some((items[i].char_len()?, i as u32)))
                        .collect();
                    want.sort_unstable();
                    let want: Vec<u32> = want.into_iter().map(|(_, i)| i).collect();
                    let got = e.memo.stretch(&e.net, &prefix, attr, part as usize);
                    assert_eq!(got.index, want, "{attr} under {prefix:?}, partition {part}");
                    // Each entry's count and string are its posting's.
                    assert_eq!(got.offsets.len(), want.len() + 1);
                    for (k, &i) in want.iter().enumerate() {
                        let t = items[i as usize].triple();
                        let at = got.offsets[k] as usize..got.offsets[k + 1] as usize;
                        assert_eq!(Some(&got.text[at]), t.value_str(), "{attr}, partition {part}");
                        assert_eq!(Some(got.chars[k] as usize), t.char_len());
                    }
                    stretches += usize::from(!want.is_empty());
                }
            }
        }
        assert!(stretches >= 6, "every family holds strings, `title`'s in several runs");
    }

    /// Naive scans over the views answer the rows, `QueryStats` and trace
    /// of the reference that reads every posting, with views kept and
    /// with views dropped before every step: d = 0…3 and beyond every
    /// string's length, a family over several partitions, both twin names,
    /// a non-ASCII query, a query shorter than q, and schema level.
    #[test]
    fn views_answer_what_reading_every_posting_answers() {
        let (left, right) = twin_names();
        let mut t = trio(&length_world(0));
        let (ps, pe) = t.engines[KEPT].net.subtree_of(&keys::attr_scan_prefix("title"));
        let spans = t.engines[KEPT].net.topology().peered_in(ps, pe).len();
        assert!(spans >= 2, "the family spans {spans} partitions");
        let mut queries: Vec<(&str, Option<&str>, usize)> =
            (0..=3).chain([100]).map(|d| ("painting", Some("title"), d)).collect();
        queries.extend([
            ("painting", Some(left.as_str()), 1),
            ("painting", Some(right.as_str()), 2),
            ("päinting", Some("title"), 1),
            ("pa", Some("title"), 1),
            ("pa", Some(left.as_str()), 2),
            ("titel", None, 2),
        ]);
        for query in queries {
            for from in [PeerId(0), PeerId(77), PeerId(511)] {
                let stats = similar_on(&mut t, query, from, &no_hook);
                assert!(stats.matches > 0, "{query:?}");
                if query.1.is_some() && query.2 < 100 {
                    let compared = stats.edit_comparisons as usize;
                    assert!(compared > 2 * stats.matches, "{query:?}: {compared} comparisons");
                }
            }
        }
    }

    /// Views carry their strings: non-ASCII titles (chars ≠ bytes), titles
    /// over 64 chars (the verifier's banded path), d = 0, an attribute
    /// holding only numbers (every stretch empty), and a publication that
    /// gives an object's title a new string between two queries — all
    /// answered as the reference that reads every posting answers them.
    #[test]
    fn views_carry_the_strings_they_verify() {
        let long = "a painting of a harbour at dusk, in oil on canvas, by an unknown hand";
        // One edit from `long`, and three.
        let (near, far) = (long.replace("harbour", "harbor"), long.replace("dusk", "dawn"));
        let titles = [long, &near, &far, &long[..65], "päinting", "päintings", "日本語の絵画"];
        let mut rows = length_world(0);
        rows.extend(titles.iter().enumerate().map(|(i, v)| {
            Row::new(format!("l:{i}"), [("title", Value::from(*v)), ("year", Value::Int(1900))])
        }));
        let mut t = trio(&rows);
        let from = PeerId(33);
        let cases = [
            (long, 0, 1),
            (long, 2, 2),
            (long, 3, 3),
            (&long[..65], 1, 1),
            (&long[..66], 1, 1),
            ("päinting", 0, 2),
            ("päinting", 1, 6),
            ("日本語の絵画", 0, 2),
            ("paintinq", 0, 0),
        ];
        for (s, d, matches) in cases {
            let stats = similar_on(&mut t, (s, Some("title"), d), from, &no_hook);
            assert_eq!(stats.matches, matches, "{s:?}, d = {d}");
        }
        let stats = similar_on(&mut t, ("1900", Some("year"), 1), from, &no_hook);
        assert_eq!((stats.matches, stats.edit_comparisons), (0, 0), "no string, no comparison");
        // `t:0:000` was "painting": it now holds "paintinq" too.
        t.all(|e| {
            e.publish_rows(&[Row::new("t:0:000", [("title", "paintinq")])]);
        });
        let stats = similar_on(&mut t, ("paintinq", Some("title"), 0), from, &no_hook);
        assert_eq!(stats.matches, 1, "the new string is in the rebuilt view");
    }

    /// A publication between two queries moves the epoch: the kept views
    /// go, and the next scan reads the runs as they now are — two slabs
    /// each, with the names' ids swapped in the second.
    #[test]
    fn a_publication_between_two_queries_drops_the_views() {
        let (left, _) = twin_names();
        let mut t = trio(&length_world(0));
        let queries = [("painting", Some("title"), 2), ("painting", Some(left.as_str()), 2)];
        let before = queries.map(|query| similar_on(&mut t, query, PeerId(5), &no_hook));
        let epoch = t.all(|e| {
            e.publish_rows(&length_world(1));
            e.net.cache_epoch()
        });
        assert!(t.memo().epoch() < epoch, "the views were built before");
        let after = queries.map(|query| similar_on(&mut t, query, PeerId(5), &no_hook));
        assert_eq!(t.memo().epoch(), epoch, "and again after");
        for (before, after) in before.iter().zip(&after) {
            assert!(after.matches > before.matches, "{} then {}", before.matches, after.matches);
            assert!(after.edit_comparisons > before.edit_comparisons);
        }
    }

    /// Peers fail and a repair moves members while a scan's branches are
    /// out: each move is a new epoch, so the views are built again in the
    /// middle of the scan, for the partitions as they then are.
    #[test]
    fn churn_in_the_middle_of_a_scan_rebuilds_the_views() {
        let (left, _) = twin_names();
        let mut t = trio(&length_world(0));
        let churn = |e: &mut SimilarityEngine, step: usize| {
            if step == 3 || step == 7 {
                e.net.fail_random_fraction(0.2);
                e.net.repair_epoch(&ReplicationPolicy::default());
            }
        };
        let mut dropped = 0;
        for d in 0..=3 {
            let stats = similar_on(&mut t, ("painting", Some(left.as_str()), d), PeerId(9), &churn);
            dropped += stats.partitions_addressed - stats.partitions_answered;
        }
        assert!(dropped > 0, "the failures silenced branches");
    }

    /// A join whose children scan naively answers alike, cold and again
    /// over its stored left side.
    #[test]
    fn naive_join_children_answer_alike() {
        let (left, right) = twin_names();
        let mut t = trio(&length_world(0));
        let opts = JoinOptions {
            strategy: Strategy::Naive,
            left_limit: Some(6),
            window: JoinWindow::Fixed(3),
        };
        for from in [PeerId(2), PeerId(2), PeerId(20)] {
            let (stats, _) = t.run(|| JoinTask::new(&left, Some(&right), 1, from, &opts), &no_hook);
            assert!(stats.matches > 0 || stats.edit_comparisons > 0);
        }
    }
}
