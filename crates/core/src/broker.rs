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
use sqo_overlay::peer::Item;
use sqo_storage::keys::{gram_spelled_whole, one_gram_entry};
use sqo_storage::posting::{gram_rank, rank_parts, Posting, PostingKind};
use sqo_storage::slab::AttrGuard;
use sqo_strsim::filters::{length_filter, position_filter, FilterConfig};
use std::ops::Range;

/// The per-query gram-posting filter as plain data, so it can run wherever
/// the posting list happens to be: at the owning peer (delegated probes),
/// at the initiator over a cached list, or over a coalesced batch reply.
/// Identical logic in every location is what keeps broker on/off results
/// byte-identical.
pub struct ProbeFilter<'a> {
    /// Instance level: the queried attribute. `None` selects schema level.
    attr: Option<&'a str>,
    /// Positions of each distinct probed gram in the search string,
    /// ascending.
    gram_positions: &'a FxHashMap<String, Vec<u32>>,
    /// Search-string length in chars.
    s_len: usize,
    /// Edit-distance bound.
    d: usize,
    /// Which of the cheap filters are active.
    filters: FilterConfig,
    /// Whether every probed gram is spelled out whole by its key
    /// ([`gram_spelled_whole`]), so that one key's postings that can
    /// survive all carry the gram of the key.
    whole_grams: bool,
}

impl<'a> ProbeFilter<'a> {
    /// The filter of `Similar(s, attr, d)` (`attr` `None` at schema
    /// level): `gram_positions` are the positions of each distinct probed
    /// gram in `s`, ascending, and `s_len` is `s`'s length in chars.
    pub fn new(
        attr: Option<&'a str>,
        gram_positions: &'a FxHashMap<String, Vec<u32>>,
        s_len: usize,
        d: usize,
        filters: FilterConfig,
    ) -> Self {
        debug_assert!(gram_positions.values().all(|qp| qp.is_sorted()), "positions ascend");
        let whole_grams = gram_positions.keys().all(|gram| gram_spelled_whole(gram));
        Self { attr, gram_positions, s_len, d, filters, whole_grams }
    }

    /// The postings among `list` — a prefix scan's items: entries in key
    /// order, each ascending by rank — that pass the "a == ξ(t′, 2)" guard
    /// of Algorithm 2 plus the position and length filters, in list order
    /// and still borrowed, so the caller copies survivors only.
    ///
    /// A gram key's postings ascend by (source length, position)
    /// ([`Posting`]'s `Item::rank`), so the survivors of a list that is one
    /// entry lie in a few windows of it (`Self::windows`) that bisection
    /// finds; the predicate runs inside them only. Whether a list is one
    /// entry its first and last postings tell ([`one_gram_entry`]): the
    /// entries of a scan come in key order. Any other list is one window.
    ///
    /// The predicate is pure, so it runs cheapest first, and none of it
    /// reads text: gram and position are inline in the posting, the
    /// attribute is an id of the posting's slab, the length a stored count.
    /// Postings stored under one key carry one gram — one span, for those
    /// of one batch — so its query positions are looked up when the gram
    /// changes, not once per posting. The guard cannot be skipped for the
    /// key's sake: keys truncate, so two attributes can share one.
    pub fn survivors<'p>(&'p self, list: &'p [Posting]) -> impl Iterator<Item = &'p Posting> + 'p {
        let mut admits = self.predicate();
        self.windows(list).flat_map(move |window| &list[window]).filter(move |p| admits(p))
    }

    /// Algorithm 2's guard and Gravano et al.'s length and position
    /// filters, posting by posting.
    fn predicate<'p>(&'p self) -> impl FnMut(&'p Posting) -> bool + 'p {
        let mut probed: Option<(&Posting, &[u32])> = None;
        let mut queried = AttrGuard::new(self.attr.unwrap_or_default());
        move |p| {
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
        }
    }

    /// The stretches of `list` that can hold a survivor, ascending and
    /// disjoint. A list that is not one entry, or with the length filter
    /// off, is one window. Otherwise the lengths `s_len ± d` are one band
    /// of the entry; with the position filter on, and the entry's gram one
    /// its key spells out whole, the band narrows to a window per length
    /// present and per interval `[qp − d, qp + d]` of the gram's query
    /// positions, each searched from where the one before ended, so that
    /// overlapping intervals share no posting. Bisection only: nothing is
    /// allocated.
    fn windows<'p>(&'p self, list: &'p [Posting]) -> Windows<'p> {
        let whole = Windows { list, at: 0, end: list.len(), len: 0, qps: None, next: 0, d: 0 };
        if !self.filters.length || !one_gram_entry(list) {
            return whole;
        }
        let len = |chars: usize| u32::try_from(chars).unwrap_or(u32::MAX);
        let (lo, hi) =
            (len(self.s_len.saturating_sub(self.d)), len(self.s_len.saturating_add(self.d)));
        let at = list.partition_point(|p| p.rank() < gram_rank(lo, 0));
        let end = at + list[at..].partition_point(|p| p.rank() <= gram_rank(hi, u32::MAX));
        let band = Windows { at, end, ..whole };
        let gram = list[0].gram();
        if !(self.filters.position && self.whole_grams && gram_spelled_whole(gram)) {
            return band;
        }
        // A gram no probe asked for has no survivor: no positions, no window.
        let qps = self.gram_positions.get(gram).map_or(&[][..], Vec::as_slice);
        let len = list.get(at).map_or(0, |p| rank_parts(p.rank()).0);
        let d = u32::try_from(self.d).unwrap_or(u32::MAX);
        Windows { len, qps: Some(qps), d, ..band }
    }
}

/// The windows of [`ProbeFilter::windows`]: `list[at..end]` is what is left
/// to search. Without query positions it is one window. With them, `len` is
/// the source length being walked and `qps[next..]` the positions whose
/// intervals `[qp − d, qp + d]` it has yet to search.
struct Windows<'p> {
    list: &'p [Posting],
    at: usize,
    end: usize,
    len: u32,
    qps: Option<&'p [u32]>,
    next: usize,
    d: u32,
}

impl Iterator for Windows<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        let Some(qps) = self.qps else {
            let window = std::mem::replace(&mut self.at, self.end)..self.end;
            return (!window.is_empty()).then_some(window);
        };
        if qps.is_empty() {
            return None;
        }
        while self.at < self.end {
            if self.next == qps.len() {
                // This length is done: on to the next one present.
                let (len, rest) = (self.len, &self.list[self.at..self.end]);
                self.at += rest.partition_point(|p| p.rank() <= gram_rank(len, u32::MAX));
                self.len = self.list.get(self.at).map_or(0, |p| rank_parts(p.rank()).0);
                self.next = 0;
                continue;
            }
            // The positions ascend, so the intervals do; one that overlaps
            // the last is searched from where the last window ended.
            let qp = qps[self.next];
            self.next += 1;
            let (lo, hi) = (qp.saturating_sub(self.d), qp.saturating_add(self.d));
            let rest = &self.list[self.at..self.end];
            let s = self.at + rest.partition_point(|p| p.rank() < gram_rank(self.len, lo));
            let rest = &self.list[s..self.end];
            let e = s + rest.partition_point(|p| p.rank() <= gram_rank(self.len, hi));
            self.at = e;
            if s < e {
                return Some(s..e);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use crate::similar::tests::similar;
    use crate::similar::Strategy;
    use proptest::prelude::*;
    use proptest::strategy::Strategy as _;
    use sqo_storage::keys::instance_gram_key;
    use sqo_storage::publish::{postings_for_rows, PublishConfig};
    use sqo_storage::slab::TripleSlab;
    use sqo_storage::triple::{Row, Triple, Value};
    use sqo_strsim::qgram::qgram_slices;
    use std::rc::Rc;

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
        let list: Vec<Posting> =
            postings.iter().filter(|(k, _)| *k == key).map(|(_, p)| p.clone()).collect();
        assert_eq!(list.len(), 2, "both attributes post `pai` under one key");
        let gram_positions: FxHashMap<String, Vec<u32>> =
            [("pai".to_string(), vec![0])].into_iter().collect();
        for (attr, oid) in [(&left, "o:1"), (&right, "o:2")] {
            let filter =
                ProbeFilter::new(Some(attr), &gram_positions, 8, 1, FilterConfig::default());
            let kept: Vec<&str> = filter.survivors(&list).map(Posting::oid).collect();
            assert_eq!(kept, [oid], "only {attr}'s posting survives");
        }

        // And end to end, through routing, delegation and verification.
        let mut e = EngineBuilder::new().peers(16).seed(3).build_with_rows(&rows);
        let from = e.random_peer();
        let res = similar(&mut e, "painting", Some(&right), 1, from, Strategy::QGrams);
        let oids: Vec<&str> = res.matches.iter().map(|m| m.oid.as_str()).collect();
        assert_eq!(oids, ["o:2"]);
    }

    /// The linear filter the windows stand in for: Algorithm 2's predicate
    /// over every posting of the list, in list order.
    fn linear<'p>(filter: &'p ProbeFilter<'_>, list: &'p [Posting]) -> Vec<&'p Posting> {
        let mut admits = filter.predicate();
        list.iter().filter(|p| admits(p)).collect()
    }

    /// Two names equal in their first 32 bytes, so their gram keys are one.
    const STEM: &str = "an_attribute_name_32_bytes_long__";

    /// The postings of `gram` in `slab` as one gram key holds them: at
    /// instance level those of every attribute whose key equals `attr`'s —
    /// a string value's grams, and for a number a gram cut from the
    /// attribute's name, an instance gram of a value that is no string —
    /// at schema level every name's; ascending by rank, ties in slab order.
    fn entry(slab: &Rc<TripleSlab>, attr: Option<&str>, gram: &str, q: usize) -> Vec<Posting> {
        let under = |name: &str| {
            let head = |s: &str| s.as_bytes()[..s.len().min(32)].to_vec();
            attr.is_some_and(|a| head(a) == head(name))
        };
        let mut list = Vec::new();
        for i in 0..slab.len() as u32 {
            let t = slab.triple(i);
            let name = t.attr().as_str();
            let instance = PostingKind::InstanceGram { carries_value: i % 2 == 0 };
            let (kind, source, from_name) = match (attr, t.value_str()) {
                (Some(_), _) if !under(name) => continue,
                (Some(_), Some(value)) => (instance, value, false),
                (Some(_), None) => (instance, name, true),
                (None, _) => (PostingKind::SchemaGram, name, true),
            };
            for (g, pos) in qgram_slices(source, q).filter(|(g, _)| *g == gram) {
                let span =
                    if from_name { slab.name_gram(i, pos, g) } else { slab.value_gram(i, pos, g) };
                list.push(
                    Posting::new(kind, slab, i, Some((span.expect("in place"), pos))).unwrap(),
                );
            }
        }
        list.sort_by_key(Item::rank);
        list
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1_024, ..ProptestConfig::default() })]

        /// The windowed filter is the linear one: the same survivors, in
        /// the same order, for gram lists in rank order — instance grams of
        /// two attributes that share one truncated key, of numbers, of
        /// values that repeat a gram; schema grams; a search string that
        /// repeats the gram, overlapping the intervals, or is empty — for
        /// every distance up to 5 and every combination of the filters,
        /// and for a list of two keys, which is one window. The windows
        /// ascend without overlapping, and those of one entry hold only
        /// lengths the length filter passes: they narrow, not just cover.
        #[test]
        fn windowed_survivors_are_the_linear_filter(
            rows in prop::collection::vec(
                (0usize..4, prop_oneof![
                    "[ab]{0,9}".prop_map(Value::from),
                    "[ab]{3,9}".prop_map(Value::from),
                    "[abé]{0,6}".prop_map(Value::from),
                    (-3i64..3).prop_map(Value::from),
                ]),
                0..24,
            ),
            search in "[ab]{0,8}",
            q in 1usize..4,
            instance in any::<bool>(),
            attr in 0usize..4,
            pick in any::<usize>(),
            two_keys in any::<bool>(),
        ) {
            let names = ["ab".to_string(), "bab".into(), format!("{STEM}ab"), format!("{STEM}bba")];
            let triples: Vec<Triple> = rows
                .iter()
                .enumerate()
                .map(|(i, (a, v))| Triple::new(format!("o:{i}"), names[*a].as_str(), v.clone()))
                .collect();
            let slab = TripleSlab::of(&triples);
            let attr = instance.then_some(names[attr].as_str());
            let mut gram_positions: FxHashMap<String, Vec<u32>> = FxHashMap::default();
            for (g, pos) in qgram_slices(&search, q) {
                gram_positions.entry(g.to_string()).or_default().push(pos);
            }
            // The probed gram: one of the search string's, or one it lacks.
            let mut grams: Vec<String> = gram_positions.keys().cloned().collect();
            grams.sort();
            grams.push("ba".chars().cycle().take(q).collect());
            let gram = &grams[pick % grams.len()];
            let mut list = entry(&slab, attr, gram, q);
            let other: String = "ab".chars().cycle().take(q).collect();
            if two_keys && other != *gram {
                let (mut first, second) = (list, entry(&slab, attr, &other, q));
                // Two entries of one scan, in key order.
                if other < *gram {
                    first = [second, first].concat();
                } else {
                    first.extend(second);
                }
                list = first;
            }
            let s_len = search.chars().count();
            for d in 0..=5 {
                for bits in 0..8u8 {
                    let filters = FilterConfig {
                        length: bits & 1 != 0,
                        position: bits & 2 != 0,
                        count: bits & 4 != 0,
                    };
                    let filter = ProbeFilter::new(attr, &gram_positions, s_len, d, filters);
                    let windowed: Vec<*const Posting> =
                        filter.survivors(&list).map(std::ptr::from_ref).collect();
                    let linear: Vec<*const Posting> =
                        linear(&filter, &list).into_iter().map(std::ptr::from_ref).collect();
                    prop_assert_eq!(windowed, linear, "d {}, filters {:?}", d, filters);
                    let windows: Vec<Range<usize>> = filter.windows(&list).collect();
                    prop_assert!(windows.windows(2).all(|w| w[0].end <= w[1].start));
                    if filters.length && one_gram_entry(&list) {
                        let mut lens =
                            windows.iter().flat_map(|w| &list[w.clone()]).map(|p| rank_parts(p.rank()).0);
                        prop_assert!(lens.all(|len| (len as usize).abs_diff(s_len) <= d));
                    }
                }
            }
        }
    }
}
