//! The basic similarity operator — Algorithm 2 of the paper.
//!
//! `Similar(s, a, d, p)` returns all objects with a value of attribute `a`
//! within edit distance `d` of the search string `s` (*instance level*), or
//! — when `a` is empty — all objects having an **attribute named** within
//! distance `d` of `s` (*schema level*, e.g. finding `dlrid` under typos).
//!
//! Three strategies are implemented, matching the §6 evaluation:
//!
//! * [`Strategy::QGrams`] — probe every overlapping q-gram of `s`; apply
//!   position, length and count filters; fetch candidate objects; verify.
//! * [`Strategy::QSamples`] — probe only `d + 1` non-overlapping grams
//!   (fewer index probes, weaker filtering, more candidates).
//! * [`Strategy::Naive`] — ship the query to every peer responsible for a
//!   part of the compared string space; peers compare locally (the
//!   baseline whose messages grow linearly with the network).
//!
//! ## Stage 1.5 works on stored triples
//!
//! The probed gram postings are grouped by the stored triple they were cut
//! from — its slab's address and record index — not by its strings, and
//! the count filter runs per triple. That is the per-string bound of
//! Gravano et al. \[7\], so a true match always passes; only a world that
//! stores one (oid, attribute, text) in two records can tell the difference,
//! and there the records are counted apart, so a candidate whose records
//! pass only together is not fetched to be rejected. A `Candidate` is a
//! handle on the triple's posting: its oid, attribute and text are read
//! through it, candidates sort on the oid's first eight bytes before any
//! string, and strings are copied only into a verified [`SimilarMatch`].
//!
//! ## Completeness note (documented deviation)
//!
//! The paper claims both gram variants are "guaranteed to find matching
//! data". That holds only when `|s| >= q·(d+1)`: below that, `d` edits can
//! destroy *every* shared gram (e.g. `house`/`hoXse` share no 3-grams at
//! distance 1). This implementation is faithful to the algorithms — it has
//! the same blind spot — and additionally (a) routes queries with `|s| < q`
//! through the naive path (no grams exist at all), and (b) supplements the
//! candidate set from the short-string side families, so data shorter than
//! `q` remains findable. The oracle property tests assert exact recall in
//! the guaranteed regime and report recall in the lossy regime; the bench
//! harness records achieved recall per run.

use crate::broker::ProbeFilter;
use crate::engine::{
    finalize_stats, ExecStep, FanOut, FetchBranch, ObjectCache, ProbeSink, SimilarityEngine,
    StepOutcome,
};
use crate::memo::{JoinSlot, Reuse};
use crate::stats::QueryStats;
use rustc_hash::FxHashMap;
use sqo_overlay::key::Key;
use sqo_overlay::peer::PeerId;
use sqo_storage::keys;
use sqo_storage::objects::Fetched;
use sqo_storage::posting::{Posting, PostingKind};
use sqo_storage::slab::AttrGuard;
use sqo_storage::triple::AttrName;
use sqo_strsim::edit::BoundedLevenshtein;
use sqo_strsim::filters::{char_len, count_filter_threshold, length_filter};
use sqo_strsim::qgram::{qgrams, PositionalQGram};
use sqo_strsim::qsample::qsamples;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::rc::Rc;

/// Evaluation strategy for string similarity (the three curves of Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    QGrams,
    QSamples,
    Naive,
}

impl Strategy {
    pub const ALL: [Strategy; 3] = [Strategy::QSamples, Strategy::QGrams, Strategy::Naive];

    pub fn label(self) -> &'static str {
        match self {
            Strategy::QGrams => "qgrams",
            Strategy::QSamples => "qsamples",
            Strategy::Naive => "strings",
        }
    }
}

/// One verified similarity match, its object a handle, as
/// [`SelectHit`](crate::SelectHit)'s is.
#[derive(Clone)]
pub struct SimilarMatch {
    pub oid: String,
    /// Instance level: the queried attribute. Schema level: the attribute
    /// whose *name* matched.
    pub attr: AttrName,
    /// The matched string (a value at instance level, an attribute name at
    /// schema level).
    pub matched: String,
    pub distance: usize,
    /// The object as fetched.
    pub handle: Fetched,
}

built_object!(SimilarMatch { oid, attr, matched, distance; });

/// A stage-1 candidate: a handle on one stored string occurrence — a value
/// at instance level, an attribute name at schema level — on a concrete
/// object. It holds the posting it was found through (one refcount step),
/// and its oid, attribute and text are read through that; strings are
/// copied only into a [`SimilarMatch`], at Verify.
#[derive(Clone)]
pub(crate) struct Candidate {
    posting: Posting,
    /// The oid's first eight bytes ([`oid_head`]): most comparisons of the
    /// candidate sort end on it, without reading the oid.
    head: u64,
    /// The text's length in chars, as stored: what the verifier's length
    /// gate reads.
    chars: u32,
    /// Schema level: the text is the attribute name, not the value.
    schema: bool,
}

impl Candidate {
    /// A candidate read through `posting`, whose text has `chars` chars.
    pub(crate) fn new(posting: Posting, chars: usize, schema: bool) -> Self {
        let head = oid_head(posting.oid());
        Self { posting, head, chars: chars as u32, schema }
    }

    pub(crate) fn oid(&self) -> &str {
        self.posting.oid()
    }

    /// The object's number, read off the candidate's record.
    pub(crate) fn object(&self) -> u32 {
        self.posting.object()
    }

    pub(crate) fn attr(&self) -> &AttrName {
        self.posting.triple().attr()
    }

    /// The compared string: the value, or at schema level the name.
    pub(crate) fn text(&self) -> &str {
        let t = self.posting.triple();
        if self.schema {
            t.attr().as_str()
        } else {
            t.value_str().unwrap_or_default()
        }
    }

    pub(crate) fn chars(&self) -> usize {
        self.chars as usize
    }

    /// The match this candidate is at `distance`, its object's handle
    /// taken from `cache`; `None` when its object was not fetched.
    fn matched(self, distance: usize, cache: &ObjectCache) -> Option<SimilarMatch> {
        let handle = cache.get(&self.object())?.clone();
        let (oid, matched) = (self.oid().to_string(), self.text().to_string());
        Some(SimilarMatch { oid, attr: self.attr().clone(), matched, distance, handle })
    }

    /// What a candidate is, as a caller sees it: two stored records of one
    /// (oid, attribute, text) are one candidate.
    fn strings(&self) -> (&str, &str, &str) {
        (self.oid(), self.attr().as_str(), self.text())
    }

    /// Sort by oid, attribute and text — the head first, so only oids that
    /// share eight bytes are read — and keep one of each.
    pub(crate) fn sort_dedup(candidates: &mut Vec<Candidate>) {
        candidates.sort_unstable_by(|a, b| {
            a.head.cmp(&b.head).then_with(|| a.strings().cmp(&b.strings()))
        });
        candidates.dedup_by(|a, b| a == b);
    }
}

/// Two candidates are one when their (object, attribute, text) are.
impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.object() == other.object()
            && (self.attr(), self.text()) == (other.attr(), other.text())
    }
}

impl Eq for Candidate {}

impl Hash for Candidate {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.object(), self.chars).hash(state);
    }
}

/// The first eight bytes of `oid` as a big-endian integer, zero-padded:
/// wherever two heads differ they order like the strings, and equal heads
/// leave the decision to the strings.
pub(crate) fn oid_head(oid: &str) -> u64 {
    let mut head = [0u8; 8];
    let n = oid.len().min(8);
    head[..n].copy_from_slice(&oid.as_bytes()[..n]);
    u64::from_be_bytes(head)
}

/// Stage 1.5's grouping: the probed gram postings of each stored triple,
/// as (shared-gram count, the triple's first posting). A triple is its
/// slab's address and its record index ([`Posting::triple_id`]), so
/// counting hashes two words and reads no string.
///
/// Counting is per *posting* (one per gram occurrence in the candidate),
/// not per distinct gram string: the count-filter bound is on the bag
/// intersection of the two gram multisets, and counting distinct grams
/// would under-count candidates whose grams repeat ("aaaa") — an unsound
/// prune. Counting per triple is the per-string bound of Gravano et al.
/// itself: where one (oid, attribute, text) is stored in two records, each
/// is counted on its own, so a true match still passes.
///
/// The groups come in no fixed order (slab addresses differ from run to
/// run); the caller sorts the candidates it makes of them.
fn group_by_triple(postings: &[Posting]) -> Vec<(u32, &Posting)> {
    let mut shared: FxHashMap<(usize, u32), (u32, u32)> =
        FxHashMap::with_capacity_and_hasher(postings.len(), Default::default());
    for (i, p) in postings.iter().enumerate() {
        let (slab, index) = p.triple_id();
        shared.entry((Rc::as_ptr(slab) as usize, index)).or_insert((0, i as u32)).0 += 1;
    }
    shared.into_values().map(|(count, first)| (count, &postings[first as usize])).collect()
}

/// The basic similarity operator as a resumable task: issue-probe →
/// await-responses → merge, one fan-out branch per step, so a workload
/// driver can interleave its progress with other queries at message
/// granularity (see [`crate::engine::ExecStep`]).
pub struct SimilarTask {
    /// The search string, prepared with `d` for the edit-distance checks
    /// of every naive branch and both verification stages.
    verifier: BoundedLevenshtein<'static>,
    attr: Option<String>,
    d: usize,
    from: PeerId,
    strategy: Strategy,
    state: SimState,
    stats: QueryStats,
    /// Object cache — fetched objects as their postings — used when the
    /// task runs standalone; iterative parents (joins, top-N shells) pass
    /// their own via [`Self::step_with`].
    cache: ObjectCache,
    s_len: usize,
    /// True when executing the naive broadcast path (strategy or short-`s`
    /// fallback); switches the meaning of `stats.probes` to "partitions
    /// contacted".
    is_naive: bool,
    /// Positions of each distinct probed gram in `s` (position filter).
    gram_positions: FxHashMap<String, Vec<u32>>,
    /// The distinct probe keys, ascending: every probe branch is a range
    /// of them.
    probe_keys: Vec<Key>,
    postings: Vec<Posting>,
    candidates: Vec<Candidate>,
    partitions_contacted: usize,
    /// The verified candidates and their distances: handles until a caller
    /// takes them as matches.
    verified: Vec<(Candidate, usize)>,
    /// Virtual-time deadline (`arrival + degrade.deadline_us`), fixed on
    /// the first step; `None` runs to completion. Once virtual time passes
    /// it, no new remote legs are issued: queued fan-out branches are
    /// forfeited, counted as addressed-but-unanswered, and the query
    /// returns what it has with `gave_up = 1`. Every probe leg leaves at
    /// the probe fan's fork, which is the arrival this deadline counts
    /// from, so probe legs are never forfeited: only Fetch legs and naive
    /// legs (routed first, then forked) can be.
    deadline_at: Option<u64>,
    /// A join child's place in its join's left side, which its probe
    /// outcome is kept beside; `None` for any other selection.
    pub(crate) join_slot: Option<JoinSlot>,
    reuse: Reuse,
    /// The candidates and objects the task planned to fetch: what the
    /// differential tests read.
    #[cfg(test)]
    probe: tests::Probe,
}

/// Continuation states of a [`SimilarTask`].
enum SimState {
    /// Plan the probes (first step; needs the engine for partition lookup).
    Init,
    /// One gram-probe branch per step (stage 1). Branches flow through the
    /// engine's probe broker when one is installed: cache hits resolve
    /// locally for free, misses ride the partition's open coalescing
    /// channel or route normally (see `crate::broker`).
    Probe {
        fan: FanOut<(usize, Range<usize>)>,
    },
    /// Naive path: route into the subtree of `prefixes[idx]`.
    NaiveRoute {
        prefixes: [Key; 2],
        idx: usize,
        at_us: u64,
    },
    /// Naive path: one per-partition compare-locally branch per step,
    /// under `prefixes[idx]`.
    NaiveFan {
        prefixes: [Key; 2],
        idx: usize,
        entry: PeerId,
        entry_part: usize,
        fan: FanOut<usize>,
    },
    /// Gram merge: candidate aggregation per stored triple, count filter,
    /// short-string supplement, pre-verification (stage 1.5).
    Aggregate {
        at_us: u64,
    },
    /// Compute missing objects against the cache and plan stage 2.
    PlanFetch {
        at_us: u64,
    },
    /// One object-fetch branch per step (stage 2a): a stretch of `objects`.
    Fetch {
        objects: Vec<Posting>,
        fan: FanOut<FetchBranch>,
    },
    /// Final edit-distance verification at the initiator (stage 2b).
    Verify {
        at_us: u64,
    },
    Finished,
}

impl SimilarTask {
    pub fn new(s: &str, attr: Option<&str>, d: usize, from: PeerId, strategy: Strategy) -> Self {
        Self {
            verifier: BoundedLevenshtein::new(s.to_string(), d),
            attr: attr.map(str::to_string),
            d,
            from,
            strategy,
            state: SimState::Init,
            stats: QueryStats::default(),
            cache: FxHashMap::default(),
            s_len: 0,
            is_naive: false,
            gram_positions: FxHashMap::default(),
            probe_keys: Vec::new(),
            postings: Vec::new(),
            candidates: Vec::new(),
            partitions_contacted: 0,
            verified: Vec::new(),
            deadline_at: None,
            join_slot: None,
            reuse: Reuse::Off,
            #[cfg(test)]
            probe: tests::Probe::default(),
        }
    }

    /// True once virtual time `at_us` passed the query deadline.
    fn past_deadline(&self, at_us: u64) -> bool {
        self.deadline_at.is_some_and(|d| at_us > d)
    }

    /// Forfeit `n` un-issued remote legs to the deadline: they count as
    /// addressed (completeness drops accordingly) and the query is marked
    /// as having given up.
    fn drop_legs(&mut self, n: usize) {
        self.stats.partitions_addressed += n as u64;
        self.stats.gave_up = 1;
    }

    /// The verified matches, once the task is done, each assembled as it
    /// is read.
    pub fn take_matches(&mut self) -> impl Iterator<Item = SimilarMatch> {
        let cache = std::mem::take(&mut self.cache);
        std::mem::take(&mut self.verified)
            .into_iter()
            .filter_map(move |(c, d)| c.matched(d, &cache))
    }

    /// [`Self::take_matches`] of a task stepped with a parent's `cache`
    /// ([`Self::step_with`]).
    pub(crate) fn take_matches_in<'c>(
        &mut self,
        cache: &'c ObjectCache,
    ) -> impl Iterator<Item = SimilarMatch> + 'c {
        std::mem::take(&mut self.verified).into_iter().filter_map(|(c, d)| c.matched(d, cache))
    }

    /// The verified candidates and their distances, as handles.
    pub(crate) fn take_verified(&mut self) -> Vec<(Candidate, usize)> {
        std::mem::take(&mut self.verified)
    }

    /// Advance one step, resolving object fetches against `cache` (the
    /// parent-owned variant of [`ExecStep::step`]).
    pub(crate) fn step_with(
        &mut self,
        engine: &mut SimilarityEngine,
        cache: &mut ObjectCache,
        at_us: u64,
    ) -> StepOutcome {
        loop {
            match std::mem::replace(&mut self.state, SimState::Finished) {
                SimState::Init => {
                    self.deadline_at =
                        engine.config().query.degrade.deadline_us.map(|d| at_us.saturating_add(d));
                    let q = engine.q();
                    self.s_len = char_len(self.verifier.query());
                    // No grams exist for |s| < q: the gram index is blind,
                    // fall back to the naive scan (see module docs).
                    if self.strategy == Strategy::Naive || self.s_len < q {
                        self.is_naive = true;
                        let prefixes = match &self.attr {
                            Some(a) => [keys::attr_scan_prefix(a), keys::short_value_prefix(a)],
                            None => [keys::attr_value_family_prefix(), keys::short_attr_prefix()],
                        };
                        self.state = SimState::NaiveRoute { prefixes, idx: 0, at_us };
                        continue;
                    }
                    // ---- Stage 1 plan: distinct gram keys ----------------
                    let s = self.verifier.query();
                    let probes: Vec<PositionalQGram> = match self.strategy {
                        Strategy::QGrams => qgrams(s, q),
                        Strategy::QSamples => qsamples(s, q, self.d),
                        Strategy::Naive => unreachable!("handled above"),
                    };
                    for g in probes {
                        self.gram_positions.entry(g.gram).or_default().push(g.pos);
                    }
                    let mut probe_keys: Vec<Key> = self
                        .gram_positions
                        .keys()
                        .map(|gram| match &self.attr {
                            Some(a) => keys::instance_gram_key(a, gram),
                            None => keys::schema_gram_key(gram),
                        })
                        .collect();
                    probe_keys.sort_unstable(); // determinism of batching
                    self.stats.probes = probe_keys.len();
                    let branches = engine.plan_probe_parts(&probe_keys);
                    if let Some(slot) = &self.join_slot {
                        let selection = (self.attr.as_deref(), self.d, self.strategy);
                        let n_keys = probe_keys.len();
                        self.reuse = engine.memo.reuse(&engine.net, slot, selection, n_keys);
                    }
                    self.probe_keys = probe_keys;
                    self.state = SimState::Probe { fan: FanOut::new(branches, at_us) };
                    continue;
                }

                SimState::Probe { mut fan } => {
                    let Some((part, keys)) = fan.pop() else {
                        self.state = SimState::Aggregate { at_us: fan.max_end_us };
                        continue;
                    };
                    // The length/position filters run *where the postings
                    // live*: the delegated query carries (s, a, d), so the
                    // gram-owning peer prunes locally and only survivors
                    // travel (§4's delegation optimization); cache hits and
                    // cache-filling replies carry the full lists and the
                    // same filter runs at the initiator instead — identical
                    // results either way (see crate::broker).
                    let (attr, positions) = (self.attr.as_deref(), &self.gram_positions);
                    let filters = engine.config().query.filters;
                    let filter = ProbeFilter::new(attr, positions, self.s_len, self.d, filters);
                    let (probe_keys, out) = (&self.probe_keys, &mut self.postings);
                    let epoch = engine.net.cache_epoch();
                    let mut sink = ProbeSink::new(probe_keys, &filter, out, &mut self.reuse, epoch);
                    let end = engine.probe_issue(
                        &mut self.stats,
                        self.from,
                        (part, keys),
                        fan.fork_us,
                        &mut sink,
                    );
                    fan.record_end(end);
                    let next_at = if fan.is_done() { fan.max_end_us } else { fan.fork_us };
                    self.state = SimState::Probe { fan };
                    return StepOutcome::Yield { at_us: next_at };
                }

                SimState::NaiveRoute { prefixes, idx, at_us: at } => {
                    if idx >= prefixes.len() {
                        self.state = SimState::PlanFetch { at_us: at };
                        continue;
                    }
                    if self.past_deadline(at) {
                        // Forfeit every partition the remaining prefixes
                        // would have showered; gaps are not showered.
                        let skipped: usize = prefixes[idx..]
                            .iter()
                            .map(|p| {
                                let (ps, pe) = engine.net.subtree_of(p);
                                engine.net.topology().peered_in(ps, pe).len()
                            })
                            .sum();
                        if skipped > 0 {
                            self.drop_legs(skipped);
                            self.state = SimState::PlanFetch { at_us: at };
                            continue;
                        }
                    }
                    let prefix = &prefixes[idx];
                    let (ps, pe) = engine.net.subtree_of(prefix);
                    if engine.net.topology().peered_in(ps, pe).is_empty() {
                        // Nobody holds a part of these strings.
                        self.state = SimState::NaiveRoute { prefixes, idx: idx + 1, at_us: at };
                        continue;
                    }
                    // Route once into the subtree, then shower-forward; the
                    // per-partition branches verify in parallel and the
                    // initiator is done when the slowest responder replies.
                    let from = self.from;
                    let (routed, end) = engine.charged(&mut self.stats, at, |e| {
                        e.with_leg_retry(|e| e.net.route(from, prefix)).ok()
                    });
                    match routed {
                        Some(entry) => {
                            let entry_part = engine.net.peer_partition(entry);
                            self.state = SimState::NaiveFan {
                                prefixes,
                                idx,
                                entry,
                                entry_part,
                                fan: FanOut::new(
                                    engine
                                        .net
                                        .topology()
                                        .peered_in(ps, pe)
                                        .iter()
                                        .map(|p| *p as usize),
                                    end,
                                ),
                            };
                        }
                        None => {
                            self.state = SimState::NaiveRoute { prefixes, idx: idx + 1, at_us: end }
                        }
                    }
                    return StepOutcome::Yield { at_us: end };
                }

                SimState::NaiveFan { prefixes, idx, entry, entry_part, mut fan } => {
                    if !fan.is_done() && self.past_deadline(fan.fork_us) {
                        self.drop_legs(fan.len());
                        self.state =
                            SimState::NaiveRoute { prefixes, idx: idx + 1, at_us: fan.max_end_us };
                        continue;
                    }
                    let Some(part) = fan.pop() else {
                        self.state =
                            SimState::NaiveRoute { prefixes, idx: idx + 1, at_us: fan.max_end_us };
                        continue;
                    };
                    let (verifier, attr, from) = (&mut self.verifier, &self.attr, self.from);
                    let out = &mut self.candidates;
                    let (answered, end) = engine.charged(&mut self.stats, fan.fork_us, |e| {
                        e.naive_branch(
                            verifier,
                            attr.as_deref(),
                            from,
                            entry,
                            entry_part,
                            part,
                            &prefixes[idx],
                            out,
                        )
                    });
                    if answered {
                        self.partitions_contacted += 1;
                    }
                    fan.record_end(end);
                    let next_at = if fan.is_done() { fan.max_end_us } else { fan.fork_us };
                    self.state = SimState::NaiveFan { prefixes, idx, entry, entry_part, fan };
                    return StepOutcome::Yield { at_us: next_at };
                }

                SimState::Aggregate { at_us: at } => {
                    let mut postings = std::mem::take(&mut self.postings);
                    let q = engine.q();
                    let filters = engine.config().query.filters;
                    // Every leg the probe addressed answered: a kept outcome
                    // is what they answered, and one of them can be kept.
                    let answered = self.stats.partitions_answered
                        == self.stats.partitions_addressed
                        && self.stats.gave_up == 0;
                    let (mut record, mut stored) = (None, None);
                    match std::mem::replace(&mut self.reuse, Reuse::Off) {
                        Reuse::Replay { outcome, collected: false, .. } if answered => {
                            #[cfg(test)]
                            engine.memo.count_served();
                            stored = Some(outcome);
                        }
                        Reuse::Replay { lent, .. } => {
                            // Not every leg answered, or not all at the kept
                            // epoch: the survivors of those that replayed
                            // are read again, uncharged, where they lay.
                            let (attr, positions) = (self.attr.as_deref(), &self.gram_positions);
                            let filter =
                                ProbeFilter::new(attr, positions, self.s_len, self.d, filters);
                            for (run, i) in &lent {
                                let items = run.prefix_entries(&self.probe_keys[*i]).items;
                                postings.extend(filter.survivors(items).cloned());
                            }
                        }
                        Reuse::Record { payloads } if answered => record = Some(payloads),
                        Reuse::Record { .. } | Reuse::Off => {}
                    }
                    let grams_carry =
                        engine.config().publish.grams_carry_value && self.attr.is_some();
                    let (attr, s_len, d, strategy, from) =
                        (&self.attr, self.s_len, self.d, self.strategy, self.from);
                    #[cfg(test)]
                    let group =
                        if engine.reference { tests::group_by_strings } else { group_by_triple };
                    #[cfg(not(test))]
                    let group = group_by_triple;
                    let (schema, slot) = (attr.is_none(), &self.join_slot);
                    let verifier = &mut self.verifier;
                    let ((candidates, n_candidates), end) =
                        engine.charged(&mut self.stats, at, |e| {
                            // ---- Stage 1.5: aggregation + count filter -------
                            // Every probed posting passed the probe filter, so it
                            // is a gram of the query's level whose source is a
                            // string. They are counted per stored triple, and a
                            // count-filter survivor becomes a handle on its
                            // triple's first posting: no string is hashed or
                            // copied here. A kept outcome holds those
                            // candidates already.
                            // Count filter — meaningful only when all grams were
                            // probed.
                            let count_filter = filters.count && strategy == Strategy::QGrams;
                            let mut candidates: Vec<Candidate> = match &stored {
                                Some(outcome) => outcome.candidates.clone(),
                                None => {
                                    let mut candidates: Vec<Candidate> = group(&postings)
                                        .into_iter()
                                        .filter_map(|(shared, p)| {
                                            let chars = p.source_len().unwrap_or_default();
                                            let kept = !count_filter
                                                || shared as i64
                                                    >= count_filter_threshold(s_len, chars, q, d);
                                            kept.then(|| Candidate::new(p.clone(), chars, schema))
                                        })
                                        .collect();
                                    Candidate::sort_dedup(&mut candidates);
                                    candidates
                                }
                            };
                            if let (Some(payloads), Some(slot)) = (record, slot) {
                                let selection = (attr.as_deref(), d, strategy);
                                e.memo.keep(&e.net, slot, selection, payloads, &candidates);
                            }
                            let grams = candidates.len();

                            // ---- Short-string supplement ---------------------
                            // Data strings with |t| < q live in the side
                            // families; they can only match when the length
                            // window reaches below q.
                            if s_len.saturating_sub(d) < q {
                                let prefix = match attr {
                                    Some(a) => keys::short_value_prefix(a),
                                    None => keys::short_attr_prefix(),
                                };
                                let runs = e.scan_prefix(from, &prefix);
                                let mut queried =
                                    AttrGuard::new(attr.as_deref().unwrap_or_default());
                                for p in runs.iter().flat_map(|r| e.net.run_items(r)) {
                                    let chars = match (attr, p.kind()) {
                                        (Some(_), PostingKind::ShortValue) => {
                                            if !queried.admits(p) {
                                                continue;
                                            }
                                            // `None`: a number.
                                            let Some(chars) = p.char_len() else { continue };
                                            chars
                                        }
                                        (None, PostingKind::ShortAttr) => {
                                            p.triple().attr_char_len()
                                        }
                                        _ => continue,
                                    };
                                    if filters.length && !length_filter(chars, s_len, d) {
                                        continue;
                                    }
                                    candidates.push(Candidate::new(p.clone(), chars, schema));
                                }
                            }
                            if candidates.len() > grams {
                                Candidate::sort_dedup(&mut candidates);
                            }
                            let n_candidates = candidates.len();

                            // ---- Pre-verification (value-carrying postings) --
                            // When instance-gram postings ship the complete value
                            // (§4's closing optimization,
                            // `PublishConfig::grams_carry_value`), the initiator
                            // already holds every candidate's string and can run
                            // the edit-distance check *before* stage 2 — objects
                            // are then fetched only for true matches.
                            if grams_carry {
                                let mut surviving = Vec::with_capacity(candidates.len());
                                for cand in candidates {
                                    e.edit_comparisons += 1;
                                    if verifier.distance_of(cand.text(), cand.chars()).is_some() {
                                        surviving.push(cand);
                                    }
                                }
                                candidates = surviving;
                            }
                            (candidates, n_candidates)
                        });
                    self.stats.candidates = n_candidates;
                    self.candidates = candidates;
                    self.state = SimState::PlanFetch { at_us: end };
                    continue;
                }

                SimState::PlanFetch { at_us: at } => {
                    if self.is_naive {
                        // The peers already verified; count the contacted
                        // partitions and dedup before assembly.
                        Candidate::sort_dedup(&mut self.candidates);
                        self.stats.candidates = self.candidates.len();
                        self.stats.probes = self.partitions_contacted;
                    }
                    #[cfg(test)]
                    self.probe.candidates.extend(self.candidates.iter().map(|c| {
                        let (oid, attr, text) = c.strings();
                        (oid.to_string(), attr.to_string(), text.to_string())
                    }));
                    // `sort_dedup` left the candidates ascending by oid, so
                    // the objects still to fetch ascend once repeats go
                    // (which `plan_fetch_branches` asserts).
                    let mut missing: Vec<Posting> = Vec::new();
                    for cand in &self.candidates {
                        let object = cand.object();
                        if missing.last().is_none_or(|m| m.object() != object)
                            && !cache.contains_key(&object)
                        {
                            missing.push(cand.posting.clone());
                        }
                    }
                    if missing.is_empty() {
                        self.state = SimState::Verify { at_us: at };
                        continue;
                    }
                    cache.reserve(missing.len());
                    #[cfg(test)]
                    self.probe.fetched.extend(missing.iter().map(|p| p.oid().to_string()));
                    let branches = engine.plan_fetch_branches(&missing);
                    self.state =
                        SimState::Fetch { objects: missing, fan: FanOut::new(branches, at) };
                    continue;
                }

                SimState::Fetch { objects, mut fan } => {
                    if !fan.is_done() && self.past_deadline(fan.fork_us) {
                        self.drop_legs(fan.len());
                        self.state = SimState::Verify { at_us: fan.max_end_us };
                        continue;
                    }
                    let Some(branch) = fan.pop() else {
                        self.state = SimState::Verify { at_us: fan.max_end_us };
                        continue;
                    };
                    let from = self.from;
                    let ((), end) = engine.charged(&mut self.stats, fan.fork_us, |e| {
                        e.fetch_branch(from, &objects[branch], |p, fetched| {
                            cache.insert(p.object(), fetched);
                        })
                    });
                    fan.record_end(end);
                    let next_at = if fan.is_done() { fan.max_end_us } else { fan.fork_us };
                    self.state = SimState::Fetch { objects, fan };
                    return StepOutcome::Yield { at_us: next_at };
                }

                SimState::Verify { at_us: at } => {
                    let candidates = std::mem::take(&mut self.candidates);
                    let verifier = &mut self.verifier;
                    let (verified, _end) = engine.charged(&mut self.stats, at, |e| {
                        let mut verified = Vec::new();
                        for cand in candidates {
                            if !cache.contains_key(&cand.object()) {
                                continue;
                            }
                            e.edit_comparisons += 1;
                            if let Some(distance) = verifier.distance_of(cand.text(), cand.chars())
                            {
                                verified.push((cand, distance));
                            }
                        }
                        verified
                    });
                    self.stats.matches = verified.len();
                    finalize_stats(&mut self.stats);
                    self.verified = verified;
                    self.state = SimState::Finished;
                    return StepOutcome::Done(self.stats);
                }

                SimState::Finished => {
                    return StepOutcome::Done(self.stats);
                }
            }
        }
    }
}

impl ExecStep for SimilarTask {
    fn step(&mut self, engine: &mut SimilarityEngine, at_us: u64) -> StepOutcome {
        let mut cache = std::mem::take(&mut self.cache);
        let out = self.step_with(engine, &mut cache, at_us);
        self.cache = cache;
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::{SimilarMatch, SimilarTask};
    use crate::engine::{EngineBuilder, SimilarityEngine};
    use crate::similar::Strategy;
    use crate::stats::QueryStats;
    use proptest::prelude::*;
    use rustc_hash::FxHashMap;
    use sqo_overlay::peer::PeerId;
    use sqo_storage::posting::{Posting, PostingKind};
    use sqo_storage::publish::PublishConfig;
    use sqo_storage::triple::{Row, Value};

    /// What the differential tests read back from a task.
    #[derive(Default)]
    pub(crate) struct Probe {
        /// (oid, attribute, text) of every candidate the task planned to
        /// fetch, in order.
        pub candidates: Vec<(String, String, String)>,
        /// The oids the task planned to fetch, in the order it passed them.
        pub fetched: Vec<String>,
    }

    /// The reference stage 1.5 runs on an engine set to `reference`: its
    /// aggregation before it counted per triple.
    /// One group per (oid, attribute, text), its strings borrowed from the
    /// postings and hashed, whichever records hold them — so where one
    /// (oid, attribute, text) is stored in two records, their counts add.
    pub(crate) fn group_by_strings(postings: &[Posting]) -> Vec<(u32, &Posting)> {
        let mut shared: FxHashMap<(&str, &str, &str), (u32, u32)> = FxHashMap::default();
        for (i, p) in postings.iter().enumerate() {
            let t = p.triple();
            let text = match p.kind() {
                PostingKind::SchemaGram => t.attr().as_str(),
                _ => t.value_str().unwrap_or_default(),
            };
            shared.entry((t.oid(), t.attr().as_str(), text)).or_insert((0, i as u32)).0 += 1;
        }
        shared.into_values().map(|(count, first)| (count, &postings[first as usize])).collect()
    }

    /// What one query showed of itself, its matches printed.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        candidates: Vec<(String, String, String)>,
        n_candidates: usize,
        messages: u64,
        matches: Vec<String>,
    }

    fn outcome(
        e: &mut SimilarityEngine,
        (s, attr, d): (&str, Option<&str>, usize),
        strategy: Strategy,
    ) -> Outcome {
        let from = e.random_peer();
        let mut task = SimilarTask::new(s, attr, d, from, strategy);
        let stats = e.run_task(&mut task);
        Outcome {
            candidates: std::mem::take(&mut task.probe.candidates),
            n_candidates: stats.candidates,
            messages: stats.traffic.messages,
            matches: task.take_matches().map(|m| format!("{m:?}")).collect(),
        }
    }

    /// `s` with the char at `k mod |s|` replaced by one of `abc`, or `s`
    /// itself when `k` says so: queries near the stored strings.
    fn edited(s: &str, k: usize) -> String {
        let chars: Vec<char> = s.chars().collect();
        if chars.is_empty() || k.is_multiple_of(4) {
            return s.to_string();
        }
        let at = k % chars.len();
        let with = ['a', 'b', 'c'][k / chars.len() % 3];
        chars.iter().enumerate().map(|(i, c)| if i == at { with } else { *c }).collect()
    }

    /// Run every query — instance level on each attribute and schema level,
    /// d = 0…3, all three strategies — on two twin engines, one grouping
    /// per triple and one by strings, and hand each pair of outcomes to
    /// `check`.
    fn differential(
        rows: &[Row],
        second_batch: &[Row],
        q: usize,
        carry: bool,
        picks: &[usize],
        check: impl Fn(&Outcome, &Outcome, &str),
    ) {
        let build = || {
            let publish = PublishConfig { grams_carry_value: carry, ..PublishConfig::default() };
            let mut e = EngineBuilder::new()
                .peers(24)
                .seed(q as u64)
                .publish_config(publish)
                .q(q)
                .build_with_rows(rows);
            e.publish_rows(second_batch);
            e
        };
        let (mut by_triple, mut by_strings) = (build(), build());
        by_strings.reference = true;
        let fields: Vec<(&str, &str)> = rows
            .iter()
            .chain(second_batch)
            .flat_map(|r| r.fields.iter())
            .filter_map(|(a, v)| Some((a.as_str(), v.as_str()?)))
            .collect();
        for (n, &k) in picks.iter().enumerate() {
            let (attr, value) = fields[k % fields.len()];
            let queries = [(edited(value, k / 7), Some(attr)), (edited(attr, k / 5), None)];
            for (s, attr) in &queries {
                let d = n % 4;
                for strategy in Strategy::ALL {
                    let query = (s.as_str(), *attr, d);
                    let got = outcome(&mut by_triple, query, strategy);
                    let want = outcome(&mut by_strings, query, strategy);
                    check(&got, &want, &format!("{query:?} {strategy:?} q={q}"));
                }
            }
        }
    }

    /// Words (`[abc]{1,8}`) or titles (two to four of them) under a few
    /// attribute names, short ones (below q) included; `id` keeps oids
    /// apart.
    fn world(id: usize, values: &[String], titles: bool) -> Vec<Row> {
        const NAMES: [&str; 5] = ["word", "wort", "ward", "words", "wo"];
        values
            .chunks(if titles { 3 } else { 1 })
            .enumerate()
            .map(|(i, vs)| {
                let value = vs.join(" ");
                let name = NAMES[(i + id) % NAMES.len()];
                Row::new(format!("o:{id}:{i}"), [(name, Value::from(value))])
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Stage 1.5 counts per stored triple, and on a world that stores
        /// every (oid, attribute, text) once it plans the candidates, counts
        /// them, spends the messages and answers the matches the
        /// string-keyed aggregation did. Where an object stores one value
        /// twice (two batches) or holds two values under one attribute
        /// (one name, twice, at schema level), the matches are the same
        /// and the candidates a subset.
        #[test]
        fn counting_per_triple_is_the_string_keyed_aggregation(
            values in prop::collection::vec("[abc]{1,8}", 6..30),
            titles in any::<bool>(),
            carry in any::<bool>(),
            picks in prop::collection::vec(0usize..10_000, 4),
        ) {
            let rows = world(0, &values, titles);
            for q in [2, 3] {
                differential(&rows, &[], q, carry, &picks, |got, want, case| {
                    assert_eq!(got, want, "{case}");
                });
                // One object stores a value again in a second batch; another
                // holds two values under one attribute.
                let again = &rows[picks[0] % rows.len()];
                let mut twice = rows.clone();
                let (name, value) = &rows[picks[1] % rows.len()].fields[0];
                twice.push(Row::new(
                    "o:two",
                    [(name.as_str(), value.clone()), (name.as_str(), Value::from("abcabc"))],
                ));
                differential(&twice, std::slice::from_ref(again), q, carry, &picks, |got, want, case| {
                    assert_eq!(got.matches, want.matches, "{case}");
                    assert!(
                        got.candidates.iter().all(|c| want.candidates.contains(c)),
                        "{case}: {:?} ⊄ {:?}", got.candidates, want.candidates
                    );
                    assert!(got.n_candidates <= want.n_candidates, "{case}");
                });
            }
        }
    }

    /// Where one object holds two values under the attribute `abcdef`, the
    /// string-keyed sum counted each of the name's grams twice: "abcxyz"
    /// shares `ab` and `bc` with it, 2 + 2 = 4 passed the bound of 3 at
    /// q = 2, d = 1, and the object was fetched to be rejected. Counted per
    /// triple it shares 2, below the bound, and is never fetched.
    #[test]
    fn a_name_held_twice_no_longer_passes_the_count_filter_on_its_sum() {
        let rows = vec![
            Row::new("o:1", [("abcdef", Value::from(1)), ("abcdef", Value::from(2))]),
            Row::new("o:2", [("abcxyw", Value::from(3))]),
        ];
        let build = || EngineBuilder::new().peers(16).seed(5).q(2).build_with_rows(&rows);
        let (mut by_triple, mut by_strings) = (build(), build());
        by_strings.reference = true;
        let query = ("abcxyz", None, 1);
        let got = outcome(&mut by_triple, query, Strategy::QGrams);
        let want = outcome(&mut by_strings, query, Strategy::QGrams);
        let one = |oid: &str, name: &str| (oid.to_string(), name.to_string(), name.to_string());
        assert_eq!(want.candidates, [one("o:1", "abcdef"), one("o:2", "abcxyw")]);
        assert_eq!(got.candidates, [one("o:2", "abcxyw")]);
        assert_eq!((got.n_candidates, want.n_candidates), (1, 2));
        assert_eq!(got.matches.len(), 1);
        assert!(got.matches[0].starts_with(r#"SimilarMatch { oid: "o:2""#), "{:?}", got.matches);
        assert_eq!(got.matches, want.matches);
    }

    /// What a finished [`SimilarTask`] answered.
    pub(crate) struct Answer {
        pub matches: Vec<SimilarMatch>,
        pub stats: QueryStats,
    }

    /// Run `Similar(s, attr, d)` from `from` to completion.
    pub(crate) fn similar(
        e: &mut SimilarityEngine,
        s: &str,
        attr: Option<&str>,
        d: usize,
        from: PeerId,
        strategy: Strategy,
    ) -> Answer {
        let mut task = SimilarTask::new(s, attr, d, from, strategy);
        let stats = e.run_task(&mut task);
        Answer { matches: task.take_matches().collect(), stats }
    }

    fn word_rows(words: &[&str]) -> Vec<Row> {
        words
            .iter()
            .enumerate()
            .map(|(i, w)| Row::new(format!("w:{i}"), [("word", Value::from(*w))]))
            .collect()
    }

    /// The oids a task fetches need no sort: `sort_dedup` leaves the
    /// candidates ascending by oid, so once repeats go they ascend
    /// strictly — checked here, since release builds skip the
    /// `debug_assert!`. Oids share their first eight bytes or end inside
    /// them, objects have several fields that match, and every strategy
    /// and level runs at d = 0…3.
    #[test]
    fn the_oids_to_fetch_ascend_without_a_sort() {
        let oids = ["objectid", "objectid\0", "objectid-b", "objectid-a", "objectida", "objec"];
        let oids = oids.iter().chain(&["objectid-é", "objectid-a0", "o", "objectid\u{7f}"]);
        let rows: Vec<Row> = oids
            .enumerate()
            .map(|(i, oid)| {
                let v = ["paintings", "painting", "paintingz", "xainting"][i % 4];
                Row::new(*oid, [("word", Value::from(v)), ("wort", Value::from("painting"))])
            })
            .collect();
        let mut e = EngineBuilder::new().peers(16).seed(4).q(2).build_with_rows(&rows);
        let mut fetched = 0;
        for d in 0..4 {
            for (s, attr) in [("painting", Some("word")), ("word", None), ("pa", Some("wort"))] {
                for strategy in Strategy::ALL {
                    let from = e.random_peer();
                    let mut task = SimilarTask::new(s, attr, d, from, strategy);
                    e.run_task(&mut task);
                    let oids = &task.probe.fetched;
                    assert!(oids.windows(2).all(|w| w[0] < w[1]), "{s} {d} {strategy:?}: {oids:?}");
                    fetched += oids.len();
                }
            }
        }
        assert!(fetched > 100, "the queries fetch ({fetched} oids)");
    }

    #[test]
    fn finds_close_words_qgrams() {
        let rows = word_rows(&["similar", "simular", "similarity", "dissimilar", "overlay"]);
        let mut e = EngineBuilder::new().peers(32).seed(1).build_with_rows(&rows);
        let from = e.random_peer();
        let res = similar(&mut e, "similar", Some("word"), 1, from, Strategy::QGrams);
        let mut found: Vec<&str> = res.matches.iter().map(|m| m.matched.as_str()).collect();
        found.sort_unstable();
        assert_eq!(found, vec!["similar", "simular"]);
        assert_eq!(res.matches.iter().find(|m| m.matched == "similar").unwrap().distance, 0);
        assert!(res.stats.probes > 0);
        assert!(res.stats.traffic.messages > 0);
    }

    #[test]
    fn qsamples_probe_fewer_keys() {
        let rows = word_rows(&["abcdefghijkl", "abcdefghijkx", "zzzzzzzzzzzz"]);
        let mut e = EngineBuilder::new().peers(32).seed(2).build_with_rows(&rows);
        let from = e.random_peer();
        let full = similar(&mut e, "abcdefghijkl", Some("word"), 1, from, Strategy::QGrams);
        let sampled = similar(&mut e, "abcdefghijkl", Some("word"), 1, from, Strategy::QSamples);
        assert!(sampled.stats.probes < full.stats.probes);
        let mut a: Vec<&str> = full.matches.iter().map(|m| m.matched.as_str()).collect();
        let mut b: Vec<&str> = sampled.matches.iter().map(|m| m.matched.as_str()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "in the guaranteed regime both variants agree");
    }

    #[test]
    fn all_strategies_agree_in_guaranteed_regime() {
        // |s| = 12 >= q(d+1) = 3*2 -> exact recall for all strategies.
        let rows = word_rows(&[
            "paintingblue",
            "paintingblux",
            "paintingreen",
            "sculpturered",
            "pxintingblue",
        ]);
        let mut e = EngineBuilder::new().peers(48).seed(3).build_with_rows(&rows);
        let from = e.random_peer();
        let collect = |e: &mut crate::engine::SimilarityEngine, s: Strategy| {
            let mut v: Vec<String> = similar(e, "paintingblue", Some("word"), 1, from, s)
                .matches
                .into_iter()
                .map(|m| m.matched)
                .collect();
            v.sort_unstable();
            v
        };
        let naive = collect(&mut e, Strategy::Naive);
        assert_eq!(naive, vec!["paintingblue", "paintingblux", "pxintingblue"]);
        assert_eq!(collect(&mut e, Strategy::QGrams), naive);
        assert_eq!(collect(&mut e, Strategy::QSamples), naive);
    }

    #[test]
    fn schema_level_finds_typo_attributes() {
        let rows = vec![
            Row::new("d:1", [("dlrid", Value::from(10))]),
            Row::new("d:2", [("dlrjd", Value::from(11))]), // typo'd attribute
            Row::new("d:3", [("price", Value::from(12))]),
        ];
        let mut e = EngineBuilder::new().peers(24).seed(4).build_with_rows(&rows);
        let from = e.random_peer();
        let res = similar(&mut e, "dlrid", None, 1, from, Strategy::QGrams);
        let mut attrs: Vec<&str> = res.matches.iter().map(|m| m.attr.as_str()).collect();
        attrs.sort_unstable();
        assert_eq!(attrs, vec!["dlrid", "dlrjd"]);
    }

    #[test]
    fn short_query_falls_back_to_naive_and_finds_short_data() {
        let rows = word_rows(&["ab", "ax", "abcdef"]);
        let mut e = EngineBuilder::new().peers(16).seed(5).build_with_rows(&rows);
        let from = e.random_peer();
        // |s| = 2 < q = 3: naive fallback, still complete.
        let res = similar(&mut e, "ab", Some("word"), 1, from, Strategy::QGrams);
        let mut found: Vec<&str> = res.matches.iter().map(|m| m.matched.as_str()).collect();
        found.sort_unstable();
        assert_eq!(found, vec!["ab", "ax"]);
    }

    #[test]
    fn short_data_found_by_longer_query() {
        // Data "abc" (has a gram), data "ab" (short family), query "abc".
        let rows = word_rows(&["ab", "abc", "zzz"]);
        let mut e = EngineBuilder::new().peers(16).seed(6).build_with_rows(&rows);
        let from = e.random_peer();
        let res = similar(&mut e, "abc", Some("word"), 1, from, Strategy::QGrams);
        let mut found: Vec<&str> = res.matches.iter().map(|m| m.matched.as_str()).collect();
        found.sort_unstable();
        assert_eq!(found, vec!["ab", "abc"], "short-family supplement must fire");
    }

    #[test]
    fn distance_zero_is_exact_match() {
        let rows = word_rows(&["exact", "exalt"]);
        let mut e = EngineBuilder::new().peers(16).seed(7).build_with_rows(&rows);
        let from = e.random_peer();
        let res = similar(&mut e, "exact", Some("word"), 0, from, Strategy::QGrams);
        assert_eq!(res.matches.len(), 1);
        assert_eq!(res.matches[0].matched, "exact");
        assert_eq!(res.matches[0].distance, 0);
    }

    #[test]
    fn no_matches_when_nothing_close() {
        let rows = word_rows(&["alpha", "beta"]);
        let mut e = EngineBuilder::new().peers(16).seed(8).build_with_rows(&rows);
        let from = e.random_peer();
        let res = similar(&mut e, "qqqqqqq", Some("word"), 1, from, Strategy::QGrams);
        assert!(res.matches.is_empty());
        assert_eq!(res.stats.matches, 0);
    }

    #[test]
    fn wrong_attribute_is_invisible() {
        let rows = vec![
            Row::new("o:1", [("title", Value::from("similar"))]),
            Row::new("o:2", [("word", Value::from("similar"))]),
        ];
        let mut e = EngineBuilder::new().peers(16).seed(9).build_with_rows(&rows);
        let from = e.random_peer();
        let res = similar(&mut e, "similar", Some("word"), 0, from, Strategy::QGrams);
        assert_eq!(res.matches.len(), 1);
        assert_eq!(res.matches[0].oid, "o:2");
    }

    #[test]
    fn naive_counts_local_comparisons() {
        let rows = word_rows(&["one", "two", "three", "four", "five", "sixsix"]);
        let mut e = EngineBuilder::new().peers(16).seed(10).build_with_rows(&rows);
        let from = e.random_peer();
        let res = similar(&mut e, "seven", Some("word"), 1, from, Strategy::Naive);
        assert!(
            res.stats.edit_comparisons >= 6,
            "naive must compare against every stored value (got {})",
            res.stats.edit_comparisons
        );
    }

    #[test]
    fn matches_carry_complete_objects() {
        let rows =
            vec![Row::new("car:9", [("name", Value::from("BMW 320d")), ("hp", Value::from(190))])];
        let mut e = EngineBuilder::new().peers(16).seed(11).build_with_rows(&rows);
        let from = e.random_peer();
        let res = similar(&mut e, "BMW 320d", Some("name"), 1, from, Strategy::QGrams);
        assert_eq!(res.matches.len(), 1);
        let obj = &res.matches[0].object();
        assert_eq!(obj.get("hp"), Some(&Value::from(190)));
        assert_eq!(obj.get("name"), Some(&Value::from("BMW 320d")));
    }

    #[test]
    fn dead_partition_degrades_completeness_instead_of_failing() {
        let rows = word_rows(&[
            "similar",
            "simular",
            "different",
            "separate",
            "unrelated",
            "another",
            "wording",
            "verbiage",
        ]);
        let mut e = EngineBuilder::new().peers(48).replication(1).seed(30).build_with_rows(&rows);
        let from = e.random_peer();
        let healthy = similar(&mut e, "similar", Some("word"), 1, from, Strategy::QGrams);
        assert_eq!(healthy.stats.completeness(), 1.0, "healthy network answers every leg");
        assert!(healthy.stats.partitions_addressed > 0);
        assert_eq!(healthy.stats.gave_up, 0);
        // Kill a partition the query addresses; the initiator must survive.
        let parts = e.network().partition_count();
        let home = e.network().peer_partition(from);
        for part in (0..parts).filter(|&p| p != home).take(parts / 2) {
            e.network_mut().fail_partition(part);
        }
        let degraded = similar(&mut e, "similar", Some("word"), 1, from, Strategy::QGrams);
        assert!(
            degraded.stats.partitions_answered < degraded.stats.partitions_addressed,
            "silenced partitions must show up as unanswered legs"
        );
        assert!(degraded.stats.completeness() < 1.0);
    }

    #[test]
    fn retries_are_counted_and_default_policy_is_inert() {
        use crate::engine::DegradePolicy;
        assert!(!DegradePolicy::default().is_active());
        let rows = word_rows(&["similar", "simular", "distinct", "wording"]);
        let build = |retries: u32| {
            EngineBuilder::new()
                .peers(32)
                .replication(1)
                .seed(31)
                .degrade(DegradePolicy { retries, backoff_us: 0, deadline_us: None })
                .build_with_rows(&rows)
        };
        let mut e = build(2);
        let from = e.random_peer();
        let parts = e.network().partition_count();
        let home = e.network().peer_partition(from);
        for part in (0..parts).filter(|&p| p != home) {
            e.network_mut().fail_partition(part);
        }
        let res = similar(&mut e, "similar", Some("word"), 1, from, Strategy::QGrams);
        assert!(res.stats.retries > 0, "failed legs must be re-attempted under the policy");
        // Same carnage without retries: the failure is final on the first try.
        let mut e0 = build(0);
        let from0 = e0.random_peer();
        let parts0 = e0.network().partition_count();
        let home0 = e0.network().peer_partition(from0);
        for part in (0..parts0).filter(|&p| p != home0) {
            e0.network_mut().fail_partition(part);
        }
        let res0 = similar(&mut e0, "similar", Some("word"), 1, from0, Strategy::QGrams);
        assert_eq!(res0.stats.retries, 0);
    }

    /// Every probe leg leaves at the probe fan's fork, the instant the
    /// deadline counts from, so even a 0 µs deadline answers each of them;
    /// the fetch legs, forked once the probes have answered, are all
    /// forfeited.
    #[test]
    fn a_zero_deadline_answers_every_probe_leg_and_forfeits_the_fetch() {
        use crate::engine::DegradePolicy;
        use crate::simjoin::tests::Clock;
        let rows = word_rows(&["similar", "simular", "similer", "distinct", "wording"]);
        let build = |deadline_us| {
            let policy = DegradePolicy { retries: 0, backoff_us: 0, deadline_us };
            // One leg per gram key.
            let builder = EngineBuilder::new().peers(64).seed(31).delegation(false).degrade(policy);
            let mut e = builder.build_with_rows(&rows);
            e.network_mut().set_event_sink(Box::<Clock>::default());
            e
        };
        let from = PeerId(40);
        let run = |deadline_us| {
            similar(&mut build(deadline_us), "similar", Some("word"), 1, from, Strategy::QGrams)
        };
        let (open, cut) = (run(None), run(Some(0)));
        assert_eq!(open.matches.len(), 3);
        assert_eq!((open.stats.gave_up, open.stats.completeness()), (0, 1.0));
        // Every probe leg answered: the same candidates, found by messages.
        assert!(cut.stats.traffic.messages > 0);
        assert_eq!(cut.stats.partitions_answered as usize, cut.stats.probes, "a leg per key");
        assert_eq!(cut.stats.candidates, open.stats.candidates);
        assert_eq!(cut.stats.partitions_addressed, open.stats.partitions_addressed);
        // No fetch leg left: nothing to verify.
        assert!(cut.matches.is_empty());
        assert_eq!(cut.stats.gave_up, 1);
        assert!(cut.stats.completeness() < 1.0);
        assert!(cut.stats.partitions_answered < open.stats.partitions_answered);
    }

    #[test]
    fn multivalued_attribute_yields_multiple_matches() {
        let rows =
            vec![Row::new("o:1", [("tag", Value::from("redish")), ("tag", Value::from("redisx"))])];
        let mut e = EngineBuilder::new().peers(16).seed(12).build_with_rows(&rows);
        let from = e.random_peer();
        let res = similar(&mut e, "redish", Some("tag"), 1, from, Strategy::QGrams);
        assert_eq!(res.matches.len(), 2, "both values of the tag attribute match");
    }
}
