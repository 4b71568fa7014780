//! Similarity joins — Algorithm 3 of the paper.
//!
//! `SimJoin(ln, rn, d, p)` joins every object carrying attribute `ln` with
//! all objects whose value of attribute `rn` lies within edit distance `d`
//! of the left value. Leaving `rn` empty joins against attribute *names*
//! (schema level); leaving `ln` empty ("a very expensive operation", §5) is
//! supported for completeness and joins every string value of any attribute.
//!
//! The paper's first version "processes separate similarity selections for
//! each object from the left side, which should be optimized in future
//! variants" — this implementation does that per-left probing faithfully,
//! with two initiator-local optimizations on top: the object cache is
//! shared across the per-left `Similar` calls (stage-2 fetches are not
//! repeated), and [`JoinOptions::window`] pipelines per-left selections
//! concurrently from the initiator (`Fixed(1)` reproduces the paper's
//! serial loop; the probing traffic is per-left either way). With
//! [`JoinWindow::Auto`] the window is congestion-controlled: it grows
//! additively while observed queue time stays low and halves when child
//! selections inflate with queueing — see [`crate::adaptive`].
//!
//! With a probe broker installed (`sqo-cache`), the per-left child
//! selections share the initiator's posting cache *across* left values —
//! overlapping grams of different left strings are fetched once — and
//! children whose probe windows overlap coalesce their same-partition
//! probes into one routed multi-key exchange (see [`crate::broker`]). Both
//! are pure traffic savings: join results are byte-identical either way.
//!
//! The left scan answers one `(oid, value)` pair more than once in three
//! ways: a `Row` that repeats a field publishes identical triples; a
//! 1-char value sits under both its attribute's value key and the
//! short-value family; and a key shorter than the trie is stored by — and
//! answered from — every partition covering it. The left side is the
//! distinct pairs, in ascending order. `left_limit` bounds it: a
//! deterministic stratified sample of those pairs, picked by selection
//! rather than by sorting them all. Line 1 is still charged per join —
//! every join routes and showers its scans and ships their replies — but
//! its CPU is spent once per store state, and so is each per-left
//! selection's probe filter: the engine's memo (`crate::memo`) keeps the
//! last side and its children's probe outcomes. A child that replays one
//! still plans, routes, retries, scans and replies on every leg; a child
//! whose legs did not all answer at the kept epoch reads the survivors of
//! those that did again, uncharged, from the runs they lay in when they
//! answered (`engine::Lent`). The §6 workload joins
//! *self-join columns over the full dataset*; at simulation scale a full
//! 10⁵×10⁵ self-join is neither feasible nor what the paper's message
//! counts (≈10³–10⁴ total for a 240-query mix) imply they ran — see the
//! calibration note of `sqo_bench::workload`.

use crate::adaptive::{AimdWindow, JoinWindow};
use crate::engine::{finalize_stats, ExecStep, ObjectCache, SimilarityEngine, StepOutcome};
use crate::memo::{JoinSlot, Side};
use crate::similar::{oid_head, SimilarMatch, SimilarTask, Strategy};
use crate::stats::QueryStats;
use rustc_hash::{FxHashMap, FxHashSet};
use sqo_overlay::network::{ItemRun, Network};
use sqo_overlay::peer::PeerId;
use sqo_storage::keys;
use sqo_storage::posting::{Posting, PostingKind};
use sqo_storage::slab::AttrGuard;
use std::rc::Rc;

/// One joined pair.
#[derive(Debug, Clone)]
pub struct JoinPair {
    pub left_oid: String,
    pub left_value: String,
    pub right: SimilarMatch,
}

/// Options for a [`JoinTask`].
#[derive(Debug, Clone)]
pub struct JoinOptions {
    pub strategy: Strategy,
    /// Cap on the number of left-side values (a stratified deterministic
    /// sample of the left side's `(oid, value)` pairs in ascending order);
    /// `None` joins everything.
    pub left_limit: Option<usize>,
    /// Client-side pipelining: how many per-left similarity selections the
    /// initiator keeps in flight concurrently. `Fixed(1)` is the paper's
    /// serial initiator ("processes separate similarity selections for
    /// each object from the left side"); larger windows overlap the
    /// selections and cut the join's critical path — the "should be
    /// optimized in future variants" the paper anticipates.
    /// [`JoinWindow::Auto`] sizes the window by AIMD congestion control
    /// from observed queue time (see [`crate::adaptive`]).
    pub window: JoinWindow,
}

impl Default for JoinOptions {
    fn default() -> Self {
        Self { strategy: Strategy::QGrams, left_limit: None, window: JoinWindow::Fixed(1) }
    }
}

/// A similarity join as a resumable task. The left scan is one step; each
/// per-left similarity selection is a child [`SimilarTask`] whose steps are
/// multiplexed through this task's queue slot, with up to
/// [`JoinOptions::window`] children in flight at once (a new child starts
/// the moment a slot frees). All children share the initiator's object
/// cache, so stage-2 fetches are never repeated.
pub struct JoinTask {
    ln: String,
    rn: Option<String>,
    d: usize,
    from: PeerId,
    strategy: Strategy,
    left_limit: Option<usize>,
    window: usize,
    /// AIMD controller when the window mode is [`JoinWindow::Auto`];
    /// `None` keeps `window` static.
    aimd: Option<AimdWindow>,
    state: JState,
    stats: QueryStats,
    cache: ObjectCache,
    /// The left side, shared with the engine's memo when scanned; `None`
    /// until the scan or the seed sets it.
    left: Option<Side>,
    next_left: usize,
    children: Vec<JoinChild>,
    pairs: Vec<JoinPair>,
}

struct JoinChild {
    task: SimilarTask,
    resume_at: u64,
    /// The child's pair: an index into the task's left side.
    left: usize,
}

enum JState {
    ScanLeft,
    /// Left side provided by the caller ([`JoinTask::with_left`]): skip the
    /// scan, spawn the first window of children at the first step's time.
    Seeded,
    Running,
    Finished,
}

impl JoinTask {
    pub fn new(ln: &str, rn: Option<&str>, d: usize, from: PeerId, opts: &JoinOptions) -> Self {
        let (window, aimd) = match opts.window {
            JoinWindow::Fixed(n) => (n.max(1), None),
            JoinWindow::Auto { max } => (1, Some(AimdWindow::new(max))),
        };
        Self {
            ln: ln.to_string(),
            rn: rn.map(str::to_string),
            d,
            from,
            strategy: opts.strategy,
            left_limit: opts.left_limit,
            window,
            aimd,
            state: JState::ScanLeft,
            stats: QueryStats::default(),
            cache: FxHashMap::default(),
            left: None,
            next_left: 0,
            children: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// A join whose left side is supplied by the caller (an upstream
    /// operator's output) instead of scanned from attribute `ln`: line 1 of
    /// Algorithm 3 is skipped, everything else — per-left similarity
    /// selections, windowing, the shared object cache — is identical. This
    /// is how a plan pipeline composes `select → sim_join`: the selection's
    /// rows become the join's left pairs without a second scan.
    ///
    /// `pairs` are `(left oid, left value)`; they are deduplicated, ordered
    /// and `left_limit`-sampled exactly like a scanned left side.
    pub fn with_left(
        pairs: Vec<(String, String)>,
        rn: Option<&str>,
        d: usize,
        from: PeerId,
        opts: &JoinOptions,
    ) -> Self {
        let mut task = Self::new("", rn, d, from, opts);
        let left = left_side(pairs, |p| &p.0, task.left_limit);
        task.left = Some(left.into());
        task.state = JState::Seeded;
        task
    }

    /// The joined pairs, once the task is done.
    pub fn take_pairs(&mut self) -> Vec<JoinPair> {
        std::mem::take(&mut self.pairs)
    }

    /// Number of left-side values joined (after `left_limit`).
    pub fn left_size(&self) -> usize {
        self.left.as_ref().map_or(0, |left| left.len())
    }

    /// The adaptive window trajectory — every value the AIMD controller
    /// has taken so far, in order. `None` for fixed windows.
    pub fn window_trace(&self) -> Option<&[usize]> {
        self.aimd.as_ref().map(AimdWindow::trace)
    }

    /// The window currently in force (AIMD-controlled or fixed).
    fn cur_window(&self) -> usize {
        self.aimd.as_ref().map(AimdWindow::window).unwrap_or(self.window)
    }

    /// Fill every free window slot with a new per-left child starting at
    /// `at_us`.
    fn fill_window(&mut self, at_us: u64) {
        while self.next_left < self.left_size() && self.children.len() < self.cur_window() {
            self.spawn_child(at_us);
        }
    }

    fn spawn_child(&mut self, at_us: u64) {
        let left = self.next_left;
        self.next_left += 1;
        let side = self.left.as_ref().expect("children are spawned once the side is set");
        let value = &side[left].1;
        let mut task =
            SimilarTask::new(value, self.rn.as_deref(), self.d, self.from, self.strategy);
        task.join_slot = Some(JoinSlot { side: Rc::clone(side), index: left });
        self.children.push(JoinChild { task, resume_at: at_us, left });
    }
}

impl ExecStep for JoinTask {
    fn step(&mut self, engine: &mut SimilarityEngine, at_us: u64) -> StepOutcome {
        loop {
            match &self.state {
                JState::ScanLeft => {
                    // Line 1: L = Retrieve(key(ln)) — every triple of the
                    // left attribute, via prefix fan-out (plus the
                    // short-value side family).
                    let (ln, from) = (&self.ln, self.from);
                    let (runs, end) = engine.charged(&mut self.stats, at_us, |e| {
                        let mut runs = e.scan_prefix(from, &keys::attr_scan_prefix(ln));
                        runs.extend(e.scan_prefix(from, &keys::short_value_prefix(ln)));
                        runs
                    });
                    // Every pair the scans read is a function of what they
                    // answered: an unchanged store answers the side the
                    // last join computed.
                    let left = engine.memo.left_side(&engine.net, &self.ln, self.left_limit, runs);
                    self.left = Some(left);
                    // Lines 3–6: per-left similarity selections, up to
                    // `window` in flight from the moment the scan returns.
                    self.fill_window(end);
                    self.state = JState::Running;
                    if self.children.is_empty() {
                        continue; // empty left side: fall through to finish
                    }
                    return StepOutcome::Yield { at_us: end };
                }

                JState::Seeded => {
                    self.fill_window(at_us);
                    self.state = JState::Running;
                    continue;
                }

                JState::Running => {
                    if self.children.is_empty() {
                        self.stats.matches = self.pairs.len();
                        if let Some(a) = &self.aimd {
                            self.stats.join_window_peak = a.peak();
                            self.stats.join_window_shrinks = a.shrinks();
                        }
                        finalize_stats(&mut self.stats);
                        self.state = JState::Finished;
                        return StepOutcome::Done(self.stats);
                    }
                    // Step the child that is due first (FIFO on ties), so
                    // interleaving across children is deterministic.
                    let idx = self
                        .children
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, c)| (c.resume_at, *i))
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    let resume_at = self.children[idx].resume_at;
                    let outcome =
                        self.children[idx].task.step_with(engine, &mut self.cache, resume_at);
                    match outcome {
                        StepOutcome::Yield { at_us: resume } => {
                            // AIMD slow start: every step grows the window
                            // until the first completion, and the grown
                            // slots are filled *now* — fan-out steps resume
                            // at their fork frontier, so the ramp costs no
                            // virtual time.
                            if let Some(a) = &mut self.aimd {
                                let before = a.window();
                                a.observe_step();
                                trace_window_change(engine, at_us, before, a.window());
                            }
                            self.children[idx].resume_at = resume;
                            self.fill_window(at_us);
                        }
                        StepOutcome::Done(child_stats) => {
                            let mut child = self.children.remove(idx);
                            // Fold the child's costs into the join: counters
                            // sum, the latency window envelopes. (`matches`
                            // sums too but is overwritten with the pair
                            // count at completion.)
                            self.stats.absorb(&child_stats);
                            let left = self.left.as_deref().unwrap_or_default();
                            let (left_oid, left_value) = &left[child.left];
                            for m in child.task.take_matches_in(&self.cache) {
                                self.pairs.push(JoinPair {
                                    left_oid: left_oid.clone(),
                                    left_value: left_value.clone(),
                                    right: m,
                                });
                            }
                            // AIMD: a completed selection reports its
                            // critical path and the queue time inside it.
                            let end = child_stats.sim.map(|s| s.end_us).unwrap_or(resume_at);
                            if let Some(a) = &mut self.aimd {
                                let (elapsed, queue) = child_stats
                                    .sim
                                    .map(|s| (s.elapsed_us, s.queue_us))
                                    .unwrap_or((0, 0));
                                let before = a.window();
                                a.observe_completion(elapsed, queue);
                                trace_window_change(engine, end, before, a.window());
                            }
                            // Freed (and newly grown) window slots start the
                            // next left items at the finished child's
                            // completion time.
                            self.fill_window(end);
                        }
                    }
                    if self.children.is_empty() {
                        continue; // all done: finish on the next iteration
                    }
                    let next = self.children.iter().map(|c| c.resume_at).min().expect("non-empty");
                    return StepOutcome::Yield { at_us: next };
                }

                JState::Finished => return StepOutcome::Done(self.stats),
            }
        }
    }
}

/// The left side of scans of `ln` that answered `runs`: the `(oid, value)`
/// of every admitted base or short-value posting the runs lend — read where
/// they lie, only the kept pairs copied out — through [`left_side`].
pub(crate) fn scanned_side(
    net: &Network<Posting>,
    ln: &str,
    limit: Option<usize>,
    runs: &[ItemRun],
) -> Side {
    let mut queried = AttrGuard::new(ln);
    let mut pairs = Vec::with_capacity(runs.iter().map(|r| r.items.len()).sum());
    pairs.extend(
        runs.iter()
            .flat_map(|r| net.run_items(r))
            .filter(|p| {
                matches!(p.kind(), PostingKind::Base(_) | PostingKind::ShortValue)
                    && queried.admits(p)
            })
            .filter_map(|p| p.triple().value_str().map(|s| (p.oid(), s))),
    );
    left_side(pairs, |p| p.0, limit)
        .into_iter()
        .map(|(oid, v)| (oid.to_string(), v.to_string()))
        .collect()
}

/// Emit a `join_window` counter sample when the AIMD controller moves the
/// window — the trajectory renders as a stepped counter lane on the query's
/// trace track. No-op without a trace sink or outside a traced query.
fn trace_window_change(engine: &SimilarityEngine, at_us: u64, before: usize, after: usize) {
    if before == after || !engine.network().has_trace_sink() {
        return;
    }
    if let Some(q) = engine.network().trace_query() {
        engine.network().trace_with(|| {
            sqo_overlay::TraceEvent::counter(
                at_us,
                sqo_overlay::TraceTrack::Query(q),
                "join_window",
                after as u64,
            )
        });
        if after < before {
            // AIMD back-off: the join detected contention and stalled its
            // pipeline — a cause-tagged instant for the blame profiler.
            engine.network().trace_with(|| {
                sqo_overlay::TraceEvent::instant(
                    at_us,
                    sqo_overlay::TraceTrack::Query(q),
                    "join_shrink",
                    "exec",
                )
                .arg("from", before)
                .arg("to", after)
                .arg("cause", "aimd-backoff")
            });
        }
    }
}

/// The left side as the join runs it: `pairs` deduplicated and in
/// ascending order, and with a `limit` below their count only the
/// stratified sample of every `count / limit`-th rank — `stride`, summed
/// in `f64` from rank 0, each pick the first rank at or past the sum.
/// `limit` 0 keeps every pair.
///
/// Each pair is ordered by a 16-byte key: its oid's head ([`oid_head`]),
/// which orders like the pair wherever two heads differ, above a tiebreak
/// index. Pairs whose head no other pair shares are distinct, so
/// deduplication compares strings only among pairs that share a head; it
/// sorts those, and their tiebreaks follow that order. The sample is then
/// picked by selection ([`place`]), so only the picks are ever put in
/// order, never the whole side.
fn left_side<T: Ord + Default>(
    mut pairs: Vec<T>,
    oid: impl Fn(&T) -> &str,
    limit: Option<usize>,
) -> Vec<T> {
    let n = pairs.len();
    // A pair of its own head breaks no tie and keeps its index as the
    // tiebreak; the pairs sharing a head are numbered from `n` up in their
    // sorted order.
    let key = |head: u64, tiebreak: usize| u128::from(head) << 64 | tiebreak as u128;
    let head = |key: &u128| (key >> 64) as u64;
    let tiebreak = |key: &u128| *key as u64 as usize;
    let mut keys: Vec<u128> =
        pairs.iter().enumerate().map(|(i, p)| key(oid_head(oid(p)), i)).collect();
    let mut seen: FxHashSet<u64> = FxHashSet::with_capacity_and_hasher(n, Default::default());
    let shared: FxHashSet<u64> =
        keys.iter().map(|k| spread(head(k))).filter(|h| !seen.insert(*h)).collect();
    drop(seen);
    let mut again: Vec<u128> = Vec::new();
    if !shared.is_empty() {
        again = keys.extract_if(.., |k| shared.contains(&spread(head(k)))).collect();
        again.sort_unstable_by(|a, b| pairs[tiebreak(a)].cmp(&pairs[tiebreak(b)]));
        again.dedup_by(|a, b| pairs[tiebreak(a)] == pairs[tiebreak(b)]);
        keys.extend(again.iter().enumerate().map(|(at, k)| key(head(k), n + at)));
    }

    let count = keys.len();
    let mut take = |key: &u128| {
        let at = tiebreak(key);
        std::mem::take(&mut pairs[if at < n { at } else { tiebreak(&again[at - n]) }])
    };
    let limit = match limit {
        Some(limit) if limit > 0 && limit < count => limit,
        _ => {
            keys.sort_unstable();
            return keys.iter().map(take).collect();
        }
    };
    let stride = count as f64 / limit as f64;
    let mut next = 0.0f64;
    let mut ranks = Vec::with_capacity(limit);
    while ranks.len() < limit {
        // The first rank at or past the sum. The stride exceeds 1, so it
        // lies past the pick before, where the reference's scan finds it.
        let rank = next.ceil() as usize;
        if rank >= count {
            break;
        }
        ranks.push(rank);
        next += stride;
    }
    place(&mut keys, 0, &ranks);
    ranks.iter().map(|r| take(&keys[*r])).collect()
}

/// Put the key of each of `ranks` — ascending, each below `offset +
/// keys.len()` and at or past `offset` — at index `rank - offset` of
/// `keys`, which holds ranks `offset..` of distinct keys: the middle rank
/// by one `select_nth_unstable`, then the ranks below it in the part below
/// and those above it in the part above.
fn place(keys: &mut [u128], offset: usize, ranks: &[usize]) {
    let half = ranks.len() / 2;
    let Some(&mid) = ranks.get(half) else { return };
    let (below, _, above) = keys.select_nth_unstable(mid - offset);
    place(below, offset, &ranks[..half]);
    place(above, mid + 1, &ranks[half + 1..]);
}

/// `head` with every bit of it reaching the low bits (SplitMix64's
/// finalizer, a bijection). An oid head is big-endian and zero-padded, so
/// its own low bits barely vary — and a hash table indexes by low bits.
fn spread(head: u64) -> u64 {
    let mut x = head;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{DegradePolicy, EngineBuilder};
    use crate::memo::tests::{before, no_hook, Hook, Trio, KEPT};
    use sqo_cache::BrokerConfig;
    use sqo_overlay::clock::{EventSink, MsgKind, SimLatency};
    use sqo_overlay::SharedTraceSink;
    use sqo_storage::triple::{Row, Value};

    /// What a finished [`JoinTask`] answered.
    struct Joined {
        pairs: Vec<JoinPair>,
        left_size: usize,
    }

    /// Run `SimJoin(ln, rn, d)` from `from` to completion.
    fn sim_join(
        e: &mut SimilarityEngine,
        ln: &str,
        rn: Option<&str>,
        d: usize,
        from: PeerId,
        opts: &JoinOptions,
    ) -> Joined {
        let mut task = JoinTask::new(ln, rn, d, from, opts);
        e.run_task(&mut task);
        Joined { pairs: task.take_pairs(), left_size: task.left_size() }
    }

    fn dealer_rows() -> Vec<Row> {
        vec![
            Row::new("car:1", [("dealer", Value::from("mueller"))]),
            Row::new("car:2", [("dealer", Value::from("schmidt"))]),
            Row::new("dlr:1", [("dlrname", Value::from("mueler"))]), // 1 edit
            Row::new("dlr:2", [("dlrname", Value::from("schmidt"))]),
            Row::new("dlr:3", [("dlrname", Value::from("unrelated"))]),
        ]
    }

    #[test]
    fn joins_across_attributes() {
        let mut e = EngineBuilder::new().peers(32).seed(40).build_with_rows(&dealer_rows());
        let from = e.random_peer();
        let res = sim_join(&mut e, "dealer", Some("dlrname"), 1, from, &JoinOptions::default());
        assert_eq!(res.left_size, 2);
        let mut got: Vec<(String, String)> =
            res.pairs.iter().map(|p| (p.left_value.clone(), p.right.matched.clone())).collect();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![
                ("mueller".to_string(), "mueler".to_string()),
                ("schmidt".to_string(), "schmidt".to_string()),
            ]
        );
    }

    #[test]
    fn self_join_pairs_include_identity() {
        let rows: Vec<Row> = ["banana", "banane", "cherry"]
            .iter()
            .enumerate()
            .map(|(i, w)| Row::new(format!("f:{i}"), [("fruit", Value::from(*w))]))
            .collect();
        let mut e = EngineBuilder::new().peers(24).seed(41).build_with_rows(&rows);
        let from = e.random_peer();
        let res = sim_join(&mut e, "fruit", Some("fruit"), 1, from, &JoinOptions::default());
        // banana↔banana, banana↔banane, banane↔banana, banane↔banane,
        // cherry↔cherry.
        assert_eq!(res.pairs.len(), 5);
    }

    #[test]
    fn left_limit_caps_work() {
        let rows: Vec<Row> = (0..50)
            .map(|i| Row::new(format!("x:{i}"), [("col", Value::from(format!("value{i:03}")))]))
            .collect();
        let mut e = EngineBuilder::new().peers(16).seed(42).build_with_rows(&rows);
        let from = e.random_peer();
        let opts = JoinOptions { left_limit: Some(5), ..Default::default() };
        let res = sim_join(&mut e, "col", Some("col"), 1, from, &opts);
        assert_eq!(res.left_size, 5);
        assert!(res.pairs.len() >= 5, "each sampled value matches itself");
    }

    #[test]
    fn schema_level_join() {
        // Join dealer ids against attribute *names* similar to the value.
        let rows = vec![
            Row::new("conf:1", [("wanted", Value::from("price"))]),
            Row::new("car:1", [("price", Value::from(100)), ("hp", Value::from(90))]),
            Row::new("car:2", [("prize", Value::from(200))]), // typo attribute
        ];
        let mut e = EngineBuilder::new().peers(16).seed(43).build_with_rows(&rows);
        let from = e.random_peer();
        let res = sim_join(&mut e, "wanted", None, 1, from, &JoinOptions::default());
        let mut attrs: Vec<&str> = res.pairs.iter().map(|p| p.right.attr.as_str()).collect();
        attrs.sort_unstable();
        assert_eq!(attrs, vec!["price", "prize"]);
    }

    /// Every k-th element, so that samples spread across the input — the
    /// reference [`left_side`] is held to, after a sort and a dedup.
    fn stratified_sample<T>(items: Vec<T>, limit: usize) -> Vec<T> {
        if items.len() <= limit || limit == 0 {
            return items;
        }
        let stride = items.len() as f64 / limit as f64;
        let mut picked = Vec::with_capacity(limit);
        let mut next = 0.0f64;
        for (i, item) in items.into_iter().enumerate() {
            if picked.len() < limit && i as f64 >= next {
                picked.push(item);
                next += stride;
            }
        }
        picked
    }

    /// What `left_side` stands in for: a sort, a dedup, then
    /// `stratified_sample`.
    fn reference<T: Ord>(mut pairs: Vec<T>, limit: Option<usize>) -> Vec<T> {
        pairs.sort_unstable();
        pairs.dedup();
        match limit {
            Some(limit) => stratified_sample(pairs, limit),
            None => pairs,
        }
    }

    /// Oids whose heads tie or decide: a shared 8-byte prefix, zero padding
    /// against a real NUL, oids shorter than a head, multi-byte chars.
    const OIDS: [&str; 12] = [
        "",
        "a",
        "a\0",
        "a\0\0",
        "longer-t",
        "longer-than-a-head",
        "longer-than-a-heae",
        "longer-t\0",
        "é",
        "éé",
        "w:1",
        "w:10",
    ];
    const VALUES: [&str; 5] = ["", "x", "y", "\0", "ü"];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config { cases: 512, ..Default::default() })]

        /// `left_side` is the sort, dedup and stratified sample it replaced:
        /// the same pairs in the same order, for sides full of duplicate
        /// pairs, of oids that share their head or pad it, of non-ASCII
        /// oids and values, and for every limit that decides — none, 0, 1,
        /// one below the distinct count, the count, past it — plus one at
        /// random.
        #[test]
        fn the_left_side_is_the_sorted_deduped_sample(
            picked in proptest::collection::vec((0usize..OIDS.len(), 0usize..VALUES.len()), 0..60),
            drawn in proptest::collection::vec(("[aé\0-]{0,10}", "[xü\0]{0,2}"), 0..40),
            random in 0usize..70,
        ) {
            let mut pairs: Vec<(&str, &str)> =
                picked.iter().map(|&(o, v)| (OIDS[o], VALUES[v])).collect();
            pairs.extend(drawn.iter().map(|(o, v)| (o.as_str(), v.as_str())));
            let n = reference(pairs.clone(), None).len();
            let limits =
                [None, Some(0), Some(1), Some(n.saturating_sub(1)), Some(n), Some(n + 3), Some(random)];
            for limit in limits {
                let want = reference(pairs.clone(), limit);
                proptest::prop_assert_eq!(left_side(pairs.clone(), |p| p.0, limit), want.clone());
                let owned: Vec<(String, String)> =
                    pairs.iter().map(|(o, v)| (o.to_string(), v.to_string())).collect();
                let got = left_side(owned, |p| &p.0, limit);
                proptest::prop_assert!(got.iter().map(|(o, v)| (o.as_str(), v.as_str())).eq(want));
            }
        }
    }

    /// The picks of a long side: the stride summed over thousands of ranks
    /// and limits that do not divide the count land where the reference's
    /// do.
    #[test]
    fn long_sides_sample_the_reference_ranks() {
        let oids: Vec<String> = (0..5_003).map(|i| format!("w:{}", i * 7_919 % 5_003)).collect();
        let pairs: Vec<(&str, &str)> = oids.iter().map(|o| (o.as_str(), "v")).collect();
        for limit in [1, 2, 3, 7, 8, 9, 64, 999, 2_501, 5_002] {
            let want = reference(pairs.clone(), Some(limit));
            assert_eq!(left_side(pairs.clone(), |p| p.0, Some(limit)), want, "limit {limit}");
        }
    }

    /// A left side holding every way a scan answers one `(oid, value)` pair
    /// twice: a row that repeats a field, a 1-char value (under its
    /// attribute's value key and in the short-value family), and a value
    /// whose key is shorter than the trie (stored by, and answered from,
    /// every partition covering it). The join's left side is that scan
    /// deduplicated and sampled like the reference, and so is a caller's.
    #[test]
    fn a_scanned_left_side_with_every_duplicate_source_is_the_reference() {
        // With q = 3 a value of one or two chars posts no gram: the
        // attribute's values and its short-value family each hold a
        // quarter of the load, and "x" is the key every other short key
        // extends. Reaching it costs the trie a gap per shared bit, so it
        // takes 512 peers to split below it in both families.
        let mut rows = vec![
            Row::new("r:twin", [("col", Value::from("twin")), ("col", Value::from("twin"))]),
            Row::new("r:c", [("col", Value::from("c"))]),
            Row::new("r:short", [("col", Value::from("x"))]),
        ];
        rows.extend((0..300).map(|i| {
            let value = format!("x{}", char::from(b'a' + (i % 26) as u8));
            Row::new(format!("r:{i}"), [("col", Value::from(value))])
        }));
        let mut e = EngineBuilder::new().peers(512).seed(45).q(3).build_with_rows(&rows);
        let from = e.random_peer();

        let mut scanned: Vec<(String, String)> = Vec::new();
        for prefix in [keys::attr_scan_prefix("col"), keys::short_value_prefix("col")] {
            let list = e.network_mut().retrieve_list(from, &prefix).expect("nobody is dead");
            scanned.extend(
                list.iter()
                    .filter(|p| matches!(p.kind(), PostingKind::Base(_) | PostingKind::ShortValue))
                    .filter_map(|p| {
                        Some((p.oid().to_string(), p.triple().value_str()?.to_string()))
                    }),
            );
        }
        let times = |oid: &str| scanned.iter().filter(|p| p.0 == oid).count();
        assert_eq!(times("r:twin"), 2, "two identical triples");
        assert_eq!(times("r:c"), 2, "the attribute's value key and the short-value family");
        assert!(times("r:short") > 2, "every covering partition answers the short key");

        let distinct = reference(scanned.clone(), None);
        for limit in [None, Some(1), Some(8), Some(distinct.len() - 1), Some(distinct.len())] {
            let want = reference(scanned.clone(), limit);
            let opts = JoinOptions {
                left_limit: limit,
                window: JoinWindow::Fixed(8),
                ..Default::default()
            };
            let joined = sim_join(&mut e, "col", Some("col"), 0, from, &opts);
            let mut task = JoinTask::with_left(scanned.clone(), Some("col"), 0, from, &opts);
            e.run_task(&mut task);
            let seeded = Joined { pairs: task.take_pairs(), left_size: task.left_size() };
            for res in [joined, seeded] {
                assert_eq!(res.left_size, want.len(), "limit {limit:?}");
                // At distance 0 every left value joins itself (and only
                // values equal to it).
                let mut lefts: Vec<(String, String)> =
                    res.pairs.iter().map(|p| (p.left_oid.clone(), p.left_value.clone())).collect();
                lefts.sort_unstable();
                lefts.dedup();
                assert_eq!(lefts, want, "limit {limit:?}");
            }
        }
    }

    #[test]
    fn stratified_sample_spreads() {
        let s = stratified_sample((0..100).collect::<Vec<_>>(), 4);
        assert_eq!(s, vec![0, 25, 50, 75]);
        assert_eq!(stratified_sample(vec![1, 2], 5), vec![1, 2]);
    }

    #[test]
    fn sorting_behind_the_oid_head_is_sorting_the_pairs() {
        // Heads that tie (shared 8-byte prefix, zero padding vs a real NUL),
        // heads that decide, oids shorter than a head, multi-byte chars.
        let oids = ["w:10", "", "w:1", "a\0", "a", "longer-than-a-head", "longer-t", "é", "w:2"];
        let pairs: Vec<(&str, &str)> = oids
            .iter()
            .flat_map(|oid| [(*oid, "y"), (*oid, "x"), ("longer-than-8", *oid)])
            .collect();
        let mut plain = pairs.clone();
        plain.sort_unstable();
        let mut keyed: Vec<(u64, (&str, &str))> =
            pairs.into_iter().map(|p| (oid_head(p.0), p)).collect();
        keyed.sort_unstable();
        assert_eq!(keyed.into_iter().map(|(_, p)| p).collect::<Vec<_>>(), plain);
    }

    /// A virtual clock for the deadline tests: a message takes 1 ms, a
    /// scanned entry 10 µs; a fork's branches start together and it ends
    /// with the last.
    #[derive(Default)]
    pub(crate) struct Clock {
        now: u64,
        start: u64,
        /// Each open fork's start and its latest branch end.
        forks: Vec<(u64, u64)>,
    }

    impl EventSink for Clock {
        fn begin_query(&mut self) {
            self.start = self.now;
        }
        fn end_query(&mut self) -> SimLatency {
            let (start_us, end_us) = (self.start, self.now);
            let elapsed_us = end_us.saturating_sub(start_us);
            SimLatency { start_us, end_us, elapsed_us, ..Default::default() }
        }
        fn deliver(
            &mut self,
            _: PeerId,
            _: PeerId,
            _: usize,
            _: MsgKind,
            _: Option<&SharedTraceSink>,
        ) {
            self.now += 1_000;
        }
        fn local_work(&mut self, _: PeerId, items: u64, _: Option<&SharedTraceSink>) {
            self.now += 10 * items;
        }
        fn fork(&mut self) {
            self.forks.push((self.now, self.now));
        }
        fn branch(&mut self) {
            if let Some((at, end)) = self.forks.last_mut() {
                *end = (*end).max(self.now);
                self.now = *at;
            }
        }
        fn join(&mut self) {
            if let Some((_, end)) = self.forks.pop() {
                self.now = self.now.max(end);
            }
        }
        fn now_us(&self) -> u64 {
            self.now
        }
        fn reset_to_us(&mut self, t_us: u64) {
            self.now = t_us;
        }
    }

    /// What the cache-soundness tests put in the trio: an attribute to
    /// join, and another one beside it.
    fn twin_rows(from: usize, to: usize) -> Vec<Row> {
        (from..to)
            .map(|i| {
                Row::new(
                    format!("w:{i}"),
                    [
                        ("word", Value::from(format!("word{}", i % 37))),
                        ("name", Value::from(format!("name{}", i % 23))),
                    ],
                )
            })
            .collect()
    }

    /// One join the trio runs: `SimJoin(ln, rn, d)` by `strategy` over at
    /// most `limit` left pairs.
    #[derive(Clone, Copy, Debug)]
    struct Spec<'a> {
        ln: &'a str,
        rn: Option<&'a str>,
        d: usize,
        strategy: Strategy,
        limit: Option<usize>,
    }

    impl<'a> Spec<'a> {
        fn of(ln: &'a str, limit: Option<usize>) -> Self {
            Self { ln, rn: Some("word"), d: 1, strategy: Strategy::QGrams, limit }
        }
    }

    /// Joins on the memo's [`Trio`] — the kept engine keeps the left side
    /// its last join scanned and the probe outcomes of that side's joins —
    /// what the last one answered: its `QueryStats` and pair count, and how
    /// many children had replayed an outcome whole when the kept side was
    /// computed.
    struct Joins {
        t: Trio,
        last: (QueryStats, usize),
        base: usize,
    }

    impl Joins {
        fn new() -> Self {
            Self::built(|b| b)
        }

        /// A trio of 64 peers holding [`twin_rows`], built by `tune` from
        /// the plain builder.
        fn built(tune: impl Fn(EngineBuilder) -> EngineBuilder) -> Self {
            let rows = twin_rows(0, 160);
            let t =
                Trio::new(|| tune(EngineBuilder::new().peers(64).seed(46)).build_with_rows(&rows));
            Self { t, last: (QueryStats::default(), 0), base: 0 }
        }

        /// `f` on the three engines, which must answer alike.
        fn both<R: PartialEq + std::fmt::Debug>(
            &mut self,
            f: impl FnMut(&mut SimilarityEngine) -> R,
        ) -> R {
            self.t.all(f)
        }

        /// The engine that keeps its memo.
        fn warm(&self) -> &SimilarityEngine {
            &self.t.engines[KEPT]
        }

        /// Join on the trio from `from`, and whether the kept engine
        /// served the side it had stored.
        fn join(&mut self, ln: &str, from: PeerId, left_limit: Option<usize>) -> bool {
            self.run(Spec::of(ln, left_limit), from, &no_hook)
        }

        /// [`Self::join`] of `spec`, with `hook` run on each engine before
        /// each of the join's steps.
        fn run(&mut self, spec: Spec<'_>, from: PeerId, hook: Hook<'_>) -> bool {
            let stored = self.t.memo().side().cloned();
            // The side the kept engine's join took: the memo's before the
            // join's first child steps (the kept engine runs first).
            let taken = std::cell::RefCell::new(None);
            let watch = |e: &mut SimilarityEngine, step: usize| {
                if step == 1 && taken.borrow().is_none() {
                    *taken.borrow_mut() = Some(e.memo.side().cloned());
                }
                hook(e, step);
            };
            let opts = JoinOptions {
                strategy: spec.strategy,
                left_limit: spec.limit,
                window: JoinWindow::Fixed(4),
            };
            let (stats, _) =
                self.t.run(|| JoinTask::new(spec.ln, spec.rn, spec.d, from, &opts), &watch);
            self.last = (stats, stats.matches);
            let taken = taken.into_inner().flatten();
            let took = stored.zip(taken).is_some_and(|(s, t)| Rc::ptr_eq(&s, &t));
            if !took {
                // A join that computes its side finds no outcome to replay.
                self.base = self.t.memo().served_kept().0;
            }
            took
        }

        /// The runs the kept engine's stored side was computed from.
        fn stored_runs(&self) -> Vec<ItemRun> {
            self.t.memo().runs()
        }

        /// How many of the kept engine's join children served a kept
        /// outcome since its side was stored, and how many outcomes it
        /// keeps.
        fn served_kept(&self) -> (usize, usize) {
            let (served, kept) = self.t.memo().served_kept();
            (served - self.base, kept)
        }
    }

    /// A join that finds its side stored answers what a cold one
    /// computes: the same pairs, `QueryStats` and trace, for the whole
    /// side and for samples of it.
    #[test]
    fn a_warm_join_answers_what_a_cold_one_does() {
        let mut t = Joins::new();
        let from = t.both(|e| e.random_peer());
        for limit in [Some(5), None] {
            assert!(!t.join("word", from, limit), "the first join with {limit:?} computes");
            assert!(t.join("word", from, limit), "the second finds it stored");
            let other = t.both(|e| e.random_peer());
            assert!(t.join("word", other, limit), "any initiator whose scan reads the same runs");
        }
    }

    /// Nothing computed before a publication or a membership event is
    /// served after it, even where the scans answer the same runs: a
    /// publication of the joined attribute, of another one only, a wiped
    /// partition outside the attribute's subtrees, and a churn wave each
    /// make the next join compute its side, and it answers what a cold
    /// engine does.
    #[test]
    fn a_publication_or_membership_event_between_joins_misses() {
        let mut t = Joins::new();
        let from = t.both(|e| e.random_peer());
        t.join("word", from, Some(6));
        assert!(t.join("word", from, Some(6)));

        t.both(|e| e.publish_rows(&twin_rows(160, 200)));
        assert!(!t.join("word", from, Some(6)), "published into the joined attribute");
        assert!(t.join("word", from, Some(6)));

        let names: Vec<Row> =
            (0..40).map(|i| Row::new(format!("n:{i}"), [("name", Value::from("zz"))])).collect();
        t.both(|e| e.publish_rows(&names));
        assert!(!t.join("word", from, Some(6)), "published into another attribute");
        assert!(t.join("word", from, Some(6)));

        // A partition that holds none of the attribute: the scans answer
        // the same runs after it is wiped, and the epoch alone tells.
        let runs = t.stored_runs();
        let outside = (0..t.warm().network().partition_count())
            .find(|p| !runs.iter().any(|r| r.part == *p))
            .expect("the attribute does not span the trie");
        t.both(|e| e.network_mut().fail_partition(outside));
        assert!(!t.join("word", from, Some(6)), "a partition wiped");
        assert_eq!(t.stored_runs(), runs, "the scans answered the runs they did before");
        assert!(t.join("word", from, Some(6)));

        let from = t.both(|e| {
            e.network_mut().fail_random_fraction(0.3);
            e.random_peer()
        });
        assert!(!t.join("word", from, Some(6)), "a churn wave");
        assert!(t.join("word", from, Some(6)));
        t.both(|e| e.network_mut().revive_random_fraction(1.0));
        assert!(!t.join("word", from, Some(6)), "a revival");
    }

    /// Dead peers make the scans of two joins answer different runs at one
    /// epoch: a join from a dead initiator reaches no partition, and the
    /// side stored before it is not served to it, nor its empty side to
    /// the join after it.
    #[test]
    fn a_scan_that_answers_other_runs_misses_at_an_unchanged_epoch() {
        let mut t = Joins::new();
        let (alive, dead) = t.both(|e| {
            let dead = e.random_peer();
            e.network_mut().fail_peer(dead);
            (e.random_peer(), dead)
        });
        t.join("word", alive, Some(6));
        assert!(t.join("word", alive, Some(6)));
        let epoch = t.warm().network().cache_epoch();
        assert!(!t.join("word", dead, Some(6)), "a dead initiator's scan answers no run");
        assert!(t.stored_runs().is_empty());
        assert!(!t.join("word", alive, Some(6)), "and the next scan answers them all again");
        assert!(!t.stored_runs().is_empty());
        assert_eq!(t.warm().network().cache_epoch(), epoch, "no event between the joins");
    }

    /// The stored side is one attribute's at one limit: another attribute
    /// or another limit computes its own, which then replaces it — also
    /// for two attributes whose names share the 32 bytes a key keeps, whose
    /// scans answer the same runs and whose sides only the guard tells
    /// apart.
    #[test]
    fn another_attribute_or_limit_misses() {
        let mut t = Joins::new();
        let from = t.both(|e| e.random_peer());
        t.join("word", from, Some(6));
        assert!(!t.join("name", from, Some(6)), "another attribute");
        assert!(!t.join("word", from, Some(6)), "one entry: the other attribute replaced it");
        assert!(!t.join("word", from, Some(7)), "another limit");
        assert!(!t.join("word", from, None), "no limit");
        assert!(t.join("word", from, None));

        let stem = "an_attribute_name_32_bytes_long__";
        let (left, right) = (format!("{stem}left"), format!("{stem}right"));
        let rows: Vec<Row> = (0..30)
            .map(|i| {
                let attr = if i % 3 == 0 { &left } else { &right };
                Row::new(format!("s:{i}"), [(attr.as_str(), Value::from(format!("word{i}")))])
            })
            .collect();
        t.both(|e| e.publish_rows(&rows));
        t.join(&left, from, None);
        let runs = t.stored_runs();
        let size = |t: &Joins| t.t.memo().side().map(|s| s.len());
        assert_eq!(size(&t), Some(10));
        assert!(!t.join(&right, from, None), "an attribute sharing the key's 32 bytes");
        assert_eq!(t.stored_runs(), runs, "both scans answered the same runs");
        assert_eq!(size(&t), Some(20));
    }

    /// A child of a join over a stored side replays the probe outcome the
    /// same child of an earlier join kept: every route, scan and reply
    /// charged alike — the same pairs, `QueryStats` and trace as a twin
    /// that filters and groups every child's probes again — for any
    /// initiator, for the sample and for the whole side.
    #[test]
    fn a_warm_join_replays_what_its_children_probed() {
        let mut t = Joins::new();
        let from = t.both(|e| e.random_peer());
        for (limit, lefts) in [(Some(6), 6), (None, 160)] {
            assert!(!t.join("word", from, limit));
            assert_eq!(t.served_kept(), (0, lefts), "the first join keeps every child's outcome");
            assert!(t.join("word", from, limit));
            assert_eq!(t.served_kept(), (lefts, lefts), "the second replays them all");
            let other = t.both(|e| e.random_peer());
            assert!(t.join("word", other, limit));
            assert_eq!(t.served_kept(), (2 * lefts, lefts), "and so does another initiator's");
        }
    }

    /// Outcomes are kept per `rn`, `d` and strategy: a join over the same
    /// side with another of them keeps its own instead of replaying one
    /// kept for the others, and each is replayed by the next join alike.
    #[test]
    fn another_rn_d_or_strategy_keeps_its_own_outcomes() {
        let mut t = Joins::new();
        let from = t.both(|e| e.random_peer());
        let base = Spec::of("word", Some(6));
        let specs = [
            base,
            Spec { d: 2, ..base },
            Spec { d: 0, ..base },
            Spec { rn: Some("name"), ..base },
            Spec { strategy: Strategy::QSamples, ..base },
        ];
        t.run(base, from, &no_hook);
        for (n, spec) in specs.iter().enumerate().skip(1) {
            assert!(t.run(*spec, from, &no_hook), "{spec:?} reads the stored side");
            assert_eq!(t.served_kept(), (0, 6 * (n + 1)), "{spec:?} keeps outcomes of its own");
        }
        for (n, spec) in specs.iter().enumerate() {
            t.run(*spec, from, &no_hook);
            assert_eq!(t.served_kept(), (6 * (n + 1), 6 * specs.len()), "{spec:?} replays its own");
        }
    }

    /// A join whose side is replaced — here by a publication into the
    /// joined attribute, which moves the sample — drops the outcomes kept
    /// beside the old side: the children of the new one filter again.
    #[test]
    fn a_replaced_side_drops_its_outcomes() {
        let mut t = Joins::new();
        let from = t.both(|e| e.random_peer());
        t.join("word", from, Some(6));
        assert!(t.join("word", from, Some(6)));
        assert_eq!(t.served_kept(), (6, 6));
        t.both(|e| e.publish_rows(&twin_rows(160, 230)));
        assert!(!t.join("word", from, Some(6)));
        assert_eq!(t.served_kept(), (0, 6), "the new side's children kept outcomes anew");
        assert!(t.join("word", from, Some(6)));
        assert_eq!(t.served_kept(), (6, 6));
    }

    /// A publication in the middle of a join that replays kept outcomes:
    /// its legs before the publication replay, those after it filter, and
    /// the children that replayed read their survivors again where they
    /// lay when their legs answered — not the runs the publication grew —
    /// so the join answers what a twin that filtered every leg does.
    #[test]
    fn a_publication_mid_join_re_reads_the_runs_its_legs_read() {
        let mut t = Joins::new();
        let from = t.both(|e| e.random_peer());
        // At distance 0 a candidate shares every gram: one key's postings
        // read from the grown runs would make a candidate of a new object.
        let exact = Spec { d: 0, ..Spec::of("word", Some(8)) };
        t.run(exact, from, &no_hook);
        assert_eq!(t.served_kept(), (0, 8));
        // The same words again under new oids: every probed gram key
        // grows by postings that pass the probe filter.
        let again = twin_rows(0, 160);
        let again: Vec<Row> = again
            .into_iter()
            .enumerate()
            .map(|(i, r)| Row { oid: format!("again:{i}"), ..r })
            .collect();
        let publish = |e: &mut SimilarityEngine| {
            e.publish_rows(&again);
        };
        assert!(t.run(exact, from, &before(6, publish)));
        let (served, _) = t.served_kept();
        assert!(served < 8, "{served} children replayed their outcome whole");
    }

    /// A churn wave in the middle of a join that replays kept outcomes:
    /// legs after it do not all answer, so the children that replayed fall
    /// back to the survivors of the legs that did, read again where they
    /// lay, and the join answers what a twin that filtered every leg does.
    #[test]
    fn a_churn_wave_mid_join_falls_back_to_the_legs_that_answered() {
        let mut t = Joins::new();
        let from = t.both(|e| e.random_peer());
        // At distance 0 a candidate shares every gram: a silenced leg
        // loses it.
        let exact = Spec { d: 0, ..Spec::of("word", None) };
        t.run(exact, from, &no_hook);
        let whole = t.last.1;
        assert_eq!(t.served_kept(), (0, 160));
        let wave = |e: &mut SimilarityEngine| {
            e.network_mut().fail_random_fraction(0.5);
        };
        let earlier = t.served_kept().0;
        assert!(t.run(exact, from, &before(20, wave)));
        let served = t.served_kept().0 - earlier;
        assert!(0 < served && served < 160, "{served} children replayed their outcome whole");
        let (stats, pairs) = t.last;
        let (answered, addressed) = (stats.partitions_answered, stats.partitions_addressed);
        assert!(answered < addressed, "the wave silenced legs ({answered} of {addressed})");
        assert!(pairs < whole, "the wave lost pairs ({pairs} of {whole})");
    }

    /// Legs that fail at the epoch their outcome was kept at fall back to
    /// the survivors of the legs that answered. Routes that reach dead
    /// peers from some initiators and not from others make such legs; here
    /// the partition that holds the grams of `wor` is wiped and the stored
    /// sides are kept at the epoch after it, so that the next join's scan
    /// answers the runs it did and its children replay legs that fail.
    #[test]
    fn a_replayed_leg_that_fails_at_the_kept_epoch_falls_back() {
        let mut t = Joins::new();
        let from = t.both(|e| e.random_peer());
        // At distance 0 a candidate shares every gram: one unanswered leg
        // loses it.
        let exact = Spec { d: 0, ..Spec::of("word", None) };
        t.run(exact, from, &no_hook);
        let whole = t.last.1;
        let grams = t.warm().network().partition_of(&keys::instance_gram_key("word", "wor"));
        let home = t.warm().network().peer_partition(from);
        assert!(grams != home && t.stored_runs().iter().all(|r| r.part != grams));
        t.both(|e| {
            e.network_mut().fail_partition(grams);
            e.memo.move_to(&e.net);
        });
        assert!(t.run(exact, from, &no_hook));
        let (served, kept) = t.served_kept();
        assert!(served < kept, "{served} of {kept} children replayed their outcome whole");
        let (stats, pairs) = t.last;
        assert!(stats.partitions_answered < stats.partitions_addressed);
        assert!(pairs < whole, "the wiped partition lost pairs ({pairs} of {whole})");
    }

    /// Joins with a query deadline, on a virtual clock whose fetch legs
    /// pass it, answer alike with outcomes kept and without.
    #[test]
    fn joins_that_drop_legs_at_their_deadline_answer_alike() {
        let policy = DegradePolicy { retries: 0, backoff_us: 0, deadline_us: Some(1_500) };
        let mut t = Joins::built(|b| b.degrade(policy));
        t.both(|e| e.network_mut().set_event_sink(Box::<Clock>::default()));
        let from = t.both(|e| e.random_peer());
        t.join("word", from, Some(8));
        let kept = t.served_kept().1;
        assert!(kept > 0);
        assert!(t.join("word", from, Some(8)));
        assert_eq!(t.served_kept(), (kept, kept));
        assert!(t.last.0.gave_up > 0, "the deadline dropped legs");
    }

    /// With the probe broker on — cache hits, channel rides, cache-filling
    /// replies — and with delegation off — a full retrieve per key — the
    /// children replay kept outcomes and answer what a twin that filters
    /// every list does.
    #[test]
    fn outcomes_replay_with_the_broker_on_and_with_delegation_off() {
        for (broker, delegation) in [(true, true), (false, false)] {
            let cache = if broker { BrokerConfig::enabled() } else { BrokerConfig::default() };
            let tune = |b: EngineBuilder| b.cache_config(cache).delegation(delegation);
            let mut t = Joins::built(tune);
            let from = t.both(|e| e.random_peer());
            for limit in [Some(8), None] {
                t.join("word", from, limit);
                let kept = t.served_kept().1;
                assert!(kept > 0, "broker {broker}, delegation {delegation}");
                for _ in 0..2 {
                    let other = t.both(|e| e.random_peer());
                    assert!(t.join("word", other, limit));
                }
                assert_eq!(t.served_kept(), (2 * kept, kept), "broker {broker}");
            }
        }
    }

    #[test]
    fn empty_left_side_is_empty_join() {
        let rows = dealer_rows();
        let mut e = EngineBuilder::new().peers(16).seed(44).build_with_rows(&rows);
        let from = e.random_peer();
        let res =
            sim_join(&mut e, "nonexistent", Some("dlrname"), 2, from, &JoinOptions::default());
        assert_eq!(res.left_size, 0);
        assert!(res.pairs.is_empty());
    }
}
