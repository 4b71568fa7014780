//! The host memo: what the engine derives from the stores and keeps
//! between tasks.
//!
//! The network's cache epoch advances on every publication, membership
//! event and repair, so a value computed from the runs alone stays a
//! function of them while the epoch holds. Every entry of the engine's one
//! [`HostMemo`] was computed at one epoch, and every entry point first
//! compares it with the network's (`HostMemo::at`), dropping every entry
//! once it has moved. A task that reads an entry still routes, forwards,
//! scans and replies exactly as one that computes it, so every charge, the
//! clock and the trace are what they were. The memo is not part of a
//! checkpoint: a restored engine starts with an empty one.
//!
//! * **The scanned left side** (the seventeenth rule): the last side a join
//!   computed, keyed by the left attribute, `left_limit` and the `(part,
//!   items)` of every run its two scans answered; any other key replaces it.
//! * **Probe outcomes** (the eighteenth rule): beside the side, per
//!   selection and left index, what a join child's probes answered with
//!   every leg answering ([`ProbeOutcome`]). The same child of a later join
//!   replays its legs ([`Reuse`]); a join seeded with its left side keeps
//!   none. They go with the side.
//! * **Scan views** (the nineteenth rule): per (scan prefix, attribute),
//!   the strings the naive branches verify, ordered by their stored length
//!   ([`ScanView`]), with their char counts, and built whole at the first
//!   branch that asks.

use crate::engine::Lent;
use crate::similar::{Candidate, Strategy};
use crate::simjoin::scanned_side;
use sqo_overlay::key::Key;
use sqo_overlay::network::{ItemRun, Network};
use sqo_storage::posting::{Posting, PostingKind};
use sqo_storage::slab::AttrGuard;
use std::rc::Rc;

/// A join's left side: its `(oid, value)` pairs, shared by its children.
pub(crate) type Side = Rc<[(String, String)]>;

/// A join child's selection: its `rn`, `d` and strategy.
pub(crate) type Selection<'a> = (Option<&'a str>, usize, Strategy);

/// Every value the engine derived from the stores at one cache epoch.
#[derive(Default)]
pub(crate) struct HostMemo {
    epoch: u64,
    left: Option<ScannedLeft>,
    views: Vec<ScanView>,
    /// How many join children replayed a kept outcome whole.
    #[cfg(test)]
    served: usize,
}

/// The last left side a join scanned, what it was computed from, and the
/// probe outcomes of its children: one slot per left index for each
/// selection.
struct ScannedLeft {
    ln: String,
    limit: Option<usize>,
    runs: Vec<ItemRun>,
    side: Side,
    probes: Vec<(Option<String>, usize, Strategy, Slots)>,
}

/// One selection's outcome slots: one per left index.
type Slots = Vec<Option<Rc<ProbeOutcome>>>;

/// What one join child's probes answered, every leg answering: the
/// owner-side reply payload of each probe key, in the child's ascending
/// key order, and its count-filtered, sorted and deduplicated gram
/// candidates — before the short-string supplement. Both are functions of
/// the left value, the selection and the stores.
pub(crate) struct ProbeOutcome {
    pub(crate) payloads: Vec<usize>,
    pub(crate) candidates: Vec<Candidate>,
}

/// A join child's place in its join's left side: which side, which pair.
pub(crate) struct JoinSlot {
    pub(crate) side: Side,
    pub(crate) index: usize,
}

/// What a join child does with the probe outcome kept for it.
pub(crate) enum Reuse {
    /// None is kept or can be: probe and filter as any selection does.
    Off,
    /// None is kept yet: filter, and add up each key's owner-side payload
    /// (in probe key order), so that the outcome can be kept once every leg
    /// has answered.
    Record { payloads: Vec<usize> },
    /// One was kept at `epoch`, which the task holds: a leg at that epoch
    /// replays its payloads, filters nothing and notes where its keys'
    /// postings lie (`lent`). A leg at a later epoch — a publication or a
    /// churn wave in the middle of the join — filters and sets
    /// `collected`, and the task then reads the survivors of the lent runs
    /// again.
    Replay { outcome: Rc<ProbeOutcome>, epoch: u64, lent: Vec<Lent>, collected: bool },
}

/// One scan prefix's strings of one attribute, in all its partitions.
struct ScanView {
    prefix: Key,
    attr: String,
    /// How many partitions under the prefix were peered: `n`.
    parts: usize,
    /// One array: the `n` peered partitions, ascending; the end of each
    /// one's stretch; then the stretches — for each partition, the index in
    /// its run's prefix stretch of every posting that is the attribute's
    /// and holds a string, ordered by (chars, index) — then each entry's
    /// char count, its string's offset in `text`, and `text`'s length.
    entries: Vec<u32>,
    /// The entries' strings back to back, in entry order.
    text: String,
}

/// A partition's stretch of a [`ScanView`]: entry `k`'s posting index,
/// char count, and string `text[offsets[k]..offsets[k + 1]]`.
pub(crate) struct Strings<'v> {
    pub(crate) index: &'v [u32],
    pub(crate) chars: &'v [u32],
    pub(crate) offsets: &'v [u32],
    pub(crate) text: &'v str,
}

impl HostMemo {
    /// The memo at `net`'s cache epoch: the one epoch check every entry
    /// point makes first.
    fn at(&mut self, net: &Network<Posting>) -> &mut Self {
        let epoch = net.cache_epoch();
        if self.epoch != epoch {
            self.epoch = epoch;
            self.left = None;
            self.views.clear();
        }
        self
    }

    /// The left side of a scan of `ln` at `limit` that answered `runs`:
    /// the kept one when its key is this one, else the one they read
    /// ([`scanned_side`]), kept in its place without outcomes.
    pub(crate) fn left_side(
        &mut self,
        net: &Network<Posting>,
        ln: &str,
        limit: Option<usize>,
        runs: Vec<ItemRun>,
    ) -> Side {
        let kept = self.at(net).left.as_ref();
        if let Some(s) = kept.filter(|s| s.limit == limit && s.runs == runs && s.ln == ln) {
            return Rc::clone(&s.side);
        }
        let side = scanned_side(net, ln, limit, &runs);
        let (ln, probes) = (ln.to_string(), Vec::new());
        self.left = Some(ScannedLeft { ln, limit, runs, side: Rc::clone(&side), probes });
        side
    }

    /// The outcome slot of the child at `slot` making `selection`, while
    /// its side is kept: read after [`Self::at`].
    fn slot(
        &mut self,
        slot: &JoinSlot,
        (rn, d, strategy): Selection<'_>,
    ) -> Option<&mut Option<Rc<ProbeOutcome>>> {
        let s = self.left.as_mut().filter(|s| Rc::ptr_eq(&s.side, &slot.side))?;
        let of =
            |p: &(Option<String>, _, _, _)| p.0.as_deref() == rn && (p.1, p.2) == (d, strategy);
        let make = || (rn.map(str::to_string), d, strategy, vec![None; s.side.len()]);
        Some(&mut find_or_push(&mut s.probes, of, make).3[slot.index])
    }

    /// What the join child at `slot`, making `selection` over `n_keys`
    /// probe keys, does with its outcome: replays the one kept for it,
    /// records one to keep, or — its side no longer kept — neither.
    pub(crate) fn reuse(
        &mut self,
        net: &Network<Posting>,
        slot: &JoinSlot,
        selection: Selection<'_>,
        n_keys: usize,
    ) -> Reuse {
        let epoch = self.at(net).epoch;
        match self.slot(slot, selection) {
            None => Reuse::Off,
            Some(None) => Reuse::Record { payloads: vec![0; n_keys] },
            Some(Some(outcome)) => {
                let (outcome, lent) = (Rc::clone(outcome), Vec::with_capacity(n_keys));
                Reuse::Replay { outcome, epoch, lent, collected: false }
            }
        }
    }

    /// Keep the outcome of the child at `slot` — recorded with every leg
    /// answering — while its side is kept, unless one is kept already.
    pub(crate) fn keep(
        &mut self,
        net: &Network<Posting>,
        slot: &JoinSlot,
        selection: Selection<'_>,
        payloads: Vec<usize>,
        candidates: &[Candidate],
    ) {
        if let Some(kept) = self.at(net).slot(slot, selection).filter(|k| k.is_none()) {
            *kept = Some(Rc::new(ProbeOutcome { payloads, candidates: candidates.to_vec() }));
        }
    }

    /// The stretch of partition `part` in the view of `attr`'s strings
    /// under `prefix`, the view built if none is kept. A partition that was
    /// not peered when the view was built holds none of them.
    pub(crate) fn stretch(
        &mut self,
        net: &Network<Posting>,
        prefix: &Key,
        attr: &str,
        part: usize,
    ) -> Strings<'_> {
        let views = &mut self.at(net).views;
        let is = |v: &ScanView| v.attr == attr && v.prefix == *prefix;
        let ScanView { parts: n, entries, text, .. } =
            find_or_push(views, is, || ScanView::build(net, prefix, attr));
        let (n, m) = (*n, (entries.len() - 2 * *n - 1) / 3);
        let (parts, columns) = entries.split_at(2 * n);
        let (s, e) = match parts[..n].binary_search(&(part as u32)) {
            Ok(k) => (if k == 0 { 0 } else { parts[n + k - 1] as usize }, parts[n + k] as usize),
            Err(_) => (0, 0),
        };
        let (index, chars) = (&columns[s..e], &columns[m + s..m + e]);
        Strings { index, chars, offsets: &columns[2 * m + s..=2 * m + e], text }
    }
}

/// The first of `items` that `is` holds for, pushed if none.
fn find_or_push<T>(
    items: &mut Vec<T>,
    is: impl FnMut(&T) -> bool,
    make: impl FnOnce() -> T,
) -> &mut T {
    let at = items.iter().position(is).unwrap_or_else(|| {
        items.push(make());
        items.len() - 1
    });
    &mut items[at]
}

impl ScanView {
    fn build(net: &Network<Posting>, prefix: &Key, attr: &str) -> Self {
        let (ps, pe) = net.subtree_of(prefix);
        let peered = net.topology().peered_in(ps, pe);
        let n = peered.len();
        let run = |part: u32| net.partition_store(part as usize).prefix_entries(prefix).items;
        let mut entries =
            Vec::with_capacity(2 * n + 1 + 3 * peered.iter().map(|&p| run(p).len()).sum::<usize>());
        entries.extend_from_slice(peered);
        entries.resize(2 * n, 0);
        // Keys truncate, so the prefix may hold another attribute's
        // postings too.
        let mut queried = AttrGuard::new(attr);
        let mut bytes = 0;
        for (k, &part) in peered.iter().enumerate() {
            let items = run(part);
            let start = entries.len();
            entries.extend((0..items.len() as u32).filter(|&i| {
                let p = &items[i as usize];
                let string = matches!(p.kind(), PostingKind::Base(_) | PostingKind::ShortValue)
                    && queried.admits(p);
                // `None`: a number.
                let len = string.then(|| p.triple().value_str().map(str::len)).flatten();
                bytes += len.unwrap_or_default();
                len.is_some()
            }));
            entries[start..].sort_unstable_by_key(|&i| (items[i as usize].char_len(), i));
            entries[n + k] = (entries.len() - 2 * n) as u32;
        }
        let m = entries.len() - 2 * n;
        entries.resize(2 * n + 2 * m, 0);
        let mut text = String::with_capacity(bytes);
        for (k, &part) in peered.iter().enumerate() {
            let (items, start) = (run(part), if k == 0 { 0 } else { entries[n + k - 1] });
            for j in start as usize..entries[n + k] as usize {
                let t = items[entries[2 * n + j] as usize].triple();
                entries[2 * n + m + j] = t.char_len().unwrap_or_default() as u32;
                entries.push(u32::try_from(text.len()).expect("under 4 GiB"));
                text.push_str(t.value_str().unwrap_or_default());
            }
        }
        entries.push(u32::try_from(text.len()).expect("under 4 GiB"));
        ScanView { prefix: prefix.clone(), attr: attr.to_string(), parts: n, entries, text }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The one differential harness of the memo and the reference paths.
    //!
    //! [`Trio`] runs the same calls on three engines built alike: [`KEPT`]
    //! keeps its memo; [`DROPPED`] has it dropped before every step of
    //! every task; [`REFERENCE`] has it dropped too and runs the reference
    //! paths (`SimilarityEngine::reference`). All three must answer the
    //! same rows, `QueryStats` and trace events.

    use super::*;
    use crate::engine::{EngineBuilder, ExecStep, SimilarityEngine, StepOutcome};
    use crate::multi::MultiTask;
    use crate::select::SelectTask;
    use crate::similar::SimilarTask;
    use crate::simjoin::{JoinOptions, JoinTask};
    use crate::stats::QueryStats;
    use crate::topn::TopNTask;
    use crate::JoinWindow;
    use sqo_overlay::peer::PeerId;
    use sqo_overlay::ReplicationPolicy;
    use sqo_storage::triple::{Row, Value};
    use std::cell::RefCell;

    pub(crate) const KEPT: usize = 0;
    pub(crate) const DROPPED: usize = 1;
    pub(crate) const REFERENCE: usize = 2;

    /// Every trace event a network emitted, in order.
    #[derive(Default)]
    pub(crate) struct Recorded(pub(crate) Vec<sqo_overlay::TraceEvent>);

    impl sqo_overlay::TraceSink for Recorded {
        fn record(&mut self, ev: sqo_overlay::TraceEvent) {
            self.0.push(ev);
        }
    }

    /// A task the trio runs, with what it answered printed.
    pub(crate) trait Answering: ExecStep {
        fn answer(&mut self) -> String;
    }

    impl Answering for SimilarTask {
        fn answer(&mut self) -> String {
            format!("{:?}", self.take_matches().collect::<Vec<_>>())
        }
    }

    impl Answering for TopNTask {
        fn answer(&mut self) -> String {
            format!("{:?}", self.take_items())
        }
    }

    impl Answering for JoinTask {
        fn answer(&mut self) -> String {
            format!("{:?} {}", self.take_pairs(), self.left_size())
        }
    }

    impl Answering for MultiTask {
        fn answer(&mut self) -> String {
            format!("{:?}", self.take_matches())
        }
    }

    impl Answering for SelectTask {
        fn answer(&mut self) -> String {
            format!("{:?}", self.take_hits())
        }
    }

    impl<T: ExecStep + ?Sized> ExecStep for Box<T> {
        fn step(&mut self, engine: &mut SimilarityEngine, at_us: u64) -> StepOutcome {
            (**self).step(engine, at_us)
        }
    }

    impl<T: Answering + ?Sized> Answering for Box<T> {
        fn answer(&mut self) -> String {
            (**self).answer()
        }
    }

    /// A hook the trio runs on each engine before every step of a task,
    /// given the step's number.
    pub(crate) type Hook<'h> = &'h dyn Fn(&mut SimilarityEngine, usize);

    /// No event between the steps.
    pub(crate) fn no_hook(_: &mut SimilarityEngine, _: usize) {}

    /// `f` before step `k` only.
    pub(crate) fn before(
        k: usize,
        f: impl Fn(&mut SimilarityEngine),
    ) -> impl Fn(&mut SimilarityEngine, usize) {
        move |e, step| {
            if step == k {
                f(e)
            }
        }
    }

    /// A task that drops the engine's memo before each step if `forget`,
    /// then runs `hook`.
    struct Hooked<'h, T> {
        task: T,
        steps: usize,
        forget: bool,
        hook: Hook<'h>,
    }

    impl<T: ExecStep> ExecStep for Hooked<'_, T> {
        fn step(&mut self, engine: &mut SimilarityEngine, at_us: u64) -> StepOutcome {
            if self.forget {
                engine.memo = HostMemo::default();
            }
            (self.hook)(engine, self.steps);
            self.steps += 1;
            self.task.step(engine, at_us)
        }
    }

    /// Three engines built alike and put through the same calls.
    pub(crate) struct Trio {
        pub(crate) engines: [SimilarityEngine; 3],
        traces: [Rc<RefCell<Recorded>>; 3],
    }

    impl Trio {
        /// Three engines `build` makes, each with a trace sink.
        pub(crate) fn new(build: impl Fn() -> SimilarityEngine) -> Self {
            let mut engines = [(); 3].map(|()| build());
            engines[REFERENCE].reference = true;
            let traces = [(); 3].map(|()| Rc::new(RefCell::new(Recorded::default())));
            for (e, t) in engines.iter_mut().zip(&traces) {
                e.network_mut().set_trace_sink(t.clone());
            }
            Self { engines, traces }
        }

        /// The kept engine's memo.
        pub(crate) fn memo(&self) -> &HostMemo {
            &self.engines[KEPT].memo
        }

        /// `f` on all three engines, which must answer alike.
        pub(crate) fn all<R: PartialEq + std::fmt::Debug>(
            &mut self,
            mut f: impl FnMut(&mut SimilarityEngine) -> R,
        ) -> R {
            let [kept, dropped, reference] = &mut self.engines;
            let r = f(kept);
            assert_eq!(f(dropped), r, "memo dropped");
            assert_eq!(f(reference), r, "the reference");
            r
        }

        /// The task `make` builds, run on all three engines with `hook`
        /// before each of its steps: they must answer the same rows,
        /// `QueryStats` and trace. Returns the stats and the task's steps.
        pub(crate) fn run<T: Answering>(
            &mut self,
            make: impl Fn() -> T,
            hook: Hook<'_>,
        ) -> (QueryStats, usize) {
            let outs: Vec<(String, QueryStats, usize)> = (0..3)
                .map(|i| {
                    let mut hooked = Hooked { task: make(), steps: 0, forget: i != KEPT, hook };
                    let stats = self.engines[i].run_task(&mut hooked);
                    (format!("{} {stats:?}", hooked.task.answer()), stats, hooked.steps)
                })
                .collect();
            let traces: Vec<String> = self
                .traces
                .iter()
                .map(|t| format!("{:?}", std::mem::take(&mut t.borrow_mut().0)))
                .collect();
            assert!(!traces[KEPT].is_empty(), "the task is traced");
            for (i, which) in [(DROPPED, "memo dropped"), (REFERENCE, "the reference")] {
                assert_eq!(traces[i], traces[KEPT], "{which}: the trace");
                assert_eq!(outs[i].0, outs[KEPT].0, "{which}: rows and stats");
            }
            (outs[KEPT].1, outs[KEPT].2)
        }

        /// [`Self::run`] with `event` before each step in turn, each run on
        /// a fresh trio `build` makes, from the initiator a first draw
        /// picks.
        pub(crate) fn every_step<T: Answering>(
            build: &dyn Fn() -> SimilarityEngine,
            make: &dyn Fn(PeerId) -> T,
            event: &dyn Fn(&mut SimilarityEngine),
        ) {
            let from = build().random_peer();
            let (_, steps) = Trio::new(build).run(|| make(from), &no_hook);
            for k in 0..steps {
                Trio::new(build).run(|| make(from), &before(k, event));
            }
        }
    }

    /// What the kept engine's memo holds, read by the tests.
    impl HostMemo {
        /// The left side it keeps.
        pub(crate) fn side(&self) -> Option<&Side> {
            self.left.as_ref().map(|s| &s.side)
        }

        /// The runs its side was computed from.
        pub(crate) fn runs(&self) -> Vec<ItemRun> {
            self.left.as_ref().expect("a join keeps its side").runs.clone()
        }

        /// How many join children replayed a kept outcome whole, and how
        /// many outcomes it keeps.
        pub(crate) fn served_kept(&self) -> (usize, usize) {
            let kept = self.left.iter().flat_map(|s| &s.probes).flat_map(|p| &p.3);
            (self.served, kept.filter(|o| o.is_some()).count())
        }

        /// Count a child that replayed a kept outcome whole.
        pub(crate) fn count_served(&mut self) {
            self.served += 1;
        }

        /// The epoch its entries were computed at.
        pub(crate) fn epoch(&self) -> u64 {
            self.epoch
        }

        /// Take the entries as computed at `net`'s epoch.
        pub(crate) fn move_to(&mut self, net: &Network<Posting>) {
            self.epoch = net.cache_epoch();
        }

        /// How many scan views it keeps.
        pub(crate) fn views(&self) -> usize {
            self.views.len()
        }

        fn is_empty(&self) -> bool {
            self.left.is_none() && self.views.is_empty()
        }
    }

    /// A world with an attribute to join and scan, and another beside it.
    fn rows(from: usize, to: usize) -> Vec<Row> {
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

    /// A join and a naive scan fill the memo; a publication of the joined
    /// attribute, then a churn wave and a repair each move the epoch, and
    /// the first step after each finds the memo empty at the new epoch —
    /// its side, its outcomes and its views all gone — while the three
    /// engines answer the join and the scan alike.
    #[test]
    fn every_memo_entry_goes_when_the_epoch_moves() {
        let build = || EngineBuilder::new().peers(64).seed(46).build_with_rows(&rows(0, 160));
        let mut t = Trio::new(build);
        let from = t.all(|e| e.random_peer());
        let opts =
            JoinOptions { left_limit: Some(8), window: JoinWindow::Fixed(4), ..Default::default() };
        let join = || JoinTask::new("word", Some("word"), 1, from, &opts);
        let scan = || SimilarTask::new("word7", Some("word"), 1, from, Strategy::Naive);
        let emptied = |e: &mut SimilarityEngine, step: usize| {
            if step == 0 {
                assert!(e.memo.at(&e.net).is_empty(), "an entry outlived its epoch");
            }
        };
        t.run(join, &no_hook);
        t.run(scan, &no_hook);
        let publish = |e: &mut SimilarityEngine| {
            e.publish_rows(&rows(160, 200));
        };
        let churn = |e: &mut SimilarityEngine| {
            e.network_mut().fail_random_fraction(0.2);
            e.network_mut().repair_epoch(&ReplicationPolicy::default());
        };
        for event in [&publish as &dyn Fn(&mut SimilarityEngine), &churn] {
            let served = t.memo().served_kept().0;
            t.run(join, &no_hook);
            assert_eq!(t.memo().served_kept(), (served + 8, 8), "the join replayed its children");
            t.run(scan, &no_hook);
            assert!(t.memo().side().is_some() && t.memo().views() > 0);
            let epoch = t.memo().epoch();
            t.all(event);
            assert!(t.all(|e| e.network().cache_epoch()) > epoch);
            let served = t.memo().served_kept().0;
            t.run(join, &emptied);
            assert_eq!(t.memo().served_kept(), (served, 8), "the children kept outcomes anew");
            t.run(scan, &no_hook);
        }
    }
}
