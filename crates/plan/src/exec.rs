//! The physical plan executor: a resolved [`PlanNode`] tree compiled into
//! **one** composite [`ExecStep`] task, so arbitrary operator pipelines run
//! interleaved with every other in-flight query on the event queue.
//!
//! Compilation flattens the (linear) tree into a stage list, input first.
//! Leaf stages construct the corresponding stepped `sqo-core` operator task
//! and multiplex its steps through the plan task's queue slot — a
//! single-leaf plan therefore executes the *identical* step sequence (and
//! produces byte-identical results and charges) as its operator task run
//! on its own. An oid lookup is the one leaf without a task: a single
//! charged fetch. Composite stages are local row transforms evaluated
//! between leaf completions: a pipeline `SimJoin` seeds
//! [`sqo_core::simjoin::JoinTask::with_left`] from the upstream rows,
//! `TopN`/`Filter`/`Limit` are pure initiator-side post-processing (free of
//! messages, like every operator's own merge phase).

use crate::ir::{
    CmpOp, JoinSpec, MultiSpec, PlanError, PlanNode, RankBy, RowPredicate, SelectSpec, SimilarSpec,
    TopNNumericSpec, TopNSpec, TopNStringSpec,
};
use sqo_core::{
    finalize_stats, ExecStep, JoinTask, MultiTask, QueryStats, SelectTask, SimilarTask,
    SimilarityEngine, StepOutcome, TopNTask,
};
use sqo_overlay::peer::PeerId;
use sqo_overlay::{TraceEvent, TraceTrack};
use sqo_storage::objects::Fetched;
use sqo_storage::triple::{Value, ValueRef};

/// One result row of a plan execution — the uniform shape every operator's
/// output maps into so that composites can consume any input.
///
/// A row carries its object as fetched, a handle: [`Self::object`] builds
/// the owned object when a caller reads it, and a stage that needs one
/// attribute reads it through the handle. The handle is the run the
/// object was fetched from, so a publication after the query does not
/// reach the row; a row kept across a publication into that partition
/// makes its next merge copy the run. `Debug` and `PartialEq` show and
/// compare the built object.
#[derive(Clone)]
pub struct PlanRow {
    /// Object id.
    pub oid: String,
    /// The attribute the producing operator matched on (`None` for keyword
    /// selections and conjunctions).
    pub attr: Option<String>,
    /// The matched / selected value. For `Multi` rows (which bind several
    /// attributes) this is the oid; see `bindings`.
    pub value: Value,
    /// Operator score, smaller is better: the edit distance for similarity
    /// and join rows, the ranking score for top-N rows, `None` for plain
    /// selections.
    pub score: Option<f64>,
    /// The object as fetched.
    pub handle: Fetched,
    /// Join provenance: `(left oid, left value)` for rows produced by a
    /// `SimJoin`.
    pub left: Option<(String, String)>,
    /// Per-predicate `(attr, matched value, distance)` bindings of a
    /// `Multi` conjunction row.
    pub bindings: Vec<(String, String, usize)>,
}

sqo_core::built_object!(PlanRow { oid, attr, value, score; left, bindings });

impl PartialEq for PlanRow {
    fn eq(&self, o: &Self) -> bool {
        (&self.oid, &self.attr, &self.value, self.score, &self.left, &self.bindings)
            == (&o.oid, &o.attr, &o.value, o.score, &o.left, &o.bindings)
            && self.object() == o.object()
    }
}

/// Result of running a prepared plan: the rows plus the usual per-query
/// cost accounting (the stage tasks' charges absorbed into one window).
#[derive(Debug, Clone)]
pub struct PlanResult {
    /// The output rows, in deterministic operator order.
    pub rows: Vec<PlanRow>,
    /// Aggregated cost profile of the whole pipeline.
    pub stats: QueryStats,
}

/// A compiled pipeline stage. Leaf stages carry the resolved spec and
/// construct their physical task lazily (at first step, when the engine is
/// available); transform stages run inline between leaf completions.
#[derive(Debug, Clone)]
pub(crate) enum Stage {
    /// Direct oid lookup leaf → one charged fetch
    /// ([`SimilarityEngine::fetch_objects`]).
    Lookup(String),
    /// `Similar` leaf → [`SimilarTask`].
    Similar(SimilarSpec),
    /// `Select` leaf → [`SelectTask`].
    Select(SelectSpec),
    /// Numeric top-N leaf → [`TopNTask::numeric`].
    TopNNumeric(TopNNumericSpec),
    /// String top-N leaf → [`TopNTask::nearest`].
    TopNString(TopNStringSpec),
    /// Conjunction leaf → [`MultiTask`].
    Multi(MultiSpec),
    /// Scan-left join leaf → [`JoinTask::new`].
    JoinScan(JoinSpec),
    /// Pipeline join → [`JoinTask::with_left`] seeded from the input rows.
    JoinOver(JoinSpec),
    /// Local ranking + truncation.
    TopN(TopNSpec),
    /// Local row predicate.
    Filter(RowPredicate),
    /// Local truncation.
    Limit(usize),
}

impl Stage {
    /// Stable lower-case label of the stage (trace-span and observation
    /// naming).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Stage::Lookup(_) => "lookup",
            Stage::Similar(_) => "similar",
            Stage::Select(_) => "select",
            Stage::TopNNumeric(_) => "topn_numeric",
            Stage::TopNString(_) => "topn_string",
            Stage::Multi(_) => "multi",
            Stage::JoinScan(_) | Stage::JoinOver(_) => "sim_join",
            Stage::TopN(_) => "top_n",
            Stage::Filter(_) => "filter",
            Stage::Limit(_) => "limit",
        }
    }
}

/// Flatten a resolved plan tree into its stage list, input first.
pub(crate) fn compile(node: &PlanNode, out: &mut Vec<Stage>) {
    match node {
        PlanNode::Lookup { oid } => out.push(Stage::Lookup(oid.clone())),
        PlanNode::Select(spec) => out.push(Stage::Select(spec.clone())),
        PlanNode::Similar(spec) => out.push(Stage::Similar(spec.clone())),
        PlanNode::TopNNumeric(spec) => out.push(Stage::TopNNumeric(spec.clone())),
        PlanNode::TopNString(spec) => out.push(Stage::TopNString(spec.clone())),
        PlanNode::Multi(spec) => out.push(Stage::Multi(spec.clone())),
        PlanNode::SimJoin { input, spec } => match input {
            Some(input) => {
                compile(input, out);
                out.push(Stage::JoinOver(spec.clone()));
            }
            None => out.push(Stage::JoinScan(spec.clone())),
        },
        PlanNode::TopN { input, spec } => {
            compile(input, out);
            out.push(Stage::TopN(spec.clone()));
        }
        PlanNode::Filter { input, pred } => {
            compile(input, out);
            out.push(Stage::Filter(pred.clone()));
        }
        PlanNode::Limit { input, n } => {
            compile(input, out);
            out.push(Stage::Limit(*n));
        }
    }
}

/// Observed execution profile of **one plan stage**, recorded by
/// [`PlanTask`] as the stage closes. Collected unconditionally (the
/// stage's charges are gathered in its own [`QueryStats`] and folded into
/// the plan's with [`QueryStats::absorb`]), so `explain_analyze` works with
/// or without a trace sink installed.
///
/// Entries follow **stage order** (input first); the renderer maps them
/// back onto the top-down plan tree.
#[derive(Debug, Clone, Default)]
pub struct NodeObs {
    /// Stable stage label (`"similar"`, `"sim_join"`, `"filter"`, …).
    pub label: &'static str,
    /// Rows the stage handed to its consumer.
    pub rows_out: usize,
    /// Virtual time the stage began (0 without a sink).
    pub start_us: u64,
    /// Virtual time from stage start to its last charge (0 for free local
    /// transforms and when no sink is installed).
    pub elapsed_us: u64,
    /// What this stage charged: its leaf task's stats plus any fetch it ran
    /// itself (all zero for a local transform). [`PlanResult::stats`] is
    /// these absorbed in stage order.
    pub stats: QueryStats,
    /// Adaptive join window trajectory (joins with an adaptive window
    /// only): the window size after each AIMD adjustment.
    pub window_trace: Option<Vec<usize>>,
}

/// The in-flight physical task of one leaf stage.
enum Active {
    Similar(Box<SimilarTask>),
    Select(Box<SelectTask>),
    Join(Box<JoinTask>),
    Multi(Box<MultiTask>),
    TopN(Box<TopNTask>),
}

/// A prepared plan as one resumable task (see the [module docs](self)).
/// Construction is pure; schedule it on an event queue like any other
/// [`ExecStep`], or drive it synchronously with
/// [`SimilarityEngine::run_task`] and collect the rows via
/// [`Self::take_rows`].
pub struct PlanTask {
    stages: Vec<Stage>,
    idx: usize,
    active: Option<Active>,
    from: PeerId,
    rows: Vec<PlanRow>,
    stats: QueryStats,
    obs: Vec<NodeObs>,
    /// Virtual time the open stage began.
    stage_start_us: u64,
    /// The open stage's charges, folded into `stats` as it closes.
    stage: QueryStats,
    done: bool,
}

impl PlanTask {
    pub(crate) fn new(stages: Vec<Stage>, from: PeerId) -> Self {
        Self {
            stages,
            idx: 0,
            active: None,
            from,
            rows: Vec::new(),
            stats: QueryStats::default(),
            obs: Vec::new(),
            stage_start_us: 0,
            stage: QueryStats::default(),
            done: false,
        }
    }

    /// The pipeline's output rows, once the task is done.
    pub fn take_rows(&mut self) -> Vec<PlanRow> {
        std::mem::take(&mut self.rows)
    }

    /// Per-stage observed profiles, in stage order (input first); complete
    /// once the task is done. `Session::explain_analyze` maps these back
    /// onto the rendered plan tree.
    pub fn observations(&self) -> &[NodeObs] {
        &self.obs
    }

    /// Close the stage at `self.idx`: fold its charges into the plan's,
    /// record its [`NodeObs`] and — when a trace sink is attributed to this
    /// query — emit the stage span.
    fn close_stage(
        &mut self,
        engine: &SimilarityEngine,
        end_us: u64,
        window_trace: Option<Vec<usize>>,
    ) {
        let stats = std::mem::take(&mut self.stage);
        self.stats.absorb(&stats);
        let o = NodeObs {
            label: self.stages[self.idx].label(),
            rows_out: self.rows.len(),
            start_us: self.stage_start_us,
            elapsed_us: end_us.saturating_sub(self.stage_start_us),
            stats,
            window_trace,
        };
        if engine.network().has_trace_sink() {
            if let Some(q) = engine.network().trace_query() {
                engine.network().trace_with(|| {
                    let b = o.stats.sim.unwrap_or_default();
                    TraceEvent::span(
                        o.start_us,
                        o.elapsed_us,
                        TraceTrack::Query(q),
                        o.label,
                        "stage",
                    )
                    .arg("rows_out", o.rows_out)
                    .arg("messages", o.stats.traffic.messages)
                    .arg("probes", o.stats.probes)
                    .arg("net", b.crit_net_us)
                    .arg("queue", b.crit_queue_us)
                    .arg("service", b.crit_service_us)
                    .arg("stall", b.crit_stall_us)
                });
            }
        }
        self.obs.push(o);
    }

    /// Start the physical task of the leaf stage at `idx` (transform
    /// stages return `None`; they are evaluated inline by `step`).
    fn start_stage(&mut self, idx: usize) -> Option<Active> {
        leaf_task(&self.stages[idx], &self.rows, self.from)
            .expect("a prepared plan's leaves are checked when it is prepared")
    }
}

/// Refuse a resolved plan whose leaf tasks would refuse their specs: a
/// task constructor's `Err` is the plan's [`PlanError`]. A plan is checked
/// once, when it is prepared, so its task can start every leaf it reaches.
pub(crate) fn check_leaves(node: &PlanNode, from: PeerId) -> Result<(), PlanError> {
    match node {
        PlanNode::TopNNumeric(s) => topn_numeric_task(s, from).map(drop),
        PlanNode::TopNString(s) => topn_string_task(s, from).map(drop),
        PlanNode::Multi(s) => multi_task(s, from).map(drop),
        PlanNode::SimJoin { input: Some(input), .. }
        | PlanNode::TopN { input, .. }
        | PlanNode::Filter { input, .. }
        | PlanNode::Limit { input, .. } => check_leaves(input, from),
        PlanNode::Lookup { .. }
        | PlanNode::Similar(_)
        | PlanNode::Select(_)
        | PlanNode::SimJoin { input: None, .. } => Ok(()),
    }
}

fn refused(e: &str) -> PlanError {
    PlanError::Invalid(e.to_string())
}

fn topn_numeric_task(s: &TopNNumericSpec, from: PeerId) -> Result<TopNTask, PlanError> {
    TopNTask::numeric(&s.attr, s.n, s.rank.clone(), from).map_err(refused)
}

fn topn_string_task(s: &TopNStringSpec, from: PeerId) -> Result<TopNTask, PlanError> {
    let strategy = s.strategy.expect("resolved plan");
    TopNTask::nearest(s.attr.as_deref(), s.n, &s.target, s.d_max, from, strategy).map_err(refused)
}

fn multi_task(s: &MultiSpec, from: PeerId) -> Result<MultiTask, PlanError> {
    let (strategy, multi) = (s.strategy.expect("resolved plan"), s.multi.expect("resolved plan"));
    let task = MultiTask::new(s.preds.clone(), from, strategy, multi).map_err(refused)?;
    // Cost-ordered conjunctions pin the pipelined lead to the cheapest leg
    // (index 0 after the planner's ordering).
    Ok(if s.cost_ordered { task.with_pinned_lead(0) } else { task })
}

/// The physical task of a leaf stage, fed `rows` when the leaf consumes
/// its input; `None` for a transform stage.
fn leaf_task(stage: &Stage, rows: &[PlanRow], from: PeerId) -> Result<Option<Active>, PlanError> {
    Ok(match stage {
        Stage::Similar(s) => Some(Active::Similar(Box::new(SimilarTask::new(
            &s.s,
            s.attr.as_deref(),
            s.d,
            from,
            s.strategy.expect("resolved plan"),
        )))),
        Stage::Select(s) => Some(Active::Select(Box::new(select_task(s, from)))),
        Stage::TopNNumeric(s) => Some(Active::TopN(Box::new(topn_numeric_task(s, from)?))),
        Stage::TopNString(s) => Some(Active::TopN(Box::new(topn_string_task(s, from)?))),
        Stage::Multi(s) => Some(Active::Multi(Box::new(multi_task(s, from)?))),
        Stage::JoinScan(s) => Some(Active::Join(Box::new(JoinTask::new(
            &s.ln,
            s.rn.as_deref(),
            s.d,
            from,
            &join_options(s),
        )))),
        Stage::JoinOver(s) => {
            // The upstream rows' objects provide the left pairs: every
            // string value of attribute `ln`, read through the row's handle.
            let mut pairs: Vec<(String, String)> = Vec::new();
            for row in rows {
                for v in row.handle.values(&row.oid, &s.ln).filter_map(ValueRef::as_str) {
                    pairs.push((row.oid.clone(), v.to_string()));
                }
            }
            Some(Active::Join(Box::new(JoinTask::with_left(
                pairs,
                s.rn.as_deref(),
                s.d,
                from,
                &join_options(s),
            ))))
        }
        Stage::Lookup(_) | Stage::TopN(_) | Stage::Filter(_) | Stage::Limit(_) => None,
    })
}

fn select_task(spec: &SelectSpec, from: PeerId) -> SelectTask {
    match spec {
        SelectSpec::Exact { attr, value } => SelectTask::exact(attr, value.clone(), from),
        SelectSpec::Range { attr, lo, hi } => SelectTask::range(attr, lo.clone(), hi.clone(), from),
        SelectSpec::NumericSimilar { attr, center, eps } => {
            SelectTask::numeric_similar(attr, center.clone(), *eps, from)
        }
        SelectSpec::Keyword { value } => SelectTask::keyword(value.clone(), from),
        SelectSpec::All { attr } => SelectTask::full_scan(attr, from),
    }
}

fn join_options(s: &JoinSpec) -> sqo_core::JoinOptions {
    sqo_core::JoinOptions {
        strategy: s.strategy.expect("resolved plan"),
        left_limit: s.left_limit.expect("resolved plan"),
        window: s.window.expect("resolved plan"),
    }
}

/// Turn the pairs of a build-side-**swapped** scan join back into
/// author-orientation rows. The executed join scanned the authored right
/// attribute (`spec.ln` post-swap) and probed the authored left
/// (`spec.rn`), so each pair's per-left match *is* the authored left side
/// — complete with object — while the authored right side is the scanned
/// `(oid, value)` pair, whose objects were never fetched. One charged
/// per-partition fetch fetches exactly the matched scanned-side objects
/// (edit distance is symmetric, so the pair set itself is orientation-
/// invariant); rows whose object vanished under churn are dropped, like
/// any unfetchable candidate. Rows come out deterministically sorted.
fn transpose_swapped_join(
    engine: &mut SimilarityEngine,
    from: PeerId,
    spec: &JoinSpec,
    pairs: Vec<sqo_core::JoinPair>,
    at: u64,
    stats: &mut QueryStats,
) -> (Vec<PlanRow>, u64) {
    let oids: rustc_hash::FxHashSet<String> = pairs.iter().map(|p| p.left_oid.clone()).collect();
    let (objects, end) = if oids.is_empty() {
        (Default::default(), at)
    } else {
        engine.charged(stats, at, |e| e.fetch_objects(from, &oids))
    };
    let scanned_attr = spec.ln.clone();
    let mut rows: Vec<PlanRow> = pairs
        .into_iter()
        .filter_map(|p| {
            let handle = objects.get(&p.left_oid).filter(|o| !o.is_empty(&p.left_oid))?.clone();
            Some(PlanRow {
                oid: p.left_oid,
                attr: Some(scanned_attr.clone()),
                value: Value::Str(p.left_value),
                score: Some(p.right.distance as f64),
                handle,
                left: Some((p.right.oid, p.right.matched)),
                bindings: Vec::new(),
            })
        })
        .collect();
    rows.sort_by_cached_key(|r| (r.left.clone(), r.oid.clone(), r.value.to_string()));
    (rows, end)
}

impl ExecStep for PlanTask {
    fn step(&mut self, engine: &mut SimilarityEngine, at_us: u64) -> StepOutcome {
        let mut at = at_us;
        loop {
            if self.done {
                return StepOutcome::Done(self.stats);
            }
            if self.idx >= self.stages.len() {
                self.stats.matches = self.rows.len();
                finalize_stats(&mut self.stats);
                self.done = true;
                return StepOutcome::Done(self.stats);
            }

            // ---- An in-flight leaf task: forward the step ----------------
            if let Some(active) = &mut self.active {
                let outcome = match active {
                    Active::Similar(t) => t.step(engine, at),
                    Active::Select(t) => t.step(engine, at),
                    Active::Join(t) => t.step(engine, at),
                    Active::Multi(t) => t.step(engine, at),
                    Active::TopN(t) => t.step(engine, at),
                };
                match outcome {
                    StepOutcome::Yield { at_us } => return StepOutcome::Yield { at_us },
                    StepOutcome::Done(child_stats) => {
                        self.stage.absorb(&child_stats);
                        at = child_stats.sim.map(|s| s.end_us).unwrap_or(at);
                        let window_trace = match &self.active {
                            Some(Active::Join(t)) => t.window_trace().map(<[usize]>::to_vec),
                            _ => None,
                        };
                        let spec_attr = match &self.stages[self.idx] {
                            Stage::Select(s) => s.attr().map(str::to_string),
                            _ => None,
                        };
                        self.rows = match self.active.take().expect("checked above") {
                            Active::Similar(mut t) => {
                                t.take_matches().map(row_from_match).collect()
                            }
                            Active::Select(mut t) => t
                                .take_hits()
                                .into_iter()
                                .map(|h| PlanRow {
                                    oid: h.oid,
                                    attr: spec_attr.clone(),
                                    value: h.value,
                                    score: None,
                                    handle: h.handle,
                                    left: None,
                                    bindings: Vec::new(),
                                })
                                .collect(),
                            Active::Join(mut t) => {
                                let pairs = t.take_pairs();
                                match &self.stages[self.idx] {
                                    Stage::JoinScan(s) if s.swapped => {
                                        let (rows, end) = transpose_swapped_join(
                                            engine,
                                            self.from,
                                            s,
                                            pairs,
                                            at,
                                            &mut self.stage,
                                        );
                                        at = end;
                                        rows
                                    }
                                    _ => pairs
                                        .into_iter()
                                        .map(|p| {
                                            let mut row = row_from_match(p.right);
                                            row.left = Some((p.left_oid, p.left_value));
                                            row
                                        })
                                        .collect(),
                                }
                            }
                            Active::Multi(mut t) => t
                                .take_matches()
                                .into_iter()
                                .map(|m| PlanRow {
                                    value: Value::Str(m.oid.clone()),
                                    oid: m.oid,
                                    attr: None,
                                    score: None,
                                    handle: m.handle,
                                    left: None,
                                    bindings: m.bindings,
                                })
                                .collect(),
                            Active::TopN(mut t) => rows_from_items(t.take_items()),
                        };
                        self.close_stage(engine, at, window_trace);
                        self.idx += 1;
                        continue;
                    }
                }
            }

            // ---- Start the next stage -----------------------------------
            self.stage_start_us = at;
            match &self.stages[self.idx] {
                Stage::Lookup(oid) => {
                    // One routed fetch, one charged chunk; an oid nothing
                    // is stored under yields no row.
                    let oid = oid.clone();
                    let from = self.from;
                    let oids = [oid.clone()].into_iter().collect();
                    let (mut objects, end) =
                        engine.charged(&mut self.stage, at, |e| e.fetch_objects(from, &oids));
                    self.rows = objects
                        .remove(&oid)
                        .filter(|o| !o.is_empty(&oid))
                        .map(|handle| {
                            vec![PlanRow {
                                oid: oid.clone(),
                                attr: None,
                                value: Value::Str(oid.clone()),
                                score: None,
                                handle,
                                left: None,
                                bindings: Vec::new(),
                            }]
                        })
                        .unwrap_or_default();
                    at = end;
                    self.close_stage(engine, at, None);
                    self.idx += 1;
                    continue;
                }
                Stage::TopN(spec) => {
                    rank_rows(&mut self.rows, spec.by);
                    self.rows.truncate(spec.n);
                    self.close_stage(engine, at, None);
                    self.idx += 1;
                    continue;
                }
                Stage::Filter(pred) => {
                    let pred = pred.clone();
                    self.rows.retain(|r| eval_predicate(&pred, r));
                    self.close_stage(engine, at, None);
                    self.idx += 1;
                    continue;
                }
                Stage::Limit(n) => {
                    self.rows.truncate(*n);
                    self.close_stage(engine, at, None);
                    self.idx += 1;
                    continue;
                }
                _ => {
                    self.active = self.start_stage(self.idx);
                    debug_assert!(self.active.is_some(), "leaf stages start a task");
                    continue;
                }
            }
        }
    }
}

fn row_from_match(m: sqo_core::SimilarMatch) -> PlanRow {
    PlanRow {
        oid: m.oid,
        attr: Some(m.attr.as_str().to_string()),
        value: Value::Str(m.matched),
        score: Some(m.distance as f64),
        handle: m.handle,
        left: None,
        bindings: Vec::new(),
    }
}

fn rows_from_items(items: Vec<sqo_core::TopNItem>) -> Vec<PlanRow> {
    items
        .into_iter()
        .map(|i| PlanRow {
            oid: i.oid,
            attr: None,
            value: i.value,
            score: Some(i.score),
            handle: i.handle,
            left: None,
            bindings: Vec::new(),
        })
        .collect()
}

/// Deterministic local ranking: primary key per [`RankBy`], ties broken by
/// the row's value rendering and oid (the same tiebreak the string top-N
/// operator uses).
fn rank_rows(rows: &mut [PlanRow], by: RankBy) {
    match by {
        RankBy::Score => rows.sort_by(|a, b| {
            let sa = a.score.unwrap_or(f64::INFINITY);
            let sb = b.score.unwrap_or(f64::INFINITY);
            sa.total_cmp(&sb)
                .then_with(|| a.value.to_string().cmp(&b.value.to_string()))
                .then_with(|| a.oid.cmp(&b.oid))
        }),
        RankBy::ValueAsc | RankBy::ValueDesc => rows.sort_by(|a, b| {
            let ord = cmp_values(&a.value, &b.value);
            let ord = if by == RankBy::ValueDesc { ord.reverse() } else { ord };
            ord.then_with(|| a.oid.cmp(&b.oid))
        }),
    }
}

fn cmp_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a.as_float(), b.as_float()) {
        (Some(x), Some(y)) => x.total_cmp(&y),
        _ => a.to_string().cmp(&b.to_string()),
    }
}

/// Evaluate a [`RowPredicate`] on one row. `ValueCmp` tests the row's own
/// value when the row was produced under the same attribute, otherwise any
/// value of that attribute on the row's object, read through its handle (a
/// row without the attribute fails) — which is what makes pushing an equality/range
/// predicate into the access path row-equivalent, not only object-
/// equivalent.
fn eval_predicate(pred: &RowPredicate, row: &PlanRow) -> bool {
    match pred {
        RowPredicate::ScoreLe(bound) => row.score.is_some_and(|s| s <= *bound),
        RowPredicate::ValueCmp { attr, op, value } => {
            if row.attr.as_deref() == Some(attr.as_str()) {
                return cmp_holds(row.value.as_ref(), *op, value);
            }
            row.handle.values(&row.oid, attr).any(|v| cmp_holds(v, *op, value))
        }
    }
}

fn cmp_holds(v: ValueRef<'_>, op: CmpOp, lit: &Value) -> bool {
    let ord = match (v.as_float(), lit.as_float()) {
        (Some(x), Some(y)) => x.partial_cmp(&y),
        _ => match (v, lit) {
            (ValueRef::Str(a), Value::Str(b)) => Some(a.cmp(b.as_str())),
            _ => None,
        },
    };
    let Some(ord) = ord else { return false };
    match op {
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
    }
}
