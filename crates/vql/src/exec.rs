//! VQL execution over the similarity engine.
//!
//! Execution is materialize-then-join at the initiating peer: every subject
//! plan's leaf (a node of the shared logical-plan IR, see [`mod@crate::plan`])
//! is materialized through the `sqo-plan` physical compiler — the same
//! planner and stepped tasks the builder API runs on — each sub-plan
//! paying its overlay messages; the resulting binding sets are hash-joined
//! locally on shared variables, join-spanning `dist` predicates and
//! residual filters run on the joined rows, and ORDER BY / LIMIT / OFFSET
//! shape the output — the "separate sub-queries and intersecting the
//! results" strategy of §4.

use crate::ast::{CmpOp, Filter, Operand, OrderBy, Query, Term};
use crate::error::{Result, VqlError};
use crate::plan::{plan, Plan, SubjectPlan};
use rustc_hash::FxHashMap;
use sqo_core::{finalize_stats, ExecStep, QueryStats, SimilarityEngine, StepOutcome, Strategy};
use sqo_overlay::peer::PeerId;
use sqo_plan::{PlanNode, PlanTask, PlannerEnv, PreparedQuery, SimilarSpec};
use sqo_storage::posting::Object;
use sqo_storage::triple::Value;
use sqo_strsim::edit::levenshtein;

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Strategy for instance/schema similarity paths.
    pub strategy: Strategy,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self { strategy: Strategy::QGrams }
    }
}

/// A result table.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    pub stats: QueryStats,
}

/// One binding row during execution.
type Row = FxHashMap<String, Value>;

/// Parse, plan and execute `text` against `engine` from peer `from`.
pub fn run(
    engine: &mut SimilarityEngine,
    from: PeerId,
    text: &str,
    opts: &ExecOptions,
) -> Result<QueryOutput> {
    let query = crate::parser::parse(text)?;
    execute(engine, from, &query, opts)
}

/// Execute a parsed query.
pub fn execute(
    engine: &mut SimilarityEngine,
    from: PeerId,
    query: &Query,
    opts: &ExecOptions,
) -> Result<QueryOutput> {
    let mut task = VqlTask::from_query(query, from, opts)?;
    engine.run_task(&mut task);
    task.take_output().expect("completed task has an output")
}

/// A VQL query as a resumable task ([`ExecStep`]): each subject plan
/// materializes through a child operator task (selection or similarity),
/// one overlay sub-request per step; the final local join / filter /
/// order / project phase runs at the initiator when the last subject
/// returns. This is what lets a workload driver interleave VQL queries
/// with every other in-flight operator on one event queue.
pub struct VqlTask {
    plan: Plan,
    from: PeerId,
    strategy: Strategy,
    /// Planner environment, snapshotted from the engine at the first
    /// subject and reused for the rest (it is invariant while the task
    /// runs).
    env: Option<PlannerEnv>,
    state: VState,
    stats: QueryStats,
    /// Materialized binding rows per subject (subject index kept so the
    /// join can consult the subject's variable set after size-sorting).
    sides: Vec<(Vec<Row>, usize)>,
    output: Option<Result<QueryOutput>>,
}

enum VState {
    /// Start (or continue) materializing subject `idx`.
    Subject {
        idx: usize,
        child: Option<SubjectChild>,
        resume_at: Option<u64>,
    },
    Finish,
    Finished,
}

/// One subject's materialization: its plan leaf compiled into a stepped
/// plan task.
struct SubjectChild {
    task: Box<PlanTask>,
    /// The leaf binds the matched attribute (schema level).
    schema: bool,
}

impl VqlTask {
    /// Parse and plan `text` into a runnable task.
    pub fn prepare(text: &str, from: PeerId, opts: &ExecOptions) -> Result<VqlTask> {
        let query = crate::parser::parse(text)?;
        Self::from_query(&query, from, opts)
    }

    /// Plan a parsed query into a runnable task.
    pub fn from_query(query: &Query, from: PeerId, opts: &ExecOptions) -> Result<VqlTask> {
        Ok(VqlTask {
            plan: plan(query)?,
            from,
            strategy: opts.strategy,
            env: None,
            state: VState::Subject { idx: 0, child: None, resume_at: None },
            stats: QueryStats::default(),
            sides: Vec::new(),
            output: None,
        })
    }

    /// The result table (or execution error), once the task is done.
    pub fn take_output(&mut self) -> Option<Result<QueryOutput>> {
        self.output.take()
    }

    /// Compile subject `idx`'s plan leaf against the engine's planner
    /// environment. The VQL-level gram strategy (from [`ExecOptions`]) is
    /// pinned on every similarity-bearing node.
    fn child_for(&mut self, idx: usize, engine: &SimilarityEngine) -> Result<SubjectChild> {
        if self.env.is_none() {
            self.env = Some(PlannerEnv::of(engine));
        }
        let env = self.env.as_ref().expect("filled above");
        let path = &self.plan.subjects[idx].path;
        let schema = matches!(path, PlanNode::Similar(SimilarSpec { attr: None, .. }));
        let q = sqo_plan::Query::from_plan(path.clone()).strategy(self.strategy);
        let prepared = PreparedQuery::with_env(&q, env, self.from)
            .map_err(|e| VqlError::Semantic(e.to_string()))?;
        Ok(SubjectChild { task: Box::new(prepared.task()), schema })
    }

    /// Bind a finished subject's sources into rows and store them.
    fn bind_side(&mut self, idx: usize, sources: Vec<(Object, Option<String>)>) {
        let sp = &self.plan.subjects[idx];
        let mut rows = Vec::new();
        for (obj, schema_attr) in &sources {
            rows.extend(bind_object(sp, obj, schema_attr.as_deref()));
        }
        self.sides.push((rows, idx));
    }

    /// The local join / filter / order / project phase (initiator CPU;
    /// free of messages, `dist()` evaluations counted on the stats).
    fn finish(&mut self) -> Result<QueryOutput> {
        let plan = &self.plan;
        let stats = &mut self.stats;
        let mut sides = std::mem::take(&mut self.sides);
        // Join the smaller sides first to keep intermediate results small.
        sides.sort_by_key(|(rows, _)| rows.len());
        let mut acc: Vec<Row> = Vec::new();
        let mut acc_vars: Vec<String> = Vec::new();
        for (i, (rows, sp_idx)) in sides.into_iter().enumerate() {
            let sp = &plan.subjects[sp_idx];
            if i == 0 {
                acc = rows;
                acc_vars = sp.vars.iter().cloned().collect();
                continue;
            }
            let shared: Vec<String> =
                sp.vars.iter().filter(|v| acc_vars.contains(v)).cloned().collect();
            acc = hash_join(acc, rows, &shared);
            let new_vars: Vec<String> =
                sp.vars.iter().filter(|v| !acc_vars.contains(v)).cloned().collect();
            acc_vars.extend(new_vars);
            // Apply any cross filter whose variables are now all bound.
            acc.retain(|row| {
                plan.cross_filters
                    .iter()
                    .filter(|f| filter_ready(f, &acc_vars))
                    .all(|f| eval_filter(f, row, stats).unwrap_or(false))
            });
        }

        // ---- Residual + remaining cross filters ------------------------
        acc.retain(|row| {
            plan.residual
                .iter()
                .chain(plan.cross_filters.iter())
                .all(|f| eval_filter(f, row, stats).unwrap_or(false))
        });

        // ---- Order / offset / limit ------------------------------------
        order_rows(&mut acc, plan, stats)?;
        let offset = plan.offset.unwrap_or(0);
        if offset > 0 {
            acc = acc.into_iter().skip(offset).collect();
        }
        if let Some(limit) = plan.limit {
            acc.truncate(limit);
        }

        // ---- Project ----------------------------------------------------
        let mut rows = Vec::with_capacity(acc.len());
        for r in &acc {
            let mut out = Vec::with_capacity(plan.select.len());
            for col in &plan.select {
                let Some(v) = r.get(col) else {
                    return Err(VqlError::Semantic(format!("?{col} unbound in a result row")));
                };
                out.push(v.clone());
            }
            rows.push(out);
        }
        stats.matches = rows.len();
        finalize_stats(stats);
        Ok(QueryOutput { columns: plan.select.clone(), rows, stats: *stats })
    }
}

impl ExecStep for VqlTask {
    fn step(&mut self, engine: &mut SimilarityEngine, at_us: u64) -> StepOutcome {
        loop {
            match std::mem::replace(&mut self.state, VState::Finished) {
                VState::Subject { idx, child: None, resume_at } => {
                    let at = resume_at.unwrap_or(at_us);
                    if idx >= self.plan.subjects.len() {
                        self.state = VState::Finish;
                        continue;
                    }
                    match self.child_for(idx, engine) {
                        Ok(child) => {
                            self.state =
                                VState::Subject { idx, child: Some(child), resume_at: Some(at) };
                            continue;
                        }
                        Err(e) => {
                            finalize_stats(&mut self.stats);
                            self.output = Some(Err(e));
                            self.state = VState::Finished;
                            return StepOutcome::Done(self.stats);
                        }
                    }
                }

                VState::Subject { idx, child: Some(mut child), resume_at } => {
                    let at = resume_at.unwrap_or(at_us);
                    match child.task.step(engine, at) {
                        StepOutcome::Yield { at_us } => {
                            self.state =
                                VState::Subject { idx, child: Some(child), resume_at: Some(at_us) };
                            return StepOutcome::Yield { at_us };
                        }
                        StepOutcome::Done(child_stats) => {
                            self.stats.absorb(&child_stats);
                            let end = child_stats.sim.map(|s| s.end_us).unwrap_or(at);
                            let mut sources: Vec<(Object, Option<String>)> = Vec::new();
                            let mut seen = rustc_hash::FxHashSet::default();
                            for row in child.task.take_rows() {
                                if child.schema {
                                    // Keep the matched attribute: it binds
                                    // the pattern's attr var.
                                    let attr = row.attr.clone().unwrap_or_default();
                                    if seen.insert((row.oid.clone(), attr.clone())) {
                                        sources.push((row.object(), Some(attr)));
                                    }
                                } else if seen.insert((row.oid.clone(), String::new())) {
                                    sources.push((row.object(), None));
                                }
                            }
                            self.bind_side(idx, sources);
                            self.state =
                                VState::Subject { idx: idx + 1, child: None, resume_at: Some(end) };
                            return StepOutcome::Yield { at_us: end };
                        }
                    }
                }

                VState::Finish => {
                    let out = self.finish();
                    // finish() finalizes on success; a failing query must
                    // still report the envelope latency, not summed steps.
                    finalize_stats(&mut self.stats);
                    self.state = VState::Finished;
                    self.output = Some(out);
                    return StepOutcome::Done(self.stats);
                }

                VState::Finished => return StepOutcome::Done(self.stats),
            }
        }
    }
}

/// Expand an object into binding rows satisfying all patterns of the
/// subject (conjunctive; multivalued attributes multiply rows).
fn bind_object(sp: &SubjectPlan, obj: &Object, schema_attr: Option<&str>) -> Vec<Row> {
    let mut rows: Vec<Row> = vec![Row::default()];
    if !sp.var.starts_with("$oid:") {
        rows[0].insert(sp.var.clone(), Value::Str(obj.oid.clone()));
    }
    for pattern in &sp.patterns {
        let mut next: Vec<Row> = Vec::new();
        for row in &rows {
            // Candidate fields for this pattern.
            for (attr, value) in &obj.fields {
                // Attribute position.
                let mut candidate = row.clone();
                match &pattern.p {
                    Term::Const(Value::Str(a)) => {
                        if a != attr.as_str() {
                            continue;
                        }
                    }
                    Term::Const(_) => continue,
                    Term::Var(av) => {
                        // A schema-similar path restricts its attr var to the
                        // matched attribute for the *first* variable-attr
                        // pattern; conflicts resolved by binding equality.
                        if let Some(sa) = schema_attr {
                            if sp.patterns.iter().position(|pp| pp == pattern)
                                == sp.patterns.iter().position(|pp| pp.p.as_var().is_some())
                                && attr.as_str() != sa
                            {
                                continue;
                            }
                        }
                        match candidate.get(av) {
                            Some(Value::Str(bound)) if bound != attr.as_str() => continue,
                            Some(_) => {}
                            None => {
                                candidate.insert(av.clone(), Value::Str(attr.as_str().to_string()));
                            }
                        }
                    }
                }
                // Object position.
                match &pattern.o {
                    Term::Const(v) => {
                        if v != value {
                            continue;
                        }
                    }
                    Term::Var(ov) => match candidate.get(ov) {
                        Some(bound) if bound != value => continue,
                        Some(_) => {}
                        None => {
                            candidate.insert(ov.clone(), value.clone());
                        }
                    },
                }
                next.push(candidate);
            }
        }
        rows = next;
        if rows.is_empty() {
            break; // the object lacks a required attribute
        }
    }
    rows
}

fn hash_join(left: Vec<Row>, right: Vec<Row>, shared: &[String]) -> Vec<Row> {
    if shared.is_empty() {
        // Cartesian product (cross filters prune right after).
        let mut out = Vec::with_capacity(left.len() * right.len().max(1));
        for l in &left {
            for r in &right {
                let mut m = l.clone();
                m.extend(r.iter().map(|(k, v)| (k.clone(), v.clone())));
                out.push(m);
            }
        }
        return out;
    }
    let key_of = |row: &Row| -> Option<Vec<String>> {
        shared.iter().map(|v| row.get(v).map(Value::to_string)).collect()
    };
    let mut table: FxHashMap<Vec<String>, Vec<&Row>> = FxHashMap::default();
    for r in &right {
        if let Some(k) = key_of(r) {
            table.entry(k).or_default().push(r);
        }
    }
    let mut out = Vec::new();
    for l in &left {
        let Some(k) = key_of(l) else { continue };
        if let Some(rs) = table.get(&k) {
            for r in rs {
                let mut m = l.clone();
                m.extend(r.iter().map(|(k, v)| (k.clone(), v.clone())));
                out.push(m);
            }
        }
    }
    out
}

fn filter_ready(f: &Filter, bound: &[String]) -> bool {
    let mut vars = rustc_hash::FxHashSet::default();
    fn collect(op: &Operand, out: &mut rustc_hash::FxHashSet<String>) {
        match op {
            Operand::Var(v) => {
                out.insert(v.clone());
            }
            Operand::Lit(_) => {}
            Operand::Dist(a, b) => {
                collect(a, out);
                collect(b, out);
            }
        }
    }
    collect(&f.left, &mut vars);
    collect(&f.right, &mut vars);
    vars.iter().all(|v| bound.contains(v))
}

/// Evaluate an operand on a row. `None` = unbound/ill-typed (row fails).
fn eval_operand(op: &Operand, row: &Row, stats: &mut QueryStats) -> Option<Value> {
    match op {
        Operand::Var(v) => row.get(v).cloned(),
        Operand::Lit(v) => Some(v.clone()),
        Operand::Dist(a, b) => {
            let av = eval_operand(a, row, stats)?;
            let bv = eval_operand(b, row, stats)?;
            Some(Value::Float(distance(&av, &bv, stats)?))
        }
    }
}

/// `dist(a, b)`: edit distance for strings, Euclidean for numbers (§3).
fn distance(a: &Value, b: &Value, stats: &mut QueryStats) -> Option<f64> {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => {
            stats.edit_comparisons += 1;
            Some(levenshtein(x, y) as f64)
        }
        _ => {
            let x = a.as_float()?;
            let y = b.as_float()?;
            Some((x - y).abs())
        }
    }
}

fn eval_filter(f: &Filter, row: &Row, stats: &mut QueryStats) -> Option<bool> {
    let l = eval_operand(&f.left, row, stats)?;
    let r = eval_operand(&f.right, row, stats)?;
    let ord = compare(&l, &r)?;
    Some(match f.op {
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
    })
}

fn compare(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        _ => {
            let x = a.as_float()?;
            let y = b.as_float()?;
            x.partial_cmp(&y)
        }
    }
}

fn order_rows(rows: &mut Vec<Row>, plan: &Plan, stats: &mut QueryStats) -> Result<()> {
    match &plan.order {
        None => {
            // Deterministic output: sort by the projected columns.
            rows.sort_by_key(|r| {
                plan.select.iter().map(|c| r.get(c).map(Value::to_string)).collect::<Vec<_>>()
            });
        }
        Some(OrderBy::Key { var, desc }) => {
            rows.sort_by(|a, b| {
                let ord = match (a.get(var), b.get(var)) {
                    (Some(x), Some(y)) => compare(x, y).unwrap_or(std::cmp::Ordering::Equal),
                    _ => std::cmp::Ordering::Equal,
                };
                if *desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
        }
        Some(OrderBy::Nn { var, target }) => {
            let mut keyed: Vec<(f64, Row)> = std::mem::take(rows)
                .into_iter()
                .map(|r| {
                    let d = r
                        .get(var)
                        .and_then(|v| distance(v, target, stats))
                        .unwrap_or(f64::INFINITY);
                    (d, r)
                })
                .collect();
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
            *rows = keyed.into_iter().map(|(_, r)| r).collect();
        }
    }
    Ok(())
}
