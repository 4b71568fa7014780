//! The planner: validation, default inheritance and rewrite passes that
//! turn a builder/VQL tree into a fully resolved physical plan.
//!
//! Passes, in order:
//!
//! 1. **Cost-based rewrites** (when a [`CostModel`] is supplied) —
//!    conjunction legs of planner-owned `Multi` nodes are ordered
//!    cheapest-first by estimated stage-1 candidate volume (and the
//!    pipelined lead pinned to the cheapest), and a scan-side `SimJoin`
//!    whose right attribute is estimated markedly smaller swaps its build
//!    side (the executor transposes the pairs back). Every estimate lands
//!    in the `explain()` notes.
//! 2. **Resolve** — every `None` option inherits the engine's
//!    [`QueryDefaults`]; `Multi` conjunctions without a pinned strategy get
//!    a **broker-aware** choice (Intersect when the posting cache is
//!    active — its repeated sub-queries share cached gram lists — else
//!    Pipelined, the single-network-pass shape). Shapes that the physical
//!    operators cannot run are rejected here as [`PlanError`]s; a leaf
//!    whose task constructor refuses its spec (top-0, a non-numeric NN
//!    target, an empty conjunction) is refused by that constructor, which
//!    the executor calls when the plan is prepared.
//! 3. **Predicate pushdown** — a `Filter` directly over a full attribute
//!    scan is absorbed into the access path (`=` → exact key lookup, `<=` /
//!    `<` / `>=` / `>` → order-preserving range). The filter node is kept
//!    as a residual re-check, so absorption is free to be approximate
//!    (inclusive range under a strict bound) without false positives.
//! 4. **Limit fusion** — a `Limit` directly over a top-N (post-operator or
//!    distributed leaf) tightens the top-N's `n` and disappears.

use crate::cost::CostModel;
use crate::ir::{CmpOp, PlanError, PlanNode, RowPredicate, SelectSpec};
use sqo_core::{MultiStrategy, QueryDefaults};
use sqo_storage::triple::Value;

/// What the planner knows about the engine at prepare time.
#[derive(Debug, Clone)]
pub struct PlannerEnv {
    /// The engine's per-query defaults, inherited by unresolved options.
    pub defaults: QueryDefaults,
    /// True when the engine's probe broker serves the posting cache (the
    /// cache-aware access-path signal).
    pub cache_active: bool,
    /// True when the §4 delegation/batching optimizations are on.
    pub delegation: bool,
}

impl PlannerEnv {
    /// Snapshot the planner-relevant engine state.
    pub fn of(engine: &sqo_core::SimilarityEngine) -> Self {
        Self {
            defaults: engine.defaults().clone(),
            cache_active: engine.cache_active(),
            delegation: engine.defaults().delegation,
        }
    }
}

/// Run all passes; returns the resolved tree plus human-readable planner
/// notes (surfaced by `explain()`). `cost` enables the cost-based pass —
/// callers without an engine at hand (snapshot planning, the driver's
/// per-run environment) pass `None` and get pure rule-based planning.
pub(crate) fn resolve(
    node: PlanNode,
    env: &PlannerEnv,
    cost: Option<&CostModel<'_>>,
    notes: &mut Vec<String>,
) -> Result<PlanNode, PlanError> {
    let node = match cost {
        Some(cm) => cost_rewrites(node, cm, env, notes),
        None => node,
    };
    let node = fill_defaults(node, env, notes)?;
    let node = pushdown_filters(node, env, notes);
    let node = fuse_limits(node, notes);
    Ok(node)
}

/// The cost-based pass (see the [module docs](self), pass 1). Runs before
/// default inheritance, so "planner-owned" decisions are recognizable as
/// still-unset options; effective values fall back to the defaults the
/// resolve pass would fill in.
fn cost_rewrites(
    node: PlanNode,
    cm: &CostModel<'_>,
    env: &PlannerEnv,
    notes: &mut Vec<String>,
) -> PlanNode {
    let d = &env.defaults;
    match node {
        PlanNode::Multi(mut spec) if spec.multi.is_none() && spec.preds.len() > 1 => {
            // Order the conjunction legs cheapest-first by estimated
            // stage-1 candidate volume; the executor pins the pipelined
            // lead to leg 0 and Intersect's early-out fires soonest.
            let strategy = spec.strategy.unwrap_or(d.strategy);
            let mut costed: Vec<(sqo_core::CardEstimate, sqo_core::AttrPredicate)> = spec
                .preds
                .drain(..)
                .map(|p| (cm.predicate_cost(&p.attr, &p.query, p.d, strategy), p))
                .collect();
            let rendered: Vec<String> = costed
                .iter()
                .map(|(est, p)| format!("{}≈{} ({})", p.attr, est.rows, est.source.label()))
                .collect();
            let min = costed.iter().map(|(e, _)| e.rows).min().unwrap_or(0);
            let max = costed.iter().map(|(e, _)| e.rows).max().unwrap_or(0);
            // Within-noise estimates (under a 2x spread — e.g. every leg on
            // the structural fallback) don't justify overriding the author
            // order or the executor's own lead heuristic.
            if max >= min.saturating_mul(2) && max > min {
                costed.sort_by_key(|(est, _)| est.rows); // stable: ties keep author order
                notes.push(format!(
                    "cost: conjunction legs ordered cheapest-first [{}]",
                    rendered.join(", ")
                ));
                spec.cost_ordered = true;
            } else {
                notes.push(format!(
                    "cost: conjunction legs kept in author order (estimates within noise) [{}]",
                    rendered.join(", ")
                ));
            }
            spec.preds = costed.into_iter().map(|(_, p)| p).collect();
            PlanNode::Multi(spec)
        }
        PlanNode::SimJoin { input: None, mut spec } => {
            let left = cm.attr_cardinality(&spec.ln);
            let swappable = spec.rn.as_deref().is_some_and(|rn| {
                rn != spec.ln && spec.left_limit.unwrap_or(d.join_left_limit).is_none()
            });
            if swappable {
                let rn = spec.rn.clone().expect("swappable implies rn");
                let right = cm.attr_cardinality(&rn);
                // Scan the markedly smaller side (2x margin against
                // estimate noise; strictly smaller, so all-zero estimates
                // — e.g. an empty or unindexed attribute pair — never
                // trigger a swap); the executor transposes pairs back.
                if right.rows < left.rows && right.rows.saturating_mul(2) <= left.rows {
                    notes.push(format!(
                        "cost: simjoin build side swapped — |{}|≈{} ({}) vs |{}|≈{} ({}): \
                         scanning {}",
                        spec.ln,
                        left.rows,
                        left.source.label(),
                        rn,
                        right.rows,
                        right.source.label(),
                        rn
                    ));
                    spec.rn = Some(std::mem::replace(&mut spec.ln, rn));
                    spec.swapped = true;
                } else {
                    notes.push(format!(
                        "cost: simjoin build side kept — |{}|≈{} ({}) vs |{}|≈{} ({})",
                        spec.ln,
                        left.rows,
                        left.source.label(),
                        rn,
                        right.rows,
                        right.source.label(),
                    ));
                }
            } else {
                notes.push(format!(
                    "cost: simjoin left |{}|≈{} ({})",
                    spec.ln,
                    left.rows,
                    left.source.label()
                ));
            }
            PlanNode::SimJoin { input: None, spec }
        }
        PlanNode::SimJoin { input: Some(i), spec } => {
            PlanNode::SimJoin { input: Some(Box::new(cost_rewrites(*i, cm, env, notes))), spec }
        }
        PlanNode::TopN { input, spec } => {
            PlanNode::TopN { input: Box::new(cost_rewrites(*input, cm, env, notes)), spec }
        }
        PlanNode::Filter { input, pred } => {
            PlanNode::Filter { input: Box::new(cost_rewrites(*input, cm, env, notes)), pred }
        }
        PlanNode::Limit { input, n } => {
            PlanNode::Limit { input: Box::new(cost_rewrites(*input, cm, env, notes)), n }
        }
        leaf => leaf,
    }
}

fn fill_defaults(
    node: PlanNode,
    env: &PlannerEnv,
    notes: &mut Vec<String>,
) -> Result<PlanNode, PlanError> {
    let d = &env.defaults;
    Ok(match node {
        PlanNode::Lookup { oid } => PlanNode::Lookup { oid },
        PlanNode::Similar(mut spec) => {
            spec.strategy.get_or_insert(d.strategy);
            PlanNode::Similar(spec)
        }
        PlanNode::Select(spec) => {
            // A NaN has no place in the ordered key space the selection
            // looks its values up in.
            let values = match &spec {
                SelectSpec::Exact { value, .. } | SelectSpec::Keyword { value } => {
                    [Some(value), None]
                }
                SelectSpec::Range { lo, hi, .. } => [Some(lo), Some(hi)],
                SelectSpec::NumericSimilar { center, .. } => [Some(center), None],
                SelectSpec::All { .. } => [None, None],
            };
            if values.into_iter().flatten().any(|v| v.as_float().is_some_and(f64::is_nan)) {
                return Err(PlanError::Invalid("a selection cannot look up NaN".into()));
            }
            if let SelectSpec::NumericSimilar { center, eps, .. } = &spec {
                if center.as_float().is_none() {
                    return Err(PlanError::Invalid(
                        "numeric similarity requires a numeric center value".into(),
                    ));
                }
                if !(eps.is_finite() && *eps >= 0.0) {
                    return Err(PlanError::Invalid(format!(
                        "numeric similarity requires a finite, non-negative eps, not {eps}"
                    )));
                }
            }
            PlanNode::Select(spec)
        }
        PlanNode::TopNNumeric(spec) => PlanNode::TopNNumeric(spec),
        PlanNode::TopNString(mut spec) => {
            spec.strategy.get_or_insert(d.strategy);
            PlanNode::TopNString(spec)
        }
        PlanNode::Multi(mut spec) => {
            spec.strategy.get_or_insert(d.strategy);
            if spec.multi.is_none() {
                let choice = if env.cache_active {
                    notes.push(
                        "multi: chose Intersect (posting cache active; repeated sub-queries \
                         share cached gram lists)"
                            .into(),
                    );
                    MultiStrategy::Intersect
                } else {
                    notes.push(
                        "multi: chose Pipelined (one network pass, residual predicates verified \
                         locally)"
                            .into(),
                    );
                    MultiStrategy::Pipelined
                };
                spec.multi = Some(choice);
            }
            PlanNode::Multi(spec)
        }
        PlanNode::SimJoin { input, mut spec } => {
            spec.strategy.get_or_insert(d.strategy);
            spec.window.get_or_insert(d.join_window);
            spec.left_limit.get_or_insert(d.join_left_limit);
            let input = match input {
                Some(i) => Some(Box::new(fill_defaults(*i, env, notes)?)),
                None => None,
            };
            PlanNode::SimJoin { input, spec }
        }
        PlanNode::TopN { input, spec } => {
            if spec.n == 0 {
                return Err(PlanError::Invalid("top-0 is trivial".into()));
            }
            PlanNode::TopN { input: Box::new(fill_defaults(*input, env, notes)?), spec }
        }
        PlanNode::Filter { input, pred } => {
            PlanNode::Filter { input: Box::new(fill_defaults(*input, env, notes)?), pred }
        }
        PlanNode::Limit { input, n } => {
            PlanNode::Limit { input: Box::new(fill_defaults(*input, env, notes)?), n }
        }
    })
}

/// Domain sentinels for the half-open ranges produced by pushdown and by
/// VQL's half-open `Range` access paths; the residual filter restores exact
/// strictness.
pub fn open_range_bounds(lo: Option<Value>, hi: Option<Value>) -> (Value, Value) {
    let kind = lo.as_ref().or(hi.as_ref()).cloned();
    let (dlo, dhi) = match kind {
        Some(Value::Float(_)) => (Value::Float(f64::MIN), Value::Float(f64::MAX)),
        Some(Value::Str(_)) => (Value::Str(String::new()), Value::Str("\u{10FFFF}".repeat(8))),
        _ => (Value::Int(i64::MIN), Value::Int(i64::MAX)),
    };
    (lo.unwrap_or(dlo), hi.unwrap_or(dhi))
}

fn pushdown_filters(node: PlanNode, env: &PlannerEnv, notes: &mut Vec<String>) -> PlanNode {
    match node {
        PlanNode::Filter { input, pred } => {
            let input = pushdown_filters(*input, env, notes);
            // Absorbable only when the filter sits directly on a full scan
            // of the same attribute AND the literal is a string. Strings
            // are safe because `cmp_holds` compares them type-strictly, so
            // the Str-keyed access path covers every row the filter could
            // accept. Numeric literals must NOT be absorbed: the filter
            // coerces across Int/Float (190 matches 190.0) but the index
            // keys live in disjoint per-type families (`VT_INT` vs
            // `VT_FLOAT`), so a typed exact/range probe would silently
            // drop rows stored under the other numeric type — an unsound
            // rewrite no residual re-check can repair.
            let absorbed = match (&input, &pred) {
                (
                    PlanNode::Select(SelectSpec::All { attr }),
                    RowPredicate::ValueCmp { attr: fattr, op, value: value @ Value::Str(_) },
                ) if attr == fattr => match op {
                    CmpOp::Eq => {
                        notes.push(format!(
                            "pushdown: σ({attr} = {value}) absorbed into an exact key lookup{}",
                            if env.cache_active {
                                " (served from the posting cache when hot)"
                            } else {
                                ""
                            }
                        ));
                        Some(SelectSpec::Exact { attr: attr.clone(), value: value.clone() })
                    }
                    CmpOp::Lt | CmpOp::Le => {
                        let (lo, _) = open_range_bounds(None, Some(value.clone()));
                        notes.push(format!(
                            "pushdown: σ({attr} {} {value}) absorbed into a range access path",
                            op.symbol()
                        ));
                        Some(SelectSpec::Range { attr: attr.clone(), lo, hi: value.clone() })
                    }
                    CmpOp::Gt | CmpOp::Ge => {
                        let (_, hi) = open_range_bounds(Some(value.clone()), None);
                        notes.push(format!(
                            "pushdown: σ({attr} {} {value}) absorbed into a range access path",
                            op.symbol()
                        ));
                        Some(SelectSpec::Range { attr: attr.clone(), lo: value.clone(), hi })
                    }
                    CmpOp::Ne => None,
                },
                _ => None,
            };
            match absorbed {
                Some(spec) => PlanNode::Filter {
                    input: Box::new(PlanNode::Select(spec)),
                    pred, // residual re-check keeps strict bounds exact
                },
                None => PlanNode::Filter { input: Box::new(input), pred },
            }
        }
        PlanNode::SimJoin { input, spec } => PlanNode::SimJoin {
            input: input.map(|i| Box::new(pushdown_filters(*i, env, notes))),
            spec,
        },
        PlanNode::TopN { input, spec } => {
            PlanNode::TopN { input: Box::new(pushdown_filters(*input, env, notes)), spec }
        }
        PlanNode::Limit { input, n } => {
            PlanNode::Limit { input: Box::new(pushdown_filters(*input, env, notes)), n }
        }
        leaf => leaf,
    }
}

fn fuse_limits(node: PlanNode, notes: &mut Vec<String>) -> PlanNode {
    match node {
        PlanNode::Limit { input, n } => {
            let input = fuse_limits(*input, notes);
            match input {
                PlanNode::TopN { input, mut spec } => {
                    spec.n = spec.n.min(n);
                    notes.push(format!("limit fusion: LIMIT {n} tightened top-N to n={}", spec.n));
                    PlanNode::TopN { input, spec }
                }
                // A leaf top-N ranks one row at least, so `LIMIT 0` over it
                // stays a limit.
                PlanNode::TopNString(mut spec) if n > 0 => {
                    spec.n = spec.n.min(n);
                    notes.push(format!(
                        "limit fusion: LIMIT {n} tightened string top-N to n={}",
                        spec.n
                    ));
                    PlanNode::TopNString(spec)
                }
                PlanNode::TopNNumeric(mut spec) if n > 0 => {
                    spec.n = spec.n.min(n);
                    notes.push(format!(
                        "limit fusion: LIMIT {n} tightened numeric top-N to n={}",
                        spec.n
                    ));
                    PlanNode::TopNNumeric(spec)
                }
                other => PlanNode::Limit { input: Box::new(other), n },
            }
        }
        PlanNode::SimJoin { input, spec } => {
            PlanNode::SimJoin { input: input.map(|i| Box::new(fuse_limits(*i, notes))), spec }
        }
        PlanNode::TopN { input, spec } => {
            PlanNode::TopN { input: Box::new(fuse_limits(*input, notes)), spec }
        }
        PlanNode::Filter { input, pred } => {
            PlanNode::Filter { input: Box::new(fuse_limits(*input, notes)), pred }
        }
        leaf => leaf,
    }
}
