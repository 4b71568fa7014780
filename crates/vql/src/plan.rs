//! Query planning: from the parsed AST to one plan leaf per subject.
//!
//! The vertical scheme has no tables, so the planner's unit is the *subject
//! variable*: all patterns sharing a subject describe one object to be
//! materialized. For every subject the planner picks the most selective
//! access path it can justify from the patterns and filters, as a leaf of
//! the shared plan IR (`sqo-plan`'s [`PlanNode`]) — the same leaves the
//! builder API compiles, in this order of preference:
//!
//! | leaf | source |
//! |------|--------|
//! | `Lookup` | constant subject |
//! | `Select(Exact)` | `?v = lit` on a constant-attribute pattern |
//! | `Select(NumericSimilar)` | `dist(?v, num) < eps` |
//! | `Select(Range)` | `?v < lit` etc. (an open end gets its domain's bound) |
//! | `Similar` on an attribute | `dist(?v, 'str') < d` (instance level, Alg. 2) |
//! | `Similar` on names | `dist(?a, 'str') < d` on an attribute variable |
//! | `Select(All)` | fallback: any constant attribute of the subject |
//!
//! Filters spanning several subjects (e.g. the paper's
//! `FILTER (dist(?id,?cid) < 2)`) become *join predicates*, evaluated when
//! the materialized sides meet at the initiator — the "processing separate
//! sub-queries and intersecting the results" strategy of §4. All
//! single-subject filters are additionally re-verified on the bindings
//! (cheap, local), so path absorption can be approximate without risking
//! false positives.

use crate::ast::{CmpOp, Filter, Operand, OrderBy, Query, Term, TriplePattern};
use crate::error::{Result, VqlError};
use rustc_hash::{FxHashMap, FxHashSet};
use sqo_plan::{open_range_bounds, PlanNode, SelectSpec, SimilarSpec};
use sqo_storage::triple::Value;

/// Planner preference of a subject's leaf, lower = more selective: lookup,
/// exact, numeric similarity, range, instance similarity, schema
/// similarity, full scan.
fn rank(leaf: &PlanNode) -> u8 {
    match leaf {
        PlanNode::Lookup { .. } => 0,
        PlanNode::Select(SelectSpec::Exact { .. }) => 1,
        PlanNode::Select(SelectSpec::NumericSimilar { .. }) => 2,
        PlanNode::Select(SelectSpec::Range { .. }) => 3,
        PlanNode::Similar(SimilarSpec { attr: Some(_), .. }) => 4,
        PlanNode::Similar(SimilarSpec { attr: None, .. }) => 5,
        _ => 6,
    }
}

/// A `Similar` leaf on `attr`'s values, or on attribute names for `None`.
/// The gram strategy is left to the executor, which pins its own.
fn similar(s: &str, attr: Option<String>, d: usize) -> PlanNode {
    PlanNode::Similar(SimilarSpec { s: s.to_string(), attr, d, strategy: None })
}

/// Materialization plan for one subject variable.
#[derive(Debug, Clone)]
pub struct SubjectPlan {
    /// The subject variable (synthetic `$oid` name for constant subjects).
    pub var: String,
    /// The plan leaf that locates the subject's candidate objects.
    pub path: PlanNode,
    /// All patterns with this subject.
    pub patterns: Vec<TriplePattern>,
    /// Variables bound by this subject (subject var + attr vars + value
    /// vars).
    pub vars: FxHashSet<String>,
}

/// The full physical plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub subjects: Vec<SubjectPlan>,
    /// Filters spanning multiple subjects — join predicates.
    pub cross_filters: Vec<Filter>,
    /// All single-subject filters (re-verified locally on bindings).
    pub residual: Vec<Filter>,
    pub order: Option<OrderBy>,
    pub limit: Option<usize>,
    pub offset: Option<usize>,
    pub select: Vec<String>,
}

/// Variables mentioned by an operand.
fn operand_vars(op: &Operand, out: &mut FxHashSet<String>) {
    match op {
        Operand::Var(v) => {
            out.insert(v.clone());
        }
        Operand::Lit(_) => {}
        Operand::Dist(a, b) => {
            operand_vars(a, out);
            operand_vars(b, out);
        }
    }
}

fn filter_vars(f: &Filter) -> FxHashSet<String> {
    let mut s = FxHashSet::default();
    operand_vars(&f.left, &mut s);
    operand_vars(&f.right, &mut s);
    s
}

/// Decompose `dist(x, y) op bound` into (var, literal, max distance),
/// normalizing operand order and strictness. Returns `None` when the filter
/// is not of that shape.
fn as_dist_predicate(f: &Filter) -> Option<(String, Value, f64)> {
    let (dist, bound, op) = match (&f.left, &f.right, f.op) {
        (Operand::Dist(a, b), Operand::Lit(l), CmpOp::Lt | CmpOp::Le) => ((a, b), l, f.op),
        (Operand::Lit(l), Operand::Dist(a, b), CmpOp::Gt | CmpOp::Ge) => {
            // `bound > dist(...)` flips to `dist(...) < bound`.
            ((a, b), l, if f.op == CmpOp::Gt { CmpOp::Lt } else { CmpOp::Le })
        }
        _ => return None,
    };
    let bound = bound.as_float()?;
    let (var, lit) = match (dist.0.as_ref(), dist.1.as_ref()) {
        (Operand::Var(v), Operand::Lit(l)) | (Operand::Lit(l), Operand::Var(v)) => {
            (v.clone(), l.clone())
        }
        _ => return None,
    };
    // Strict bound on an integral distance: dist < 2 ⇔ dist <= 1. For
    // continuous distances the executor's residual check restores
    // strictness.
    let eps = match op {
        CmpOp::Lt => {
            if matches!(lit, Value::Str(_)) {
                (bound - 1.0).max(0.0)
            } else {
                bound
            }
        }
        _ => bound,
    };
    Some((var, lit, eps))
}

/// Build the physical plan for a parsed query.
pub fn plan(query: &Query) -> Result<Plan> {
    // ---- Group patterns by subject -----------------------------------
    let mut order_of_subjects: Vec<String> = Vec::new();
    let mut groups: FxHashMap<String, Vec<TriplePattern>> = FxHashMap::default();
    let mut const_subjects: FxHashMap<String, String> = FxHashMap::default();
    for p in &query.patterns {
        let key = match &p.s {
            Term::Var(v) => v.clone(),
            Term::Const(Value::Str(oid)) => {
                let synth = format!("$oid:{oid}");
                const_subjects.insert(synth.clone(), oid.clone());
                synth
            }
            Term::Const(other) => {
                return Err(VqlError::Semantic(format!(
                    "subject must be a variable or string oid, found {other}"
                )))
            }
        };
        if !groups.contains_key(&key) {
            order_of_subjects.push(key.clone());
        }
        groups.entry(key).or_default().push(p.clone());
    }

    // ---- Per-subject variable sets ------------------------------------
    let mut subject_vars: FxHashMap<String, FxHashSet<String>> = FxHashMap::default();
    for (subj, patterns) in &groups {
        let mut vars = FxHashSet::default();
        if !subj.starts_with("$oid:") {
            vars.insert(subj.clone());
        }
        for p in patterns {
            if let Some(v) = p.p.as_var() {
                vars.insert(v.to_string());
            }
            if let Some(v) = p.o.as_var() {
                vars.insert(v.to_string());
            }
        }
        subject_vars.insert(subj.clone(), vars);
    }

    // ---- Validate SELECT / ORDER variables ---------------------------
    let all_vars: FxHashSet<&String> = subject_vars.values().flatten().collect();
    for v in &query.select {
        if !all_vars.contains(v) {
            return Err(VqlError::Semantic(format!("SELECT variable ?{v} is never bound")));
        }
    }
    if let Some(OrderBy::Key { var, .. } | OrderBy::Nn { var, .. }) = &query.order {
        if !all_vars.contains(var) {
            return Err(VqlError::Semantic(format!("ORDER BY variable ?{var} is never bound")));
        }
    }

    // ---- Classify filters ---------------------------------------------
    let mut residual: Vec<Filter> = Vec::new();
    let mut cross_filters: Vec<Filter> = Vec::new();
    // Per subject: candidate access paths from absorbable filters.
    let mut candidates: FxHashMap<String, Vec<PlanNode>> = FxHashMap::default();

    for f in &query.filters {
        let vars = filter_vars(f);
        let owners: Vec<&String> = subject_vars
            .iter()
            .filter(|(_, svars)| vars.iter().all(|v| svars.contains(v)))
            .map(|(s, _)| s)
            .collect();
        if owners.is_empty() && !vars.is_empty() {
            // Spans subjects: join predicate.
            cross_filters.push(f.clone());
            continue;
        }
        let owner = owners.first().map(|s| s.to_string());
        residual.push(f.clone());
        let Some(owner) = owner else { continue };
        let patterns = &groups[&owner];

        // Similarity predicate?
        if let Some((var, lit, eps)) = as_dist_predicate(f) {
            // Attribute variable → schema level.
            let is_attr_var = patterns.iter().any(|p| p.p.as_var() == Some(var.as_str()));
            if is_attr_var {
                if let Value::Str(s) = &lit {
                    let leaf = similar(s, None, eps as usize);
                    candidates.entry(owner.clone()).or_default().push(leaf);
                }
                continue;
            }
            // Value variable of a constant-attribute pattern → instance.
            let attr = patterns.iter().find_map(|p| {
                (p.o.as_var() == Some(var.as_str()))
                    .then(|| p.p.as_const().and_then(Value::as_str).map(str::to_string))
                    .flatten()
            });
            if let Some(attr) = attr {
                let path = match &lit {
                    Value::Str(s) => similar(s, Some(attr), eps as usize),
                    num => PlanNode::Select(SelectSpec::NumericSimilar {
                        attr,
                        center: num.clone(),
                        eps,
                    }),
                };
                candidates.entry(owner.clone()).or_default().push(path);
            }
            continue;
        }

        // Plain comparison `?v op lit` on a constant-attribute pattern.
        let (var, lit, op) = match (&f.left, &f.right, f.op) {
            (Operand::Var(v), Operand::Lit(l), op) => (v.clone(), l.clone(), op),
            (Operand::Lit(l), Operand::Var(v), op) => {
                let flipped = match op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    other => other,
                };
                (v.clone(), l.clone(), flipped)
            }
            _ => continue,
        };
        let attr = patterns.iter().find_map(|p| {
            (p.o.as_var() == Some(var.as_str()))
                .then(|| p.p.as_const().and_then(Value::as_str).map(str::to_string))
                .flatten()
        });
        let Some(attr) = attr else { continue };
        let spec = match op {
            CmpOp::Eq => SelectSpec::Exact { attr, value: lit },
            CmpOp::Lt | CmpOp::Le => {
                let (lo, hi) = open_range_bounds(None, Some(lit));
                SelectSpec::Range { attr, lo, hi }
            }
            CmpOp::Gt | CmpOp::Ge => {
                let (lo, hi) = open_range_bounds(Some(lit), None);
                SelectSpec::Range { attr, lo, hi }
            }
            CmpOp::Ne => continue,
        };
        candidates.entry(owner.clone()).or_default().push(PlanNode::Select(spec));
    }

    // ---- Pick a path per subject --------------------------------------
    let mut subjects = Vec::with_capacity(order_of_subjects.len());
    for subj in order_of_subjects {
        let patterns = groups[&subj].clone();
        let mut best: Option<PlanNode> =
            const_subjects.get(&subj).map(|oid| PlanNode::Lookup { oid: oid.clone() });
        if best.is_none() {
            // Exact-match from a constant object value on a constant attr.
            for p in &patterns {
                if let (Some(attr), Some(v)) =
                    (p.p.as_const().and_then(Value::as_str), p.o.as_const())
                {
                    best = Some(PlanNode::Select(SelectSpec::Exact {
                        attr: attr.to_string(),
                        value: v.clone(),
                    }));
                    break;
                }
            }
        }
        for cand in candidates.remove(&subj).unwrap_or_default() {
            if best.as_ref().is_none_or(|b| rank(&cand) < rank(b)) {
                best = Some(cand);
            }
        }
        if best.is_none() {
            // Fallback: scan any constant attribute.
            best = patterns.iter().find_map(|p| {
                p.p.as_const()
                    .and_then(Value::as_str)
                    .map(|a| PlanNode::Select(SelectSpec::All { attr: a.to_string() }))
            });
        }
        let Some(path) = best else {
            return Err(VqlError::Unplannable(format!(
                "subject ?{subj} has neither a constant attribute nor a similarity predicate"
            )));
        };
        let vars = subject_vars[&subj].clone();
        subjects.push(SubjectPlan { var: subj, path, patterns, vars });
    }

    Ok(Plan {
        subjects,
        cross_filters,
        residual,
        order: query.order.clone(),
        limit: query.limit,
        offset: query.offset,
        select: query.select.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn q1_uses_range_path() {
        let q = parse(
            "SELECT ?n,?h,?p WHERE { (?o,name,?n) (?o,hp,?h) (?o,price,?p) \
             FILTER (?p < 50000) } ORDER BY ?h DESC LIMIT 5",
        )
        .unwrap();
        let plan = plan(&q).unwrap();
        assert_eq!(plan.subjects.len(), 1);
        assert_eq!(
            plan.subjects[0].path,
            PlanNode::Select(SelectSpec::Range {
                attr: "price".into(),
                lo: Value::Int(i64::MIN),
                hi: Value::Int(50000)
            })
        );
        assert_eq!(plan.residual.len(), 1);
    }

    #[test]
    fn similarity_filter_beats_range() {
        let q = parse(
            "SELECT ?n WHERE { (?x,name,?n) (?x,price,?p) \
             FILTER (?p < 50000) FILTER (dist(?n,'BMW') < 2) }",
        )
        .unwrap();
        let plan = plan(&q).unwrap();
        // A range (3) is more selective than an instance similarity (4) by
        // rank — the planner prefers the numeric range.
        assert!(matches!(plan.subjects[0].path, PlanNode::Select(SelectSpec::Range { .. })));
        assert_eq!(plan.residual.len(), 2, "both filters re-verified locally");
    }

    #[test]
    fn schema_similarity_path() {
        let q =
            parse("SELECT ?a WHERE { (?d,?a,?id) (?d,name,?dn) FILTER (dist(?a,'dlrid') < 3) }")
                .unwrap();
        let plan = plan(&q).unwrap();
        assert_eq!(plan.subjects[0].path, similar("dlrid", None, 2));
    }

    #[test]
    fn cross_subject_dist_is_join_filter() {
        let q = parse(
            "SELECT ?n WHERE { (?x,dealer,?cid) (?x,name,?n) (?d,dlrid,?id) (?d,addr,?ad) \
             FILTER (dist(?id,?cid) < 2) }",
        )
        .unwrap();
        let plan = plan(&q).unwrap();
        assert_eq!(plan.subjects.len(), 2);
        assert_eq!(plan.cross_filters.len(), 1);
        assert!(plan.residual.is_empty());
    }

    #[test]
    fn const_subject_uses_oid_path() {
        let q = parse("SELECT ?n WHERE { ('car:7',name,?n) }").unwrap();
        let plan = plan(&q).unwrap();
        assert_eq!(plan.subjects[0].path, PlanNode::Lookup { oid: "car:7".into() });
    }

    #[test]
    fn const_object_uses_exact_path() {
        let q = parse("SELECT ?x WHERE { (?x,color,'blue') }").unwrap();
        let plan = plan(&q).unwrap();
        assert_eq!(
            plan.subjects[0].path,
            PlanNode::Select(SelectSpec::Exact {
                attr: "color".into(),
                value: Value::from("blue")
            })
        );
    }

    #[test]
    fn select_of_unbound_var_rejected() {
        let q = parse("SELECT ?zzz WHERE { (?x,name,?n) }").unwrap();
        assert!(matches!(plan(&q), Err(VqlError::Semantic(_))));
    }

    #[test]
    fn fully_variable_subject_unplannable() {
        let q = parse("SELECT ?v WHERE { (?x,?a,?v) }").unwrap();
        assert!(matches!(plan(&q), Err(VqlError::Unplannable(_))));
    }

    #[test]
    fn dist_lt_on_strings_tightens_to_d_minus_one() {
        let q = parse("SELECT ?n WHERE { (?x,name,?n) FILTER (dist(?n,'BMW') < 2) }").unwrap();
        let plan = plan(&q).unwrap();
        assert_eq!(plan.subjects[0].path, similar("BMW", Some("name".into()), 1));
    }

    #[test]
    fn similarity_paths_lower_to_similar_leaves() {
        let q = parse("SELECT ?n WHERE { (?x,name,?n) FILTER (dist(?n,'BMW') <= 1) }").unwrap();
        let PlanNode::Similar(s) = &plan(&q).unwrap().subjects[0].path else {
            panic!("similar leaf")
        };
        assert_eq!(s.attr.as_deref(), Some("name"));
        assert_eq!((s.s.as_str(), s.d, s.strategy), ("BMW", 1, None));
        let q =
            parse("SELECT ?a WHERE { (?d,?a,?id) (?d,name,?dn) FILTER (dist(?a,'dlrid') < 3) }")
                .unwrap();
        let PlanNode::Similar(s) = &plan(&q).unwrap().subjects[0].path else {
            panic!("similar leaf")
        };
        assert_eq!(s.attr, None, "an attribute variable plans a schema-level leaf");
    }

    #[test]
    fn oid_and_scan_paths_lower_to_lookup_and_select() {
        let q = parse("SELECT ?n WHERE { ('car:7',name,?n) }").unwrap();
        assert_eq!(plan(&q).unwrap().subjects[0].path, PlanNode::Lookup { oid: "car:7".into() });
        let q = parse("SELECT ?h WHERE { (?x,hp,?h) }").unwrap();
        assert_eq!(
            plan(&q).unwrap().subjects[0].path,
            PlanNode::Select(SelectSpec::All { attr: "hp".into() })
        );
    }

    #[test]
    fn half_open_range_gets_domain_sentinels() {
        let q = parse("SELECT ?p WHERE { (?x,price,?p) FILTER (?p <= 9) }").unwrap();
        let PlanNode::Select(SelectSpec::Range { lo, hi, .. }) =
            &plan(&q).unwrap().subjects[0].path
        else {
            panic!("range leaf")
        };
        assert_eq!((lo, hi), (&Value::Int(i64::MIN), &Value::Int(9)));
        let q = parse("SELECT ?p WHERE { (?x,price,?p) FILTER (?p > 2.5) }").unwrap();
        let PlanNode::Select(SelectSpec::Range { lo, hi, .. }) =
            &plan(&q).unwrap().subjects[0].path
        else {
            panic!("range leaf")
        };
        assert_eq!((lo, hi), (&Value::Float(2.5), &Value::Float(f64::MAX)));
    }
}
