//! The typed query builder: a fluent surface that assembles a
//! [`PlanNode`] tree without touching an engine.
//!
//! ```
//! use sqo_plan::Query;
//! use sqo_storage::Value;
//!
//! // select(price <= 50_000) → sim_join(dealer ~ dlrname, d=1) → top_n(5)
//! let q = Query::select_range("price", Value::Int(0), Value::Int(50_000))
//!     .sim_join("dealer", Some("dlrname"), 1)
//!     .top_n(5);
//! assert_eq!(q.plan().len(), 3);
//! ```

use crate::ir::{
    CmpOp, JoinSpec, MultiSpec, PlanNode, RankBy, RowPredicate, SelectSpec, SimilarSpec,
    TopNNumericSpec, TopNSpec, TopNStringSpec,
};
use sqo_core::{AttrPredicate, JoinWindow, MultiStrategy, Rank, Strategy};
use sqo_storage::triple::Value;

/// A logical query under construction: a [`PlanNode`] tree plus the
/// query-level option overrides (`strategy`, join `window` /
/// `left_limit`). Options left unset inherit the engine's
/// [`sqo_core::QueryDefaults`] at prepare time.
///
/// Constructors build leaves; combinators (`sim_join`, `top_n`, `filter`,
/// `limit`) wrap the current tree. Hand the finished query to
/// [`crate::Session::prepare`] or [`crate::Session::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    root: PlanNode,
}

impl Query {
    // ------------------------------------------------------------------
    // Leaf constructors
    // ------------------------------------------------------------------

    /// `Similar(s, attr, d)`: string similarity on `attr`, or on attribute
    /// *names* when `attr` is `None` (schema level).
    pub fn similar(s: impl Into<String>, attr: Option<&str>, d: usize) -> Self {
        Self {
            root: PlanNode::Similar(SimilarSpec {
                s: s.into(),
                attr: attr.map(str::to_string),
                d,
                strategy: None,
            }),
        }
    }

    /// Direct object lookup by oid (one routed fetch).
    pub fn lookup(oid: impl Into<String>) -> Self {
        Self { root: PlanNode::Lookup { oid: oid.into() } }
    }

    /// `σ(attr = value)`: exact-match selection.
    pub fn select_exact(attr: impl Into<String>, value: Value) -> Self {
        Self { root: PlanNode::Select(SelectSpec::Exact { attr: attr.into(), value }) }
    }

    /// `σ(lo <= attr <= hi)`: range selection (both bounds inclusive).
    pub fn select_range(attr: impl Into<String>, lo: Value, hi: Value) -> Self {
        Self { root: PlanNode::Select(SelectSpec::Range { attr: attr.into(), lo, hi }) }
    }

    /// `dist(attr, center) <= eps` on numbers.
    pub fn select_numeric_similar(attr: impl Into<String>, center: Value, eps: f64) -> Self {
        Self {
            root: PlanNode::Select(SelectSpec::NumericSimilar { attr: attr.into(), center, eps }),
        }
    }

    /// Keyword selection: "any attribute = value".
    pub fn select_keyword(value: Value) -> Self {
        Self { root: PlanNode::Select(SelectSpec::Keyword { value }) }
    }

    /// Full attribute scan: every value of `attr`.
    pub fn select_all(attr: impl Into<String>) -> Self {
        Self { root: PlanNode::Select(SelectSpec::All { attr: attr.into() }) }
    }

    /// Numeric top-N (Algorithm 4): the `n` best values of `attr` under
    /// `rank`.
    pub fn top_n_numeric(attr: impl Into<String>, n: usize, rank: Rank) -> Self {
        Self { root: PlanNode::TopNNumeric(TopNNumericSpec { attr: attr.into(), n, rank }) }
    }

    /// String nearest-neighbor top-N: the `n` closest strings to `target`
    /// within distance `d_max`, via expanding shells.
    pub fn top_n_similar(
        attr: Option<&str>,
        n: usize,
        target: impl Into<String>,
        d_max: usize,
    ) -> Self {
        Self {
            root: PlanNode::TopNString(TopNStringSpec {
                attr: attr.map(str::to_string),
                n,
                target: target.into(),
                d_max,
                strategy: None,
            }),
        }
    }

    /// Conjunctive multi-attribute similarity selection. Pass
    /// `multi = None` to let the planner choose the conjunction strategy
    /// (a broker-aware decision).
    pub fn similar_multi(preds: Vec<AttrPredicate>, multi: Option<MultiStrategy>) -> Self {
        Self {
            root: PlanNode::Multi(MultiSpec { preds, multi, strategy: None, cost_ordered: false }),
        }
    }

    /// `SimJoin(ln, rn, d)` with the left side **scanned** from attribute
    /// `ln` — the legacy whole-attribute join (Algorithm 3 line 1).
    pub fn join_scan(ln: impl Into<String>, rn: Option<&str>, d: usize) -> Self {
        Self {
            root: PlanNode::SimJoin {
                input: None,
                spec: JoinSpec {
                    ln: ln.into(),
                    rn: rn.map(str::to_string),
                    d,
                    strategy: None,
                    left_limit: None,
                    window: None,
                    swapped: false,
                },
            },
        }
    }

    // ------------------------------------------------------------------
    // Combinators
    // ------------------------------------------------------------------

    /// Join the current rows against attribute `rn` (or attribute names
    /// when `None`): the string values of `ln` on the rows' objects become
    /// the left pairs. This pipeline form has no legacy entry point.
    pub fn sim_join(self, ln: impl Into<String>, rn: Option<&str>, d: usize) -> Self {
        Self {
            root: PlanNode::SimJoin {
                input: Some(Box::new(self.root)),
                spec: JoinSpec {
                    ln: ln.into(),
                    rn: rn.map(str::to_string),
                    d,
                    strategy: None,
                    left_limit: None,
                    window: None,
                    swapped: false,
                },
            },
        }
    }

    /// Keep the `n` best rows by operator score (edit distance), the
    /// natural ranking after a similarity operator or join.
    pub fn top_n(self, n: usize) -> Self {
        self.top_n_by(n, RankBy::Score)
    }

    /// Keep the `n` best rows under an explicit ranking key.
    pub fn top_n_by(self, n: usize, by: RankBy) -> Self {
        Self { root: PlanNode::TopN { input: Box::new(self.root), spec: TopNSpec { n, by } } }
    }

    /// Keep rows whose object field `attr` satisfies `op value`.
    pub fn filter_value(self, attr: impl Into<String>, op: CmpOp, value: Value) -> Self {
        self.filter(RowPredicate::ValueCmp { attr: attr.into(), op, value })
    }

    /// Keep rows satisfying an arbitrary [`RowPredicate`].
    pub fn filter(self, pred: RowPredicate) -> Self {
        Self { root: PlanNode::Filter { input: Box::new(self.root), pred } }
    }

    /// Truncate to the first `n` rows.
    pub fn limit(self, n: usize) -> Self {
        Self { root: PlanNode::Limit { input: Box::new(self.root), n } }
    }

    // ------------------------------------------------------------------
    // Per-query option overrides
    // ------------------------------------------------------------------

    /// Override the gram strategy for every similarity-bearing node of the
    /// tree that has not pinned one explicitly.
    pub fn strategy(mut self, s: Strategy) -> Self {
        fn apply(node: &mut PlanNode, s: Strategy) {
            match node {
                PlanNode::Similar(spec) => {
                    spec.strategy.get_or_insert(s);
                }
                PlanNode::TopNString(spec) => {
                    spec.strategy.get_or_insert(s);
                }
                PlanNode::Multi(spec) => {
                    spec.strategy.get_or_insert(s);
                }
                PlanNode::SimJoin { input, spec } => {
                    if let Some(input) = input {
                        apply(input, s);
                    }
                    spec.strategy.get_or_insert(s);
                }
                PlanNode::TopN { input, .. }
                | PlanNode::Filter { input, .. }
                | PlanNode::Limit { input, .. } => apply(input, s),
                PlanNode::Lookup { .. } | PlanNode::Select(_) | PlanNode::TopNNumeric(_) => {}
            }
        }
        apply(&mut self.root, s);
        self
    }

    /// Override the pipelining window of every join in the tree with a
    /// fixed size.
    pub fn window(self, w: usize) -> Self {
        self.window_mode(JoinWindow::Fixed(w.max(1)))
    }

    /// Congestion-controlled (AIMD) windows for every join in the tree,
    /// with the default ceiling — see [`sqo_core::adaptive`].
    pub fn window_auto(self) -> Self {
        self.window_mode(JoinWindow::auto())
    }

    /// Override the window mode of every join in the tree.
    pub fn window_mode(mut self, w: JoinWindow) -> Self {
        for_each_join(&mut self.root, &mut |spec| spec.window = Some(w));
        self
    }

    /// Override the left-side cap of every join in the tree
    /// (`None` = join everything).
    pub fn left_limit(mut self, limit: Option<usize>) -> Self {
        for_each_join(&mut self.root, &mut |spec| spec.left_limit = Some(limit));
        self
    }

    /// The assembled (still unresolved) plan tree.
    pub fn plan(&self) -> &PlanNode {
        &self.root
    }

    /// Wrap an existing tree (e.g. one the VQL planner built).
    pub fn from_plan(root: PlanNode) -> Self {
        Self { root }
    }
}

fn for_each_join(node: &mut PlanNode, f: &mut impl FnMut(&mut JoinSpec)) {
    match node {
        PlanNode::SimJoin { input, spec } => {
            f(spec);
            if let Some(input) = input {
                for_each_join(input, f);
            }
        }
        PlanNode::TopN { input, .. }
        | PlanNode::Filter { input, .. }
        | PlanNode::Limit { input, .. } => for_each_join(input, f),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_shape() {
        let q = Query::select_range("price", Value::Int(0), Value::Int(9))
            .sim_join("dealer", Some("dlrname"), 1)
            .top_n(5);
        assert_eq!(q.plan().len(), 3);
        assert_eq!(q.plan().name(), "TopN");
    }

    #[test]
    fn strategy_override_reaches_nested_nodes() {
        let q = Query::similar("abc", Some("w"), 1)
            .sim_join("w", Some("w"), 1)
            .strategy(Strategy::QSamples);
        let PlanNode::SimJoin { input, spec } = q.plan() else { panic!("join root") };
        assert_eq!(spec.strategy, Some(Strategy::QSamples));
        let Some(PlanNode::Similar(s)) = input.as_deref() else { panic!("similar input") };
        assert_eq!(s.strategy, Some(Strategy::QSamples));
    }

    #[test]
    fn window_override_clamps() {
        let q = Query::join_scan("w", Some("w"), 1).window(0);
        let PlanNode::SimJoin { spec, .. } = q.plan() else { panic!() };
        assert_eq!(spec.window, Some(JoinWindow::Fixed(1)));
    }

    #[test]
    fn window_auto_marks_every_join() {
        let q = Query::similar("abc", Some("w"), 1).sim_join("w", Some("w"), 1).window_auto();
        let PlanNode::SimJoin { spec, .. } = q.plan() else { panic!() };
        assert_eq!(spec.window, Some(JoinWindow::auto()));
    }
}
