//! The logical plan IR: one composable operator tree every query surface
//! compiles into.
//!
//! A [`PlanNode`] is either a **leaf** — an access path locating candidate
//! objects in the overlay (`Select`, `Similar`, `TopNNumeric`,
//! `TopNString`, `Multi`, and the scan-left form of `SimJoin`) — or a
//! **composite** consuming the row stream of exactly one input node
//! (`SimJoin` over an input, `TopN`, `Filter`, `Limit`). Leaves map 1:1
//! onto the stepped physical operators of `sqo-core`; composites are
//! evaluated by the plan executor ([`crate::exec::PlanTask`]) between
//! stages, at the initiating peer.
//!
//! Per-query knobs (`strategy`, join `window`, join `left_limit`) are
//! `Option`s in the specs: `None` means *inherit* from the engine's
//! [`sqo_core::QueryDefaults`]; the planner fills every `None` during
//! [`crate::session::Session::prepare`], so a [`crate::PreparedQuery`]'s
//! tree is fully resolved.

use sqo_core::{AttrPredicate, JoinWindow, MultiStrategy, Rank, Strategy};
use sqo_storage::triple::Value;

/// A node of the logical plan tree. See the [module docs](self) for the
/// leaf/composite split and the inherit-from-defaults convention.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Leaf: direct object lookup by oid — one routed fetch reassembling
    /// the complete object.
    Lookup {
        /// The object id to fetch.
        oid: String,
    },
    /// Leaf: a non-similarity selection (exact / range / numeric-similar /
    /// keyword / full attribute scan).
    Select(SelectSpec),
    /// Leaf: the basic string-similarity operator (Algorithm 2), instance
    /// or schema level.
    Similar(SimilarSpec),
    /// Leaf: numeric top-N via density-estimated range enlargement
    /// (Algorithm 4).
    TopNNumeric(TopNNumericSpec),
    /// Leaf: string nearest-neighbor top-N via expanding edit-distance
    /// shells over `Similar`.
    TopNString(TopNStringSpec),
    /// Leaf: a conjunctive multi-attribute similarity selection.
    Multi(MultiSpec),
    /// A similarity join (Algorithm 3). With `input = None` the left side
    /// is scanned from attribute `spec.ln` (the paper's line 1); with an
    /// input node, the upstream rows provide the left pairs — the
    /// pipeline form `select → sim_join` that has no legacy entry point.
    SimJoin {
        /// Upstream producer of the left side, if any.
        input: Option<Box<PlanNode>>,
        /// The join parameters.
        spec: JoinSpec,
    },
    /// Rank the input's rows and keep the best `n` (a pure local
    /// post-operator; for the distributed top-N algorithms use the
    /// `TopNNumeric` / `TopNString` leaves).
    TopN {
        /// Upstream producer of the rows to rank.
        input: Box<PlanNode>,
        /// Ranking parameters.
        spec: TopNSpec,
    },
    /// Keep only input rows satisfying a local predicate. Absorbable
    /// predicates are additionally pushed into the input's access path by
    /// the planner (the filter is kept as a residual re-check, so pushdown
    /// can be approximate without false positives).
    Filter {
        /// Upstream producer of the rows to filter.
        input: Box<PlanNode>,
        /// The row predicate.
        pred: RowPredicate,
    },
    /// Truncate the input to its first `n` rows (row order is the
    /// deterministic operator output order).
    Limit {
        /// Upstream producer of the rows to truncate.
        input: Box<PlanNode>,
        /// Row cap.
        n: usize,
    },
}

/// Access path of a [`PlanNode::Select`] leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectSpec {
    /// `σ(attr = value)` via the exact index key (a cached single-key
    /// retrieve when the posting cache is on).
    Exact {
        /// Attribute name.
        attr: String,
        /// The value to match exactly.
        value: Value,
    },
    /// `σ(lo <= attr <= hi)` via the order-preserving keys.
    Range {
        /// Attribute name.
        attr: String,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// `dist(attr, center) <= eps` on numbers, processed as a range query.
    NumericSimilar {
        /// Attribute name.
        attr: String,
        /// Center of the Euclidean ball (must be numeric).
        center: Value,
        /// Ball radius.
        eps: f64,
    },
    /// Keyword selection: "any attribute = value" via the value index.
    Keyword {
        /// The value to find under any attribute.
        value: Value,
    },
    /// All values of an attribute (full attribute scan).
    All {
        /// Attribute name.
        attr: String,
    },
}

impl SelectSpec {
    /// The attribute this selection constrains, if it names one.
    pub fn attr(&self) -> Option<&str> {
        match self {
            SelectSpec::Exact { attr, .. }
            | SelectSpec::Range { attr, .. }
            | SelectSpec::NumericSimilar { attr, .. }
            | SelectSpec::All { attr } => Some(attr),
            SelectSpec::Keyword { .. } => None,
        }
    }
}

/// Parameters of a [`PlanNode::Similar`] leaf: `Similar(s, attr, d)` with
/// `attr = None` selecting the schema level.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarSpec {
    /// The search string.
    pub s: String,
    /// Attribute to search (`None` = attribute *names*, schema level).
    pub attr: Option<String>,
    /// Maximum edit distance.
    pub d: usize,
    /// Gram strategy; `None` inherits the engine default.
    pub strategy: Option<Strategy>,
}

/// Parameters of a [`PlanNode::TopNNumeric`] leaf (Algorithm 4).
#[derive(Debug, Clone, PartialEq)]
pub struct TopNNumericSpec {
    /// Attribute to rank.
    pub attr: String,
    /// Result count.
    pub n: usize,
    /// Ranking function (MIN / MAX / numeric NN).
    pub rank: Rank,
}

/// Parameters of a [`PlanNode::TopNString`] leaf (expanding distance
/// shells).
#[derive(Debug, Clone, PartialEq)]
pub struct TopNStringSpec {
    /// Attribute to search (`None` = schema level).
    pub attr: Option<String>,
    /// Result count.
    pub n: usize,
    /// The nearest-neighbor target string.
    pub target: String,
    /// Largest shell distance tried.
    pub d_max: usize,
    /// Gram strategy; `None` inherits the engine default.
    pub strategy: Option<Strategy>,
}

/// Parameters of a [`PlanNode::Multi`] leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSpec {
    /// The per-attribute similarity predicates (conjunctive).
    pub preds: Vec<AttrPredicate>,
    /// Conjunction strategy; `None` lets the planner choose — a
    /// broker-aware decision (see [`crate::session::Session::prepare`]).
    pub multi: Option<MultiStrategy>,
    /// Gram strategy; `None` inherits the engine default.
    pub strategy: Option<Strategy>,
    /// True once the cost model has ordered `preds` cheapest-first: the
    /// executor then pins the pipelined lead to predicate 0 instead of
    /// the built-in length heuristic. Set only by the planner.
    pub cost_ordered: bool,
}

/// Parameters of a [`PlanNode::SimJoin`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Left attribute. With an input node, the left pairs are the string
    /// values of this attribute on the input rows' objects, read through
    /// their handles; without one, the attribute is scanned from the overlay.
    pub ln: String,
    /// Right attribute (`None` joins against attribute *names*, schema
    /// level).
    pub rn: Option<String>,
    /// Maximum edit distance.
    pub d: usize,
    /// Gram strategy; `None` inherits the engine default.
    pub strategy: Option<Strategy>,
    /// Left-side cap; `None` inherits the engine default.
    pub left_limit: Option<Option<usize>>,
    /// Pipelining window (per-left selections in flight, fixed or AIMD
    /// [`JoinWindow::Auto`]); `None` inherits the engine default.
    pub window: Option<JoinWindow>,
    /// True when the cost model exchanged `ln`/`rn` (scanning the smaller
    /// side): the executor runs the swapped join and transposes the pairs
    /// back to author orientation. Set only by the planner.
    pub swapped: bool,
}

/// Parameters of a [`PlanNode::TopN`] post-operator.
#[derive(Debug, Clone, PartialEq)]
pub struct TopNSpec {
    /// Result count.
    pub n: usize,
    /// Ranking key over the input rows.
    pub by: RankBy,
}

/// Ranking key of a [`PlanNode::TopN`] post-operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankBy {
    /// Ascending by the rows' operator score (edit distance for similarity
    /// and join rows); rows without a score rank last.
    Score,
    /// Ascending by the row value.
    ValueAsc,
    /// Descending by the row value.
    ValueDesc,
}

impl RankBy {
    /// Stable label used by `explain()`.
    pub fn label(self) -> &'static str {
        match self {
            RankBy::Score => "score",
            RankBy::ValueAsc => "value asc",
            RankBy::ValueDesc => "value desc",
        }
    }
}

/// Comparison operator of a [`RowPredicate::ValueCmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// The comparison's surface symbol (used by `explain()`).
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }
}

/// A local row predicate of a [`PlanNode::Filter`] node. Evaluated at the
/// initiator on the rows, an object's values read through the row's
/// handle; absorbable shapes are additionally
/// pushed into the input's access path by the planner.
#[derive(Debug, Clone, PartialEq)]
pub enum RowPredicate {
    /// Compare a field of the row's object against a literal. A row with
    /// several values of `attr` passes if **any** value satisfies the
    /// comparison; a row without the attribute fails.
    ValueCmp {
        /// Attribute of the row's object to test.
        attr: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal to compare against.
        value: Value,
    },
    /// Keep rows whose operator score is `<= bound` (rows without a score
    /// fail).
    ScoreLe(
        /// Inclusive score bound.
        f64,
    ),
}

impl PlanNode {
    /// The node's input, if it is a composite.
    pub fn input(&self) -> Option<&PlanNode> {
        match self {
            PlanNode::SimJoin { input, .. } => input.as_deref(),
            PlanNode::TopN { input, .. }
            | PlanNode::Filter { input, .. }
            | PlanNode::Limit { input, .. } => Some(input),
            _ => None,
        }
    }

    /// Number of nodes in this (sub)tree.
    pub fn len(&self) -> usize {
        1 + self.input().map_or(0, PlanNode::len)
    }

    /// Always false: a plan tree has at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Short operator name used by `explain()`.
    pub fn name(&self) -> &'static str {
        match self {
            PlanNode::Lookup { .. } => "Lookup",
            PlanNode::Select(SelectSpec::Exact { .. }) => "SelectExact",
            PlanNode::Select(SelectSpec::Range { .. }) => "SelectRange",
            PlanNode::Select(SelectSpec::NumericSimilar { .. }) => "SelectNumericSimilar",
            PlanNode::Select(SelectSpec::Keyword { .. }) => "SelectKeyword",
            PlanNode::Select(SelectSpec::All { .. }) => "SelectAll",
            PlanNode::Similar(_) => "Similar",
            PlanNode::TopNNumeric(_) => "TopNNumeric",
            PlanNode::TopNString(_) => "TopNString",
            PlanNode::Multi(_) => "Multi",
            PlanNode::SimJoin { .. } => "SimJoin",
            PlanNode::TopN { .. } => "TopN",
            PlanNode::Filter { .. } => "Filter",
            PlanNode::Limit { .. } => "Limit",
        }
    }
}

/// Why a query could not be planned or executed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The plan shape is invalid (e.g. a zero-count top-N, an empty
    /// conjunction, a non-numeric NN target).
    Invalid(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Invalid(m) => write!(f, "invalid plan: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}
