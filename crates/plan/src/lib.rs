//! # sqo-plan — the unified logical-plan layer
//!
//! Every query surface of the system — the fluent [`Query`] builder and
//! parsed VQL — compiles
//! into one composable operator-tree IR ([`PlanNode`]), planned by one
//! planner (default inheritance from [`sqo_core::QueryDefaults`], cost-based
//! rewrites fed by zero-message cardinality estimates ([`CostModel`]),
//! predicate pushdown, limit fusion, broker-aware strategy choices) and
//! executed by one physical compiler ([`PlanTask`]) that turns any tree
//! into a single resumable task on the event-driven execution queue.
//!
//! The payoff is composability: pipelines like `select → sim_join → top_n`
//! are one builder chain, run interleaved with every other in-flight
//! query, and print their plan via [`PreparedQuery::explain`].
//! Single-operator plans execute the *identical* stepped task an operator
//! task (`SimilarTask`, `TopNTask`, …) drives on its own, so results and
//! cost accounting are byte-identical either way (pinned by the
//! equivalence tests).
//!
//! ## Surfaces
//!
//! | layer | type | role |
//! |-------|------|------|
//! | build | [`Query`] | typed fluent builder → [`PlanNode`] tree |
//! | plan  | [`Session::prepare`] | defaults + rewrites → [`PreparedQuery`] |
//! | inspect | [`PreparedQuery::explain`] | deterministic plan rendering |
//! | analyze | [`Session::explain_analyze`] | run once, re-render the tree with observed per-node counters |
//! | run   | [`Session::run`] / [`PreparedQuery::task`] | sync, or as an [`sqo_core::ExecStep`] on an event queue |
//!
//! ```
//! use sqo_core::EngineBuilder;
//! use sqo_plan::{Query, Session};
//! use sqo_storage::{Row, Value};
//!
//! let rows = vec![
//!     Row::new("car:1", [("name", Value::from("BMW 320d")), ("price", Value::from(30_000))]),
//!     Row::new("car:2", [("name", Value::from("BMW 320i")), ("price", Value::from(70_000))]),
//! ];
//! let mut engine = EngineBuilder::new().peers(16).seed(7).build_with_rows(&rows);
//! let from = engine.random_peer();
//! let mut session = Session::new(&mut engine, from);
//!
//! // A multi-operator pipeline: cheap cars, their names joined against
//! // similar names, best 3 pairs.
//! let q = Query::select_range("price", Value::Int(0), Value::Int(50_000))
//!     .sim_join("name", Some("name"), 1)
//!     .top_n(3);
//! let prepared = session.prepare(&q).unwrap();
//! assert!(prepared.explain().contains("SimJoin"));
//! let result = session.run_prepared(&prepared);
//! assert!(result.rows.iter().all(|r| r.left.is_some()));
//! ```

pub mod builder;
pub mod cost;
pub mod exec;
pub mod explain;
pub mod ir;
pub mod rewrite;
pub mod session;

pub use builder::Query;
pub use cost::CostModel;
pub use exec::{NodeObs, PlanResult, PlanRow, PlanTask};
pub use ir::{
    CmpOp, JoinSpec, MultiSpec, PlanError, PlanNode, RankBy, RowPredicate, SelectSpec, SimilarSpec,
    TopNNumericSpec, TopNSpec, TopNStringSpec,
};
pub use rewrite::{open_range_bounds, PlannerEnv};
pub use session::{PreparedQuery, Session};
