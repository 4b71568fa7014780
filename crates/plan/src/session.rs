//! The public query surface: [`Session`] (an engine + an access-point
//! peer) prepares [`Query`]s into [`PreparedQuery`]s — resolved,
//! explainable plans — and runs them synchronously or hands them out as
//! schedulable tasks.
//!
//! ```
//! use sqo_core::EngineBuilder;
//! use sqo_plan::{Query, Session};
//! use sqo_storage::Row;
//!
//! let rows = vec![
//!     Row::new("car:1", [("name", "BMW 320d")]),
//!     Row::new("car:2", [("name", "BMW 320i")]),
//! ];
//! let mut engine = EngineBuilder::new().peers(16).seed(7).build_with_rows(&rows);
//! let from = engine.random_peer();
//! let mut session = Session::new(&mut engine, from);
//! let prepared = session.prepare(&Query::similar("BMW 320x", Some("name"), 1)).unwrap();
//! println!("{}", prepared.explain());
//! let result = session.run_prepared(&prepared);
//! assert_eq!(result.rows.len(), 2);
//! ```

use crate::builder::Query;
use crate::cost::CostModel;
use crate::exec::{check_leaves, compile, PlanResult, PlanTask, Stage};
use crate::ir::{PlanError, PlanNode};
use crate::rewrite::{resolve, PlannerEnv};
use sqo_core::SimilarityEngine;
use sqo_overlay::peer::PeerId;

/// A query session: one engine, one initiating peer (the client's access
/// point), and the prepare → explain → run lifecycle.
pub struct Session<'e> {
    engine: &'e mut SimilarityEngine,
    from: PeerId,
}

impl<'e> Session<'e> {
    /// Open a session initiating queries from peer `from`.
    pub fn new(engine: &'e mut SimilarityEngine, from: PeerId) -> Self {
        Self { engine, from }
    }

    /// The session's access-point peer.
    pub fn peer(&self) -> PeerId {
        self.from
    }

    /// The engine the session runs against.
    pub fn engine(&mut self) -> &mut SimilarityEngine {
        self.engine
    }

    /// Plan a query: inherit the engine's [`sqo_core::QueryDefaults`], run
    /// the rewrite passes — including the cost-based pass, fed by the
    /// engine's zero-message cardinality estimates — and validate. The
    /// result is immutable and reusable — prepare once, run many times
    /// (also from other sessions on the same engine configuration).
    pub fn prepare(&self, q: &Query) -> Result<PreparedQuery, PlanError> {
        let env = PlannerEnv::of(self.engine);
        let cost = CostModel::new(self.engine, self.from);
        PreparedQuery::with_cost(q, &env, Some(&cost), self.from)
    }

    /// Convenience: prepare and run in one call.
    pub fn run(&mut self, q: &Query) -> Result<PlanResult, PlanError> {
        let prepared = self.prepare(q)?;
        Ok(self.run_prepared(&prepared))
    }

    /// Drive a prepared plan to completion on the engine's current virtual
    /// clock (the synchronous path; use [`PreparedQuery::task`] to schedule
    /// it on an event queue instead).
    pub fn run_prepared(&mut self, prepared: &PreparedQuery) -> PlanResult {
        let mut task = prepared.task();
        let stats = self.engine.run_task(&mut task);
        PlanResult { rows: task.take_rows(), stats }
    }

    /// Shorthand for `prepare(q)?.explain()`.
    pub fn explain(&self, q: &Query) -> Result<String, PlanError> {
        Ok(self.prepare(q)?.explain())
    }

    /// Prepare **and execute** the query, then render the [`explain`]
    /// tree annotated with the observed per-node execution profile: rows
    /// out, virtual time, messages/bytes, probes, cache hits, queue vs
    /// service time, and the adaptive join window's AIMD trajectory.
    ///
    /// The query really runs (once), so charges land on the engine like
    /// any other execution; with a trace sink installed the run also emits
    /// per-stage spans. Use [`Self::explain_analyze_prepared`] to keep the
    /// rows as well.
    ///
    /// [`explain`]: Self::explain
    pub fn explain_analyze(&mut self, q: &Query) -> Result<String, PlanError> {
        let prepared = self.prepare(q)?;
        Ok(self.explain_analyze_prepared(&prepared).1)
    }

    /// Execute a prepared plan and return both the result and the
    /// annotated rendering (see [`Self::explain_analyze`]).
    pub fn explain_analyze_prepared(&mut self, prepared: &PreparedQuery) -> (PlanResult, String) {
        let mut task = prepared.task();
        let stats = self.engine.run_task(&mut task);
        let rendered = crate::explain::render_analyze(
            &prepared.root,
            &prepared.env,
            &prepared.notes,
            task.observations(),
            &stats,
        );
        (PlanResult { rows: task.take_rows(), stats }, rendered)
    }
}

/// A resolved, validated plan: every inherited option filled in, rewrites
/// applied, ready to explain or execute any number of times.
pub struct PreparedQuery {
    root: PlanNode,
    env: PlannerEnv,
    notes: Vec<String>,
    from: PeerId,
}

impl PreparedQuery {
    /// Plan against an explicit [`PlannerEnv`] (no engine needed — used by
    /// drivers that snapshot the env once, and by planning tests). Without
    /// an engine there is no cardinality source, so the cost-based pass is
    /// skipped — use [`PreparedQuery::with_cost`] for costed planning.
    pub fn with_env(q: &Query, env: &PlannerEnv, from: PeerId) -> Result<PreparedQuery, PlanError> {
        Self::with_cost(q, env, None, from)
    }

    /// Plan with an optional [`CostModel`] feeding the cost-based rewrite
    /// pass (estimates and decisions are recorded in the notes).
    pub fn with_cost(
        q: &Query,
        env: &PlannerEnv,
        cost: Option<&CostModel<'_>>,
        from: PeerId,
    ) -> Result<PreparedQuery, PlanError> {
        let mut notes = Vec::new();
        let root = resolve(q.plan().clone(), env, cost, &mut notes)?;
        check_leaves(&root, from)?;
        Ok(PreparedQuery { root, env: env.clone(), notes, from })
    }

    /// The resolved plan tree.
    pub fn plan(&self) -> &PlanNode {
        &self.root
    }

    /// The planner's rewrite notes (pushdowns, fusions, broker-aware
    /// choices).
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The initiating peer the plan will run from.
    pub fn peer(&self) -> PeerId {
        self.from
    }

    /// Deterministic, human-readable plan rendering (tree + notes).
    pub fn explain(&self) -> String {
        crate::explain::render(&self.root, &self.env, &self.notes)
    }

    /// Compile a fresh schedulable task for this plan. Each call yields an
    /// independent execution (tasks are single-use).
    pub fn task(&self) -> PlanTask {
        let mut stages: Vec<Stage> = Vec::new();
        compile(&self.root, &mut stages);
        PlanTask::new(stages, self.from)
    }
}
