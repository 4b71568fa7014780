//! `explain()`: a deterministic, human-readable rendering of a resolved
//! plan tree — the operator pipeline top-down, one node per line, with the
//! resolved parameters and the access-path/service annotations, followed
//! by the planner's rewrite notes.

use crate::exec::NodeObs;
use crate::ir::{PlanNode, RowPredicate, SelectSpec};
use crate::rewrite::PlannerEnv;
use sqo_core::{MultiStrategy, QueryStats, Strategy};

fn strategy_label(s: Option<Strategy>) -> &'static str {
    match s {
        Some(st) => st.label(),
        None => "?",
    }
}

fn node_line(node: &PlanNode, env: &PlannerEnv) -> String {
    let cached = |s: &str| {
        if env.cache_active {
            format!("{s}, cached single-key retrieve")
        } else {
            s.to_string()
        }
    };
    match node {
        PlanNode::Lookup { oid } => format!("Lookup oid={oid} [direct routed fetch]"),
        PlanNode::Select(SelectSpec::Exact { attr, value }) => {
            format!("SelectExact attr={attr} value={value} [{}]", cached("exact index key"))
        }
        PlanNode::Select(SelectSpec::Range { attr, lo, hi }) => {
            format!("SelectRange attr={attr} lo={lo} hi={hi} [order-preserving shower scan]")
        }
        PlanNode::Select(SelectSpec::NumericSimilar { attr, center, eps }) => {
            format!("SelectNumericSimilar attr={attr} center={center} eps={eps} [range query]")
        }
        PlanNode::Select(SelectSpec::Keyword { value }) => {
            format!("SelectKeyword value={value} [{}]", cached("value index key"))
        }
        PlanNode::Select(SelectSpec::All { attr }) => {
            format!("SelectAll attr={attr} [full attribute scan]")
        }
        PlanNode::Similar(s) => {
            let level = if s.attr.is_some() { "instance" } else { "schema" };
            let attr = s.attr.as_deref().unwrap_or("<schema>");
            let probes = if env.delegation {
                if env.cache_active {
                    "brokered gram probes"
                } else {
                    "delegated gram probes"
                }
            } else {
                "per-key gram probes"
            };
            format!(
                "Similar s={:?} attr={attr} d={} strategy={} [{level} level, {probes}]",
                s.s,
                s.d,
                strategy_label(s.strategy)
            )
        }
        PlanNode::TopNNumeric(s) => {
            format!(
                "TopNNumeric attr={} n={} rank={} [density-estimated range enlargement]",
                s.attr, s.n, s.rank
            )
        }
        PlanNode::TopNString(s) => {
            format!(
                "TopNString target={:?} attr={} n={} d_max={} strategy={} [expanding distance \
                 shells]",
                s.target,
                s.attr.as_deref().unwrap_or("<schema>"),
                s.n,
                s.d_max,
                strategy_label(s.strategy)
            )
        }
        PlanNode::Multi(s) => {
            let preds: Vec<String> = s
                .preds
                .iter()
                .map(|p| format!("dist({}, {:?}) <= {}", p.attr, p.query, p.d))
                .collect();
            let how = match s.multi {
                Some(MultiStrategy::Intersect) => "intersect sub-queries",
                Some(MultiStrategy::Pipelined) => "pipelined: lead sub-query + local residual",
                None => "?",
            };
            format!(
                "Multi preds=[{}] strategy={} [{how}]",
                preds.join(" AND "),
                strategy_label(s.strategy)
            )
        }
        PlanNode::SimJoin { input, spec } => {
            let left = if input.is_some() {
                "left from input rows".to_string()
            } else if spec.swapped {
                format!("build side swapped: scanning attr={}, pairs transposed back", spec.ln)
            } else {
                format!("left scanned from attr={}", spec.ln)
            };
            let limit = match spec.left_limit {
                Some(Some(l)) => l.to_string(),
                _ => "∞".to_string(),
            };
            format!(
                "SimJoin ln={} rn={} d={} window={} left_limit={limit} strategy={} [{left}, \
                 per-left Similar]",
                spec.ln,
                spec.rn.as_deref().unwrap_or("<schema>"),
                spec.d,
                spec.window.map(|w| w.to_string()).unwrap_or_else(|| "?".into()),
                strategy_label(spec.strategy)
            )
        }
        PlanNode::TopN { spec, .. } => {
            format!("TopN n={} by={} [local rank + truncate]", spec.n, spec.by.label())
        }
        PlanNode::Filter { pred, .. } => match pred {
            RowPredicate::ValueCmp { attr, op, value } => {
                format!("Filter {attr} {} {value} [local residual]", op.symbol())
            }
            RowPredicate::ScoreLe(b) => format!("Filter score <= {b} [local residual]"),
        },
        PlanNode::Limit { n, .. } => format!("Limit n={n}"),
    }
}

/// Render the tree top-down with box-drawing connectors, then the planner
/// notes. Stable for a given (resolved plan, planner env) pair — the
/// golden snapshot tests pin representative outputs.
pub(crate) fn render(root: &PlanNode, env: &PlannerEnv, notes: &[String]) -> String {
    let mut out = String::new();
    let mut node = Some(root);
    let mut depth = 0usize;
    while let Some(n) = node {
        if depth == 0 {
            out.push_str(&node_line(n, env));
        } else {
            out.push_str(&format!(
                "\n{}└─ {}",
                "   ".repeat(depth.saturating_sub(1)),
                node_line(n, env)
            ));
        }
        node = n.input();
        depth += 1;
    }
    if !notes.is_empty() {
        out.push_str("\n--");
        for note in notes {
            out.push_str(&format!("\nnote: {note}"));
        }
    }
    out
}

/// One observed-execution annotation line (under its node in
/// `explain_analyze` output), read off the stage's own [`QueryStats`].
/// Always shows rows/time/traffic/probes; optional counters appear only
/// when nonzero, the adaptive-window trajectory only when the stage had one.
fn obs_line(o: &NodeObs) -> String {
    let st = &o.stats;
    let mut s = format!(
        "~ rows={} time={}us msgs={} bytes={} probes={}",
        o.rows_out, o.elapsed_us, st.traffic.messages, st.traffic.bytes, st.probes
    );
    if st.cache_hits + st.cache_misses > 0 {
        s.push_str(&format!(" cache_hits={}/{}", st.cache_hits, st.cache_hits + st.cache_misses));
    }
    if st.probes_coalesced > 0 {
        s.push_str(&format!(" coalesced={}", st.probes_coalesced));
    }
    if st.edit_comparisons > 0 {
        s.push_str(&format!(" cmp={}", st.edit_comparisons));
    }
    if st.rounds > 0 {
        s.push_str(&format!(" rounds={}", st.rounds));
    }
    let b = st.sim.unwrap_or_default();
    if b.queue_us + b.service_us > 0 {
        s.push_str(&format!(" queue={}us service={}us", b.queue_us, b.service_us));
    }
    if b.crit_net_us + b.crit_queue_us + b.crit_service_us + b.crit_stall_us > 0 {
        s.push_str(&format!(
            " blame[link={}us queue={}us service={}us stall={}us]",
            b.crit_net_us, b.crit_queue_us, b.crit_service_us, b.crit_stall_us
        ));
    }
    if let Some(w) = &o.window_trace {
        let path: Vec<String> = w.iter().map(|x| x.to_string()).collect();
        s.push_str(&format!(" window={}", path.join("->")));
    }
    // Degradation annotations: silent on a healthy run, so fault-free
    // explain output is unchanged.
    if st.retries > 0 {
        s.push_str(&format!(" retries={}", st.retries));
    }
    if st.gave_up > 0 {
        s.push_str(&format!(" gave_up={}", st.gave_up));
    }
    if st.partitions_answered < st.partitions_addressed {
        s.push_str(&format!(" partial={}/{}", st.partitions_answered, st.partitions_addressed));
    }
    s
}

/// `explain_analyze` rendering: the [`render`] tree with an observation
/// line under every node, then an observed-total line, then the planner
/// notes. Node at render depth `d` (root = 0) maps to
/// `obs[obs.len() - 1 - d]` — compilation is input-first, rendering is
/// top-down.
pub(crate) fn render_analyze(
    root: &PlanNode,
    env: &PlannerEnv,
    notes: &[String],
    obs: &[NodeObs],
    total: &QueryStats,
) -> String {
    let mut out = String::new();
    let mut node = Some(root);
    let mut depth = 0usize;
    while let Some(n) = node {
        if depth == 0 {
            out.push_str(&node_line(n, env));
        } else {
            out.push_str(&format!(
                "\n{}└─ {}",
                "   ".repeat(depth.saturating_sub(1)),
                node_line(n, env)
            ));
        }
        if let Some(o) = obs.len().checked_sub(1 + depth).and_then(|i| obs.get(i)) {
            out.push_str(&format!("\n{}{}", "   ".repeat(depth), obs_line(o)));
        }
        node = n.input();
        depth += 1;
    }
    out.push_str(&format!(
        "\n-- observed: rows={} msgs={} bytes={} probes={} time={}us",
        total.matches,
        total.traffic.messages,
        total.traffic.bytes,
        total.probes,
        total.sim.map(|s| s.elapsed_us).unwrap_or(0)
    ));
    if !notes.is_empty() {
        out.push_str("\n--");
        for note in notes {
            out.push_str(&format!("\nnote: {note}"));
        }
    }
    out
}
