//! Lowering parsed VQL onto the shared logical-plan IR (`sqo-plan`).
//!
//! The VQL planner ([`mod@crate::plan`]) picks one [`AccessPath`] per subject
//! variable; this module maps each access path onto the corresponding
//! [`PlanNode`] leaf, so VQL materialization runs through the same planner
//! and physical compiler as the builder API — one IR for every query
//! surface. The executor keeps VQL-specific work (pattern binding,
//! hash-joins, residual filters, ORDER BY) on top of the lowered subject
//! plans.

use crate::plan::AccessPath;
use sqo_plan::{open_range_bounds, PlanNode, SelectSpec, SimilarSpec};

/// Lower one subject's access path to a logical-plan leaf. The gram
/// strategy is left unresolved (`None`); the executor pins it from its
/// [`crate::exec::ExecOptions`] when preparing the plan.
pub fn lower_access_path(path: &AccessPath) -> PlanNode {
    match path {
        AccessPath::ByOid { oid } => PlanNode::Lookup { oid: oid.clone() },
        AccessPath::Exact { attr, value } => {
            PlanNode::Select(SelectSpec::Exact { attr: attr.clone(), value: value.clone() })
        }
        AccessPath::Range { attr, lo, hi } => {
            let (lo, hi) = open_range_bounds(lo.clone(), hi.clone());
            PlanNode::Select(SelectSpec::Range { attr: attr.clone(), lo, hi })
        }
        AccessPath::NumericSimilar { attr, center, eps } => {
            PlanNode::Select(SelectSpec::NumericSimilar {
                attr: attr.clone(),
                center: center.clone(),
                eps: *eps,
            })
        }
        AccessPath::StringSimilar { attr, query, d } => PlanNode::Similar(SimilarSpec {
            s: query.clone(),
            attr: Some(attr.clone()),
            d: *d,
            strategy: None,
        }),
        AccessPath::SchemaSimilar { query, d } => {
            PlanNode::Similar(SimilarSpec { s: query.clone(), attr: None, d: *d, strategy: None })
        }
        AccessPath::FullScan { attr } => PlanNode::Select(SelectSpec::All { attr: attr.clone() }),
    }
}

/// True when the lowered path binds the **matched attribute** (schema
/// level): the executor then restricts the pattern's attribute variable to
/// each row's matched attribute.
pub fn binds_matched_attr(path: &AccessPath) -> bool {
    matches!(path, AccessPath::SchemaSimilar { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_storage::triple::Value;

    #[test]
    fn similarity_paths_lower_to_similar_leaves() {
        let p = AccessPath::StringSimilar { attr: "name".into(), query: "BMW".into(), d: 1 };
        let PlanNode::Similar(s) = lower_access_path(&p) else { panic!("similar leaf") };
        assert_eq!(s.attr.as_deref(), Some("name"));
        assert_eq!((s.s.as_str(), s.d), ("BMW", 1));
        assert!(!binds_matched_attr(&p));
        let p = AccessPath::SchemaSimilar { query: "dlrid".into(), d: 2 };
        assert!(binds_matched_attr(&p));
        let PlanNode::Similar(s) = lower_access_path(&p) else { panic!("similar leaf") };
        assert_eq!(s.attr, None);
    }

    #[test]
    fn oid_and_scan_paths_lower_to_lookup_and_select() {
        assert_eq!(
            lower_access_path(&AccessPath::ByOid { oid: "car:7".into() }),
            PlanNode::Lookup { oid: "car:7".into() }
        );
        assert_eq!(
            lower_access_path(&AccessPath::FullScan { attr: "hp".into() }),
            PlanNode::Select(SelectSpec::All { attr: "hp".into() })
        );
    }

    #[test]
    fn half_open_range_gets_domain_sentinels() {
        let p = AccessPath::Range { attr: "price".into(), lo: None, hi: Some(Value::Int(9)) };
        let PlanNode::Select(SelectSpec::Range { lo, hi, .. }) = lower_access_path(&p) else {
            panic!("range leaf")
        };
        assert_eq!(lo, Value::Int(i64::MIN));
        assert_eq!(hi, Value::Int(9));
    }
}
