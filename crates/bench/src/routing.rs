//! E5: the §2 routing-cost claim.
//!
//! *"the expected search cost remains logarithmic (0.5 logN), independently
//! of how the P-Grid is structured."* Average routing hops per object
//! lookup, measured on the words engines of the Figure 1 sweep, one row
//! per network size.

use sqo_core::SimilarityEngine;
use sqo_storage::keys;

/// One row of the routing-cost table.
#[derive(Debug, Clone)]
pub struct RoutingPoint {
    pub peers: usize,
    pub partitions: usize,
    pub lookups: usize,
    pub route_hops: u64,
    pub hops_per_lookup: f64,
}

sqo_obs::json_record! { RoutingPoint { peers, partitions, lookups, route_hops, hops_per_lookup }; }

/// Route `lookups` object keys (`s:<i>`, of `objects` objects) from
/// random peers of `e` and count the hops.
pub fn measure_routing(e: &mut SimilarityEngine, lookups: usize, objects: usize) -> RoutingPoint {
    let before = e.network().metrics().route_hops;
    for i in 0..lookups {
        let from = e.random_peer();
        let key = keys::oid_key(&format!("s:{}", (i * 7919) % objects));
        let _ = e.network_mut().route(from, &key);
    }
    let route_hops = e.network().metrics().route_hops - before;
    RoutingPoint {
        peers: e.network().peer_count(),
        partitions: e.network().partition_count(),
        lookups,
        route_hops,
        hops_per_lookup: route_hops as f64 / lookups.max(1) as f64,
    }
}

/// Render as an aligned table.
pub fn render(points: &[RoutingPoint]) -> String {
    let mut s = String::from(
        "\n== E5: routing cost (paper §2: expected 0.5·log2 N) ==\n     peers partitions   \
         avg hops  hops/log2(P)\n",
    );
    for p in points {
        let log_p = (p.partitions.max(2) as f64).log2();
        s.push_str(&format!(
            "{:>10} {:>10} {:>10.2} {:>13.3}\n",
            p.peers,
            p.partitions,
            p.hops_per_lookup,
            p.hops_per_lookup / log_p
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use crate::figure1::committed::{fit, num, rows};

    /// §2 on the committed bytes: hops grow as `a + b·log2 P` — a
    /// least-squares fit over the peer counts with residuals under a third
    /// of a hop, far closer than `a + b·P` — and per log2 P they approach
    /// the paper's 0.5 at the largest network.
    #[test]
    fn hops_stay_logarithmic() {
        let points = rows("routing");
        assert!(points.len() >= 3, "a fit needs three network sizes");
        let at = |x: fn(f64) -> f64| -> Vec<(f64, f64)> {
            points.iter().map(|p| (x(num(p, "partitions")), num(p, "hops_per_lookup"))).collect()
        };
        let (slope, intercept, worst) = fit(&at(f64::log2));
        assert!((0.4..0.9).contains(&slope), "hops grow {slope:.3}·log2(P) + {intercept:.2}");
        assert!(worst < 0.3, "a residual of {worst:.2} hops is not logarithmic growth");
        assert!(worst * 2.0 < fit(&at(|p| p)).2, "hops fit a + b·P as well as a + b·log2 P");
        let (log_p, hops) = at(f64::log2).pop().expect("a largest network");
        assert!((0.4..0.55).contains(&(hops / log_p)), "{hops:.2} hops at log2(P) = {log_p:.1}");
    }
}
