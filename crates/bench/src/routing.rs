//! E5: the §2 routing-cost claim.
//!
//! *"the expected search cost remains logarithmic (0.5 logN), independently
//! of how the P-Grid is structured."* This experiment measures average
//! routing hops per lookup across network sizes and reports the ratio to
//! log₂(partitions).

use sqo_core::EngineBuilder;
use sqo_datasets::{bible_words, string_rows};
use sqo_storage::keys;

/// One row of the routing-cost table.
#[derive(Debug, Clone)]
pub struct RoutingPoint {
    pub peers: usize,
    pub partitions: usize,
    pub lookups: usize,
    pub avg_hops: f64,
    /// `avg_hops / log2(partitions)` — the paper predicts ≈ 0.5.
    pub hops_over_log: f64,
}

/// Measure average lookup hops for each network size.
pub fn run_routing_cost(
    peer_counts: &[usize],
    dataset_size: usize,
    lookups: usize,
    seed: u64,
) -> Vec<RoutingPoint> {
    let words = bible_words(dataset_size, seed);
    let rows = string_rows("word", &words, "w");
    peer_counts
        .iter()
        .map(|&peers| {
            let mut engine = EngineBuilder::new().peers(peers).seed(seed).build_with_rows(&rows);
            engine.network_mut().reset_metrics();
            for i in 0..lookups {
                let from = engine.random_peer();
                let key = keys::oid_key(&format!("w:{}", (i * 7919) % dataset_size));
                let _ = engine.network_mut().route(from, &key);
            }
            let m = engine.network().metrics();
            let partitions = engine.network().partition_count();
            let avg_hops = m.route_hops as f64 / lookups as f64;
            let log_p = (partitions.max(2) as f64).log2();
            RoutingPoint { peers, partitions, lookups, avg_hops, hops_over_log: avg_hops / log_p }
        })
        .collect()
}

/// Render as an aligned table.
pub fn render(points: &[RoutingPoint]) -> String {
    let mut s = String::from(
        "== E5: routing cost (paper §2: expected 0.5·log2 N) ==\n     peers partitions   avg hops  hops/log2(P)\n",
    );
    for p in points {
        s.push_str(&format!(
            "{:>10} {:>10} {:>10.2} {:>13.3}\n",
            p.peers, p.partitions, p.avg_hops, p.hops_over_log
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_stay_logarithmic() {
        let points = run_routing_cost(&[64, 512, 4096], 2_000, 150, 7);
        for p in &points {
            assert!(
                p.hops_over_log < 1.05,
                "routing cost {:.3}·log2(P) at {} peers exceeds logarithmic budget",
                p.hops_over_log,
                p.peers
            );
        }
        // Hops grow with network size, but only logarithmically: the
        // hops/log2(P) constant stays in a narrow band around the paper's
        // 0.5 across a 64x size increase.
        assert!(points[2].avg_hops > points[0].avg_hops);
        for p in &points {
            assert!(
                p.hops_over_log > 0.2,
                "implausibly cheap routing at {} peers: {:.3}·log2(P)",
                p.peers,
                p.hops_over_log
            );
        }
    }
}
