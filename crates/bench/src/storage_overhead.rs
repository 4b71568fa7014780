//! E6: the §8 storage-overhead claim.
//!
//! *"our approach incurs an overhead of storing, publishing and maintaining
//! relations as triples … the additional number of messages is linear in
//! the number of attribute columns"* — measured here as postings and bytes
//! per row while the number of attributes grows, split by index family.

use sqo_datasets::words::bible_words;
use sqo_storage::objects::UNNUMBERED;
use sqo_storage::publish::{batch_for_rows, PublishConfig};
use sqo_storage::triple::{Row, Value};

/// One row of the overhead table.
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    pub attributes: usize,
    pub rows: usize,
    pub triples: usize,
    pub base_postings: usize,
    pub instance_gram_postings: usize,
    pub schema_gram_postings: usize,
    pub short_postings: usize,
    pub total_postings: usize,
    pub bytes_per_row: f64,
    pub postings_per_triple: f64,
}

/// Publish `rows_per_point` rows with 1..=`max_attrs` string attributes and
/// account the posting inventory.
pub fn run_storage_overhead(
    max_attrs: usize,
    rows_per_point: usize,
    q: usize,
    seed: u64,
) -> Vec<OverheadPoint> {
    let pool = bible_words(rows_per_point * max_attrs, seed);
    let cfg = PublishConfig { q, ..PublishConfig::default() };
    (1..=max_attrs)
        .map(|n_attrs| {
            let rows: Vec<Row> = (0..rows_per_point)
                .map(|r| {
                    let fields: Vec<(String, Value)> = (0..n_attrs)
                        .map(|a| {
                            (
                                format!("attr{a:02}"),
                                Value::from(pool[(r * n_attrs + a) % pool.len()].clone()),
                            )
                        })
                        .collect();
                    Row::new(format!("row:{r}"), fields)
                })
                .collect();
            let (_, stats) = batch_for_rows(&rows, &cfg, |_| UNNUMBERED);
            OverheadPoint {
                attributes: n_attrs,
                rows: stats.rows,
                triples: stats.triples,
                base_postings: stats.base_postings,
                instance_gram_postings: stats.instance_gram_postings,
                schema_gram_postings: stats.schema_gram_postings,
                short_postings: stats.short_postings,
                total_postings: stats.total_postings(),
                bytes_per_row: stats.total_bytes as f64 / stats.rows as f64,
                postings_per_triple: stats.overhead_factor(),
            }
        })
        .collect()
}

/// One row of the publication-cost table (E6b): overlay messages paid to
/// publish a row, as the attribute count grows.
#[derive(Debug, Clone)]
pub struct PublishCostPoint {
    pub attributes: usize,
    pub peers: usize,
    /// Per-posting routing (the paper's model: exactly linear).
    pub messages_per_row: f64,
    /// With the batched write path (sublinear: postings sharing a
    /// destination partition ride one message).
    pub messages_per_row_batched: f64,
    pub bytes_per_row: f64,
}

/// Measure per-row publication messages on a live network (§8: "the
/// additional number of messages is linear in the number of attribute
/// columns"). Rows are published one by one from random peers.
pub fn run_publish_cost(
    max_attrs: usize,
    rows_per_point: usize,
    peers: usize,
    seed: u64,
) -> Vec<PublishCostPoint> {
    use sqo_core::EngineBuilder;
    use sqo_datasets::string_rows;

    let words = bible_words(3_000, seed);
    let base = string_rows("word", &words, "w");
    (1..=max_attrs)
        .map(|n_attrs| {
            let mut per_mode = [0.0f64; 2];
            let mut bytes_per_row = 0.0;
            for (mode, batched) in [(0usize, false), (1, true)] {
                let mut engine = EngineBuilder::new()
                    .peers(peers)
                    .seed(seed)
                    .delegation(batched)
                    .build_with_rows(&base);
                engine.network_mut().reset_metrics();
                let mut messages = 0u64;
                let mut bytes = 0u64;
                for r in 0..rows_per_point {
                    let fields: Vec<(String, Value)> = (0..n_attrs)
                        .map(|a| {
                            (
                                format!("attr{a:02}"),
                                Value::from(words[(r * n_attrs + a) % words.len()].clone()),
                            )
                        })
                        .collect();
                    let from = engine.random_peer();
                    let stats =
                        engine.publish_rows_traced(&[Row::new(format!("p:{r}"), fields)], from);
                    messages += stats.traffic.messages;
                    bytes += stats.traffic.bytes;
                }
                per_mode[mode] = messages as f64 / rows_per_point as f64;
                bytes_per_row = bytes as f64 / rows_per_point as f64;
            }
            PublishCostPoint {
                attributes: n_attrs,
                peers,
                messages_per_row: per_mode[0],
                messages_per_row_batched: per_mode[1],
                bytes_per_row,
            }
        })
        .collect()
}

/// Render the publication-cost table.
pub fn render_publish(points: &[PublishCostPoint]) -> String {
    let mut s = String::from(
        "\n== E6b: publication messages per row vs attribute count (paper §8: linear) ==\n attrs      peers   msgs/row  msgs/row(batched)  bytes/row\n",
    );
    for p in points {
        s.push_str(&format!(
            "{:>6} {:>10} {:>10.1} {:>18.1} {:>10.0}\n",
            p.attributes, p.peers, p.messages_per_row, p.messages_per_row_batched, p.bytes_per_row
        ));
    }
    s
}

/// Render as an aligned table.
pub fn render(points: &[OverheadPoint]) -> String {
    let mut s = String::from(
        "== E6: storage overhead vs attribute count (paper §8: linear) ==\n attrs  triples     base  igram  sgram  short    total  bytes/row  postings/triple\n",
    );
    for p in points {
        s.push_str(&format!(
            "{:>6} {:>8} {:>8} {:>6} {:>6} {:>6} {:>8} {:>10.1} {:>16.2}\n",
            p.attributes,
            p.triples,
            p.base_postings,
            p.instance_gram_postings,
            p.schema_gram_postings,
            p.short_postings,
            p.total_postings,
            p.bytes_per_row,
            p.postings_per_triple
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_linear_in_attributes() {
        let points = run_storage_overhead(6, 50, 3, 11);
        assert_eq!(points.len(), 6);
        // Postings per triple stay roughly constant (that's linearity in
        // the column count).
        let first = points[0].postings_per_triple;
        let last = points[5].postings_per_triple;
        assert!(
            (first - last).abs() / first < 0.25,
            "postings/triple drifted: {first:.2} → {last:.2}"
        );
        // Totals grow with attribute count.
        assert!(points[5].total_postings > points[0].total_postings * 4);
    }
}

#[cfg(test)]
mod publish_cost_tests {
    use super::*;

    #[test]
    fn publication_messages_grow_linearly() {
        let points = run_publish_cost(6, 8, 256, 3);
        // Per-posting routing (the paper's model) is ~linear in attributes.
        let m1 = points[0].messages_per_row;
        let m6 = points[5].messages_per_row;
        assert!(m6 > m1 * 3.0, "6 attributes should cost ≳ 3x one ({m1:.1} -> {m6:.1})");
        assert!(m6 < m1 * 12.0, "growth should stay near-linear ({m1:.1} -> {m6:.1})");
        // Batching only helps.
        for p in &points {
            assert!(p.messages_per_row_batched <= p.messages_per_row);
        }
    }
}
