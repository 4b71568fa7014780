//! E6: the §8 storage-overhead claim.
//!
//! *"our approach incurs an overhead of storing, publishing and maintaining
//! relations as triples … the additional number of messages is linear in
//! the number of attribute columns"* — measured here as postings and bytes
//! per row while the number of attributes grows, split by index family.

use sqo_core::EngineBuilder;
use sqo_datasets::{bible_words, string_rows};
use sqo_storage::objects::UNNUMBERED;
use sqo_storage::publish::{batch_for_rows, PublishConfig};
use sqo_storage::triple::Row;

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

/// Row `r` of `n` string attributes `attr00…`, its values drawn from `pool`.
fn row(oid: String, n: usize, r: usize, pool: &[String]) -> Row {
    Row::new(oid, (0..n).map(|a| (format!("attr{a:02}"), pool[(r * n + a) % pool.len()].as_str())))
}

/// Publish `rows` rows with 1..=`attrs` string attributes and
/// account the posting inventory.
pub fn run_storage_overhead(attrs: usize, rows: usize, q: usize, seed: u64) -> Vec<OverheadPoint> {
    let pool = bible_words(rows * attrs, seed);
    let cfg = PublishConfig { q, ..PublishConfig::default() };
    (1..=attrs)
        .map(|n| {
            let batch: Vec<Row> = (0..rows).map(|r| row(format!("row:{r}"), n, r, &pool)).collect();
            let (_, stats) = batch_for_rows(&batch, &cfg, |_| UNNUMBERED);
            OverheadPoint {
                attributes: n,
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

sqo_obs::json_record! {
    OverheadPoint {
        attributes, rows, triples, base_postings, instance_gram_postings, schema_gram_postings,
        short_postings, total_postings, bytes_per_row, postings_per_triple,
    };
    PublishCostPoint {
        attributes, peers, messages_per_row, messages_per_row_batched, bytes_per_row,
    };
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
/// columns"): `rows` rows of 1..=`attrs` attributes, published one by one
/// from random peers into one engine per write path.
pub fn run_publish_cost(attrs: usize, rows: usize, seed: u64) -> Vec<PublishCostPoint> {
    let (words, peers) = (bible_words(3_000, seed), 256);
    let base = string_rows("word", &words, "w");
    let mut engines = [false, true]
        .map(|batched| EngineBuilder::new().peers(peers).seed(seed).delegation(batched))
        .map(|b| b.build_with_rows(&base));
    (1..=attrs)
        .map(|n| {
            let [(per_posting, _), (batched, bytes)] = engines.each_mut().map(|engine| {
                let (mut messages, mut bytes) = (0, 0);
                for r in 0..rows {
                    let from = engine.random_peer();
                    let published = [row(format!("p{n}:{r}"), n, r, &words)];
                    let stats = engine.publish_rows_traced(&published, from);
                    messages += stats.traffic.messages;
                    bytes += stats.traffic.bytes;
                }
                let per_row = |n: u64| n as f64 / rows as f64;
                (per_row(messages), per_row(bytes))
            });
            PublishCostPoint {
                attributes: n,
                peers,
                messages_per_row: per_posting,
                messages_per_row_batched: batched,
                bytes_per_row: bytes,
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
        "\n== E6: storage overhead vs attribute count (paper §8: linear) ==\n attrs  triples     base  igram  sgram  short    total  bytes/row  postings/triple\n",
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
    use crate::figure1::committed::{num, rows};

    /// §8 on the committed bytes: postings per triple stay put as the
    /// attribute count grows — the blow-up is linear in the columns — at
    /// the factor the triple + q-gram index costs on word-like data.
    #[test]
    fn overhead_is_linear_in_attributes() {
        let points = rows("storage");
        let factor: Vec<f64> = points.iter().map(|p| num(p, "postings_per_triple")).collect();
        let (first, last) = (factor[0], factor[factor.len() - 1]);
        assert!(
            (first - last).abs() / first < 0.25,
            "postings/triple drifted: {first:.2} → {last:.2}"
        );
        assert!((11.0..12.0).contains(&first), "{first:.2} postings per triple");
        let total = |p: &sqo_obs::Json| num(p, "total_postings");
        assert!(total(&points[points.len() - 1]) > 4.0 * total(&points[0]));
        for p in &points {
            assert_eq!(num(p, "triples"), num(p, "rows") * num(p, "attributes"));
        }
    }
}

#[cfg(test)]
mod publish_cost_tests {
    use crate::figure1::committed::{fit, num, rows};

    /// Per-posting routing (the paper's model) costs messages per row
    /// about linearly in the attribute count, and batching only helps.
    #[test]
    fn publication_messages_grow_linearly() {
        let points = rows("publish");
        let per_row: Vec<(f64, f64)> =
            points.iter().map(|p| (num(p, "attributes"), num(p, "messages_per_row"))).collect();
        let (m1, m6) = (per_row[0].1, per_row[5].1);
        assert!(m6 > m1 * 3.0, "6 attributes should cost ≳ 3x one ({m1:.1} -> {m6:.1})");
        assert!(m6 < m1 * 12.0, "growth should stay near-linear ({m1:.1} -> {m6:.1})");
        let (slope, _, worst) = fit(&per_row);
        assert!(slope > 0.0 && worst < 0.15 * m6, "a residual of {worst:.1} on {m6:.1} messages");
        for p in &points {
            assert!(num(p, "messages_per_row_batched") <= num(p, "messages_per_row"));
        }
    }
}
