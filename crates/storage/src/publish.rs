//! Publication pipeline: rows → triples → keyed index postings.
//!
//! §4: *"instead of inserting `key(Ai#vi) → (oid, Ai, vi)` one time, we
//! insert `key(Ai#q_ij) → (oid, Ai, q_ij)` for each q-gram of `vi`, and
//! `key(q_Aj) → (oid, q_Aj, vi)` for each q-gram of `Ai`. This increases
//! the storage overhead but enables efficient querying on q-grams."*
//!
//! The paper's §8 conclusion asserts the overhead is "negligible on modern
//! computers" and "linear in the number of attribute columns" — the
//! `storage_overhead` bench regenerates that accounting from
//! [`PublishStats`].

use crate::keys::{self, AttrPrefixes};
use crate::posting::{BaseKind, Posting};
use crate::triple::{AttrName, Row, SharedStrs, Triple, TripleRef, Value};
use sqo_overlay::key::Key;
use sqo_overlay::peer::Item;
use sqo_strsim::qgram::qgram_slices;
use std::collections::HashMap;
use std::sync::Arc;

/// Indexing parameters.
#[derive(Debug, Clone)]
pub struct PublishConfig {
    /// q-gram length (the paper's experiments use small q; default 3).
    pub q: usize,
    /// Maintain the keyword index `key(v)` (family 3). The similarity
    /// operators do not need it; it serves "any attribute = v" queries.
    pub keyword_index: bool,
    /// Maintain instance-level gram postings (family 4 + short-value 6).
    pub instance_grams: bool,
    /// Maintain schema-level gram postings (family 5 + short-attr 7).
    pub schema_grams: bool,
    /// Ship the complete value inside every instance-gram posting (§4's
    /// closing optimization suggestion): larger postings, but `Similar` can
    /// verify candidates before fetching any object.
    pub grams_carry_value: bool,
}

impl Default for PublishConfig {
    fn default() -> Self {
        Self {
            q: 3,
            keyword_index: true,
            instance_grams: true,
            schema_grams: true,
            grams_carry_value: false,
        }
    }
}

/// Storage-overhead accounting for a publication batch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PublishStats {
    pub rows: usize,
    pub triples: usize,
    pub base_postings: usize,
    pub instance_gram_postings: usize,
    pub schema_gram_postings: usize,
    pub short_postings: usize,
    pub total_bytes: u64,
}

impl PublishStats {
    pub fn total_postings(&self) -> usize {
        self.base_postings
            + self.instance_gram_postings
            + self.schema_gram_postings
            + self.short_postings
    }

    /// Blow-up factor relative to storing each triple exactly once.
    pub fn overhead_factor(&self) -> f64 {
        if self.triples == 0 {
            return 0.0;
        }
        self.total_postings() as f64 / self.triples as f64
    }
}

/// All (key, posting) pairs for one triple.
pub fn postings_for_triple(triple: &Triple, cfg: &PublishConfig) -> Vec<(Key, Posting)> {
    let mut out = Vec::new();
    let under = AttrPrefixes::new(triple.attr.as_str());
    push_postings(&mut out, Arc::new(triple.clone()), &under, cfg, &mut SharedStrs::default());
    out
}

/// Append the (key, posting) pairs of `tr` to `out`, drawing gram text from
/// `strs` so equal grams of one batch are one allocation, and the key
/// prefixes of its attribute from `under`.
fn push_postings(
    out: &mut Vec<(Key, Posting)>,
    tr: TripleRef,
    under: &AttrPrefixes,
    cfg: &PublishConfig,
    strs: &mut SharedStrs,
) {
    // The three base insertions of §3.
    out.push((keys::oid_key(&tr.oid), Posting::Base { kind: BaseKind::Oid, triple: tr.clone() }));
    out.push((
        under.attr_value_key(&tr.value),
        Posting::Base { kind: BaseKind::AttrValue, triple: tr.clone() },
    ));
    if cfg.keyword_index {
        out.push((
            keys::value_key(&tr.value),
            Posting::Base { kind: BaseKind::Value, triple: tr.clone() },
        ));
    }

    // Instance-level grams for string values (§4).
    if cfg.instance_grams {
        if let Value::Str(s) = &tr.value {
            let mut grams = qgram_slices(s, cfg.q).peekable();
            if grams.peek().is_none() {
                // |v| < q: the gram index cannot see it; the short-value
                // family keeps similarity search complete.
                out.push((under.short_value_key(s), Posting::ShortValue { triple: tr.clone() }));
            }
            for (gram, pos) in grams {
                out.push((
                    under.instance_gram_key(gram),
                    Posting::InstanceGram {
                        triple: tr.clone(),
                        gram: strs.share(gram),
                        pos,
                        carries_value: cfg.grams_carry_value,
                    },
                ));
            }
        }
    }

    // Schema-level grams of the attribute name (§4).
    if cfg.schema_grams {
        let name = tr.attr.as_str();
        let mut grams = qgram_slices(name, cfg.q).peekable();
        if grams.peek().is_none() {
            out.push((keys::short_attr_key(name), Posting::ShortAttr { triple: tr.clone() }));
        }
        for (gram, pos) in grams {
            out.push((
                keys::schema_gram_key(gram),
                Posting::SchemaGram { triple: tr.clone(), gram: strs.share(gram), pos },
            ));
        }
    }
}

/// Postings for a batch of rows, with accounting. Every triple of an
/// attribute shares one [`AttrName`] allocation and one set of key
/// prefixes, and every posting of a gram one gram string.
pub fn postings_for_rows(rows: &[Row], cfg: &PublishConfig) -> (Vec<(Key, Posting)>, PublishStats) {
    let mut stats = PublishStats { rows: rows.len(), ..Default::default() };
    let mut strs = SharedStrs::default();
    let mut prefixes: HashMap<Arc<str>, AttrPrefixes> = HashMap::new();
    // Typical fan-out: 3 base + ~len grams per string triple.
    let mut out = Vec::with_capacity(rows.len() * 8);
    for row in rows {
        for (attr, value) in &row.fields {
            stats.triples += 1;
            let name = strs.share(attr.as_str());
            let under = prefixes.entry(name.clone()).or_insert_with(|| AttrPrefixes::new(&name));
            let triple =
                Triple { oid: row.oid.clone(), attr: AttrName::new(name), value: value.clone() };
            let first = out.len();
            push_postings(&mut out, Arc::new(triple), under, cfg, &mut strs);
            for (_, posting) in &out[first..] {
                match posting {
                    Posting::Base { .. } => stats.base_postings += 1,
                    Posting::InstanceGram { .. } => stats.instance_gram_postings += 1,
                    Posting::SchemaGram { .. } => stats.schema_gram_postings += 1,
                    Posting::ShortValue { .. } | Posting::ShortAttr { .. } => {
                        stats.short_postings += 1
                    }
                }
                stats.total_bytes += posting.size_bytes() as u64;
            }
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Row;

    fn cfg() -> PublishConfig {
        PublishConfig::default()
    }

    #[test]
    fn string_triple_posting_inventory() {
        let t = Triple::new("car:1", "name", "bmw320");
        let ps = postings_for_triple(&t, &cfg());
        let bases = ps.iter().filter(|(_, p)| matches!(p, Posting::Base { .. })).count();
        let igrams = ps.iter().filter(|(_, p)| matches!(p, Posting::InstanceGram { .. })).count();
        let sgrams = ps.iter().filter(|(_, p)| matches!(p, Posting::SchemaGram { .. })).count();
        assert_eq!(bases, 3, "the three §3 insertions");
        assert_eq!(igrams, "bmw320".len() - 3 + 1, "one per value q-gram");
        assert_eq!(sgrams, "name".len() - 3 + 1, "one per attr-name q-gram");
    }

    #[test]
    fn numeric_triple_has_no_instance_grams() {
        let t = Triple::new("car:1", "horsepower", 190);
        let ps = postings_for_triple(&t, &cfg());
        assert!(ps.iter().all(|(_, p)| !matches!(p, Posting::InstanceGram { .. })));
        assert!(ps.iter().all(|(_, p)| !matches!(p, Posting::ShortValue { .. })));
        // Schema grams still exist: attribute names are strings.
        assert!(ps.iter().any(|(_, p)| matches!(p, Posting::SchemaGram { .. })));
    }

    #[test]
    fn short_value_goes_to_side_family() {
        let t = Triple::new("o", "name", "ab"); // |v| = 2 < q = 3
        let ps = postings_for_triple(&t, &cfg());
        assert!(ps.iter().any(|(_, p)| matches!(p, Posting::ShortValue { .. })));
        assert!(ps.iter().all(|(_, p)| !matches!(p, Posting::InstanceGram { .. })));
    }

    #[test]
    fn short_attr_goes_to_side_family() {
        let t = Triple::new("o", "hp", 10); // |A| = 2 < q = 3
        let ps = postings_for_triple(&t, &cfg());
        assert!(ps.iter().any(|(_, p)| matches!(p, Posting::ShortAttr { .. })));
        assert!(ps.iter().all(|(_, p)| !matches!(p, Posting::SchemaGram { .. })));
    }

    #[test]
    fn disabling_families_removes_their_postings() {
        let t = Triple::new("o", "name", "abcdef");
        let c = PublishConfig {
            keyword_index: false,
            instance_grams: false,
            schema_grams: false,
            ..cfg()
        };
        let ps = postings_for_triple(&t, &c);
        assert_eq!(ps.len(), 2, "only oid + attr-value base postings remain");
    }

    #[test]
    fn batch_stats_add_up() {
        let rows = vec![
            Row::new("car:1", [("name", Value::from("bmw")), ("hp", Value::from(190))]),
            Row::new("car:2", [("name", Value::from("audi a4"))]),
        ];
        let (ps, stats) = postings_for_rows(&rows, &cfg());
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.triples, 3);
        assert_eq!(stats.total_postings(), ps.len());
        assert!(stats.overhead_factor() > 3.0, "grams must add overhead");
        assert_eq!(stats.total_bytes, ps.iter().map(|(_, p)| p.size_bytes() as u64).sum::<u64>());
    }

    #[test]
    fn overhead_is_linear_in_attribute_count() {
        // The §8 claim: postings grow linearly with the number of columns.
        let mk = |n: usize| {
            let fields: Vec<(String, Value)> =
                (0..n).map(|i| (format!("attr{i:02}"), Value::from("valstring"))).collect();
            let rows = vec![Row::new("o", fields)];
            postings_for_rows(&rows, &cfg()).1.total_postings()
        };
        let p2 = mk(2);
        let p4 = mk(4);
        let p8 = mk(8);
        assert_eq!(p4 - p2, (p8 - p4) / 2, "per-column posting count is constant");
    }
}
