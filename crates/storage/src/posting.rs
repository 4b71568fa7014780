//! Index postings — what actually gets stored in the overlay.
//!
//! All postings referencing the same logical triple share one allocation
//! (`TripleRef = Arc<Triple>`); a q-gram posting adds only the gram text
//! (a shared `Arc<str>`) and its position, so cloning any posting is a
//! couple of reference-count bumps and never allocates. Size accounting follows the paper's wire format: an
//! instance-gram posting ships `(oid, A, q)` (Algorithm 2 reads the gram
//! from component 3), a schema-gram posting ships `(oid, q_A, v)` (the gram
//! in component 2, the full value retained).

use crate::triple::{AttrName, Triple, TripleRef, Value};
use sqo_overlay::peer::Item;
use sqo_strsim::filters::char_len;
use std::sync::Arc;

/// Which base index a base posting belongs to (useful for storage-overhead
/// accounting; retrieval tells them apart by key family already).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseKind {
    Oid,
    AttrValue,
    Value,
}

/// One stored index entry.
#[derive(Debug, Clone)]
pub enum Posting {
    /// Full triple under `key(oid)`, `key(A#v)` or `key(v)`.
    Base { kind: BaseKind, triple: TripleRef },
    /// Instance-level gram posting under `key(A # gram)`: conceptually
    /// `(oid, A, gram)` plus the positional-filter payload. With
    /// `carries_value` the posting additionally ships the complete value
    /// (§4's "storing complete strings together with q-grams" suggestion:
    /// bigger postings, but candidates can be verified before any object
    /// fetch).
    InstanceGram { triple: TripleRef, gram: Arc<str>, pos: u32, carries_value: bool },
    /// Schema-level gram posting under `key(gram)`: conceptually
    /// `(oid, gram_of_A, v)` plus the position of the gram in the name.
    SchemaGram { triple: TripleRef, gram: Arc<str>, pos: u32 },
    /// String value shorter than q, under the short-value family.
    ShortValue { triple: TripleRef },
    /// Attribute name shorter than q, under the short-attr family.
    ShortAttr { triple: TripleRef },
}

impl Posting {
    /// The underlying triple.
    pub fn triple(&self) -> &TripleRef {
        match self {
            Posting::Base { triple, .. }
            | Posting::InstanceGram { triple, .. }
            | Posting::SchemaGram { triple, .. }
            | Posting::ShortValue { triple }
            | Posting::ShortAttr { triple } => triple,
        }
    }

    /// Object id of the underlying triple.
    pub fn oid(&self) -> &str {
        &self.triple().oid
    }

    /// Length in characters of the string this posting's gram was drawn
    /// from (the `l(q')` of Algorithm 2's length filter): the value for
    /// instance grams, the attribute name for schema grams.
    pub fn source_len(&self) -> Option<usize> {
        match self {
            Posting::InstanceGram { triple, .. } => triple.value.as_str().map(char_len),
            Posting::SchemaGram { triple, .. } => Some(char_len(triple.attr.as_str())),
            _ => None,
        }
    }

    /// Convenience: the base triple if this is a base posting.
    pub fn as_base(&self) -> Option<&Triple> {
        match self {
            Posting::Base { triple, .. } => Some(triple),
            _ => None,
        }
    }
}

impl Item for Posting {
    fn size_bytes(&self) -> usize {
        match self {
            Posting::Base { triple, .. } => triple.repr_len(),
            // (oid, A, q) + pos [+ the full value when carried]
            Posting::InstanceGram { triple, gram, carries_value, .. } => {
                triple.oid.len()
                    + triple.attr.as_str().len()
                    + gram.len()
                    + 4
                    + 12
                    + if *carries_value { triple.value.repr_len() } else { 0 }
            }
            // (oid, q_A, v) + pos
            Posting::SchemaGram { triple, gram, .. } => {
                triple.oid.len() + gram.len() + triple.value.repr_len() + 4 + 12
            }
            Posting::ShortValue { triple } | Posting::ShortAttr { triple } => triple.repr_len(),
        }
    }
}

/// Equality on the logical content (used by tests; `Arc` pointers differ).
impl PartialEq for Posting {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Posting::Base { kind: k1, triple: t1 }, Posting::Base { kind: k2, triple: t2 }) => {
                k1 == k2 && t1 == t2
            }
            (
                Posting::InstanceGram { triple: t1, gram: g1, pos: p1, .. },
                Posting::InstanceGram { triple: t2, gram: g2, pos: p2, .. },
            )
            | (
                Posting::SchemaGram { triple: t1, gram: g1, pos: p1 },
                Posting::SchemaGram { triple: t2, gram: g2, pos: p2 },
            ) => t1 == t2 && g1 == g2 && p1 == p2,
            (Posting::ShortValue { triple: t1 }, Posting::ShortValue { triple: t2 })
            | (Posting::ShortAttr { triple: t1 }, Posting::ShortAttr { triple: t2 }) => t1 == t2,
            _ => false,
        }
    }
}

/// A reassembled horizontal tuple: an oid with all its attribute values,
/// rebuilt from the base triples stored under `key(oid)` (the "build
/// complete object o from T′" step of Algorithm 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    pub oid: String,
    pub fields: Vec<(AttrName, Value)>,
}

impl Object {
    /// Assemble from oid-index postings — borrowed, so callers hand over
    /// a stored run as-is instead of a flattened copy. Postings for other
    /// oids are ignored; duplicate (attr, value) pairs (replica returns)
    /// collapse.
    pub fn from_postings<'a>(oid: &str, postings: impl IntoIterator<Item = &'a Posting>) -> Object {
        let mut fields: Vec<(AttrName, Value)> = Vec::new();
        for p in postings {
            if let Posting::Base { triple, .. } = p {
                if triple.oid == oid
                    && !fields.iter().any(|(a, v)| *a == triple.attr && *v == triple.value)
                {
                    fields.push((triple.attr.clone(), triple.value.clone()));
                }
            }
        }
        fields.sort_by(|(a, _), (b, _)| a.cmp(b));
        Object { oid: oid.to_string(), fields }
    }

    /// First value of attribute `attr`.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.fields.iter().find(|(a, _)| a.as_str() == attr).map(|(_, v)| v)
    }

    /// Serialized size estimate.
    pub fn repr_len(&self) -> usize {
        self.oid.len()
            + self.fields.iter().map(|(a, v)| a.as_str().len() + v.repr_len() + 8).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;
    use std::sync::Arc;

    fn t(oid: &str, attr: &str, v: impl Into<Value>) -> TripleRef {
        Arc::new(Triple::new(oid, attr, v))
    }

    #[test]
    fn posting_sizes_reflect_payload() {
        let tr = t("car:1", "name", "BMW 320d");
        let base = Posting::Base { kind: BaseKind::Oid, triple: tr.clone() };
        assert_eq!(base.size_bytes(), tr.repr_len());
        let gram = Posting::InstanceGram {
            triple: tr.clone(),
            gram: "320".into(),
            pos: 4,
            carries_value: false,
        };
        // oid(5) + attr(4) + gram(3) + 4 + 12
        assert_eq!(gram.size_bytes(), 5 + 4 + 3 + 4 + 12);
        let carrying = Posting::InstanceGram {
            triple: tr.clone(),
            gram: "320".into(),
            pos: 4,
            carries_value: true,
        };
        // + the full value ("BMW 320d" = 8 bytes)
        assert_eq!(carrying.size_bytes(), gram.size_bytes() + 8);
        let sg = Posting::SchemaGram { triple: tr.clone(), gram: "nam".into(), pos: 0 };
        // oid(5) + gram(3) + value(8) + 4 + 12
        assert_eq!(sg.size_bytes(), 5 + 3 + 8 + 4 + 12);
    }

    #[test]
    fn source_len_is_value_for_instance_and_name_for_schema() {
        let tr = t("o", "name", "abcdef");
        let ig = Posting::InstanceGram {
            triple: tr.clone(),
            gram: "abc".into(),
            pos: 0,
            carries_value: false,
        };
        assert_eq!(ig.source_len(), Some(6));
        let sg = Posting::SchemaGram { triple: tr.clone(), gram: "nam".into(), pos: 0 };
        assert_eq!(sg.source_len(), Some(4));
        let b = Posting::Base { kind: BaseKind::Oid, triple: tr };
        assert_eq!(b.source_len(), None);
    }

    #[test]
    fn object_assembly_dedups_and_filters() {
        let ps = vec![
            Posting::Base { kind: BaseKind::Oid, triple: t("car:1", "name", "BMW") },
            Posting::Base { kind: BaseKind::Oid, triple: t("car:1", "hp", 190) },
            Posting::Base { kind: BaseKind::Oid, triple: t("car:1", "name", "BMW") }, // replica dup
            Posting::Base { kind: BaseKind::Oid, triple: t("car:2", "name", "Audi") }, // other oid
        ];
        let o = Object::from_postings("car:1", &ps);
        assert_eq!(o.fields.len(), 2);
        assert_eq!(o.get("name"), Some(&Value::from("BMW")));
        assert_eq!(o.get("hp"), Some(&Value::from(190)));
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn multivalued_attributes_survive_assembly() {
        // The vertical scheme allows several triples with the same attribute.
        let ps = vec![
            Posting::Base { kind: BaseKind::Oid, triple: t("o", "tag", "red") },
            Posting::Base { kind: BaseKind::Oid, triple: t("o", "tag", "fast") },
        ];
        let o = Object::from_postings("o", &ps);
        assert_eq!(o.fields.len(), 2);
    }
}
