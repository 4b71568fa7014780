//! Property tests for the vertical storage scheme: key-family discipline,
//! posting inventories, and object reassembly.

use proptest::prelude::*;
use sqo_overlay::hash::{hash_f64, hash_i64, hash_str};
use sqo_overlay::Key;
use sqo_storage::keys;
use sqo_storage::posting::{BaseKind, Object, Posting};
use sqo_storage::publish::{postings_for_rows, postings_for_triple, PublishConfig};
use sqo_storage::triple::{Row, Triple, Value};
use sqo_strsim::qgram::qgram_count;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[a-z ]{0,12}".prop_map(Value::from),
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9).prop_map(Value::Float),
    ]
}

/// The key families as chains of `Key::concat` over one fragment `Key` per
/// component — how they were built before a key became one buffer.
mod chained {
    use super::*;

    pub fn tag(family: u8) -> Key {
        Key::from_bytes(&[family])
    }

    pub fn value(v: &Value) -> Key {
        match v {
            Value::Int(i) => Key::from_bytes(&[0x01]).concat(&hash_i64(*i)),
            Value::Float(f) => Key::from_bytes(&[0x02]).concat(&hash_f64(*f)),
            Value::Str(s) => Key::from_bytes(&[0x03]).concat(&hash_str(s)),
        }
    }

    pub fn attr(family: u8, attr: &str) -> Key {
        tag(family).concat(&hash_str(attr).concat(&Key::from_bytes(&[0x00])))
    }
}

proptest! {
    /// Every family's key and prefix is bit for bit (bytes and length) the
    /// `concat` chain of its fragments — for attribute names and strings
    /// past the 32-byte hash cut, cut inside a multi-byte character, and
    /// for the empty gram — and the publication pipeline, which spells an
    /// attribute's prefixes out once per batch, builds the same keys.
    #[test]
    fn every_key_family_equals_its_concat_chain(
        oid in "[a-z:é日]{0,40}",
        attr in "[a-zé√日 ]{0,48}",
        s in "[a-zé日 ]{0,40}",
        gram in "[a-zé]{0,4}",
        i in any::<i64>(),
        f in -1e12f64..1e12,
    ) {
        use chained::{tag, value};
        let same = |built: Key, chain: Key| {
            built.as_bytes() == chain.as_bytes() && built.len() == chain.len()
        };
        prop_assert!(same(keys::oid_key(&oid), tag(0x01).concat(&hash_str(&oid))));
        for v in [Value::Int(i), Value::Float(f), Value::from(s.clone())] {
            prop_assert!(same(keys::value_fragment(&v), value(&v)));
            prop_assert!(same(
                keys::attr_value_key(&attr, &v),
                chained::attr(0x02, &attr).concat(&value(&v)),
            ));
            prop_assert!(same(keys::value_key(&v), tag(0x03).concat(&value(&v))));
        }
        prop_assert!(same(keys::attr_scan_prefix(&attr), chained::attr(0x02, &attr)));
        prop_assert!(same(
            keys::instance_gram_key(&attr, &gram),
            chained::attr(0x04, &attr).concat(&hash_str(&gram)),
        ));
        prop_assert!(same(keys::instance_gram_prefix(&attr), chained::attr(0x04, &attr)));
        prop_assert!(same(keys::schema_gram_key(&gram), tag(0x05).concat(&hash_str(&gram))));
        prop_assert!(same(
            keys::short_value_key(&attr, &s),
            chained::attr(0x06, &attr).concat(&hash_str(&s)),
        ));
        prop_assert!(same(keys::short_value_prefix(&attr), chained::attr(0x06, &attr)));
        prop_assert!(same(keys::short_attr_key(&attr), tag(0x07).concat(&hash_str(&attr))));
        prop_assert!(same(keys::short_attr_prefix(), tag(0x07)));
        prop_assert!(same(keys::attr_value_family_prefix(), tag(0x02)));

        let rows = [
            Row::new(oid.clone(), [(attr.clone(), Value::from(s.clone()))]),
            Row::new(oid.clone(), [(attr.clone(), Value::Int(i)), (attr.clone(), Value::from("é"))]),
        ];
        for (key, posting) in postings_for_rows(&rows, &PublishConfig::default()).0 {
            let chain = match &posting {
                Posting::Base { kind: BaseKind::Oid, .. } => continue,
                Posting::Base { kind: BaseKind::AttrValue, triple } => {
                    chained::attr(0x02, &attr).concat(&value(&triple.value))
                }
                Posting::Base { kind: BaseKind::Value, .. }
                | Posting::SchemaGram { .. }
                | Posting::ShortAttr { .. } => continue,
                Posting::InstanceGram { gram, .. } => {
                    chained::attr(0x04, &attr).concat(&hash_str(gram))
                }
                Posting::ShortValue { triple } => chained::attr(0x06, &attr)
                    .concat(&hash_str(triple.value.as_str().expect("a short string"))),
            };
            prop_assert!(same(key, chain), "{posting:?}");
        }
    }

    /// Every posting's key starts with the tag of the family it belongs to,
    /// and instance postings' keys extend the attribute's scan prefix.
    #[test]
    fn posting_keys_respect_families(
        oid in "[a-z]{1,8}",
        attr in "[a-z]{1,8}",
        value in value_strategy(),
        q in 2usize..5,
    ) {
        let t = Triple::new(oid.clone(), attr.clone(), value);
        let cfg = PublishConfig { q, ..PublishConfig::default() };
        for (key, posting) in postings_for_triple(&t, &cfg) {
            match &posting {
                Posting::Base { kind: BaseKind::Oid, .. } => {
                    prop_assert_eq!(&key, &keys::oid_key(&oid));
                }
                Posting::Base { kind: BaseKind::AttrValue, triple } => {
                    prop_assert!(keys::attr_scan_prefix(&attr).is_prefix_of(&key));
                    prop_assert_eq!(&key, &keys::attr_value_key(&attr, &triple.value));
                }
                Posting::Base { kind: BaseKind::Value, triple } => {
                    prop_assert_eq!(&key, &keys::value_key(&triple.value));
                }
                Posting::InstanceGram { gram, .. } => {
                    prop_assert_eq!(&key, &keys::instance_gram_key(&attr, gram));
                    prop_assert_eq!(gram.chars().count(), q);
                }
                Posting::SchemaGram { gram, .. } => {
                    prop_assert_eq!(&key, &keys::schema_gram_key(gram));
                    prop_assert_eq!(gram.chars().count(), q);
                }
                Posting::ShortValue { triple } => {
                    let s = triple.value.as_str().expect("short postings are strings");
                    prop_assert!(s.chars().count() < q);
                    prop_assert!(keys::short_value_prefix(&attr).is_prefix_of(&key));
                }
                Posting::ShortAttr { .. } => {
                    prop_assert!(attr.chars().count() < q);
                    prop_assert!(keys::short_attr_prefix().is_prefix_of(&key));
                }
            }
        }
    }

    /// Posting counts follow the closed-form inventory: 3 base postings
    /// (2 without the keyword index), one instance gram per value q-gram,
    /// one schema gram per attr-name q-gram, short-family fallbacks
    /// otherwise.
    #[test]
    fn posting_inventory_formula(
        oid in "[a-z]{1,6}",
        attr in "[a-z]{1,9}",
        s in "[a-z]{0,15}",
        q in 2usize..4,
        keyword in any::<bool>(),
    ) {
        let t = Triple::new(oid, attr.clone(), Value::from(s.clone()));
        let cfg = PublishConfig { q, keyword_index: keyword, ..PublishConfig::default() };
        let ps = postings_for_triple(&t, &cfg);
        let base = ps.iter().filter(|(_, p)| matches!(p, Posting::Base { .. })).count();
        prop_assert_eq!(base, if keyword { 3 } else { 2 });
        let igrams = ps.iter().filter(|(_, p)| matches!(p, Posting::InstanceGram { .. })).count();
        let shorts = ps.iter().filter(|(_, p)| matches!(p, Posting::ShortValue { .. })).count();
        let n = s.chars().count();
        if n >= q {
            prop_assert_eq!(igrams, qgram_count(n, q));
            prop_assert_eq!(shorts, 0);
        } else {
            prop_assert_eq!(igrams, 0);
            prop_assert_eq!(shorts, 1);
        }
        let sgrams = ps.iter().filter(|(_, p)| matches!(p, Posting::SchemaGram { .. })).count();
        let na = attr.chars().count();
        prop_assert_eq!(sgrams, qgram_count(na, q));
    }

    /// Object reassembly from oid postings is lossless for a row's fields
    /// (up to deduplication of identical (attr, value) pairs).
    #[test]
    fn object_roundtrip(
        oid in "[a-z]{1,6}",
        fields in prop::collection::vec(("[a-z]{1,6}", value_strategy()), 1..8),
    ) {
        let row = Row::new(oid.clone(), fields.clone());
        let cfg = PublishConfig::default();
        let (all, _) = postings_for_rows(&[row], &cfg);
        let oid_postings: Vec<Posting> = all
            .into_iter()
            .filter(|(k, _)| keys::oid_key(&oid).is_prefix_of(k))
            .map(|(_, p)| p)
            .collect();
        let obj = Object::from_postings(&oid, &oid_postings);
        for (attr, value) in &fields {
            prop_assert!(
                obj.fields.iter().any(|(a, v)| a.as_str() == attr && v == value),
                "field ({attr}, {value:?}) lost in reassembly"
            );
        }
        // No foreign fields appear.
        for (a, v) in &obj.fields {
            prop_assert!(fields.iter().any(|(fa, fv)| fa == a.as_str() && fv == v));
        }
    }

    /// Range keys bracket exactly the keys of in-range values.
    #[test]
    fn range_keys_bracket_values(
        attr in "[a-z]{1,6}",
        mut bounds in prop::collection::vec(any::<i64>(), 2),
        probe in any::<i64>(),
    ) {
        bounds.sort_unstable();
        let (lo, hi) = (bounds[0], bounds[1]);
        let (klo, khi) = keys::attr_value_range(&attr, &Value::Int(lo), &Value::Int(hi));
        let kp = keys::attr_value_key(&attr, &Value::Int(probe));
        let inside = lo <= probe && probe <= hi;
        prop_assert_eq!(inside, klo <= kp && kp <= khi);
    }
}
