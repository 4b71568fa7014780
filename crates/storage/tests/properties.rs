//! Property tests for the vertical storage scheme: key-family discipline,
//! posting inventories, and object reassembly.

use proptest::prelude::*;
use sqo_overlay::hash::{hash_f64, hash_i64, hash_str};
use sqo_overlay::peer::Item;
use sqo_overlay::{Key, PartitionStore, SortedStore};
use sqo_storage::keys;
use sqo_storage::objects::{Fetched, UNNUMBERED};
use sqo_storage::posting::{BaseKind, Object, ObjectPostings, Posting, PostingKind};
use sqo_storage::publish::{
    batch_for_rows, postings_for_rows, postings_for_triple, PublishConfig, PublishStats,
};
use sqo_storage::slab::TripleSlab;
use sqo_storage::triple::{AttrName, Row, Triple, Value};
use sqo_strsim::qgram::qgram_count;

/// Rows `from..from + n` of a world that holds every posting kind: ASCII,
/// non-ASCII, empty and shorter-than-q values, numbers, attribute names
/// shorter than q, non-ASCII, and two sharing their first 32 bytes.
fn layout_rows(from: usize, n: usize) -> Vec<Row> {
    let stem = "an_attribute_name_32_bytes_long__";
    (from..from + n)
        .map(|i| {
            let text = match i % 5 {
                0 => format!("painting no. {i}"),
                1 => format!("päinting {i} 日本"),
                2 => String::new(),
                3 => "pa".to_string(),
                _ => format!("{i}"),
            };
            Row::new(
                format!("o:{i}"),
                [
                    ("title".to_string(), Value::from(text)),
                    (format!("{stem}{}", ["left", "right"][i % 2]), Value::from(format!("v{i}"))),
                    ("hp".to_string(), Value::Int(i as i64)),
                    ("tïtel".to_string(), Value::Float(i as f64 / 2.0)),
                ],
            )
        })
        .collect()
}

/// A posting without a gram keeps its value's char count and its
/// attribute's id inline. Every posting of three worlds — one built, one
/// grown by traced publishes after its build, and the grown one's decoded
/// twin — reads back the count and id of its record, and `pos()` is 0 for
/// every kind without a gram.
#[test]
fn inline_counts_and_ids_agree_with_the_record_in_every_world() {
    use sqo_core::EngineBuilder;
    use sqo_snap::Snapshot;
    let builder = || EngineBuilder::new().peers(32).replication(2).q(3).seed(5);
    let built = builder().build_with_rows(&layout_rows(0, 120));
    let mut grown = builder().build_with_rows(&layout_rows(0, 60));
    for rows in [layout_rows(60, 40), layout_rows(100, 20)] {
        let from = grown.random_peer();
        grown.publish_rows_traced(&rows, from);
    }
    let bytes = Snapshot::capture(&grown).to_bytes();
    let decoded =
        Snapshot::from_bytes(&bytes).expect("the artifact decodes").restore_engine(grown.config());

    for (what, engine) in [("built", &built), ("grown", &grown), ("decoded", &decoded)] {
        let state = engine.network().export_state();
        let (mut numbers, mut kinds) = (0, std::collections::HashSet::new());
        for p in state.stores().iter().flat_map(|run| run.items()) {
            let t = p.triple();
            assert_eq!(p.char_len(), t.char_len(), "{what}: {p:?}");
            assert_eq!(p.attr_id(), t.attr_id(), "{what}: {p:?}");
            match p.kind() {
                PostingKind::InstanceGram { .. } | PostingKind::SchemaGram => {}
                kind => {
                    assert_eq!(p.pos(), 0, "{what}: {p:?}");
                    numbers += usize::from(p.char_len().is_none());
                    kinds.insert(format!("{kind:?}"));
                }
            }
        }
        assert_eq!(kinds.len(), 5, "{what}: three base kinds, short value, short attr");
        assert!(numbers > 0, "{what}: numbers carry no count");
    }
}

/// A gram key's postings ascend by (source length, position), ties in
/// publication order, however the world was published: built on all rows,
/// grown by traced batches, grown a row at a time, and decoded from an
/// artifact all hold every run entry for entry in the same order — the
/// order a stable sort of each entry's postings by rank gives — and pass
/// the network's invariant check, which checks it.
#[test]
fn gram_lists_are_in_rank_order_on_every_publication_path() {
    use sqo_core::EngineBuilder;
    use sqo_snap::Snapshot;
    let builder = || EngineBuilder::new().peers(32).replication(2).q(3).seed(5);
    let rows = layout_rows(0, 90);
    let built = builder().build_with_rows(&rows);
    let mut batched = builder().build_with_rows(&rows[..30]);
    for rows in [&rows[30..70], &rows[70..]] {
        let from = batched.random_peer();
        batched.publish_rows_traced(rows, from);
    }
    let mut singly = builder().build_with_rows(&rows[..30]);
    for row in &rows[30..] {
        singly.publish_rows(std::slice::from_ref(row));
    }
    let bytes = Snapshot::capture(&singly).to_bytes();
    let decoded = Snapshot::from_bytes(&bytes).expect("decodes").restore_engine(singly.config());

    let runs = |engine: &sqo_core::SimilarityEngine| {
        let state = engine.network().export_state();
        state
            .stores()
            .iter()
            .map(|run| run.iter().map(|(k, items)| (k.to_key(), items.to_vec())).collect())
            .collect::<Vec<Vec<(Key, Vec<Posting>)>>>()
    };
    let want = runs(&built);
    let (mut grams, mut reordered) = (0, 0);
    for entry in want.iter().flatten().map(|(_, items)| items) {
        let mut sorted = entry.clone();
        sorted.sort_by_key(Posting::rank);
        assert_eq!(&sorted, entry, "an entry in rank order");
        grams += entry.iter().filter(|p| p.rank() > 0).count();
        reordered += usize::from(entry.windows(2).any(|w| w[0].triple_id().1 > w[1].triple_id().1));
    }
    assert!(
        grams > 1_000 && reordered > 10,
        "{grams} gram postings, {reordered} entries reordered"
    );
    for (what, engine) in [("batched", &batched), ("singly", &singly), ("decoded", &decoded)] {
        assert_eq!(engine.network().check_invariants(), Ok(()), "{what}");
        assert_eq!(runs(engine), want, "{what}");
    }
}

/// Object assembly as it was before an object was gathered as handles
/// (`Object::from_postings`): owned fields, each checked against those
/// kept so far.
fn owned_assembly(oid: &str, postings: &[Posting]) -> Object {
    let mut fields: Vec<(AttrName, Value)> = Vec::new();
    for t in postings.iter().filter_map(Posting::as_base) {
        if t.oid() == oid && !fields.iter().any(|(a, v)| a == t.attr() && t.value() == *v) {
            fields.push((t.attr().clone(), t.value().to_value()));
        }
    }
    fields.sort_by(|(a, _), (b, _)| a.cmp(b));
    Object { oid: oid.to_string(), fields }
}

/// `postings` both ways a fetch hands an object of `oid` on: gathered, and
/// as a run whose entry under `oid`'s key holds them all.
fn fetched(oid: &str, postings: &[Posting]) -> [Fetched; 2] {
    let entry = postings.iter().map(|p| (keys::oid_key(oid), p.clone())).collect();
    let run = PartitionStore::from_store(SortedStore::from_pairs(entry));
    [Fetched::Gathered(ObjectPostings::gather(oid, postings)), Fetched::At(run)]
}

/// What a fetched object lends — every attribute's values, and whether it
/// has none — is what its materialized object holds.
fn lends_its_object(oid: &str, fetched: &Fetched) -> bool {
    let object = fetched.materialize(oid);
    let lent = |attr: &str| {
        let values: Vec<Value> = fetched.values(oid, attr).map(|v| v.to_value()).collect();
        format!("{values:?}")
    };
    let held = |attr: &str| {
        let values = object.fields.iter().filter(|(a, _)| a.as_str() == attr);
        format!("{:?}", values.map(|(_, v)| v).collect::<Vec<_>>())
    };
    fetched.is_empty(oid) == object.fields.is_empty()
        && object.fields.iter().all(|(a, _)| lent(a.as_str()) == held(a.as_str()))
}

/// `ObjectPostings` as it was before a one-field object was held inline:
/// every field in a list, gathered, ordered, materialized and measured as
/// the list form still is.
mod listed {
    use super::*;

    pub fn gather(oid: &str, postings: &[Posting]) -> Vec<Posting> {
        let mut fields: Vec<Posting> = Vec::new();
        for p in postings {
            let Some(t) = p.as_base() else { continue };
            let seen = |f: &Posting| {
                let f = f.triple();
                f.attr() == t.attr() && f.value() == t.value()
            };
            if t.oid() == oid && !fields.iter().any(seen) {
                fields.push(p.clone());
            }
        }
        fields.sort_by(|a, b| a.triple().attr().cmp(b.triple().attr()));
        fields
    }

    pub fn materialize(oid: &str, fields: &[Posting]) -> Object {
        let fields = fields
            .iter()
            .map(|p| (p.triple().attr().clone(), p.triple().value().to_value()))
            .collect();
        Object { oid: oid.to_string(), fields }
    }

    pub fn repr_len(oid: &str, fields: &[Posting]) -> usize {
        let field = |p: &Posting| {
            let t = p.triple();
            t.attr().as_str().len() + t.value().repr_len() + 8
        };
        oid.len() + fields.iter().map(field).sum::<usize>()
    }
}

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
            let triple = posting.triple();
            let chain = match posting.kind() {
                PostingKind::Base(BaseKind::Oid) => continue,
                PostingKind::Base(BaseKind::AttrValue) => {
                    chained::attr(0x02, &attr).concat(&value(&triple.value().to_value()))
                }
                PostingKind::Base(BaseKind::Value)
                | PostingKind::SchemaGram
                | PostingKind::ShortAttr => continue,
                PostingKind::InstanceGram { .. } => {
                    chained::attr(0x04, &attr).concat(&hash_str(posting.gram()))
                }
                PostingKind::ShortValue => chained::attr(0x06, &attr)
                    .concat(&hash_str(triple.value_str().expect("a short string"))),
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
            let (triple, gram) = (posting.triple(), posting.gram());
            prop_assert_eq!(triple, t.clone());
            match posting.kind() {
                PostingKind::Base(BaseKind::Oid) => {
                    prop_assert_eq!(&key, &keys::oid_key(&oid));
                }
                PostingKind::Base(BaseKind::AttrValue) => {
                    prop_assert!(keys::attr_scan_prefix(&attr).is_prefix_of(&key));
                    prop_assert_eq!(&key, &keys::attr_value_key(&attr, &t.value));
                }
                PostingKind::Base(BaseKind::Value) => {
                    prop_assert_eq!(&key, &keys::value_key(&t.value));
                }
                PostingKind::InstanceGram { .. } => {
                    prop_assert_eq!(&key, &keys::instance_gram_key(&attr, gram));
                    prop_assert_eq!(gram.chars().count(), q);
                }
                PostingKind::SchemaGram => {
                    prop_assert_eq!(&key, &keys::schema_gram_key(gram));
                    prop_assert_eq!(gram.chars().count(), q);
                }
                PostingKind::ShortValue => {
                    let s = triple.value_str().expect("short postings are strings");
                    prop_assert!(s.chars().count() < q);
                    prop_assert!(keys::short_value_prefix(&attr).is_prefix_of(&key));
                }
                PostingKind::ShortAttr => {
                    prop_assert!(attr.chars().count() < q);
                    prop_assert!(keys::short_attr_prefix().is_prefix_of(&key));
                }
            }
        }
    }

    /// Posting counts follow the closed-form inventory: 3 base postings,
    /// one instance gram per value q-gram, one schema gram per attr-name
    /// q-gram, short-family fallbacks otherwise.
    #[test]
    fn posting_inventory_formula(
        oid in "[a-z]{1,6}",
        attr in "[a-z]{1,9}",
        s in "[a-z]{0,15}",
        q in 2usize..4,
    ) {
        let t = Triple::new(oid, attr.clone(), Value::from(s.clone()));
        let cfg = PublishConfig { q, ..PublishConfig::default() };
        let ps = postings_for_triple(&t, &cfg);
        let count = |of: fn(PostingKind) -> bool| ps.iter().filter(|(_, p)| of(p.kind())).count();
        let base = count(|k| matches!(k, PostingKind::Base(_)));
        prop_assert_eq!(base, 3);
        let igrams = count(|k| matches!(k, PostingKind::InstanceGram { .. }));
        let shorts = count(|k| k == PostingKind::ShortValue);
        let n = s.chars().count();
        if n >= q {
            prop_assert_eq!(igrams, qgram_count(n, q));
            prop_assert_eq!(shorts, 0);
        } else {
            prop_assert_eq!(igrams, 0);
            prop_assert_eq!(shorts, 1);
        }
        let sgrams = count(|k| k == PostingKind::SchemaGram);
        let na = attr.chars().count();
        prop_assert_eq!(sgrams, qgram_count(na, q));
    }

    /// A batch is one slab laid out in (attribute, value) order and makes
    /// each of its keys once, but flattened it is what publishing its
    /// triples one at a time would give, posting for posting: the same keys
    /// in the same order, equal postings of equal size, the same accounting
    /// — for non-ASCII text, values shorter than q, numbers, rows with
    /// several attributes (their oid key repeats), a row published twice,
    /// and attribute names that share their 32-byte truncated key (one key,
    /// which must not get two ids). Its keys are pairwise distinct as
    /// bytes, ids count up in generation order, and its groups are the
    /// flat batch stable-sorted by key and, within a key, by rank.
    #[test]
    fn a_batch_equals_its_triples_published_one_by_one(
        rows in prop::collection::vec(
            (
                "[a-c]{1,3}",
                prop::collection::vec(
                    (
                        prop_oneof![
                            "[a-c]{1,4}",
                            "[a-c]{0,2}".prop_map(|tail| format!("{}{tail}", "long-attribute-".repeat(3))),
                            "[é日]{1,3}",
                        ],
                        prop_oneof![
                            "[a-c é日]{0,9}".prop_map(Value::from),
                            (-3i64..3).prop_map(Value::Int),
                            (-2f64..2.0).prop_map(Value::Float),
                        ],
                    ),
                    0..5,
                ),
            ),
            0..8,
        ),
        q in 1usize..4,
        grams_carry_value in any::<bool>(),
        first_row_twice in any::<bool>(),
    ) {
        let cfg = PublishConfig { q, grams_carry_value };
        let mut rows: Vec<Row> =
            rows.into_iter().map(|(oid, fields)| Row::new(oid, fields)).collect();
        if first_row_twice {
            rows.extend(rows.first().cloned());
        }
        let (grouped, stats) = batch_for_rows(&rows, &cfg, |_| UNNUMBERED);
        let keys = grouped.keys();
        let distinct: std::collections::HashSet<&[u8]> = keys.iter().map(Key::as_bytes).collect();
        prop_assert_eq!(distinct.len(), keys.len(), "a key under two ids");
        prop_assert!(keys.iter().all(|k| k.len() == k.as_bytes().len() * 8), "whole bytes");
        // Ids are in range and handed out at first sight.
        let mut next = 0;
        for (id, _) in grouped.entries() {
            prop_assert!(*id <= next && (*id as usize) < keys.len());
            next = next.max(*id + 1);
        }
        prop_assert_eq!(next as usize, keys.len(), "a key without a posting");
        let order = grouped.key_order();
        prop_assert!(order.windows(2).all(|w| keys[w[0] as usize] < keys[w[1] as usize]));

        let (batch, flat_stats) = postings_for_rows(&rows, &cfg);
        prop_assert_eq!(flat_stats, stats);
        let flattened = |run: sqo_overlay::SortedStore<Posting>| -> Vec<(Key, Posting)> {
            run.iter()
                .flat_map(|(k, items)| items.iter().map(move |p| (k.to_key(), p.clone())))
                .collect()
        };
        let by_key_and_rank =
            |a: &(Key, Posting), b: &(Key, Posting)| a.0.cmp(&b.0).then(a.1.rank().cmp(&b.1.rank()));
        let mut sorted = batch.clone();
        sorted.sort_by(by_key_and_rank);
        prop_assert_eq!(flattened(batch_for_rows(&rows, &cfg, |_| UNNUMBERED).0.into_groups(&order)), sorted);
        // Dropping postings drops them from their groups, and a key left
        // without postings has no group.
        let (mut thinned, _) = batch_for_rows(&rows, &cfg, |_| UNNUMBERED);
        let mut nth = 0;
        thinned.retain(|id, key, _| {
            nth += 1;
            *key == keys[id as usize] && nth % 3 == 0
        });
        let mut kept: Vec<(Key, Posting)> =
            batch.iter().skip(2).step_by(3).cloned().collect();
        kept.sort_by(by_key_and_rank);
        let payload_of = |batch: &sqo_storage::publish::PostingBatch| {
            let mut payload = vec![0; batch.keys().len()];
            for (id, posting) in batch.entries() {
                payload[*id as usize] += posting.size_bytes();
            }
            payload
        };
        let after_retain = payload_of(&thinned);
        prop_assert_eq!(thinned.payload(), after_retain.as_slice(), "a payload after retain");
        prop_assert_eq!(flattened(thinned.into_groups(&order)), kept);
        prop_assert_eq!(grouped.payload(), payload_of(&grouped).as_slice());
        prop_assert_eq!(grouped.payload().iter().sum::<usize>() as u64, stats.total_bytes);
        prop_assert_eq!(grouped.flatten(), batch.clone());
        let single: Vec<(Key, Posting)> = rows
            .iter()
            .flat_map(Row::triples)
            .flat_map(|t| postings_for_triple(&t, &cfg))
            .collect();
        prop_assert_eq!(batch.len(), single.len());
        let mut expected = PublishStats { rows: rows.len(), ..PublishStats::default() };
        expected.triples = rows.iter().map(|r| r.fields.len()).sum();
        for ((key, posting), (single_key, single_posting)) in batch.iter().zip(&single) {
            prop_assert_eq!(key, single_key);
            prop_assert_eq!(posting, single_posting);
            prop_assert_eq!(posting.size_bytes(), single_posting.size_bytes());
            prop_assert_eq!(posting.source_len(), single_posting.source_len());
            match posting.kind() {
                PostingKind::Base(_) => expected.base_postings += 1,
                PostingKind::InstanceGram { carries_value } => {
                    prop_assert_eq!(carries_value, grams_carry_value);
                    expected.instance_gram_postings += 1;
                }
                PostingKind::SchemaGram => expected.schema_gram_postings += 1,
                PostingKind::ShortValue | PostingKind::ShortAttr => expected.short_postings += 1,
            }
            expected.total_bytes += single_posting.size_bytes() as u64;
        }
        prop_assert_eq!(stats, expected);
        // One slab, and in it one span per distinct gram: two gram postings
        // read their gram from one place of the slab's text exactly when
        // they carry the same text — at either level, under any attribute.
        for (_, a) in &batch {
            prop_assert!(std::rc::Rc::ptr_eq(a.triple_id().0, batch[0].1.triple_id().0));
        }
        let mut place_of = std::collections::HashMap::new();
        let mut text_at = std::collections::HashMap::new();
        for (_, p) in &batch {
            if matches!(p.kind(), PostingKind::InstanceGram { .. } | PostingKind::SchemaGram) {
                let (text, place) = (p.gram(), p.gram().as_ptr());
                prop_assert_eq!(*place_of.entry(text).or_insert(place), place, "{:?}", text);
                prop_assert_eq!(*text_at.entry(place).or_insert(text), text);
            }
        }
    }

    /// The keys of a batch are its postings' keys as the key builders spell
    /// them out — the string-keyed reference of its packed gram lookup —
    /// each under the id of its first sight, with the count and the payload
    /// of its postings; on grams of over 7 bytes, NUL chars, one gram under
    /// several attributes and at both levels, numbers and values shorter
    /// than q.
    #[test]
    fn a_batch_keys_its_postings_as_the_key_builders_do(
        rows in prop::collection::vec(
            (
                "[ab]{1,2}",
                prop::collection::vec(
                    (
                        "[ab\0é日]{1,5}",
                        prop_oneof![
                            "[ab\0é日本]{0,9}".prop_map(Value::from),
                            (-3i64..3).prop_map(Value::Int),
                            (-2f64..2.0).prop_map(Value::Float),
                        ],
                    ),
                    0..4,
                ),
            ),
            0..8,
        ),
        q in 1usize..5,
        grams_carry_value in any::<bool>(),
    ) {
        let cfg = PublishConfig { q, grams_carry_value };
        let rows: Vec<Row> = rows.into_iter().map(|(oid, fields)| Row::new(oid, fields)).collect();
        let (batch, _) = batch_for_rows(&rows, &cfg, |_| UNNUMBERED);
        let mut ids: std::collections::HashMap<Key, u32> = std::collections::HashMap::new();
        let (mut count, mut payload) = (Vec::new(), Vec::new());
        for (id, p) in batch.entries() {
            let (t, attr) = (p.triple(), p.triple().attr().as_str());
            let value = t.value().to_value();
            let key = match p.kind() {
                PostingKind::Base(BaseKind::Oid) => keys::oid_key(t.oid()),
                PostingKind::Base(BaseKind::AttrValue) => keys::attr_value_key(attr, &value),
                PostingKind::Base(BaseKind::Value) => keys::value_key(&value),
                PostingKind::InstanceGram { .. } => keys::instance_gram_key(attr, p.gram()),
                PostingKind::SchemaGram => keys::schema_gram_key(p.gram()),
                PostingKind::ShortValue => {
                    keys::short_value_key(attr, t.value_str().expect("a string"))
                }
                PostingKind::ShortAttr => keys::short_attr_key(attr),
            };
            let next = ids.len() as u32;
            let want = *ids.entry(key.clone()).or_insert(next);
            prop_assert_eq!(*id, want, "{:?}", p);
            prop_assert_eq!(&batch.keys()[*id as usize], &key);
            count.resize(ids.len(), 0);
            payload.resize(ids.len(), 0);
            count[want as usize] += 1;
            payload[want as usize] += p.size_bytes();
        }
        prop_assert_eq!(batch.keys().len(), ids.len());
        prop_assert_eq!(batch.payload(), payload.as_slice());
        let run = batch.into_sorted_groups();
        let mut counted: Vec<(Key, usize)> =
            ids.iter().map(|(key, id)| (key.clone(), count[*id as usize])).collect();
        counted.sort();
        let grouped: Vec<(Key, usize)> =
            run.iter().map(|(k, items)| (k.to_key(), items.len())).collect();
        prop_assert_eq!(grouped, counted);
    }

    /// A batch's key order is the order of its keys: its keys sorted by
    /// `Key::cmp`, on keys of over 16 bytes that share their first 16,
    /// keys that are prefixes of others, and keys that end in `0x00`.
    #[test]
    fn the_key_order_is_the_sort_of_the_keys(
        rows in prop::collection::vec(
            (
                (0usize..20, "[a\0]{0,3}").prop_map(|(n, tail)| format!("{}{tail}", "o".repeat(n))),
                prop::collection::vec(("[ab]{1,2}", "[a\0]{0,18}".prop_map(Value::from)), 0..3),
            ),
            0..12,
        ),
    ) {
        let rows: Vec<Row> = rows.into_iter().map(|(oid, fields)| Row::new(oid, fields)).collect();
        let cfg = PublishConfig { q: 20, grams_carry_value: false };
        let (batch, _) = batch_for_rows(&rows, &cfg, |_| UNNUMBERED);
        let keys = batch.keys();
        let mut sorted: Vec<u32> = (0..keys.len() as u32).collect();
        sorted.sort_unstable_by(|a, b| keys[*a as usize].cmp(&keys[*b as usize]));
        prop_assert_eq!(batch.key_order(), sorted);
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
        let obj = Fetched::Gathered(ObjectPostings::gather(&oid, &oid_postings)).materialize(&oid);
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

    /// An object's postings, gathered as handles or read in the run they
    /// lie in, are the object the owned
    /// assembly built: the same fields in the same order — by attribute
    /// name, equal names in arrival order — each (attr, value) pair once
    /// however often replicas or duplicate triples return it (a NaN, equal
    /// to nothing, never collapses), other oids and other posting kinds
    /// ignored, and the same `repr_len`; each attribute's values lent are
    /// the object's.
    #[test]
    fn gathered_handles_are_the_owned_assembly(
        triples in prop::collection::vec((0usize..3, 0usize..3, 0usize..5), 1..12),
        picks in prop::collection::vec((0usize..64, 0usize..4), 0..40),
    ) {
        let values =
            [Value::from("x"), Value::from("y"), Value::Int(7), Value::Float(7.0), Value::Float(f64::NAN)];
        let triples: Vec<Triple> = triples
            .iter()
            .map(|(o, a, v)| {
                Triple::new(["o:1", "o:10", "o:2"][*o], ["name", "hp", "ab"][*a], values[*v].clone())
            })
            .collect();
        let slab = TripleSlab::of(&triples);
        let kinds = [
            PostingKind::Base(BaseKind::Oid),
            PostingKind::Base(BaseKind::AttrValue),
            PostingKind::Base(BaseKind::Value),
            PostingKind::ShortValue,
        ];
        let postings: Vec<Posting> = picks
            .iter()
            .map(|(at, kind)| {
                let index = (at % triples.len()) as u32;
                Posting::new(kinds[*kind], &slab, index, None).expect("a triple of the slab")
            })
            .collect();
        for oid in ["o:1", "o:10", "o:2", "o:3"] {
            let reference = owned_assembly(oid, &postings);
            let handles = ObjectPostings::gather(oid, &postings);
            prop_assert_eq!(handles.repr_len(oid), reference.repr_len());
            for fetched in fetched(oid, &postings) {
                prop_assert_eq!(format!("{:?}", fetched.materialize(oid)), format!("{reference:?}"));
                prop_assert!(lends_its_object(oid, &fetched));
            }
        }
    }

    /// One object, two forms: gathered with one field it holds the handle
    /// inline, with none or several a list, and against the list form for
    /// every field count it materializes the same object — fields, order,
    /// values — and is charged the same `repr_len`. Objects of no field,
    /// one and several; each field's posting returned up to three times
    /// (replicas), equal (attr, value) pairs under other records, equal
    /// attribute names with other values, a NaN that equals nothing, and
    /// another oid's fields beside.
    #[test]
    fn inline_and_listed_fields_are_one_object(
        fields in prop::collection::vec((0usize..3, 0usize..4, 1usize..4), 0..6),
        other in prop::collection::vec((0usize..3, 0usize..4), 0..3),
    ) {
        let values = [Value::from("x"), Value::from(""), Value::Int(7), Value::Float(f64::NAN)];
        let attrs = ["name", "hp", "ab"];
        let mut triples: Vec<Triple> = Vec::new();
        let mut copies = Vec::new();
        for (a, v, n) in &fields {
            copies.push(*n);
            triples.push(Triple::new("o:1", attrs[*a], values[*v].clone()));
        }
        for (a, v) in &other {
            copies.push(1);
            triples.push(Triple::new("o:10", attrs[*a], values[*v].clone()));
        }
        let slab = TripleSlab::of(&triples);
        let postings: Vec<Posting> = copies
            .iter()
            .enumerate()
            .flat_map(|(i, n)| std::iter::repeat_n(i as u32, *n))
            .map(|i| Posting::new(PostingKind::Base(BaseKind::Oid), &slab, i, None).expect("a triple"))
            .collect();
        for oid in ["o:1", "o:10", "o:2"] {
            let list = listed::gather(oid, &postings);
            let gathered = ObjectPostings::gather(oid, &postings);
            for fetched in fetched(oid, &postings) {
                prop_assert_eq!(
                    format!("{:?}", fetched.materialize(oid)),
                    format!("{:?}", listed::materialize(oid, &list)),
                    "{} fields", list.len()
                );
                prop_assert!(lends_its_object(oid, &fetched));
            }
            prop_assert_eq!(gathered.repr_len(oid), listed::repr_len(oid, &list));
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
