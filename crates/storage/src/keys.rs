//! Key derivation for the vertical storage scheme.
//!
//! §3/§4 of the paper: every triple `(oid, A, v)` is inserted under several
//! keys —
//!
//! 1. `key(oid)` — object lookups (reassembling complete tuples),
//! 2. `key(A # v)` — attribute selections and range queries,
//! 3. `key(v)` — keyword-like queries ("any attribute = v"),
//! 4. `key(A # q)` for every q-gram `q` of a **string** value `v` —
//!    instance-level similarity probes,
//! 5. `key(q_A)` for every q-gram `q_A` of the attribute **name** —
//!    schema-level similarity probes.
//!
//! Each family is prefixed with a one-byte *index tag* so the families
//! occupy disjoint subtries (without it, `key(oid)` and `key(v)` of equal
//! strings would collide). Within a family, keys are order- and
//! prefix-preserving, which is what range scans and prefix fan-outs rely on.
//! Components are separated by a `0x00` byte so that `hp#...` and `hpx#...`
//! ranges cannot interleave.
//!
//! Two auxiliary families (tags 6 and 7) index strings *shorter than q*,
//! which produce no q-grams; the `Similar` operator scans them directly when
//! the query's match-length window dips below `q` (completeness — see
//! `sqo-core::similar`).

use crate::posting::{Posting, PostingKind};
use crate::triple::{Value, ValueRef};
use sqo_overlay::hash::{order_bits_f64, order_bits_i64, MAX_STRING_KEY_BITS};
use sqo_overlay::key::{Key, KeyRef};

/// Index-family tags (first byte of every key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum IndexFamily {
    /// `key(oid)` → base triple.
    Oid = 0x01,
    /// `key(A # v)` → base triple.
    AttrValue = 0x02,
    /// `key(v)` → base triple (keyword index).
    Value = 0x03,
    /// `key(A # q-gram(v))` → gram posting (instance level).
    InstanceGram = 0x04,
    /// `key(q-gram(A))` → gram posting (schema level).
    SchemaGram = 0x05,
    /// `key(A # v)` for string values with `|v| < q`.
    ShortValue = 0x06,
    /// `key(A)` for attribute names with `|A| < q`.
    ShortAttr = 0x07,
}

/// Value-type tags inside the value component of a key, keeping the three
/// value domains (ints, floats, strings) in disjoint, internally ordered
/// subranges.
const VT_INT: u8 = 0x01;
const VT_FLOAT: u8 = 0x02;
const VT_STR: u8 = 0x03;

/// Terminates an attribute name inside a key.
const END: &[u8] = &[0x00];

/// A key as the fragments it is made of, end to end. Every fragment of
/// every family is whole bytes. Each family spells its layout once, as
/// parts: the builders below join them into a [`Key`], the publication
/// pipeline into a scratch buffer, where a key it has seen before costs no
/// allocation ([`crate::publish`]).
pub(crate) type Parts<'a, const N: usize> = [&'a [u8]; N];

/// The key made of `parts`: one buffer, sized up front.
fn key_of(parts: &[&[u8]]) -> Key {
    let mut bytes = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for part in parts {
        bytes.extend_from_slice(part);
    }
    let bits = bytes.len() * 8;
    Key::from_raw_parts(bytes, bits)
}

/// The bytes a string contributes to a key — those of `hash_str`: its
/// first [`MAX_STRING_KEY_BITS`] bits.
fn str_bytes(s: &str) -> &[u8] {
    &s.as_bytes()[..s.len().min(MAX_STRING_KEY_BITS / 8)]
}

/// What a value contributes to a key: its value-type tag, then its
/// order-preserving bytes.
pub(crate) struct ValueParts<'a> {
    tag: [u8; 1],
    num: [u8; 8],
    text: Option<&'a [u8]>,
}

impl<'a> ValueParts<'a> {
    pub(crate) fn of(v: ValueRef<'a>) -> Self {
        let (tag, num, text) = match v {
            ValueRef::Int(i) => (VT_INT, order_bits_i64(i).to_be_bytes(), None),
            ValueRef::Float(f) => (VT_FLOAT, order_bits_f64(f).to_be_bytes(), None),
            ValueRef::Str(s) => (VT_STR, [0; 8], Some(str_bytes(s))),
        };
        Self { tag: [tag], num, text }
    }

    fn bytes(&self) -> &[u8] {
        self.text.unwrap_or(&self.num)
    }

    /// `head`, then the value's two fragments.
    fn after<'p>(&'p self, head: &'p [u8]) -> Parts<'p, 3> {
        [head, &self.tag, self.bytes()]
    }
}

/// Order-preserving key fragment for a value.
pub fn value_fragment(v: &Value) -> Key {
    key_of(&ValueParts::of(v.as_ref()).after(&[]))
}

/// The `tag · A · 0x00` prefixes of the three families keyed by attribute,
/// spelled out once per attribute and batch by the publication pipeline: a
/// key under one of them is the prefix and a value or gram.
pub(crate) struct AttrPrefixes {
    attr_value: Vec<u8>,
    instance_gram: Vec<u8>,
    short_value: Vec<u8>,
}

impl AttrPrefixes {
    pub(crate) fn new(attr: &str) -> Self {
        let under = |family: IndexFamily| [&[family as u8], str_bytes(attr), END].concat();
        Self {
            attr_value: under(IndexFamily::AttrValue),
            instance_gram: under(IndexFamily::InstanceGram),
            short_value: under(IndexFamily::ShortValue),
        }
    }

    /// `key(A # v)`.
    pub(crate) fn attr_value<'p>(&'p self, v: &'p ValueParts<'_>) -> Parts<'p, 3> {
        v.after(&self.attr_value)
    }

    /// `key(A # q)`.
    pub(crate) fn instance_gram<'p>(&'p self, gram: &'p str) -> Parts<'p, 2> {
        [&self.instance_gram, str_bytes(gram)]
    }

    /// `key(A # v)` in the short-value family.
    pub(crate) fn short_value<'p>(&'p self, v: &'p str) -> Parts<'p, 2> {
        [&self.short_value, str_bytes(v)]
    }
}

// ---------------------------------------------------------------------
// Family 1: oid index
// ---------------------------------------------------------------------

/// `key(oid)`.
pub fn oid_key(oid: &str) -> Key {
    key_of(&oid_parts(oid))
}

/// `key(oid)`, written over `key` in its own buffer
/// ([`Key::set_from_parts`]): what a fetch that looks up many oids makes
/// each key with.
pub fn oid_key_into(oid: &str, key: &mut Key) {
    key.set_from_parts(&oid_parts(oid));
}

/// A buffer [`oid_key_in`] writes a key in.
pub type OidKeyBuf = [u8; 1 + MAX_STRING_KEY_BITS / 8];

/// `key(oid)`, written into `buf` and viewed there: nothing is allocated.
pub fn oid_key_in<'b>(oid: &str, buf: &'b mut OidKeyBuf) -> KeyRef<'b> {
    let bytes = str_bytes(oid);
    buf[0] = IndexFamily::Oid as u8;
    buf[1..=bytes.len()].copy_from_slice(bytes);
    KeyRef::new(&buf[..=bytes.len()], (bytes.len() + 1) * 8).expect("whole bytes")
}

pub(crate) fn oid_parts(oid: &str) -> Parts<'_, 2> {
    [&[IndexFamily::Oid as u8], str_bytes(oid)]
}

// ---------------------------------------------------------------------
// Family 2: attribute-value index
// ---------------------------------------------------------------------

/// `key(A # v)`.
pub fn attr_value_key(attr: &str, v: &Value) -> Key {
    let v = ValueParts::of(v.as_ref());
    key_of(&[&[IndexFamily::AttrValue as u8], str_bytes(attr), END, &v.tag, v.bytes()])
}

/// Prefix covering **all** values of attribute `A` — the scan the
/// schema-level operations and full-attribute fetches (similarity join left
/// sides) use.
pub fn attr_scan_prefix(attr: &str) -> Key {
    key_of(&[&[IndexFamily::AttrValue as u8], str_bytes(attr), END])
}

/// Inclusive key range for `v ∈ [lo, hi]` of attribute `A`. `lo` and `hi`
/// must be of the same value kind.
pub fn attr_value_range(attr: &str, lo: &Value, hi: &Value) -> (Key, Key) {
    let klo = attr_value_key(attr, lo);
    // Extend the upper bound so that string keys *starting with* hi are
    // included (range semantics on truncated string keys), by appending
    // 1-bits up to the string-key capacity.
    let mut khi = attr_value_key(attr, hi);
    if matches!(hi, Value::Str(_)) {
        for _ in 0..8 {
            khi.push_bit(true);
        }
    }
    (klo, khi)
}

// ---------------------------------------------------------------------
// Family 3: keyword (value) index
// ---------------------------------------------------------------------

/// `key(v)` — the "any attribute = v" index.
pub fn value_key(v: &Value) -> Key {
    key_of(&value_parts(&ValueParts::of(v.as_ref())))
}

pub(crate) fn value_parts<'p>(v: &'p ValueParts<'_>) -> Parts<'p, 3> {
    v.after(&[IndexFamily::Value as u8])
}

// ---------------------------------------------------------------------
// Family 4: instance-level q-gram index
// ---------------------------------------------------------------------

/// `key(A # q)` for a q-gram `q` of a value of attribute `A`.
pub fn instance_gram_key(attr: &str, gram: &str) -> Key {
    key_of(&[&[IndexFamily::InstanceGram as u8], str_bytes(attr), END, str_bytes(gram)])
}

/// Prefix covering all instance grams of attribute `A` (naive-baseline
/// fan-out never uses this — it scans family 2 — but tests do).
pub fn instance_gram_prefix(attr: &str) -> Key {
    key_of(&[&[IndexFamily::InstanceGram as u8], str_bytes(attr), END])
}

// ---------------------------------------------------------------------
// Family 5: schema-level q-gram index
// ---------------------------------------------------------------------

/// `key(q_A)` for a q-gram of the attribute name.
pub fn schema_gram_key(gram: &str) -> Key {
    key_of(&schema_gram_parts(gram))
}

pub(crate) fn schema_gram_parts(gram: &str) -> Parts<'_, 2> {
    [&[IndexFamily::SchemaGram as u8], str_bytes(gram)]
}

/// Whether a gram key spells `gram` out whole and apart from the attribute
/// in front of it: no longer than a key keeps of a string, and without a
/// `0x00` byte. Two gram postings under one key whose grams are both spelled
/// out so carry the same gram — attribute and gram would have to share a
/// separator byte, or a truncated tail, for one key to hold two.
pub fn gram_spelled_whole(gram: &str) -> bool {
    str_bytes(gram).len() == gram.len() && !gram.as_bytes().contains(&0)
}

/// Whether `list` — a prefix scan's postings, in key order — is one gram
/// key's: its first and last postings are both instance grams with the
/// same attribute and gram, or both schema grams with the same gram, each
/// compared as far as a key keeps it. Equal parts make equal keys, and a
/// list in key order whose ends share a key is that key's, so `true` is
/// certain; `false` is not (a `0x00` in a name can make different parts
/// spell one key), and holds for the empty list.
pub fn one_gram_entry(list: &[Posting]) -> bool {
    let (Some(a), Some(b)) = (list.first(), list.last()) else { return false };
    let same_gram = str_bytes(a.gram()) == str_bytes(b.gram());
    match (a.kind(), b.kind()) {
        (PostingKind::InstanceGram { .. }, PostingKind::InstanceGram { .. }) => {
            same_gram
                && str_bytes(a.triple().attr().as_str()) == str_bytes(b.triple().attr().as_str())
        }
        (PostingKind::SchemaGram, PostingKind::SchemaGram) => same_gram,
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Families 6 & 7: short strings (|s| < q)
// ---------------------------------------------------------------------

/// `key(A # v)` in the short-value family.
pub fn short_value_key(attr: &str, v: &str) -> Key {
    key_of(&[&[IndexFamily::ShortValue as u8], str_bytes(attr), END, str_bytes(v)])
}

/// Prefix covering all short values of attribute `A`.
pub fn short_value_prefix(attr: &str) -> Key {
    key_of(&[&[IndexFamily::ShortValue as u8], str_bytes(attr), END])
}

/// `key(A)` in the short-attr family (schema level).
pub fn short_attr_key(attr: &str) -> Key {
    key_of(&short_attr_parts(attr))
}

pub(crate) fn short_attr_parts(attr: &str) -> Parts<'_, 2> {
    [&[IndexFamily::ShortAttr as u8], str_bytes(attr)]
}

/// Prefix covering the whole short-attr family.
pub fn short_attr_prefix() -> Key {
    key_of(&[&[IndexFamily::ShortAttr as u8]])
}

/// Prefix covering the **entire** attribute-value family (every stored
/// `(A, v)` posting) — the fan-out set of the naive baseline's schema-level
/// scan, which must visit every peer holding any attribute data.
pub fn attr_value_family_prefix() -> Key {
    key_of(&[&[IndexFamily::AttrValue as u8]])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_disjoint() {
        // Same string in different roles must never produce prefix-related
        // keys across families.
        let keys = [
            oid_key("bmw"),
            attr_value_key("bmw", &Value::from("bmw")),
            value_key(&Value::from("bmw")),
            instance_gram_key("bmw", "bmw"),
            schema_gram_key("bmw"),
            short_value_key("bmw", "bm"),
            short_attr_key("bm"),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert!(!a.is_prefix_of(b), "family {i} key is prefix of family {j} key");
                }
            }
        }
    }

    #[test]
    fn a_reused_oid_key_is_the_made_one() {
        let long = "an-object-id-of-more-than-thirty-two-bytes";
        let mut key = Key::parse("1011");
        for oid in [long, "w:1", "", "日本語", long, "w:10"] {
            oid_key_into(oid, &mut key);
            assert_eq!(key, oid_key(oid), "{oid:?}");
        }
    }

    #[test]
    fn attr_scan_prefix_covers_exactly_its_attribute() {
        let k_hp = attr_value_key("hp", &Value::from(190));
        let k_hpx = attr_value_key("hpx", &Value::from(190));
        let p = attr_scan_prefix("hp");
        assert!(p.is_prefix_of(&k_hp));
        assert!(!p.is_prefix_of(&k_hpx));
    }

    #[test]
    fn value_domains_are_ordered_and_disjoint() {
        let i = value_fragment(&Value::from(5));
        let f = value_fragment(&Value::from(5.0));
        let s = value_fragment(&Value::from("5"));
        assert!(i < f && f < s, "int < float < str domains");
        assert!(value_fragment(&Value::from(-10)) < value_fragment(&Value::from(10)));
        assert!(value_fragment(&Value::from("a")) < value_fragment(&Value::from("b")));
    }

    #[test]
    fn numeric_range_keys_bound_correctly() {
        let (lo, hi) = attr_value_range("price", &Value::from(100), &Value::from(200));
        let in_range = attr_value_key("price", &Value::from(150));
        let below = attr_value_key("price", &Value::from(99));
        let above = attr_value_key("price", &Value::from(201));
        assert!(lo <= in_range && in_range <= hi);
        assert!(below < lo);
        assert!(above > hi);
    }

    #[test]
    fn string_range_includes_exact_upper_bound() {
        let (lo, hi) = attr_value_range("name", &Value::from("audi"), &Value::from("bmw"));
        let exact_hi = attr_value_key("name", &Value::from("bmw"));
        assert!(exact_hi >= lo && exact_hi <= hi);
        let extension = attr_value_key("name", &Value::from("bmwx"));
        // Extensions of the upper bound are included by design (prefix
        // semantics of truncated string keys); strictly larger strings not.
        assert!(extension <= hi);
        let larger = attr_value_key("name", &Value::from("bn"));
        assert!(larger > hi);
    }

    #[test]
    fn gram_keys_cluster_by_attribute() {
        let a = instance_gram_key("name", "bmw");
        let b = instance_gram_key("name", "mwx");
        let c = instance_gram_key("color", "bmw");
        let p = instance_gram_prefix("name");
        assert!(p.is_prefix_of(&a) && p.is_prefix_of(&b));
        assert!(!p.is_prefix_of(&c));
    }

    #[test]
    fn short_families_scan_prefixes() {
        assert!(short_value_prefix("nm").is_prefix_of(&short_value_key("nm", "ab")));
        assert!(short_attr_prefix().is_prefix_of(&short_attr_key("hp")));
    }
}
