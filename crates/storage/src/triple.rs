//! The vertical data model: triples.
//!
//! §3 of the paper: each tuple `(oid, v1, …, vn)` of a relation
//! `R(A1, …, An)` is decomposed into `n` triples `(oid, A1, v1), …,
//! (oid, An, vn)`, where `oid` is a unique value (e.g. a URI) and attribute
//! names may carry a namespace prefix `ns` distinguishing relations. Null
//! values are simply not represented. The scheme is self-describing — no
//! global data dictionary — and users may extend a tuple's schema by adding
//! triples.
//!
//! The types here are what a triple looks like **outside** the store: rows
//! going in, objects coming out, values in predicates. Stored triples are
//! fixed-width records of a [`TripleSlab`](crate::slab::TripleSlab), read
//! through [`TripleRef`](crate::slab::TripleRef); [`ValueRef`] is a value
//! as either side lends it.

use std::fmt;
use std::rc::Rc;

/// Attribute name, optionally namespace-qualified (`ns:name`).
///
/// A relation has a handful of attribute names and a triple per cell, so
/// the name is a shared string: a clone bumps a count, and a slab holds
/// each of its names once, whatever the number of triples that carry it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrName(Rc<str>);

impl AttrName {
    pub fn new(name: impl Into<Rc<str>>) -> Self {
        Self(name.into())
    }

    /// Full canonical form, `ns:name` or bare `name`.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The namespace prefix, if any.
    pub fn namespace(&self) -> Option<&str> {
        self.0.split_once(':').map(|(ns, _)| ns)
    }

    /// The local part (after the namespace prefix).
    pub fn local(&self) -> &str {
        self.0.split_once(':').map_or(&self.0, |(_, l)| l)
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl From<String> for AttrName {
    fn from(s: String) -> Self {
        Self::new(s)
    }
}

/// Attribute values: strings, integers, floats. (The paper's `dist` measure
/// is edit distance for strings, Euclidean distance for numerics.)
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Float(f64),
}

impl Value {
    /// String content if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: ints widen to floats.
    pub fn as_float(&self) -> Option<f64> {
        self.as_ref().as_float()
    }

    /// Approximate serialized size in bytes (data-volume accounting).
    pub fn repr_len(&self) -> usize {
        self.as_ref().repr_len()
    }

    /// The value, lent.
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Str(s) => ValueRef::Str(s),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
        }
    }
}

/// A [`Value`] whose string, if it is one, lies somewhere else: in a row
/// about to be published, in a slab's text arena, in a snapshot artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    Str(&'a str),
    Int(i64),
    Float(f64),
}

impl<'a> ValueRef<'a> {
    /// String content if this is a string value.
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: ints widen to floats.
    pub fn as_float(self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(i as f64),
            ValueRef::Float(f) => Some(f),
            ValueRef::Str(_) => None,
        }
    }

    /// Approximate serialized size in bytes (data-volume accounting).
    pub fn repr_len(self) -> usize {
        match self {
            ValueRef::Str(s) => s.len(),
            ValueRef::Int(_) | ValueRef::Float(_) => 8,
        }
    }

    /// An owned copy.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Str(s) => Value::Str(s.to_string()),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
        }
    }
}

impl PartialEq<Value> for ValueRef<'_> {
    fn eq(&self, other: &Value) -> bool {
        *self == other.as_ref()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

/// One vertical fact: `(oid, attribute, value)`, owned — the form rows
/// decompose into and tests spell triples in. The store keeps
/// [`TripleSlab`](crate::slab::TripleSlab) records instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Triple {
    pub oid: String,
    pub attr: AttrName,
    pub value: Value,
}

impl Triple {
    pub fn new(oid: impl Into<String>, attr: impl Into<AttrName>, value: impl Into<Value>) -> Self {
        Self { oid: oid.into(), attr: attr.into(), value: value.into() }
    }

    /// Serialized size estimate (oid + attr + value + framing).
    pub fn repr_len(&self) -> usize {
        self.oid.len() + self.attr.as_str().len() + self.value.repr_len() + 12
    }
}

/// A horizontal row to be published: an oid plus its attribute/value pairs.
/// Convenience constructor for examples, tests and dataset loaders.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub oid: String,
    pub fields: Vec<(AttrName, Value)>,
}

impl Row {
    pub fn new<A, V, I>(oid: impl Into<String>, fields: I) -> Self
    where
        A: Into<AttrName>,
        V: Into<Value>,
        I: IntoIterator<Item = (A, V)>,
    {
        Self {
            oid: oid.into(),
            fields: fields.into_iter().map(|(a, v)| (a.into(), v.into())).collect(),
        }
    }

    /// The row as triples (the §3 decomposition).
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.fields.iter().map(|(a, v)| Triple {
            oid: self.oid.clone(),
            attr: a.clone(),
            value: v.clone(),
        })
    }

    /// Value of the first field named `attr`, if present.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.fields.iter().find(|(a, _)| a.as_str() == attr).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_namespace_split() {
        let a = AttrName::new("cars:price");
        assert_eq!(a.namespace(), Some("cars"));
        assert_eq!(a.local(), "price");
        let b = AttrName::new("price");
        assert_eq!(b.namespace(), None);
        assert_eq!(b.local(), "price");
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Str("s".into()).as_float(), None);
        assert_eq!(Value::Str("s".into()).as_str(), Some("s"));
    }

    #[test]
    fn row_decomposes_into_triples() {
        let row = Row::new("car:1", [("name", Value::from("BMW")), ("hp", Value::from(190))]);
        let ts: Vec<Triple> = row.triples().collect();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0], Triple::new("car:1", "name", "BMW"));
        assert_eq!(ts[1], Triple::new("car:1", "hp", 190));
        assert_eq!(row.get("hp"), Some(&Value::Int(190)));
        assert_eq!(row.get("missing"), None);
    }

    #[test]
    fn repr_len_counts_components() {
        let t = Triple::new("o", "a", "vvv");
        assert_eq!(t.repr_len(), 1 + 1 + 3 + 12);
        let n = Triple::new("o", "a", 5);
        assert_eq!(n.repr_len(), 1 + 1 + 8 + 12);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::from("x").to_string(), "x");
        assert_eq!(Value::from(7).to_string(), "7");
        assert_eq!(AttrName::new("ns:n").to_string(), "ns:n");
    }
}
