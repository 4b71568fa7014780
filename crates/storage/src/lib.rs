//! # sqo-storage — the vertically-oriented data organization
//!
//! Implements §3/§4 of the paper: relational rows are decomposed into RDF-
//! style triples `(oid, A, v)`, and each triple is posted into the overlay
//! under several keys — the oid index, the attribute-value index, the
//! keyword index, and (for similarity support) one posting per q-gram of
//! string values (instance level) and of attribute names (schema level).
//!
//! * [`triple`] — `Triple`, `Row`, `AttrName`, `Value`, `SharedStrs`.
//! * [`keys`] — the key families and their order/prefix guarantees.
//! * [`posting`] — stored index entries and object reassembly.
//! * [`publish`] — the row → postings pipeline with overhead accounting.

pub mod keys;
pub mod posting;
pub mod publish;
pub mod triple;

pub use keys::IndexFamily;
pub use posting::{BaseKind, Object, Posting};
pub use publish::{postings_for_rows, postings_for_triple, PublishConfig, PublishStats};
pub use triple::{AttrName, Row, SharedStrs, Triple, TripleRef, Value};
