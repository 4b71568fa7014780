//! # sqo-storage — the vertically-oriented data organization
//!
//! Implements §3/§4 of the paper: relational rows are decomposed into RDF-
//! style triples `(oid, A, v)`, and each triple is posted into the overlay
//! under several keys — the oid index, the attribute-value index, the
//! keyword index, and (for similarity support) one posting per q-gram of
//! string values (instance level) and of attribute names (schema level).
//!
//! * [`triple`] — `Triple`, `Row`, `AttrName`, `Value`: triples outside
//!   the store.
//! * [`slab`] — `TripleSlab`, `TripleRef`: the triples of one batch as
//!   stored, fixed-width records over one text arena.
//! * [`keys`] — the key families and their order/prefix guarantees.
//! * [`objects`] — each object's dense number and where its fetch is
//!   answered.
//! * [`posting`] — stored index entries (24 bytes each) and object
//!   reassembly: an object's postings as handles, materialized on demand.
//! * [`publish`] — the row → postings pipeline with overhead accounting.

pub mod keys;
pub mod objects;
pub mod posting;
pub mod publish;
pub mod slab;
pub mod triple;

pub use keys::IndexFamily;
pub use objects::{Objects, Spot};
pub use posting::{BaseKind, Object, ObjectPostings, Posting, PostingKind};
pub use publish::{
    batch_for_rows, postings_for_rows, postings_for_triple, PostingBatch, PublishConfig,
    PublishStats,
};
pub use slab::{AttrGuard, GramInterner, GramSpan, SlabBuilder, SlabFull, TripleRef, TripleSlab};
pub use triple::{AttrName, Row, Triple, Value, ValueRef};
