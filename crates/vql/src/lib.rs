//! # sqo-vql — the Vertical Query Language
//!
//! §3 of the paper introduces VQL, a SPARQL-flavoured query language over
//! the vertical triple scheme: `SELECT`/`WHERE` blocks of triple patterns,
//! `FILTER` predicates with a `dist()` similarity function (edit distance
//! for strings, Euclidean for numbers), nearest-neighbor `ORDER BY … NN`,
//! `LIMIT` and `OFFSET`. The paper gives the language informally through
//! three example queries; this crate makes it executable:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — text → AST (round-trip printable);
//! * [`mod@plan`] — AST → one `sqo-plan` leaf per subject (lookup / exact /
//!   range / numeric- or string-similarity / schema-similarity / scan) plus
//!   join predicates;
//! * [`exec`] — materialize-and-join execution over the `sqo-core`
//!   operators, with full message accounting.
//!
//! ```
//! use sqo_core::EngineBuilder;
//! use sqo_storage::Row;
//! use sqo_vql::{run, ExecOptions};
//!
//! let rows = vec![
//!     Row::new("car:1", [("name", "BMW 320d")]),
//!     Row::new("car:2", [("name", "Audi A4")]),
//! ];
//! let mut engine = EngineBuilder::new().peers(16).build_with_rows(&rows);
//! let from = engine.random_peer();
//! let out = run(
//!     &mut engine,
//!     from,
//!     "SELECT ?n WHERE { (?o,name,?n) FILTER (dist(?n,'BMW 320i') < 3) }",
//!     &ExecOptions::default(),
//! ).unwrap();
//! assert_eq!(out.rows.len(), 1);
//! ```

pub mod ast;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use ast::{CmpOp, Filter, Operand, OrderBy, Query, Term, TriplePattern};
pub use error::{Result, VqlError};
pub use exec::{execute, run, ExecOptions, QueryOutput, VqlTask};
pub use parser::parse;
pub use plan::{plan, Plan, SubjectPlan};
