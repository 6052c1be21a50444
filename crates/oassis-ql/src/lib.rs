//! # oassis-ql — the OASSIS-QL query language (Section 3)
//!
//! OASSIS-QL extends a SPARQL-like triple-pattern language with crowd-mining
//! constructs. A query has three parts (Figure 2 of the paper):
//!
//! ```text
//! SELECT FACT-SETS               -- or VARIABLES; optional ALL
//! WHERE
//!   $w subClassOf* Attraction.   -- SPARQL-like selection over the ontology
//!   $x instanceOf $w.
//!   $x hasLabel "child-friendly".
//!   ...
//! SATISFYING
//!   $y+ doAt $x.                 -- the data patterns mined from the crowd
//!   [] eatAt $z.                 -- `[]` is an existential wildcard
//!   MORE                         -- "plus other relevant advice"
//! WITH SUPPORT = 0.4
//! ```
//!
//! This crate provides:
//! * [`ast`] — the abstract syntax tree ([`Query`], [`TriplePattern`],
//!   [`Multiplicity`], …) and a canonical pretty-printer;
//! * [`parse`](parse()) — a hand-written lexer + recursive-descent parser
//!   with positioned errors;
//! * [`bind()`](bind()) — name resolution against an [`ontology::Ontology`], yielding
//!   a [`BoundQuery`] with interned ids and the satisfying-clause meta
//!   fact-set;
//! * [`eval`] — evaluation of the WHERE clause, producing the **base valid
//!   assignments** (multiplicity 1) that seed the assignment DAG of
//!   Section 4. Two match modes are supported: [`MatchMode::Exact`]
//!   replicates the paper's RDFLIB/SPARQL engine (triples match asserted
//!   facts), while [`MatchMode::Semantic`] matches modulo the fact order of
//!   Definition 2.5 (`φ(A_WHERE) ≤ O`).

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod ast;
pub mod bind;
pub mod eval;
mod lex;
mod parse;

pub use ast::{
    Multiplicity, OutputFormat, Pred, Query, SatisfyingClause, SelectClause, Term, TriplePattern,
};
pub use bind::{bind, BoundQuery, FactTerm, MetaFact, RelTerm, Value, VarId, VarInfo};
pub use eval::{evaluate_where, BaseAssignment, MatchMode};
pub use parse::{parse, QlError};
