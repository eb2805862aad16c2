//! SQL frontend for the SIMBA benchmark.
//!
//! Dashboards emit a constrained SQL fragment (single-table aggregation
//! queries with conjunctive predicates — see §2–§3 of the paper). This crate
//! provides everything the benchmark needs to create, parse, print, and
//! reason about that fragment:
//!
//! * [`ast`] — the abstract syntax tree ([`Select`], [`Expr`], [`Literal`]).
//! * [`parser`] — a recursive-descent parser ([`parse_select`], [`parse_expr`]).
//! * [`printer`] — a canonical pretty-printer (every AST prints to a unique,
//!   stable textual form, making *syntactic* equivalence meaningful).
//! * [`normalize`] — [`NormalizedSelect`], the one analysis of a query
//!   (flattened conjuncts, folded constants, sorted commutative operands,
//!   aggregate-slot layout). A layer builds it once per query; the result
//!   cache key, the session-delta keys, the refinement verdict and the sets
//!   the equivalence suite compares are all read off it.
//! * [`implication`] — sound-but-incomplete predicate implication over a
//!   normalized clause ([`Conjunction`]), the basis of query subsumption and
//!   refinement checks.
//! * [`refine`] — the delta keys and the refinement verdict as functions of a
//!   `Select`, for callers that hold no form.
//! * [`spelling`] — [`Spelling`], a query's exact identity as written (where
//!   `Expr`'s `==` is value equality), and [`same_spelling`] for expressions.
//! * [`similarity`] — whitespace-insensitive string similarity implementing
//!   the paper's ">95% match" fallback rule (§4.1.2).
//!
//! # Example
//!
//! ```
//! use simba_sql::{parse_select, normalize::NormalizedSelect};
//!
//! let a = parse_select("SELECT queue, COUNT(*) FROM cs GROUP BY queue").unwrap();
//! let b = parse_select("select queue, count( * ) from cs group by queue").unwrap();
//! assert_eq!(NormalizedSelect::from_select(&a), NormalizedSelect::from_select(&b));
//! ```

pub mod ast;
pub mod error;
pub mod implication;
pub mod normalize;
pub mod parser;
pub mod printer;
pub mod refine;
pub mod similarity;
pub mod spelling;
pub mod token;

pub use ast::{BinOp, Expr, Func, Literal, OrderByExpr, Select, SelectItem, UnaryOp};
pub use error::{ParseError, SqlError};
pub use implication::Conjunction;
pub use normalize::{aggregate_calls, query_cache_key, substitute_aliases, NormalizedSelect};
pub use parser::{parse_expr, parse_select};
pub use refine::{delta_key, is_refinement, states_key};
pub use spelling::{same_spelling, Spelling};
