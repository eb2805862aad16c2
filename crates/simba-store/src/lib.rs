//! Storage substrate for the SIMBA benchmark.
//!
//! The paper evaluates DBMSs over *denormalized* datasets (§6.2.2), so the
//! storage model is a single flat table per dashboard. This crate provides:
//!
//! * [`value`] — the dynamic [`Value`] type shared by all engines.
//! * [`schema`] — logical schemas with the paper's column taxonomy
//!   (Categorical / Quantitative / Temporal).
//! * [`mod@column`] — dictionary-encoded columnar storage, every Int value
//!   and dictionary code at the narrowest width its column needs.
//! * [`narrow`] — [`NarrowVec`], the integer vector that stores them, and
//!   [`for_width!`], which expands a reader's loop once per width.
//! * [`table`] — the in-memory table (columnar layout with row views, so
//!   both row-oriented and column-oriented engines share one copy).
//! * [`result`] — query [`ResultSet`]s with the multiset/subsumption/overlap
//!   operations the equivalence suite (§4.1.2) is built on.
//! * [`zonemap`] — one min/max per Int/Float column, which settles a
//!   comparison that cannot match before any row is read, and the morsel
//!   grid scans batch on.
//! * [`append`] — chunk-append assembly for chunk-parallel dataset
//!   generation (bulk column append, dictionary remap).
//! * [`mix`] — the one SplitMix64 seed mixer and the one FNV-1a hasher every
//!   crate derives seeds and digests with.
//! * [`probe`] — [`ProbeMap`], the hash map for lookups that are never
//!   iterated.

#![warn(missing_docs)]

pub mod append;
pub mod column;
pub mod mix;
pub mod narrow;
pub mod probe;
pub mod result;
pub mod schema;
pub mod table;
pub mod value;
pub mod zonemap;

pub use append::{TableAssembler, TableChunk};
pub use column::{ColumnBuilder, ColumnData};
pub use narrow::NarrowVec;
pub use probe::ProbeMap;
pub use result::{CoverageStore, ResultBuilder, ResultSet, Row, ValueRef};
pub use schema::{ColumnDef, ColumnRole, DataType, Schema};
pub use table::{RowWriter, Table, TableBuilder};
pub use value::Value;
pub use zonemap::{Zone, ZoneMaps, MORSEL_ROWS};
