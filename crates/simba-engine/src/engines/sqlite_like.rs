//! `sqlite-like`: a row-at-a-time Volcano interpreter over row views.
//!
//! Mirrors an embedded row store: every row is fully materialized before the
//! predicate runs (SQLite reads whole records from B-tree pages), expressions
//! are interpreted per row, and grouping uses an ordered map (SQLite sorts or
//! B-trees its temporaries). No vectorization, no lazy column access — the
//! slowest but simplest architecture. The implementation *is* the shared
//! row-path oracle ([`crate::exec::run_row`]): keeping this engine
//! row-at-a-time preserves the latency spread the benchmark measures and
//! gives the vectorized engine a reference to be property-tested against.

use crate::error::EngineError;
use crate::exec::{run_row, Catalog, QueryOutput};
use crate::Dbms;
use simba_sql::Select;
use simba_store::Table;
use std::sync::Arc;

/// Row-at-a-time interpreter engine (SQLite-style architecture).
#[derive(Default)]
pub struct SqliteLike {
    catalog: Catalog,
}

impl SqliteLike {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Dbms for SqliteLike {
    fn name(&self) -> &'static str {
        "sqlite-like"
    }

    fn register(&self, table: Arc<Table>) {
        self.catalog.register(table);
    }

    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
        super::execute_common(&self.catalog, query, None, run_row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sample_table;
    use simba_sql::parse_select;
    use simba_store::Value;

    fn engine() -> SqliteLike {
        let e = SqliteLike::new();
        e.register(Arc::new(sample_table()));
        e
    }

    #[test]
    fn filters_and_projects() {
        let out = engine()
            .execute(&parse_select("SELECT queue FROM cs WHERE calls > 4").unwrap())
            .unwrap();
        assert_eq!(out.result.n_rows(), 2);
        assert_eq!(out.stats.rows_matched, 2);
    }

    #[test]
    fn grouped_count() {
        let out = engine()
            .execute(&parse_select("SELECT queue, COUNT(*) FROM cs GROUP BY queue").unwrap())
            .unwrap();
        let rows = out.result.sorted_rows();
        assert_eq!(rows.len(), 3); // A, B, NULL group
        assert_eq!(out.stats.groups, 3);
    }

    #[test]
    fn global_aggregate_over_empty_filter() {
        let out = engine()
            .execute(
                &parse_select("SELECT COUNT(*), SUM(calls) FROM cs WHERE calls > 999").unwrap(),
            )
            .unwrap();
        assert_eq!(out.result.n_rows(), 1);
        assert_eq!(out.result.value(0, 0), Value::Int(0));
        assert!(out.result.value(0, 1).is_null());
    }

    #[test]
    fn unknown_table_error() {
        let e = SqliteLike::new();
        let err = e
            .execute(&parse_select("SELECT a FROM missing").unwrap())
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownTable(_)));
    }

    #[test]
    fn never_prunes_morsels() {
        let out = engine()
            .execute(&parse_select("SELECT COUNT(*) FROM cs WHERE calls > 1000").unwrap())
            .unwrap();
        assert_eq!(out.stats.morsels_pruned, 0, "row path reads every row");
    }
}
