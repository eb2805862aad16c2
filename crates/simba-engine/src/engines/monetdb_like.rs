//! `monetdb-like`: operator-at-a-time columnar execution with full
//! materialization.
//!
//! Mirrors MonetDB's BAT algebra: each operator consumes and produces fully
//! materialized intermediate vectors. Selection runs one conjunct at a time
//! over the *whole* candidate vector (a single table-sized "morsel" — no
//! blocking), each pass a shared batch kernel. Aggregation is
//! BAT-wise too: the whole candidate vector goes through the shared
//! [`GroupTable`] in one `update` — one pass of the key index, then one
//! whole-vector pass per aggregate column. Projections materialize each
//! output column in full before zipping rows. Fast per operator, but pays
//! full intermediate-materialization cost.

use crate::batch::{fill_filtered, SelectionVector};
use crate::error::EngineError;
use crate::eval::{eval, CExpr, TableRow};
use crate::exec::{compile_kernels, Catalog, ExecStats, QueryOutput};
use crate::group::GroupTable;
use crate::plan::{PreparedQuery, QueryKind};
use crate::Dbms;
use simba_sql::Select;
use simba_store::{ResultBuilder, Table, Value};
use std::sync::Arc;

/// Operator-at-a-time columnar engine (MonetDB-style architecture).
#[derive(Default)]
pub struct MonetDbLike {
    catalog: Catalog,
}

impl MonetDbLike {
    pub fn new() -> Self {
        Self::default()
    }

    fn run(plan: &PreparedQuery) -> (ResultBuilder, ExecStats) {
        let table = &plan.table;
        let n = table.row_count();
        let mut stats = ExecStats {
            rows_scanned: n,
            ..ExecStats::default()
        };

        // Selection phase: one fully materialized candidate vector per
        // kernel (BAT-style) — each column's folded filter is one
        // whole-vector pass.
        let kernels = plan.filter.as_ref().map(|f| compile_kernels(f, table));
        let mut sel = SelectionVector::with_capacity(n);
        fill_filtered(&mut sel, table, 0, n, kernels.as_deref());
        stats.rows_matched = sel.len();
        let candidates = sel.as_slice();

        match &plan.kind {
            QueryKind::Project { exprs } => {
                // Materialize each projection column fully, then zip.
                let cols: Vec<Vec<Value>> = exprs
                    .iter()
                    .map(|e| materialize(e, table, candidates))
                    .collect();
                let mut columns: Vec<_> = cols.into_iter().map(Vec::into_iter).collect();
                let mut rows = ResultBuilder::with_capacity(exprs.len(), candidates.len());
                for _ in candidates {
                    rows.push_row(columns.iter_mut().flat_map(Iterator::next));
                }
                (rows, stats)
            }
            QueryKind::Aggregate {
                keys,
                aggs,
                projections,
                having,
            } => {
                let mut groups = GroupTable::new(keys, aggs, table);
                groups.update(table, candidates);
                stats.groups = groups.len();
                (groups.into_rows(table, projections, having.as_ref()), stats)
            }
        }
    }
}

/// Fully materialize an expression over the candidate vector.
fn materialize(e: &CExpr, table: &Table, candidates: &[u32]) -> Vec<Value> {
    candidates
        .iter()
        .map(|&i| {
            eval(
                e,
                &TableRow {
                    table,
                    row: i as usize,
                },
            )
        })
        .collect()
}

impl Dbms for MonetDbLike {
    fn name(&self) -> &'static str {
        "monetdb-like"
    }

    fn register(&self, table: Arc<Table>) {
        self.catalog.register(table);
    }

    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
        super::execute_common(&self.catalog, query, None, Self::run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sample_table;
    use simba_sql::parse_select;

    fn engine() -> MonetDbLike {
        let e = MonetDbLike::new();
        e.register(Arc::new(sample_table()));
        e
    }

    #[test]
    fn projection_materializes_columns() {
        let out = engine()
            .execute(&parse_select("SELECT queue, calls FROM cs WHERE calls >= 3").unwrap())
            .unwrap();
        assert_eq!(out.result.n_rows(), 3);
        assert_eq!(out.result.columns(), vec!["queue", "calls"]);
    }

    #[test]
    fn grouped_min_max() {
        let out = engine()
            .execute(
                &parse_select(
                    "SELECT queue, MIN(calls), MAX(calls) FROM cs \
                     WHERE queue IS NOT NULL GROUP BY queue",
                )
                .unwrap(),
            )
            .unwrap();
        let rows = out.result.sorted_rows();
        assert_eq!(rows[0], vec![Value::str("A"), Value::Int(1), Value::Int(3)]);
        assert_eq!(rows[1], vec![Value::str("B"), Value::Int(5), Value::Int(7)]);
    }

    #[test]
    fn empty_candidates_short_circuit() {
        let out = engine()
            .execute(&parse_select("SELECT queue FROM cs WHERE calls > 100").unwrap())
            .unwrap();
        assert!(out.result.is_empty());
        assert_eq!(out.stats.rows_matched, 0);
    }

    #[test]
    fn typed_bat_aggregation_matches_materialized_path() {
        // AVG(duration) and SUM(calls) are typed columns; COUNT(DISTINCT ts)
        // adds a boxed one beside them, which must not change theirs.
        let typed = engine()
            .execute(
                &parse_select("SELECT queue, AVG(duration), SUM(calls) FROM cs GROUP BY queue")
                    .unwrap(),
            )
            .unwrap();
        let fallback = engine()
            .execute(
                &parse_select(
                    "SELECT queue, AVG(duration), SUM(calls), COUNT(DISTINCT ts) \
                     FROM cs GROUP BY queue",
                )
                .unwrap(),
            )
            .unwrap();
        let typed_rows = typed.result.sorted_rows();
        let fb_rows = fallback.result.sorted_rows();
        assert_eq!(typed_rows.len(), fb_rows.len());
        for (t, f) in typed_rows.iter().zip(&fb_rows) {
            assert_eq!(t[..3], f[..3]);
        }
    }
}
