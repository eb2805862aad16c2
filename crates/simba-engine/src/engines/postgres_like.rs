//! `postgres-like`: a row engine with lazy attribute access and block-wise
//! aggregation.
//!
//! Mirrors a server-class row store executing analytics without indexes:
//! the scan proceeds in page-sized blocks, predicates run through the shared
//! filter kernels over each block's selection vector (touching only the
//! attributes a conjunct references — PostgreSQL's slot-based lazy attribute
//! access), and each block's survivors are grouped through the shared
//! [`GroupTable`], one `update` per block: the key index, then each
//! aggregate column (typed over raw slices, or boxed accumulators).

use crate::batch::{fill_filtered, SelectionVector};
use crate::error::EngineError;
use crate::eval::{eval, TableRow};
use crate::exec::{compile_kernels, Catalog, ExecStats, QueryOutput};
use crate::group::GroupTable;
use crate::plan::{PreparedQuery, QueryKind};
use crate::Dbms;
use simba_sql::Select;
use simba_store::{ResultBuilder, Table};
use std::sync::Arc;

/// Rows per scan block (loop blocking akin to page-at-a-time access).
const BLOCK: usize = 1024;

/// Lazy row engine with block-wise aggregation (PostgreSQL-style architecture).
#[derive(Default)]
pub struct PostgresLike {
    catalog: Catalog,
}

impl PostgresLike {
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
        let kernels = plan.filter.as_ref().map(|f| compile_kernels(f, table));
        let mut sel = SelectionVector::with_capacity(BLOCK);

        match &plan.kind {
            QueryKind::Project { exprs } => {
                let mut rows = ResultBuilder::new(exprs.len());
                for block_start in (0..n).step_by(BLOCK) {
                    let end = (block_start + BLOCK).min(n);
                    fill_filtered(&mut sel, table, block_start, end, kernels.as_deref());
                    stats.rows_matched += sel.len();
                    for &i in sel.as_slice() {
                        let ctx = TableRow {
                            table,
                            row: i as usize,
                        };
                        rows.push_row(exprs.iter().map(|e| eval(e, &ctx)));
                    }
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
                for block_start in (0..n).step_by(BLOCK) {
                    let end = (block_start + BLOCK).min(n);
                    fill_filtered(&mut sel, table, block_start, end, kernels.as_deref());
                    stats.rows_matched += sel.len();
                    groups.update(table, sel.as_slice());
                }
                stats.groups = groups.len();
                (groups.into_rows(table, projections, having.as_ref()), stats)
            }
        }
    }
}

impl Dbms for PostgresLike {
    fn name(&self) -> &'static str {
        "postgres-like"
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
    use simba_store::Value;

    fn engine() -> PostgresLike {
        let e = PostgresLike::new();
        e.register(Arc::new(sample_table()));
        e
    }

    #[test]
    fn grouped_sum_matches_expectation() {
        let out = engine()
            .execute(
                &parse_select(
                    "SELECT queue, SUM(calls) FROM cs WHERE queue IS NOT NULL GROUP BY queue",
                )
                .unwrap(),
            )
            .unwrap();
        let mut rows = out.result.sorted_rows();
        rows.retain(|r| !r[0].is_null());
        assert_eq!(rows[0], vec![Value::str("A"), Value::Int(4)]);
        assert_eq!(rows[1], vec![Value::str("B"), Value::Int(12)]);
    }

    #[test]
    fn order_by_aggregate_desc() {
        let out = engine()
            .execute(
                &parse_select(
                    "SELECT queue, COUNT(*) AS n FROM cs GROUP BY queue ORDER BY n DESC LIMIT 1",
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(out.result.n_rows(), 1);
        assert_eq!(out.result.value(0, 1), Value::Int(2));
    }

    #[test]
    fn having_filters_groups() {
        let out = engine()
            .execute(
                &parse_select("SELECT queue, COUNT(*) FROM cs GROUP BY queue HAVING COUNT(*) > 1")
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(out.result.n_rows(), 2); // A(2) and B(2)
    }
}
