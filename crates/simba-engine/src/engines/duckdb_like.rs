//! `duckdb-like`: vectorized columnar execution.
//!
//! Mirrors a vectorized analytical engine: scans proceed morsel-at-a-time
//! (2048 rows) and skip every morsel when the compiled filter cannot match,
//! predicates run as typed kernels refining a selection vector, each
//! morsel's survivors feed the shared [`GroupTable`](crate::group::GroupTable)
//! (dictionary-code, hash or global key index; typed or boxed aggregate
//! columns), and an opt-in morsel-parallel mode fans contiguous morsel
//! ranges out to scoped worker threads whose partial tables merge in scan
//! order. All of that machinery lives in [`crate::batch`] and
//! [`crate::group`]; this engine uses it wholesale.

use crate::batch::{run_morsels, DeltaScan};
use crate::error::EngineError;
use crate::exec::{Catalog, QueryOutput};
use crate::Dbms;
use simba_sql::Select;
use simba_store::Table;
use std::sync::Arc;

/// Vectorized columnar engine (DuckDB-style architecture).
pub struct DuckDbLike {
    catalog: Catalog,
    scan_threads: usize,
}

impl Default for DuckDbLike {
    fn default() -> Self {
        Self::new()
    }
}

impl DuckDbLike {
    /// Sequential (single-threaded) scans.
    pub fn new() -> Self {
        Self::with_scan_threads(1)
    }

    /// Morsel-parallel scans across `threads` worker threads (`0` = one per
    /// available core). Results are identical to sequential execution for
    /// every exact aggregate; float SUM/AVG may differ in the last ulp
    /// because partial sums associate differently.
    pub fn with_scan_threads(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        DuckDbLike {
            catalog: Catalog::default(),
            scan_threads: threads,
        }
    }
}

impl Dbms for DuckDbLike {
    fn name(&self) -> &'static str {
        "duckdb-like"
    }

    fn scan_threads(&self) -> usize {
        self.scan_threads
    }

    fn register(&self, table: Arc<Table>) {
        self.catalog.register(table);
    }

    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
        super::execute_common(&self.catalog, query, None, |plan| {
            let (rows, stats, _) = run_morsels(plan, self.scan_threads, DeltaScan::Off);
            (rows, stats)
        })
    }

    /// Opts in to session-delta reuse: this engine owns its catalog
    /// in-process, so generation + snapshot identity checks are sound.
    fn execute_delta(
        &self,
        query: &Select,
        delta: &mut crate::delta::SessionDelta,
    ) -> Result<QueryOutput, EngineError> {
        crate::delta::execute_with_delta(&self.catalog, self.scan_threads, query, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sample_table;
    use simba_sql::parse_select;
    use simba_store::Value;

    fn engine() -> DuckDbLike {
        let e = DuckDbLike::new();
        e.register(Arc::new(sample_table()));
        e
    }

    #[test]
    fn dict_key_fast_path_counts() {
        let out = engine()
            .execute(&parse_select("SELECT queue, COUNT(*) FROM cs GROUP BY queue").unwrap())
            .unwrap();
        let rows = out.result.sorted_rows();
        // NULL group sorts first under the total order.
        assert_eq!(rows[0], vec![Value::Null, Value::Int(1)]);
        assert_eq!(rows[1], vec![Value::str("A"), Value::Int(2)]);
        assert_eq!(rows[2], vec![Value::str("B"), Value::Int(2)]);
    }

    #[test]
    fn in_filter_uses_dict_mask() {
        let out = engine()
            .execute(&parse_select("SELECT COUNT(*) FROM cs WHERE queue IN ('A')").unwrap())
            .unwrap();
        assert_eq!(out.result.value(0, 0), Value::Int(2));
    }

    #[test]
    fn generic_grouping_with_two_keys() {
        let out = engine()
            .execute(
                &parse_select("SELECT queue, HOUR(ts), COUNT(*) FROM cs GROUP BY queue, HOUR(ts)")
                    .unwrap(),
            )
            .unwrap();
        assert!(out.result.n_rows() >= 3);
    }

    #[test]
    fn range_filter_numeric_kernel() {
        let out = engine()
            .execute(&parse_select("SELECT COUNT(*) FROM cs WHERE calls BETWEEN 3 AND 7").unwrap())
            .unwrap();
        assert_eq!(out.result.value(0, 0), Value::Int(3)); // 5, 3, 7
    }

    #[test]
    fn zone_maps_prune_impossible_predicates() {
        let out = engine()
            .execute(&parse_select("SELECT COUNT(*) FROM cs WHERE calls > 1000").unwrap())
            .unwrap();
        assert_eq!(out.result.value(0, 0), Value::Int(0));
        assert_eq!(out.stats.morsels_pruned, 1);
        assert_eq!(out.stats.rows_scanned, 0);
    }

    #[test]
    fn parallel_scan_threads_report_and_agree() {
        let seq = engine();
        let par = DuckDbLike::with_scan_threads(3);
        par.register(Arc::new(sample_table()));
        assert_eq!(seq.scan_threads(), 1);
        assert_eq!(par.scan_threads(), 3);
        let q = parse_select(
            "SELECT queue, COUNT(*), SUM(calls), MIN(calls) FROM cs \
             WHERE calls >= 1 GROUP BY queue",
        )
        .unwrap();
        let a = seq.execute(&q).unwrap().result;
        let b = par.execute(&q).unwrap().result;
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }
}
