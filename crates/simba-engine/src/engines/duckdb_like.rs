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
    /// every exact aggregate. Float SUM/AVG are not: partial sums associate
    /// differently, and in ROADMAP item 20's probe (`customer_service` at
    /// 250K rows, one against two threads) all 32 float SUM/AVG queries
    /// differed.
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

    fn run(sql: &str) -> QueryOutput {
        engine().execute(&parse_select(sql).unwrap()).unwrap()
    }

    fn rows(sql: &str) -> Vec<Vec<Value>> {
        run(sql).result.sorted_rows()
    }

    fn row(queue: &str, ints: &[i64]) -> Vec<Value> {
        std::iter::once(Value::str(queue))
            .chain(ints.iter().map(|&i| Value::Int(i)))
            .collect()
    }

    #[test]
    fn dict_key_fast_path_counts() {
        let counts = rows("SELECT queue, COUNT(*) FROM cs GROUP BY queue");
        // NULL group sorts first under the total order.
        assert_eq!(counts[0], vec![Value::Null, Value::Int(1)]);
        assert_eq!(counts[1..], [row("A", &[2]), row("B", &[2])]);
    }

    #[test]
    fn grouped_sum_matches_expectation() {
        let sums = rows("SELECT queue, SUM(calls) FROM cs WHERE queue IS NOT NULL GROUP BY queue");
        assert_eq!(sums, [row("A", &[4]), row("B", &[12])]);
    }

    #[test]
    fn grouped_min_max() {
        let sql =
            "SELECT queue, MIN(calls), MAX(calls) FROM cs WHERE queue IS NOT NULL GROUP BY queue";
        assert_eq!(rows(sql), [row("A", &[1, 3]), row("B", &[5, 7])]);
    }

    #[test]
    fn order_by_aggregate_desc() {
        let out = run("SELECT queue, COUNT(*) AS n FROM cs GROUP BY queue ORDER BY n DESC LIMIT 1");
        assert_eq!(out.result.n_rows(), 1);
        assert_eq!(out.result.value(0, 1), Value::Int(2));
    }

    #[test]
    fn having_filters_groups() {
        let out = run("SELECT queue, COUNT(*) FROM cs GROUP BY queue HAVING COUNT(*) > 1");
        assert_eq!(out.result.n_rows(), 2); // A(2) and B(2)
    }

    #[test]
    fn projection_names_its_columns() {
        let out = run("SELECT queue, calls FROM cs WHERE calls >= 3");
        assert_eq!(out.result.n_rows(), 3);
        assert_eq!(out.result.columns(), vec!["queue", "calls"]);
    }

    #[test]
    fn empty_candidates_short_circuit() {
        let out = run("SELECT queue FROM cs WHERE calls > 100");
        assert!(out.result.is_empty());
        assert_eq!(out.stats.rows_matched, 0);
    }

    #[test]
    fn typed_aggregation_matches_boxed_path() {
        // AVG(duration) and SUM(calls) are typed columns; COUNT(DISTINCT ts)
        // adds a boxed one beside them, which must not change theirs.
        let typed = rows("SELECT queue, AVG(duration), SUM(calls) FROM cs GROUP BY queue");
        let mut boxed = rows(
            "SELECT queue, AVG(duration), SUM(calls), COUNT(DISTINCT ts) FROM cs GROUP BY queue",
        );
        boxed.iter_mut().for_each(|r| r.truncate(3));
        assert_eq!(typed, boxed);
    }

    #[test]
    fn in_filter_uses_dict_mask() {
        let out = run("SELECT COUNT(*) FROM cs WHERE queue IN ('A')");
        assert_eq!(out.result.value(0, 0), Value::Int(2));
    }

    #[test]
    fn generic_grouping_with_two_keys() {
        let out = run("SELECT queue, HOUR(ts), COUNT(*) FROM cs GROUP BY queue, HOUR(ts)");
        assert!(out.result.n_rows() >= 3);
    }

    #[test]
    fn range_filter_numeric_kernel() {
        let out = run("SELECT COUNT(*) FROM cs WHERE calls BETWEEN 3 AND 7");
        assert_eq!(out.result.value(0, 0), Value::Int(3)); // 5, 3, 7
    }

    #[test]
    fn zone_maps_prune_impossible_predicates() {
        let out = run("SELECT COUNT(*) FROM cs WHERE calls > 1000");
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
