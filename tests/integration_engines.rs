//! Cross-crate engine tests: the two architectures over real benchmark
//! datasets and dashboard-emitted queries.

use simba::prelude::*;
use std::sync::Arc;

/// Dashboard-shaped queries over the customer service dataset.
fn workload() -> Vec<Select> {
    [
        "SELECT COUNT(lost_calls) FROM customer_service",
        "SELECT queue, COUNT(calls) FROM customer_service GROUP BY queue",
        "SELECT queue, hour, call_direction, COUNT(calls) FROM customer_service \
         WHERE queue IN ('A') GROUP BY queue, hour, call_direction",
        "SELECT rep_id, COUNT(calls) FROM customer_service GROUP BY rep_id \
         ORDER BY COUNT(calls) DESC LIMIT 5",
        "SELECT SUM(abandoned), COUNT(calls) FROM customer_service WHERE hour BETWEEN 9 AND 17",
        "SELECT hour, COUNT(calls) AS call_volume, SUM(abandoned) AS call_abandonment \
         FROM customer_service GROUP BY hour",
        "SELECT queue, COUNT(lost_calls) FROM customer_service GROUP BY queue \
         HAVING COUNT(lost_calls) > 1",
        "SELECT queue, AVG(handle_time) FROM customer_service \
         WHERE call_direction = 'incoming' AND satisfaction >= 3 GROUP BY queue",
    ]
    .iter()
    .map(|s| parse_select(s).unwrap())
    .collect()
}

#[test]
fn four_engines_agree_on_dashboard_workload() {
    let table = Arc::new(DashboardDataset::CustomerService.generate_rows(5_000, 42));
    let engines = all_engines();
    for e in &engines {
        e.register(table.clone());
    }
    for query in workload() {
        let base = engines[0].execute(&query).unwrap().result;
        for e in &engines[1..] {
            let rs = e.execute(&query).unwrap().result;
            if query.order_by.is_empty() {
                assert!(
                    base.multiset_eq(&rs),
                    "{} disagrees with {} on `{query}`",
                    e.name(),
                    engines[0].name()
                );
            } else {
                // With ORDER BY + LIMIT ties may break differently, but row
                // count and the sort-key column must agree.
                assert_eq!(base.n_rows(), rs.n_rows(), "`{query}`");
            }
        }
    }
}

#[test]
fn engines_agree_on_every_dataset() {
    for ds in DashboardDataset::ALL {
        let table = Arc::new(ds.generate_rows(2_000, 7));
        let engines = all_engines();
        for e in &engines {
            e.register(table.clone());
        }
        // A generic query valid on every dataset: count rows by first column.
        let first_col = &ds.schema().columns[0].name;
        let sql = format!(
            "SELECT {first_col}, COUNT(*) FROM {} GROUP BY {first_col}",
            ds.table_name()
        );
        let query = parse_select(&sql).unwrap();
        let base = engines[0].execute(&query).unwrap().result;
        for e in &engines[1..] {
            let rs = e.execute(&query).unwrap().result;
            assert!(base.multiset_eq(&rs), "{} on {}", e.name(), ds.title());
        }
    }
}

#[test]
fn execution_stats_are_consistent() {
    let table = Arc::new(DashboardDataset::ItMonitor.generate_rows(3_000, 5));
    let engines = all_engines();
    for e in &engines {
        e.register(table.clone());
    }
    let query = parse_select(
        "SELECT service, COUNT(*) FROM it_monitor WHERE severity IN ('error', 'critical') \
         GROUP BY service",
    )
    .unwrap();
    let outputs: Vec<_> = engines.iter().map(|e| e.execute(&query).unwrap()).collect();
    for out in &outputs {
        assert_eq!(out.stats.rows_scanned, 3_000);
        assert!(out.stats.rows_matched <= out.stats.rows_scanned);
        assert_eq!(out.stats.groups, out.result.n_rows());
    }
    // All engines must see the same match counts (same predicate semantics).
    for out in &outputs[1..] {
        assert_eq!(out.stats.rows_matched, outputs[0].stats.rows_matched);
    }
}

#[test]
fn engine_errors_are_typed_not_panics() {
    let engine = EngineKind::SqliteLike.build();
    let table = Arc::new(DashboardDataset::MyRide.generate_rows(100, 1));
    engine.register(table);

    // Unknown table.
    let q = parse_select("SELECT x FROM nope").unwrap();
    assert!(engine.execute(&q).is_err());
    // Unknown column.
    let q = parse_select("SELECT missing_col FROM my_ride").unwrap();
    assert!(engine.execute(&q).is_err());
    // Ungrouped column.
    let q =
        parse_select("SELECT terrain, weather, COUNT(*) FROM my_ride GROUP BY terrain").unwrap();
    assert!(engine.execute(&q).is_err());
}

#[test]
fn empty_table_queries_behave() {
    let engine = EngineKind::DuckDbLike.build();
    let table = Arc::new(DashboardDataset::CustomerService.generate_rows(0, 1));
    engine.register(table);
    let grouped =
        parse_select("SELECT queue, COUNT(*) FROM customer_service GROUP BY queue").unwrap();
    assert_eq!(engine.execute(&grouped).unwrap().result.n_rows(), 0);
    let global = parse_select("SELECT COUNT(*), SUM(calls) FROM customer_service").unwrap();
    let rs = engine.execute(&global).unwrap().result;
    assert_eq!(rs.n_rows(), 1);
    assert_eq!(rs.value(0, 0), Value::Int(0));
    assert!(rs.value(0, 1).is_null());
}

#[test]
fn scale_increases_work_not_results_shape() {
    // Result shape (groups) stays fixed as data grows; scanned rows grow.
    let engine = EngineKind::DuckDbLike.build();
    let small = Arc::new(DashboardDataset::CustomerService.generate_rows(1_000, 2));
    let query =
        parse_select("SELECT queue, COUNT(*) FROM customer_service GROUP BY queue").unwrap();

    engine.register(small);
    let small_out = engine.execute(&query).unwrap();

    let large = Arc::new(DashboardDataset::CustomerService.generate_rows(10_000, 2));
    engine.register(large);
    let large_out = engine.execute(&query).unwrap();

    assert_eq!(small_out.result.n_rows(), large_out.result.n_rows());
    assert!(large_out.stats.rows_scanned > small_out.stats.rows_scanned);
}
