//! Criterion microbenchmarks: the four engine architectures on fixed
//! dashboard-shaped queries (supports the §6 engine comparison) and the
//! filter compiler's kernels against what they replace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simba_data::DashboardDataset;
use simba_engine::batch::{fill_filtered, SelectionVector, MORSEL};
use simba_engine::exec::{cexpr_conjuncts, compile_kernels, Kernel};
use simba_engine::plan::compile_row_expr;
use simba_engine::{Dbms, EngineKind};
use simba_sql::parse_select;
use simba_store::Table;
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 50_000;

fn queries() -> Vec<(&'static str, simba_sql::Select)> {
    [
        ("stat", "SELECT COUNT(lost_calls) FROM customer_service"),
        (
            "filtered_stat",
            "SELECT SUM(abandoned), COUNT(calls) FROM customer_service WHERE queue IN ('A')",
        ),
        (
            "group_1key",
            "SELECT queue, COUNT(calls) FROM customer_service GROUP BY queue",
        ),
        (
            "group_3key",
            "SELECT queue, hour, call_direction, COUNT(calls) FROM customer_service \
             GROUP BY queue, hour, call_direction",
        ),
        (
            "range_filter",
            "SELECT rep_id, AVG(handle_time) FROM customer_service \
             WHERE hour BETWEEN 9 AND 17 GROUP BY rep_id",
        ),
    ]
    .iter()
    .map(|(name, sql)| (*name, parse_select(sql).unwrap()))
    .collect()
}

fn bench_engines(c: &mut Criterion) {
    let table = Arc::new(DashboardDataset::CustomerService.generate_rows(ROWS, 42));
    let engines: Vec<(EngineKind, Arc<dyn Dbms>)> = EngineKind::ALL
        .into_iter()
        .map(|k| {
            let e = k.build();
            e.register(table.clone());
            (k, e)
        })
        .collect();

    let mut group = c.benchmark_group("engines");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for (name, query) in queries() {
        for (kind, engine) in &engines {
            group.bench_with_input(BenchmarkId::new(name, kind.name()), &query, |b, q| {
                b.iter(|| engine.execute(q).unwrap().result.n_rows())
            });
        }
    }
    group.finish();
}

/// Rows of `table` passing `kernels`, scanned morsel by morsel.
fn count_matches(table: &Table, kernels: &[Kernel]) -> usize {
    let mut sel = SelectionVector::with_capacity(MORSEL);
    let mut matched = 0;
    for start in (0..table.row_count()).step_by(MORSEL) {
        let end = (start + MORSEL).min(table.row_count());
        fill_filtered(&mut sel, table, start, end, Some(kernels));
        matched += sel.len();
    }
    matched
}

/// `filter/`: a `BETWEEN` as the typed range kernel and as the row
/// interpreter evaluates it, and a storm-shaped stack of conjuncts folded
/// to one kernel per column and left one kernel per conjunct.
fn bench_filters(c: &mut Criterion) {
    let table = DashboardDataset::CustomerService.generate_rows(100_000, 42);
    let compile = |filter: &str| {
        let sql = format!("SELECT calls FROM customer_service WHERE {filter}");
        let filter = parse_select(&sql).unwrap().where_clause.unwrap();
        compile_row_expr(&filter, table.schema()).unwrap()
    };
    let range = compile("handle_time BETWEEN 120.0 AND 480.0");
    let stacked = compile(
        "handle_time BETWEEN 60.0 AND 600.0 AND hour >= 8 AND queue IN ('A', 'B', 'C') \
         AND handle_time <= 480.0 AND hour BETWEEN 9 AND 17 AND queue NOT IN ('B')",
    );
    let variants = [
        ("range/typed", compile_kernels(&range, &table)),
        ("range/interpreter", vec![Kernel::Generic(range.clone())]),
        ("stacked/combined", compile_kernels(&stacked, &table)),
        (
            "stacked/uncombined",
            cexpr_conjuncts(&stacked)
                .into_iter()
                .flat_map(|conjunct| compile_kernels(conjunct, &table))
                .collect(),
        ),
    ];

    let mut group = c.benchmark_group("filter");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for (name, kernels) in &variants {
        group.bench_function(name, |b| b.iter(|| count_matches(&table, kernels)));
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_filters);
criterion_main!(benches);
