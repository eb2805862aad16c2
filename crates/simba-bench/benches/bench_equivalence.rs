//! Criterion microbenchmarks for the equivalence suite (§4.1.2) —
//! the cost ladder syntactic < semantic < result that justifies checking in
//! that order.

use criterion::{criterion_group, criterion_main, Criterion};
use simba_core::equivalence::{subsumes, syntactic_equivalent};
use simba_sql::implication::implies;
use simba_sql::normalize::NormalizedSelect;
use simba_sql::{parse_expr, parse_select};
use simba_store::{CoverageStore, ResultSet, Value};
use std::time::Duration;

fn bench_equivalence(c: &mut Criterion) {
    let goal = parse_select(
        "SELECT queue, hour, call_direction, COUNT(calls) FROM customer_service \
         WHERE queue IN ('A', 'B') AND hour BETWEEN 9 AND 17 \
         GROUP BY queue, hour, call_direction HAVING COUNT(calls) > 10",
    )
    .unwrap();
    let other = parse_select(
        "SELECT COUNT(calls), call_direction, hour, queue FROM customer_service \
         WHERE hour BETWEEN 9 AND 17 AND queue IN ('B', 'A') \
         GROUP BY queue, hour, call_direction HAVING COUNT(calls) > 10",
    )
    .unwrap();

    let mut group = c.benchmark_group("equivalence");
    group
        .sample_size(50)
        .measurement_time(Duration::from_secs(2));

    group.bench_function("syntactic", |b| {
        b.iter(|| syntactic_equivalent(&goal, &other))
    });
    // The semantic checks compare normal forms, each built once per query
    // (the "normalize" case below prices building one).
    let (goal_form, other_form) = (
        NormalizedSelect::from_select(&goal),
        NormalizedSelect::from_select(&other),
    );
    group.bench_function("semantic_equal", |b| {
        b.iter(|| goal_form.same_rows(&other_form))
    });
    group.bench_function("semantic_subsumes", |b| {
        b.iter(|| subsumes(&other_form, &goal_form))
    });
    group.bench_function("normalize", |b| {
        b.iter(|| NormalizedSelect::from_select(&goal))
    });

    let p = parse_expr("queue IN ('A') AND hour >= 9 AND hour <= 12 AND calls > 3").unwrap();
    let q = parse_expr("queue IN ('A', 'B') AND hour BETWEEN 0 AND 23").unwrap();
    group.bench_function("implication", |b| b.iter(|| implies(&p, &q)));

    // Result equivalence: coverage over a thousand-row goal result.
    let rows: Vec<Vec<Value>> = (0..1000)
        .map(|i| vec![Value::str(format!("q{}", i % 4)), Value::Int(i)])
        .collect();
    let goal_result = ResultSet::new(vec!["queue".into(), "n".into()], rows.clone());
    let mut coverage = CoverageStore::new();
    coverage.absorb(&ResultSet::new(vec!["queue".into(), "n".into()], rows));
    group.bench_function("result_coverage_1k", |b| {
        b.iter(|| coverage.covered_rows(&goal_result))
    });
    group.finish();
}

criterion_group!(benches, bench_equivalence);
criterion_main!(benches);
