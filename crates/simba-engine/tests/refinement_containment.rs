//! Fuzz the subsumption checker against ground truth: every `is_refinement`
//! verdict is validated against the row oracle's *actual* result sets.
//!
//! `is_refinement(next, prev) == true` is a proof obligation — the delta
//! path trusts it to seed `next`'s scan from `prev`'s surviving rows, so a
//! verdict whose result set is **not** contained in the previous one is a
//! hard failure (silently wrong query results in production), while a
//! missed refinement merely costs a rescan. The tables here are generated
//! with NULL-heavy columns and dictionary-encoded (categorical) strings,
//! the two encodings where three-valued logic and code-space comparisons
//! most easily part ways with value-space reasoning.

use proptest::prelude::*;
use simba_engine::{execute_row_oracle, Dbms, DuckDbLike, SessionDelta};
use simba_sql::{delta_key, is_refinement, parse_select, BinOp, Expr, Select};
use simba_store::{ColumnDef, Schema, Table, TableBuilder, Value};
use std::collections::HashMap;
use std::sync::Arc;

const QUEUES: &[&str] = &["A", "B", "C", "D"];
const REGIONS: &[&str] = &["north", "south", "east", "west"];

#[derive(Debug, Clone)]
struct Row {
    queue: Option<&'static str>,
    region: Option<&'static str>,
    calls: Option<i64>,
    cost: Option<f64>,
}

/// NULL-heavy on purpose: a 40% NULL rate on `calls` and 25% on the
/// dictionary columns keeps three-valued edge cases in every table.
fn row_strategy() -> impl Strategy<Value = Row> {
    (
        proptest::option::weighted(0.75, proptest::sample::select(QUEUES)),
        proptest::option::weighted(0.75, proptest::sample::select(REGIONS)),
        proptest::option::weighted(0.6, -10i64..20),
        proptest::option::weighted(0.8, -3.0f64..12.0),
    )
        .prop_map(|(queue, region, calls, cost)| Row {
            queue,
            region,
            calls,
            cost,
        })
}

fn build_table(rows: &[Row]) -> Table {
    let schema = Schema::new(
        "t",
        vec![
            ColumnDef::categorical("queue"),
            ColumnDef::categorical("region"),
            ColumnDef::quantitative_int("calls"),
            ColumnDef::quantitative_float("cost"),
        ],
    );
    let mut b = TableBuilder::new(schema, rows.len());
    for r in rows {
        b.push_row(vec![
            r.queue.map_or(Value::Null, Value::from),
            r.region.map_or(Value::Null, Value::from),
            r.calls.map_or(Value::Null, Value::Int),
            r.cost.map_or(Value::Null, Value::Float),
        ]);
    }
    b.finish()
}

/// Random atomic predicate over a small constant universe so predicate
/// pairs overlap often enough for `is_refinement` to return `true`.
fn predicate_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        proptest::sample::subsequence(QUEUES.to_vec(), 1..=3)
            .prop_map(|vs| Expr::in_strs("queue", vs)),
        proptest::sample::select(REGIONS)
            .prop_map(|r| { Expr::binary(Expr::col("region"), BinOp::Eq, Expr::str(r)) }),
        (
            -10i64..20,
            proptest::sample::select(vec![
                BinOp::Lt,
                BinOp::LtEq,
                BinOp::Gt,
                BinOp::GtEq,
                BinOp::Eq,
                BinOp::NotEq,
            ])
        )
            .prop_map(|(v, op)| Expr::binary(Expr::col("calls"), op, Expr::int(v))),
        (-3i64..8, 0i64..8).prop_map(|(lo, w)| Expr::Between {
            expr: Box::new(Expr::col("calls")),
            low: Box::new(Expr::int(lo)),
            high: Box::new(Expr::int(lo + w)),
            negated: false,
        }),
        (
            proptest::sample::select(vec!["queue", "calls"]),
            any::<bool>()
        )
            .prop_map(|(c, neg)| Expr::IsNull {
                expr: Box::new(Expr::col(c)),
                negated: neg,
            }),
    ]
}

/// What a generated WHERE is wrapped in. Shape 0 is the bare projection of
/// every column, whose result *is* the surviving row set; the rest are the
/// aggregation shapes group-state replay has to tell apart: ORDER BY over a
/// non-projected aggregate (two different ones), HAVING with two hidden
/// aggregates in both written orders, LIMIT, and a permuted projection
/// list. ORDER BY always ends in the group key, so LIMIT cuts a total order.
const SHAPES: &[&str] = &[
    "SELECT queue, region, calls, cost FROM t",
    "SELECT queue, COUNT(*) AS n FROM t GROUP BY queue",
    "SELECT queue, COUNT(*) AS n FROM t GROUP BY queue ORDER BY SUM(cost) DESC, queue LIMIT 2",
    "SELECT queue, COUNT(*) AS n FROM t GROUP BY queue ORDER BY MIN(cost) DESC, queue LIMIT 2",
    "SELECT queue, COUNT(*) AS n FROM t GROUP BY queue HAVING SUM(calls) > 5 AND MIN(cost) >= 0",
    "SELECT queue, COUNT(*) AS n FROM t GROUP BY queue HAVING MIN(cost) >= 0 AND SUM(calls) > 5",
    "SELECT COUNT(*) AS n, queue FROM t GROUP BY queue ORDER BY queue LIMIT 3",
];

fn shaped(shape: usize, preds: Vec<Expr>) -> Select {
    let mut select = parse_select(SHAPES[shape]).unwrap();
    select.where_clause = Expr::conjoin(preds);
    select
}

fn query_strategy() -> impl Strategy<Value = Select> {
    (
        0..SHAPES.len(),
        proptest::collection::vec(predicate_strategy(), 0..=3),
    )
        .prop_map(|(shape, preds)| shaped(shape, preds))
}

/// A step and the step after it: `next` keeps `prev`'s conjuncts and adds
/// up to two, under an independent shape — the pairs a session's delta
/// store actually sees.
fn chain_strategy() -> impl Strategy<Value = (Select, Select)> {
    (
        query_strategy(),
        0..SHAPES.len(),
        proptest::collection::vec(predicate_strategy(), 0..=2),
    )
        .prop_map(|(prev, shape, extra)| {
            let kept = prev.filters().into_iter().cloned();
            let next = shaped(shape, kept.chain(extra).collect());
            (prev, next)
        })
}

/// Multiset of the rows surviving `q`'s WHERE (whatever `q`'s shape), keyed
/// by debug representation (stable for values that went through the same
/// execution pipeline).
fn row_multiset(table: &Arc<Table>, q: &Select) -> HashMap<String, usize> {
    let bare = shaped(0, q.filters().into_iter().cloned().collect());
    let out = execute_row_oracle(Arc::clone(table), &bare).unwrap();
    let mut counts = HashMap::new();
    for row in out.result.sorted_rows() {
        *counts.entry(format!("{row:?}")).or_insert(0) += 1;
    }
    counts
}

fn is_sub_multiset(sub: &HashMap<String, usize>, sup: &HashMap<String, usize>) -> bool {
    #[expect(
        clippy::disallowed_methods,
        reason = "an all-quantifier over the entries — visiting them in any order yields the same verdict"
    )]
    sub.iter().all(|(k, n)| sup.get(k).is_some_and(|m| m >= n))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Soundness: a `true` verdict means `next`'s surviving rows are a
    /// sub-multiset of `prev`'s — checked against the row oracle, not the
    /// implication engine's own reasoning.
    #[test]
    fn refinement_verdicts_imply_result_containment(
        rows in proptest::collection::vec(row_strategy(), 0..120),
        next in query_strategy(),
        prev in query_strategy(),
    ) {
        if is_refinement(&next, &prev) {
            let table = Arc::new(build_table(&rows));
            let next_rows = row_multiset(&table, &next);
            let prev_rows = row_multiset(&table, &prev);
            prop_assert!(
                is_sub_multiset(&next_rows, &prev_rows),
                "refinement verdict without containment:\n  next: {}\n  prev: {}",
                next, prev
            );
        }
    }

    /// Every query is a refinement of itself (the exact-requery fast path
    /// depends on this holding for the whole generated fragment).
    #[test]
    fn refinement_is_reflexive(q in query_strategy()) {
        prop_assert!(is_refinement(&q, &q), "`{}` must refine itself", q);
    }

    /// Key soundness: equal `delta_key`s promise interchangeable surviving
    /// row sets, so equal keys must mean equal result multisets.
    #[test]
    fn equal_delta_keys_mean_equal_row_sets(
        rows in proptest::collection::vec(row_strategy(), 0..120),
        a in query_strategy(),
        b in query_strategy(),
    ) {
        if delta_key(&a) == delta_key(&b) {
            let table = Arc::new(build_table(&rows));
            let ra = row_multiset(&table, &a);
            let rb = row_multiset(&table, &b);
            prop_assert_eq!(
                ra, rb,
                "equal delta keys with different row sets: `{}` vs `{}`", a, b
            );
        }
    }

    /// The consumer of both verdicts: two consecutive steps through one
    /// session store on the columnar engine — group-state replay, exact or
    /// refinement seeding, or a miss — answer exactly like the row oracle.
    #[test]
    fn refinement_chains_execute_like_the_oracle(
        rows in proptest::collection::vec(row_strategy(), 0..120),
        chain in chain_strategy(),
    ) {
        let (prev, next) = chain;
        let table = Arc::new(build_table(&rows));
        let engine = DuckDbLike::new();
        engine.register(Arc::clone(&table));
        let mut store = SessionDelta::default();
        for q in [&prev, &next] {
            let got = engine.execute_delta(q, &mut store).unwrap();
            let want = execute_row_oracle(Arc::clone(&table), q).unwrap();
            prop_assert_eq!(
                got.result.sorted_rows(), want.result.sorted_rows(),
                "delta execution diverged on `{}` after `{}`", q, prev
            );
        }
    }
}
