//! Property test: the two engines agree on every query.
//!
//! This is the load-bearing property of the DBMS substrate (ARCHITECTURE.md,
//! "Result equivalence and fingerprinting"):
//! the engines may differ arbitrarily in latency, but must be
//! indistinguishable in results. We generate random tables and random
//! queries from the dashboard fragment and require multiset-equal outputs.

use proptest::prelude::*;
use simba_engine::all_engines;
use simba_sql::{BinOp, Expr, Func, Literal, Select, SelectItem};
use simba_store::{ColumnDef, Schema, Table, TableBuilder, Value};
use std::sync::Arc;

const QUEUES: &[&str] = &["A", "B", "C", "D"];
const REGIONS: &[&str] = &["north", "south", "east", "west", "central"];

#[derive(Debug, Clone)]
struct Row {
    queue: Option<&'static str>,
    region: Option<&'static str>,
    calls: Option<i64>,
    cost: Option<f64>,
    ts: i64,
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        proptest::option::weighted(0.9, proptest::sample::select(QUEUES)),
        proptest::option::weighted(0.9, proptest::sample::select(REGIONS)),
        proptest::option::weighted(0.9, -20i64..100),
        proptest::option::weighted(0.9, -5.0f64..50.0),
        1_600_000_000i64..1_610_000_000,
    )
        .prop_map(|(queue, region, calls, cost, ts)| Row {
            queue,
            region,
            calls,
            cost,
            ts,
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
            ColumnDef::temporal("ts"),
        ],
    );
    let mut b = TableBuilder::new(schema, rows.len());
    for r in rows {
        b.push_row(vec![
            r.queue.map_or(Value::Null, Value::from),
            r.region.map_or(Value::Null, Value::from),
            r.calls.map_or(Value::Null, Value::Int),
            r.cost.map_or(Value::Null, Value::Float),
            Value::Int(r.ts),
        ]);
    }
    b.finish()
}

/// One random WHERE conjunct.
fn predicate_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        // queue IN (subset)
        proptest::sample::subsequence(QUEUES.to_vec(), 1..=3)
            .prop_map(|vs| Expr::in_strs("queue", vs)),
        // region equality
        proptest::sample::select(REGIONS).prop_map(|r| Expr::binary(
            Expr::col("region"),
            BinOp::Eq,
            Expr::str(r)
        )),
        // numeric comparison on calls
        (
            -20i64..100,
            proptest::sample::select(vec![
                BinOp::Lt,
                BinOp::LtEq,
                BinOp::Gt,
                BinOp::GtEq,
                BinOp::Eq,
                BinOp::NotEq
            ])
        )
            .prop_map(|(v, op)| Expr::binary(Expr::col("calls"), op, Expr::int(v))),
        // cost range
        (-5.0f64..25.0, 0.0f64..25.0).prop_map(|(lo, width)| Expr::Between {
            expr: Box::new(Expr::col("cost")),
            low: Box::new(Expr::float(lo)),
            high: Box::new(Expr::float(lo + width)),
            negated: false,
        }),
        // null checks
        Just(Expr::IsNull {
            expr: Box::new(Expr::col("calls")),
            negated: false
        }),
        Just(Expr::IsNull {
            expr: Box::new(Expr::col("queue")),
            negated: true
        }),
        // date-part filter
        (0i64..24).prop_map(|h| Expr::binary(Expr::agg_free_hour(), BinOp::Eq, Expr::int(h))),
    ]
}

trait HourExt {
    fn agg_free_hour() -> Expr;
}

impl HourExt for Expr {
    fn agg_free_hour() -> Expr {
        Expr::Function {
            func: Func::Hour,
            args: vec![Expr::col("ts")],
            distinct: false,
        }
    }
}

/// One random aggregate projection.
fn aggregate_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::count_star()),
        Just(Expr::agg(Func::Count, Expr::col("calls"))),
        Just(Expr::Function {
            func: Func::Count,
            args: vec![Expr::col("queue")],
            distinct: true
        }),
        Just(Expr::agg(Func::Sum, Expr::col("calls"))),
        Just(Expr::agg(Func::Avg, Expr::col("cost"))),
        Just(Expr::agg(Func::Min, Expr::col("calls"))),
        Just(Expr::agg(Func::Max, Expr::col("cost"))),
    ]
}

#[derive(Debug, Clone)]
struct QueryCase {
    select: Select,
}

fn query_strategy() -> impl Strategy<Value = QueryCase> {
    let group_cols = proptest::sample::subsequence(vec!["queue", "region"], 0..=2);
    (
        group_cols,
        proptest::collection::vec(aggregate_strategy(), 1..=3),
        proptest::collection::vec(predicate_strategy(), 0..=3),
        proptest::option::of(1i64..3),
    )
        .prop_map(|(groups, aggs, preds, having_min)| {
            let mut projections: Vec<SelectItem> = groups
                .iter()
                .map(|g| SelectItem::bare(Expr::col(*g)))
                .collect();
            projections.extend(aggs.into_iter().map(SelectItem::bare));
            let mut select = Select::new("t", projections);
            select.group_by = groups.iter().map(|g| Expr::col(*g)).collect();
            if let Some(w) = Expr::conjoin(preds) {
                select.where_clause = Some(w);
            }
            if let Some(min) = having_min {
                if !select.group_by.is_empty() {
                    select.having = Some(Expr::binary(
                        Expr::count_star(),
                        BinOp::GtEq,
                        Expr::Literal(Literal::Int(min)),
                    ));
                }
            }
            QueryCase { select }
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn engines_agree_on_aggregates(
        rows in proptest::collection::vec(row_strategy(), 0..200),
        case in query_strategy(),
    ) {
        let table = Arc::new(build_table(&rows));
        let engines = all_engines();
        let mut outputs = Vec::new();
        for e in &engines {
            e.register(table.clone());
            let out = e.execute(&case.select);
            prop_assert!(out.is_ok(), "{} failed: {:?} on {}", e.name(), out.err(), case.select);
            outputs.push((e.name(), out.unwrap().result));
        }
        let (base_name, base) = &outputs[0];
        for (name, rs) in &outputs[1..] {
            prop_assert!(
                base.multiset_eq(rs),
                "{} and {} disagree on `{}`:\n{:?}\nvs\n{:?}",
                base_name, name, case.select, base.sorted_rows(), rs.sorted_rows()
            );
        }
    }

    #[test]
    fn engines_agree_on_projections(
        rows in proptest::collection::vec(row_strategy(), 0..200),
        preds in proptest::collection::vec(predicate_strategy(), 0..=3),
    ) {
        let mut select = Select::new(
            "t",
            vec![
                SelectItem::bare(Expr::col("queue")),
                SelectItem::bare(Expr::col("calls")),
                SelectItem::bare(Expr::col("cost")),
            ],
        );
        if let Some(w) = Expr::conjoin(preds) {
            select.where_clause = Some(w);
        }
        let table = Arc::new(build_table(&rows));
        let engines = all_engines();
        let mut outputs = Vec::new();
        for e in &engines {
            e.register(table.clone());
            outputs.push((e.name(), e.execute(&select).unwrap().result));
        }
        let (base_name, base) = &outputs[0];
        for (name, rs) in &outputs[1..] {
            prop_assert!(
                base.multiset_eq(rs),
                "{} and {} disagree on `{}`", base_name, name, select
            );
        }
    }

    #[test]
    fn parsed_and_built_queries_agree(
        rows in proptest::collection::vec(row_strategy(), 0..100),
        case in query_strategy(),
    ) {
        // Round-tripping the query through SQL text must not change results.
        let table = Arc::new(build_table(&rows));
        let engine = simba_engine::EngineKind::DuckDbLike.build();
        engine.register(table);
        let direct = engine.execute(&case.select).unwrap().result;
        let sql = case.select.to_string();
        let reparsed = simba_sql::parse_select(&sql).unwrap();
        let via_text = engine.execute(&reparsed).unwrap().result;
        prop_assert!(direct.multiset_eq(&via_text), "text round-trip changed results for `{sql}`");
    }
}

/// A grouped `LIMIT` with no total `ORDER BY` cuts its groups in emission
/// order, so emission order is part of the answer: duckdb-like must return
/// the same rows in the same order at one scan thread and with partials
/// merged across two and three, call after call. The table spans three
/// 2048-row morsels so three scan threads really merge partials. sqlite-like
/// is left out: its ordered-map oracle emits in key order, and the multiset
/// checks above hold it to duckdb-like. Then the order rule itself: every
/// key — a packed one, a dictionary key alone among them, or a boxed one —
/// emits in first appearance, NULL where its first row is.
#[test]
fn grouped_limit_without_total_order_is_one_answer() {
    let mut state = 0x5eed_u64;
    let mut next = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    // Row 0's queue is NULL, so "NULL last" would not be first appearance.
    let rows: Vec<Row> = (0..3 * 2048 - 1000)
        .map(|i| Row {
            queue: (i > 0 && next(10) > 0).then(|| QUEUES[next(QUEUES.len() as u64) as usize]),
            region: (next(10) > 0).then(|| REGIONS[next(REGIONS.len() as u64) as usize]),
            calls: (next(10) > 0).then(|| next(120) as i64 - 20),
            cost: None,
            ts: 1_600_000_000 + next(10_000_000) as i64,
        })
        .collect();
    let table = Arc::new(build_table(&rows));
    let engines = [
        simba_engine::EngineKind::DuckDbLike.build_with_threads(1),
        simba_engine::EngineKind::DuckDbLike.build_with_threads(2),
        simba_engine::EngineKind::DuckDbLike.build_with_threads(3),
    ];
    for e in &engines {
        e.register(table.clone());
    }
    for sql in [
        // Two dictionary keys: the packed index, first appearance in scan
        // order, never slot order.
        "SELECT queue, region, COUNT(*), SUM(calls) FROM t GROUP BY queue, region LIMIT 5",
        "SELECT region, queue, MIN(calls) FROM t WHERE calls > 10 GROUP BY region, queue LIMIT 7",
        // Binned Int keys, alone and beside a dictionary key: packed too.
        "SELECT BIN(calls, 10), COUNT(*) FROM t GROUP BY BIN(calls, 10) LIMIT 4",
        "SELECT BIN(calls, 7), queue, COUNT(*), MAX(ts) FROM t WHERE region <> 'east' \
         GROUP BY BIN(calls, 7), queue LIMIT 9",
        // A computed key and a bare Int key: the hash index.
        "SELECT HOUR(ts), COUNT(*), MAX(calls) FROM t GROUP BY HOUR(ts) LIMIT 6",
        "SELECT queue, calls, COUNT(*) FROM t GROUP BY queue, calls LIMIT 8",
        // One dictionary key, a boxed column beside a typed one: packed, one
        // part.
        "SELECT queue, COUNT(DISTINCT region), COUNT(*) FROM t GROUP BY queue LIMIT 3",
        // A global aggregate, boxed and typed columns side by side.
        "SELECT COUNT(DISTINCT region), COUNT(*), SUM(calls) FROM t WHERE calls < 0 LIMIT 1",
    ] {
        let query = simba_sql::parse_select(sql).unwrap();
        let mut answers: Vec<(String, String)> = Vec::new();
        for e in &engines {
            for _ in 0..20 {
                let result = e.execute(&query).unwrap().result;
                let rows = format!("{:?}", result.rows().collect::<Vec<_>>());
                if !answers.iter().any(|(_, a)| *a == rows) {
                    answers.push((format!("{} x{}", e.name(), e.scan_threads()), rows));
                }
            }
        }
        assert_eq!(
            answers.len(),
            1,
            "`{sql}` has {} answers: {answers:#?}",
            answers.len()
        );
    }

    let first_seen = |key: &dyn Fn(&Row) -> Vec<Value>| {
        let mut seen: Vec<Vec<Value>> = Vec::new();
        for k in rows.iter().map(key) {
            if !seen.contains(&k) {
                seen.push(k);
            }
        }
        seen
    };
    let value = |s: Option<&'static str>| s.map_or(Value::Null, Value::from);
    let pairs = first_seen(&|r| vec![value(r.queue), value(r.region)]);
    let bin = |c: Option<i64>| c.map_or(Value::Null, |c| Value::Int(c.div_euclid(10) * 10));
    let binned = first_seen(&|r| vec![bin(r.calls), value(r.region)]);
    let with_calls = first_seen(&|r| vec![value(r.queue), r.calls.map_or(Value::Null, Value::Int)]);
    let queues = first_seen(&|r| vec![value(r.queue)]);
    for (sql, want) in [
        (
            "SELECT queue, region, COUNT(*) FROM t GROUP BY queue, region",
            pairs,
        ),
        (
            "SELECT BIN(calls, 10), region, COUNT(*) FROM t GROUP BY BIN(calls, 10), region",
            binned,
        ),
        (
            "SELECT queue, calls, COUNT(*) FROM t GROUP BY queue, calls",
            with_calls,
        ),
        (
            "SELECT queue, COUNT(DISTINCT region) FROM t GROUP BY queue",
            queues,
        ),
    ] {
        let query = simba_sql::parse_select(sql).unwrap();
        for e in &engines {
            let result = e.execute(&query).unwrap().result;
            let rows: Vec<Vec<Value>> = result.rows().map(|r| r.to_vec()).collect();
            let keys: Vec<&[Value]> = rows.iter().map(|r| &r[..want[0].len()]).collect();
            assert_eq!(keys, want, "{} x{}: `{sql}`", e.name(), e.scan_threads());
        }
    }
}

/// Two aggregates whose arguments differ only in a literal's type are two
/// slots on every engine: `SUM(calls + 1)` sums Ints and `SUM(calls + 1.0)`
/// Floats, in either projection order. `Expr`'s `==` calls the two equal,
/// so a slot found by it handed the second projection the first's column.
/// The table is `customer_service`'s `calls` column at 2K rows: one call per
/// record. Compared by `Debug`, since `Value`'s `==` is numeric too.
#[test]
fn aggregates_differing_only_in_literal_type_are_two_slots() {
    let schema = Schema::new(
        "customer_service",
        vec![ColumnDef::quantitative_int("calls")],
    );
    let mut b = TableBuilder::new(schema, 2_000);
    for _ in 0..2_000 {
        b.push_row(vec![Value::Int(1)]);
    }
    let table = Arc::new(b.finish());
    let engines = all_engines();
    for e in &engines {
        e.register(table.clone());
    }
    for (sql, want) in [
        (
            "SELECT SUM(calls + 1), SUM(calls + 1.0) FROM customer_service",
            "[Int(4000), Float(4000.0)]",
        ),
        (
            "SELECT SUM(calls + 1.0), SUM(calls + 1) FROM customer_service",
            "[Float(4000.0), Int(4000)]",
        ),
    ] {
        let query = simba_sql::parse_select(sql).unwrap();
        let mut answers = vec![(
            "execute_row_oracle",
            simba_engine::execute_row_oracle(table.clone(), &query)
                .unwrap()
                .result,
        )];
        answers.extend(
            engines
                .iter()
                .map(|e| (e.name(), e.execute(&query).unwrap().result)),
        );
        for (name, result) in answers {
            assert_eq!(
                format!("{:?}", result.sorted_rows()),
                format!("[{want}]"),
                "{name}: `{sql}`"
            );
        }
    }
}
