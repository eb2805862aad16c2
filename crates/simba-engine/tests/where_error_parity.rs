//! A WHERE fails alike on every engine, wherever its bad conjunct sits.
//!
//! `duckdb-like` compiles a WHERE once, at plan time, straight to settled
//! kernels, and once a conjunct is refuted by its column's bounds it only
//! checks the conjuncts after it for the errors compiling them would raise.
//! The row engines compile the whole WHERE for the interpreter. Each
//! invalid conjunct below sits before and after a conjunct the bounds
//! refute, and `duckdb-like` (fresh, and through a session-delta store that
//! holds an entry for the refuted filter), `sqlite-like` and
//! `execute_row_oracle` must return the very error the conjunct raises on
//! its own. A check skipped after the refutation turns the error into an
//! empty answer and fails here.

use simba_engine::{execute_row_oracle, EngineError, EngineKind, SessionDelta};
use simba_sql::{parse_select, BinOp, Expr, Func, Select};
use simba_store::{ColumnDef, Schema, Table, TableBuilder, Value};
use std::sync::Arc;

/// `t(queue, calls, cost)`: `calls` in `[0, 99]`, so `calls > 1e18` is
/// refuted by the column's bounds.
fn table() -> Arc<Table> {
    let schema = Schema::new(
        "t",
        vec![
            ColumnDef::categorical("queue"),
            ColumnDef::quantitative_int("calls"),
            ColumnDef::quantitative_float("cost"),
        ],
    );
    let mut b = TableBuilder::new(schema, 300);
    for i in 0..300i64 {
        b.push_row(vec![
            Value::str(["A", "B", "C"][(i % 3) as usize]),
            Value::Int(i % 100),
            Value::Float(i as f64 / 4.0),
        ]);
    }
    Arc::new(b.finish())
}

fn filter(sql: &str) -> Expr {
    parse_select(&format!("SELECT calls FROM t WHERE {sql}"))
        .unwrap()
        .where_clause
        .unwrap()
}

/// Conjuncts every engine must reject, and what for.
fn invalid_conjuncts() -> Vec<(&'static str, Expr)> {
    let calls = || Expr::col("calls");
    vec![
        ("unknown column, compared", filter("nope > 1")),
        ("unknown column, BETWEEN", filter("nope BETWEEN 1 AND 2")),
        ("unknown column, IN", filter("nope IN ('A', 'B')")),
        ("unknown column, in arithmetic", filter("calls + nope > 2")),
        (
            "non-literal IN list",
            Expr::InList {
                expr: Box::new(calls()),
                list: vec![Expr::int(1), calls()],
                negated: false,
            },
        ),
        (
            "non-literal IN list on an unknown column",
            Expr::InList {
                expr: Box::new(Expr::col("nope")),
                list: vec![calls()],
                negated: true,
            },
        ),
        (
            "aggregate in WHERE",
            Expr::binary(Expr::agg(Func::Sum, calls()), BinOp::Gt, Expr::int(1)),
        ),
        (
            "BIN with one argument",
            Expr::binary(
                Expr::Function {
                    func: Func::Bin,
                    args: vec![calls()],
                    distinct: false,
                },
                BinOp::Eq,
                Expr::int(0),
            ),
        ),
    ]
}

fn select(predicate: Expr) -> Select {
    let mut q = parse_select("SELECT queue, COUNT(*) FROM t GROUP BY queue").unwrap();
    q.where_clause = Some(predicate);
    q
}

/// The error, or the rows, each engine answers `query` with.
fn answers(query: &Select, table: &Arc<Table>) -> Vec<(&'static str, Result<usize, EngineError>)> {
    let rows = |out: Result<simba_engine::QueryOutput, EngineError>| out.map(|o| o.result.n_rows());
    let duckdb = EngineKind::DuckDbLike.build();
    let sqlite = EngineKind::SqliteLike.build();
    duckdb.register(table.clone());
    sqlite.register(table.clone());
    // A delta store that holds the refuted filter's entry, so the delta
    // path would have a seed for the query if it planned.
    let mut delta = SessionDelta::default();
    duckdb
        .execute_delta(&select(filter("calls > 1e18")), &mut delta)
        .unwrap();
    vec![
        ("duckdb-like", rows(duckdb.execute(query))),
        (
            "duckdb-like delta",
            rows(duckdb.execute_delta(query, &mut delta)),
        ),
        ("sqlite-like", rows(sqlite.execute(query))),
        (
            "execute_row_oracle",
            rows(execute_row_oracle(table.clone(), query)),
        ),
    ]
}

#[test]
fn an_invalid_conjunct_fails_alike_before_and_after_a_refuted_one() {
    let table = table();
    let refuted = filter("calls > 1e18");
    let typed = filter("queue IN ('A', 'B')");
    let mut cases = 0;
    for (why, invalid) in invalid_conjuncts() {
        let want = execute_row_oracle(table.clone(), &select(invalid.clone())).expect_err(why);
        for predicate in [
            invalid.clone().and(refuted.clone()),
            refuted.clone().and(invalid.clone()),
            typed.clone().and(refuted.clone()).and(invalid.clone()),
            refuted.clone().and(typed.clone()).and(invalid.clone()),
            // The first invalid conjunct names the error.
            refuted
                .clone()
                .and(invalid.clone())
                .and(filter("other_unknown = 1")),
        ] {
            let query = select(predicate);
            for (engine, answer) in answers(&query, &table) {
                assert_eq!(
                    answer,
                    Err(want.clone()),
                    "{why}: {engine} on `{}`",
                    simba_sql::printer::print_select(&query)
                );
                cases += 1;
            }
        }
    }
    assert_eq!(cases, invalid_conjuncts().len() * 5 * 4);
}

/// The refuted filter itself, and with valid conjuncts after it, answers
/// on every engine: the checks reject only what is invalid.
#[test]
fn valid_conjuncts_after_a_refuted_one_still_answer() {
    let table = table();
    for sql in [
        "calls > 1e18",
        "calls > 1e18 AND queue IN ('A') AND cost + 1 > 2 AND calls IN (1, 'x')",
        "queue = 'Z' AND calls BETWEEN 1 AND 2 AND ABS(cost) < 3",
    ] {
        let query = select(filter(sql));
        for (engine, answer) in answers(&query, &table) {
            assert_eq!(answer, Ok(0), "{engine} on `{sql}`");
        }
        let duckdb = EngineKind::DuckDbLike.build();
        duckdb.register(table.clone());
        let stats = duckdb.execute(&query).unwrap().stats;
        assert_eq!(stats.rows_scanned, 0, "the bounds refute `{sql}`");
    }
}
