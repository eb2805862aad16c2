//! The shape memo: an engine's catalog compiles the group half of a plan
//! (keys, aggregate specs, group-level projections, HAVING, output names,
//! ORDER BY directions, LIMIT) once per registered table and query shape,
//! the exact spelling of every clause but the WHERE, and compiles only the
//! WHERE of a query whose shape it planned before.
//!
//! A memo that answers a query with another shape's half returns another
//! query's answer, so every check here runs each query twice (a miss, then a
//! hit) on `duckdb-like` fresh, `duckdb-like` through a session-delta store
//! and `sqlite-like`, and compares both answers with
//! `execute_row_oracle`'s, which plans without a memo: errors equal, results
//! byte-identical by their `Debug` form, column names included.

use simba_core::dashboard::Dashboard;
use simba_core::session::batch::{synthesize_scripts, BatchConfig};
use simba_core::session::workflows::Workflow;
use simba_core::session::{GoalSource, SessionConfig};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_driver::{
    AdaptiveSource, AdaptiveWalkConfig, Driver, DriverConfig, ScriptedSource, SessionSource,
};
use simba_engine::plan::{prepare_for, PreparedQuery, MEMO_SHAPES};
use simba_engine::{
    execute_row_oracle, Dbms, EngineError, EngineKind, QueryOutput, SessionDelta, MORSEL,
};
use simba_idebench::IdebenchSource;
use simba_sql::{parse_select, BinOp, Expr, Func, NormalizedSelect, Select};
use simba_store::{ColumnDef, Schema, Table, TableBuilder, Value};
use std::sync::{Arc, Mutex};

const ROWS: usize = 2_000;
const SEED: u64 = 7;

/// `customer_service` at 2K rows.
fn customer_service() -> Arc<Table> {
    Arc::new(DashboardDataset::CustomerService.generate_rows(ROWS, SEED))
}

/// `where_error_parity.rs`'s `t(queue, calls, cost)`: `calls` in `[0, 99]`,
/// so `calls > 1e18` is refuted by the column's bounds.
fn parity_table() -> Arc<Table> {
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

/// An answer in a form that compares byte for byte: the result's `Debug`
/// (column names, and every value with its type and exact bits) or the
/// error.
type Answer = Result<String, EngineError>;

fn answer(out: Result<QueryOutput, EngineError>) -> Answer {
    out.map(|o| format!("{:?}", o.result))
}

fn oracle(table: &Arc<Table>, query: &Select) -> Answer {
    answer(execute_row_oracle(table.clone(), query))
}

/// The three engine paths that plan through a catalog, over one table.
struct Paths {
    duckdb: Arc<dyn Dbms>,
    delta_engine: Arc<dyn Dbms>,
    delta: SessionDelta,
    sqlite: Arc<dyn Dbms>,
}

impl Paths {
    fn new(table: &Arc<Table>) -> Paths {
        let paths = Paths {
            duckdb: EngineKind::DuckDbLike.build(),
            delta_engine: EngineKind::DuckDbLike.build(),
            delta: SessionDelta::default(),
            sqlite: EngineKind::SqliteLike.build(),
        };
        paths.register(table);
        paths
    }

    fn register(&self, table: &Arc<Table>) {
        for engine in [&self.duckdb, &self.delta_engine, &self.sqlite] {
            engine.register(table.clone());
        }
    }

    /// Each path's answer to `query`.
    fn answers(&mut self, query: &Select) -> [(&'static str, Answer); 3] {
        [
            ("duckdb-like", answer(self.duckdb.execute(query))),
            (
                "duckdb-like delta",
                answer(self.delta_engine.execute_delta(query, &mut self.delta)),
            ),
            ("sqlite-like", answer(self.sqlite.execute(query))),
        ]
    }

    /// Run `query` twice on every path and check each answer against `want`.
    fn check(&mut self, query: &Select, want: &Answer) {
        for run in ["miss", "hit"] {
            for (path, got) in self.answers(query) {
                assert_eq!(&got, want, "{path} ({run}) on `{query}`");
            }
        }
    }
}

fn filter(sql: &str) -> Expr {
    parse_select(&format!("SELECT calls FROM t WHERE {sql}"))
        .unwrap()
        .where_clause
        .unwrap()
}

fn bin(args: Vec<Expr>) -> Expr {
    Expr::Function {
        func: Func::Bin,
        args,
        distinct: false,
    }
}

/// `where_error_parity.rs`'s invalid conjuncts.
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
            Expr::binary(bin(vec![calls()]), BinOp::Eq, Expr::int(0)),
        ),
    ]
}

/// `where_error_parity.rs`'s chart: one shape for every WHERE.
fn chart(predicate: Expr) -> Select {
    let mut q = parse_select("SELECT queue, COUNT(*) FROM t GROUP BY queue").unwrap();
    q.where_clause = Some(predicate);
    q
}

/// Queries whose group half fails to compile, and what for.
fn invalid_halves() -> Vec<(&'static str, Select)> {
    let mut bin_key = parse_select("SELECT calls, COUNT(*) FROM t GROUP BY calls").unwrap();
    bin_key.group_by = vec![bin(vec![Expr::col("calls")])];
    bin_key.projections[0].expr = bin(vec![Expr::col("calls")]);
    vec![
        (
            "ungrouped column",
            parse_select("SELECT queue, calls, COUNT(*) FROM t GROUP BY queue").unwrap(),
        ),
        (
            "unknown column in a grouped projection",
            parse_select("SELECT queue, nope, COUNT(*) FROM t GROUP BY queue").unwrap(),
        ),
        (
            "unknown column in a plain projection",
            parse_select("SELECT queue, nope FROM t").unwrap(),
        ),
        (
            "aggregate in GROUP BY",
            parse_select("SELECT COUNT(*) FROM t GROUP BY COUNT(*)").unwrap(),
        ),
        ("BIN with one argument as a key", bin_key),
    ]
}

/// Every invalid WHERE of `where_error_parity.rs`, on a shape the memo
/// holds, and every invalid group half, with a valid WHERE and with an
/// invalid one: each fails as the oracle does, on the miss and on the hit,
/// and a WHERE error wins over a group-half error.
#[test]
fn errors_are_the_oracles_on_a_miss_and_on_a_hit() {
    let table = parity_table();
    let mut paths = Paths::new(&table);
    let refuted = filter("calls > 1e18");
    let typed = filter("queue IN ('A', 'B')");
    // The shape is planned, and kept, before any invalid WHERE arrives.
    let valid = chart(typed.clone());
    paths.check(&valid, &oracle(&table, &valid));
    let mut cases = 0;
    for (why, invalid) in invalid_conjuncts() {
        let want = oracle(&table, &chart(invalid.clone()));
        assert!(want.is_err(), "{why}");
        for predicate in [
            invalid.clone(),
            invalid.clone().and(refuted.clone()),
            refuted.clone().and(invalid.clone()),
            typed.clone().and(refuted.clone()).and(invalid.clone()),
        ] {
            paths.check(&chart(predicate), &want);
            cases += 1;
        }
    }
    for (why, query) in invalid_halves() {
        let want = oracle(&table, &query);
        assert!(want.is_err(), "{why}");
        for predicate in [None, Some(typed.clone()), Some(refuted.clone())] {
            let mut query = query.clone();
            query.where_clause = predicate;
            paths.check(&query, &want);
            cases += 1;
        }
        // The WHERE is compiled first, so its error wins.
        for (_, invalid) in invalid_conjuncts() {
            let mut query = query.clone();
            query.where_clause = Some(invalid.clone());
            let want = oracle(&table, &chart(invalid));
            paths.check(&query, &want);
            cases += 1;
        }
    }
    assert_eq!(cases, 8 * 4 + 5 * (3 + 8));
    // The valid shape still answers after all of them.
    paths.check(&valid, &oracle(&table, &valid));
}

/// Pairs of queries whose shapes differ in one detail only. A memo keyed
/// on anything coarser than the exact spelling answers one with the
/// other's half. Every ORDER BY orders the groups totally: the engines emit
/// groups in different orders, and only then do their rows agree.
const ONE_DETAIL: [(&str, &str, &str); 7] = [
    (
        "an alias",
        "SELECT queue AS q, COUNT(*) AS n FROM customer_service {w} GROUP BY queue ORDER BY queue",
        "SELECT queue AS r, COUNT(*) AS n FROM customer_service {w} GROUP BY queue ORDER BY queue",
    ),
    (
        "`1` against `1.0` in a projection",
        "SELECT queue, SUM(calls + 1) FROM customer_service {w} GROUP BY queue ORDER BY queue",
        "SELECT queue, SUM(calls + 1.0) FROM customer_service {w} GROUP BY queue ORDER BY queue",
    ),
    (
        "the ORDER BY direction",
        "SELECT rep_id, SUM(calls) AS s FROM customer_service {w} GROUP BY rep_id ORDER BY s ASC, rep_id",
        "SELECT rep_id, SUM(calls) AS s FROM customer_service {w} GROUP BY rep_id ORDER BY s DESC, rep_id",
    ),
    (
        "the LIMIT",
        "SELECT rep_id, COUNT(*) FROM customer_service {w} GROUP BY rep_id ORDER BY rep_id LIMIT 3",
        "SELECT rep_id, COUNT(*) FROM customer_service {w} GROUP BY rep_id ORDER BY rep_id LIMIT 5",
    ),
    (
        "a HAVING literal",
        "SELECT rep_id, COUNT(*) FROM customer_service {w} GROUP BY rep_id HAVING COUNT(*) > 100 ORDER BY rep_id",
        "SELECT rep_id, COUNT(*) FROM customer_service {w} GROUP BY rep_id HAVING COUNT(*) > 170 ORDER BY rep_id",
    ),
    (
        "identifier case",
        "SELECT queue, AVG(handle_time) FROM customer_service {w} GROUP BY queue ORDER BY queue",
        "SELECT QUEUE, AVG(handle_time) FROM customer_service {w} GROUP BY queue ORDER BY queue",
    ),
    (
        "the ORDER BY direction of a plain projection",
        "SELECT calls, handle_time FROM customer_service {w} ORDER BY handle_time ASC LIMIT 4",
        "SELECT calls, handle_time FROM customer_service {w} ORDER BY handle_time DESC LIMIT 4",
    ),
];

fn one_detail_queries(wheres: &[&str]) -> Vec<(&'static str, Select)> {
    let mut out = Vec::new();
    for (detail, a, b) in ONE_DETAIL {
        for w in wheres {
            for sql in [a, b] {
                out.push((detail, parse_select(&sql.replace("{w}", w)).unwrap()));
            }
        }
    }
    out
}

#[test]
fn shapes_differing_in_one_detail_answer_as_the_oracle() {
    let table = customer_service();
    let mut paths = Paths::new(&table);
    let queries = one_detail_queries(&["", "WHERE calls > 2", "WHERE queue = 'none'"]);
    // Every pair's two answers differ, or the pair would not tell a
    // coarser key apart.
    for pair in queries.chunks(2) {
        let [(detail, a), (_, b)] = pair else {
            unreachable!()
        };
        if b.where_clause.is_none() {
            assert_ne!(oracle(&table, a), oracle(&table, b), "{detail}");
        }
    }
    // Interleaved, so each query meets the memo holding its sibling.
    for _ in 0..2 {
        for (detail, query) in &queries {
            let want = oracle(&table, query);
            assert!(want.is_ok(), "{detail}: {want:?}");
            for (path, got) in paths.answers(query) {
                assert_eq!(got, want, "{detail}: {path} on `{query}`");
            }
        }
    }
}

/// `table` with its columns in reverse order, under the same name.
fn reversed(table: &Table) -> Arc<Table> {
    let schema = table.schema();
    let columns: Vec<ColumnDef> = schema.columns.iter().rev().cloned().collect();
    let mut b = TableBuilder::new(
        Schema::new(schema.table.clone(), columns),
        table.row_count(),
    );
    let mut row = Vec::new();
    for i in 0..table.row_count() {
        table.read_row_into(i, &mut row);
        row.reverse();
        b.push_row(row.clone());
    }
    Arc::new(b.finish())
}

/// Registering the name again drops the halves planned against the old
/// table: with its columns reordered, a kept half would read the wrong
/// columns.
#[test]
fn a_re_registered_table_is_planned_again() {
    let table = customer_service();
    let mut paths = Paths::new(&table);
    let queries: Vec<Select> = [
        "SELECT queue, SUM(calls), AVG(handle_time) FROM customer_service GROUP BY queue ORDER BY queue",
        "SELECT rep_id, MAX(satisfaction) FROM customer_service WHERE calls > 1 GROUP BY rep_id \
         ORDER BY rep_id",
        "SELECT calls, hour FROM customer_service WHERE queue = 'none' ORDER BY hour LIMIT 5",
        "SELECT calls, hour FROM customer_service WHERE calls >= 3 ORDER BY hour, calls LIMIT 5",
        "SELECT COUNT(*), MIN(wait_time) FROM customer_service",
    ]
    .iter()
    .map(|sql| parse_select(sql).unwrap())
    .collect();
    for query in &queries {
        paths.check(query, &oracle(&table, query));
    }
    let moved = reversed(&table);
    paths.register(&moved);
    for query in &queries {
        let want = oracle(&moved, query);
        assert!(want.is_ok(), "{want:?}");
        paths.check(query, &want);
    }
}

/// Forwards to a real engine (adaptive walks steer by results) and keeps
/// every query it was asked.
struct Recording {
    inner: Arc<dyn Dbms>,
    seen: Mutex<Vec<Select>>,
}

impl Dbms for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn register(&self, table: Arc<Table>) {
        self.inner.register(table);
    }

    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
        self.seen.lock().unwrap().push(query.clone());
        self.inner.execute(query)
    }
}

fn recorded(table: &Arc<Table>, source: &dyn SessionSource) -> Vec<Select> {
    let engine = Arc::new(Recording {
        inner: EngineKind::DuckDbLike.build(),
        seen: Mutex::new(Vec::new()),
    });
    engine.register(table.clone());
    let config = DriverConfig {
        workers: 1,
        seed: SEED,
        ..Default::default()
    };
    let outcome = Driver::new(config).run_source(engine.clone(), source);
    assert_eq!(outcome.report.errors, 0);
    let seen = engine.seen.lock().unwrap();
    seen.clone()
}

/// A plan's group half, in a form that compares exactly.
fn half(plan: &PreparedQuery) -> String {
    format!(
        "{:?}",
        (&plan.kind, &plan.output_names, &plan.order_dirs, plan.limit)
    )
}

/// The delta path plans with the query's `NormalizedSelect`, every other
/// path without: both share one memo entry, so the halves must be the same.
#[test]
fn both_planning_paths_compile_the_same_half() {
    const SESSIONS: usize = 4;
    const STEPS: usize = 20;
    let ds = DashboardDataset::CustomerService;
    let table = customer_service();
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    let scripts = synthesize_scripts(
        &dashboard,
        &BatchConfig {
            base_seed: SEED,
            steps_per_session: STEPS,
            ..Default::default()
        },
        SESSIONS,
    );
    let adaptive = AdaptiveSource::new(
        &dashboard,
        AdaptiveWalkConfig {
            base_seed: SEED,
            steps_per_session: STEPS,
            ..Default::default()
        },
        SESSIONS,
    );
    let planning = EngineKind::DuckDbLike.build();
    planning.register(table.clone());
    let goals = Workflow::Shneiderman.goals_for(&dashboard).unwrap();
    let config = SessionConfig {
        seed: SEED,
        max_steps: STEPS,
        ..Default::default()
    };
    let goal = GoalSource::new(&dashboard, planning.as_ref(), &goals, config, SESSIONS).unwrap();
    let sources: [(&str, Box<dyn SessionSource + '_>); 4] = [
        (
            "idebench",
            Box::new(IdebenchSource::new(table.clone(), SEED, SESSIONS, STEPS)),
        ),
        ("adaptive", Box::new(adaptive)),
        ("scripted", Box::new(ScriptedSource::new(scripts))),
        ("goal", Box::new(goal)),
    ];
    for (name, source) in &sources {
        let queries = recorded(&table, source.as_ref());
        assert!(!queries.is_empty(), "{name}");
        for query in &queries {
            let form = NormalizedSelect::from_select(query);
            let with: PreparedQuery = prepare_for(query, Some(&form), table.clone()).unwrap();
            let without: PreparedQuery = prepare_for(query, None, table.clone()).unwrap();
            assert_eq!(half(&with), half(&without), "{name}: `{query}`");
        }
    }
}

/// A refuted GROUP BY reads no row and emits no group; a refuted global
/// aggregate still emits its one row; a refuted query repeated through a
/// delta store replays the table its first run kept.
#[test]
fn refuted_queries_answer_with_todays_stats() {
    let table = customer_service();
    let morsels = ROWS.div_ceil(MORSEL);
    let duckdb = EngineKind::DuckDbLike.build();
    duckdb.register(table.clone());
    for sql in [
        "SELECT queue, COUNT(*) FROM customer_service WHERE calls > 1e18 GROUP BY queue",
        "SELECT queue, rep_id, SUM(calls) FROM customer_service \
         WHERE queue = 'none' GROUP BY queue, rep_id HAVING SUM(calls) > 0 ORDER BY queue",
        "SELECT calls FROM customer_service WHERE calls > 1e18",
        "SELECT COUNT(*), SUM(calls) FROM customer_service WHERE calls > 1e18",
    ] {
        let query = parse_select(sql).unwrap();
        let global = query.group_by.is_empty() && query.is_aggregate_query();
        let want = execute_row_oracle(table.clone(), &query).unwrap();
        for run in ["miss", "hit"] {
            let out = duckdb.execute(&query).unwrap();
            assert_eq!(format!("{:?}", out.result), format!("{:?}", want.result));
            assert_eq!(out.result.n_rows(), usize::from(global), "{run}: `{sql}`");
            let stats = &out.stats;
            assert_eq!(
                (stats.rows_scanned, stats.rows_matched, stats.morsels_pruned),
                (0, 0, morsels),
                "{run}: `{sql}`"
            );
            assert_eq!(stats.groups, usize::from(global), "{run}: `{sql}`");
        }

        let mut delta = SessionDelta::default();
        let first = duckdb.execute_delta(&query, &mut delta).unwrap();
        let again = duckdb.execute_delta(&query, &mut delta).unwrap();
        for out in [&first, &again] {
            assert_eq!(format!("{:?}", out.result), format!("{:?}", want.result));
        }
        if query.is_aggregate_query() {
            assert_eq!(again.stats.delta_group_hits, 1, "`{sql}` kept its table");
            assert_eq!(again.stats.groups, first.stats.groups, "`{sql}`");
        }
    }
}

/// Planning more shapes than the memo holds drops it whole and goes on
/// answering: earlier shapes are planned again.
#[test]
fn more_shapes_than_the_bound_still_answer() {
    let table = parity_table();
    let mut paths = Paths::new(&table);
    let shape = |i: usize| {
        parse_select(&format!(
            "SELECT queue, SUM(calls) + {i} AS s FROM t WHERE calls > {} GROUP BY queue ORDER BY s DESC, queue LIMIT {}",
            i % 7,
            i % 3 + 1
        ))
        .unwrap()
    };
    let queries: Vec<Select> = (0..MEMO_SHAPES + 40).map(shape).collect();
    let wants: Vec<Answer> = queries.iter().map(|q| oracle(&table, q)).collect();
    for _ in 0..2 {
        for (query, want) in queries.iter().zip(&wants) {
            for (path, got) in paths.answers(query) {
                assert_eq!(&got, want, "{path} on `{query}`");
            }
        }
    }
}
