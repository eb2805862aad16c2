//! Property test: the vectorized batch path is byte-identical to the
//! row-at-a-time oracle.
//!
//! The batch kernels, the filters settled by column bounds, and typed
//! aggregation states are only admissible because they change *nothing*
//! about results: every engine's output must match `execute_row_oracle`
//! value-for-value — same variants, same float bit patterns — across
//! NULL-heavy columns, morsel boundaries, and morsels emptied by selective
//! predicates.

use proptest::prelude::*;
use simba_engine::batch::{run_morsels, DeltaScan};
use simba_engine::exec::{finalize_rows, Kernel};
use simba_engine::group::GroupTable;
use simba_engine::plan::{prepare, QueryKind};
use simba_engine::{
    all_engines, execute_row_oracle, Dbms, DuckDbLike, EngineError, QueryOutput, RowBitmap,
    SqliteLike,
};
use simba_sql::{BinOp, Expr, Func, Select, SelectItem};
use simba_store::mix::splitmix64;
use simba_store::zonemap::morsel_count;
use simba_store::{
    ColumnDef, ResultBuilder, ResultSet, Schema, Table, TableBuilder, Value, MORSEL_ROWS,
};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

const QUEUES: &[&str] = &["A", "B", "C", "D"];

/// A result's rows in stored order.
fn rows_of(result: &ResultSet) -> Vec<Vec<Value>> {
    result.rows().map(|r| r.to_vec()).collect()
}

/// A scan's emitted rows in emission order, sort keys included.
fn built(rows: ResultBuilder) -> Vec<Vec<Value>> {
    let names = vec![String::new(); rows.width()];
    rows_of(&rows.finish(names))
}

/// Bitwise value equality: `Int(3)` ≠ `Float(3.0)`, floats compare by bits.
fn strict_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

/// Canonical row order: the total order, tie-broken by type rank so that a
/// numerically-equal `Int`/`Float` pair cannot swap positions between runs.
fn canon_cmp(a: &[Value], b: &[Value]) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }
    for (x, y) in a.iter().zip(b) {
        let ord = x.cmp(y).then_with(|| rank(x).cmp(&rank(y)));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

/// Assert an engine output is byte-identical to the oracle output, modulo
/// group emission order (both sides are canonically sorted first).
fn assert_byte_identical(name: &str, select: &Select, engine: &dyn Dbms, table: &Arc<Table>) {
    let oracle = execute_row_oracle(table.clone(), select).expect("oracle executes");
    let out = engine.execute(select).expect("engine executes");
    assert_eq!(
        out.result.columns(),
        oracle.result.columns(),
        "{name}: column names differ on `{select}`"
    );
    assert_eq!(
        out.stats.rows_matched, oracle.stats.rows_matched,
        "{name}: rows_matched differs on `{select}` (pruning must not change matches)"
    );
    let mut got = rows_of(&out.result);
    let mut want = rows_of(&oracle.result);
    got.sort_by(|a, b| canon_cmp(a, b));
    want.sort_by(|a, b| canon_cmp(a, b));
    assert_eq!(
        got.len(),
        want.len(),
        "{name}: row count differs on `{select}`"
    );
    for (g, w) in got.iter().zip(&want) {
        let same = g.len() == w.len() && g.iter().zip(w).all(|(a, b)| strict_eq(a, b));
        assert!(
            same,
            "{name}: rows differ on `{select}`:\n  engine: {g:?}\n  oracle: {w:?}"
        );
    }
}

#[derive(Debug, Clone)]
struct Row {
    queue: Option<&'static str>,
    calls: Option<i64>,
    cost: Option<f64>,
    ts: i64,
}

/// NULL-heavy rows: every nullable column is NULL half the time.
fn row_strategy() -> impl Strategy<Value = Row> {
    (
        proptest::option::weighted(0.5, proptest::sample::select(QUEUES)),
        proptest::option::weighted(0.5, -50i64..500),
        proptest::option::weighted(0.5, -10.0f64..50.0),
        1_600_000_000i64..1_600_400_000,
    )
        .prop_map(|(queue, calls, cost, ts)| Row {
            queue,
            calls,
            cost,
            ts,
        })
}

fn build_table(rows: &[Row]) -> Arc<Table> {
    let schema = Schema::new(
        "t",
        vec![
            ColumnDef::categorical("queue"),
            ColumnDef::quantitative_int("calls"),
            ColumnDef::quantitative_float("cost"),
            ColumnDef::temporal("ts"),
        ],
    );
    let mut b = TableBuilder::new(schema, rows.len());
    for r in rows {
        b.push_row(vec![
            r.queue.map_or(Value::Null, Value::from),
            r.calls.map_or(Value::Null, Value::Int),
            r.cost.map_or(Value::Null, Value::Float),
            Value::Int(r.ts),
        ]);
    }
    Arc::new(b.finish())
}

fn predicate_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        proptest::sample::subsequence(QUEUES.to_vec(), 1..=2)
            .prop_map(|vs| Expr::in_strs("queue", vs)),
        (
            -50i64..500,
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
        (-10.0f64..40.0, 0.0f64..20.0).prop_map(|(lo, width)| Expr::Between {
            expr: Box::new(Expr::col("cost")),
            low: Box::new(Expr::float(lo)),
            high: Box::new(Expr::float(lo + width)),
            negated: false,
        }),
        Just(Expr::IsNull {
            expr: Box::new(Expr::col("calls")),
            negated: false
        }),
    ]
}

/// Aggregates that get typed columns *and* ones that get boxed accumulator
/// columns, mixed freely in one group table.
fn aggregate_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::count_star()),
        Just(Expr::agg(Func::Count, Expr::col("calls"))),
        Just(Expr::agg(Func::Sum, Expr::col("calls"))),
        Just(Expr::agg(Func::Sum, Expr::col("cost"))),
        Just(Expr::agg(Func::Avg, Expr::col("calls"))),
        Just(Expr::agg(Func::Avg, Expr::col("cost"))),
        Just(Expr::agg(Func::Min, Expr::col("calls"))),
        Just(Expr::agg(Func::Max, Expr::col("cost"))),
        Just(Expr::Function {
            func: Func::Count,
            args: vec![Expr::col("queue")],
            distinct: true
        }),
        // SUM over a computed argument: no typed path, generic per-row eval.
        Just(Expr::agg(
            Func::Sum,
            Expr::binary(Expr::col("calls"), BinOp::Add, Expr::int(1))
        )),
        // MIN over a dictionary column: a boxed column over strings.
        Just(Expr::agg(Func::Min, Expr::col("queue"))),
    ]
}

fn aggregate_query_strategy() -> impl Strategy<Value = Select> {
    (
        proptest::sample::subsequence(vec!["queue", "calls"], 0..=2),
        proptest::collection::vec(aggregate_strategy(), 1..=3),
        proptest::collection::vec(predicate_strategy(), 0..=3),
    )
        .prop_map(|(groups, aggs, preds)| {
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
            select
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn every_engine_is_byte_identical_to_row_oracle_on_aggregates(
        rows in proptest::collection::vec(row_strategy(), 0..250),
        select in aggregate_query_strategy(),
    ) {
        let table = build_table(&rows);
        for engine in all_engines() {
            engine.register(table.clone());
            assert_byte_identical(engine.name(), &select, engine.as_ref(), &table);
        }
    }

    #[test]
    fn every_engine_is_byte_identical_to_row_oracle_on_projections(
        rows in proptest::collection::vec(row_strategy(), 0..250),
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
        let table = build_table(&rows);
        for engine in all_engines() {
            engine.register(table.clone());
            assert_byte_identical(engine.name(), &select, engine.as_ref(), &table);
        }
    }
}

/// Build a table spanning several morsels: morsel 0 mixed, morsel 1 entirely
/// NULL in the numeric columns, morsel 2 partial. Exercises boundary
/// alignment, all-NULL morsels, and morsels emptied by selective filters.
fn multi_morsel_table() -> Arc<Table> {
    let n = MORSEL_ROWS * 2 + 500;
    let schema = Schema::new(
        "t",
        vec![
            ColumnDef::categorical("queue"),
            ColumnDef::quantitative_int("calls"),
            ColumnDef::quantitative_float("cost"),
            ColumnDef::temporal("ts"),
        ],
    );
    let mut b = TableBuilder::new(schema, n);
    for i in 0..n {
        let in_null_morsel = (MORSEL_ROWS..2 * MORSEL_ROWS).contains(&i);
        let queue = QUEUES[i % QUEUES.len()];
        if in_null_morsel {
            b.push_row(vec![
                Value::str(queue),
                Value::Null,
                Value::Null,
                Value::Int(1_600_000_000 + i as i64),
            ]);
        } else {
            b.push_row(vec![
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::str(queue)
                },
                Value::Int((i % 1000) as i64),
                Value::Float((i % 97) as f64 * 0.5),
                Value::Int(1_600_000_000 + i as i64),
            ]);
        }
    }
    Arc::new(b.finish())
}

#[test]
fn multi_morsel_byte_identity_with_pruning_and_parallelism() {
    let table = multi_morsel_table();
    let mut queries: Vec<String> = [
        // Selective: empties some morsels, the all-NULL one among them.
        "SELECT queue, COUNT(*), SUM(calls), MIN(calls), MAX(calls) \
         FROM t WHERE calls > 900 GROUP BY queue",
        // Unfiltered typed aggregation across all morsels.
        "SELECT queue, COUNT(*), AVG(cost), SUM(cost) FROM t GROUP BY queue",
        // Global aggregate with an impossible predicate: no row read, still
        // exactly one output row.
        "SELECT COUNT(*), SUM(calls) FROM t WHERE calls > 100000",
        // Projection crossing morsel boundaries.
        "SELECT queue, calls FROM t WHERE calls >= 995",
    ]
    .map(String::from)
    .into();
    // Typed and boxed aggregate columns side by side in one table, under a
    // dictionary key, a two-key hash key and no key; the scan threads merge
    // them across ranges.
    for keys in ["queue", "queue, BIN(calls, 100)", ""] {
        for aggs in [
            "COUNT(*), SUM(cost), COUNT(DISTINCT queue), SUM(calls + 1)",
            "COUNT(*), SUM(calls), MAX(cost), COUNT(DISTINCT ts), SUM(calls + 1), MIN(queue)",
        ] {
            queries.push(if keys.is_empty() {
                format!("SELECT {aggs} FROM t")
            } else {
                format!("SELECT {keys}, {aggs} FROM t GROUP BY {keys}")
            });
        }
    }
    let mut engines = all_engines();
    engines.push(Arc::new(DuckDbLike::with_scan_threads(4)));
    for sql in &queries {
        let select = simba_sql::parse_select(sql).unwrap();
        for engine in &engines {
            engine.register(table.clone());
            // Float SUM/AVG under the parallel scan may associate partial
            // sums differently; the parallel engine only sees the queries
            // whose aggregates are exact.
            if engine.scan_threads() > 1 && (sql.contains("SUM(cost)") || sql.contains("AVG(cost)"))
            {
                continue;
            }
            assert_byte_identical(engine.name(), &select, engine.as_ref(), &table);
        }
    }
}

#[test]
fn empty_table_byte_identity() {
    let schema = Schema::new(
        "t",
        vec![
            ColumnDef::categorical("queue"),
            ColumnDef::quantitative_int("calls"),
            ColumnDef::quantitative_float("cost"),
            ColumnDef::temporal("ts"),
        ],
    );
    let table = Arc::new(TableBuilder::new(schema, 0).finish());
    for sql in [
        "SELECT COUNT(*), SUM(calls) FROM t",
        "SELECT queue, COUNT(*) FROM t GROUP BY queue",
        "SELECT queue, calls FROM t WHERE calls > 0",
    ] {
        let select = simba_sql::parse_select(sql).unwrap();
        for engine in all_engines() {
            engine.register(table.clone());
            assert_byte_identical(engine.name(), &select, engine.as_ref(), &table);
        }
    }
}

// ---------------------------------------------------------------------------
// Range kernels, the per-column conjunct combiner, contradictory filters.
//
// The filter compiler turns every `col <op> number` and `[NOT] BETWEEN`
// into an integer interval test and folds the conjuncts of one column into
// one kernel. `sqlite-like` never goes through it, so it is the reference
// here as everywhere: the batch engine (and the seeded scans session-delta
// execution runs) must agree with it value for value where the folding is
// hardest — bounds `f64` cannot tell apart, `-0.0` against `0.0`, NaN at the
// top of the order, inverted and contradictory bounds, all-NULL columns.

/// 2^53: from here on several `i64` share one `f64`.
const BIG: i64 = 1 << 53;

const INT_POOL: &[i64] = &[
    i64::MIN,
    -BIG - 1,
    -BIG,
    -7,
    -1,
    0,
    1,
    3,
    12,
    BIG - 1,
    BIG,
    BIG + 1,
    BIG + 2,
    i64::MAX,
];

const FLOAT_POOL: &[f64] = &[
    f64::NEG_INFINITY,
    -9.3e18,
    -9_007_199_254_740_992.0,
    -2.5,
    -0.0,
    0.0,
    0.5,
    3.0,
    12.25,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    9.3e18,
    f64::INFINITY,
    f64::NAN,
];

fn edge_schema() -> Schema {
    Schema::new(
        "t",
        vec![
            ColumnDef::categorical("queue"),
            ColumnDef::quantitative_int("n"),
            ColumnDef::quantitative_int("big"),
            ColumnDef::quantitative_float("x"),
            ColumnDef::quantitative_int("void_i"),
            ColumnDef::quantitative_float("void_f"),
        ],
    )
}

/// Four full morsels and a partial one, so four scan threads each own a
/// range: `n` small ints, `big` ints at the edges of `f64` and `i64`, `x`
/// floats from the pool (NaN, infinities and both zeros included), each
/// NULL now and then, and `void_i` / `void_f` NULL in every row.
fn edge_table() -> Arc<Table> {
    static TABLE: OnceLock<Arc<Table>> = OnceLock::new();
    TABLE
        .get_or_init(|| {
            let n = 4 * MORSEL_ROWS + 777;
            let mut b = TableBuilder::new(edge_schema(), n);
            for i in 0..n as u64 {
                let draw = |salt: u64| splitmix64(i ^ (salt << 56)) as usize;
                let or_null = |salt: u64, v: Value| {
                    if draw(salt) % 6 == 0 {
                        Value::Null
                    } else {
                        v
                    }
                };
                b.push_row(vec![
                    or_null(1, Value::str(QUEUES[draw(2) % QUEUES.len()])),
                    or_null(3, Value::Int((draw(4) % 25) as i64 - 9)),
                    or_null(5, Value::Int(INT_POOL[draw(6) % INT_POOL.len()])),
                    or_null(7, Value::Float(FLOAT_POOL[draw(8) % FLOAT_POOL.len()])),
                    Value::Null,
                    Value::Null,
                ]);
            }
            Arc::new(b.finish())
        })
        .clone()
}

const NUMERIC_COLUMNS: &[&str] = &["n", "big", "x", "void_i", "void_f"];

/// An Int or a Float literal from the pools, whatever the column's type.
fn bound_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        proptest::sample::select(INT_POOL).prop_map(Expr::int),
        proptest::sample::select(FLOAT_POOL).prop_map(Expr::float),
    ]
}

/// One numeric conjunct, its column still open: a comparison or a
/// `[NOT] BETWEEN` (its bounds are drawn independently, so half of them
/// are inverted).
#[derive(Debug, Clone)]
enum Conjunct {
    Compare(BinOp, Expr),
    Between(Expr, Expr, bool),
}

impl Conjunct {
    fn on(self, col: &str) -> Expr {
        match self {
            Conjunct::Compare(op, lit) => Expr::binary(Expr::col(col), op, lit),
            Conjunct::Between(low, high, negated) => Expr::Between {
                expr: Box::new(Expr::col(col)),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            },
        }
    }
}

fn conjunct_strategy() -> impl Strategy<Value = Conjunct> {
    let ops = vec![
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
        BinOp::Eq,
        BinOp::NotEq,
    ];
    prop_oneof![
        (proptest::sample::select(ops), bound_strategy())
            .prop_map(|(op, lit)| Conjunct::Compare(op, lit)),
        (bound_strategy(), bound_strategy(), any::<bool>())
            .prop_map(|(low, high, negated)| Conjunct::Between(low, high, negated)),
    ]
}

/// Two `[NOT] IN` conjuncts on `queue` whose sets are identical, nested or
/// disjoint.
fn queue_conjuncts() -> impl Strategy<Value = Vec<Expr>> {
    (
        proptest::sample::subsequence(QUEUES.to_vec(), 1..=3),
        0usize..3,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(first, relation, negate_first, negate_second)| {
            let second: Vec<&str> = match relation {
                0 => first.clone(),
                1 => first[..1].to_vec(),
                _ => QUEUES
                    .iter()
                    .copied()
                    .filter(|q| !first.contains(q))
                    .collect(),
            };
            let in_list = |values: Vec<&str>, negated: bool| Expr::InList {
                expr: Box::new(Expr::col("queue")),
                list: values.into_iter().map(Expr::str).collect(),
                negated,
            };
            vec![in_list(first, negate_first), in_list(second, negate_second)]
        })
}

/// 2–4 conjuncts on one numeric column, sometimes the two `queue`
/// conjuncts around them and one conjunct on a second column.
fn stacked_filter_strategy() -> impl Strategy<Value = Expr> {
    (
        proptest::sample::select(NUMERIC_COLUMNS),
        proptest::collection::vec(conjunct_strategy(), 2..=4),
        proptest::option::of(queue_conjuncts()),
        proptest::option::of((
            proptest::sample::select(NUMERIC_COLUMNS),
            conjunct_strategy(),
        )),
    )
        .prop_map(|(col, stacked, queues, other)| {
            let mut conjuncts: Vec<Expr> = stacked.into_iter().map(|c| c.on(col)).collect();
            if let Some(queues) = queues {
                // Apart, so the combiner has to find the pair.
                let mut queues = queues.into_iter();
                conjuncts.insert(0, queues.next().unwrap());
                conjuncts.extend(queues);
            }
            conjuncts.extend(other.map(|(col, c)| c.on(col)));
            Expr::conjoin(conjuncts).unwrap()
        })
}

/// The three query shapes a filter is checked under. Aggregates are exact
/// ones only, so the four-thread scan must agree to the bit as well.
fn shapes(filter: &Expr) -> Vec<Select> {
    let exact_aggs = || {
        vec![
            SelectItem::bare(Expr::count_star()),
            SelectItem::bare(Expr::agg(Func::Sum, Expr::col("n"))),
            SelectItem::bare(Expr::agg(Func::Min, Expr::col("big"))),
            SelectItem::bare(Expr::agg(Func::Max, Expr::col("x"))),
            SelectItem::bare(Expr::agg(Func::Count, Expr::col("void_f"))),
        ]
    };
    let global = Select::new("t", exact_aggs());
    let mut grouped_items = vec![SelectItem::bare(Expr::col("queue"))];
    grouped_items.extend(exact_aggs());
    let mut grouped = Select::new("t", grouped_items);
    grouped.group_by = vec![Expr::col("queue")];
    // No ORDER BY: every engine emits projections in table order.
    let mut limited = Select::new(
        "t",
        ["queue", "n", "big", "x"]
            .iter()
            .map(|c| SelectItem::bare(Expr::col(*c)))
            .collect(),
    );
    limited.limit = Some(40);
    let mut shapes = vec![global, grouped, limited];
    for s in &mut shapes {
        s.where_clause = Some(filter.clone());
    }
    shapes
}

/// The scans session-delta execution runs on `duckdb-like`, as an engine:
/// without `base`, the capturing scan of the query itself; with one, the
/// scan of the query seeded from `base`'s captured selection (`exact` when
/// the two filters are the same), the way a refinement step executes.
struct DeltaPath {
    table: Arc<Table>,
    threads: usize,
    base: Option<Select>,
}

impl Dbms for DeltaPath {
    fn name(&self) -> &'static str {
        "duckdb-like delta scan"
    }

    fn register(&self, _table: Arc<Table>) {}

    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
        let plan = prepare(query, self.table.clone())?;
        let (rows, stats, capture) = match &self.base {
            None => run_morsels(&plan, self.threads, DeltaScan::Capture),
            Some(base) => {
                let base_plan = prepare(base, self.table.clone())?;
                let (_, _, capture) = run_morsels(&base_plan, self.threads, DeltaScan::Capture);
                // A base without WHERE keeps no bitmap: its survivors are
                // every row.
                let seed = capture
                    .expect("a capturing scan captures")
                    .selection
                    .unwrap_or_else(|| {
                        assert!(base.where_clause.is_none(), "`{base}` kept no rows");
                        RowBitmap::full(self.table.row_count())
                    });
                let exact = base.where_clause == query.where_clause;
                run_morsels(
                    &plan,
                    self.threads,
                    DeltaScan::Seeded { seed: &seed, exact },
                )
            }
        };
        let capture = capture.expect("capturing and seeded scans both capture");
        // A query without WHERE keeps no bitmap: its survivors are the
        // whole table.
        assert_eq!(
            capture.selection.is_some(),
            query.where_clause.is_some(),
            "`{query}`"
        );
        if let Some(selection) = &capture.selection {
            assert_eq!(selection.len(), stats.rows_matched, "`{query}`");
            assert_eq!(selection.iter().count(), selection.len(), "`{query}`");
            assert_bitmap_bound(selection, self.table.row_count());
        }
        let names = plan.output_names.clone();
        Ok(QueryOutput {
            result: finalize_rows(rows, names, &plan.order_dirs, plan.limit),
            stats,
            elapsed: std::time::Duration::ZERO,
        })
    }
}

/// A bitmap of a `rows`-row table takes ⌈rows / 64⌉ words, and none when
/// it holds no row.
fn assert_bitmap_bound(bitmap: &RowBitmap, rows: usize) {
    let bound = if bitmap.is_empty() {
        0
    } else {
        rows.div_ceil(64) * 8
    };
    assert_eq!(
        bitmap.heap_bytes(),
        bound,
        "{} of {rows} rows",
        bitmap.len()
    );
}

/// `select` on both engines and on `duckdb-like` at four scan threads,
/// against the row oracle.
fn assert_batch_engines_match_sqlite(select: &Select, table: &Arc<Table>) {
    let mut engines = all_engines();
    engines.push(Arc::new(DuckDbLike::with_scan_threads(4)));
    for engine in engines {
        engine.register(table.clone());
        assert_byte_identical(engine.name(), select, engine.as_ref(), table);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn stacked_range_filters_are_byte_identical_to_sqlite_like(
        filter in stacked_filter_strategy(),
    ) {
        let table = edge_table();
        for select in shapes(&filter) {
            assert_batch_engines_match_sqlite(&select, &table);
            for threads in [1, 4] {
                let capturing = DeltaPath { table: table.clone(), threads, base: None };
                assert_byte_identical(capturing.name(), &select, &capturing, &table);
            }
        }
    }

    /// A refinement step: the query adds conjuncts to `base`'s filter and
    /// scans only `base`'s survivors, re-applying its own (combined)
    /// kernels to them; an identical filter re-applies none.
    #[test]
    fn seeded_scans_of_stacked_filters_are_byte_identical_to_sqlite_like(
        base_filter in stacked_filter_strategy(),
        extra_col in proptest::sample::select(NUMERIC_COLUMNS),
        extra in conjunct_strategy(),
    ) {
        let table = edge_table();
        let refined_filter =
            Expr::conjoin(vec![base_filter.clone(), extra.on(extra_col)]).unwrap();
        let bases = shapes(&base_filter);
        for (ix, refined) in shapes(&refined_filter).into_iter().enumerate() {
            for threads in [1, 4] {
                for (base, query) in [(&bases[0], &refined), (&bases[ix], &bases[ix])] {
                    let seeded = DeltaPath {
                        table: table.clone(),
                        threads,
                        base: Some(base.clone()),
                    };
                    assert_byte_identical(seeded.name(), query, &seeded, &table);
                }
            }
        }
    }
}

/// Contradictory filters are answered without reading a row — and still
/// answered right: a global aggregate is one row of `COUNT` 0 and NULLs,
/// not zero rows; a GROUP BY and a projection are empty.
#[test]
fn contradictory_filters_answer_without_reading_a_row() {
    let table = edge_table();
    let duck = DuckDbLike::new();
    duck.register(table.clone());
    for filter in [
        "n BETWEEN 1 AND 3 AND n BETWEEN 5 AND 9",
        "x BETWEEN 0.5 AND 3 AND queue IN ('A') AND x > 3.0",
        "queue IN ('A', 'B') AND n > 0 AND queue IN ('C')",
        "queue NOT IN ('A', 'B', 'C', 'D') AND big < 0",
        "big >= 9007199254740993 AND big <= 9007199254740992",
        "x BETWEEN 0.0 AND -0.0",
        "n = 3 AND n = 4",
        "void_i BETWEEN 9 AND 1",
    ] {
        let expr = simba_sql::parse_select(&format!("SELECT n FROM t WHERE {filter}"))
            .unwrap()
            .where_clause
            .unwrap();
        let shapes = shapes(&expr);
        let [global, grouped, limited] = &shapes[..] else {
            unreachable!()
        };
        for select in [global, grouped, limited] {
            assert_batch_engines_match_sqlite(select, &table);
            let out = duck.execute(select).unwrap();
            assert_eq!(out.stats.rows_scanned, 0, "`{select}` read rows");
            assert_eq!(out.stats.morsels_pruned, 5, "`{select}`");
        }
        let out = duck.execute(global).unwrap();
        assert_eq!(
            rows_of(&out.result),
            vec![vec![
                Value::Int(0),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Int(0)
            ]],
            "`{global}`"
        );
        for empty in [grouped, limited] {
            assert_eq!(duck.execute(empty).unwrap().result.n_rows(), 0, "`{empty}`");
        }
    }
}

/// The edge table reaches the widest lane: `big` holds the `i64` extremes
/// and ±2^53, so every test above runs the kernels' and aggregates' 8-byte
/// copies, while `n` (−9..15) and the all-NULL `void_i` run the 1-byte ones.
#[test]
fn edge_table_stores_big_at_eight_bytes_and_small_ints_at_one() {
    let table = edge_table();
    let width = |col: &str| {
        table
            .column_by_name(col)
            .unwrap()
            .int_data()
            .unwrap()
            .width()
    };
    assert_eq!(width("big"), 8);
    assert_eq!(width("n"), 1);
    assert_eq!(width("void_i"), 1);
    assert_eq!(
        table
            .column_by_name("queue")
            .unwrap()
            .code_data()
            .unwrap()
            .width(),
        1
    );
}

/// `sql_cmp` compares two `Int`s exactly, so the interpreter (`sqlite-like`
/// is the row oracle's twin) tells 2^53 + 1 from 2^53 like the kernels do.
#[test]
fn ints_past_2_pow_53_compare_exactly_on_every_engine() {
    let table = edge_table();
    let sqlite = SqliteLike::new();
    sqlite.register(table.clone());
    let count = |filter: &str| {
        let select =
            simba_sql::parse_select(&format!("SELECT COUNT(*) FROM t WHERE {filter}")).unwrap();
        assert_batch_engines_match_sqlite(&select, &table);
        sqlite.execute(&select).unwrap().result.value(0, 0)
    };
    let above = count("big > 9007199254740992");
    let at_least_next = count("big >= 9007199254740993");
    assert_eq!(above, at_least_next);
    assert_ne!(above, count("big >= 9007199254740992"));
    assert_eq!(
        count("big BETWEEN 9007199254740993 AND 9007199254740993"),
        count("big = 9007199254740993")
    );
    assert_ne!(count("big = 9007199254740993"), Value::Int(0));
}

/// The WHERE shapes at the edge of the typed set, which `prepare` matches
/// on the query's own `Expr`: each compiles to the kernels it always has —
/// `Generic` for a literal on the left or a string against an Int column,
/// `DictIn` for `=` on a dictionary column and for an `IN` list mixing Int
/// and Str literals there, `Range` for NaN, ±inf and ≥ 2^53 on an Int
/// column, one kernel for a repeated conjunct — and answers byte-identically
/// to the row oracle on every engine.
#[test]
fn typed_set_boundary_shapes_match_sqlite_like() {
    let cmp = |c: &str, op: BinOp, v: Expr| Expr::binary(Expr::col(c), op, v);
    let between = |c: &str, lo: Expr, hi: Expr| Expr::Between {
        expr: Box::new(Expr::col(c)),
        low: Box::new(lo),
        high: Box::new(hi),
        negated: false,
    };
    let in_list = |c: &str, list: Vec<Expr>| Expr::InList {
        expr: Box::new(Expr::col(c)),
        list,
        negated: false,
    };
    let two53 = BIG as f64;
    let cases: Vec<(Expr, &[&str])> = vec![
        (
            Expr::binary(Expr::int(5), BinOp::Lt, Expr::col("n")),
            &["Generic"],
        ),
        (cmp("n", BinOp::Eq, Expr::str("3")), &["Generic"]),
        (cmp("big", BinOp::Gt, Expr::str("x")), &["Generic"]),
        (cmp("queue", BinOp::Eq, Expr::str("B")), &["DictIn"]),
        (cmp("queue", BinOp::NotEq, Expr::str("B")), &["DictIn"]),
        (cmp("queue", BinOp::Eq, Expr::int(1)), &["Generic"]),
        (cmp("big", BinOp::Lt, Expr::float(f64::NAN)), &["Range"]),
        (cmp("big", BinOp::GtEq, Expr::float(-f64::NAN)), &["Range"]),
        (
            cmp("big", BinOp::Gt, Expr::float(f64::INFINITY)),
            &["never"],
        ),
        (
            cmp("big", BinOp::GtEq, Expr::float(f64::NEG_INFINITY)),
            &["Range"],
        ),
        (cmp("big", BinOp::Eq, Expr::float(two53)), &["Range"]),
        (cmp("big", BinOp::Gt, Expr::float(two53)), &["Range"]),
        (
            between("big", Expr::float(-two53), Expr::float(9.3e18)),
            &["Range"],
        ),
        (cmp("n", BinOp::NotEq, Expr::float(f64::NAN)), &["Range"]),
        (
            in_list(
                "queue",
                vec![Expr::int(1), Expr::str("B"), Expr::float(2.5)],
            ),
            &["DictIn"],
        ),
        (
            in_list("queue", vec![Expr::int(1), Expr::float(2.5)]),
            &["never"],
        ),
        (
            in_list("n", vec![Expr::int(1), Expr::str("B")]),
            &["Generic"],
        ),
        (
            cmp("n", BinOp::Gt, Expr::int(2)).and(cmp("n", BinOp::Gt, Expr::int(2))),
            &["Range"],
        ),
        (
            in_list("queue", vec![Expr::str("A"), Expr::str("B")])
                .and(cmp("n", BinOp::Lt, Expr::int(9)))
                .and(in_list("queue", vec![Expr::str("A"), Expr::str("B")])),
            &["DictIn", "Range"],
        ),
    ];
    let table = edge_table();
    for (filter, want) in cases {
        let shapes = shapes(&filter);
        let kernels = prepare(&shapes[0], table.clone()).unwrap().filter.unwrap();
        let kinds: Vec<&str> = kernels
            .iter()
            .map(|k| match k {
                k if k.never_matches() => "never",
                Kernel::Range { .. } => "Range",
                Kernel::DictIn { .. } => "DictIn",
                Kernel::Generic(_) => "Generic",
            })
            .collect();
        assert_eq!(kinds, want, "`{}`", shapes[0]);
        for select in &shapes {
            assert_batch_engines_match_sqlite(select, &table);
        }
    }
}

/// `BIN(big, w)` and `ABS(big)` as group keys over the `i64` extremes: a
/// bucket below `i64::MIN` and `|i64::MIN|` are not `i64`s, and every engine
/// and the row oracle group those rows under NULL instead of panicking
/// (debug) or inventing a wrapped bucket (release).
#[test]
fn unrepresentable_buckets_and_magnitudes_group_under_null_on_every_engine() {
    let table = edge_table();
    let sqlite = SqliteLike::new();
    sqlite.register(table.clone());
    let run = |sql: String| {
        let select = simba_sql::parse_select(&sql).unwrap();
        assert_batch_engines_match_sqlite(&select, &table);
        rows_of(&sqlite.execute(&select).unwrap().result)
    };
    let count = |filter: &str| run(format!("SELECT COUNT(*) FROM t WHERE {filter}"))[0][0].clone();
    let null_group = |key: &str| {
        let rows = run(format!(
            "SELECT {key} AS k, COUNT(*) AS c FROM t GROUP BY {key}"
        ));
        let null_rows: Vec<_> = rows.iter().filter(|r| r[0].is_null()).collect();
        assert_eq!(null_rows.len(), 1, "`{key}`: {rows:?}");
        null_rows[0][1].clone()
    };
    let Value::Int(nulls) = count("big IS NULL") else {
        panic!("COUNT is an Int");
    };
    let Value::Int(mins) = count("big < -9223372036854775807") else {
        panic!("COUNT is an Int");
    };
    assert!(nulls > 0 && mins > 0);
    // i64::MIN is even: its bucket of width 2 is itself, of width 3 or 7
    // it lies below the range.
    assert_eq!(null_group("BIN(big, 2)"), Value::Int(nulls));
    assert_eq!(null_group("BIN(big, 3)"), Value::Int(nulls + mins));
    assert_eq!(null_group("BIN(big, 7)"), Value::Int(nulls + mins));
    assert_eq!(null_group("ABS(big)"), Value::Int(nulls + mins));
}

// ---------------------------------------------------------------------------
// Column bounds.
//
// `compile_where` checks every interval against its column's `[min, max]`
// at plan time and turns one no valid row can pass into the empty interval,
// so the scan reads no row. The bounds decide nothing else: a range that can match reads
// every row, even where one morsel's own span would have ruled it out.

/// The edge table's columns, 3.4 morsels of them, with `n` and `big`
/// ascending down the table — morsel `m` holds `n` in
/// `[m * MORSEL_ROWS, (m + 1) * MORSEL_ROWS)` — and `x` ascending in
/// quarters, NULL in every fifth row but the last.
fn sorted_table() -> Arc<Table> {
    let n = 3 * MORSEL_ROWS + 800;
    let mut b = TableBuilder::new(edge_schema(), n);
    for i in 0..n {
        b.push_row(vec![
            Value::str(QUEUES[i % QUEUES.len()]),
            Value::Int(i as i64),
            Value::Int(i as i64 * 1_000_003 - 7),
            if i % 5 == 1 && i + 1 < n {
                Value::Null
            } else {
                Value::Float(i as f64 / 4.0)
            },
            Value::Null,
            Value::Null,
        ]);
    }
    Arc::new(b.finish())
}

/// `filter` on `table` in the three query shapes, each on both engines
/// and four-thread `duckdb-like`, and as seeded delta scans — exact, and
/// refining a satisfiable `queue` filter — at one and four threads, all
/// against `sqlite-like`. Returns `duckdb-like`'s `(rows_scanned,
/// morsels_pruned)`, which every shape and every seeded scan must share.
fn bounds_case(filter: &str, table: &Arc<Table>) -> (usize, usize) {
    let parse = |f: &str| {
        simba_sql::parse_select(&format!("SELECT n FROM t WHERE {f}"))
            .unwrap()
            .where_clause
            .unwrap()
    };
    let wide = "queue IN ('A', 'B', 'C')";
    let base = shapes(&parse(wide))[0].clone();
    let refined = shapes(&parse(&format!("{wide} AND ({filter})")));
    let duck = DuckDbLike::new();
    duck.register(table.clone());
    let mut seen = None;
    for (select, refined) in shapes(&parse(filter)).iter().zip(&refined) {
        assert_batch_engines_match_sqlite(select, table);
        let out = duck.execute(select).unwrap();
        let stats = (out.stats.rows_scanned, out.stats.morsels_pruned);
        assert_eq!(*seen.get_or_insert(stats), stats, "`{select}`");
        for threads in [1, 4] {
            for (base, query) in [(select, select), (&base, refined)] {
                let seeded = DeltaPath {
                    table: table.clone(),
                    threads,
                    base: Some(base.clone()),
                };
                assert_byte_identical(seeded.name(), query, &seeded, table);
            }
        }
        if stats.0 == 0 {
            // A settled filter reads nothing from a seed either.
            let seeded = DeltaPath {
                table: table.clone(),
                threads: 1,
                base: Some(base.clone()),
            };
            let out = seeded.execute(refined).unwrap();
            assert_eq!(out.stats.rows_scanned, 0, "`{refined}`");
        }
    }
    seen.unwrap()
}

/// `SELECT MIN(col), MAX(col)` from the row oracle.
fn oracle_bounds(table: &Arc<Table>, col: &str) -> (Value, Value) {
    let select = simba_sql::parse_select(&format!("SELECT MIN({col}), MAX({col}) FROM t")).unwrap();
    let result = execute_row_oracle(table.clone(), &select).unwrap().result;
    (result.value(0, 0), result.value(0, 1))
}

/// Filters that reach past a column's span, or whose hole covers it, or on
/// a column with no valid row, read no row and prune every morsel; the ones
/// a key short of that read every row.
#[test]
fn column_bounds_settle_filters_that_cannot_match() {
    for table in [edge_table(), sorted_table()] {
        let (Value::Int(lo), Value::Int(hi)) = oracle_bounds(&table, "n") else {
            panic!("`n` holds Ints");
        };
        let Value::Float(top) = oracle_bounds(&table, "x").1 else {
            panic!("`x` holds Floats");
        };
        let above_top = f64::from_bits(top.to_bits() + 1);
        // Float literals half a key outside and inside the span.
        let (below, above) = (lo as f64 - 0.5, hi as f64 + 0.5);
        let (inside_lo, inside_hi) = (lo as f64 + 0.5, hi as f64 - 0.5);
        let settled = [
            format!("n < {lo}"),
            format!("n > {hi}"),
            format!("n BETWEEN {} AND {}", lo - 100, lo - 1),
            format!("n BETWEEN {} AND {}", hi + 1, hi + 100),
            format!("n > {above}"),
            format!("n >= {above}"),
            format!("n <= {below}"),
            format!("n NOT BETWEEN {lo} AND {hi}"),
            format!("n NOT BETWEEN {} AND {}", lo - 1, hi + 1),
            "void_i > 0".into(),
            "void_f BETWEEN -1 AND 1".into(),
            "void_i NOT BETWEEN 1 AND 0".into(),
            "void_f <> 0.5".into(),
        ];
        let passable = [
            format!("n <= {lo}"),
            format!("n >= {hi}"),
            format!("n BETWEEN {} AND {lo}", lo - 100),
            format!("n BETWEEN {hi} AND {}", hi + 100),
            format!("n < {inside_lo}"),
            format!("n > {inside_hi}"),
            format!("n NOT BETWEEN {} AND {hi}", lo + 1),
            format!("n NOT BETWEEN {lo} AND {}", hi - 1),
            "void_i NOT BETWEEN 1 AND 0 OR n > 0".into(),
        ];
        let rows = table.row_count();
        let morsels = morsel_count(rows);
        for filter in &settled {
            assert_eq!(bounds_case(filter, &table), (0, morsels), "`{filter}`");
        }
        for filter in &passable {
            assert_eq!(bounds_case(filter, &table), (rows, 0), "`{filter}`");
        }
        // `x`'s maximum is NaN on the edge table, which SQL cannot spell.
        if !top.is_nan() {
            for filter in [format!("x > {top}"), format!("x >= {above_top}")] {
                assert_eq!(bounds_case(&filter, &table), (0, morsels), "`{filter}`");
            }
            let filter = format!("x >= {top}");
            assert_eq!(bounds_case(&filter, &table), (rows, 0), "`{filter}`");
        }
    }
}

/// A range inside the span of a sorted column matches only the first morsel
/// or only the last. A min/max per morsel would skip the others; the column
/// bounds read them all, and the answers stay the oracle's.
#[test]
fn ranges_one_morsel_span_would_prune_read_every_row() {
    let table = sorted_table();
    let rows = table.row_count();
    let last = (morsel_count(rows) - 1) * MORSEL_ROWS;
    for filter in [
        "n < 100".to_string(),
        format!("n >= {last}"),
        format!("x BETWEEN 10 AND {}", MORSEL_ROWS / 8),
    ] {
        assert_eq!(bounds_case(&filter, &table), (rows, 0), "`{filter}`");
    }
}

/// On a table with no rows every column is all-NULL, so every range
/// settles: nothing is read and there is no morsel to prune.
#[test]
fn ranges_on_a_zero_row_table_settle() {
    let table = Arc::new(TableBuilder::new(edge_schema(), 0).finish());
    for filter in ["n > 0", "x BETWEEN -1 AND 1", "big NOT BETWEEN 1 AND 0"] {
        assert_eq!(bounds_case(filter, &table), (0, 0), "`{filter}`");
    }
}

// ---------------------------------------------------------------------------
// Packed group keys.
//
// A GROUP BY whose every key is a bare dictionary column or `BIN(col, w)`
// over an Int or Float column packs its key into one `u64`. A packed key
// must stand for exactly one boxed key, so the shapes where one slot could
// stand for two — or for a key `BIN` makes NULL — stay on the boxed hash
// index. Each column below isolates one rule.

fn packed_schema() -> Schema {
    Schema::new(
        "t",
        vec![
            ColumnDef::categorical("queue"),
            ColumnDef::quantitative_int("n"),
            ColumnDef::quantitative_float("x"),
            // Both zeros: BIN keeps -0.0's sign, one slot would merge them.
            ColumnDef::quantitative_float("zeros"),
            // Sign-negative only: -0.0 is a bucket of its own, and packs.
            ColumnDef::quantitative_float("neg"),
            ColumnDef::quantitative_float("nan"),
            ColumnDef::quantitative_float("inf"),
            ColumnDef::quantitative_float("huge"),
            // The i64 extremes: BIN(ext, 3) of i64::MIN is NULL.
            ColumnDef::quantitative_int("ext"),
            // A span whose BIN(_, 1) has 65,536 buckets: with NULL, a
            // radix of 65,537, past the capture bound on its own.
            ColumnDef::quantitative_int("r17"),
        ],
    )
}

/// Four full morsels and a partial one. Every column but the span is NULL
/// now and then; the first rows pin the span's bounds. Keys are drawn
/// per row, so each scan range meets them in its own order.
fn packed_table() -> Arc<Table> {
    static TABLE: OnceLock<Arc<Table>> = OnceLock::new();
    TABLE
        .get_or_init(|| {
            let n = 4 * MORSEL_ROWS + 777;
            let mut b = TableBuilder::new(packed_schema(), n);
            for i in 0..n as u64 {
                let draw = |salt: u64| splitmix64(i ^ (salt << 56)) as usize;
                let or_null = |salt: u64, v: Value| {
                    if draw(salt) % 6 == 0 {
                        Value::Null
                    } else {
                        v
                    }
                };
                let pick = |salt: u64, pool: &[f64]| Value::Float(pool[draw(salt) % pool.len()]);
                let span = |top: i64| match i {
                    0 => top,
                    1 => 0,
                    _ => (draw(20) % 40) as i64 * (top / 40),
                };
                b.push_row(vec![
                    or_null(1, Value::str(QUEUES[draw(2) % QUEUES.len()])),
                    or_null(3, Value::Int((draw(4) % 25) as i64 - 9)),
                    or_null(5, Value::Float((draw(6) % 200) as f64 * 0.25)),
                    or_null(7, pick(8, &[-0.0, 0.0, 0.25, 3.0, 7.5])),
                    or_null(9, pick(10, &[-0.0, -0.5, -3.0, -12.25])),
                    or_null(11, pick(12, &[f64::NAN, 1.5, 2.0])),
                    or_null(13, pick(14, &[f64::INFINITY, f64::NEG_INFINITY, 1.0])),
                    or_null(15, pick(16, &[BIG as f64, 1.0, 5.0])),
                    or_null(17, Value::Int(INT_POOL[draw(18) % INT_POOL.len()])),
                    Value::Int(span(65_535)),
                ]);
            }
            Arc::new(b.finish())
        })
        .clone()
}

/// GROUP BY shapes over [`packed_table`] and the key index each must get.
const PACKED_SHAPES: &[(&str, &str)] = &[
    ("queue", "packed"),
    ("queue, BIN(n, 5)", "packed"),
    ("BIN(x, 5)", "packed"),
    ("BIN(x, 1), queue, BIN(n, 2)", "packed"),
    ("BIN(neg, 1), queue", "packed"),
    ("BIN(zeros, 1)", "hash"),
    ("queue, BIN(nan, 1)", "hash"),
    ("BIN(inf, 2)", "hash"),
    ("BIN(huge, 1)", "hash"),
    ("BIN(ext, 3)", "hash"),
    ("BIN(ext, 2)", "packed"),
    ("BIN(r17, 1)", "packed"),
    ("queue, BIN(r17, 1)", "packed"),
    ("BIN(r17, 1), BIN(ext, 2)", "hash"),
    ("queue, n", "hash"),
];

/// `SELECT {keys}, <exact aggregates> FROM t [WHERE filter] GROUP BY {keys}`.
fn packed_query(keys: &str, filter: &str) -> Select {
    let filter = if filter.is_empty() {
        String::new()
    } else {
        format!("WHERE {filter}")
    };
    simba_sql::parse_select(&format!(
        "SELECT {keys}, COUNT(*), SUM(n), MIN(ext), MAX(x), COUNT(DISTINCT queue) \
         FROM t {filter} GROUP BY {keys}"
    ))
    .unwrap()
}

/// Every shape answers like `sqlite-like` on every engine, four scan
/// threads, capturing scans and seeded scans (exact, and refining a wider
/// filter), with NULLs in every dictionary and binned column and under a
/// `<>` on the dictionary column.
#[test]
fn packed_keys_and_their_fall_backs_match_sqlite_like() {
    let table = packed_table();
    let wide = "n > -5";
    for &(keys, want) in PACKED_SHAPES {
        let (exprs, aggs) = match prepare(&packed_query(keys, ""), table.clone())
            .unwrap()
            .kind
        {
            QueryKind::Aggregate { keys, aggs, .. } => (keys, aggs),
            QueryKind::Project { .. } => unreachable!(),
        };
        let (index, _) = GroupTable::new(&exprs, &aggs, &table).layout();
        assert_eq!(index, want, "`{keys}`");
        let base = packed_query(keys, wide);
        for filter in ["", wide, "n > 0 AND queue <> 'B'", "queue <> 'Z'"] {
            let select = packed_query(keys, filter);
            assert_batch_engines_match_sqlite(&select, &table);
            for threads in [1, 4] {
                let capturing = DeltaPath {
                    table: table.clone(),
                    threads,
                    base: None,
                };
                assert_byte_identical(capturing.name(), &select, &capturing, &table);
                if filter.is_empty() {
                    continue;
                }
                let refined = packed_query(keys, &format!("{wide} AND {filter}"));
                for (base, query) in [(&select, &select), (&base, &refined)] {
                    let seeded = DeltaPath {
                        table: table.clone(),
                        threads,
                        base: Some(base.clone()),
                    };
                    assert_byte_identical(seeded.name(), query, &seeded, &table);
                }
            }
        }
    }
}

/// The group keys `select` must emit, in order: each key in the first
/// appearance of its rows in table order, read off `sqlite-like`'s
/// projection of the key expressions.
fn first_appearance(keys: &str, filter: &str, table: &Arc<Table>) -> Vec<String> {
    let filter = if filter.is_empty() {
        String::new()
    } else {
        format!("WHERE {filter}")
    };
    let projection = simba_sql::parse_select(&format!("SELECT {keys} FROM t {filter}")).unwrap();
    let rows = rows_of(
        &execute_row_oracle(table.clone(), &projection)
            .unwrap()
            .result,
    );
    let mut seen: Vec<String> = Vec::new();
    for row in rows {
        // Debug tells -0.0 from 0.0, like the engines' keys do.
        let key = format!("{row:?}");
        if !seen.contains(&key) {
            seen.push(key);
        }
    }
    seen
}

/// A packed table emits in first appearance, never slot order, whatever
/// scanned it: one morsel range or four merged in range order, capturing
/// or seeded — and the four ranges meet their keys in different orders, so
/// a merge that appended in any other order would show. (`batch`'s unit
/// tests add 1,024-row blocks and the whole table as one batch.)
#[test]
fn packed_groups_emit_in_first_appearance_across_merged_ranges() {
    let table = packed_table();
    let rows = table.row_count();
    for (keys, filter) in [
        ("queue", "n > 0"),
        ("queue, BIN(n, 5)", ""),
        ("BIN(x, 25), queue", "n > 0"),
        ("BIN(r17, 8192), queue", ""),
        ("BIN(neg, 1), BIN(n, 10)", "queue <> 'A'"),
    ] {
        let want = first_appearance(keys, filter, &table);
        let select = packed_query(keys, filter);
        let mut engines: Vec<Arc<dyn Dbms>> = all_engines()
            .into_iter()
            .filter(|e| e.name() != "sqlite-like")
            .collect();
        engines.push(Arc::new(DuckDbLike::with_scan_threads(4)));
        for threads in [1, 4] {
            engines.push(Arc::new(DeltaPath {
                table: table.clone(),
                threads,
                base: None,
            }));
            engines.push(Arc::new(DeltaPath {
                table: table.clone(),
                threads,
                base: Some(packed_query(keys, "")),
            }));
        }
        let width = select.group_by.len();
        for engine in engines {
            engine.register(table.clone());
            let got: Vec<String> = rows_of(&engine.execute(&select).unwrap().result)
                .iter()
                .map(|row| format!("{:?}", &row[..width]))
                .collect();
            assert_eq!(got, want, "{}: `{select}`", engine.name());
        }
    }
    // The four scan ranges meet the `queue` values in different orders, so
    // the merges above really interleave.
    let queue = table.column_by_name("queue").unwrap();
    let order_in = |range: std::ops::Range<usize>| {
        let mut seen: Vec<Value> = Vec::new();
        for v in range.map(|i| queue.value(i)) {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    };
    // Five morsels over four threads: two, one, one and the partial one.
    let m = MORSEL_ROWS;
    let orders: Vec<Vec<Value>> = [0..2 * m, 2 * m..3 * m, 3 * m..4 * m, 4 * m..rows]
        .into_iter()
        .map(order_in)
        .collect();
    assert!(orders.iter().all(|o| o.len() == QUEUES.len() + 1));
    assert!(orders.windows(2).any(|w| w[0] != w[1]), "{orders:?}");
}

// Row bitmaps.
//
// Session-delta execution keeps a query's survivors as a `RowBitmap`, one
// bit per row in ⌈rows / 64⌉ words. Each morsel's scan sets its survivors
// in the morsel's own 32 words, and a seeded scan reads a seed back one
// morsel at a time. The tables below end one row short of, on, and one row
// past a word or a morsel edge, and one partial word into a third morsel.

/// `rows` rows: `n` is the row number, `queue` cycles over `QUEUES`.
fn numbered_table(rows: usize) -> Arc<Table> {
    let schema = Schema::new(
        "t",
        vec![
            ColumnDef::categorical("queue"),
            ColumnDef::quantitative_int("n"),
        ],
    );
    let mut b = TableBuilder::new(schema, rows);
    for i in 0..rows {
        b.push_row(vec![
            Value::str(QUEUES[i % QUEUES.len()]),
            Value::Int(i as i64),
        ]);
    }
    Arc::new(b.finish())
}

/// The selections checked on a `rows`-row table, as filters on the row
/// number: none (settled by the column bounds, and read row by row), every
/// row, the first row, the last, and the rows either side of each word
/// edge.
fn bitmap_filters(rows: usize) -> Vec<String> {
    let mut filters = vec![
        "n < 0".to_string(),
        "n + 0 < 0".to_string(),
        "n >= 0".to_string(),
        "n = 0".to_string(),
        format!("n = {}", rows - 1),
    ];
    for edge in (64..rows).step_by(64) {
        filters.push(format!("n = {}", edge - 1));
        filters.push(format!("n = {edge}"));
    }
    filters
}

/// `plan`'s capturing scan on `threads` threads: its rows, its stats and
/// the bitmap it captured.
fn capture(
    plan: &simba_engine::plan::PreparedQuery,
    threads: usize,
) -> (Vec<Vec<Value>>, simba_engine::ExecStats, RowBitmap) {
    let (rows, stats, capture) = run_morsels(plan, threads, DeltaScan::Capture);
    let bitmap = capture
        .and_then(|c| c.selection)
        .expect("a filtered capturing scan keeps a bitmap");
    (built(rows), stats, bitmap)
}

#[test]
fn bitmap_seeds_at_word_and_morsel_edges_match_fresh_scans() {
    for rows in [63, 64, 65, 2047, 2048, 2049, 4159] {
        let table = numbered_table(rows);
        for filter in bitmap_filters(rows) {
            let survivors: Vec<u32> = rows_of(
                &execute_row_oracle(
                    table.clone(),
                    &simba_sql::parse_select(&format!("SELECT n FROM t WHERE {filter}")).unwrap(),
                )
                .unwrap()
                .result,
            )
            .iter()
            .map(|row| match row[0] {
                Value::Int(n) => n as u32,
                ref v => panic!("`n` is an Int, not {v:?}"),
            })
            .collect();
            for shape in [
                "SELECT COUNT(*), SUM(n) FROM t WHERE {}",
                "SELECT queue, COUNT(*), MIN(n), MAX(n) FROM t WHERE {} GROUP BY queue",
                "SELECT n, queue FROM t WHERE {}",
            ] {
                let sql = shape.replace("{}", &filter);
                let refined_sql = shape.replace("{}", &format!("{filter} AND queue IN ('A', 'B')"));
                let plan = prepare(&simba_sql::parse_select(&sql).unwrap(), table.clone()).unwrap();
                let refined = prepare(
                    &simba_sql::parse_select(&refined_sql).unwrap(),
                    table.clone(),
                )
                .unwrap();
                let (fresh, fresh_stats, _) = run_morsels(&plan, 1, DeltaScan::Off);
                let fresh = built(fresh);

                // Captures at one and four threads are one bitmap: the
                // survivors' row numbers, counted as matched.
                let (one, one_stats, seed) = capture(&plan, 1);
                let (four, four_stats, four_bitmap) = capture(&plan, 4);
                assert_eq!((&one, &four), (&fresh, &fresh), "`{sql}` on {rows} rows");
                assert_eq!(seed, four_bitmap, "`{sql}` on {rows} rows");
                assert_eq!(
                    seed.iter().collect::<Vec<_>>(),
                    survivors,
                    "`{sql}` on {rows} rows"
                );
                for stats in [&one_stats, &four_stats] {
                    assert_eq!(stats.rows_matched, seed.len(), "`{sql}` on {rows} rows");
                    assert_eq!(stats.rows_matched, fresh_stats.rows_matched);
                }
                assert_bitmap_bound(&seed, rows);

                // The exact seed answers as the fresh scan does and
                // captures itself; the refining one answers as the refined
                // query's fresh scan does and captures what it would.
                for (plan, exact) in [(&plan, true), (&refined, false)] {
                    let (fresh, fresh_stats, fresh_bitmap) = capture(plan, 1);
                    let (seeded, stats, captured) =
                        run_morsels(plan, 1, DeltaScan::Seeded { seed: &seed, exact });
                    let captured = captured.and_then(|c| c.selection).unwrap();
                    let seeded = built(seeded);
                    let what = format!("`{sql}` seeding exact={exact} on {rows} rows");
                    assert_eq!(seeded, fresh, "{what}");
                    assert_eq!(captured, fresh_bitmap, "{what}");
                    assert_eq!(stats.rows_matched, fresh_stats.rows_matched, "{what}");
                    assert_eq!(stats.rows_matched, captured.len(), "{what}");
                    assert_eq!(stats.groups, fresh_stats.groups, "{what}");
                    assert_eq!(stats.delta_rows_saved, rows - seed.len(), "{what}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Branch-free range filters, one-group folds and lane counts.
//
// A range kernel combines its conditions with a non-short-circuit `&`, a
// table of one group folds each batch into a local, and a `COUNT(*)` over
// at most `LANE_GROUPS` groups counts row k into lane k mod 4. Each arm is
// checked against `sqlite-like` on `duckdb-like` at one, two and three scan
// threads and on seeded scans, over a table of three full morsels and a
// partial one.

/// `scan_table`'s rows: three full morsels and a partial one.
const SCAN_ROWS: usize = 3 * MORSEL_ROWS + 333;

/// `w1`, `w2`, `w4` and `w8` are Int columns stored at 1, 2, 4 and 8
/// bytes, NULL now and then; `x` Floats from a pool holding both zeros,
/// NaN and both infinities; `y` finite Floats in tenths, whose sum rounds
/// differently in another order, and both zeros; `zero` only `-0.0` or
/// NULL; `top` Ints near `i64::MAX`, whose sum wraps; `row` the row number;
/// `one` one string in every row; `g1` … `g65` keys of that many groups,
/// drawn per row.
fn scan_table() -> Arc<Table> {
    static TABLE: OnceLock<Arc<Table>> = OnceLock::new();
    TABLE
        .get_or_init(|| {
            let mut columns = vec![
                ColumnDef::categorical("one"),
                ColumnDef::quantitative_int("w1"),
                ColumnDef::quantitative_int("w2"),
                ColumnDef::quantitative_int("w4"),
                ColumnDef::quantitative_int("w8"),
                ColumnDef::quantitative_float("x"),
                ColumnDef::quantitative_float("y"),
                ColumnDef::quantitative_float("zero"),
                ColumnDef::quantitative_int("top"),
                ColumnDef::quantitative_int("row"),
            ];
            columns.extend(
                GROUP_COUNTS
                    .iter()
                    .map(|k| ColumnDef::quantitative_int(format!("g{k}"))),
            );
            let pool = [
                -0.0,
                0.0,
                0.5,
                -2.5,
                3.0,
                12.25,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            let mut b = TableBuilder::new(Schema::new("t", columns), SCAN_ROWS);
            for i in 0..SCAN_ROWS as u64 {
                let draw = |salt: u64| splitmix64(i ^ (salt << 56));
                let or_null = |salt: u64, v: Value| {
                    if draw(salt) % 5 == 0 {
                        Value::Null
                    } else {
                        v
                    }
                };
                let span = |salt: u64, half: u64| {
                    Value::Int((draw(salt) % (2 * half)) as i64 - half as i64)
                };
                let mut row = vec![
                    Value::str("A"),
                    or_null(1, span(2, 100)),
                    or_null(3, span(4, 30_000)),
                    or_null(5, span(6, 2_000_000_000)),
                    or_null(7, Value::Int(INT_POOL[draw(8) as usize % INT_POOL.len()])),
                    or_null(9, Value::Float(pool[draw(10) as usize % pool.len()])),
                    or_null(
                        14,
                        Value::Float(match draw(15) % 50 {
                            0 => -0.0,
                            1 => 0.0,
                            d => (d as f64 - 25.0) * 0.1 + (draw(16) % 1_000) as f64,
                        }),
                    ),
                    or_null(11, Value::Float(-0.0)),
                    Value::Int(i64::MAX - (draw(12) % 1_000) as i64),
                    Value::Int(i as i64),
                ];
                row.extend(
                    GROUP_COUNTS
                        .iter()
                        .map(|&k| Value::Int((draw(13) % k) as i64)),
                );
                b.push_row(row);
            }
            Arc::new(b.finish())
        })
        .clone()
}

/// The group counts the lane arm is checked at: one group, two, and either
/// side of `LANE_GROUPS`.
const GROUP_COUNTS: [u64; 5] = [1, 2, 63, 64, 65];

/// The engines a query of [`scan_table`] runs on besides the oracle:
/// `duckdb-like` at `threads` scan threads, and, one thread each, seeded
/// scans of the query from its own capture and from the full table's.
fn scan_engines(select: &Select, table: &Arc<Table>, threads: &[usize]) -> Vec<Arc<dyn Dbms>> {
    let mut engines: Vec<Arc<dyn Dbms>> = threads
        .iter()
        .map(|&t| Arc::new(DuckDbLike::with_scan_threads(t)) as Arc<dyn Dbms>)
        .collect();
    let mut unfiltered = select.clone();
    unfiltered.where_clause = None;
    for base in [select.clone(), unfiltered] {
        engines.push(Arc::new(DeltaPath {
            table: table.clone(),
            threads: 1,
            base: Some(base),
        }));
    }
    engines
}

/// `sql` with `filter` as its WHERE, against the oracle on every engine of
/// [`scan_engines`].
fn assert_scan_arms_match(sql: &str, filter: Option<&Expr>, threads: &[usize]) {
    let table = scan_table();
    let mut select = simba_sql::parse_select(sql).unwrap();
    select.where_clause = filter.cloned();
    for engine in scan_engines(&select, &table, threads) {
        engine.register(table.clone());
        let name = format!("{} at {} threads", engine.name(), engine.scan_threads());
        assert_byte_identical(&name, &select, engine.as_ref(), &table);
    }
}

/// `col [NOT] BETWEEN lo AND hi`.
fn between(col: &str, lo: Expr, hi: Expr, negated: bool) -> Expr {
    Expr::Between {
        expr: Box::new(Expr::col(col)),
        low: Box::new(lo),
        high: Box::new(hi),
        negated,
    }
}

/// Range filters on every Int width and on the Float column: an interval
/// and its hole, the empty interval (`lo > hi`) and its hole (every valid
/// row), the `i64` extremes, and Float bounds at `-0.0`, `+0.0`, NaN and
/// ±inf, which order as `-inf < -0.0 < +0.0 < +inf < NaN`.
fn range_filters() -> Vec<Expr> {
    let mut filters = Vec::new();
    for (col, lo, hi) in [
        ("w1", -40, 55),
        ("w2", -9_000, 12_000),
        ("w4", -700_000_000, 1_500_000_000),
        ("w8", -7, BIG),
    ] {
        for negated in [false, true] {
            filters.push(between(col, Expr::int(lo), Expr::int(hi), negated));
            filters.push(between(col, Expr::int(hi), Expr::int(lo), negated));
        }
        filters.push(Expr::binary(Expr::col(col), BinOp::Gt, Expr::int(lo)));
    }
    for negated in [false, true] {
        filters.push(between(
            "w8",
            Expr::int(i64::MIN),
            Expr::int(i64::MAX),
            negated,
        ));
        filters.push(between(
            "w8",
            Expr::int(i64::MIN),
            Expr::int(i64::MIN),
            negated,
        ));
        filters.push(between(
            "w8",
            Expr::int(i64::MAX),
            Expr::int(i64::MAX),
            negated,
        ));
    }
    filters.push(Expr::binary(
        Expr::col("w8"),
        BinOp::GtEq,
        Expr::int(i64::MAX),
    ));
    filters.push(Expr::binary(
        Expr::col("w8"),
        BinOp::LtEq,
        Expr::int(i64::MIN),
    ));
    let float = Expr::float;
    for (lo, hi) in [
        (-0.0, -0.0),
        (0.0, 0.0),
        (-0.0, 0.0),
        (0.0, -0.0),
        (-2.5, 3.0),
        (f64::NEG_INFINITY, f64::INFINITY),
        (f64::INFINITY, f64::NAN),
        (f64::NAN, f64::NAN),
        (3.0, -2.5),
    ] {
        for negated in [false, true] {
            filters.push(between("x", float(lo), float(hi), negated));
        }
    }
    filters.push(Expr::binary(Expr::col("x"), BinOp::Lt, float(0.0)));
    filters
}

/// Every typed aggregate whose result does not depend on the scan's split:
/// counts with NULLs, wrapping Int sums, `AVG` over Ints whose sums stay
/// exact in an `f64`, `MIN` / `MAX` over both zeros and NaN, Float `SUM` /
/// `AVG` of `-0.0`s alone, and of `x`, whose finite values add exactly and
/// whose NaNs and infinities make a NaN: one canonical NaN, though the sign
/// of a NaN an addition makes (`inf + -inf`) is left unspecified by Rust
/// and two correct builds of one sum can differ in its bits.
const EXACT_AGGREGATES: &str = "COUNT(*), COUNT(w1), COUNT(x), COUNT(zero), SUM(w1), SUM(w2), \
    SUM(w8), SUM(top), AVG(w4), MIN(w2), MAX(w4), MIN(w8), MAX(w8), MIN(x), MAX(x), \
    MIN(zero), MAX(zero), SUM(zero), AVG(zero), SUM(x), AVG(x)";

/// One-group tables, under each range filter and none: a global aggregate,
/// and a GROUP BY whose only group is group 0 on the packed index (a lone
/// dictionary key, and a `BIN`) and the hash index. Every typed aggregate runs at one, two and three scan
/// threads and seeded; a Float `SUM` / `AVG` of `y`, whose rounding
/// depends on the order it adds in, runs on one thread and seeded, where
/// it must add in row order from the stored state.
#[test]
fn range_filters_and_one_group_folds_match_sqlite_like() {
    let filters = range_filters();
    let groupings = ["", "one", "g1", "BIN(g1, 1)"];
    for filter in std::iter::once(None).chain(filters.iter().map(Some)) {
        for keys in groupings {
            let (select, group_by) = if keys.is_empty() {
                (String::new(), String::new())
            } else {
                (format!("{keys}, "), format!(" GROUP BY {keys}"))
            };
            assert_scan_arms_match(
                &format!("SELECT {select}{EXACT_AGGREGATES} FROM t{group_by}"),
                filter,
                &[1, 2, 3],
            );
            assert_scan_arms_match(
                &format!("SELECT {select}SUM(y), AVG(y), MIN(y), MAX(y) FROM t{group_by}"),
                filter,
                &[1],
            );
        }
    }
}

/// The cases above reach what they are meant to: the four Int columns
/// are stored at 1, 2, 4 and 8 bytes, every grouping holds one group, and
/// the sums wrap past `i64::MAX` and add up `-0.0`s alone.
#[test]
fn scan_table_reaches_every_width_and_one_group() {
    let table = scan_table();
    for (col, width) in [("w1", 1), ("w2", 2), ("w4", 4), ("w8", 8)] {
        let data = table.column_by_name(col).unwrap().int_data().unwrap();
        assert_eq!(data.width(), width, "`{col}`");
    }
    for keys in ["", "one", "g1", "BIN(g1, 1)"] {
        let sql = if keys.is_empty() {
            "SELECT COUNT(*) FROM t".to_string()
        } else {
            format!("SELECT {keys}, COUNT(*) FROM t GROUP BY {keys}")
        };
        let plan = prepare(&simba_sql::parse_select(&sql).unwrap(), table.clone()).unwrap();
        let (_, stats, _) = run_morsels(&plan, 1, DeltaScan::Off);
        assert_eq!(stats.groups, 1, "`{sql}`");
    }
    let sums = simba_sql::parse_select("SELECT SUM(top), SUM(zero), COUNT(zero) FROM t").unwrap();
    let out = execute_row_oracle(table.clone(), &sums).unwrap();
    let row = &rows_of(&out.result)[0];
    let top = table.column_by_name("top").unwrap();
    let exact: i128 = (0..SCAN_ROWS)
        .map(|i| match top.value(i) {
            Value::Int(v) => i128::from(v),
            v => panic!("`top` is an Int, not {v:?}"),
        })
        .sum();
    assert!(exact > i128::from(i64::MAX), "{exact}");
    assert_eq!(row[0], Value::Int(exact as i64), "SUM(top) wraps");
    assert!(
        matches!(row[1], Value::Float(z) if z.to_bits() == 0.0f64.to_bits()),
        "the -0.0s sum to +0.0: {row:?}"
    );
    assert!(matches!(row[2], Value::Int(n) if n > 0), "{row:?}");
}

/// `COUNT(*)` over 1, 2, 63, 64 and 65 groups, each group's rows spread
/// over every morsel (a key drawn per row) or in runs across morsel edges
/// (`BIN` of the row number), on the hash and the packed index, filtered
/// and not: either side of `LANE_GROUPS`, lane by lane.
#[test]
fn count_star_over_few_and_many_groups_matches_sqlite_like() {
    let table = scan_table();
    let filter = between("w1", Expr::int(-60), Expr::int(70), false);
    for k in GROUP_COUNTS {
        let run = SCAN_ROWS.div_ceil(k as usize);
        for keys in [
            format!("g{k}"),
            format!("BIN(g{k}, 1)"),
            format!("BIN(row, {run})"),
        ] {
            let sql = format!("SELECT {keys}, COUNT(*), COUNT(x), COUNT(*) FROM t GROUP BY {keys}");
            let groups = execute_row_oracle(table.clone(), &simba_sql::parse_select(&sql).unwrap())
                .unwrap()
                .result
                .n_rows();
            assert_eq!(groups, k as usize, "`{sql}`");
            for filter in [None, Some(&filter)] {
                assert_scan_arms_match(&sql, filter, &[1, 2, 3]);
            }
        }
    }
}
