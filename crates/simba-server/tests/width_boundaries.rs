//! Differential test at the storage width boundaries.
//!
//! Int values and dictionary codes are stored at the narrowest of 1/2/4/8
//! bytes that holds a column's values, and the width is a function of the
//! values alone. Here every column straddles a boundary — ±127/128,
//! ±32767/32768, ±2^31, ±2^53 and the `i64` extremes; dictionaries just
//! below, at and above 256 and 65,536 entries — and each table is built
//! three ways: row by row (`TableBuilder`), chunk by chunk (`TableAssembler`
//! over several splits), and through the wire (`TableBlock::split`, encoded
//! and decoded as frames, assembled the way the server does). The three
//! must be `bitwise_eq`, at the width the values call for. Then every
//! engine — the four, `duckdb-like` on four scan threads, and `duckdb-like`
//! behind a loopback server the table was registered into — must match the
//! row oracle on range filters whose literals lie outside the column's
//! width, on SUM / AVG / MIN / MAX, and on GROUP BY over narrow int and
//! dictionary keys.

use proptest::prelude::*;
use simba_engine::{all_engines, execute_row_oracle, Dbms, DuckDbLike, EngineKind};
use simba_server::proto::{EngineSel, TableBlock};
use simba_server::{Frame, RemoteDbms, Request, LOOPBACK_ADDR};
use simba_sql::{BinOp, Expr, Func, Select, SelectItem};
use simba_store::mix::splitmix64;
use simba_store::{
    ColumnDef, Schema, Table, TableAssembler, TableBuilder, TableChunk, Value, MORSEL_ROWS,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// Int values by the width they first need: tier `t` is stored at
/// `[1, 2, 4, 8][t]` bytes.
const TIERS: [&[i64]; 4] = [
    &[-128, -1, 0, 1, 127],
    &[-129, 128, -32_768, 32_767],
    &[-32_769, 32_768, -(1 << 31), (1 << 31) - 1],
    &[
        -(1 << 31) - 1,
        1 << 31,
        -(1 << 53),
        1 << 53,
        (1 << 53) + 1,
        i64::MIN,
        i64::MAX,
    ],
];

/// Bytes per value of tier `t`.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Comparison literals: every tier value, values just past each boundary,
/// Floats between integers and far outside every width.
fn literal_strategy() -> impl Strategy<Value = Expr> {
    let ints: Vec<i64> = TIERS
        .iter()
        .flat_map(|t| t.iter().copied())
        .chain([300, -300, 65_536, 1 << 32])
        .collect();
    let floats = vec![
        -1e12,
        1e12,
        127.5,
        -128.5,
        128.0,
        32_767.5,
        2_147_483_647.5,
        -2_147_483_648.5,
        9_007_199_254_740_992.0,
        9.3e18,
        -9.3e18,
        0.5,
        -0.0,
        f64::NAN,
    ];
    prop_oneof![
        proptest::sample::select(ints).prop_map(Expr::int),
        proptest::sample::select(floats).prop_map(Expr::float),
    ]
}

/// One numeric conjunct on `n` (the boundary column) or `m` (always one
/// byte): a comparison or a `[NOT] BETWEEN`.
fn conjunct_strategy() -> impl Strategy<Value = Expr> {
    let ops = vec![
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
        BinOp::Eq,
        BinOp::NotEq,
    ];
    let col = proptest::sample::select(vec!["n", "m"]);
    prop_oneof![
        (
            col.clone(),
            proptest::sample::select(ops),
            literal_strategy()
        )
            .prop_map(|(c, op, lit)| Expr::binary(Expr::col(c), op, lit)),
        (col, literal_strategy(), literal_strategy(), any::<bool>()).prop_map(
            |(c, low, high, negated)| Expr::Between {
                expr: Box::new(Expr::col(c)),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            }
        ),
    ]
}

fn schema() -> Schema {
    Schema::new(
        "w",
        vec![
            ColumnDef::categorical("k"),
            ColumnDef::quantitative_int("n"),
            ColumnDef::quantitative_int("m"),
        ],
    )
}

/// Row `i` of a table whose `k` has `dict` entries (the first `dict` rows
/// name each once, in order, so the largest code is `dict - 1`) and whose
/// `n` draws from tiers `0..=tier`, with a tier-`tier` value at row
/// `widest`. `n` and `m` are NULL now and then.
fn row(i: usize, seed: u64, dict: usize, tier: usize, widest: usize) -> Vec<Value> {
    let draw = |salt: u64| splitmix64(seed ^ (i as u64) ^ (salt << 56)) as usize;
    let k = if i < dict { i } else { draw(1) % dict };
    let n = if i == widest {
        Value::Int(TIERS[tier][draw(2) % TIERS[tier].len()])
    } else if draw(3) % 7 == 0 {
        Value::Null
    } else {
        let pool = TIERS[draw(4) % (tier + 1)];
        Value::Int(pool[draw(5) % pool.len()])
    };
    let m = if draw(6) % 9 == 0 {
        Value::Null
    } else {
        Value::Int((draw(7) % 11) as i64 - 5)
    };
    vec![Value::str(format!("k{k}")), n, m]
}

fn rows_of(rows: usize, seed: u64, dict: usize, tier: usize, widest: usize) -> Vec<Vec<Value>> {
    (0..rows)
        .map(|i| row(i, seed, dict, tier, widest))
        .collect()
}

fn builder(rows: &[Vec<Value>]) -> TableBuilder {
    let mut b = TableBuilder::new(schema(), rows.len());
    for r in rows {
        b.push_row(r.clone());
    }
    b
}

/// The rows appended as chunks ending at `ends` (morsel multiples) and one
/// final chunk with the rest.
fn assembled(rows: &[Vec<Value>], ends: &[usize]) -> Table {
    let mut asm = TableAssembler::new(schema(), rows.len());
    let mut start = 0;
    for end in ends.iter().copied().chain([rows.len()]) {
        let (_, columns) = builder(&rows[start..end]).finish_parts();
        asm.append_chunk(TableChunk::new(columns));
        start = end;
    }
    asm.finish()
}

/// `table` split into blocks, each encoded into a `RegisterTable` frame and
/// decoded again, and the decoded blocks assembled as the server does.
fn through_the_wire(table: &Table) -> Table {
    let mut asm = TableAssembler::new(table.schema().clone(), 0);
    for block in TableBlock::split(table) {
        let request = Request::RegisterTable {
            engine: EngineSel {
                kind: "duckdb-like".to_string(),
                scan_threads: 1,
            },
            block,
        };
        let decoded = Frame::request(1, &request)
            .expect("a block fits a frame")
            .parse_request()
            .expect("a block decodes");
        let Request::RegisterTable { block, .. } = decoded else {
            panic!("a register request decodes as one");
        };
        asm.reserve(block.rows());
        asm.append_chunk(TableChunk::new(block.columns().to_vec()));
    }
    asm.finish()
}

/// The three constructions agree bit for bit, at the expected widths.
fn assert_one_table(
    rows: &[Vec<Value>],
    splits: &[usize],
    n_width: usize,
    k_width: usize,
) -> Table {
    let table = builder(rows).finish();
    let n = table.column_by_name("n").unwrap().int_data().unwrap();
    assert_eq!(n.width(), n_width, "n");
    assert_eq!(
        table
            .column_by_name("m")
            .unwrap()
            .int_data()
            .unwrap()
            .width(),
        1
    );
    let codes = table.column_by_name("k").unwrap().code_data().unwrap();
    assert_eq!(codes.width(), k_width, "k");
    assert!(
        assembled(rows, splits).bitwise_eq(&table),
        "chunks ending at {splits:?}"
    );
    assert!(through_the_wire(&table).bitwise_eq(&table), "wire");
    table
}

/// Bitwise value equality: `Int(3)` ≠ `Float(3.0)`, floats compare by bits.
fn strict_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Int(_), Value::Float(_)) | (Value::Float(_), Value::Int(_)) => false,
        _ => a == b,
    }
}

fn canon_cmp(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Every engine on `table` (the loopback one already holds it) against the
/// row oracle, modulo group emission order. The loopback engine receives
/// the query as printed SQL, so it is asked only when the print reads back
/// as the same query: NaN and ±inf have no spelling in the dialect.
fn assert_engines_match_oracle(select: &Select, table: &Arc<Table>, remote: &RemoteDbms) {
    let oracle = execute_row_oracle(table.clone(), select).expect("oracle executes");
    let mut want: Vec<Vec<Value>> = oracle.result.rows().map(|r| r.to_vec()).collect();
    want.sort_by(|a, b| canon_cmp(a, b));
    let mut engines = all_engines();
    engines.push(Arc::new(DuckDbLike::with_scan_threads(4)));
    let check = |engine: &dyn Dbms| {
        let out = engine.execute(select).expect("engine executes");
        let mut got: Vec<Vec<Value>> = out.result.rows().map(|r| r.to_vec()).collect();
        got.sort_by(|a, b| canon_cmp(a, b));
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(a, b)| strict_eq(a, b)));
        assert!(
            same,
            "{}: `{select}`\n  engine: {got:?}\n  oracle: {want:?}",
            engine.name()
        );
    };
    for engine in engines {
        engine.register(table.clone());
        check(engine.as_ref());
    }
    if simba_sql::parse_select(&select.to_string()).as_ref() == Ok(select) {
        check(remote);
    }
}

/// The aggregates a query shape computes. `AVG(n)` only while `n`'s sums
/// are exact in `f64`, so four scan threads agree to the bit.
fn aggregates(avg_n: bool) -> Vec<SelectItem> {
    let mut items = vec![
        SelectItem::bare(Expr::count_star()),
        SelectItem::bare(Expr::agg(Func::Count, Expr::col("n"))),
        SelectItem::bare(Expr::agg(Func::Sum, Expr::col("n"))),
        SelectItem::bare(Expr::agg(Func::Min, Expr::col("n"))),
        SelectItem::bare(Expr::agg(Func::Max, Expr::col("n"))),
        SelectItem::bare(Expr::agg(Func::Sum, Expr::col("m"))),
        SelectItem::bare(Expr::agg(Func::Avg, Expr::col("m"))),
        SelectItem::bare(Expr::agg(Func::Min, Expr::col("m"))),
    ];
    if avg_n {
        items.push(SelectItem::bare(Expr::agg(Func::Avg, Expr::col("n"))));
    }
    items
}

/// Global, grouped by the dictionary key, by the narrow int key, by both,
/// and by `n` itself.
fn shapes(filter: Option<&Expr>, avg_n: bool) -> Vec<Select> {
    [vec![], vec!["k"], vec!["m"], vec!["k", "m"], vec!["n"]]
        .into_iter()
        .map(|keys| {
            let mut items: Vec<SelectItem> = keys
                .iter()
                .map(|&k| SelectItem::bare(Expr::col(k)))
                .collect();
            items.extend(aggregates(avg_n));
            let mut select = Select::new("w", items);
            select.group_by = keys.into_iter().map(Expr::col).collect();
            select.where_clause = filter.cloned();
            select
        })
        .collect()
}

fn loopback(table: &Arc<Table>) -> RemoteDbms {
    let remote = RemoteDbms::connect(LOOPBACK_ADDR, EngineKind::DuckDbLike, 1).expect("loopback");
    remote.register(table.clone());
    remote
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn tables_at_every_width_boundary_are_one_table_and_one_answer(
        seed in any::<u64>(),
        tier in 0usize..4,
        dict in proptest::sample::select(vec![255usize, 256, 257]),
        extra in 0usize..MORSEL_ROWS,
        widest_at in 0usize..4,
        splits in proptest::sample::select(vec![vec![1, 2, 3], vec![2], vec![3]]),
        filters in proptest::collection::vec(
            proptest::collection::vec(conjunct_strategy(), 1..=2),
            3,
        ),
    ) {
        let n_rows = 3 * MORSEL_ROWS + extra;
        // The widest value sits in the first, a middle or the last chunk, so
        // widening happens while building a chunk and while appending one.
        let widest = [0, MORSEL_ROWS + 5, 2 * MORSEL_ROWS, n_rows - 1][widest_at];
        let rows = rows_of(n_rows, seed, dict, tier, widest);
        let ends: Vec<usize> = splits.iter().map(|m| m * MORSEL_ROWS).collect();
        let k_width = if dict <= 256 { 1 } else { 2 };
        let table = Arc::new(assert_one_table(&rows, &ends, WIDTHS[tier], k_width));
        let remote = loopback(&table);
        for filter in &filters {
            let filter = Expr::conjoin(filter.clone()).unwrap();
            for select in shapes(Some(&filter), tier < 3) {
                assert_engines_match_oracle(&select, &table, &remote);
            }
        }
    }
}

/// Named filters whose literals lie outside a one-byte column's range or
/// between its integers, on the one-byte `m` and on `n` at every width.
#[test]
fn literals_outside_the_stored_width_are_compared_at_full_width() {
    for (tier, &width) in WIDTHS.iter().enumerate() {
        let rows = rows_of(2 * MORSEL_ROWS + 3, 7, 12, tier, MORSEL_ROWS);
        let table = Arc::new(assert_one_table(&rows, &[MORSEL_ROWS], width, 1));
        let remote = loopback(&table);
        for filter in [
            "m > 300",
            "m = 128",
            "m < -129",
            "m <> 256",
            "m BETWEEN -1000000000000 AND 1000000000000",
            "m > 2.5 AND m < 4.5",
            "n > 300",
            "n = 128",
            "n = -129",
            "n <= 127.5",
            "n >= -128.5",
            "n BETWEEN -1000000000000 AND 1000000000000",
            "n NOT BETWEEN -32768 AND 32767",
            "n > 2147483647.5",
            "n < -9223372036854775807",
            "n < 1e15 AND m > -9.3e18",
        ] {
            let expr = simba_sql::parse_select(&format!("SELECT n FROM w WHERE {filter}"))
                .unwrap()
                .where_clause
                .unwrap();
            for select in shapes(Some(&expr), tier < 3) {
                assert_eq!(
                    simba_sql::parse_select(&select.to_string()).as_ref(),
                    Ok(&select),
                    "`{filter}` reaches the loopback engine"
                );
                assert_engines_match_oracle(&select, &table, &remote);
            }
        }
    }
}

/// Dictionaries just below, at and above 65,536 entries: codes at two
/// bytes, two, then four. Two wire blocks each, and assembled over chunks
/// that cross the boundary entry.
#[test]
fn dictionaries_at_the_two_byte_boundary_are_one_table_and_one_answer() {
    for (dict, k_width) in [(65_535, 2), (65_536, 2), (65_537, 4)] {
        let rows = rows_of(dict + 100, 11, dict, 0, 0);
        let ends = [16 * MORSEL_ROWS, 32 * MORSEL_ROWS];
        let table = Arc::new(assert_one_table(&rows, &ends, 1, k_width));
        assert_eq!(TableBlock::split(&table).count(), 2);
        let remote = loopback(&table);
        let last = format!("k{}", dict - 1);
        let in_list = format!("k IN ('k0', 'k255', 'k256', 'k65535', '{last}')");
        for filter in [format!("k = '{last}'"), in_list] {
            let sql =
                format!("SELECT k, COUNT(*) AS c, SUM(m) AS s FROM w WHERE {filter} GROUP BY k");
            let select = simba_sql::parse_select(&sql).unwrap();
            assert_engines_match_oracle(&select, &table, &remote);
        }
    }
}
