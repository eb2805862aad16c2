//! Conjunct order cannot change an answer.
//!
//! Each scan range runs its filter kernels in measured pass-rate order,
//! re-ranked after every morsel, so two scans of one WHERE may run its
//! conjuncts in different orders, and two spellings of one conjunction may
//! run them in the same order. A row survives a conjunction whatever order
//! its conjuncts run in, so results, emission order and `ExecStats` must
//! not move. This takes every WHERE of two to five conjuncts that the
//! IDEBench and adaptive sources issue at 2K rows, runs each permutation of
//! its conjuncts (at most 24) on `duckdb-like` at one and three scan
//! threads and as exact and refining seeded scans, over the 2K-row table
//! and a five-morsel one. Each answer must be the one the same scan gives
//! the WHERE as written — results byte for byte by their `Debug`, column
//! names and emission order included, and `ExecStats` — and that one must
//! be `execute_row_oracle`'s, rows taken in one canonical order (the oracle
//! emits groups in key order). A table whose most selective conjunct flips
//! between the first and the last morsels checks the re-ranking mid-scan
//! the same way.

use simba_core::dashboard::Dashboard;
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_driver::{AdaptiveSource, AdaptiveWalkConfig, Driver, DriverConfig, SessionSource};
use simba_engine::batch::{run_morsels, DeltaScan};
use simba_engine::exec::finalize_rows;
use simba_engine::plan::prepare;
use simba_engine::{
    execute_row_oracle, Dbms, DuckDbLike, EngineError, EngineKind, ExecStats, QueryOutput,
    RowBitmap, MORSEL,
};
use simba_idebench::IdebenchSource;
use simba_sql::{Expr, Select};
use simba_store::mix::splitmix64;
use simba_store::{ColumnDef, ResultSet, Schema, Table, TableBuilder, Value};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

const ROWS: usize = 2_000;
const SEED: u64 = 7;
const SESSIONS: usize = 4;
const STEPS: usize = 20;

/// The most permutations checked per WHERE.
const MAX_PERMUTATIONS: usize = 24;

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

/// The first query to carry each WHERE of two to five conjuncts, per
/// source, from the IDEBench and adaptive sources at 2K rows.
fn multi_conjunct_queries() -> Vec<(&'static str, Select)> {
    let table = Arc::new(DashboardDataset::CustomerService.generate_rows(ROWS, SEED));
    let dashboard = Dashboard::new(builtin(DashboardDataset::CustomerService), &table).unwrap();
    let adaptive = AdaptiveSource::new(
        &dashboard,
        AdaptiveWalkConfig {
            base_seed: SEED,
            steps_per_session: STEPS,
            ..Default::default()
        },
        SESSIONS,
    );
    let sources: [(&str, Box<dyn SessionSource + '_>); 2] = [
        (
            "idebench",
            Box::new(IdebenchSource::new(table.clone(), SEED, SESSIONS, STEPS)),
        ),
        ("adaptive", Box::new(adaptive)),
    ];
    let mut out = Vec::new();
    for (name, source) in &sources {
        let mut wheres = HashSet::new();
        let mut found = 0;
        for query in recorded(&table, source.as_ref()) {
            let Some(filter) = &query.where_clause else {
                continue;
            };
            if (2..=5).contains(&filter.conjuncts().len()) && wheres.insert(filter.to_string()) {
                out.push((*name, query));
                found += 1;
            }
        }
        assert!(found > 0, "{name} issues no WHERE of 2-5 conjuncts");
    }
    out
}

/// `items`' permutations in lexicographic order of positions: all of them
/// up to [`MAX_PERMUTATIONS`], else every `n! / MAX_PERMUTATIONS`-th, so
/// each conjunct still leads some of them.
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    let mut all = Vec::new();
    let mut order: Vec<usize> = (0..items.len()).collect();
    loop {
        all.push(order.iter().map(|&i| items[i].clone()).collect());
        // The next permutation: the rightmost ascent, swapped with the
        // rightmost larger element, and the tail reversed.
        let Some(i) = (1..order.len()).rev().find(|&i| order[i - 1] < order[i]) else {
            break;
        };
        let j = (i..order.len())
            .rev()
            .find(|&j| order[j] > order[i - 1])
            .unwrap();
        order.swap(i - 1, j);
        order[i..].reverse();
    }
    let stride = all.len().div_ceil(MAX_PERMUTATIONS);
    all.into_iter().step_by(stride).collect()
}

/// `query` with its WHERE's conjuncts in each checked order, the order as
/// written first.
fn reorderings(query: &Select) -> Vec<Select> {
    let filter = query.where_clause.as_ref().unwrap();
    let conjuncts: Vec<Expr> = filter.conjuncts().into_iter().cloned().collect();
    permutations(&conjuncts)
        .into_iter()
        .map(|order| {
            let mut q = query.clone();
            q.where_clause = order.into_iter().reduce(Expr::and);
            q
        })
        .collect()
}

/// An answer in the form that compares byte for byte: the result's `Debug`
/// (column names, and every value with its type) and the stats.
type Answer = (String, ExecStats);

fn answer(result: &ResultSet, stats: &ExecStats) -> Answer {
    (format!("{result:?}"), stats.clone())
}

/// A result's column names and rows in one canonical order, for comparing
/// an engine with the oracle, which emits groups in key order.
fn canonical(result: &ResultSet) -> String {
    format!("{:?}", (result.columns(), result.sorted_rows()))
}

/// The scans checked: `duckdb-like` at 1 and 3 scan threads through
/// `execute`, and `run_morsels` on one thread seeded from the WHERE as
/// written (exact), and seeded from its first conjunct as written alone
/// while refining through the other conjuncts of `query` (a seeded scan's
/// candidates are the seed's rows, so it answers the whole WHERE).
fn scans(
    table: &Arc<Table>,
    query: &Select,
    written: &Select,
) -> Vec<(String, ResultSet, ExecStats)> {
    let mut out = Vec::new();
    for threads in [1, 3] {
        let engine = DuckDbLike::with_scan_threads(threads);
        engine.register(table.clone());
        let output = engine.execute(query).unwrap();
        out.push((
            format!("duckdb-like at {threads} threads"),
            output.result,
            output.stats,
        ));
    }
    let filter = written.where_clause.as_ref().unwrap();
    let first = filter.conjuncts()[0];
    let mut rest: Vec<Expr> = query
        .where_clause
        .as_ref()
        .unwrap()
        .conjuncts()
        .into_iter()
        .cloned()
        .collect();
    let at = rest.iter().position(|c| c == first).unwrap();
    rest.remove(at);
    let mut refining = query.clone();
    refining.where_clause = rest.into_iter().reduce(Expr::and);
    for (name, seed_filter, scanned, exact) in [
        ("exact", filter, query, true),
        ("refining", first, &refining, false),
    ] {
        let mut base = written.clone();
        base.where_clause = Some(seed_filter.clone());
        let base_plan = prepare(&base, table.clone()).unwrap();
        let (_, _, capture) = run_morsels(&base_plan, 1, DeltaScan::Capture);
        let seed: RowBitmap = capture.unwrap().selection.unwrap();
        let plan = prepare(scanned, table.clone()).unwrap();
        let seeded = DeltaScan::Seeded { seed: &seed, exact };
        let (rows, stats, _) = run_morsels(&plan, 1, seeded);
        let names = plan.output_names.clone();
        let result = finalize_rows(rows, names, &plan.order_dirs, plan.limit);
        out.push((format!("{name} seeded scan"), result, stats));
    }
    out
}

/// Every checked order of `written`'s WHERE answers on every scan exactly
/// as the order as written does, and that answer is the oracle's.
fn assert_order_free(table: &Arc<Table>, written: &Select) {
    let oracle = execute_row_oracle(table.clone(), written).unwrap();
    let want: Vec<Answer> = scans(table, written, written)
        .iter()
        .map(|(scan, result, stats)| {
            assert_eq!(
                canonical(result),
                canonical(&oracle.result),
                "{scan} against the oracle on `{written}`"
            );
            answer(result, stats)
        })
        .collect();
    for query in reorderings(written).into_iter().skip(1) {
        let got = scans(table, &query, written);
        for ((scan, result, stats), want) in got.iter().zip(&want) {
            assert_eq!(
                &answer(result, stats),
                want,
                "{scan} on `{query}`, written `{written}`"
            );
        }
    }
}

#[test]
fn permutations_cover_every_lead_and_stop_at_24() {
    for n in 1..=5usize {
        let items: Vec<usize> = (0..n).collect();
        let perms = permutations(&items);
        let factorial: usize = (1..=n).product();
        assert_eq!(perms.len(), factorial.min(MAX_PERMUTATIONS), "{n}");
        assert_eq!(perms[0], items, "the order as written first");
        let distinct: HashSet<_> = perms.iter().collect();
        assert_eq!(distinct.len(), perms.len());
        let leads: HashSet<_> = perms.iter().map(|p| p[0]).collect();
        assert_eq!(leads.len(), n, "every conjunct leads a permutation");
    }
}

/// The sources' multi-conjunct WHEREs, on the 2K-row table they were issued
/// on (one morsel) and on five morsels of the same dataset, where each scan
/// range re-ranks its kernels after every morsel.
#[test]
fn source_wheres_answer_alike_in_every_conjunct_order() {
    let queries = multi_conjunct_queries();
    let tables = [
        Arc::new(DashboardDataset::CustomerService.generate_rows(ROWS, SEED)),
        Arc::new(DashboardDataset::CustomerService.generate_rows(4 * MORSEL + 700, SEED)),
    ];
    for table in &tables {
        for (_source, query) in &queries {
            assert_order_free(table, query);
        }
    }
}

/// Four morsels and a partial one: `a` passes `a < 50` rarely in the first
/// two morsels and mostly after, `b` the other way round, so the cumulative
/// pass rates cross mid-scan and the most selective kernel changes between
/// the first and the last morsels. `q` and `x` (NULL now and then) add a
/// dictionary kernel and, through `x + 0`, a generic one.
fn flipping_table() -> Arc<Table> {
    let schema = Schema::new(
        "t",
        vec![
            ColumnDef::quantitative_int("a"),
            ColumnDef::quantitative_int("b"),
            ColumnDef::categorical("q"),
            ColumnDef::quantitative_float("x"),
        ],
    );
    let rows = 4 * MORSEL + 700;
    let mut b = TableBuilder::new(schema, rows);
    for i in 0..rows {
        let draw = |salt: u64| splitmix64(i as u64 ^ (salt << 56));
        let early = i < 2 * MORSEL;
        let (a_span, b_span) = if early { (1_000, 60) } else { (60, 1_000) };
        b.push_row(vec![
            Value::Int((draw(1) % a_span) as i64),
            Value::Int((draw(2) % b_span) as i64),
            Value::str(["A", "B", "C"][(draw(3) % 3) as usize]),
            if draw(4) % 7 == 0 {
                Value::Null
            } else {
                Value::Float((draw(5) % 100) as f64 / 4.0)
            },
        ]);
    }
    Arc::new(b.finish())
}

#[test]
fn a_selectivity_flip_mid_scan_answers_alike_in_every_order() {
    let table = flipping_table();
    for sql in [
        "SELECT q, COUNT(*), SUM(a), MAX(x) FROM t WHERE a < 50 AND b < 50 GROUP BY q",
        "SELECT COUNT(*), MIN(b), AVG(x) FROM t \
         WHERE a < 50 AND b < 50 AND q IN ('A', 'B') AND x + 0 > 2",
        "SELECT BIN(a, 10), q, COUNT(*) FROM t \
         WHERE x + 0 > 1 AND q <> 'C' AND b BETWEEN 0 AND 40 AND a < 45 AND x < 20 \
         GROUP BY BIN(a, 10), q",
        "SELECT a, b, q FROM t WHERE b < 3 AND a < 50 AND q IN ('A') ORDER BY a, b LIMIT 20",
    ] {
        let query = simba_sql::parse_select(sql).unwrap();
        assert_order_free(&table, &query);
    }
}
