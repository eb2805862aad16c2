//! Criterion microbenchmarks: the two engine architectures on fixed
//! dashboard-shaped queries (supports the §6 engine comparison), the
//! filter compiler's kernels against what they replace, the plan layer
//! (`prepare`, which compiles the WHERE to kernels) on storm-shaped
//! filters, the group
//! layer on the storm's packed GROUP BY shapes, the scan's filter and
//! aggregate loops on storm and KPI-tile queries, seeded scans against the
//! fresh scans they replace, the result layer on the storm's largest
//! result, the result cache's key and lookup on dashboard queries, and
//! dataset generation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simba_core::dashboard::Dashboard;
use simba_core::session::batch::{synthesize_scripts, BatchConfig};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_driver::{CacheConfig, ShardedResultCache};
use simba_engine::batch::{fill_filtered, run_morsels, SelectionVector, MORSEL};
use simba_engine::exec::{compile_where, Kernel};
use simba_engine::plan::{compile_row_expr, prepare};
use simba_engine::{Dbms, DeltaScan, DuckDbLike, EngineKind, ExecStats, QueryOutput};
use simba_idebench::{IdeBenchConfig, IdeBenchWalk};
use simba_sql::{parse_select, query_cache_key, Select, Spelling};
use simba_store::{ResultSet, Table, Value};
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
    let parse = |filter: &str| {
        let sql = format!("SELECT calls FROM customer_service WHERE {filter}");
        parse_select(&sql).unwrap().where_clause.unwrap()
    };
    let range = parse("handle_time BETWEEN 120.0 AND 480.0");
    let stacked = parse(
        "handle_time BETWEEN 60.0 AND 600.0 AND hour >= 8 AND queue IN ('A', 'B', 'C') \
         AND handle_time <= 480.0 AND hour BETWEEN 9 AND 17 AND queue NOT IN ('B')",
    );
    let variants = [
        ("range/typed", compile_where(&range, &table).unwrap()),
        (
            "range/interpreter",
            vec![Kernel::Generic(
                compile_row_expr(&range, table.schema()).unwrap(),
            )],
        ),
        ("stacked/combined", compile_where(&stacked, &table).unwrap()),
        (
            "stacked/uncombined",
            stacked
                .conjuncts()
                .into_iter()
                .flat_map(|conjunct| compile_where(conjunct, &table).unwrap())
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

/// One query's plan: `prepare`, which compiles its WHERE to settled kernels
/// — all the work a query proved empty costs before its scan reads nothing.
fn plan(query: &Select, table: &Arc<Table>) -> usize {
    let plan = prepare(query, table.clone()).unwrap();
    plan.filter.map_or(0, |kernels| kernels.len())
}

/// `plan/`: `prepare` on storm-shaped filters — Float bounds on Int
/// columns, dictionary `IN` lists, one contradiction — each also as
/// `compile_where` alone; then the same over every query of eight seeded
/// IDEBench storms (26 interactions each) that compiles to a contradiction,
/// one iteration timing the whole set.
fn bench_plan(c: &mut Criterion) {
    let table = Arc::new(DashboardDataset::CustomerService.generate_rows(100_000, 42));
    let query = |filter: &str| {
        parse_select(&format!(
            "SELECT queue, COUNT(*) FROM customer_service WHERE {filter} GROUP BY queue"
        ))
        .unwrap()
    };
    let cases = [
        (
            "float_on_int",
            query(
                "calls BETWEEN 3.27 AND 18.9 AND satisfaction BETWEEN 1.5 AND 4.25 \
                 AND transfers BETWEEN 0.2 AND 2.7 AND callbacks BETWEEN 0.1 AND 1.9",
            ),
        ),
        (
            "dict_in",
            query(
                "queue IN ('A', 'B') AND rep_id IN ('rep_03', 'rep_07', 'rep_11') \
                 AND call_type IN ('billing', 'sales') AND customer_tier IN ('gold')",
            ),
        ),
        (
            "contradiction",
            query(
                "handle_time BETWEEN 60.5 AND 612.25 AND queue IN ('A', 'C') \
                 AND lost_calls BETWEEN 0.04 AND 0.45 AND calls BETWEEN 2.5 AND 30.75",
            ),
        ),
    ];
    let proved_empty: Vec<Select> = (0..8)
        .flat_map(|seed| {
            let config = IdeBenchConfig {
                seed,
                interactions: 26,
                ..Default::default()
            };
            let mut walk = IdeBenchWalk::new(&table, &config);
            let mut queries = Vec::new();
            while let Some(step) = walk.next() {
                queries.extend(step.queries.into_iter().map(|(_, q)| q));
            }
            queries
        })
        .filter(|q| {
            let filter = prepare(q, table.clone()).unwrap().filter;
            filter.is_some_and(|kernels| kernels.iter().any(Kernel::never_matches))
        })
        .collect();

    let mut group = c.benchmark_group("plan");
    group
        .sample_size(2_000)
        .measurement_time(Duration::from_secs(2));
    for (name, query) in &cases {
        let filter = query.where_clause.as_ref().unwrap();
        group.bench_function(name, |b| b.iter(|| plan(query, &table)));
        group.bench_function(format!("{name}/compile_where"), |b| {
            b.iter(|| compile_where(filter, &table).unwrap().len())
        });
    }
    let filters: Vec<_> = proved_empty
        .iter()
        .map(|q| q.where_clause.as_ref().unwrap())
        .collect();
    let set = format!("storm_proved_empty x{}", proved_empty.len());
    group.sample_size(50);
    group.bench_function(&set, |b| {
        b.iter(|| proved_empty.iter().map(|q| plan(q, &table)).sum::<usize>())
    });
    group.bench_function(format!("{set}/compile_where"), |b| {
        b.iter(|| {
            filters
                .iter()
                .map(|f| compile_where(f, &table).unwrap().len())
                .sum::<usize>()
        })
    });
    group.finish();
}

/// `group/`: `run_morsels` (one scan thread, no delta) at 100K rows on the
/// storm's packed GROUP BY shapes: an Int bin holding one group, two
/// dictionaries, a Float bin beside a dictionary, and a date bin across two
/// dictionaries (≈26K groups, past the direct slot table).
fn bench_group(c: &mut Criterion) {
    let table = Arc::new(DashboardDataset::CustomerService.generate_rows(100_000, 42));
    let cases = [
        ("bin_satisfaction_100", "BIN(satisfaction, 100)"),
        ("queue_call_type", "queue, call_type"),
        (
            "bin_talk_time_100_direction",
            "BIN(talk_time, 100), call_direction",
        ),
        (
            "bin_call_date_5_queue_call_type",
            "BIN(call_date, 5), queue, call_type",
        ),
    ];
    let mut group = c.benchmark_group("group");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for (name, keys) in cases {
        let sql = format!("SELECT {keys}, COUNT(*) FROM customer_service GROUP BY {keys}");
        let plan = prepare(&parse_select(&sql).unwrap(), table.clone()).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| run_morsels(&plan, 1, DeltaScan::Off).0.n_rows())
        });
    }
    group.finish();
}

/// `scan/`: `run_morsels` (one scan thread, no delta) at 100K rows on the
/// scan's per-row loops: `COUNT(*)` under a mid-selectivity Float and an
/// Int `BETWEEN` (the filter kernel), the `dash_*` workloads' two KPI tiles
/// (global aggregates: one group), and a `COUNT(*)` over one group and
/// over three (counted in lanes).
fn bench_scan(c: &mut Criterion) {
    let table = Arc::new(DashboardDataset::CustomerService.generate_rows(100_000, 42));
    let cases = [
        (
            "count_float_between",
            "SELECT COUNT(*) FROM customer_service WHERE talk_time BETWEEN 137.5 AND 790.6",
        ),
        (
            "count_int_between",
            "SELECT COUNT(*) FROM customer_service WHERE hour BETWEEN 9 AND 17",
        ),
        (
            "kpi_sum_abandoned_count_calls",
            "SELECT SUM(abandoned), COUNT(calls) FROM customer_service",
        ),
        (
            "kpi_count_lost_calls",
            "SELECT COUNT(lost_calls) FROM customer_service",
        ),
        (
            "one_group_count",
            "SELECT BIN(callbacks, 10), COUNT(*) FROM customer_service \
             GROUP BY BIN(callbacks, 10)",
        ),
        (
            "three_group_count",
            "SELECT customer_tier, COUNT(*) FROM customer_service GROUP BY customer_tier",
        ),
    ];
    let mut group = c.benchmark_group("scan");
    group
        .sample_size(300)
        .measurement_time(Duration::from_secs(3));
    for (name, sql) in cases {
        let plan = prepare(&parse_select(sql).unwrap(), table.clone()).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| run_morsels(&plan, 1, DeltaScan::Off).0.n_rows())
        });
    }
    group.finish();
}

/// `seeded/`: `run_morsels` (one scan thread) at 100K rows on one filtered
/// GROUP BY, as a fresh scan and seeded from the bitmap a capturing scan
/// kept: an exact seed at ≈30 % of the rows (`queue` B), whose kernels are
/// skipped, and a refining seed at ≈1 % (`transfers` 3 in queues B and C),
/// re-filtered through a query that adds a conjunct. Each name carries its
/// seed's measured density.
fn bench_seeded(c: &mut Criterion) {
    let table = Arc::new(DashboardDataset::CustomerService.generate_rows(100_000, 42));
    let plan = |filter: &str| {
        let sql = format!(
            "SELECT call_type, COUNT(*), AVG(handle_time) FROM customer_service \
             WHERE {filter} GROUP BY call_type"
        );
        prepare(&parse_select(&sql).unwrap(), table.clone()).unwrap()
    };
    let sparse = "transfers = 3 AND queue IN ('B', 'C')";
    let cases = [
        (
            "exact",
            plan("queue IN ('B')"),
            plan("queue IN ('B')"),
            true,
        ),
        (
            "refining",
            plan(sparse),
            plan(&format!("{sparse} AND call_direction IN ('incoming')")),
            false,
        ),
    ];
    let mut group = c.benchmark_group("seeded");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for (name, base, query, exact) in &cases {
        let seed = run_morsels(base, 1, DeltaScan::Capture)
            .2
            .and_then(|capture| capture.selection)
            .unwrap();
        let name = format!("{name}_{:.1}pct", 100.0 * seed.len() as f64 / 100_000.0);
        group.bench_function(format!("{name}/fresh"), |b| {
            b.iter(|| run_morsels(query, 1, DeltaScan::Off).0.n_rows())
        });
        group.bench_function(format!("{name}/seeded"), |b| {
            b.iter(|| {
                let scan = DeltaScan::Seeded {
                    seed: &seed,
                    exact: *exact,
                };
                run_morsels(query, 1, scan).0.n_rows()
            })
        });
    }
    group.finish();
}

/// `result/`: the storm's largest result — `BIN(call_date, 5), queue,
/// call_type` with `MAX(lost_calls)`, ≈26K groups at 100K rows — executed
/// through `DuckDbLike::execute`, which builds the result set and drops
/// it, and fingerprinted.
fn bench_result(c: &mut Criterion) {
    let table = Arc::new(DashboardDataset::CustomerService.generate_rows(100_000, 42));
    let engine = DuckDbLike::new();
    engine.register(table);
    let query = parse_select(
        "SELECT BIN(call_date, 5), queue, call_type, MAX(lost_calls) FROM customer_service \
         GROUP BY BIN(call_date, 5), queue, call_type",
    )
    .unwrap();
    let result = engine.execute(&query).unwrap().result;
    let mut group = c.benchmark_group("result");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    group.bench_function(format!("execute_{}_groups", result.n_rows()), |b| {
        b.iter(|| engine.execute(&query).unwrap().result.n_rows())
    });
    group.bench_function(format!("fingerprint_{}_groups", result.n_rows()), |b| {
        b.iter(|| simba_driver::fingerprint(&result))
    });
    group.finish();
}

/// `cache/`: the result cache on the distinct queries of four scripted
/// `customer_service` dashboard sessions, one iteration timing the whole
/// set: deriving each `query_cache_key`, a warm hit through
/// `execute_cached` (the spelling memo answers the key), and `lookup` by a
/// key already derived.
fn bench_cache(c: &mut Criterion) {
    let ds = DashboardDataset::CustomerService;
    let table = Arc::new(ds.generate_rows(2_000, 42));
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    let config = BatchConfig {
        base_seed: 7,
        ..Default::default()
    };
    let mut queries: Vec<Select> = Vec::new();
    for script in synthesize_scripts(&dashboard, &config, 4) {
        for step in script.steps {
            for q in step.queries {
                if !queries
                    .iter()
                    .any(|seen| Spelling::of(seen) == Spelling::of(&q.query))
                {
                    queries.push((*q.query).clone());
                }
            }
        }
    }
    let cache = ShardedResultCache::new(CacheConfig::default());
    let output = || {
        Ok(QueryOutput {
            result: ResultSet::new(vec!["n".to_string()], vec![vec![Value::Int(1)]]),
            stats: ExecStats::default(),
            elapsed: Duration::ZERO,
        })
    };
    for q in &queries {
        cache.execute_cached(q, output).unwrap();
    }
    let keys: Vec<String> = queries.iter().map(query_cache_key).collect();

    let mut group = c.benchmark_group("cache");
    group
        .sample_size(200)
        .measurement_time(Duration::from_secs(2));
    let n = queries.len();
    group.bench_function(format!("query_cache_key x{n}"), |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| query_cache_key(q).len())
                .sum::<usize>()
        })
    });
    group.bench_function(format!("execute_cached_hit x{n}"), |b| {
        b.iter(|| {
            queries
                .iter()
                .filter(|q| cache.execute_cached(q, output).unwrap().2)
                .count()
        })
    });
    group.bench_function(format!("lookup x{n}"), |b| {
        b.iter(|| keys.iter().filter(|k| cache.lookup(k).is_some()).count())
    });
    group.finish();
}

/// `data/`: generating the benchmark's dataset, `customer_service`, at
/// 100K rows on one thread — the path every workload's set-up takes.
fn bench_data(c: &mut Criterion) {
    let mut group = c.benchmark_group("data");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("customer_service_100k", |b| {
        b.iter(|| {
            DashboardDataset::CustomerService
                .generate_rows_with_threads(100_000, 42, 1)
                .row_count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engines,
    bench_filters,
    bench_plan,
    bench_group,
    bench_scan,
    bench_seeded,
    bench_result,
    bench_cache,
    bench_data
);
criterion_main!(benches);
