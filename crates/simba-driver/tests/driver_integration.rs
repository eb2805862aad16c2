//! Driver-level integration tests: the cache must be *transparent*
//! (identical results with and without it), correct under heavy
//! concurrency, and shared across normalization-equivalent queries.

use simba_core::dashboard::Dashboard;
use simba_core::session::batch::{synthesize_scripts, BatchConfig, SessionScript};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_driver::{
    AdaptiveSource, AdaptiveWalkConfig, Arrival, CacheConfig, CachedResult, Driver, DriverConfig,
    ScriptedSource, ShardedResultCache, ThinkTime, ERROR_FINGERPRINT,
};
use simba_engine::{Dbms, EngineError, EngineKind, QueryOutput};
use simba_sql::{parse_select, Select};
use simba_store::{ResultSet, Table, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn setup(rows: usize, sessions: usize) -> (Arc<Table>, Dashboard, Vec<SessionScript>) {
    let ds = DashboardDataset::CustomerService;
    let table = Arc::new(ds.generate_rows(rows, 42));
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    let scripts = synthesize_scripts(
        &dashboard,
        &BatchConfig {
            base_seed: 7,
            steps_per_session: 6,
            ..Default::default()
        },
        sessions,
    );
    (table, dashboard, scripts)
}

/// The acceptance property: enabling the cache changes *nothing* about the
/// results a session observes — every query's result multiset is
/// byte-identical to the cache-disabled run, on every engine.
#[test]
fn cached_results_are_byte_identical_to_uncached() {
    let (table, _dashboard, scripts) = setup(2_000, 12);
    for kind in EngineKind::ALL {
        let engine = kind.build();
        engine.register(table.clone());

        let run = |cache: Option<CacheConfig>| {
            Driver::new(DriverConfig {
                workers: 4,
                cache,
                collect_fingerprints: true,
                ..Default::default()
            })
            .run_source(engine.clone(), &ScriptedSource::borrowed(&scripts))
        };
        let uncached = run(None);
        let cached = run(Some(CacheConfig::default()));

        assert_eq!(uncached.report.errors, 0, "{}", kind.name());
        assert_eq!(cached.report.errors, 0, "{}", kind.name());
        assert_eq!(
            uncached.fingerprints,
            cached.fingerprints,
            "{}: cache changed some query's result",
            kind.name()
        );
        let stats = cached.report.cache.expect("cache stats present");
        assert!(
            stats.hits > 0,
            "{}: expected repeated queries to hit",
            kind.name()
        );
    }
}

/// A deterministic engine stub that counts executions and answers each
/// query with a result derived from its cache key, so any cross-key mixup
/// is visible in the payload.
struct CountingEngine {
    executions: AtomicU64,
}

impl CountingEngine {
    fn new() -> Self {
        CountingEngine {
            executions: AtomicU64::new(0),
        }
    }
}

impl Dbms for CountingEngine {
    fn name(&self) -> &'static str {
        "counting-stub"
    }

    fn register(&self, _table: Arc<Table>) {}

    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
        self.executions.fetch_add(1, Ordering::SeqCst);
        let key = simba_sql::query_cache_key(query);
        let tag = key.len() as i64 + i64::from(key.as_bytes()[0]);
        Ok(QueryOutput {
            result: ResultSet::new(vec!["tag".to_string()], vec![vec![Value::Int(tag)]]),
            stats: Default::default(),
            elapsed: std::time::Duration::from_micros(1),
        })
    }
}

/// Normalization-equivalent spellings of one query must share a single
/// cache entry (one engine execution, hits for every variant) — but a
/// variant with a *different result shape* (reordered projections) must
/// get its own entry, because its column layout differs.
#[test]
fn equivalent_queries_share_one_entry() {
    let engine = CountingEngine::new();
    let cache = ShardedResultCache::new(CacheConfig::default());
    let variants = [
        "SELECT queue, COUNT(*) FROM cs WHERE a = 1 AND b = 2 GROUP BY queue",
        "select QUEUE, count( * ) from CS where b = 2 and a = 1 group by Queue",
        "SELECT queue, COUNT(*) FROM cs WHERE b = 2 AND a = 1 GROUP BY queue",
    ];
    let mut results = Vec::new();
    for sql in variants {
        let q = parse_select(sql).unwrap();
        let (value, _elapsed, _hit) = cache.execute_cached(&q, || engine.execute(&q)).unwrap();
        results.push(value.result.clone());
    }
    assert_eq!(
        engine.executions.load(Ordering::SeqCst),
        1,
        "variants re-executed"
    );
    assert_eq!(cache.len(), 1);
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 2);
    assert!(results.windows(2).all(|w| w[0] == w[1]));

    // Same data, different column order: must miss and occupy a new entry.
    let reordered =
        parse_select("SELECT COUNT(*), queue FROM cs WHERE a = 1 AND b = 2 GROUP BY queue")
            .unwrap();
    let (_, _, hit) = cache
        .execute_cached(&reordered, || engine.execute(&reordered))
        .unwrap();
    assert!(
        !hit,
        "shape-changing variant must not be served from the cache"
    );
    assert_eq!(engine.executions.load(Ordering::SeqCst), 2);
    assert_eq!(cache.len(), 2);
}

/// Distinct queries must never be conflated, even under eviction pressure.
#[test]
fn eviction_pressure_never_mixes_results() {
    let engine = CountingEngine::new();
    // Tiny cache: 2 shards × 4 entries, far fewer than the 64 keys below.
    let cache = ShardedResultCache::new(CacheConfig {
        shards: 2,
        capacity_per_shard: 4,
    });
    let queries: Vec<Select> = (0..64)
        .map(|i| parse_select(&format!("SELECT x FROM t WHERE a = {i}")).unwrap())
        .collect();
    for round in 0..3 {
        for q in &queries {
            let expected = engine.execute(q).unwrap().result;
            let (value, _, _) = cache.execute_cached(q, || engine.execute(q)).unwrap();
            assert!(
                value.result.multiset_eq(&expected),
                "round {round}: wrong payload for {q}"
            );
        }
    }
    let stats = cache.stats();
    assert!(
        stats.evictions > 0,
        "cache was supposed to thrash: {stats:?}"
    );
    assert!(cache.len() <= 8);
}

/// ≥8 threads hammering overlapping keys: every lookup must return the
/// payload of its own key (reader/writer races must never surface a torn
/// or mismatched entry).
#[test]
fn concurrent_readers_and_writers_get_consistent_results() {
    let cache = Arc::new(ShardedResultCache::new(CacheConfig {
        shards: 4,
        capacity_per_shard: 8, // small: forces concurrent eviction too
    }));
    let threads = 10;
    let keys_per_thread = 40;
    let ops = 2_000;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for i in 0..ops {
                    // Overlapping key space across threads.
                    let k = (t * 7 + i * 13) % keys_per_thread;
                    let key = format!("key-{k}");
                    match cache.lookup(&key) {
                        Some(value) => {
                            let rows = value.result.sorted_rows();
                            assert_eq!(
                                rows,
                                vec![vec![Value::Int(k as i64)]],
                                "thread {t}: wrong payload for {key}"
                            );
                        }
                        None => {
                            cache.insert(
                                key,
                                Arc::new(CachedResult {
                                    result: ResultSet::new(
                                        vec!["k".to_string()],
                                        vec![vec![Value::Int(k as i64)]],
                                    ),
                                    stats: Default::default(),
                                }),
                            );
                        }
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, (threads * ops) as u64);
    assert!(stats.hits > 0 && stats.insertions > 0);
    assert!(cache.len() <= 4 * 8);
}

/// A counting engine that holds every execution long enough for concurrent
/// misses on the same key to pile up behind the single-flight leader.
struct SlowCountingEngine {
    executions: AtomicU64,
}

impl Dbms for SlowCountingEngine {
    fn name(&self) -> &'static str {
        "slow-counting-stub"
    }

    fn register(&self, _table: Arc<Table>) {}

    fn execute(&self, _query: &Select) -> Result<QueryOutput, EngineError> {
        self.executions.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(40));
        Ok(QueryOutput {
            result: ResultSet::new(vec!["n".to_string()], vec![vec![Value::Int(7)]]),
            stats: Default::default(),
            elapsed: std::time::Duration::from_millis(40),
        })
    }
}

/// Single-flight: N concurrent misses on one key must run the engine
/// exactly once — the followers block on the leader's flight and share its
/// result.
#[test]
fn concurrent_misses_on_one_key_execute_engine_once() {
    let engine = SlowCountingEngine {
        executions: AtomicU64::new(0),
    };
    let cache = ShardedResultCache::new(CacheConfig::default());
    let query = parse_select("SELECT COUNT(*) FROM t").unwrap();
    let threads = 8;
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                barrier.wait();
                let (value, _elapsed, hit) = cache
                    .execute_cached(&query, || engine.execute(&query))
                    .unwrap();
                assert_eq!(
                    value.result.sorted_rows(),
                    vec![vec![Value::Int(7)]],
                    "all callers share the leader's payload"
                );
                let _ = hit;
            });
        }
    });
    assert_eq!(
        engine.executions.load(Ordering::SeqCst),
        1,
        "missed key must execute exactly once"
    );
    let stats = cache.stats();
    assert_eq!(stats.insertions, 1);
    assert_eq!(
        stats.hits + stats.coalesced,
        threads as u64 - 1,
        "everyone but the leader was served from memory: {stats:?}"
    );
}

/// A wrapper that deterministically fails a subset of queries, for the
/// fingerprint-alignment regression.
struct FlakyEngine {
    inner: Arc<dyn Dbms>,
}

fn flaky_fails(query: &Select) -> bool {
    query.to_string().contains("rep_id")
}

impl Dbms for FlakyEngine {
    fn name(&self) -> &'static str {
        "flaky"
    }

    fn register(&self, table: Arc<Table>) {
        self.inner.register(table);
    }

    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
        if flaky_fails(query) {
            Err(EngineError::Unsupported("flaky: rep_id is down".into()))
        } else {
            self.inner.execute(query)
        }
    }
}

/// Regression: an errored query used to be silently *skipped* in the
/// fingerprint vector, shifting every later fingerprint and misaligning
/// per-session comparisons across engines. Errors must record
/// [`ERROR_FINGERPRINT`] so vectors stay position-for-position comparable.
#[test]
fn errored_queries_keep_fingerprints_position_aligned() {
    let (table, _dashboard, scripts) = setup(800, 6);
    let clean = EngineKind::SqliteLike.build();
    clean.register(table.clone());
    let flaky: Arc<dyn Dbms> = Arc::new(FlakyEngine {
        inner: clean.clone(),
    });

    let run = |engine: Arc<dyn Dbms>| {
        Driver::new(DriverConfig {
            workers: 3,
            collect_fingerprints: true,
            ..Default::default()
        })
        .run_source(engine, &ScriptedSource::borrowed(&scripts))
    };
    let reference = run(clean);
    let with_errors = run(flaky);
    assert_eq!(reference.report.errors, 0);
    assert!(
        with_errors.report.errors > 0,
        "scripts must hit at least one rep_id query"
    );

    let mut sentinels = 0u64;
    for (session, script) in scripts.iter().enumerate() {
        let expect_fail: Vec<bool> = script
            .steps
            .iter()
            .flat_map(|s| s.queries.iter().map(|q| flaky_fails(&q.query)))
            .collect();
        let good = &reference.fingerprints[session];
        let flaked = &with_errors.fingerprints[session];
        assert_eq!(good.len(), script.query_count());
        assert_eq!(
            flaked.len(),
            script.query_count(),
            "errored queries must still occupy a fingerprint slot"
        );
        for (pos, fail) in expect_fail.iter().enumerate() {
            if *fail {
                sentinels += 1;
                assert_eq!(
                    flaked[pos], ERROR_FINGERPRINT,
                    "session {session} pos {pos}"
                );
            } else {
                assert_eq!(
                    flaked[pos], good[pos],
                    "session {session} pos {pos}: successful queries must agree"
                );
            }
        }
    }
    assert_eq!(sentinels, with_errors.report.errors);
}

/// Adaptive-mode smoke: live sessions run to completion, the report carries
/// the session mode and steering counters, and the whole run is
/// reproducible.
#[test]
fn adaptive_mode_reports_steering_and_reproduces() {
    let ds = DashboardDataset::CustomerService;
    let table = Arc::new(ds.generate_rows(1_500, 42));
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    let engine = EngineKind::DuckDbLike.build();
    engine.register(table);

    let adaptive = AdaptiveWalkConfig {
        base_seed: 11,
        steps_per_session: 6,
        ..Default::default()
    };
    let run = || {
        Driver::new(DriverConfig {
            workers: 4,
            collect_fingerprints: true,
            cache: Some(CacheConfig::default()),
            ..Default::default()
        })
        .run_source(
            engine.clone(),
            &AdaptiveSource::new(&dashboard, adaptive.clone(), 8),
        )
    };
    let a = run();
    assert_eq!(a.report.session_mode, "adaptive");
    assert_eq!(a.report.mode, "closed");
    assert_eq!(a.report.sessions, 8);
    assert_eq!(a.report.errors, 0);
    assert!(a.report.queries > 0);
    assert!(a.report.interactions <= 8 * 6, "steps bound interactions");
    let steering = a.report.steering.as_ref().expect("adaptive run steers");
    assert_eq!(steering.policy, "backtrack_on_empty+drill_top_group");
    assert!(
        steering.drills >= 8,
        "every session's opening render exposes a dominant group: {steering:?}"
    );
    assert_eq!(a.actions.len(), 8);
    for acts in &a.actions {
        assert_eq!(acts[0], "open dashboard");
        assert!(acts.len() >= 2, "sessions should get past the render");
    }

    let b = run();
    assert_eq!(a.actions, b.actions, "same seed ⇒ same walk");
    assert_eq!(a.fingerprints, b.fingerprints, "same seed ⇒ same results");
}

/// Open-loop runs report queue delay and finish all sessions.
#[test]
fn open_loop_reports_queue_delay() {
    let (table, _dashboard, scripts) = setup(500, 8);
    let engine = EngineKind::SqliteLike.build();
    engine.register(table);
    let outcome = Driver::new(DriverConfig {
        workers: 2,
        arrival: Arrival::Open {
            rate_per_sec: 400.0,
        },
        think_time: ThinkTime::Fixed { millis: 1 },
        cache: Some(CacheConfig::default()),
        ..Default::default()
    })
    .run_source(engine, &ScriptedSource::borrowed(&scripts));
    let report = outcome.report;
    assert_eq!(report.mode, "open");
    assert_eq!(report.sessions, 8);
    assert_eq!(report.errors, 0);
    let delay = report.queue_delay.expect("open loop records queue delay");
    assert_eq!(delay.count, 8);
    assert!(report.queries > 0 && report.throughput_qps > 0.0);
}

/// Closed-loop driver accounting: interactions/queries line up with the
/// scripts it replayed, and the JSON report round-trips the key fields.
#[test]
fn closed_loop_accounting_matches_scripts() {
    let (table, _dashboard, scripts) = setup(500, 6);
    let engine = EngineKind::DuckDbLike.build();
    engine.register(table);
    let expected_queries: usize = scripts.iter().map(|s| s.query_count()).sum();
    let expected_interactions: usize = scripts.iter().map(|s| s.steps.len() - 1).sum();
    let outcome = Driver::new(DriverConfig {
        workers: 3,
        ..Default::default()
    })
    .run_source(engine, &ScriptedSource::borrowed(&scripts));
    let report = outcome.report;
    assert_eq!(report.queries as usize, expected_queries);
    assert_eq!(report.interactions as usize, expected_interactions);
    assert_eq!(report.latency.count, report.queries);
    assert!(report.queue_delay.is_none());
    assert!(report.cache.is_none());
    let json = report.to_json();
    assert!(json.contains("\"engine\": \"duckdb-like\""), "{json}");
}
