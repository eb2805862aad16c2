//! The differential oracle for session-delta execution: turning `delta: true`
//! on a scenario spec must be **invisible** in everything the workload can
//! observe — action sequences, result fingerprints, query counts, and
//! steering counters are byte-identical to the same spec with delta off,
//! for every session source, every engine, cache on and off.
//!
//! This is the load-bearing property of the delta cache (ISSUE PR10): reuse
//! decisions are proofs (key equality over normalized queries, sound
//! implication), so a divergence anywhere in this matrix is a correctness
//! bug in the delta path, not a tuning problem. Both sides of every
//! comparison run through the driver's one query path; the delta-on side
//! merely carries a store.

use proptest::prelude::*;
use simba_core::session::batch::{
    splitmix, synthesize_scripts, BatchConfig, ScriptQuery, ScriptStep, SessionScript,
};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_driver::workload::{EngineSpec, ScenarioSpec, SourceSpec};
use simba_driver::{
    CacheConfig, Driver, DriverConfig, DriverOutcome, ResiliencePolicy, ScriptedSource,
};
use simba_engine::{Dbms, EngineError, EngineKind, QueryOutput, SessionDelta};
use simba_server::LOOPBACK_ADDR;
use simba_sql::{parse_select, Select};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn spec(seed: u64, kind: EngineKind, source: SourceSpec, cache: bool, delta: bool) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("delta-equivalence", "customer_service");
    spec.rows = 500;
    spec.seed = seed;
    spec.sessions = 2;
    spec.steps_per_session = 4;
    spec.workers = 2;
    spec.engine = EngineSpec::new(kind);
    spec.source = source;
    spec.cache = cache.then(CacheConfig::default);
    spec.delta = delta;
    spec.collect_fingerprints = true;
    spec
}

/// Aggregation shapes the dashboards never emit but the delta tiers must
/// survive: per step one WHERE and group key (under each of the dense,
/// packed and hash key indexes), then every tail below in a
/// seeded order under seeded projection permutations — so group-state
/// replay sees ORDER BY over a non-projected aggregate (two different
/// ones), HAVING with two hidden aggregates in both written orders, LIMIT,
/// and permuted projections back to back. Two tails cut groups in emission
/// order — LIMIT with no ORDER BY, and LIMIT under an ORDER BY over an
/// aggregate alone, whose ties keep emission order — so seeded scans and
/// group-state replays must emit in the fresh scan's order.
fn shape_storm(seed: u64, sessions: usize, steps: usize) -> Vec<SessionScript> {
    const WHERES: [&str; 4] = [
        "",
        "WHERE calls > 2",
        "WHERE queue IN ('A', 'B', 'C')",
        "WHERE calls > 2 AND satisfaction >= 3",
    ];
    // A dictionary key alone (the dense index); two dictionary keys and
    // binned Int and Float keys (the packed index); a bare Int key (the
    // boxed hash index).
    const KEYS: [&str; 5] = [
        "queue",
        "queue, call_type",
        "BIN(hour, 6), queue",
        "queue, BIN(wait_time, 50)",
        "queue, satisfaction",
    ];
    const TAILS: [&str; 8] = [
        "LIMIT 4",
        "ORDER BY COUNT(*) DESC LIMIT 3",
        "ORDER BY {k}",
        "ORDER BY SUM(handle_time) DESC, {k} LIMIT 3",
        "ORDER BY MIN(handle_time) DESC, {k} LIMIT 3",
        "HAVING SUM(handle_time) > 300 AND MIN(wait_time) >= 0 ORDER BY {k}",
        "HAVING MIN(wait_time) >= 0 AND SUM(handle_time) > 300 ORDER BY {k}",
        "ORDER BY {k} LIMIT 2",
    ];
    let projections = |k: &str, pick: u64| match pick % 3 {
        0 => format!("{k}, COUNT(*) AS n"),
        1 => format!("COUNT(*) AS n, {k}"),
        _ => format!("AVG(wait_time), {k}, COUNT(*) AS n"),
    };
    (0..sessions)
        .map(|user| {
            let session_seed = seed ^ splitmix(user as u64 + 1);
            let steps = (0..steps)
                .map(|step| {
                    let mut draw = splitmix(session_seed ^ step as u64);
                    let mut next = |n: usize| {
                        draw = splitmix(draw);
                        (draw % n as u64) as usize
                    };
                    // Keys rotate, so two sessions of four steps meet all five.
                    let (filter, key) =
                        (WHERES[next(WHERES.len())], KEYS[(user + step) % KEYS.len()]);
                    let mut tails = TAILS.to_vec();
                    let queries = (0..TAILS.len())
                        .map(|i| {
                            let tail = tails.swap_remove(next(tails.len())).replace("{k}", key);
                            let sql = format!(
                                "SELECT {} FROM customer_service {filter} GROUP BY {key} {tail}",
                                projections(key, next(3) as u64)
                            );
                            ScriptQuery {
                                vis: format!("shape{i}").into(),
                                query: Arc::new(parse_select(&sql).unwrap()),
                            }
                        })
                        .collect();
                    ScriptStep {
                        action: format!("shape storm {step}"),
                        queries,
                    }
                })
                .collect();
            SessionScript {
                user,
                seed: session_seed,
                model: "shape-storm",
                steps,
            }
        })
        .collect()
}

/// Refinement chains over the filter shapes the engine's filter compiler
/// folds per column: per step one numeric column and seven WHEREs, each the
/// one before plus a conjunct — a range, a tighter bound
/// inside it, a hole cut out of it, three `[NOT] IN`s narrowing `queue`, and
/// last a bound that contradicts the first. On even steps the range and the
/// hole are spelled with comparisons, which `simba-sql` proves refinements
/// of: with delta on every query after the first is a seeded scan
/// re-applying the combined kernels to the previous survivors — the last
/// one over a filter no row can pass, which must still answer a global
/// aggregate with its one row. On odd steps they are spelled `[NOT]
/// BETWEEN`, which the prover reads too: `NOT BETWEEN` is a gap in the
/// column's domain, so those chains seed as well. Chart shapes rotate: global aggregates,
/// GROUP BY, projection + LIMIT (table order).
fn range_storm(seed: u64, sessions: usize, steps: usize) -> Vec<SessionScript> {
    // (column, low, width, literal suffix): Int and Float columns, Int and
    // Float bounds on each.
    const COLUMNS: [(&str, u64, u64, &str); 4] = [
        ("hour", 0, 24, ""),
        ("satisfaction", 1, 5, ".0"),
        ("handle_time", 30, 600, ".5"),
        ("wait_time", 0, 120, ""),
    ];
    (0..sessions)
        .map(|user| {
            let session_seed = seed ^ splitmix(user as u64 + 1);
            let steps = (0..steps)
                .map(|step| {
                    let mut draw = splitmix(session_seed ^ step as u64);
                    let mut next = |n: u64| {
                        draw = splitmix(draw);
                        draw % n
                    };
                    let (col, low, width, suffix) = COLUMNS[next(COLUMNS.len() as u64) as usize];
                    let a = low + next(width / 2);
                    let b = a + 1 + next(width / 2);
                    let inner = a + next(b - a);
                    let hole = inner + next(b - inner);
                    let (range, hole) = if step % 2 == 0 {
                        (
                            format!("{col} >= {a}{suffix} AND {col} <= {b}{suffix}"),
                            format!("{col} <> {hole}"),
                        )
                    } else {
                        (
                            format!("{col} BETWEEN {a}{suffix} AND {b}{suffix}"),
                            format!("{col} NOT BETWEEN {hole}{suffix} AND {hole}"),
                        )
                    };
                    let conjuncts = [
                        range,
                        format!("{col} >= {inner}"),
                        hole,
                        "queue IN ('A', 'B', 'C')".to_string(),
                        "queue NOT IN ('B')".to_string(),
                        "queue IN ('A', 'D')".to_string(),
                        format!("{col} < {a}"),
                    ];
                    let queries = (1..=conjuncts.len())
                        .map(|n| {
                            let filter = conjuncts[..n].join(" AND ");
                            let sql = match (step + n) % 3 {
                                0 => format!(
                                    "SELECT COUNT(*) AS n, SUM(calls), MIN({col}) \
                                     FROM customer_service WHERE {filter}"
                                ),
                                1 => format!(
                                    "SELECT queue, COUNT(*) AS n, MAX({col}) FROM customer_service \
                                     WHERE {filter} GROUP BY queue ORDER BY queue"
                                ),
                                _ => format!(
                                    "SELECT queue, {col}, calls FROM customer_service \
                                     WHERE {filter} LIMIT 25"
                                ),
                            };
                            ScriptQuery {
                                vis: format!("range{n}").into(),
                                query: Arc::new(parse_select(&sql).unwrap()),
                            }
                        })
                        .collect();
                    ScriptStep {
                        action: format!("range storm {step}"),
                        queries,
                    }
                })
                .collect();
            SessionScript {
                user,
                seed: session_seed,
                model: "range-storm",
                steps,
            }
        })
        .collect()
}

/// Which queries a run issues: the spec's own source, or one of the
/// hand-written storms in place of it.
#[derive(Debug, Clone, Copy)]
enum Storm {
    Source,
    Shapes,
    Ranges,
}

impl From<bool> for Storm {
    fn from(shape_storm: bool) -> Storm {
        if shape_storm {
            Storm::Shapes
        } else {
            Storm::Source
        }
    }
}

/// Run `spec` — through its own source, or with `storm` over the
/// hand-written [`shape_storm`] / [`range_storm`] scripts in place of it.
fn run(spec: &ScenarioSpec, storm: Storm) -> DriverOutcome {
    let storm = match storm {
        Storm::Source => return Driver::execute(spec).unwrap(),
        Storm::Shapes => shape_storm,
        Storm::Ranges => range_storm,
    };
    let engine = EngineKind::from_name(spec.engine.kind_name())
        .unwrap()
        .build();
    engine.register(spec.build_table().unwrap());
    let scripts = storm(spec.seed, spec.sessions, spec.steps_per_session);
    Driver::new(DriverConfig::from(spec)).run_source(engine, &ScriptedSource::new(scripts))
}

/// Run `off_spec` as-is and again with `delta: true`; assert the observable
/// workload is byte-identical and the report's delta section appears exactly
/// when delta was requested.
fn assert_delta_invisible(
    off_spec: &ScenarioSpec,
    storm: impl Into<Storm>,
    label: &str,
) -> simba_driver::report::DeltaReport {
    let storm = storm.into();
    let mut on_spec = off_spec.clone();
    on_spec.delta = true;

    let off = run(off_spec, storm);
    let on = run(&on_spec, storm);

    assert_eq!(off.report.errors, 0, "{label}: delta-off run errored");
    assert_eq!(on.report.errors, 0, "{label}: delta-on run errored");
    assert_eq!(off.actions, on.actions, "{label}: delta changed the walk");
    assert_eq!(
        off.fingerprints, on.fingerprints,
        "{label}: delta changed results"
    );
    assert_eq!(off.report.queries, on.report.queries, "{label}");
    match (&off.report.steering, &on.report.steering) {
        (None, None) => {}
        (Some(a), Some(b)) => assert_eq!(
            (a.backtracks, a.drills, a.empty_results),
            (b.backtracks, b.drills, b.empty_results),
            "{label}: steering counters diverged"
        ),
        _ => panic!("{label}: steering section present on only one side"),
    }
    // The digest is the serialized currency the delta-smoke CI gate
    // compares; it must match whenever the raw fingerprints do.
    assert!(off.report.fingerprint_digest.is_some(), "{label}");
    assert_eq!(
        off.report.fingerprint_digest, on.report.fingerprint_digest,
        "{label}: fingerprint digests diverged"
    );
    assert!(
        off.report.delta.is_none(),
        "{label}: delta-off report must not carry a delta section"
    );
    on.report
        .delta
        .unwrap_or_else(|| panic!("{label}: delta-on report missing its delta section"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Any seed, any engine, any session source (the shape storm
    /// included), cache on or off: delta-on equals delta-off, byte for byte.
    #[test]
    fn delta_on_matches_delta_off(
        seed in 0u64..1_000,
        engine_ix in 0usize..4,
        source_ix in 0usize..4,
        cache in any::<bool>(),
    ) {
        let kind = EngineKind::ALL[engine_ix];
        let source = match source_ix {
            1 => SourceSpec::adaptive(),
            2 => SourceSpec::idebench(),
            _ => SourceSpec::scripted(),
        };
        let off_spec = spec(seed, kind, source, cache, false);
        assert_delta_invisible(
            &off_spec,
            source_ix == 3,
            &format!("{} seed={seed} source={source_ix} cache={cache}", kind.name()),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The range storm on any engine, cache on or off, over a table three
    /// morsels long: seeded scans over combined range kernels, `[NOT] IN`
    /// masks and contradictory filters are invisible too.
    #[test]
    fn delta_on_matches_delta_off_on_range_storms(
        seed in 0u64..1_000,
        engine_ix in 0usize..4,
        cache in any::<bool>(),
    ) {
        let kind = EngineKind::ALL[engine_ix];
        let mut off_spec = spec(seed, kind, SourceSpec::scripted(), cache, false);
        off_spec.rows = 5_000;
        assert_delta_invisible(
            &off_spec,
            Storm::Ranges,
            &format!("{} seed={seed} range storm cache={cache}", kind.name()),
        );
    }
}

/// The range storm reaches what it is for on the columnar engine: its
/// chains are proved refinements, so most queries are seeded scans — and
/// the contradictory tail of each chain is among them.
#[test]
fn range_storm_seeds_scans_on_duckdb_like() {
    let mut off_spec = spec(
        9,
        EngineKind::DuckDbLike,
        SourceSpec::scripted(),
        false,
        false,
    );
    off_spec.rows = 5_000;
    let report = assert_delta_invisible(&off_spec, Storm::Ranges, "range storm duckdb-like");
    // 2 sessions x 4 steps x 7 queries. Every chain's head misses and the
    // six refinements after it seed, the `NOT BETWEEN` ones included.
    assert_eq!(report.misses, 2 * 4, "{report:?}");
    assert_eq!(report.hits, 2 * 4 * 6, "{report:?}");
}

/// The delta path actually fires where refinements exist: an adaptive walk
/// on the in-process columnar engine must report selection or group-state
/// reuse — otherwise the tentpole is a no-op and the differential tests
/// above are vacuously green.
#[test]
fn adaptive_walk_reuses_work_on_duckdb_like() {
    let off_spec = spec(
        21,
        EngineKind::DuckDbLike,
        SourceSpec::adaptive(),
        false,
        false,
    );
    let report = assert_delta_invisible(&off_spec, false, "adaptive duckdb-like");
    assert!(
        report.hits + report.group_hits > 0,
        "adaptive session produced zero delta reuse: {report:?}"
    );
    assert!(
        report.hits + report.group_hits + report.misses > 0,
        "store was never consulted"
    );
}

/// `EngineSpec::remote` cleanly disables delta reuse: `RemoteDbms` cannot
/// observe the server's catalog generation, so it inherits the trait's
/// default-decline `execute_delta` and every query executes fresh. The run
/// must still be byte-identical (that is just the differential property
/// again) AND report zero hits — a nonzero count here means a wrapper
/// started caching selections against unobservable server state.
#[test]
fn remote_engine_declines_delta_reuse() {
    for source in [SourceSpec::scripted(), SourceSpec::adaptive()] {
        let mut off_spec = spec(7, EngineKind::DuckDbLike, source, false, false);
        off_spec.engine = EngineSpec::remote(LOOPBACK_ADDR, off_spec.engine.clone());
        let report = assert_delta_invisible(&off_spec, false, "remote loopback");
        assert_eq!(
            (report.hits, report.group_hits, report.rows_saved),
            (0, 0, 0),
            "remote engine must never reuse cached selections: {report:?}"
        );
        assert_eq!(
            report.misses, 0,
            "remote engine must decline before consulting the store: {report:?}"
        );
    }
}

/// A scripted spec with `delta: false` produces the same fingerprints as
/// hand-assembling the run over synthesized scripts with a default
/// (delta-off) `DriverConfig` — the pin `scenario_determinism.rs`
/// established before this feature existed, re-asserted here against the
/// grown config surface.
#[test]
fn delta_off_matches_hand_assembled_run() {
    const ROWS: usize = 500;
    const SEED: u64 = 21;
    let via_spec = Driver::execute(&spec(
        SEED,
        EngineKind::DuckDbLike,
        SourceSpec::scripted(),
        true,
        false,
    ))
    .unwrap();

    let ds = DashboardDataset::CustomerService;
    let table = Arc::new(ds.generate_rows(ROWS, SEED));
    let dashboard = simba_core::dashboard::Dashboard::new(builtin(ds), &table).unwrap();
    let scripts = synthesize_scripts(
        &dashboard,
        &BatchConfig {
            base_seed: SEED,
            steps_per_session: 4,
            ..Default::default()
        },
        2,
    );
    let engine = EngineKind::DuckDbLike.build();
    engine.register(table);
    let by_hand = Driver::new(DriverConfig {
        workers: 2,
        seed: SEED,
        cache: Some(CacheConfig::default()),
        collect_fingerprints: true,
        ..Default::default()
    })
    .run_source(engine, &ScriptedSource::new(scripts));

    assert_eq!(via_spec.fingerprints, by_hand.fingerprints);
    assert!(
        by_hand.report.delta.is_none(),
        "a delta-off run must not report delta"
    );
}

/// The shape storm reaches group-state replay on the columnar engine: the
/// hidden-aggregate and HAVING-order variants above are only a differential
/// test of `states_key` if states are actually replayed between them.
#[test]
fn shape_storm_replays_group_states_on_duckdb_like() {
    let off_spec = spec(
        5,
        EngineKind::DuckDbLike,
        SourceSpec::scripted(),
        false,
        false,
    );
    let report = assert_delta_invisible(&off_spec, true, "shape storm duckdb-like");
    assert!(report.group_hits > 0, "no group-state replay: {report:?}");
    assert!(report.hits > 0, "no seeded scan: {report:?}");
}

/// Delta composes with deadlines and retries: under a `ResiliencePolicy` (no
/// faults) the store moves into each deadline-bounded attempt and comes
/// back with the result, so the run still reuses work — and fingerprints
/// exactly like the plain delta-off run.
#[test]
fn delta_composes_with_deadlines_and_retries() {
    let plain = spec(
        21,
        EngineKind::DuckDbLike,
        SourceSpec::adaptive(),
        false,
        false,
    );
    let mut off_spec = plain.clone();
    off_spec.resilience = Some(ResiliencePolicy {
        deadline_ms: 30_000,
        max_retries: 2,
        ..ResiliencePolicy::default()
    });
    let report = assert_delta_invisible(&off_spec, false, "delta under deadline + retries");
    assert!(
        report.hits + report.group_hits > 0,
        "resilience switched delta reuse off: {report:?}"
    );
    assert_eq!(report.resets, 0, "no attempt failed: {report:?}");

    let mut on_spec = off_spec;
    on_spec.delta = true;
    let on = Driver::execute(&on_spec).unwrap();
    let plain = Driver::execute(&plain).unwrap();
    assert!(plain.report.resilience.is_none() && plain.report.delta.is_none());
    assert_eq!(
        on.report.fingerprint_digest,
        plain.report.fingerprint_digest
    );
    let res = on.report.resilience.expect("active policy reports");
    assert_eq!(
        (res.timeouts, res.retries, res.degraded_sessions),
        (0, 0, 0)
    );
}

/// Forwards to an in-process columnar engine, but `execute_delta` call
/// number `stall_at` stalls past the test's deadline and, when `drops`,
/// every seventh one drops transiently — without touching the store, like a
/// fault in front of it.
struct FlakyDelta {
    inner: Arc<dyn Dbms>,
    calls: AtomicU64,
    stall_at: u64,
    drops: bool,
}

impl Dbms for FlakyDelta {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn register(&self, table: Arc<simba_store::Table>) {
        self.inner.register(table);
    }

    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
        self.inner.execute(query)
    }

    fn execute_delta(
        &self,
        query: &Select,
        delta: &mut SessionDelta,
    ) -> Result<QueryOutput, EngineError> {
        match self.calls.fetch_add(1, Ordering::SeqCst) {
            n if n == self.stall_at => std::thread::sleep(Duration::from_millis(400)),
            n if self.drops && n % 7 == 3 => return Err(EngineError::Transient("dropped".into())),
            _ => {}
        }
        self.inner.execute_delta(query, delta)
    }
}

/// Failed and abandoned attempts reset the session's store and the retry
/// answers from an empty one: results equal the clean run's, the resets are
/// counted, and reuse resumes afterwards.
#[test]
fn failed_and_abandoned_attempts_reset_the_store() {
    let mut spec = spec(
        21,
        EngineKind::DuckDbLike,
        SourceSpec::adaptive(),
        false,
        true,
    );
    spec.workers = 1;
    spec.resilience = Some(ResiliencePolicy {
        deadline_ms: 100,
        max_retries: 3,
        ..ResiliencePolicy::default()
    });
    let clean = Driver::execute(&spec).unwrap();

    let table = spec.build_table().unwrap();
    let dashboard =
        simba_core::dashboard::Dashboard::new(builtin(DashboardDataset::CustomerService), &table)
            .unwrap();
    let engine = Arc::new(FlakyDelta {
        inner: EngineKind::DuckDbLike.build(),
        calls: AtomicU64::new(0),
        stall_at: 0,
        drops: true,
    });
    engine.register(table);
    let flaky = Driver::new(DriverConfig::from(&spec)).run_source(
        engine,
        &simba_driver::AdaptiveSource::new(
            &dashboard,
            simba_driver::AdaptiveWalkConfig {
                base_seed: spec.seed,
                steps_per_session: spec.steps_per_session,
                ..Default::default()
            },
            spec.sessions,
        ),
    );

    assert_eq!(flaky.report.errors, 0, "every failure was retried away");
    assert_eq!(flaky.actions, clean.actions);
    assert_eq!(flaky.fingerprints, clean.fingerprints);
    let res = flaky.report.resilience.expect("active policy reports");
    assert_eq!(res.timeouts, 1, "{res:?}");
    assert!(
        res.transient_errors > 0 && res.retries_succeeded > 1,
        "{res:?}"
    );
    let delta = flaky.report.delta.expect("delta-on run reports");
    assert!(delta.resets >= res.transient_errors, "{delta:?} vs {res:?}");
    assert!(
        delta.hits + delta.group_hits > 0,
        "reuse resumes: {delta:?}"
    );
}

/// An abandoned attempt takes the session's store with it, but not what the
/// store had counted: three ever looser filters are three misses, and the
/// first is still in the report after the second query's first attempt
/// stalled past the deadline and its store was replaced.
#[test]
fn abandoned_attempt_keeps_the_store_counters() {
    let mut spec = spec(
        3,
        EngineKind::DuckDbLike,
        SourceSpec::scripted(),
        false,
        true,
    );
    spec.workers = 1;
    spec.resilience = Some(ResiliencePolicy {
        deadline_ms: 100,
        max_retries: 1,
        ..ResiliencePolicy::default()
    });
    // Each filter is looser than the one before: none refines an earlier one.
    let queries = ["calls > 3", "calls > 2", "calls > 1"]
        .iter()
        .enumerate()
        .map(|(i, filter)| ScriptQuery {
            vis: format!("v{i}").into(),
            query: Arc::new(
                parse_select(&format!(
                    "SELECT queue, COUNT(*) FROM customer_service WHERE {filter} GROUP BY queue ORDER BY queue"
                ))
                .unwrap(),
            ),
        })
        .collect();
    let script = SessionScript {
        user: 0,
        seed: spec.seed,
        model: "three-filters",
        steps: vec![ScriptStep {
            action: "three filters".into(),
            queries,
        }],
    };
    let engine = Arc::new(FlakyDelta {
        inner: EngineKind::DuckDbLike.build(),
        calls: AtomicU64::new(0),
        stall_at: 1,
        drops: false,
    });
    engine.register(spec.build_table().unwrap());
    let outcome = Driver::new(DriverConfig::from(&spec))
        .run_source(engine, &ScriptedSource::new(vec![script]));

    assert_eq!(outcome.report.errors, 0, "the stalled query was retried");
    let res = outcome.report.resilience.expect("active policy reports");
    assert_eq!((res.timeouts, res.retries), (1, 1), "{res:?}");
    let delta = outcome.report.delta.expect("delta-on run reports");
    assert_eq!(delta.resets, 1, "{delta:?}");
    assert_eq!(
        delta.misses, 3,
        "the miss counted before the abandoned attempt survives it: {delta:?}"
    );
}

/// A delta-enabled spec survives the JSON round trip (`bench --dump` +
/// `bench --spec`) and still runs identically, and an old spec without the
/// field parses with delta off.
#[test]
fn delta_spec_survives_json_round_trip() {
    // Cache off: with the shared result cache on, *which* worker's query
    // wins cache admission (and therefore reaches the delta store at all)
    // races across workers, making the hit/miss counters timing-dependent.
    // Results stay pinned either way; exact counter equality needs the
    // per-session walks to be the only store traffic.
    let original = spec(
        7,
        EngineKind::DuckDbLike,
        SourceSpec::adaptive(),
        false,
        true,
    );
    let json = serde_json::to_string(&original).unwrap();
    let parsed = ScenarioSpec::from_json(&json).unwrap();
    assert!(parsed.delta);

    let a = Driver::execute(&original).unwrap();
    let b = Driver::execute(&parsed).unwrap();
    assert_eq!(a.fingerprints, b.fingerprints);
    assert_eq!(a.actions, b.actions);
    assert_eq!(a.report.delta, b.report.delta);

    // Field absence == delta off (forward compatibility with old spec files).
    let stripped = json
        .replace("\"delta\":true,", "")
        .replace("\"delta\": true,", "");
    let old = ScenarioSpec::from_json(&stripped).unwrap();
    assert!(!old.delta, "missing field must default to off");
}
