//! The unified-API acceptance property: for every built-in scenario kind,
//! running through the declarative `Driver::execute(&ScenarioSpec)` path
//! produces **byte-identical** action sequences and result fingerprints to
//! the hand-assembled equivalents (`Driver::run_source` over synthesized
//! scripts or an `AdaptiveSource`, and the single-session `IdeBenchRunner`)
//! under the same seed — with the shared result cache on and off.
//!
//! Any drift in how `execute` derives seeds, builds tables/dashboards, or
//! wires sources is a test failure here before it is a silent workload
//! change anywhere else.

use simba_core::dashboard::Dashboard;
use simba_core::oracle::OracleConfig;
use simba_core::session::batch::{synthesize_scripts, BatchConfig};
use simba_core::session::workflows::Workflow;
use simba_core::session::{GoalSource, ModelChoice, SessionConfig, SessionLog, SessionRunner};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_driver::fingerprint::fingerprint;
use simba_driver::workload::{EngineSpec, ScenarioSpec, SourceSpec};
use simba_driver::{
    AdaptiveSource, AdaptiveWalkConfig, CacheConfig, Driver, DriverConfig, ScriptedSource,
};
use simba_engine::EngineKind;
use std::sync::Arc;

const ROWS: usize = 600;
const SEED: u64 = 21;
const SESSIONS: usize = 3;
const STEPS: usize = 4;

/// A spec mirroring what the legacy paths are hand-assembled with below.
fn spec(source: SourceSpec, engine: EngineKind, cache: bool) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("determinism", "customer_service");
    spec.rows = ROWS;
    spec.seed = SEED;
    spec.sessions = SESSIONS;
    spec.steps_per_session = STEPS;
    spec.engine = EngineSpec::new(engine);
    spec.source = source;
    spec.cache = cache.then(CacheConfig::default);
    spec.workers = 2;
    spec.collect_fingerprints = true;
    spec
}

fn legacy_driver(cache: bool) -> Driver {
    Driver::new(DriverConfig {
        workers: 2,
        seed: SEED,
        cache: cache.then(CacheConfig::default),
        collect_fingerprints: true,
        ..Default::default()
    })
}

fn legacy_context() -> (Arc<simba_store::Table>, Dashboard) {
    let ds = DashboardDataset::CustomerService;
    // `execute` seeds dataset generation with the spec's master seed.
    let table = Arc::new(ds.generate_rows(ROWS, SEED));
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    (table, dashboard)
}

#[test]
fn scripted_scenario_matches_hand_assembled_run() {
    for engine_kind in [EngineKind::SqliteLike, EngineKind::DuckDbLike] {
        for cache in [false, true] {
            let via_spec =
                Driver::execute(&spec(SourceSpec::scripted(), engine_kind, cache)).unwrap();

            let (table, dashboard) = legacy_context();
            let scripts = synthesize_scripts(
                &dashboard,
                &BatchConfig {
                    base_seed: SEED,
                    steps_per_session: STEPS,
                    ..Default::default()
                },
                SESSIONS,
            );
            let engine = engine_kind.build();
            engine.register(table);
            let legacy =
                legacy_driver(cache).run_source(engine, &ScriptedSource::borrowed(&scripts));

            assert_eq!(via_spec.report.errors, 0);
            assert_eq!(
                via_spec.fingerprints,
                legacy.fingerprints,
                "{} cache={cache}: spec-driven scripted run diverged from the hand-assembled one",
                engine_kind.name()
            );
            // The unified loop also records the action script; it must be
            // exactly the synthesized step descriptions.
            let expected_actions: Vec<Vec<String>> = scripts
                .iter()
                .map(|s| s.steps.iter().map(|t| t.action.clone()).collect())
                .collect();
            assert_eq!(via_spec.actions, expected_actions);
        }
    }
}

#[test]
fn adaptive_scenario_matches_hand_assembled_run() {
    for engine_kind in [EngineKind::SqliteLike, EngineKind::DuckDbLike] {
        for cache in [false, true] {
            let via_spec =
                Driver::execute(&spec(SourceSpec::adaptive(), engine_kind, cache)).unwrap();

            let (table, dashboard) = legacy_context();
            let engine = engine_kind.build();
            engine.register(table);
            let legacy = legacy_driver(cache).run_source(
                engine,
                &AdaptiveSource::new(
                    &dashboard,
                    AdaptiveWalkConfig {
                        base_seed: SEED,
                        steps_per_session: STEPS,
                        ..Default::default()
                    },
                    SESSIONS,
                ),
            );

            assert_eq!(via_spec.report.errors, 0);
            assert_eq!(
                via_spec.actions,
                legacy.actions,
                "{} cache={cache}: spec-driven adaptive walk diverged",
                engine_kind.name()
            );
            assert_eq!(
                via_spec.fingerprints,
                legacy.fingerprints,
                "{} cache={cache}: spec-driven adaptive results diverged",
                engine_kind.name()
            );
            let a = via_spec.report.steering.as_ref().unwrap();
            let b = legacy.report.steering.as_ref().unwrap();
            assert_eq!(
                (a.backtracks, a.drills, a.empty_results),
                (b.backtracks, b.drills, b.empty_results)
            );
        }
    }
}

#[test]
fn idebench_scenario_matches_legacy_runner_sessions() {
    for cache in [false, true] {
        let via_spec =
            Driver::execute(&spec(SourceSpec::idebench(), EngineKind::SqliteLike, cache)).unwrap();
        assert_eq!(via_spec.report.errors, 0);
        assert_eq!(via_spec.report.session_mode, "idebench");

        // The legacy surface for IDEBench is the single-session runner:
        // replay each user's session through it and fingerprint its actual
        // result sets with the same public fingerprint function.
        let ds = DashboardDataset::CustomerService;
        let table = Arc::new(ds.generate_rows(ROWS, SEED));
        let engine = EngineKind::SqliteLike.build();
        engine.register(table.clone());
        let source = simba_idebench::IdebenchSource::new(table.clone(), SEED, SESSIONS, STEPS);
        for user in 0..SESSIONS {
            let log = simba_idebench::IdeBenchRunner::new(
                &table,
                engine.as_ref(),
                source.session_config(user),
            )
            .run()
            .unwrap();
            let legacy_actions: Vec<String> =
                log.interactions.iter().map(|i| i.action.clone()).collect();
            assert_eq!(
                via_spec.actions[user], legacy_actions,
                "user {user} cache={cache}: action sequence diverged from IdeBenchRunner"
            );
            let legacy_fps: Vec<u64> = log
                .interactions
                .iter()
                .flat_map(|i| i.queries.iter())
                .map(|q| {
                    let query = simba_sql::parse_select(&q.sql).unwrap();
                    fingerprint(&engine.execute(&query).unwrap().result)
                })
                .collect();
            assert_eq!(
                via_spec.fingerprints[user], legacy_fps,
                "user {user} cache={cache}: result fingerprints diverged from IdeBenchRunner"
            );
        }
    }
}

/// Observability must be a pure observer: the same spec run with span
/// tracing armed and a metrics snapshot collected produces byte-identical
/// action sequences and result fingerprints to a dark run.
#[test]
fn tracing_and_metrics_do_not_perturb_the_workload() {
    let dark = spec(SourceSpec::adaptive(), EngineKind::DuckDbLike, true);
    let baseline = Driver::execute(&dark).unwrap();

    let mut lit = dark.clone();
    lit.collect_metrics = true;
    simba_obs::trace::set_enabled(true);
    let observed = Driver::execute(&lit).unwrap();
    simba_obs::trace::set_enabled(false);
    simba_obs::trace::take_events(); // discard; this test is about the workload

    assert_eq!(
        baseline.actions, observed.actions,
        "tracing changed the walk"
    );
    assert_eq!(
        baseline.fingerprints, observed.fingerprints,
        "tracing changed results"
    );
    assert_eq!(baseline.report.queries, observed.report.queries);
    // The opt-in is what gates the extra report sections, not tracing.
    assert!(baseline.report.metrics.is_none());
}

/// Same spec, run twice, cache on vs off: the declarative path is as
/// reproducible as the legacy one.
#[test]
fn execute_is_reproducible_and_cache_transparent() {
    for source in [
        SourceSpec::scripted(),
        SourceSpec::adaptive(),
        SourceSpec::idebench(),
    ] {
        let uncached = spec(source.clone(), EngineKind::DuckDbLike, false);
        let cached = spec(source, EngineKind::DuckDbLike, true);
        let a = Driver::execute(&uncached).unwrap();
        let b = Driver::execute(&uncached).unwrap();
        let c = Driver::execute(&cached).unwrap();
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.fingerprints, b.fingerprints);
        assert_eq!(a.actions, c.actions, "cache must never change a walk");
        assert_eq!(
            a.fingerprints, c.fingerprints,
            "cache must never change results"
        );
    }
}

/// The paper's goal-directed sessions through the driver are the
/// single-engine `SessionRunner`'s sessions: on every engine, with the
/// result cache and the session delta each off and on, every `GoalSource`
/// user takes the same actions and sees the same results as
/// `SessionRunner::run` with `source.session_config(user)`.
#[test]
fn goal_source_through_driver_matches_session_runner() {
    let (table, dashboard) = legacy_context();
    // A narrower Oracle look-ahead keeps the 64 driver runs quick.
    let config = SessionConfig {
        seed: SEED,
        max_steps: 2 * STEPS,
        oracle: OracleConfig {
            max_candidates: 12,
            ..Default::default()
        },
        ..Default::default()
    };
    for engine_kind in EngineKind::ALL {
        let engine = engine_kind.build();
        engine.register(table.clone());
        for workflow in [Workflow::Shneiderman, Workflow::Crossfilter] {
            let name = workflow.name();
            let goals = workflow.goals_for(&dashboard).unwrap();
            let source = GoalSource::new(
                &dashboard,
                engine.as_ref(),
                &goals,
                config.clone(),
                SESSIONS,
            )
            .unwrap();
            let logs: Vec<SessionLog> = (0..SESSIONS)
                .map(|user| {
                    let config = source.session_config(user);
                    SessionRunner::new(&dashboard, engine.as_ref(), config)
                        .run(&goals)
                        .unwrap()
                })
                .collect();
            // Both models steer these sessions, and some end on their goals.
            let models: Vec<ModelChoice> = logs
                .iter()
                .flat_map(|l| &l.entries)
                .map(|e| e.model)
                .collect();
            assert!(models.contains(&ModelChoice::Oracle) && models.contains(&ModelChoice::Markov));
            assert!(logs.iter().any(|l| l.all_goals_met()));
            let runner: Vec<(Vec<String>, Vec<u64>)> = logs
                .iter()
                .map(|log| {
                    let actions = log.entries.iter().map(|e| e.action.clone()).collect();
                    let fps = log
                        .queries()
                        .map(|q| {
                            let query = simba_sql::parse_select(&q.sql).unwrap();
                            fingerprint(&engine.execute(&query).unwrap().result)
                        })
                        .collect();
                    (actions, fps)
                })
                .collect();
            for cache in [false, true] {
                for delta in [false, true] {
                    let driver = Driver::new(DriverConfig {
                        workers: 1,
                        seed: SEED,
                        cache: cache.then(CacheConfig::default),
                        delta,
                        collect_fingerprints: true,
                        ..Default::default()
                    });
                    let outcome = driver.run_source(engine.clone(), &source);
                    let label =
                        format!("{} {name} cache={cache} delta={delta}", engine_kind.name());
                    assert_eq!(outcome.report.errors, 0, "{label}");
                    assert_eq!(outcome.report.session_mode, "goal", "{label}");
                    for (user, (actions, fps)) in runner.iter().enumerate() {
                        assert_eq!(&outcome.actions[user], actions, "{label} user {user}");
                        assert_eq!(&outcome.fingerprints[user], fps, "{label} user {user}");
                    }
                }
            }
        }
    }
}
