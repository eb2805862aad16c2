//! The chaos acceptance properties: fault injection is *deterministic* —
//! same `(seed, FaultConfig)` ⇒ byte-identical runs regardless of worker
//! count or rerun — an inert `FaultConfig` is *invisible* — byte-identical
//! to a run without the block — and the resilience layer actually
//! recovers: transient faults within the retry budget never surface as
//! errors, deadlines bound every query, and error-steered adaptive walks
//! reproduce.

use proptest::prelude::*;
use simba_core::dashboard::Dashboard;
use simba_core::session::interleave::DecayConfig;
use simba_core::session::workflows::Workflow;
use simba_core::session::{GoalSource, SessionConfig};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_driver::workload::{EngineSpec, ScenarioSpec, SourceSpec};
use simba_driver::{
    scenario, Driver, DriverConfig, FaultConfig, FaultReport, ResiliencePolicy, ResilienceReport,
    ScenarioParams, ScriptedSource, ERROR_FINGERPRINT,
};
use simba_engine::{Dbms, EngineError, EngineKind, QueryOutput};
use simba_sql::Select;
use simba_store::{ResultSet, Table, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 500;

fn base_spec(seed: u64, workers: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("fault-determinism", "customer_service");
    spec.rows = ROWS;
    spec.seed = seed;
    spec.sessions = 3;
    spec.steps_per_session = 4;
    spec.engine = EngineSpec::new(EngineKind::SqliteLike);
    spec.source = SourceSpec::adaptive();
    spec.workers = workers;
    spec.collect_fingerprints = true;
    spec
}

fn retrying_policy() -> ResiliencePolicy {
    ResiliencePolicy {
        deadline_ms: 0,
        max_retries: 6,
        backoff_base_ms: 0,
        backoff_cap_ms: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Same `(seed, FaultConfig)` ⇒ the same faults hit the same queries:
    /// actions, fingerprints, and every fault/resilience counter are
    /// byte-identical across reruns *and* across worker counts. (Cache
    /// off: a shared cache makes the draws' hit pattern depend on
    /// which racing session leads each single-flight, by design.)
    #[test]
    fn faulted_runs_are_byte_identical_across_reruns_and_workers(
        seed in 0u64..500,
        fault_seed in 0u64..500,
        transient_prob in 0.05f64..0.35,
    ) {
        let fault = FaultConfig {
            seed: fault_seed,
            transient_error_prob: transient_prob,
            ..FaultConfig::default()
        };
        let run = |workers: usize| {
            let mut spec = base_spec(seed, workers);
            spec.fault = Some(fault.clone());
            spec.resilience = Some(retrying_policy());
            Driver::execute(&spec).unwrap()
        };
        let a = run(1);
        let b = run(1);
        let c = run(4);
        for (label, other) in [("rerun", &b), ("workers=4", &c)] {
            prop_assert_eq!(&a.actions, &other.actions, "{}: walks diverged", label);
            prop_assert_eq!(&a.fingerprints, &other.fingerprints, "{}: results diverged", label);
            prop_assert_eq!(&a.report.fault, &other.report.fault, "{}: injections diverged", label);
            let (ra, ro) = (a.report.resilience.as_ref().unwrap(), other.report.resilience.as_ref().unwrap());
            prop_assert_eq!(ra, ro, "{}: resilience taxonomy diverged", label);
        }
    }

    /// An explicit-but-inert `FaultConfig` (and the inert default
    /// `ResiliencePolicy`) must be invisible: byte-identical actions,
    /// fingerprints, and execution counters to a spec without either
    /// section — the "default = off" contract that keeps old runs
    /// reproducible under the new schema.
    #[test]
    fn inert_fault_and_resilience_specs_change_nothing(seed in 0u64..500) {
        let bare = base_spec(seed, 2);
        let mut inert = base_spec(seed, 2);
        inert.fault = Some(FaultConfig::default());
        inert.resilience = Some(ResiliencePolicy::default());
        let a = Driver::execute(&bare).unwrap();
        let b = Driver::execute(&inert).unwrap();
        prop_assert_eq!(&a.actions, &b.actions);
        prop_assert_eq!(&a.fingerprints, &b.fingerprints);
        prop_assert_eq!(a.report.queries, b.report.queries);
        prop_assert_eq!(a.report.errors, b.report.errors);
        prop_assert_eq!(&a.report.exec, &b.report.exec);
        // Inert specs must not even switch the report onto the new
        // sections: nothing is drawn and nothing failed.
        prop_assert!(b.report.fault.is_none());
        prop_assert!(b.report.resilience.is_none());
    }
}

/// Transient faults within the retry budget are *absorbed*: the report
/// shows injected faults and successful retries, yet zero errors, zero
/// `ERROR_FINGERPRINT` slots, and zero degraded sessions.
#[test]
fn retries_absorb_transient_faults_within_budget() {
    let mut spec = base_spec(13, 3);
    spec.fault = Some(FaultConfig {
        seed: 99,
        transient_error_prob: 0.2,
        ..FaultConfig::default()
    });
    spec.resilience = Some(retrying_policy());
    let outcome = Driver::execute(&spec).unwrap();

    let fault = outcome.report.fault.as_ref().expect("fault section");
    assert!(fault.transient > 0, "nothing was injected: {fault:?}");
    let res = outcome
        .report
        .resilience
        .as_ref()
        .expect("resilience section");
    assert!(res.retries_succeeded > 0, "no retry recovered: {res:?}");
    assert_eq!(outcome.report.errors, 0, "a fault leaked: {res:?}");
    assert_eq!(res.degraded_sessions, 0);
    assert!(res.degraded.iter().all(|d| !d));
    for fps in &outcome.fingerprints {
        assert!(
            fps.iter().all(|&fp| fp != ERROR_FINGERPRINT),
            "an absorbed fault still produced an error fingerprint"
        );
    }

    // And the recovered run is result-identical to a fault-free one: the
    // faults delayed queries, they never changed answers.
    let clean = Driver::execute(&base_spec(13, 3)).unwrap();
    assert_eq!(outcome.actions, clean.actions);
    assert_eq!(outcome.fingerprints, clean.fingerprints);
}

/// Permanent faults steer adaptive sessions the same way empty results do:
/// the walk backtracks out of the poisoned filter, deterministically
/// across reruns and worker counts.
#[test]
fn permanent_faults_backtrack_adaptive_walks_deterministically() {
    let run = |workers: usize| {
        let mut spec = base_spec(7, workers);
        spec.steps_per_session = 6;
        spec.fault = Some(FaultConfig {
            seed: 3,
            permanent_error_prob: 0.25,
            ..FaultConfig::default()
        });
        Driver::execute(&spec).unwrap()
    };
    let a = run(1);
    assert!(a.report.errors > 0, "permanent faults must surface");
    let steering = a.report.steering.as_ref().expect("adaptive run steers");
    assert!(
        steering.backtracks > 0,
        "errored charts must trigger backtracking: {steering:?}"
    );
    let res = a.report.resilience.as_ref().expect("errored run reports");
    assert!(res.degraded_sessions > 0, "failed queries degrade sessions");

    let b = run(1);
    let c = run(4);
    assert_eq!(a.actions, b.actions, "rerun diverged");
    assert_eq!(a.actions, c.actions, "worker count changed the walk");
    assert_eq!(a.fingerprints, c.fingerprints);
}

/// An engine stub that sleeps far longer than any test deadline — the
/// wedge the per-query deadline exists to cut loose.
struct WedgedEngine;

impl Dbms for WedgedEngine {
    fn name(&self) -> &'static str {
        "wedged-stub"
    }

    fn register(&self, _table: Arc<Table>) {}

    fn execute(&self, _query: &Select) -> Result<QueryOutput, EngineError> {
        std::thread::sleep(Duration::from_secs(30));
        Ok(QueryOutput {
            result: ResultSet::new(vec!["n".to_string()], vec![vec![Value::Int(1)]]),
            stats: Default::default(),
            elapsed: Duration::from_secs(30),
        })
    }
}

/// No session ever wedges past its deadline: a driver pointed at an engine
/// that sleeps 30s per query, under a 25ms deadline, finishes the whole
/// run orders of magnitude sooner — every query times out, every session
/// completes (degraded), none hangs.
#[test]
fn deadline_abandons_wedged_queries_and_finishes_the_run() {
    use simba_core::dashboard::Dashboard;
    use simba_core::session::batch::{synthesize_scripts, BatchConfig};
    use simba_core::spec::builtin::builtin;
    use simba_data::DashboardDataset;

    let ds = DashboardDataset::CustomerService;
    let table = Arc::new(ds.generate_rows(300, 5));
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    let scripts = synthesize_scripts(
        &dashboard,
        &BatchConfig {
            base_seed: 5,
            steps_per_session: 2,
            ..Default::default()
        },
        2,
    );
    let queries: usize = scripts.iter().map(|s| s.query_count()).sum();

    let driver = Driver::new(DriverConfig {
        workers: 2,
        resilience: ResiliencePolicy {
            deadline_ms: 25,
            ..Default::default()
        },
        ..Default::default()
    });
    #[expect(
        clippy::disallowed_methods,
        reason = "the deadline's stopwatch: the test asserts wall time, never result content"
    )]
    let start = Instant::now();
    let outcome = driver.run_source(Arc::new(WedgedEngine), &ScriptedSource::borrowed(&scripts));
    let elapsed = start.elapsed();

    assert_eq!(outcome.report.errors, queries as u64, "every query fails");
    let res = outcome.report.resilience.as_ref().expect("resilient path");
    assert_eq!(res.timeouts, queries as u64, "every failure is a timeout");
    assert_eq!(res.degraded_sessions, 2, "both sessions end degraded");
    assert!(
        elapsed < Duration::from_secs(10),
        "sessions wedged: {queries} queries took {elapsed:?} despite the deadline"
    );
}

/// A goal-directed session never sees an errored query: it is not absorbed
/// into coverage and cannot solve a goal, and the session carries on. The
/// goal here is one the dashboard's opening render already answers, so a
/// healthy session ends at the render; when every query fails, the session
/// runs out its whole step budget instead.
#[test]
fn errored_queries_never_solve_goals() {
    let ds = DashboardDataset::CustomerService;
    let table = Arc::new(ds.generate_rows(ROWS, 3));
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    let goals = Workflow::Shneiderman.goals_for(&dashboard).unwrap();
    let engine = EngineKind::SqliteLike.build();
    engine.register(table);
    let config = SessionConfig {
        max_steps: 12,
        decay: DecayConfig::oracle_only(),
        ..Default::default()
    };
    let source = GoalSource::new(&dashboard, engine.as_ref(), &goals[..1], config, 2).unwrap();
    let driver = Driver::new(DriverConfig {
        workers: 1,
        collect_fingerprints: true,
        ..Default::default()
    });

    let healthy = driver.run_source(engine.clone(), &source);
    assert_eq!(healthy.report.errors, 0);
    assert!(healthy.actions.iter().all(|steps| steps.len() == 1));

    let failing = Driver::new(DriverConfig {
        workers: 1,
        collect_fingerprints: true,
        fault: FaultConfig {
            permanent_error_prob: 1.0,
            ..FaultConfig::default()
        },
        ..Default::default()
    });
    let faulted = failing.run_source(engine.clone(), &source);
    assert_eq!(faulted.report.errors, faulted.report.queries);
    for (user, steps) in faulted.actions.iter().enumerate() {
        assert_eq!(steps.len(), 13, "user {user}: render + every step");
    }
}

/// `bench --scenario chaos` as the driver runs it: every fault kind is
/// injected, every kind of failed attempt is observed, retries recover
/// work, and every session of every run ends with a degraded verdict
/// instead of wedging.
#[test]
fn chaos_scenario_injects_every_fault_and_recovers() {
    let params = ScenarioParams {
        rows: 2000,
        users: vec![4],
        steps: 16,
        ..ScenarioParams::default()
    };
    let suite = scenario("chaos", &params).expect("chaos is registered");
    let mut fault = FaultReport::default();
    let mut res = ResilienceReport::default();
    for spec in &suite.specs {
        let report = Driver::execute(spec).expect("chaos spec runs").report;
        assert!(report.queries > 0, "empty report");
        fault.merge(report.fault.as_ref().expect("fault section"));
        let r = report.resilience.as_ref().expect("resilience section");
        assert_eq!(r.degraded.len(), report.sessions, "a session never ended");
        res.merge(r);
    }
    assert!(
        fault.latency_spikes > 0 && fault.transient > 0 && fault.permanent > 0 && fault.panics > 0,
        "a fault kind was never injected: {fault:?}"
    );
    assert!(
        res.timeouts > 0
            && res.transient_errors > 0
            && res.permanent_errors > 0
            && res.panics_recovered > 0,
        "a failure kind was never observed: {res:?}"
    );
    assert!(res.retries_succeeded > 0, "no retry recovered: {res:?}");
}
