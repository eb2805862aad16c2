//! The acceptance property for the server split: driving an engine through
//! `RemoteDbms` over the in-process loopback transport — the full
//! encode → frame → decode → dispatch → encode → decode byte path — must
//! produce **byte-identical** action sequences, result fingerprints, and
//! steering counters to running the same engine in-process, with the
//! shared result cache on and off.
//!
//! Loopback is the same code as TCP minus the socket, so this is the
//! deterministic CI stand-in for `bench --scenario remote-shootout`
//! against a live `simba-server`.

use proptest::prelude::*;
use simba_driver::workload::{EngineSpec, ScenarioSpec, SourceSpec};
use simba_driver::{scenario, CacheConfig, Driver, ScenarioParams};
use simba_engine::EngineKind;
use simba_server::LOOPBACK_ADDR;

fn spec(seed: u64, kind: EngineKind, source: SourceSpec, cache: bool) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("remote-determinism", "customer_service");
    spec.rows = 400;
    spec.seed = seed;
    spec.sessions = 2;
    spec.steps_per_session = 3;
    spec.workers = 2;
    spec.engine = EngineSpec::new(kind);
    spec.source = source;
    spec.cache = cache.then(CacheConfig::default);
    spec.collect_fingerprints = true;
    spec
}

/// Run `local_spec` as-is and again with the engine wrapped in a loopback
/// `Remote` spec, then assert the observable workload is byte-identical.
fn assert_remote_matches_local(local_spec: &ScenarioSpec, label: &str) {
    let mut remote_spec = local_spec.clone();
    remote_spec.engine = EngineSpec::remote(LOOPBACK_ADDR, local_spec.engine.clone());

    let local = Driver::execute(local_spec).unwrap();
    let remote = Driver::execute(&remote_spec).unwrap();

    assert_eq!(local.report.errors, 0, "{label}: local run errored");
    assert_eq!(remote.report.errors, 0, "{label}: remote run errored");
    assert_eq!(
        local.actions, remote.actions,
        "{label}: the wire changed the walk"
    );
    assert_eq!(
        local.fingerprints, remote.fingerprints,
        "{label}: the wire changed results"
    );
    assert_eq!(local.report.queries, remote.report.queries, "{label}");
    match (&local.report.steering, &remote.report.steering) {
        (None, None) => {}
        (Some(a), Some(b)) => assert_eq!(
            (a.backtracks, a.drills, a.empty_results),
            (b.backtracks, b.drills, b.empty_results),
            "{label}: steering counters diverged"
        ),
        _ => panic!("{label}: steering section present on only one side"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Any seed, any engine, scripted or adaptive, cache on or off:
    /// loopback-remote equals local, byte for byte.
    #[test]
    fn remote_loopback_matches_local(
        seed in 0u64..1_000,
        engine_ix in 0usize..EngineKind::ALL.len(),
        adaptive in any::<bool>(),
        cache in any::<bool>(),
    ) {
        let kind = EngineKind::ALL[engine_ix];
        let source = if adaptive {
            SourceSpec::adaptive()
        } else {
            SourceSpec::scripted()
        };
        let local_spec = spec(seed, kind, source, cache);
        assert_remote_matches_local(
            &local_spec,
            &format!("{} seed={seed} adaptive={adaptive} cache={cache}", kind.name()),
        );
    }
}

/// The registry's `remote-shootout` suite (loopback default) fingerprints
/// byte-identically to the same specs with the remote wrapper stripped —
/// the exact claim `bench --scenario remote-shootout` makes, pinned here
/// without needing an external process.
#[test]
fn remote_shootout_suite_matches_inprocess() {
    let params = ScenarioParams {
        rows: 400,
        users: vec![2],
        steps: 3,
        workers: 2,
        ..Default::default()
    };
    let sc = scenario("remote-shootout", &params).unwrap();
    for remote_spec in &sc.specs {
        let mut local_spec = remote_spec.clone();
        local_spec.engine = EngineSpec::local(
            remote_spec.engine.kind_name(),
            remote_spec.engine.scan_threads(),
        );
        let local = Driver::execute(&local_spec).unwrap();
        let remote = Driver::execute(remote_spec).unwrap();
        assert_eq!(local.report.errors, 0);
        assert_eq!(remote.report.errors, 0);
        assert_eq!(
            local.fingerprints,
            remote.fingerprints,
            "{} cache={}: remote-shootout diverged from in-process",
            remote_spec.engine.kind_name(),
            remote_spec.cache.is_some(),
        );
        assert_eq!(local.actions, remote.actions);
    }
}

/// A remote spec round-trips through JSON and still runs identically —
/// what `bench --dump` + `bench --spec` does to a remote suite.
#[test]
fn remote_spec_survives_json_round_trip() {
    let mut original = spec(7, EngineKind::DuckDbLike, SourceSpec::scripted(), true);
    original.engine = EngineSpec::remote(LOOPBACK_ADDR, EngineSpec::new(EngineKind::DuckDbLike));
    let json = serde_json::to_string(&original).unwrap();
    let parsed = ScenarioSpec::from_json(&json).unwrap();
    assert!(parsed.engine.is_remote());

    let a = Driver::execute(&original).unwrap();
    let b = Driver::execute(&parsed).unwrap();
    assert_eq!(a.fingerprints, b.fingerprints);
    assert_eq!(a.actions, b.actions);
}
