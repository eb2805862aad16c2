//! End-to-end observability acceptance: a traced, metered run produces
//! spans that nest correctly across every layer (driver session ⊇ step ⊇
//! cache ⊇ engine phases), a metrics snapshot plus phase breakdown in the
//! report, and — in open loop — coordinated-omission-corrected response
//! latencies alongside the queue-delay distribution.
//!
//! Tracing and the metrics registry are process-global, so every test here
//! serializes on one mutex and drains leftover spans before asserting.

use simba_driver::workload::{EngineSpec, ScenarioSpec, SourceSpec};
use simba_driver::{Arrival, CacheConfig, Driver};
use simba_engine::EngineKind;
use simba_obs::trace::{self, TraceEvent};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("observability", "customer_service");
    spec.rows = 600;
    spec.seed = 33;
    spec.sessions = 3;
    spec.steps_per_session = 4;
    spec.engine = EngineSpec::new(EngineKind::DuckDbLike);
    spec.source = SourceSpec::adaptive();
    spec.cache = Some(CacheConfig::default());
    spec.workers = 2;
    spec.collect_metrics = true;
    spec
}

/// Run `spec` with tracing armed (no sampling) and return the spans.
fn traced_run(spec: &ScenarioSpec) -> (simba_driver::DriverOutcome, Vec<TraceEvent>) {
    trace::take_events(); // drop anything a previous test left behind
    trace::set_sample_every(1);
    trace::set_enabled(true);
    let outcome = Driver::execute(spec).unwrap();
    trace::set_enabled(false);
    let events = trace::take_events();
    (outcome, events)
}

/// `outer` covers `inner`: same thread, earlier-or-equal start, later-or-
/// equal end, strictly shallower depth.
fn covers(outer: &TraceEvent, inner: &TraceEvent) -> bool {
    outer.tid == inner.tid
        && outer.depth < inner.depth
        && outer.start_ns <= inner.start_ns
        && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
}

fn enclosing<'a>(
    events: &'a [TraceEvent],
    inner: &TraceEvent,
    name: &str,
) -> Option<&'a TraceEvent> {
    events.iter().find(|e| e.name == name && covers(e, inner))
}

#[test]
fn spans_nest_across_driver_cache_and_engine_layers() {
    let _guard = SERIAL.lock().unwrap();
    let (outcome, events) = traced_run(&spec());
    assert_eq!(outcome.report.errors, 0);

    let named = |name: &'static str| events.iter().filter(move |e| e.name == name);
    for required in [
        "driver.session",
        "driver.step",
        "cache.execute",
        "engine.execute",
        "engine.plan",
        "engine.scan",
        "engine.aggregate",
        "engine.finalize",
        "cache.lookup",
        "data.chunk",
    ] {
        assert!(
            named(required).count() > 0,
            "no `{required}` span recorded; got names {:?}",
            events
                .iter()
                .map(|e| e.name)
                .collect::<std::collections::BTreeSet<_>>()
        );
    }

    // Universal containment, layer by layer: every inner span sits inside
    // an instance of its expected parent on the same thread.
    for (inner, outer) in [
        ("engine.scan", "engine.execute"),
        ("engine.aggregate", "engine.execute"),
        ("cache.lookup", "cache.execute"),
        ("cache.execute", "driver.step"),
        ("driver.step", "driver.session"),
    ] {
        for span in named(inner) {
            assert!(
                enclosing(&events, span, outer).is_some(),
                "`{inner}` span at {} not covered by any `{outer}`",
                span.start_ns
            );
        }
    }

    // And at least one complete chain reaches from the session root down
    // to a morsel scan: session ⊇ step ⊇ cache ⊇ engine ⊇ scan.
    let full_chain = named("engine.scan").any(|scan| {
        enclosing(&events, scan, "engine.execute")
            .and_then(|exec| enclosing(&events, exec, "cache.execute"))
            .and_then(|cached| enclosing(&events, cached, "driver.step"))
            .and_then(|step| enclosing(&events, step, "driver.session"))
            .is_some()
    });
    assert!(full_chain, "no scan span chained up to a session root");

    // Span categories name their layer.
    for e in &events {
        let expected = e.name.split('.').next().unwrap();
        assert_eq!(e.cat, expected, "span `{}` mis-categorized", e.name);
    }
}

#[test]
fn metrics_snapshot_and_phase_breakdown_reach_the_report() {
    let _guard = SERIAL.lock().unwrap();
    let outcome = Driver::execute(&spec()).unwrap();
    let report = &outcome.report;
    assert_eq!(report.errors, 0);

    // Fresh executions were counted at the exec-stats level.
    assert!(report.exec.rows_scanned > 0, "rows_scanned not counted");
    assert!(report.exec.rows_matched > 0, "rows_matched not counted");

    // Counts live in the report's typed sections; the registry snapshot
    // carries durations only.
    assert_eq!(report.sessions, 3);
    assert!(report.queries > 0);
    let cache = report.cache.as_ref().expect("cache-on run reports");
    assert_eq!(
        cache.hits + cache.misses,
        report.queries,
        "every query is a cache lookup"
    );

    let metrics = report.metrics.as_ref().expect("collect_metrics snapshot");
    let hist_names: Vec<&str> = metrics.histograms.iter().map(|h| h.name.as_str()).collect();
    for required in [
        "cache.phase.lookup",
        "driver.phase.steer",
        "driver.phase.step",
        "engine.phase.plan",
        "engine.phase.scan",
    ] {
        assert!(
            hist_names.contains(&required),
            "missing {required} in {hist_names:?}"
        );
    }
    // One step-phase sample per executed step: the initial render of each
    // session plus every recorded interaction.
    let step_hist = metrics
        .histograms
        .iter()
        .find(|h| h.name == "driver.phase.step")
        .unwrap();
    assert_eq!(
        step_hist.count,
        report.interactions + report.sessions as u64
    );

    let phases = report.phase_breakdown.as_ref().expect("phase breakdown");
    assert!(!phases.is_empty());
    let share_sum: f64 = phases.iter().map(|p| p.share).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
    // Heaviest-first ordering, metric names rewritten to phase names.
    assert!(phases.windows(2).all(|w| w[0].total_ms >= w[1].total_ms));
    assert!(phases.iter().any(|p| p.phase == "engine.scan"));

    // The report (with metrics inline) still round-trips through JSON.
    let parsed = simba_driver::RunReport::from_json(&report.to_json()).unwrap();
    assert_eq!(&parsed, report);

    // Without the opt-in, the observability sections stay absent.
    let mut dark = spec();
    dark.collect_metrics = false;
    let dark_outcome = Driver::execute(&dark).unwrap();
    assert!(dark_outcome.report.metrics.is_none());
    assert!(dark_outcome.report.phase_breakdown.is_none());
    // ... but exec counters are always on (they are free).
    assert_eq!(dark_outcome.report.exec, report.exec);
}

#[test]
fn open_loop_reports_queue_delay_and_corrected_response() {
    let _guard = SERIAL.lock().unwrap();
    let mut open = spec();
    // A deliberately over-committed arrival rate: sessions queue up, so
    // scheduled-vs-actual lateness must show up in the corrected view.
    open.sessions = 6;
    open.workers = 2;
    open.arrival = Arrival::Open {
        rate_per_sec: 10_000.0,
    };
    let report = Driver::execute(&open).unwrap().report;
    assert_eq!(report.errors, 0);

    let queue = report.queue_delay.as_ref().expect("open loop queue delay");
    let response = report
        .response
        .as_ref()
        .expect("open loop response summary");
    assert_eq!(queue.count as usize, report.sessions);
    assert!(response.count > 0);
    // Response time = service time + the lateness a session inherited, so
    // its tail can only be at or above the raw latency tail.
    assert!(response.max_us >= report.latency.max_us);

    // Closed loop: neither section applies.
    let closed = Driver::execute(&spec()).unwrap().report;
    assert!(closed.queue_delay.is_none());
    assert!(closed.response.is_none());
}
