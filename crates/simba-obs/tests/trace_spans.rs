//! Span collection against the process-global collector. These tests live
//! in their own integration binary — and serialize on a local mutex — so
//! draining the collector cannot race with unrelated unit tests.

use simba_obs::trace;
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Enable tracing, run `f`, disable, and return everything it recorded.
fn traced(sample_every: u64, f: impl FnOnce()) -> Vec<trace::TraceEvent> {
    trace::set_sample_every(sample_every);
    trace::set_enabled(true);
    let _ = trace::take_events(); // drop leftovers from earlier activity
    f();
    trace::set_enabled(false);
    trace::set_sample_every(1);
    trace::take_events()
}

#[test]
fn spans_nest_within_their_parents() {
    let _g = lock();
    let events = traced(1, || {
        let _root = trace::span("test.session", "driver");
        {
            let _step = trace::span("test.step", "driver");
            let _exec = trace::span("test.execute", "engine");
            std::hint::black_box(0u64);
        }
    });
    assert_eq!(events.len(), 3, "{events:?}");
    let root = events.iter().find(|e| e.name == "test.session").unwrap();
    let step = events.iter().find(|e| e.name == "test.step").unwrap();
    let exec = events.iter().find(|e| e.name == "test.execute").unwrap();
    assert_eq!((root.depth, step.depth, exec.depth), (0, 1, 2));
    assert_eq!(root.tid, step.tid);
    assert_eq!(root.tid, exec.tid);
    // Interval containment: each child starts and ends inside its parent.
    for (parent, child) in [(root, step), (step, exec)] {
        assert!(child.start_ns >= parent.start_ns, "{parent:?} {child:?}");
        assert!(
            child.start_ns + child.dur_ns <= parent.start_ns + parent.dur_ns,
            "{parent:?} {child:?}"
        );
    }
    // take_events sorts parents before the spans they contain.
    let sorted = trace::take_events();
    assert!(sorted.is_empty(), "take_events drains");
}

#[test]
fn sampling_keeps_whole_root_trees() {
    let _g = lock();
    let events = traced(2, || {
        for _ in 0..6 {
            let _root = trace::span("test.sampled_root", "driver");
            let _child = trace::span("test.sampled_child", "engine");
        }
    });
    let roots = events
        .iter()
        .filter(|e| e.name == "test.sampled_root")
        .count();
    let children = events
        .iter()
        .filter(|e| e.name == "test.sampled_child")
        .count();
    assert_eq!(roots, 3, "1/2 sampling of 6 consecutive roots: {events:?}");
    assert_eq!(children, roots, "children follow their root's decision");
}

#[test]
fn sample_zero_and_disabled_record_nothing() {
    let _g = lock();
    let none = traced(0, || {
        let _root = trace::span("test.zero", "driver");
    });
    assert!(none.is_empty(), "sample 0 disables recording: {none:?}");

    trace::set_enabled(false);
    {
        let _root = trace::span("test.disabled", "driver");
    }
    assert!(trace::take_events().is_empty());
}

#[test]
fn chrome_export_is_valid_json_with_complete_events() {
    let _g = lock();
    let events = traced(1, || {
        let _root = trace::span("test.export_root", "driver");
        let _child = trace::span("test.export_child", "cache");
    });
    let json = trace::export_chrome_trace(&events);
    let parsed: serde::Content = serde_json::from_str(&json).expect("trace parses as JSON");
    let list = match parsed.get("traceEvents") {
        Some(serde::Content::Seq(items)) => items,
        other => panic!("traceEvents array missing: {other:?}"),
    };
    assert_eq!(list.len(), events.len());
    for item in list {
        assert_eq!(
            item.get("ph"),
            Some(&serde::Content::Str("X".into())),
            "complete events only"
        );
        assert!(item.get("name").is_some() && item.get("cat").is_some());
        assert!(item.get("ts").is_some() && item.get("dur").is_some());
    }
}
