//! Span tracing with Chrome `trace_event` export.
//!
//! A span is an RAII guard: [`span`] stamps a monotonic start time, the
//! guard's `Drop` stamps the duration and pushes one complete event into a
//! lock-striped global collector. Threads keep a nesting depth in a
//! thread-local, so whether a span is a *root* (depth 0) is known without
//! any global coordination; the sampling decision (`1/N` roots) is made
//! once per root and inherited by everything nested under it, keeping
//! traces self-consistent — a sampled session carries all of its cache
//! lookups and engine phases, an unsampled one carries none.
//!
//! Costs when tracing is disabled: one relaxed atomic load per [`span`]
//! call, no clock reads. When a root is not sampled: two thread-local cell
//! updates per span.
//!
//! [`export_chrome_trace`] renders drained events in the Chrome
//! `trace_event` JSON format (`ph: "X"` complete events, microsecond
//! timestamps), which opens directly in `about:tracing` or Perfetto.

use std::fmt::Write as _;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Collector stripes; events land in `stripes[tid % STRIPES]` so worker
/// threads rarely contend on the same lock.
const STRIPES: usize = 16;

/// One completed span, in nanoseconds since the process trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name, e.g. `"engine.scan"`.
    pub name: &'static str,
    /// Layer category: `"driver"`, `"cache"`, `"engine"`, or `"data"`.
    pub cat: &'static str,
    /// Start, nanoseconds since the trace epoch (first clock use).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Trace-local thread id (small integers assigned on first span).
    pub tid: u64,
    /// Nesting depth at emission: 0 for roots (e.g. `driver.session`).
    pub depth: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);
static ROOT_SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static SAMPLED: Cell<bool> = const { Cell::new(false) };
}

fn stripes() -> &'static [Mutex<Vec<TraceEvent>>; STRIPES] {
    static S: OnceLock<[Mutex<Vec<TraceEvent>>; STRIPES]> = OnceLock::new();
    S.get_or_init(|| std::array::from_fn(|_| Mutex::new(Vec::new())))
}

fn epoch() -> &'static Instant {
    static E: OnceLock<Instant> = OnceLock::new();
    E.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Trace-local id of the calling thread (assigned on first use).
pub fn thread_id() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// Turn the collector on or off. Enable before the traced run starts:
/// spans opened while disabled stay inert even if tracing is enabled
/// before they close.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the collector is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record every `n`-th root span (and everything nested under it).
/// `1` records everything, `0` records nothing.
pub fn set_sample_every(n: u64) {
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
}

/// Parse a sampling spec: `"8"` or `"1/8"` → 8; `"0"` disables.
pub fn parse_sample(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("1/") {
        Some(rest) => rest.trim().parse().ok(),
        None => s.parse().ok(),
    }
}

/// RAII span: created by [`span`], records a [`TraceEvent`] on drop.
pub struct SpanGuard {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    prev_depth: u32,
    armed: bool,
    entered: bool,
}

/// Open a span named `name` in layer category `cat`. The returned guard
/// records one event when dropped; bind it (`let _span = ...`) so it stays
/// open for the region being measured.
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard {
            name,
            cat,
            start_ns: 0,
            prev_depth: 0,
            armed: false,
            entered: false,
        };
    }
    let prev_depth = DEPTH.with(Cell::get);
    let armed = if prev_depth == 0 {
        let every = SAMPLE_EVERY.load(Ordering::Relaxed);
        let sampled = every != 0
            && ROOT_SEQ
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(every);
        SAMPLED.with(|s| s.set(sampled));
        sampled
    } else {
        SAMPLED.with(Cell::get)
    };
    DEPTH.with(|d| d.set(prev_depth + 1));
    SpanGuard {
        name,
        cat,
        start_ns: if armed { now_ns() } else { 0 },
        prev_depth,
        armed,
        entered: true,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.entered {
            return;
        }
        DEPTH.with(|d| d.set(self.prev_depth));
        if self.prev_depth == 0 {
            SAMPLED.with(|s| s.set(false));
        }
        if self.armed {
            let dur_ns = now_ns().saturating_sub(self.start_ns);
            let tid = thread_id();
            let event = TraceEvent {
                name: self.name,
                cat: self.cat,
                start_ns: self.start_ns,
                dur_ns,
                tid,
                depth: self.prev_depth,
            };
            if let Ok(mut buf) = stripes()[(tid as usize) % STRIPES].lock() {
                buf.push(event);
            }
        }
    }
}

/// Drain all collected events, sorted by start time (parents before the
/// spans they contain).
pub fn take_events() -> Vec<TraceEvent> {
    let mut all = Vec::new();
    for stripe in stripes() {
        if let Ok(mut buf) = stripe.lock() {
            all.append(&mut buf);
        }
    }
    all.sort_by(|a, b| {
        (a.start_ns, std::cmp::Reverse(a.dur_ns), a.name).cmp(&(
            b.start_ns,
            std::cmp::Reverse(b.dur_ns),
            b.name,
        ))
    });
    all
}

/// Render events as Chrome `trace_event` JSON: a `traceEvents` array of
/// `ph: "X"` complete events with microsecond `ts`/`dur`. Open the file in
/// `about:tracing` or <https://ui.perfetto.dev>.
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 110 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_into(&mut out, e.name);
        out.push_str("\",\"cat\":\"");
        escape_into(&mut out, e.cat);
        let _ = write!(
            out,
            "\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03}}}",
            e.tid,
            e.start_ns / 1_000,
            e.start_ns % 1_000,
            e.dur_ns / 1_000,
            e.dur_ns % 1_000,
        );
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping (span names are controlled identifiers,
/// but the exporter must never emit invalid JSON).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sample_accepts_plain_and_one_over_n() {
        assert_eq!(parse_sample("8"), Some(8));
        assert_eq!(parse_sample("1/8"), Some(8));
        assert_eq!(parse_sample(" 1/ 16 "), Some(16));
        assert_eq!(parse_sample("0"), Some(0));
        assert_eq!(parse_sample("x"), None);
        assert_eq!(parse_sample("2/8"), None);
    }

    #[test]
    fn export_escapes_and_formats_microseconds() {
        let events = [TraceEvent {
            name: "a\"b",
            cat: "driver",
            start_ns: 1_234_567,
            dur_ns: 890,
            tid: 3,
            depth: 0,
        }];
        let json = export_chrome_trace(&events);
        assert!(json.contains("\"name\":\"a\\\"b\""), "{json}");
        assert!(json.contains("\"ts\":1234.567"), "{json}");
        assert!(json.contains("\"dur\":0.890"), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
    }

    #[test]
    fn export_of_no_events_is_valid_scaffolding() {
        let json = export_chrome_trace(&[]);
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }

    // Span collection itself is exercised in `tests/trace_spans.rs`, a
    // separate integration binary, so draining the global collector cannot
    // race with other unit tests in this binary.
}
