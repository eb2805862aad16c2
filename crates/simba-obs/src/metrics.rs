//! A process-global registry of named duration histograms.
//!
//! The registry holds *where the time went* and nothing else: every count a
//! run produces (queries, cache hits, retries, rows scanned, server
//! requests) lives in the typed section of `RunReport` or
//! `ServerStatsSnapshot` that owns it, next to the code that increments it.
//!
//! Naming convention: `layer.phase.step` (`engine.phase.scan`,
//! `driver.phase.queue_delay`). Call sites cache their handle in a
//! `OnceLock` (the [`phase!`](crate::phase) and
//! [`histogram!`](crate::histogram) macros do this), so the steady-state cost
//! of a probe is one relaxed atomic load when metrics are disabled and one
//! striped-mutex push when enabled.
//!
//! Collection is scoped, not toggled: a [`MetricsScope`] guard enables
//! recording while alive (reference-counted, so nested scopes compose),
//! and a run takes a [`capture`] at its start and a [`snapshot_since`] at
//! its end to scope the cumulative global registry to itself. Deltas are
//! process-global — two instrumented runs recording *concurrently* fold
//! into each other's snapshots; the `bench` CLI runs specs sequentially so
//! its snapshots are exact.

use crate::hist::LatencyHistogram;
use crate::trace::SpanGuard;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Histogram stripes: worker threads record into `stripes[tid % 8]` to
/// avoid serializing on one mutex.
const HIST_STRIPES: usize = 8;

static ACTIVE: AtomicU64 = AtomicU64::new(0);

/// Whether any [`MetricsScope`] is alive. Probes check this first, so
/// recording is a no-op outside instrumented runs.
#[inline]
pub fn is_enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) > 0
}

/// RAII guard that enables metric recording while alive. Scopes are
/// reference-counted: recording stays on until the last scope drops.
pub struct MetricsScope {
    _private: (),
}

impl MetricsScope {
    /// Enable metric recording until the returned guard is dropped.
    pub fn enter() -> MetricsScope {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        MetricsScope { _private: () }
    }
}

impl Drop for MetricsScope {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

fn registry() -> &'static Mutex<Vec<(String, Histogram)>> {
    static R: Mutex<Vec<(String, Histogram)>> = Mutex::new(Vec::new());
    &R
}

/// A duration histogram handle backed by lock-striped [`LatencyHistogram`]s.
#[derive(Clone)]
pub struct Histogram {
    stripes: Arc<Vec<Mutex<LatencyHistogram>>>,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            stripes: Arc::new(
                (0..HIST_STRIPES)
                    .map(|_| Mutex::new(LatencyHistogram::new()))
                    .collect(),
            ),
        }
    }

    /// Record one duration (no-op while metrics are disabled).
    #[inline]
    pub fn record(&self, d: Duration) {
        if is_enabled() {
            self.force_record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }

    /// Record one value in nanoseconds (no-op while metrics are disabled).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if is_enabled() {
            self.force_record_ns(ns);
        }
    }

    fn force_record_ns(&self, ns: u64) {
        let i = crate::trace::thread_id() as usize % HIST_STRIPES;
        if let Ok(mut h) = self.stripes[i].lock() {
            h.record_ns(ns);
        }
    }

    /// Fold all stripes into one histogram.
    pub fn merged(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for s in self.stripes.iter() {
            if let Ok(h) = s.lock() {
                out.merge(&h);
            }
        }
        out
    }
}

/// Register-or-get the histogram named `name`.
pub fn histogram(name: &str) -> Histogram {
    let mut v = registry().lock().expect("metrics registry poisoned");
    if let Some((_, h)) = v.iter().find(|(n, _)| n == name) {
        return h.clone();
    }
    let h = Histogram::new();
    v.push((name.to_string(), h.clone()));
    h
}

/// A point-in-time baseline of every registered histogram, taken at run
/// start so [`snapshot_since`] can report only what the run itself recorded.
pub struct RegistryCapture {
    hists: Vec<(String, LatencyHistogram)>,
}

impl RegistryCapture {
    /// A baseline with nothing in it: `snapshot_since(&empty)` reports the
    /// registry's full cumulative state.
    pub fn empty() -> RegistryCapture {
        RegistryCapture { hists: Vec::new() }
    }
}

/// Capture the current state of every registered histogram.
pub fn capture() -> RegistryCapture {
    let hists = registry()
        .lock()
        .map(|v| v.iter().map(|(n, h)| (n.clone(), h.merged())).collect())
        .unwrap_or_default();
    RegistryCapture { hists }
}

/// Snapshot everything recorded since `before` was captured. Histograms
/// that did not move are omitted; entries are sorted by name.
pub fn snapshot_since(before: &RegistryCapture) -> MetricsSnapshot {
    let mut histograms: Vec<HistogramEntry> = Vec::new();
    if let Ok(v) = registry().lock() {
        for (name, h) in v.iter() {
            let merged = h.merged();
            let scoped = match before.hists.iter().find(|(n, _)| n == name) {
                Some((_, prior)) => merged.delta(prior),
                None => merged,
            };
            if !scoped.is_empty() {
                histograms.push(HistogramEntry::from_histogram(name.clone(), &scoped));
            }
        }
    }
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot { histograms }
}

/// The registry's full cumulative state.
pub fn snapshot() -> MetricsSnapshot {
    snapshot_since(&RegistryCapture::empty())
}

/// One duration histogram in a [`MetricsSnapshot`], summarized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Metric name, e.g. `engine.phase.scan`.
    pub name: String,
    /// Number of recordings in the window.
    pub count: u64,
    /// Total time across all recordings, in milliseconds.
    pub total_ms: f64,
    /// Mean duration in microseconds.
    pub mean_us: f64,
    /// Median in microseconds (≤ 1/16 relative bucket error).
    pub p50_us: u64,
    /// 95th percentile in microseconds.
    pub p95_us: u64,
    /// 99th percentile in microseconds.
    pub p99_us: u64,
    /// Largest recording in microseconds.
    pub max_us: u64,
}

impl HistogramEntry {
    /// Summarize `h` under `name`.
    pub fn from_histogram(name: String, h: &LatencyHistogram) -> HistogramEntry {
        HistogramEntry {
            name,
            count: h.count(),
            total_ms: h.sum_ns() as f64 / 1e6,
            mean_us: h.mean_ns() / 1e3,
            p50_us: h.quantile_ns(0.5) / 1_000,
            p95_us: h.quantile_ns(0.95) / 1_000,
            p99_us: h.quantile_ns(0.99) / 1_000,
            max_us: h.max_ns() / 1_000,
        }
    }
}

/// A serializable point-in-time view of the registry, carried in
/// `RunReport.metrics`. Entries are sorted by name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Histograms with at least one recording in the window.
    pub histograms: Vec<HistogramEntry>,
}

impl MetricsSnapshot {
    /// True when nothing moved in the window.
    pub fn is_empty(&self) -> bool {
        self.histograms.is_empty()
    }
}

/// Guard pairing a trace span with a phase-duration histogram recording;
/// built by the [`phase!`](crate::phase) macro.
pub struct PhaseGuard {
    _span: SpanGuard,
    metric: Option<(Histogram, Instant)>,
}

impl PhaseGuard {
    /// Wrap `span`; `hist` is only resolved when metrics are enabled.
    pub fn new(span: SpanGuard, hist: impl FnOnce() -> Histogram) -> PhaseGuard {
        let metric = if is_enabled() {
            #[expect(
                clippy::disallowed_methods,
                reason = "the observability substrate is about time: a phase's duration is what it records"
            )]
            Some((hist(), Instant::now()))
        } else {
            None
        };
        PhaseGuard {
            _span: span,
            metric,
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((h, t0)) = self.metric.take() {
            h.record(t0.elapsed());
        }
    }
}

/// Open a phase: a trace span plus a duration-histogram recording, both
/// closed when the returned guard drops.
///
/// ```
/// let _p = simba_obs::phase!("engine.scan", "engine", "engine.phase.scan");
/// ```
#[macro_export]
macro_rules! phase {
    ($span:expr, $cat:expr, $metric:expr) => {{
        static __PHASE_HIST: ::std::sync::OnceLock<$crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        $crate::metrics::PhaseGuard::new($crate::trace::span($span, $cat), || {
            __PHASE_HIST
                .get_or_init(|| $crate::metrics::histogram($metric))
                .clone()
        })
    }};
}

/// A `&'static Histogram` for `$name`, registered once per call site —
/// for recording durations that are already known (e.g. a computed queue
/// delay) without opening a [`phase!`](crate::phase) guard.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __HIST: ::std::sync::OnceLock<$crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        __HIST.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable refcount is process-global; tests that depend on the
    // enabled/disabled state serialize on this lock so parallel test
    // threads cannot observe each other's scopes.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn handles_are_shared_by_name() {
        let _g = lock();
        let _scope = MetricsScope::enter();
        let a = histogram("test.shared");
        let b = histogram("test.shared");
        a.record_ns(3_000);
        b.record_ns(4_000);
        assert_eq!(a.merged().count(), 2);
        assert_eq!(b.merged().count(), 2);
    }

    #[test]
    fn recording_is_gated_on_scopes() {
        let _g = lock();
        let h = histogram("test.gated_hist");
        h.record_ns(1_000);
        assert!(h.merged().is_empty(), "no scope alive: record is a no-op");
        {
            let _outer = MetricsScope::enter();
            let _inner = MetricsScope::enter();
            h.record_ns(1_000);
            drop(_inner);
            h.record_ns(1_000); // outer scope still holds recording open
        }
        h.record_ns(1_000);
        assert_eq!(h.merged().count(), 2);
    }

    #[test]
    fn snapshot_since_scopes_to_the_window() {
        let _g = lock();
        let _scope = MetricsScope::enter();
        let h = histogram("test.windowed_hist");
        h.record_ns(50_000);
        let before = capture();
        h.record_ns(2_000_000);
        histogram("test.windowed_other").record_ns(1_000);
        let snap = snapshot_since(&before);
        let hist_entry = snap
            .histograms
            .iter()
            .find(|e| e.name == "test.windowed_hist")
            .expect("windowed histogram present");
        assert_eq!(hist_entry.count, 1, "only the delta is reported");
        assert!(hist_entry.p50_us >= 1_800 && hist_entry.p50_us <= 2_100);
        // Names are sorted for stable serialized output.
        let names: Vec<&str> = snap.histograms.iter().map(|e| e.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn phase_macro_records_span_and_histogram() {
        let _g = lock();
        let _scope = MetricsScope::enter();
        let before = capture();
        {
            let _p = crate::phase!("test.phase_span", "test", "test.phase.step");
            std::hint::black_box(0u64);
        }
        let snap = snapshot_since(&before);
        assert!(
            snap.histograms
                .iter()
                .any(|e| e.name == "test.phase.step" && e.count == 1),
            "phase! recorded into the histogram: {:?}",
            snap.histograms
        );
    }

    #[test]
    fn snapshot_serializes_round_trip() {
        let snap = MetricsSnapshot {
            histograms: vec![HistogramEntry {
                name: "engine.phase.scan".into(),
                count: 4,
                total_ms: 1.5,
                mean_us: 375.0,
                p50_us: 300,
                p95_us: 700,
                p99_us: 700,
                max_us: 812,
            }],
        };
        let content = snap.to_content();
        let back = MetricsSnapshot::from_content(&content).expect("round trip");
        assert_eq!(snap, back);
        assert!(!snap.is_empty());
        assert!(MetricsSnapshot { histograms: vec![] }.is_empty());
    }
}
