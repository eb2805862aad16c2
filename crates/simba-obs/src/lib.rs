//! Zero-dependency observability substrate for the simba workspace.
//!
//! The benchmark is only as trustworthy as its measurement: a query latency
//! that cannot be attributed to plan/prune/scan/aggregate phases, cache
//! coalescing, or scheduler queueing is one opaque number. This crate
//! provides the two primitives every layer records into:
//!
//! - [`trace`] — a span/event tracing core: thread-local span stacks,
//!   monotonic-clock timestamps, a lock-striped global collector, and
//!   Chrome `trace_event`-format JSON export so any run opens directly in
//!   `about:tracing` or [Perfetto](https://ui.perfetto.dev).
//! - [`metrics`] — a registry of named duration histograms (backed by
//!   [`LatencyHistogram`]) with cheap recording and a serializable
//!   point-in-time [`MetricsSnapshot`]. Counts are not kept here: each lives
//!   in the typed report section of the layer that produces it.
//!
//! Both are **off by default** and cost two relaxed atomic loads per probe
//! when disabled; roots can additionally be sampled (`1/N`) so tracing at
//! 100k sessions stays cheap.
//!
//! Everything is hand-rolled like the workspace's vendored dependencies:
//! no external crates, no network.

#![warn(missing_docs)]

pub mod hist;
pub mod metrics;
pub mod trace;

pub use hist::LatencyHistogram;
pub use metrics::{HistogramEntry, MetricsScope, MetricsSnapshot, RegistryCapture};
pub use trace::{SpanGuard, TraceEvent};
