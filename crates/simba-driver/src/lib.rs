//! # simba-driver — concurrent multi-session workload driver
//!
//! The paper benchmarks one exploration session at a time; a production
//! deployment serves *many simultaneous users* whose dashboards hammer the
//! same engine. This crate turns the session sources plus the two engines
//! into a load-generation harness with **one execution surface**:
//!
//! * [`workload::ScenarioSpec`] declaratively describes a run — dataset,
//!   seed, engine (+ scan threads), session source, pacing, cache — and
//!   [`Driver::execute`] runs it. Specs serialize to JSON, so scenarios are
//!   data files; the built-in suites live in [`workload::registry`].
//! * Session *content* comes from a
//!   [`SessionSource`]:
//!   scripted replay of pre-synthesized Markov walks, live result-steered
//!   adaptive sessions, or IDEBench-style stochastic storms
//!   ([`simba_idebench::IdebenchSource`]) — all through the same
//!   feedback-driven stream protocol and the same worker pool
//!   ([`Driver::run_source`]).
//! * Arrival pacing is closed-loop (fixed user population, think-time
//!   paced) or open-loop (Poisson arrivals, for saturation testing).
//! * [`ShardedResultCache`] is a lock-striped result cache keyed on
//!   [`simba_sql::query_cache_key`], so normalization-equivalent queries
//!   from different users hit memory instead of the engine; a query spelled
//!   exactly like an earlier one finds its key in a memo instead of deriving
//!   it;
//! * [`simba_obs::LatencyHistogram`] log-bucketed latencies feed a versioned
//!   [`RunReport`] with throughput, p50/p95/p99, queue delay, steering
//!   counters, and cache hit rates.
//! * A [`FaultConfig`] draws deterministic faults per execution attempt in
//!   the worker loop, beside the [`ResiliencePolicy`] (per-query deadlines,
//!   seeded retry/backoff) that answers them; chaos runs report what was
//!   injected and the error taxonomy and per-session degradation in the
//!   [`FaultReport`]/[`ResilienceReport`] sections.
//!
//! ```
//! use simba_driver::workload::{ScenarioSpec, SourceSpec};
//! use simba_driver::Driver;
//!
//! let mut spec = ScenarioSpec::new("quickstart", "customer_service");
//! spec.rows = 1_000;
//! spec.sessions = 8;
//! spec.cache = Some(Default::default());
//! spec.source = SourceSpec::scripted();
//!
//! let outcome = Driver::execute(&spec).unwrap();
//! assert!(outcome.report.queries > 0);
//! assert!(outcome.report.cache.unwrap().hits > 0);
//! ```
//!
//! A hand-assembled run builds a source and calls [`Driver::run_source`],
//! the loop `execute` itself uses:
//!
//! ```
//! use simba_core::dashboard::Dashboard;
//! use simba_core::session::batch::{synthesize_scripts, BatchConfig};
//! use simba_core::spec::builtin::builtin;
//! use simba_data::DashboardDataset;
//! use simba_driver::{CacheConfig, Driver, DriverConfig, ScriptedSource};
//! use simba_engine::EngineKind;
//! use std::sync::Arc;
//!
//! let ds = DashboardDataset::CustomerService;
//! let table = Arc::new(ds.generate_rows(1_000, 42));
//! let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
//! let scripts = synthesize_scripts(&dashboard, &BatchConfig::default(), 8);
//!
//! let engine = EngineKind::DuckDbLike.build();
//! engine.register(table);
//! let driver = Driver::new(DriverConfig {
//!     cache: Some(CacheConfig::default()),
//!     ..Default::default()
//! });
//! let outcome = driver.run_source(engine, &ScriptedSource::new(scripts));
//! assert!(outcome.report.queries > 0);
//! assert!(outcome.report.cache.unwrap().hits > 0);
//! ```

pub mod cache;
pub mod driver;
pub mod fingerprint;
pub mod report;
pub mod resilience;
pub mod workload;

pub use cache::{CacheConfig, CacheStats, CachedResult, ShardedResultCache};
pub use driver::{Arrival, Driver, DriverConfig, DriverOutcome, ThinkTime};
pub use fingerprint::{fingerprint, ERROR_FINGERPRINT};
pub use report::{
    CacheReport, FaultReport, LatencySummary, ResilienceReport, RunReport, SteeringReport,
    ADHOC_SCENARIO,
};
pub use resilience::{jitter_key, FaultConfig, ResiliencePolicy};
pub use workload::registry::{all_scenarios, scenario, Scenario, ScenarioParams, SCENARIO_NAMES};
pub use workload::{
    validate_addr, EngineSpec, ScenarioSpec, SourceSpec, TableCache, WorkloadError,
};

// Re-exported so driver users can configure steering and build custom
// sources without importing simba-core directly.
pub use simba_core::session::adaptive::{AdaptivePolicy, SteeringKind};
pub use simba_core::session::source::{
    AdaptiveSource, AdaptiveWalkConfig, QueryFeedback, ScriptedSource, SessionSource,
    SessionStream, SourceStep,
};
