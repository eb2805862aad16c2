//! # SIMBA — a SImulation-BAsed DBMS benchmark for dashboard exploration
//!
//! Facade crate re-exporting the full SIMBA benchmark API. A reproduction of
//! "An Adaptive Benchmark for Modeling User Exploration of Large Datasets"
//! (SIGMOD 2025).
//!
//! # Quickstart
//!
//! ```
//! use simba::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A dataset and a dashboard specification (six are built in).
//! let dataset = DashboardDataset::CustomerService;
//! let table = Arc::new(dataset.generate_rows(2_000, 42));
//! let dashboard = Dashboard::new(builtin(dataset), &table).unwrap();
//!
//! // 2. A DBMS under test (two engine architectures are built in).
//! let engine = EngineKind::DuckDbLike.build();
//! engine.register(table);
//!
//! // 3. Goals from a workflow, then simulate a session.
//! let goals = Workflow::Shneiderman.goals_for(&dashboard).unwrap();
//! let config = SessionConfig { seed: 7, ..Default::default() };
//! let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
//!     .run(&goals)
//!     .unwrap();
//! assert!(log.query_count() > 0);
//! ```
//!
//! # Concurrent workloads
//!
//! Multi-user load generation goes through the unified workload API: a
//! declarative [`driver::workload::ScenarioSpec`] executed by
//! [`driver::Driver::execute`]:
//!
//! ```
//! use simba::prelude::*;
//!
//! let mut spec = ScenarioSpec::new("facade-smoke", "customer_service");
//! spec.rows = 500;
//! spec.sessions = 2;
//! spec.steps_per_session = 3;
//! spec.source = SourceSpec::adaptive();
//! let outcome = Driver::execute(&spec).unwrap();
//! assert!(outcome.report.queries > 0);
//! ```
//!
//! See the crate-level docs of [`simba_core`], [`simba_engine`],
//! [`simba_data`], [`simba_sql`], [`simba_store`], [`simba_idebench`],
//! [`simba_driver`], [`simba_server`] (engines over the wire), and
//! [`simba_obs`] (tracing + metrics) for each subsystem.

pub use simba_core as core;
pub use simba_data as data;
pub use simba_driver as driver;
pub use simba_engine as engine;
pub use simba_idebench as idebench;
pub use simba_obs as obs;
pub use simba_server as server;
pub use simba_sql as sql;
pub use simba_store as store;

/// The common imports for driving the benchmark.
pub mod prelude {
    pub use simba_core::actions::{Action, ActionKind};
    pub use simba_core::algebra::parse::parse_goal;
    pub use simba_core::algebra::templates::{FieldChoice, Goal, GoalTemplateKind};
    pub use simba_core::dashboard::Dashboard;
    pub use simba_core::equivalence::Method;
    pub use simba_core::error::CoreError;
    pub use simba_core::markov::MarkovModel;
    pub use simba_core::metrics::{DurationSummary, WorkloadStats};
    pub use simba_core::oracle::{Oracle, OracleConfig};
    pub use simba_core::session::interleave::DecayConfig;
    pub use simba_core::session::source::{
        AdaptiveSource, AdaptiveWalkConfig, ScriptedSource, SessionSource, SessionStream,
    };
    pub use simba_core::session::workflows::Workflow;
    pub use simba_core::session::{SessionConfig, SessionLog, SessionRunner};
    pub use simba_core::spec::builtin::{all_builtin, builtin};
    pub use simba_core::spec::DashboardSpec;
    pub use simba_data::{DashboardDataset, DatasetSize};
    pub use simba_driver::{
        Driver, DriverConfig, RunReport, ScenarioParams, ScenarioSpec, SourceSpec,
    };
    pub use simba_engine::{all_engines, Dbms, EngineKind};
    pub use simba_idebench::{IdeBenchConfig, IdeBenchRunner, IdebenchSource};
    pub use simba_server::{RemoteDbms, Server, ServerConfig};
    pub use simba_sql::{parse_select, Select};
    pub use simba_store::{ResultSet, Table, Value};
}
