//! Two in-process SQL execution engines behind a common [`Dbms`] trait.
//!
//! The paper benchmarks PostgreSQL, DuckDB, SQLite, and MonetDB (§6.2.2).
//! Running external servers is out of scope for this reproduction, so this
//! crate implements one storage layer and the two execution architectures
//! those systems span (see ARCHITECTURE.md, "Data flow" step 5 and "Batch
//! execution"):
//!
//! | Engine | Architecture |
//! |---|---|
//! | [`DuckDbLike`] | vectorized morsels, typed filter kernels, parallel group-table partials |
//! | [`SqliteLike`] | row-at-a-time Volcano interpreter, ordered grouping |
//!
//! (Run over 1,024-row blocks or the whole table, the vectorized kernels
//! were as fast as `duckdb-like`, so those are not engines.) Both share a
//! planner ([`plan`]) and evaluator ([`eval`]); `duckdb-like` aggregates
//! through the one [`GroupTable`](group::GroupTable), the `sqlite-like`
//! oracle through an ordered map, and they return identical results
//! (property-tested).

pub mod agg;
pub mod batch;
pub mod delta;
pub mod engines;
pub mod error;
pub mod eval;
pub mod exec;
pub mod group;
pub mod plan;

#[cfg(test)]
pub(crate) mod test_support;

pub use batch::{DeltaCapture, DeltaScan, RowBitmap, SelectionVector, MORSEL};
pub use delta::{DeltaStoreStats, SessionDelta};
pub use engines::duckdb_like::DuckDbLike;
pub use engines::sqlite_like::SqliteLike;
pub use error::EngineError;
pub use exec::{execute_row_oracle, ExecStats, QueryOutput};

use simba_sql::Select;
use simba_store::Table;
use std::sync::Arc;

/// Deterministic identity of one query execution attempt: the driver keys
/// its per-attempt fault draws on *who* is executing rather than on
/// wall-clock or shared mutable state. `(session, step, query)` name the
/// position of the query inside a driver run; `attempt` counts retries of
/// that position (0 = first try).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct QueryCtx {
    /// Session (user) index within the run.
    pub session: u64,
    /// Step index within the session (0 = initial render).
    pub step: u64,
    /// Query index within the step (dashboards refresh several charts).
    pub query: u64,
    /// Retry attempt of this `(session, step, query)` position.
    pub attempt: u32,
}

/// A database management system under test.
pub trait Dbms: Send + Sync {
    /// Stable engine name (used in benchmark reports).
    fn name(&self) -> &'static str;

    /// Intra-query scan parallelism this instance was configured with
    /// (worker threads per morsel-parallel scan). `1` for engines without
    /// parallel scans; reported by the workload driver.
    fn scan_threads(&self) -> usize {
        1
    }

    /// Register a table; replaces any table with the same name.
    fn register(&self, table: Arc<Table>);

    /// Execute one query, returning results, statistics, and latency.
    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError>;

    /// [`execute`](Self::execute) with the caller's execution identity
    /// attached; results may never depend on who asks. It survives only
    /// because the benchmark's `TimedDbms` (`benchmark/src/probe.rs`)
    /// overrides it: nothing in `crates/` calls it, and ROADMAP item 1 (ii)
    /// deletes it.
    fn execute_at(&self, query: &Select, ctx: &QueryCtx) -> Result<QueryOutput, EngineError> {
        let _ = ctx;
        self.execute(query)
    }

    /// [`execute`](Self::execute) with a per-session [`SessionDelta`] store
    /// available for cross-step work reuse (see [`delta`]). The default
    /// *declines*: the store is left untouched and the query executes
    /// fresh. That is the only sound default — an engine must never cache
    /// selections against table state it cannot observe, which rules out
    /// every remote/wrapper engine (a `simba-server` peer re-registers
    /// tables without this process seeing the catalog generation move).
    /// Only engines owning their catalog in-process opt in.
    fn execute_delta(
        &self,
        query: &Select,
        delta: &mut SessionDelta,
    ) -> Result<QueryOutput, EngineError> {
        let _ = delta;
        self.execute(query)
    }
}

/// Identifiers for the two built-in engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    SqliteLike,
    DuckDbLike,
}

impl EngineKind {
    /// Both engines, the vectorized one first.
    pub const ALL: [EngineKind; 2] = [EngineKind::DuckDbLike, EngineKind::SqliteLike];

    /// Stable name of the engine.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::SqliteLike => "sqlite-like",
            EngineKind::DuckDbLike => "duckdb-like",
        }
    }

    /// Instantiate the engine.
    pub fn build(self) -> Arc<dyn Dbms> {
        match self {
            EngineKind::SqliteLike => Arc::new(SqliteLike::new()),
            EngineKind::DuckDbLike => Arc::new(DuckDbLike::new()),
        }
    }

    /// Instantiate the engine with the given intra-query scan parallelism.
    /// Only `duckdb-like` supports morsel-parallel scans; `sqlite-like`
    /// ignores the setting.
    pub fn build_with_threads(self, scan_threads: usize) -> Arc<dyn Dbms> {
        match self {
            EngineKind::DuckDbLike => Arc::new(DuckDbLike::with_scan_threads(scan_threads)),
            other => other.build(),
        }
    }

    /// Parse an engine name.
    pub fn from_name(name: &str) -> Option<EngineKind> {
        Self::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

/// Instantiate both engines.
pub fn all_engines() -> Vec<Arc<dyn Dbms>> {
    EngineKind::ALL.iter().map(|k| k.build()).collect()
}
