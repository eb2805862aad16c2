//! The four engine implementations.
//!
//! Each engine mirrors the execution architecture of one DBMS from the
//! paper's evaluation (§6.2.2). They share the planner and evaluator — so
//! results are identical — but iterate storage very differently, which is
//! what produces their distinct latency profiles.

pub mod duckdb_like;
pub mod monetdb_like;
pub mod postgres_like;
pub mod sqlite_like;

use crate::error::EngineError;
use crate::exec::{finalize_rows, Catalog, ExecStats, QueryOutput};
use crate::plan::{prepare, PreparedQuery};
use simba_sql::Select;
use simba_store::{ResultSet, Value};
use std::time::Instant;

/// Shared execute wrapper: look up the table, plan, run the engine-specific
/// runner, finalize ordering/limit, and time the whole thing. Also the
/// single point where every engine reports to the observability layer:
/// an `engine.execute` span with `engine.plan`/`engine.finalize` phase
/// children (runners emit their own interior phases), and the query's
/// [`ExecStats`] promoted into the metrics registry.
pub(crate) fn execute_common(
    catalog: &Catalog,
    query: &Select,
    runner: impl FnOnce(&PreparedQuery) -> (Vec<Vec<Value>>, ExecStats),
) -> Result<QueryOutput, EngineError> {
    let _span = simba_obs::trace::span("engine.execute", "engine");
    // simba: allow(wall-clock-outside-obs): `elapsed` is the engine-latency deliverable consumed by latency stats; results and fingerprints never see it
    let start = Instant::now();
    let plan = {
        let _p = simba_obs::phase!("engine.plan", "engine", "engine.phase.plan");
        let table = catalog
            .get(&query.from)
            .ok_or_else(|| EngineError::UnknownTable(query.from.clone()))?;
        prepare(query, table)?
    };
    let (rows, stats) = runner(&plan);
    let rows = {
        let _p = simba_obs::phase!("engine.finalize", "engine", "engine.phase.finalize");
        finalize_rows(rows, plan.n_output, &plan.order_dirs, plan.limit)
    };
    promote_stats(&stats);
    Ok(QueryOutput {
        result: ResultSet::new(plan.output_names.clone(), rows),
        stats,
        elapsed: start.elapsed(),
    })
}

/// Promote per-query [`ExecStats`] into the global metrics registry.
fn promote_stats(stats: &ExecStats) {
    simba_obs::counter!("engine.queries").add(1);
    simba_obs::counter!("engine.rows_scanned").add(stats.rows_scanned as u64);
    simba_obs::counter!("engine.rows_matched").add(stats.rows_matched as u64);
    simba_obs::counter!("engine.groups").add(stats.groups as u64);
    simba_obs::counter!("engine.morsels_pruned").add(stats.morsels_pruned as u64);
}
