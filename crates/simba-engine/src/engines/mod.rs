//! The two engine implementations: the vectorized executor and the row
//! interpreter.
//!
//! They share the planner and evaluator — so results are identical — but
//! iterate storage very differently, which is what produces their distinct
//! latency profiles.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod duckdb_like;
pub mod sqlite_like;

use crate::error::EngineError;
use crate::exec::{finalize_rows, Catalog, ExecStats, QueryOutput};
use crate::plan::{prepare_for, Filter, PreparedQuery};
use simba_sql::{NormalizedSelect, Select};
use simba_store::ResultBuilder;
use std::time::Instant;

/// Shared execute wrapper: look up the table, plan, run the engine-specific
/// runner, finalize ordering/limit, and time the whole thing. Also the
/// single point where every engine reports to the observability layer:
/// an `engine.execute` span with `engine.plan`/`engine.finalize` phase
/// children (runners emit their own interior phases).
///
/// `form` is the query's normal form when the caller already holds it (the
/// session-delta path): the plan takes its aggregate-slot layout and GROUP
/// BY prints from it. `None` derives both while planning. The runner's
/// plan type picks the form its WHERE is compiled to, in the plan phase.
pub(crate) fn execute_common<F: Filter>(
    catalog: &Catalog,
    query: &Select,
    form: Option<&NormalizedSelect>,
    runner: impl FnOnce(&PreparedQuery<F>) -> (ResultBuilder, ExecStats),
) -> Result<QueryOutput, EngineError> {
    let _span = simba_obs::trace::span("engine.execute", "engine");
    #[expect(
        clippy::disallowed_methods,
        reason = "`elapsed` is the engine-latency deliverable consumed by latency stats; results and fingerprints never see it"
    )]
    let start = Instant::now();
    let plan = {
        let _p = simba_obs::phase!("engine.plan", "engine", "engine.phase.plan");
        let table = catalog
            .get(&query.from)
            .ok_or_else(|| EngineError::UnknownTable(query.from.clone()))?;
        prepare_for(query, form, table)?
    };
    let (rows, stats) = runner(&plan);
    let result = {
        let _p = simba_obs::phase!("engine.finalize", "engine", "engine.phase.finalize");
        finalize_rows(
            rows,
            plan.output_names.clone(),
            &plan.order_dirs,
            plan.limit,
        )
    };
    Ok(QueryOutput {
        result,
        stats,
        elapsed: start.elapsed(),
    })
}
