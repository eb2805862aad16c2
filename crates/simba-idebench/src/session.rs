//! The IDEBench stochastic interaction loop (§4.2 and §5 of the paper).
//!
//! End users are simulated as behaving randomly: at each step an interaction
//! type is drawn from fixed probabilities (add / modify / remove a filter),
//! a target visualization is chosen uniformly, and the new filter state is
//! propagated to every linked visualization — each of which re-executes its
//! query. There is no goal model and no termination condition other than the
//! configured interaction count.
//!
//! Query generation lives in [`IdeBenchWalk`], the stream every
//! [`IdebenchSource`](crate::IdebenchSource) user walks; this module runs
//! one walk on one engine through [`run_stream`] and records a log. The
//! workload driver runs many concurrently.

use crate::walk::IdeBenchWalk;
use simba_core::session::{run_stream, ExecutedStep, QueryRecord};
use simba_engine::Dbms;
use simba_store::Table;

/// IDEBench action probabilities (the "default probabilities for generating
/// actions" of §6.2.4). Filters dominate — the paper found IDEBench
/// "emphasizes adding filters" (avg 13.2 filters per visualization query).
#[derive(Debug, Clone)]
pub struct ActionProbs {
    pub add_filter: f64,
    pub modify_filter: f64,
    pub remove_filter: f64,
}

impl Default for ActionProbs {
    fn default() -> Self {
        Self {
            add_filter: 0.70,
            modify_filter: 0.22,
            remove_filter: 0.08,
        }
    }
}

/// IDEBench run configuration.
#[derive(Debug, Clone)]
pub struct IdeBenchConfig {
    pub seed: u64,
    /// Number of interactions to simulate.
    pub interactions: usize,
    pub probs: ActionProbs,
}

impl Default for IdeBenchConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            interactions: 30,
            probs: ActionProbs::default(),
        }
    }
}

/// One simulated interaction and the queries it triggered.
pub type IdeInteraction = ExecutedStep;

/// The record of one IDEBench run.
#[derive(Debug, Clone)]
pub struct IdeBenchLog {
    pub dashboard: crate::dashboard::RandomDashboard,
    pub engine: String,
    pub seed: u64,
    pub interactions: Vec<IdeInteraction>,
}

impl IdeBenchLog {
    /// Every executed query.
    pub fn queries(&self) -> impl Iterator<Item = &QueryRecord> {
        self.interactions.iter().flat_map(|i| i.queries.iter())
    }

    /// All query durations.
    pub fn durations(&self) -> Vec<std::time::Duration> {
        self.queries().map(|q| q.duration).collect()
    }

    /// Average visualization updates per interaction (excluding the initial
    /// render).
    pub fn avg_updates_per_interaction(&self) -> f64 {
        let moves: Vec<&IdeInteraction> = self.interactions.iter().filter(|i| i.step > 0).collect();
        if moves.is_empty() {
            return 0.0;
        }
        moves.iter().map(|i| i.queries.len()).sum::<usize>() as f64 / moves.len() as f64
    }
}

/// Runs IDEBench sessions over a table and engine.
pub struct IdeBenchRunner<'a> {
    pub table: &'a Table,
    pub engine: &'a dyn Dbms,
    pub config: IdeBenchConfig,
}

impl<'a> IdeBenchRunner<'a> {
    pub fn new(table: &'a Table, engine: &'a dyn Dbms, config: IdeBenchConfig) -> Self {
        Self {
            table,
            engine,
            config,
        }
    }

    /// Simulate one run: generate the implicit dashboard, render it, then
    /// perform random filter interactions.
    pub fn run(&self) -> Result<IdeBenchLog, simba_engine::EngineError> {
        let mut walk = IdeBenchWalk::new(self.table, &self.config);
        let run = run_stream(&mut walk, self.engine)?;
        Ok(IdeBenchLog {
            dashboard: walk.dashboard().clone(),
            engine: run.engine.to_string(),
            seed: self.config.seed,
            interactions: run.steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_data::DashboardDataset;
    use simba_engine::EngineKind;
    use std::sync::Arc;

    fn setup() -> (Arc<Table>, Arc<dyn Dbms>) {
        let table = Arc::new(DashboardDataset::ItMonitor.generate_rows(2_000, 3));
        let engine = EngineKind::DuckDbLike.build();
        engine.register(table.clone());
        (table, engine)
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let (table, engine) = setup();
        let run = |seed| {
            IdeBenchRunner::new(
                &table,
                engine.as_ref(),
                IdeBenchConfig {
                    seed,
                    interactions: 8,
                    ..Default::default()
                },
            )
            .run()
            .unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.interactions.len(), b.interactions.len());
        for (x, y) in a.queries().zip(b.queries()) {
            assert_eq!(x.sql, y.sql);
        }
        let c = run(6);
        let differs = a.queries().zip(c.queries()).any(|(x, y)| x.sql != y.sql)
            || a.interactions.len() != c.interactions.len();
        assert!(differs);
    }

    #[test]
    fn interactions_trigger_multiple_updates() {
        let (table, engine) = setup();
        let log = IdeBenchRunner::new(
            &table,
            engine.as_ref(),
            IdeBenchConfig {
                seed: 2,
                interactions: 10,
                ..Default::default()
            },
        )
        .run()
        .unwrap();
        assert!(log.avg_updates_per_interaction() > 2.0);
    }

    #[test]
    fn filters_accumulate_over_session() {
        let (table, engine) = setup();
        let log = IdeBenchRunner::new(
            &table,
            engine.as_ref(),
            IdeBenchConfig {
                seed: 7,
                interactions: 25,
                ..Default::default()
            },
        )
        .run()
        .unwrap();
        // Filter counts should grow substantially by the end of the run.
        let late_filters: Vec<usize> = log
            .interactions
            .iter()
            .rev()
            .take(5)
            .flat_map(|i| i.queries.iter())
            .map(|q| simba_sql::parse_select(&q.sql).unwrap().filters().len())
            .collect();
        let max_late = late_filters.iter().copied().max().unwrap_or(0);
        assert!(max_late >= 3, "late filter count {max_late}");
    }

    #[test]
    fn all_emitted_queries_execute() {
        let (table, engine) = setup();
        let log = IdeBenchRunner::new(
            &table,
            engine.as_ref(),
            IdeBenchConfig {
                seed: 9,
                interactions: 6,
                ..Default::default()
            },
        )
        .run()
        .unwrap();
        assert!(log.queries().count() > 6);
    }
}
