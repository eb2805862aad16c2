//! Session simulation (§4 of the paper). Every session model is a
//! [`SessionStream`](source::SessionStream) — the goal-directed session
//! ([`GoalStream`]), adaptive walks, scripted replay, IDEBench storms — and
//! [`run_stream`] runs any of them on one engine; `simba-driver` runs many
//! concurrently. [`SessionRunner`] is a goal-directed session through
//! [`run_stream`], recorded in a [`SessionLog`].

pub mod adaptive;
pub mod batch;
pub mod goal;
pub mod interleave;
pub mod planner;
pub mod source;
pub mod synthesize;
pub mod workflows;

pub use goal::{GoalSource, GoalStream};
pub use source::{run_stream, ExecutedStep, StreamRun};

use crate::actions::ActionKind;
use crate::algebra::templates::Goal;
use crate::dashboard::Dashboard;
use crate::equivalence::Method;
use crate::error::CoreError;
use crate::markov::MarkovModel;
use crate::oracle::OracleConfig;
use interleave::DecayConfig;
use simba_engine::Dbms;
use std::time::Duration;

/// Which user model produced an interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelChoice {
    /// The dashboard-open render, before any interaction.
    InitialRender,
    Oracle,
    Markov,
}

impl ModelChoice {
    /// Stable name for logs.
    pub fn name(self) -> &'static str {
        match self {
            ModelChoice::InitialRender => "initial",
            ModelChoice::Oracle => "oracle",
            ModelChoice::Markov => "markov",
        }
    }
}

/// One executed query in the log.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Visualization node id that issued the query.
    pub vis: String,
    /// Canonical SQL text.
    pub sql: String,
    /// Engine-reported execution latency.
    pub duration: Duration,
    /// Result row count.
    pub rows: usize,
}

impl QueryRecord {
    /// Did the query return zero rows? (The realism probe of §6.4 counts
    /// these.)
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }
}

/// One step of the session.
#[derive(Debug, Clone)]
pub struct LogEntry {
    pub step: usize,
    pub model: ModelChoice,
    /// Human-readable action description.
    pub action: String,
    pub action_kind: Option<ActionKind>,
    pub queries: Vec<QueryRecord>,
}

/// Outcome of one goal.
#[derive(Debug, Clone)]
pub struct GoalOutcome {
    pub question: String,
    pub sql: String,
    /// Step at which the goal was achieved (None = never).
    pub solved_at: Option<usize>,
    pub method: Option<Method>,
}

/// The complete record of one simulated exploration session.
#[derive(Debug, Clone)]
pub struct SessionLog {
    pub dashboard: String,
    pub engine: String,
    pub seed: u64,
    pub entries: Vec<LogEntry>,
    pub goals: Vec<GoalOutcome>,
}

impl SessionLog {
    /// Iterator over every executed query.
    pub fn queries(&self) -> impl Iterator<Item = &QueryRecord> {
        self.entries.iter().flat_map(|e| e.queries.iter())
    }

    /// Total number of queries issued.
    pub fn query_count(&self) -> usize {
        self.queries().count()
    }

    /// Total interactions performed (excluding the initial render).
    pub fn interaction_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.model != ModelChoice::InitialRender)
            .count()
    }

    /// Were all goals achieved?
    pub fn all_goals_met(&self) -> bool {
        self.goals.iter().all(|g| g.solved_at.is_some())
    }

    /// All query durations.
    pub fn durations(&self) -> Vec<Duration> {
        self.queries().map(|q| q.duration).collect()
    }
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub seed: u64,
    /// Hard cap on interactions (the paper's sessions are time-boxed; we
    /// bound by steps for determinism).
    pub max_steps: usize,
    pub decay: DecayConfig,
    pub oracle: OracleConfig,
    pub markov: MarkovModel,
    /// Stop as soon as all goals are met (otherwise run out max_steps).
    pub stop_on_completion: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            max_steps: 40,
            decay: DecayConfig::typical(),
            oracle: OracleConfig::default(),
            markov: MarkovModel::idebench_default(),
            stop_on_completion: true,
        }
    }
}

/// Runs simulated sessions against one dashboard and one engine.
pub struct SessionRunner<'a> {
    pub dashboard: &'a Dashboard,
    pub engine: &'a dyn Dbms,
    pub config: SessionConfig,
}

impl<'a> SessionRunner<'a> {
    /// New runner.
    pub fn new(dashboard: &'a Dashboard, engine: &'a dyn Dbms, config: SessionConfig) -> Self {
        Self {
            dashboard,
            engine,
            config,
        }
    }

    /// Simulate one goal-directed session (§4.3's interleaved model): a
    /// [`GoalStream`] planning on this runner's engine, run on it through
    /// [`run_stream`].
    pub fn run(&self, goals: &[Goal]) -> Result<SessionLog, CoreError> {
        let mut stream = GoalStream::new(self.dashboard, self.engine, goals, &self.config)?;
        let run = run_stream(&mut stream, self.engine)?;
        if let Some(e) = stream.error {
            return Err(e);
        }
        let entries = run
            .steps
            .into_iter()
            .zip(stream.models)
            .map(|(executed, (model, action_kind))| LogEntry {
                step: executed.step,
                model,
                action: executed.action,
                action_kind,
                queries: executed.queries,
            })
            .collect();
        let (_, goals): (Vec<_>, _) = stream.goals.into_iter().unzip();
        Ok(SessionLog {
            dashboard: self.dashboard.spec().name.clone(),
            engine: run.engine.to_string(),
            seed: self.config.seed,
            entries,
            goals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::workflows::Workflow;
    use super::*;
    use crate::spec::builtin::builtin;
    use simba_data::DashboardDataset;
    use simba_engine::EngineKind;
    use std::sync::Arc;

    fn setup() -> (Dashboard, Arc<dyn Dbms>, Vec<Goal>) {
        let ds = DashboardDataset::CustomerService;
        let table = Arc::new(ds.generate_rows(2_000, 21));
        let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
        let goals = Workflow::Shneiderman.goals_for(&dashboard).unwrap();
        let engine = EngineKind::DuckDbLike.build();
        engine.register(table);
        (dashboard, engine, goals)
    }

    #[test]
    fn session_replays_identically_for_same_seed() {
        let (dashboard, engine, goals) = setup();
        let config = SessionConfig {
            seed: 77,
            max_steps: 12,
            ..Default::default()
        };
        let run = |cfg: &SessionConfig| {
            SessionRunner::new(&dashboard, engine.as_ref(), cfg.clone())
                .run(&goals)
                .unwrap()
        };
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.entries.len(), b.entries.len());
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea.action, eb.action);
            let sa: Vec<&str> = ea.queries.iter().map(|q| q.sql.as_str()).collect();
            let sb: Vec<&str> = eb.queries.iter().map(|q| q.sql.as_str()).collect();
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn oracle_only_session_achieves_goals() {
        let (dashboard, engine, goals) = setup();
        let config = SessionConfig {
            seed: 3,
            max_steps: 30,
            decay: DecayConfig::oracle_only(),
            ..Default::default()
        };
        let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
            .run(&goals)
            .unwrap();
        assert!(
            log.all_goals_met(),
            "oracle-only session should achieve all goals: {:?}",
            log.goals.iter().map(|g| g.solved_at).collect::<Vec<_>>()
        );
        // No Markov steps should appear.
        assert!(log.entries.iter().all(|e| e.model != ModelChoice::Markov));
    }

    #[test]
    fn initial_render_queries_all_visualizations() {
        let (dashboard, engine, goals) = setup();
        let log = SessionRunner::new(&dashboard, engine.as_ref(), SessionConfig::default())
            .run(&goals)
            .unwrap();
        assert_eq!(log.entries[0].model, ModelChoice::InitialRender);
        assert_eq!(log.entries[0].queries.len(), 5);
    }

    #[test]
    fn max_steps_bounds_session_length() {
        let (dashboard, engine, goals) = setup();
        let config = SessionConfig {
            seed: 5,
            max_steps: 4,
            decay: DecayConfig::markov_only(),
            stop_on_completion: false,
            ..Default::default()
        };
        let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
            .run(&goals)
            .unwrap();
        assert_eq!(log.interaction_count(), 4);
    }

    #[test]
    fn goal_outcomes_record_method_and_step() {
        let (dashboard, engine, goals) = setup();
        let config = SessionConfig {
            seed: 9,
            max_steps: 30,
            decay: DecayConfig::oracle_only(),
            ..Default::default()
        };
        let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
            .run(&goals)
            .unwrap();
        for outcome in &log.goals {
            if let Some(step) = outcome.solved_at {
                assert!(outcome.method.is_some());
                assert!(step <= 30);
            }
        }
    }

    #[test]
    fn log_statistics_consistent() {
        let (dashboard, engine, goals) = setup();
        let config = SessionConfig {
            seed: 13,
            max_steps: 8,
            stop_on_completion: false,
            ..Default::default()
        };
        let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
            .run(&goals)
            .unwrap();
        assert_eq!(log.query_count(), log.queries().count());
        assert_eq!(log.durations().len(), log.query_count());
        assert!(log.query_count() >= log.interaction_count());
    }
}
