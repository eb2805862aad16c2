//! Session simulation: the benchmark's main loop (§4 of the paper).
//!
//! A session opens a dashboard (executing every visualization's query),
//! then repeatedly chooses between the Markov model and the Oracle by the
//! decaying probability of Figure 5, applies the chosen interaction, runs
//! the emitted SQL against the DBMS under test, and checks goal completion
//! with the equivalence suite. Everything is recorded in a [`SessionLog`].

pub mod adaptive;
pub mod batch;
pub mod export;
pub mod interleave;
pub mod planner;
pub mod source;
pub mod synthesize;
pub mod workflows;

use crate::actions::ActionKind;
use crate::algebra::templates::Goal;
use crate::dashboard::Dashboard;
use crate::equivalence::{augment, GoalChecker, Method};
use crate::error::CoreError;
use crate::markov::MarkovModel;
use crate::oracle::{Oracle, OracleConfig};
use interleave::DecayConfig;
use planner::SessionPlanner;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simba_engine::Dbms;
use simba_sql::{NormalizedSelect, Select};
use simba_store::CoverageStore;
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

    /// Simulate one goal-directed session (§4.3's interleaved model).
    ///
    /// Goals are pursued in order: the Oracle always targets the first
    /// unsolved goal, modeling the paper's goal-transition progression.
    pub fn run(&self, goals: &[Goal]) -> Result<SessionLog, CoreError> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let oracle = Oracle::new(self.config.oracle.clone());
        // The walk itself (state + Markov conditioning) lives in the shared
        // engine-free planner; this runner adds engines, goals, and the
        // Oracle/Markov interleaving on top.
        let mut planner = SessionPlanner::new(self.dashboard, self.config.markov.clone());
        let mut coverage = CoverageStore::new();
        let mut entries = Vec::new();

        // Pre-execute goal queries to obtain their expected result sets.
        let mut checkers: Vec<GoalChecker> = goals
            .iter()
            .map(|g| {
                let out = self.engine.execute(&g.query)?;
                Ok(GoalChecker::new(g.query.clone(), out.result))
            })
            .collect::<Result<_, CoreError>>()?;
        let mut outcomes: Vec<GoalOutcome> = goals
            .iter()
            .map(|g| GoalOutcome {
                question: g.question.clone(),
                sql: g.query.to_string(),
                solved_at: None,
                method: None,
            })
            .collect();

        // Step 0: the dashboard opens and renders every visualization.
        let initial = planner.initial_render().queries;
        let mut records = Vec::with_capacity(initial.len());
        for (node, query) in &initial {
            let out = self.engine.execute(query)?;
            let rows = out.result.n_rows();
            let form = NormalizedSelect::from_select(query);
            coverage.absorb(&augment(&form, out.result));
            records.push(QueryRecord {
                vis: self.dashboard.graph().id(*node).to_string(),
                sql: query.to_string(),
                duration: out.elapsed,
                rows,
            });
            let emitted = Some((query, &form));
            check_goals(&mut checkers, &mut outcomes, emitted, &coverage, 0);
        }
        entries.push(LogEntry {
            step: 0,
            model: ModelChoice::InitialRender,
            action: "open dashboard".into(),
            action_kind: None,
            queries: records,
        });

        for step in 1..=self.config.max_steps {
            if self.config.stop_on_completion && checkers.iter().all(|c| c.solved.is_some()) {
                break;
            }
            let p_markov = self.config.decay.p_markov(step);
            let use_markov = rng.gen_bool(p_markov);

            let (model, planned) = if use_markov {
                match planner.plan_next(&mut rng) {
                    Some(planned) => (ModelChoice::Markov, planned),
                    None => break,
                }
            } else {
                // The Oracle targets the first unsolved goal (goal-ordering
                // semantics of §4.3).
                let active: Vec<&simba_store::ResultSet> = checkers
                    .iter()
                    .find(|c| c.solved.is_none())
                    .map(|c| vec![&c.goal_result])
                    .unwrap_or_default();
                match oracle.plan_next(
                    self.dashboard,
                    planner.state(),
                    self.engine,
                    &coverage,
                    &active,
                    &mut rng,
                )? {
                    Some(oracle_plan) => (ModelChoice::Oracle, planner.apply(oracle_plan.action)),
                    None => break,
                }
            };

            let description = planned.description;
            let action_kind = planned.kind.expect("interaction steps carry an action");
            let emitted = planned.queries;
            let mut records = Vec::with_capacity(emitted.len());
            for (node, query) in &emitted {
                let out = self.engine.execute(query)?;
                let rows = out.result.n_rows();
                let form = NormalizedSelect::from_select(query);
                coverage.absorb(&augment(&form, out.result));
                records.push(QueryRecord {
                    vis: self.dashboard.graph().id(*node).to_string(),
                    sql: query.to_string(),
                    duration: out.elapsed,
                    rows,
                });
                let emitted = Some((query, &form));
                check_goals(&mut checkers, &mut outcomes, emitted, &coverage, step);
            }
            // Result-coverage may also complete goals with no new emitted
            // match (e.g. after absorbing the last fragment).
            check_goals(&mut checkers, &mut outcomes, None, &coverage, step);

            entries.push(LogEntry {
                step,
                model,
                action: description,
                action_kind: Some(action_kind),
                queries: records,
            });
        }

        Ok(SessionLog {
            dashboard: self.dashboard.spec().name.clone(),
            engine: self.engine.name().to_string(),
            seed: self.config.seed,
            entries,
            goals: outcomes,
        })
    }
}

fn check_goals(
    checkers: &mut [GoalChecker],
    outcomes: &mut [GoalOutcome],
    emitted: Option<(&Select, &NormalizedSelect)>,
    coverage: &CoverageStore,
    step: usize,
) {
    for (checker, outcome) in checkers.iter_mut().zip(outcomes.iter_mut()) {
        if checker.solved.is_some() {
            continue;
        }
        let method = match emitted {
            Some((query, form)) => checker
                .check_observed(query, form)
                .or_else(|| checker.check_result(coverage)),
            None => checker.check_result(coverage),
        };
        if let Some(m) = method {
            outcome.solved_at = Some(step);
            outcome.method = Some(m);
        }
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
