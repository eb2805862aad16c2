//! The paper's goal-directed session (§4.3) as a [`SessionStream`]: Markov
//! and Oracle steps drawn by the decaying `p_markov` of Figure 5, and goal
//! completion checked on every result fed back (§4.1.2). The stream's
//! *planning* engine only pre-executes the goal queries and serves the
//! Oracle's look-ahead; the session's own queries run wherever the caller
//! runs them. [`GoalSource`] opens one stream per user.

use super::planner::{PlannedStep, SessionPlanner};
use super::source::{QueryFeedback, SessionSource, SessionStream, SourceStep};
use super::{batch::splitmix, GoalOutcome, ModelChoice, SessionConfig};
use crate::actions::ActionKind;
use crate::algebra::templates::Goal;
use crate::dashboard::Dashboard;
use crate::equivalence::{augment, GoalChecker};
use crate::error::CoreError;
use crate::oracle::Oracle;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simba_engine::Dbms;
use simba_sql::{NormalizedSelect, Select};
use simba_store::CoverageStore;

/// One user's goal-directed session. Goals are pursued in order: the
/// Oracle always targets the first unsolved goal, modeling the paper's
/// goal-transition progression.
#[derive(Clone)]
pub struct GoalStream<'a> {
    planner: SessionPlanner<'a>,
    planning: &'a dyn Dbms,
    rng: ChaCha8Rng,
    oracle: Oracle,
    config: SessionConfig,
    /// Each goal with its pre-executed result, and its outcome so far.
    pub(super) goals: Vec<(GoalChecker, GoalOutcome)>,
    coverage: CoverageStore,
    /// Model and action kind of every emitted step; step 0 is the render.
    pub(super) models: Vec<(ModelChoice, Option<ActionKind>)>,
    /// The last emitted step's queries, position-aligned with its feedback.
    pending: Vec<Select>,
    /// The Oracle's planning error, if one ended the session.
    pub(super) error: Option<CoreError>,
}

impl<'a> GoalStream<'a> {
    /// A session over `dashboard` toward `goals`, each pre-executed on
    /// `planning` for the result-equivalence check.
    pub fn new(
        dashboard: &'a Dashboard,
        planning: &'a dyn Dbms,
        goals: &[Goal],
        config: &SessionConfig,
    ) -> Result<Self, CoreError> {
        let goals = goals.iter().map(|g| {
            let checker = GoalChecker::new(g.query.clone(), planning.execute(&g.query)?.result);
            let outcome = GoalOutcome {
                question: g.question.clone(),
                sql: g.query.to_string(),
                solved_at: None,
                method: None,
            };
            Ok((checker, outcome))
        });
        Ok(GoalStream {
            planner: SessionPlanner::new(dashboard, config.markov.clone()),
            planning,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            oracle: Oracle::new(config.oracle.clone()),
            config: config.clone(),
            goals: goals.collect::<Result<_, CoreError>>()?,
            coverage: CoverageStore::new(),
            models: Vec::new(),
            pending: Vec::new(),
            error: None,
        })
    }

    /// Absorb step `step`'s results and check every goal against them. An
    /// errored query was never seen: it neither grows coverage nor solves
    /// a goal.
    fn observe(&mut self, step: usize, feedback: &[QueryFeedback<'_>]) {
        for (query, fb) in std::mem::take(&mut self.pending).iter().zip(feedback) {
            let Some(result) = fb.result() else {
                continue;
            };
            let form = NormalizedSelect::from_select(query);
            self.coverage.absorb(&augment(&form, result.clone()));
            self.check_goals(Some((query, &form)), step);
        }
        // Result-coverage may also complete goals with no new emitted
        // match (e.g. after absorbing the last fragment).
        if step > 0 {
            self.check_goals(None, step);
        }
    }

    /// Check every unsolved goal against an emitted query, then against
    /// the coverage so far.
    fn check_goals(&mut self, emitted: Option<(&Select, &NormalizedSelect)>, step: usize) {
        for (checker, outcome) in &mut self.goals {
            let method = emitted
                .and_then(|(query, form)| checker.check_observed(query, form))
                .or_else(|| checker.check_result(&self.coverage));
            if method.is_some() {
                outcome.solved_at = Some(step);
                outcome.method = method;
            }
        }
    }

    /// Draw interaction `step` from the Markov model or the Oracle.
    fn plan(&mut self, step: usize) -> Option<(ModelChoice, PlannedStep)> {
        let solved = self.goals.iter().all(|(c, _)| c.solved.is_some());
        if step > self.config.max_steps || (self.config.stop_on_completion && solved) {
            return None;
        }
        if self.rng.gen_bool(self.config.decay.p_markov(step)) {
            return Some((ModelChoice::Markov, self.planner.plan_next(&mut self.rng)?));
        }
        let active = self.goals.iter().find(|(c, _)| c.solved.is_none());
        let planned = self.oracle.plan_next(
            self.planner.dashboard(),
            self.planner.state(),
            self.planning,
            &self.coverage,
            &Vec::from_iter(active.map(|(c, _)| &c.goal_result)),
            &mut self.rng,
        );
        match planned {
            Ok(plan) => Some((ModelChoice::Oracle, self.planner.apply(plan?.action))),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

impl SessionStream for GoalStream<'_> {
    fn session_seed(&self) -> u64 {
        self.config.seed
    }

    fn next_step(&mut self, feedback: &[QueryFeedback<'_>]) -> Option<SourceStep> {
        let step = self.models.len();
        let (model, planned) = if step == 0 {
            (ModelChoice::InitialRender, self.planner.initial_render())
        } else {
            self.observe(step - 1, feedback);
            self.plan(step)?
        };
        self.models.push((model, planned.kind));
        self.pending = planned.queries.iter().map(|(_, q)| q.clone()).collect();
        Some(SourceStep::planned(self.planner.dashboard(), &planned))
    }
}

/// Goal-directed sessions as a [`SessionSource`]: every user pursues the
/// same goals, user `u` with seed `config.seed ^ splitmix(u + 1)`.
pub struct GoalSource<'a> {
    /// The base session, goals pre-executed once; each user opens a copy.
    base: GoalStream<'a>,
    sessions: usize,
}

impl<'a> GoalSource<'a> {
    /// `sessions` users over `dashboard` toward `goals`, planning on
    /// `planning`.
    pub fn new(
        dashboard: &'a Dashboard,
        planning: &'a dyn Dbms,
        goals: &[Goal],
        config: SessionConfig,
        sessions: usize,
    ) -> Result<Self, CoreError> {
        let base = GoalStream::new(dashboard, planning, goals, &config)?;
        Ok(GoalSource { base, sessions })
    }

    /// The exact configuration user `user` runs with: handed to
    /// [`SessionRunner`](super::SessionRunner) it reproduces that session.
    pub fn session_config(&self, user: usize) -> SessionConfig {
        let seed = self.base.config.seed ^ splitmix(user as u64 + 1);
        SessionConfig {
            seed,
            ..self.base.config.clone()
        }
    }
}

impl SessionSource for GoalSource<'_> {
    fn mode(&self) -> &'static str {
        "goal"
    }

    fn sessions(&self) -> usize {
        self.sessions
    }

    fn open(&self, user: usize) -> Box<dyn SessionStream + '_> {
        let config = self.session_config(user);
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        Box::new(GoalStream {
            rng,
            config,
            ..self.base.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::interleave::DecayConfig;
    use crate::session::workflows::Workflow;
    use crate::session::SessionRunner;
    use crate::spec::builtin::builtin;
    use simba_data::DashboardDataset;
    use simba_engine::{EngineError, EngineKind, QueryOutput};
    use simba_store::Table;
    use std::sync::atomic::{AtomicUsize, Ordering};
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

    fn oracle_only(max_steps: usize) -> SessionConfig {
        SessionConfig {
            seed: 3,
            max_steps,
            decay: DecayConfig::oracle_only(),
            ..Default::default()
        }
    }

    /// Forwards to a real engine but fails its `fail_at`-th call.
    struct FailsOnce {
        inner: Arc<dyn Dbms>,
        calls: AtomicUsize,
        fail_at: usize,
    }

    impl Dbms for FailsOnce {
        fn name(&self) -> &'static str {
            "fails-once"
        }

        fn register(&self, table: Arc<Table>) {
            self.inner.register(table);
        }

        fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
            if self.calls.fetch_add(1, Ordering::Relaxed) == self.fail_at {
                return Err(EngineError::Invalid("injected".into()));
            }
            self.inner.execute(query)
        }
    }

    #[test]
    fn session_runner_returns_the_engines_error() {
        let (dashboard, engine, goals) = setup();
        let render = dashboard.all_queries(&dashboard.initial_state()).len();
        // Fail a goal pre-execution, a render query, an interaction query
        // (Markov-only: no look-ahead calls), and an Oracle look-ahead.
        let markov_only = SessionConfig {
            decay: DecayConfig::markov_only(),
            ..oracle_only(5)
        };
        for (fail_at, config) in [
            (0, oracle_only(5)),
            (goals.len() + 1, oracle_only(5)),
            (goals.len() + render + 1, markov_only),
            (goals.len() + render + 1, oracle_only(5)),
        ] {
            let failing = FailsOnce {
                inner: engine.clone(),
                calls: AtomicUsize::new(0),
                fail_at,
            };
            let err = SessionRunner::new(&dashboard, &failing, config)
                .run(&goals)
                .unwrap_err();
            assert_eq!(err, CoreError::Engine("invalid query: injected".into()));
        }
    }
}
