//! The Oracle: goal-directed exploration via LookAhead forward planning
//! (§4.1, Algorithm 1 of the paper).
//!
//! Given the interaction graph and a goal set, the Oracle enumerates the
//! applicable interactions, *hypothetically* executes each candidate's
//! emitted queries, and picks the interaction maximizing the result-overlap
//! heuristic θ. Re-planning happens after every executed action (the
//! "Acting" step of Algorithm 1), so the plan adapts as results come back.

use crate::actions::Action;
use crate::dashboard::Dashboard;
use crate::equivalence::augment;
use crate::equivalence::progress::covered_after;
use crate::error::CoreError;
use crate::graph::DashboardState;
use rand::seq::SliceRandom;
use rand::Rng;
use simba_engine::Dbms;
use simba_sql::NormalizedSelect;
use simba_store::{CoverageStore, ResultSet};

/// Oracle tuning knobs.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// LookAhead depth (1 = greedy one-step planning; 2+ explores chains).
    pub depth: usize,
    /// Cap on candidate actions evaluated per planning step; candidates are
    /// sampled uniformly when the applicable set is larger.
    pub max_candidates: usize,
    /// Branching factor kept when recursing below depth 1.
    pub beam_width: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            depth: 1,
            max_candidates: 48,
            beam_width: 4,
        }
    }
}

/// A planned next step and its heuristic value.
#[derive(Debug, Clone)]
pub struct PlannedStep {
    pub action: Action,
    /// θ of the successor state (goal rows covered after the action).
    pub score: usize,
    /// Queries the action would emit (usable as a cache by the caller).
    pub emitted: Vec<(crate::graph::NodeId, simba_sql::Select)>,
}

/// The Oracle planner.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    pub config: OracleConfig,
}

impl Oracle {
    /// New Oracle with the given configuration.
    pub fn new(config: OracleConfig) -> Self {
        Self { config }
    }

    /// Plan the next interaction from `state` toward `goals` (Algorithm 1's
    /// `Lookahead(s, θ)`). Returns `None` when no action is applicable.
    ///
    /// Candidate queries are executed against `engine` to evaluate θ —
    /// exactly the cost profile the paper describes for simulation-based
    /// planning over real DBMSs.
    pub fn plan_next(
        &self,
        dashboard: &Dashboard,
        state: &DashboardState,
        engine: &dyn Dbms,
        coverage: &CoverageStore,
        goals: &[&ResultSet],
        rng: &mut impl Rng,
    ) -> Result<Option<PlannedStep>, CoreError> {
        self.plan_depth(
            dashboard,
            state,
            engine,
            coverage,
            goals,
            rng,
            self.config.depth,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn plan_depth(
        &self,
        dashboard: &Dashboard,
        state: &DashboardState,
        engine: &dyn Dbms,
        coverage: &CoverageStore,
        goals: &[&ResultSet],
        rng: &mut impl Rng,
        depth: usize,
    ) -> Result<Option<PlannedStep>, CoreError> {
        let mut actions = dashboard.applicable_actions(state);
        if actions.is_empty() {
            return Ok(None);
        }
        if actions.len() > self.config.max_candidates {
            actions.shuffle(rng);
            actions.truncate(self.config.max_candidates);
        }

        let mut best: Option<PlannedStep> = None;
        let mut scored: Vec<PlannedStep> = Vec::with_capacity(actions.len());
        for action in actions {
            let mut next_state = state.clone();
            let emitted = dashboard.apply(&mut next_state, &action);
            let mut results = Vec::with_capacity(emitted.len());
            for (_, query) in &emitted {
                let out = engine.execute(query)?;
                results.push(augment(&NormalizedSelect::from_select(query), out.result));
            }
            let score = covered_after(coverage, &results, goals);
            scored.push(PlannedStep {
                action,
                score,
                emitted,
            });
        }

        if depth > 1 {
            // Beam search: refine the top candidates by their best successor.
            scored.sort_by_key(|s| std::cmp::Reverse(s.score));
            scored.truncate(self.config.beam_width);
            for step in &mut scored {
                let mut next_state = state.clone();
                let emitted = dashboard.apply(&mut next_state, &step.action);
                let mut hypothetical = coverage.clone();
                for (_, query) in &emitted {
                    let out = engine.execute(query)?;
                    hypothetical
                        .absorb(&augment(&NormalizedSelect::from_select(query), out.result));
                }
                if let Some(deeper) = self.plan_depth(
                    dashboard,
                    &next_state,
                    engine,
                    &hypothetical,
                    goals,
                    rng,
                    depth - 1,
                )? {
                    step.score = step.score.max(deeper.score);
                }
            }
        }

        // When nothing gains coverage, the plan is stuck in a dead end —
        // prefer backing out (clear/reset) so subsequent re-planning sees
        // fresh applicable states (Algorithm 1 re-plans after acting).
        let baseline = crate::equivalence::progress::total_covered(coverage, goals);
        let stuck = scored.iter().all(|s| s.score <= baseline);
        for step in scored {
            let step_is_clear = matches!(
                step.action,
                Action::ClearWidget { .. } | Action::ClearSelection { .. } | Action::ResetAll
            );
            let best_is_clear = best.as_ref().is_some_and(|b| {
                matches!(
                    b.action,
                    Action::ClearWidget { .. } | Action::ClearSelection { .. } | Action::ResetAll
                )
            });
            let better = match &best {
                None => true,
                Some(b) => {
                    step.score > b.score
                        || (stuck && step.score == b.score && step_is_clear && !best_is_clear)
                }
            };
            if better {
                best = Some(step);
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::templates::{FieldChoice, GoalTemplateKind};
    use crate::spec::builtin::builtin;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use simba_data::DashboardDataset;
    use simba_engine::EngineKind;
    use std::sync::Arc;

    fn setup() -> (Dashboard, Arc<dyn Dbms>, ResultSet) {
        let ds = DashboardDataset::CustomerService;
        let table = Arc::new(ds.generate_rows(3_000, 9));
        let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
        let engine = EngineKind::DuckDbLike.build();
        engine.register(table);
        // Figure 3's goal: per-queue lost-call counts.
        let goal = GoalTemplateKind::Filtering
            .instantiate(&FieldChoice::new(
                "customer_service",
                vec!["queue".into()],
                vec!["lost_calls".into()],
                vec![],
            ))
            .unwrap();
        let goal_result = engine.execute(&goal.query).unwrap().result;
        (dashboard, engine, goal_result)
    }

    #[test]
    fn oracle_picks_a_coverage_increasing_action() {
        let (dashboard, engine, goal_result) = setup();
        let state = dashboard.initial_state();
        let coverage = CoverageStore::new();
        let oracle = Oracle::default();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let step = oracle
            .plan_next(
                &dashboard,
                &state,
                engine.as_ref(),
                &coverage,
                &[&goal_result],
                &mut rng,
            )
            .unwrap()
            .expect("actions exist");
        assert!(
            step.score > 0,
            "some action must make progress toward the goal"
        );
        assert!(!step.emitted.is_empty());
    }

    #[test]
    fn oracle_reaches_goal_within_bounded_steps() {
        // Repeated plan-act cycles must cover the Figure 3 goal.
        let (dashboard, engine, goal_result) = setup();
        let mut state = dashboard.initial_state();
        let mut coverage = CoverageStore::new();
        let oracle = Oracle::default();
        let mut rng = ChaCha8Rng::seed_from_u64(11);

        // Absorb the initial render, as the session runner does.
        for (_, q) in dashboard.all_queries(&state) {
            let out = engine.execute(&q).unwrap();
            coverage.absorb(&augment(&NormalizedSelect::from_select(&q), out.result));
        }

        let mut steps = 0;
        while !coverage.covers(&goal_result) && steps < 12 {
            let step = oracle
                .plan_next(
                    &dashboard,
                    &state,
                    engine.as_ref(),
                    &coverage,
                    &[&goal_result],
                    &mut rng,
                )
                .unwrap()
                .expect("applicable actions remain");
            let emitted = dashboard.apply(&mut state, &step.action);
            for (_, q) in &emitted {
                let out = engine.execute(q).unwrap();
                coverage.absorb(&augment(&NormalizedSelect::from_select(q), out.result));
            }
            steps += 1;
        }
        assert!(
            coverage.covers(&goal_result),
            "oracle failed to reach the goal in {steps} steps"
        );
    }

    #[test]
    fn deeper_lookahead_scores_at_least_as_well() {
        let (dashboard, engine, goal_result) = setup();
        let state = dashboard.initial_state();
        let coverage = CoverageStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let shallow = Oracle::new(OracleConfig {
            depth: 1,
            max_candidates: 16,
            beam_width: 3,
        })
        .plan_next(
            &dashboard,
            &state,
            engine.as_ref(),
            &coverage,
            &[&goal_result],
            &mut rng,
        )
        .unwrap()
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let deep = Oracle::new(OracleConfig {
            depth: 2,
            max_candidates: 16,
            beam_width: 3,
        })
        .plan_next(
            &dashboard,
            &state,
            engine.as_ref(),
            &coverage,
            &[&goal_result],
            &mut rng,
        )
        .unwrap()
        .unwrap();
        assert!(deep.score >= shallow.score);
    }

    #[test]
    fn empty_goalset_still_plans() {
        let (dashboard, engine, _) = setup();
        let state = dashboard.initial_state();
        let coverage = CoverageStore::new();
        let oracle = Oracle::default();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let step = oracle
            .plan_next(
                &dashboard,
                &state,
                engine.as_ref(),
                &coverage,
                &[],
                &mut rng,
            )
            .unwrap();
        assert!(step.is_some());
        assert_eq!(step.unwrap().score, 0);
    }
}
