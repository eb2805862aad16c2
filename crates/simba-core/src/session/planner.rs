//! The engine-free session planner: one user's Markov walk over a live
//! dashboard.
//!
//! Every dashboard session model needs the same core loop — hold a
//! [`DashboardState`], sample the next action from a [`MarkovModel`], apply
//! it, and note which charts it refreshes. The planner owns exactly that
//! loop and nothing engine-shaped, so scripted synthesis ([`super::batch`]),
//! adaptive walks and goal-directed sessions ([`super::goal`], which also
//! applies the Oracle's actions) share one walk implementation: identical
//! seeds produce identical action sequences in all of them.
//!
//! A planned step names the visualizations it refreshes, not their queries:
//! each query is built once, from the planner's state, where the step is
//! handed out — [`SourceStep::planned`](super::source::SourceStep) for live
//! streams, the batch's memo for scripts (which builds only the queries it
//! has not seen).

use crate::actions::{Action, ActionKind};
use crate::dashboard::Dashboard;
use crate::graph::{DashboardState, NodeId};
use crate::markov::MarkovModel;
use rand::Rng;

/// One planned step: the action taken (if any) and the visualizations it
/// refreshes.
#[derive(Debug, Clone)]
pub struct PlannedStep {
    /// The applied action; `None` for the initial dashboard render.
    pub action: Option<Action>,
    /// Human-readable action description.
    pub description: String,
    /// Coarse kind of the action (`None` for the initial render).
    pub kind: Option<ActionKind>,
    /// Refreshed visualizations, in node order. Their queries are built
    /// from the planner's [`state`](SessionPlanner::state) until the next
    /// step.
    pub nodes: Vec<NodeId>,
}

/// Walks one simulated user through a dashboard without executing queries.
///
/// The planner tracks the dashboard state and the previous action kind (the
/// Markov chain's conditioning variable). Callers drive it with
/// [`plan_next`](Self::plan_next) for model-sampled steps or
/// [`apply`](Self::apply) for externally chosen actions (the Oracle's
/// planned interactions, or a steering policy's corrections) — both keep
/// the chain state consistent.
#[derive(Debug, Clone)]
pub struct SessionPlanner<'a> {
    dashboard: &'a Dashboard,
    model: MarkovModel,
    state: DashboardState,
    prev: Option<ActionKind>,
}

impl<'a> SessionPlanner<'a> {
    /// New planner in the pristine dashboard state.
    pub fn new(dashboard: &'a Dashboard, model: MarkovModel) -> Self {
        Self {
            dashboard,
            model,
            state: dashboard.initial_state(),
            prev: None,
        }
    }

    /// The dashboard being walked.
    pub fn dashboard(&self) -> &'a Dashboard {
        self.dashboard
    }

    /// The current interaction-layer state.
    pub fn state(&self) -> &DashboardState {
        &self.state
    }

    /// Kind of the most recently applied action.
    pub fn prev_kind(&self) -> Option<ActionKind> {
        self.prev
    }

    /// The "open dashboard" step: every visualization, in the current
    /// state. Does not advance the walk.
    pub fn initial_render(&self) -> PlannedStep {
        PlannedStep {
            action: None,
            description: "open dashboard".to_string(),
            kind: None,
            nodes: self.dashboard.graph().visualization_nodes(),
        }
    }

    /// Sample the next action from the Markov model and apply it. Returns
    /// `None` when no action is applicable (terminal state).
    pub fn plan_next(&mut self, rng: &mut impl Rng) -> Option<PlannedStep> {
        let action = self
            .model
            .pick_action(self.dashboard, &self.state, self.prev, rng)?;
        Some(self.apply(action))
    }

    /// Apply an externally chosen action (Oracle plan, steering policy),
    /// keeping the Markov conditioning state in sync.
    pub fn apply(&mut self, action: Action) -> PlannedStep {
        let graph = self.dashboard.graph();
        let description = action.describe(graph);
        let kind = action.kind(graph);
        let nodes = action.apply(graph, &mut self.state);
        self.prev = Some(kind);
        PlannedStep {
            action: Some(action),
            description,
            kind: Some(kind),
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::builtin::builtin;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use simba_data::DashboardDataset;

    fn dashboard() -> Dashboard {
        let ds = DashboardDataset::CustomerService;
        let table = ds.generate_rows(500, 4);
        Dashboard::new(builtin(ds), &table).unwrap()
    }

    #[test]
    fn initial_render_covers_every_visualization() {
        let d = dashboard();
        let planner = SessionPlanner::new(&d, MarkovModel::idebench_default());
        let step = planner.initial_render();
        assert_eq!(step.action, None);
        assert_eq!(step.kind, None);
        assert_eq!(step.nodes.len(), d.all_queries(&d.initial_state()).len());
    }

    #[test]
    fn walk_is_deterministic_under_seed() {
        let d = dashboard();
        let walk = |seed: u64| {
            let mut planner = SessionPlanner::new(&d, MarkovModel::idebench_default());
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..8)
                .filter_map(|_| planner.plan_next(&mut rng))
                .map(|s| s.description)
                .collect::<Vec<_>>()
        };
        assert_eq!(walk(11), walk(11));
        assert_ne!(walk(11), walk(12), "different seeds should diverge");
    }

    #[test]
    fn apply_updates_markov_conditioning_state() {
        let d = dashboard();
        let mut planner = SessionPlanner::new(&d, MarkovModel::idebench_default());
        assert_eq!(planner.prev_kind(), None);
        let widget = d.graph().node("queue_checkbox").unwrap();
        let step = planner.apply(Action::Toggle {
            widget,
            value: "A".into(),
        });
        assert_eq!(step.kind, Some(ActionKind::Checkbox));
        assert_eq!(planner.prev_kind(), Some(ActionKind::Checkbox));
        assert_eq!(planner.state().active_count(), 1);
        assert_eq!(step.nodes.len(), 5, "checkbox refreshes all five charts");
        for &node in &step.nodes {
            let sql = d.query_for(planner.state(), node).to_string();
            assert!(sql.contains("queue IN ('A')"), "{sql}");
        }
    }
}
