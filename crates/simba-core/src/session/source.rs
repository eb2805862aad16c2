//! The unified workload surface: every way of producing exploration
//! sessions behind one pair of traits, and the one loop that runs a
//! session on one engine.
//!
//! * [`SessionSource`] — a set of N deterministic sessions. Four sources:
//!   [`ScriptedSource`] (pre-synthesized scripts), [`AdaptiveSource`] (live
//!   planner + steering policy), [`GoalSource`](super::goal::GoalSource)
//!   (the paper's goal-directed sessions) and, in `simba-idebench`,
//!   `IdebenchSource` (stochastic filter storms).
//! * [`SessionStream`] — one user's session as a feedback-driven stream of
//!   [`SourceStep`]s. The caller executes each step's queries and hands the
//!   results back on the next [`next_step`](SessionStream::next_step) call,
//!   which is how adaptive and goal-directed sources steer; scripted and
//!   IDEBench sources ignore the feedback.
//! * [`run_stream`] — the single-engine caller: execute each step, record
//!   it, feed the results back. `simba-driver` is the concurrent one.
//!
//! Streams are deterministic: for a fixed source and user index, the
//! emitted steps may depend only on the *results* fed back (which the
//! equivalence suite pins across engines), never on timing. The driver
//! derives think-time pacing from
//! [`session_seed`](SessionStream::session_seed) so pacing noise can never
//! perturb a walk.

use super::adaptive::{AdaptivePolicy, SteeringKind, StepObservation};
use super::batch::{splitmix, SessionScript};
use super::planner::{PlannedStep, SessionPlanner};
use super::QueryRecord;
use crate::actions::Action;
use crate::dashboard::Dashboard;
use crate::graph::NodeId;
use crate::markov::MarkovModel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simba_engine::{Dbms, EngineError};
use simba_sql::Select;
use simba_store::ResultSet;
use std::borrow::Cow;

/// One step of a session: a human-readable description and the queries the
/// interaction (or initial render) emits, in refresh order.
#[derive(Debug, Clone)]
pub struct SourceStep {
    /// Human-readable action description (`"open dashboard"` for the
    /// initial render).
    pub description: String,
    /// Which steering rule produced this step, if it was a result-steered
    /// correction rather than a model-sampled interaction.
    pub steering: Option<SteeringKind>,
    /// Emitted queries: `(visualization id, query)`.
    pub queries: Vec<(String, Select)>,
}

impl SourceStep {
    /// A planned step as streams emit it: each refreshed node becomes its
    /// visualization id and its query, built here, once, from the
    /// planner's state.
    pub(crate) fn planned(planner: &SessionPlanner<'_>, planned: &PlannedStep) -> SourceStep {
        let dashboard = planner.dashboard();
        let vis = |&n: &NodeId| {
            let query = dashboard.query_for(planner.state(), n);
            (dashboard.graph().id(n).to_string(), query)
        };
        SourceStep {
            description: planned.description.clone(),
            steering: None,
            queries: planned.nodes.iter().map(vis).collect(),
        }
    }
}

/// What one executed query left behind, fed back to the stream. Errors are
/// an explicit variant, not a missing result: adaptive sources steer on
/// them (a failed chart is a dead end the user backs out of), and the
/// distinction must survive the trip through the driver.
#[derive(Debug, Clone, Copy)]
pub enum QueryFeedback<'a> {
    /// The query completed with this result.
    Ok(&'a ResultSet),
    /// The query failed (after any driver-level retries).
    Errored,
}

impl<'a> QueryFeedback<'a> {
    /// The result, if the query completed.
    pub fn result(&self) -> Option<&'a ResultSet> {
        match self {
            QueryFeedback::Ok(r) => Some(r),
            QueryFeedback::Errored => None,
        }
    }

    /// Did the query fail?
    pub fn is_err(&self) -> bool {
        matches!(self, QueryFeedback::Errored)
    }
}

/// One user's session as a feedback-driven stream of steps.
///
/// The caller executes each returned step's queries and passes the results
/// (position-aligned with [`SourceStep::queries`]) to the next call. The
/// first call receives an empty slice.
pub trait SessionStream {
    /// Session-specific seed. The driver mixes it with its own seed for
    /// think-time pacing, keeping pacing draws off any walk rng.
    fn session_seed(&self) -> u64;

    /// Produce the next step given the previous step's results, or `None`
    /// when the session is over.
    fn next_step(&mut self, feedback: &[QueryFeedback<'_>]) -> Option<SourceStep>;
}

/// A deterministic set of exploration sessions the workload driver can
/// execute concurrently: one [`SessionStream`] per user index.
pub trait SessionSource: Sync {
    /// Stable mode name for reports: `"scripted"`, `"adaptive"`,
    /// `"idebench"`, …
    fn mode(&self) -> &'static str;

    /// Number of sessions this source yields.
    fn sessions(&self) -> usize;

    /// Description of the steering policy, for sources that react to
    /// results; `None` for sources that cannot steer. Drives whether the
    /// driver attaches a steering section to its report.
    fn steering_policy(&self) -> Option<String> {
        None
    }

    /// Open session `user`'s stream. Must be deterministic in
    /// `(self, user)`: opening the same user twice yields streams that
    /// emit identical steps under identical feedback.
    fn open(&self, user: usize) -> Box<dyn SessionStream + '_>;
}

/// One step [`run_stream`] executed.
#[derive(Debug, Clone)]
pub struct ExecutedStep {
    /// Position in the session; `0` is the initial render.
    pub step: usize,
    /// The stream's description of the step.
    pub action: String,
    pub queries: Vec<QueryRecord>,
}

/// Everything [`run_stream`] recorded.
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// Name of the engine the session ran on.
    pub engine: &'static str,
    pub steps: Vec<ExecutedStep>,
}

/// Run one session on one engine: execute each step's queries in order,
/// record them, and feed their results back for the next step. The
/// engine's first error ends the run.
pub fn run_stream(
    stream: &mut dyn SessionStream,
    engine: &dyn Dbms,
) -> Result<StreamRun, EngineError> {
    let mut steps = Vec::new();
    let mut results: Vec<ResultSet> = Vec::new();
    loop {
        let feedback: Vec<QueryFeedback<'_>> = results.iter().map(QueryFeedback::Ok).collect();
        let Some(step) = stream.next_step(&feedback) else {
            break;
        };
        results.clear();
        let mut queries = Vec::with_capacity(step.queries.len());
        for (vis, query) in step.queries {
            let out = engine.execute(&query)?;
            queries.push(QueryRecord {
                vis,
                sql: query.to_string(),
                duration: out.elapsed,
                rows: out.result.n_rows(),
            });
            results.push(out.result);
        }
        steps.push(ExecutedStep {
            step: steps.len(),
            action: step.description,
            queries,
        });
    }
    Ok(StreamRun {
        engine: engine.name(),
        steps,
    })
}

// ---------------------------------------------------------------------------
// Scripted

/// Replays pre-synthesized [`SessionScript`]s: every interaction was fixed
/// before the first query ran, so the workload is engine-independent but
/// can never react to results.
#[derive(Debug, Clone)]
pub struct ScriptedSource<'a> {
    scripts: Cow<'a, [SessionScript]>,
}

impl ScriptedSource<'static> {
    /// Own a batch of scripts (e.g. straight from
    /// [`synthesize_scripts`](super::batch::synthesize_scripts)).
    pub fn new(scripts: Vec<SessionScript>) -> Self {
        ScriptedSource {
            scripts: Cow::Owned(scripts),
        }
    }
}

impl<'a> ScriptedSource<'a> {
    /// Borrow an existing batch without cloning it.
    pub fn borrowed(scripts: &'a [SessionScript]) -> Self {
        ScriptedSource {
            scripts: Cow::Borrowed(scripts),
        }
    }
}

impl SessionSource for ScriptedSource<'_> {
    fn mode(&self) -> &'static str {
        "scripted"
    }

    fn sessions(&self) -> usize {
        self.scripts.len()
    }

    fn open(&self, user: usize) -> Box<dyn SessionStream + '_> {
        Box::new(ScriptedStream {
            script: &self.scripts[user],
            next: 0,
        })
    }
}

struct ScriptedStream<'a> {
    script: &'a SessionScript,
    next: usize,
}

impl SessionStream for ScriptedStream<'_> {
    fn session_seed(&self) -> u64 {
        self.script.seed
    }

    fn next_step(&mut self, _feedback: &[QueryFeedback<'_>]) -> Option<SourceStep> {
        let step = self.script.steps.get(self.next)?;
        self.next += 1;
        Some(SourceStep {
            description: step.action.clone(),
            steering: None,
            queries: step
                .queries
                .iter()
                .map(|q| (q.vis.to_string(), Select::clone(&q.query)))
                .collect(),
        })
    }
}

// ---------------------------------------------------------------------------
// Adaptive

/// Configuration of the live, result-steered walks an [`AdaptiveSource`]
/// produces.
#[derive(Debug, Clone)]
pub struct AdaptiveWalkConfig {
    /// Base seed; user `u` walks with `base_seed ^ splitmix(u + 1)` — the
    /// same derivation as [`BatchConfig`](super::batch::BatchConfig), so
    /// scripted and adaptive runs of one seed explore comparably.
    pub base_seed: u64,
    /// Interaction budget per session after the initial render (steering
    /// steps count: reacting *is* interacting).
    pub steps_per_session: usize,
    /// Model mix; user `u` draws `mix[u % mix.len()]`.
    pub mix: Vec<MarkovModel>,
    /// Result-steering rules applied after every non-steered step.
    pub policy: AdaptivePolicy,
}

impl Default for AdaptiveWalkConfig {
    fn default() -> Self {
        AdaptiveWalkConfig {
            base_seed: 0,
            steps_per_session: 8,
            mix: MarkovModel::presets(),
            policy: AdaptivePolicy::default(),
        }
    }
}

/// Live result-steered sessions: each user runs a fresh Markov walk whose
/// next interaction may be overridden by the [`AdaptivePolicy`] inspecting
/// what the previous step's queries returned.
pub struct AdaptiveSource<'a> {
    dashboard: &'a Dashboard,
    config: AdaptiveWalkConfig,
    sessions: usize,
}

impl<'a> AdaptiveSource<'a> {
    /// Sessions over `dashboard` under `config`.
    ///
    /// # Panics
    /// If the model mix is empty.
    pub fn new(dashboard: &'a Dashboard, config: AdaptiveWalkConfig, sessions: usize) -> Self {
        assert!(
            !config.mix.is_empty(),
            "adaptive walk config needs at least one Markov model"
        );
        AdaptiveSource {
            dashboard,
            config,
            sessions,
        }
    }
}

impl SessionSource for AdaptiveSource<'_> {
    fn mode(&self) -> &'static str {
        "adaptive"
    }

    fn sessions(&self) -> usize {
        self.sessions
    }

    fn steering_policy(&self) -> Option<String> {
        Some(self.config.policy.describe())
    }

    fn open(&self, user: usize) -> Box<dyn SessionStream + '_> {
        let seed = self.config.base_seed ^ splitmix(user as u64 + 1);
        let model = self.config.mix[user % self.config.mix.len()].clone();
        Box::new(AdaptiveStream {
            planner: SessionPlanner::new(self.dashboard, model),
            policy: &self.config.policy,
            walk_rng: ChaCha8Rng::seed_from_u64(seed),
            seed,
            remaining: self.config.steps_per_session,
            last: None,
        })
    }
}

/// What the previous step left behind, for the steering decision.
struct LastStep {
    /// The applied action (`None` for the initial render).
    action: Option<Action>,
    /// Node of each emitted query, position-aligned with the feedback.
    nodes: Vec<NodeId>,
    /// Was the step itself a steering correction? A correction is given
    /// one normal step to play out — never steer twice in a row.
    steered: bool,
}

struct AdaptiveStream<'a> {
    planner: SessionPlanner<'a>,
    policy: &'a AdaptivePolicy,
    walk_rng: ChaCha8Rng,
    seed: u64,
    remaining: usize,
    /// `None` until the initial render.
    last: Option<LastStep>,
}

impl AdaptiveStream<'_> {
    fn record(&mut self, planned: PlannedStep, steered: bool) -> SourceStep {
        let step = SourceStep::planned(&self.planner, &planned);
        self.last = Some(LastStep {
            action: planned.action,
            nodes: planned.nodes,
            steered,
        });
        step
    }

    /// Ask the policy for a correction to the previous step.
    fn steer(&self, feedback: &[QueryFeedback<'_>]) -> Option<(SteeringKind, Action)> {
        let last = self.last.as_ref()?;
        if last.steered || !self.policy.is_enabled() {
            return None;
        }
        let views: Vec<StepObservation<'_>> = last
            .nodes
            .iter()
            .zip(feedback)
            .map(|(node, fb)| StepObservation {
                vis: *node,
                outcome: *fb,
            })
            .collect();
        self.policy.steer(
            self.planner.dashboard(),
            self.planner.state(),
            last.action.as_ref(),
            &views,
        )
    }
}

impl SessionStream for AdaptiveStream<'_> {
    fn session_seed(&self) -> u64 {
        self.seed
    }

    fn next_step(&mut self, feedback: &[QueryFeedback<'_>]) -> Option<SourceStep> {
        if self.last.is_none() {
            let planned = self.planner.initial_render();
            return Some(self.record(planned, false));
        }
        if self.remaining == 0 {
            return None;
        }
        let (steering, planned) = match self.steer(feedback) {
            Some((kind, action)) => (Some(kind), self.planner.apply(action)),
            None => (None, self.planner.plan_next(&mut self.walk_rng)?),
        };
        self.remaining -= 1;
        let mut step = self.record(planned, steering.is_some());
        step.steering = steering;
        Some(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::batch::{synthesize_scripts, BatchConfig};
    use crate::spec::builtin::builtin;
    use simba_data::DashboardDataset;

    fn dashboard() -> (Dashboard, std::sync::Arc<simba_store::Table>) {
        let ds = DashboardDataset::CustomerService;
        let table = std::sync::Arc::new(ds.generate_rows(400, 9));
        (Dashboard::new(builtin(ds), &table).unwrap(), table)
    }

    fn drain(stream: &mut dyn SessionStream) -> Vec<SourceStep> {
        let mut steps = Vec::new();
        while let Some(step) = stream.next_step(&[]) {
            steps.push(step);
        }
        steps
    }

    #[test]
    fn scripted_source_replays_scripts_verbatim() {
        let (dash, _table) = dashboard();
        let config = BatchConfig {
            base_seed: 5,
            steps_per_session: 4,
            ..Default::default()
        };
        let scripts = synthesize_scripts(&dash, &config, 3);
        let source = ScriptedSource::borrowed(&scripts);
        assert_eq!(source.mode(), "scripted");
        assert_eq!(source.sessions(), 3);
        assert!(source.steering_policy().is_none());
        for (user, script) in scripts.iter().enumerate() {
            let mut stream = source.open(user);
            assert_eq!(stream.session_seed(), script.seed);
            let steps = drain(stream.as_mut());
            assert_eq!(steps.len(), script.steps.len());
            for (got, want) in steps.iter().zip(&script.steps) {
                assert_eq!(got.description, want.action);
                assert_eq!(got.steering, None);
                assert_eq!(got.queries.len(), want.queries.len());
                for ((vis, q), sq) in got.queries.iter().zip(&want.queries) {
                    assert_eq!(vis.as_str(), &*sq.vis);
                    assert_eq!(q.to_string(), sq.query.to_string());
                }
            }
        }
    }

    #[test]
    fn adaptive_stream_without_feedback_matches_plain_walk() {
        let (dash, _table) = dashboard();
        let config = AdaptiveWalkConfig {
            base_seed: 77,
            steps_per_session: 5,
            policy: AdaptivePolicy::disabled(),
            ..Default::default()
        };
        // With steering disabled and no feedback, the stream is exactly the
        // batch synthesizer's walk for the same (seed, model) pair.
        let scripts = synthesize_scripts(
            &dash,
            &BatchConfig {
                base_seed: 77,
                steps_per_session: 5,
                mix: config.mix.clone(),
            },
            2,
        );
        let source = AdaptiveSource::new(&dash, config, 2);
        assert_eq!(source.mode(), "adaptive");
        assert_eq!(source.steering_policy().as_deref(), Some("none"));
        for (user, script) in scripts.iter().enumerate() {
            let mut stream = source.open(user);
            assert_eq!(stream.session_seed(), script.seed);
            let descriptions: Vec<String> = drain(stream.as_mut())
                .into_iter()
                .map(|s| s.description)
                .collect();
            let expected: Vec<String> = script.steps.iter().map(|s| s.action.clone()).collect();
            assert_eq!(descriptions, expected, "user {user}");
        }
    }

    #[test]
    fn adaptive_stream_steers_on_empty_feedback_once() {
        let (dash, _table) = dashboard();
        let source = AdaptiveSource::new(
            &dash,
            AdaptiveWalkConfig {
                base_seed: 3,
                steps_per_session: 4,
                policy: AdaptivePolicy {
                    backtrack_on_empty: true,
                    drill_into_top_group: false,
                },
                ..Default::default()
            },
            1,
        );
        let mut stream = source.open(0);
        let render = stream.next_step(&[]).expect("initial render");
        assert_eq!(render.description, "open dashboard");

        // Feed a "filter emptied a chart" observation: the next step must be
        // the backtrack — but only if the previous action was a filter, so
        // walk until one is.
        let empty = ResultSet::empty(vec!["x".to_string()]);
        let mut steered = None;
        let mut feedback: Vec<ResultSet> = Vec::new();
        for _ in 0..6 {
            let fb: Vec<QueryFeedback<'_>> = feedback.iter().map(QueryFeedback::Ok).collect();
            let Some(step) = stream.next_step(&fb) else {
                break;
            };
            if step.steering.is_some() {
                steered = Some(step);
                break;
            }
            // Pretend every refreshed chart came back empty.
            feedback = step.queries.iter().map(|_| empty.clone()).collect();
        }
        let steered = steered.expect("an emptying filter must eventually be backtracked");
        assert_eq!(steered.steering, Some(SteeringKind::BacktrackOnEmpty));
        assert!(
            steered.description.starts_with("clear") || steered.description.starts_with("reset"),
            "backtrack must widen, got: {}",
            steered.description
        );
    }

    #[test]
    fn sources_reopen_deterministically() {
        let (dash, _table) = dashboard();
        let source = AdaptiveSource::new(
            &dash,
            AdaptiveWalkConfig {
                base_seed: 12,
                steps_per_session: 6,
                ..Default::default()
            },
            2,
        );
        for user in 0..2 {
            let a: Vec<String> = drain(source.open(user).as_mut())
                .into_iter()
                .map(|s| s.description)
                .collect();
            let b: Vec<String> = drain(source.open(user).as_mut())
                .into_iter()
                .map(|s| s.description)
                .collect();
            assert_eq!(a, b);
        }
    }
}
