//! Batch session synthesis for the concurrent workload driver: each user's
//! Markov walk, taken before any query runs, as a [`SessionScript`] — a
//! fully materialized query sequence `simba-driver` replays against shared
//! `Dbms` instances. Scripts are deterministic in the batch seed, and a
//! batch draws each user's model from a configurable mix, following Battle
//! et al.'s observation that real deployments serve *heterogeneous* user
//! populations, not N copies of one behavior.

use super::planner::{PlannedStep, SessionPlanner};
use crate::dashboard::Dashboard;
use crate::markov::MarkovModel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simba_sql::Select;

/// One query a session step emits.
#[derive(Debug, Clone)]
pub struct ScriptQuery {
    /// Visualization node id that issues the query.
    pub vis: String,
    pub query: Select,
}

/// One scripted interaction (or the initial render) and its queries.
#[derive(Debug, Clone)]
pub struct ScriptStep {
    /// Human-readable action description.
    pub action: String,
    pub queries: Vec<ScriptQuery>,
}

/// A fully materialized exploration session for one simulated user.
#[derive(Debug, Clone)]
pub struct SessionScript {
    /// Index of the user within the batch.
    pub user: usize,
    /// Session-specific seed (derived from the batch seed).
    pub seed: u64,
    /// Name of the Markov model that drove this user.
    pub model: &'static str,
    pub steps: Vec<ScriptStep>,
}

impl SessionScript {
    /// Total queries across all steps.
    pub fn query_count(&self) -> usize {
        self.steps.iter().map(|s| s.queries.len()).sum()
    }
}

/// Configuration for batch synthesis.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Base seed; user `u` runs with `base_seed ^ splitmix(u + 1)`.
    pub base_seed: u64,
    /// Interactions per session after the initial render.
    pub steps_per_session: usize,
    /// Model mix; user `u` draws `mix[u % mix.len()]`.
    pub mix: Vec<MarkovModel>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            base_seed: 0,
            steps_per_session: 8,
            mix: vec![
                MarkovModel::idebench_default(),
                MarkovModel::uniform(),
                MarkovModel::brush_heavy(),
                MarkovModel::drilldown(),
            ],
        }
    }
}

/// Pre-generate `sessions` scripted sessions against one dashboard.
pub fn synthesize_scripts(
    dash: &Dashboard,
    config: &BatchConfig,
    sessions: usize,
) -> Vec<SessionScript> {
    assert!(
        !config.mix.is_empty(),
        "batch config needs at least one Markov model"
    );
    (0..sessions)
        .map(|user| synthesize_one(dash, config, user))
        .collect()
}

fn synthesize_one(dash: &Dashboard, config: &BatchConfig, user: usize) -> SessionScript {
    let seed = config.base_seed ^ splitmix(user as u64 + 1);
    let model = &config.mix[user % config.mix.len()];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut planner = SessionPlanner::new(dash, model.clone());

    let to_step = |planned: PlannedStep| ScriptStep {
        action: planned.description,
        queries: planned
            .queries
            .into_iter()
            .map(|(node, query)| ScriptQuery {
                vis: dash.graph().id(node).to_string(),
                query,
            })
            .collect(),
    };

    let mut steps = vec![to_step(planner.initial_render())];
    for _ in 0..config.steps_per_session {
        let Some(planned) = planner.plan_next(&mut rng) else {
            break;
        };
        steps.push(to_step(planned));
    }

    SessionScript {
        user,
        seed,
        model: model.name,
        steps,
    }
}

/// The workspace seed mixer, under the name the driver and the harness
/// binaries derive session seeds with.
pub use simba_store::mix::splitmix64 as splitmix;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::builtin::builtin;
    use simba_data::DashboardDataset;

    fn dash() -> Dashboard {
        let ds = DashboardDataset::CustomerService;
        let table = ds.generate_rows(500, 11);
        Dashboard::new(builtin(ds), &table).unwrap()
    }

    #[test]
    fn batches_are_deterministic() {
        let d = dash();
        let config = BatchConfig {
            base_seed: 42,
            ..Default::default()
        };
        let a = synthesize_scripts(&d, &config, 6);
        let b = synthesize_scripts(&d, &config, 6);
        assert_eq!(a.len(), 6);
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa.seed, sb.seed);
            assert_eq!(sa.steps.len(), sb.steps.len());
            for (ta, tb) in sa.steps.iter().zip(&sb.steps) {
                assert_eq!(ta.action, tb.action);
                let qa: Vec<String> = ta.queries.iter().map(|q| q.query.to_string()).collect();
                let qb: Vec<String> = tb.queries.iter().map(|q| q.query.to_string()).collect();
                assert_eq!(qa, qb);
            }
        }
    }

    #[test]
    fn scripts_start_with_full_render_and_respect_step_bound() {
        let d = dash();
        let config = BatchConfig {
            base_seed: 7,
            steps_per_session: 5,
            ..Default::default()
        };
        for script in synthesize_scripts(&d, &config, 4) {
            assert_eq!(script.steps[0].action, "open dashboard");
            assert_eq!(
                script.steps[0].queries.len(),
                d.all_queries(&d.initial_state()).len()
            );
            assert!(script.steps.len() <= 6, "render + at most 5 interactions");
            assert!(script.query_count() >= script.steps[0].queries.len());
        }
    }

    #[test]
    fn users_are_heterogeneous() {
        let d = dash();
        let scripts = synthesize_scripts(&d, &BatchConfig::default(), 4);
        // Model mix rotates...
        let models: Vec<&str> = scripts.iter().map(|s| s.model).collect();
        assert_eq!(
            models
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            4
        );
        // ...and seeds decorrelate, so action sequences differ.
        let flat: Vec<String> = scripts
            .iter()
            .map(|s| {
                s.steps
                    .iter()
                    .map(|t| t.action.clone())
                    .collect::<Vec<_>>()
                    .join(";")
            })
            .collect();
        assert!(
            flat.windows(2).any(|w| w[0] != w[1]),
            "all sessions identical: {flat:?}"
        );
    }

    #[test]
    fn scripted_queries_reference_known_fields() {
        let d = dash();
        let config = BatchConfig {
            base_seed: 3,
            steps_per_session: 6,
            ..Default::default()
        };
        for script in synthesize_scripts(&d, &config, 3) {
            for step in &script.steps {
                for q in &step.queries {
                    assert_eq!(q.query.from, d.spec().database.table);
                    for col in q.query.referenced_columns() {
                        assert!(
                            d.spec().database.field(col).is_some(),
                            "unknown field `{col}` in {}",
                            q.query
                        );
                    }
                }
            }
        }
    }
}
