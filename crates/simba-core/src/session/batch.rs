//! Batch session synthesis for the concurrent workload driver: each user's
//! Markov walk, taken before any query runs, as a [`SessionScript`] — a
//! fully materialized query sequence `simba-driver` replays against shared
//! `Dbms` instances. Scripts are deterministic in the batch seed, and a
//! batch draws each user's model from a configurable mix, following Battle
//! et al.'s observation that real deployments serve *heterogeneous* user
//! populations, not N copies of one behavior.
//!
//! # What a script costs
//!
//! A batch holds each distinct chart query once. Analysts return to states
//! they left (Saha et al.), and many users over one dashboard ask the same
//! charts (Eichmann et al.): of the 8,199 queries in 12 × 192 interactions
//! over `customer_service`, 2,287 are distinct. Every step query is a
//! [`ScriptQuery`] of 24 B, a shared visualization id and a shared
//! [`Select`]. So a batch costs its distinct queries (about 1.3 KB each)
//! plus 24 B per step query: 3.2 MB for that batch.
//!
//! Synthesis finds repeats through a memo that lives only while the batch
//! is built. Its key is exactly what a chart query is a function of
//! ([`vis_query`](crate::graph::data_layer::vis_query)): the visualization
//! node and the states of its ancestors, each written by
//! [`NodeState::write_key`](crate::graph::NodeState) (strings
//! length-prefixed, range bounds by their bits). A repeat is never built:
//! it costs one key written and one probe. The memo never compares queries,
//! because `Select`'s `Eq` equates `Int(1)` with `Float(1.0)`, which print
//! and execute differently. Nor does it use the state's `==`, which equates
//! range bounds `0.0` and `-0.0`. Two states may still print one SQL text
//! (a checked queue and a selected bar on that queue); such a query is held
//! twice, never merged. The batch above builds 2,423 queries.

use super::planner::{PlannedStep, SessionPlanner};
use crate::dashboard::Dashboard;
use crate::graph::{DashboardState, NodeId};
use crate::markov::MarkovModel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simba_sql::Select;
use simba_store::ProbeMap;
use std::sync::Arc;

/// One query a session step emits. Steps that emit the same chart query
/// share one `Select` (see the module docs).
#[derive(Debug, Clone)]
pub struct ScriptQuery {
    /// Visualization node id that issues the query.
    pub vis: Arc<str>,
    pub query: Arc<Select>,
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
    let mut memo = QueryMemo::new(dash);
    (0..sessions)
        .map(|user| synthesize_one(dash, config, user, &mut memo))
        .collect()
}

fn synthesize_one(
    dash: &Dashboard,
    config: &BatchConfig,
    user: usize,
    memo: &mut QueryMemo<'_>,
) -> SessionScript {
    let seed = config.base_seed ^ splitmix(user as u64 + 1);
    let model = &config.mix[user % config.mix.len()];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut planner = SessionPlanner::new(dash, model.clone());

    let mut to_step = |planned: PlannedStep, state: &DashboardState| ScriptStep {
        action: planned.description,
        queries: planned
            .nodes
            .iter()
            .map(|&n| memo.query(state, n))
            .collect(),
    };

    let mut steps = vec![to_step(planner.initial_render(), planner.state())];
    for _ in 0..config.steps_per_session {
        let Some(planned) = planner.plan_next(&mut rng) else {
            break;
        };
        steps.push(to_step(planned, planner.state()));
    }

    SessionScript {
        user,
        seed,
        model: model.name,
        steps,
    }
}

/// A batch's chart queries, each built once, keyed by the visualization
/// node and its ancestors' states (see the module docs).
struct QueryMemo<'d> {
    dashboard: &'d Dashboard,
    /// Per node: its visualization id, shared by every query it issues.
    ids: Vec<Arc<str>>,
    /// Per node: the nodes whose state its query reads, in node order.
    ancestors: Vec<Vec<NodeId>>,
    queries: ProbeMap<Box<[u8]>, Arc<Select>>,
    /// The key being probed, reused across probes.
    key: Vec<u8>,
}

impl<'d> QueryMemo<'d> {
    fn new(dashboard: &'d Dashboard) -> Self {
        let graph = dashboard.graph();
        let nodes = (0..graph.node_count()).map(NodeId);
        QueryMemo {
            dashboard,
            ids: nodes.clone().map(|n| Arc::from(graph.id(n))).collect(),
            ancestors: nodes.map(|n| graph.ancestors(n)).collect(),
            queries: ProbeMap::default(),
            key: Vec::new(),
        }
    }

    /// Visualization `node`'s query in `state`, built only if no earlier
    /// step of the batch saw the same key.
    fn query(&mut self, state: &DashboardState, node: NodeId) -> ScriptQuery {
        self.key.clear();
        self.key.extend_from_slice(&(node.0 as u64).to_le_bytes());
        for &a in &self.ancestors[node.0] {
            state.node(a).write_key(&mut self.key);
        }
        let query = match self.queries.get(self.key.as_slice()) {
            Some(query) => Arc::clone(query),
            None => {
                let query = Arc::new(self.dashboard.query_for(state, node));
                self.queries
                    .insert(self.key.as_slice().into(), Arc::clone(&query));
                query
            }
        };
        ScriptQuery {
            vis: Arc::clone(&self.ids[node.0]),
            query,
        }
    }
}

/// The workspace seed mixer, under the name the driver and the harness
/// binaries derive session seeds with.
pub use simba_store::mix::splitmix64 as splitmix;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NodeState, WidgetState};
    use crate::spec::builtin::builtin;
    use simba_data::DashboardDataset;
    use simba_sql::parse_select;
    use std::collections::HashMap;

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

    #[test]
    fn repeats_share_one_query_within_and_across_sessions() {
        let d = dash();
        let config = BatchConfig {
            base_seed: 7,
            steps_per_session: 48,
            mix: MarkovModel::presets(),
        };
        let scripts = synthesize_scripts(&d, &config, 4);

        // Every session opens on the same dashboard: the renders share.
        for other in &scripts[1..] {
            for (a, b) in scripts[0].steps[0]
                .queries
                .iter()
                .zip(&other.steps[0].queries)
            {
                assert!(Arc::ptr_eq(&a.query, &b.query), "{}", a.query);
                assert!(Arc::ptr_eq(&a.vis, &b.vis));
            }
        }

        // A session that comes back to a chart it already drew reuses it.
        let returns = scripts.iter().find_map(|script| {
            let queries: Vec<&ScriptQuery> =
                script.steps[1..].iter().flat_map(|s| &s.queries).collect();
            (1..queries.len()).find_map(|i| {
                let sql = queries[i].query.to_string();
                let early = queries[..i]
                    .iter()
                    .find(|e| e.vis == queries[i].vis && e.query.to_string() == sql)?;
                Some((*early, queries[i]))
            })
        });
        let (early, late) = returns.expect("a session returns to a chart within 48 steps");
        assert!(Arc::ptr_eq(&early.query, &late.query), "{}", late.query);

        // Sharing never merges two queries that print differently. (The
        // converse need not hold: a checked queue and a selected bar on the
        // same queue are two states with one SQL text, held twice.)
        let mut by_pointer: HashMap<*const Select, String> = HashMap::new();
        for q in scripts
            .iter()
            .flat_map(|s| &s.steps)
            .flat_map(|s| &s.queries)
        {
            let sql = q.query.to_string();
            let first = by_pointer
                .entry(Arc::as_ptr(&q.query))
                .or_insert_with(|| sql.clone());
            assert_eq!(*first, sql);
        }
    }

    #[test]
    fn memo_never_shares_across_literal_spellings() {
        // `Select`'s `Eq` compares literals by value: keyed on it, a memo
        // would hand `x > 1.0` to a step that emits `x > 1`.
        let int = parse_select("SELECT COUNT(*) FROM t WHERE x > 1").unwrap();
        let float = parse_select("SELECT COUNT(*) FROM t WHERE x > 1.0").unwrap();
        assert_eq!(int, float);
        assert_ne!(int.to_string(), float.to_string());

        // The memo keys on states, range bounds by their bits. A lower
        // bound spelled `1` and `1.0`, and bounds `0.0` and `-0.0` (which
        // the state's `==` equates), each get their own query, and each
        // query is exactly what the data layer builds for its state.
        let ds = DashboardDataset::ItMonitor;
        let d = Dashboard::new(builtin(ds), &ds.generate_rows(500, 11)).unwrap();
        let slider = d.graph().node("response_slider").unwrap();
        let chart = d.graph().node("cpu_by_host").unwrap();
        let at = |lo: f64, hi: f64| {
            let mut state = d.initial_state();
            *state.node_mut(slider) = NodeState::Widget(WidgetState::Range {
                bounds: Some((lo, hi)),
            });
            state
        };
        let states = [at(1.0, 3.0), at(1.0, 3.5), at(0.0, 0.5), at(-0.0, 0.5)];
        let mut memo = QueryMemo::new(&d);
        let queries: Vec<ScriptQuery> = states.iter().map(|s| memo.query(s, chart)).collect();
        let sql: Vec<String> = queries.iter().map(|q| q.query.to_string()).collect();
        for (state, sql) in states.iter().zip(&sql) {
            assert_eq!(*sql, d.query_for(state, chart).to_string());
        }
        assert!(sql[0].contains("BETWEEN 1 AND 3"), "{}", sql[0]);
        assert!(sql[1].contains("BETWEEN 1.0 AND 3.5"), "{}", sql[1]);
        assert!(sql[2].contains("BETWEEN 0.0 AND 0.5"), "{}", sql[2]);
        assert!(sql[3].contains("BETWEEN -0.0 AND 0.5"), "{}", sql[3]);
        assert_eq!(states[2], states[3], "`==` equates the zeros");
        for (i, a) in queries.iter().enumerate() {
            for b in &queries[i + 1..] {
                assert!(
                    !Arc::ptr_eq(&a.query, &b.query),
                    "{} / {}",
                    a.query,
                    b.query
                );
            }
        }
        // The same bits probe back to the same query.
        let again = memo.query(&at(-0.0, 0.5), chart);
        assert!(Arc::ptr_eq(&again.query, &queries[3].query));
    }
}
