//! The engine-free IDEBench walk: implicit-dashboard creation, the
//! accumulated per-visualization filter state, and the add/modify/remove
//! draws, as a [`SessionStream`] of steps. Whoever consumes it executes
//! them: [`IdeBenchRunner`](crate::session::IdeBenchRunner) on one engine,
//! the workload driver for [`IdebenchSource`](crate::IdebenchSource)'s
//! users.
//!
//! Rng draw order is fixed — dashboard generation first, then per step:
//! target draw, action draw, filter draws — so one seed is one session,
//! byte for byte, wherever the walk runs.

use crate::dashboard::RandomDashboard;
use crate::session::{ActionProbs, IdeBenchConfig};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simba_core::session::source::{QueryFeedback, SessionStream, SourceStep};
use simba_sql::{Expr, Select};
use simba_store::{ColumnRole, Table, Zone};

/// A filter on one column, as IDEBench composes them.
#[derive(Debug, Clone)]
pub(crate) enum IdeFilter {
    In { field: String, values: Vec<String> },
    Range { field: String, lo: f64, hi: f64 },
}

impl IdeFilter {
    fn to_expr(&self) -> Expr {
        match self {
            IdeFilter::In { field, values } => Expr::in_strs(field, values.iter().cloned()),
            IdeFilter::Range { field, lo, hi } => Expr::Between {
                expr: Box::new(Expr::col(field.clone())),
                low: Box::new(Expr::float(*lo)),
                high: Box::new(Expr::float(*hi)),
                negated: false,
            },
        }
    }

    fn field(&self) -> &str {
        match self {
            IdeFilter::In { field, .. } | IdeFilter::Range { field, .. } => field,
        }
    }
}

/// One step of the walk: the action taken and the queries it triggers.
#[derive(Debug, Clone)]
pub struct IdeStep {
    /// Step index; `0` is the initial render.
    pub step: usize,
    /// Human-readable action description.
    pub action: String,
    /// Refreshed queries: `("viz_<id>", query)`, in visualization order.
    pub queries: Vec<(String, Select)>,
}

/// Walks one IDEBench session over a table without executing queries.
pub struct IdeBenchWalk<'a> {
    table: &'a Table,
    probs: ActionProbs,
    interactions: usize,
    rng: ChaCha8Rng,
    dashboard: RandomDashboard,
    filters: Vec<Vec<IdeFilter>>,
    table_name: String,
    next_step: usize,
    seed: u64,
}

impl<'a> IdeBenchWalk<'a> {
    /// Generate the implicit dashboard and set up the walk.
    pub fn new(table: &'a Table, config: &IdeBenchConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x1DE);
        let dashboard = RandomDashboard::generate(table.schema(), &mut rng);
        let filters = vec![Vec::new(); dashboard.vizzes.len()];
        IdeBenchWalk {
            table,
            probs: config.probs.clone(),
            interactions: config.interactions,
            rng,
            dashboard,
            filters,
            table_name: table.name().to_string(),
            next_step: 0,
            seed: config.seed,
        }
    }

    /// The implicit dashboard this walk created.
    pub fn dashboard(&self) -> &RandomDashboard {
        &self.dashboard
    }

    /// Advance the walk one step (the initial render first, then
    /// `interactions` random filter mutations), or `None` when done.
    #[allow(
        clippy::should_implement_trait,
        reason = "not an Iterator: borrows state per call"
    )]
    pub fn next(&mut self) -> Option<IdeStep> {
        let step = self.next_step;
        if step > self.interactions {
            return None;
        }
        self.next_step += 1;
        if step == 0 {
            let queries = (0..self.dashboard.vizzes.len())
                .map(|viz| self.viz_query(viz))
                .collect();
            return Some(IdeStep {
                step,
                action: "initial render".into(),
                queries,
            });
        }
        let target = self.rng.gen_range(0..self.dashboard.vizzes.len());
        let action = self.random_action(target);
        // Propagate: every linked visualization re-executes.
        let queries = self
            .dashboard
            .affected(target)
            .into_iter()
            .map(|affected| self.viz_query(affected))
            .collect();
        Some(IdeStep {
            step,
            action,
            queries,
        })
    }

    /// The query a visualization currently displays: its base query plus
    /// its own accumulated filters plus filters propagated from linking
    /// sources.
    fn viz_query(&self, viz: usize) -> (String, Select) {
        let mut q = self.dashboard.vizzes[viz].base_query(&self.table_name);
        // Own filters.
        for f in &self.filters[viz] {
            q.add_filter(f.to_expr());
        }
        // Filters from sources linking into this visualization.
        for (s, t) in &self.dashboard.links {
            if *t == viz {
                for f in &self.filters[*s] {
                    q.add_filter(f.to_expr());
                }
            }
        }
        (format!("viz_{viz}"), q)
    }

    /// Draw an interaction from the configured probabilities and mutate the
    /// target's filter list.
    fn random_action(&mut self, target: usize) -> String {
        let p: f64 = self.rng.gen_range(0.0..1.0);
        let probs = self.probs.clone();
        let filters = &mut self.filters[target];
        if p < probs.add_filter || filters.is_empty() {
            let f = random_filter(self.table, &mut self.rng);
            let desc = format!("add filter on {}", f.field());
            self.filters[target].push(f);
            desc
        } else if p < probs.add_filter + probs.modify_filter {
            let idx = self.rng.gen_range(0..filters.len());
            let f = random_filter(self.table, &mut self.rng);
            let desc = format!("modify filter on {}", f.field());
            self.filters[target][idx] = f;
            desc
        } else {
            let idx = self.rng.gen_range(0..filters.len());
            let removed = self.filters[target].remove(idx);
            format!("remove filter on {}", removed.field())
        }
    }
}

/// The walk as its source's stream: IDEBench users never look at what
/// comes back, so feedback is ignored.
impl SessionStream for IdeBenchWalk<'_> {
    fn session_seed(&self) -> u64 {
        self.seed
    }

    fn next_step(&mut self, _feedback: &[QueryFeedback<'_>]) -> Option<SourceStep> {
        let step = self.next()?;
        Some(SourceStep {
            description: step.action,
            steering: None,
            queries: step.queries,
        })
    }
}

/// A uniformly random filter over a random column (IDEBench parameter
/// selection is uniform).
fn random_filter(table: &Table, rng: &mut ChaCha8Rng) -> IdeFilter {
    let schema = table.schema();
    let idx = rng.gen_range(0..schema.width());
    let def = &schema.columns[idx];
    let col = table.column(idx);
    match def.role {
        ColumnRole::Categorical => {
            let distinct: Vec<String> = col
                .distinct_values()
                .into_iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect();
            let k = rng.gen_range(1..=distinct.len().clamp(1, 3));
            let values: Vec<String> = distinct.choose_multiple(rng, k).cloned().collect();
            IdeFilter::In {
                field: def.name.clone(),
                values,
            }
        }
        _ => {
            let (lo, hi) = table
                .zone_maps()
                .column(idx)
                .and_then(Zone::f64_range)
                .unwrap_or((0.0, 0.0));
            let span = (hi - lo).max(f64::EPSILON);
            let a = lo + rng.gen_range(0.0..1.0) * span;
            let b = lo + rng.gen_range(0.0..1.0) * span;
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            IdeFilter::Range {
                field: def.name.clone(),
                lo: a,
                hi: b,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_data::DashboardDataset;

    fn table() -> Table {
        DashboardDataset::ItMonitor.generate_rows(1_000, 3)
    }

    #[test]
    fn walk_is_deterministic_and_bounded() {
        let t = table();
        let config = IdeBenchConfig {
            seed: 5,
            interactions: 7,
            ..Default::default()
        };
        let drain = || {
            let mut walk = IdeBenchWalk::new(&t, &config);
            let mut steps = Vec::new();
            while let Some(s) = walk.next() {
                steps.push(s);
            }
            steps
        };
        let a = drain();
        let b = drain();
        assert_eq!(a.len(), 8, "render + 7 interactions");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.action, y.action);
            let qa: Vec<String> = x.queries.iter().map(|(_, q)| q.to_string()).collect();
            let qb: Vec<String> = y.queries.iter().map(|(_, q)| q.to_string()).collect();
            assert_eq!(qa, qb);
        }
    }

    #[test]
    fn initial_render_covers_every_visualization() {
        let t = table();
        let mut walk = IdeBenchWalk::new(&t, &IdeBenchConfig::default());
        let n = walk.dashboard().vizzes.len();
        let render = walk.next().unwrap();
        assert_eq!(render.step, 0);
        assert_eq!(render.action, "initial render");
        assert_eq!(render.queries.len(), n);
    }
}
