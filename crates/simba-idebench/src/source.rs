//! IDEBench sessions as a [`SessionSource`]. Each user walks an independent
//! [`IdeBenchWalk`] — their own implicit random dashboard and their own
//! filter storm — seeded with the same per-user derivation as batch
//! synthesis (`base_seed ^ splitmix(user + 1)`), so a multi-user IDEBench
//! workload reseeds one knob like every other source.

use crate::session::{ActionProbs, IdeBenchConfig};
use crate::walk::IdeBenchWalk;
use simba_core::session::batch::splitmix;
use simba_core::session::source::{SessionSource, SessionStream};
use simba_store::Table;
use std::sync::Arc;

/// IDEBench-style sessions as a [`SessionSource`]: purely stochastic filter
/// mutations over per-user implicit dashboards.
pub struct IdebenchSource {
    table: Arc<Table>,
    base_seed: u64,
    sessions: usize,
    interactions: usize,
    probs: ActionProbs,
}

impl IdebenchSource {
    /// `sessions` independent runs over `table`, each `interactions` steps
    /// past the initial render.
    pub fn new(table: Arc<Table>, base_seed: u64, sessions: usize, interactions: usize) -> Self {
        IdebenchSource {
            table,
            base_seed,
            sessions,
            interactions,
            probs: ActionProbs::default(),
        }
    }

    /// Override the action probabilities.
    pub fn with_probs(mut self, probs: ActionProbs) -> Self {
        self.probs = probs;
        self
    }

    /// The exact single-run configuration user `user` walks with. Handed
    /// to [`IdeBenchRunner`](crate::IdeBenchRunner) it runs the very walk
    /// this source opens for that user, so the two agree by construction.
    pub fn session_config(&self, user: usize) -> IdeBenchConfig {
        IdeBenchConfig {
            seed: self.base_seed ^ splitmix(user as u64 + 1),
            interactions: self.interactions,
            probs: self.probs.clone(),
        }
    }
}

impl SessionSource for IdebenchSource {
    fn mode(&self) -> &'static str {
        "idebench"
    }

    fn sessions(&self) -> usize {
        self.sessions
    }

    fn open(&self, user: usize) -> Box<dyn SessionStream + '_> {
        Box::new(IdeBenchWalk::new(&self.table, &self.session_config(user)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdeBenchRunner;
    use simba_data::DashboardDataset;
    use simba_engine::EngineKind;

    #[test]
    fn source_streams_match_single_runner_sessions() {
        let table = Arc::new(DashboardDataset::ItMonitor.generate_rows(1_500, 3));
        let source = IdebenchSource::new(table.clone(), 42, 2, 5);
        assert_eq!(source.mode(), "idebench");
        assert_eq!(source.sessions(), 2);
        assert!(source.steering_policy().is_none());

        let engine = EngineKind::SqliteLike.build();
        engine.register(table.clone());

        for user in 0..2 {
            let log = IdeBenchRunner::new(&table, engine.as_ref(), source.session_config(user))
                .run()
                .unwrap();
            let mut stream = source.open(user);
            assert_eq!(stream.session_seed(), source.session_config(user).seed);
            let mut streamed: Vec<(String, Vec<String>)> = Vec::new();
            while let Some(step) = stream.next_step(&[]) {
                streamed.push((
                    step.description,
                    step.queries.iter().map(|(_, q)| q.to_string()).collect(),
                ));
            }
            let legacy: Vec<(String, Vec<String>)> = log
                .interactions
                .iter()
                .map(|i| {
                    (
                        i.action.clone(),
                        i.queries.iter().map(|q| q.sql.clone()).collect(),
                    )
                })
                .collect();
            assert_eq!(streamed, legacy, "user {user}");
        }
    }

    #[test]
    fn users_get_distinct_dashboards() {
        let table = Arc::new(DashboardDataset::ItMonitor.generate_rows(800, 5));
        let source = IdebenchSource::new(table, 7, 3, 3);
        let first_queries: Vec<Vec<String>> = (0..3)
            .map(|u| {
                let mut stream = source.open(u);
                let render = stream.next_step(&[]).expect("render");
                render.queries.iter().map(|(_, q)| q.to_string()).collect()
            })
            .collect();
        assert!(
            first_queries.windows(2).any(|w| w[0] != w[1]),
            "independent seeds should diverge: {first_queries:?}"
        );
    }
}
