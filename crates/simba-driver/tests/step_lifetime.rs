//! A step's results live only until the session's stream has read them:
//! when the first query of step k + 1 reaches the engine, the driver holds
//! no result of step k, so two steps' results never peak together.
//!
//! The engine puts a fresh `Arc<str>` into every result and keeps a `Weak`
//! to it; at each step's first query it tries to upgrade every `Weak` of
//! the steps before. Each query names its step and chart in two literal
//! projections, so the engine needs nothing from the driver but the query.
//! The stream reads each result it is fed and keeps nothing.

use simba_core::session::source::{QueryFeedback, SessionSource, SessionStream, SourceStep};
use simba_driver::{Driver, DriverConfig};
use simba_engine::{Dbms, EngineError, ExecStats, QueryOutput};
use simba_sql::{parse_select, Expr, Literal, Select};
use simba_store::{ResultSet, Table, Value};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

const STEPS: usize = 6;
const CHARTS: usize = 3;

/// Answers every query with one fresh string and remembers a `Weak` to it.
#[derive(Default)]
struct WatchingEngine {
    /// `(step, string)` of every result handed out.
    handed_out: Mutex<Vec<(u64, Weak<str>)>>,
    /// `(step, earlier step)` for each earlier result still alive when a
    /// step's first query arrived.
    alive: Mutex<Vec<(u64, u64)>>,
    /// Step-opening queries seen.
    checks: Mutex<usize>,
}

impl Dbms for WatchingEngine {
    fn name(&self) -> &'static str {
        "watching"
    }

    fn register(&self, _table: Arc<Table>) {}

    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
        let (at_step, chart) = position(query);
        let mut handed_out = self.handed_out.lock().unwrap();
        if chart == 0 {
            *self.checks.lock().unwrap() += 1;
            let mut alive = self.alive.lock().unwrap();
            for (step, weak) in handed_out.iter() {
                if *step < at_step && weak.upgrade().is_some() {
                    alive.push((at_step, *step));
                }
            }
        }
        let cell: Arc<str> = Arc::from(format!("step {at_step} chart {chart}"));
        handed_out.push((at_step, Arc::downgrade(&cell)));
        Ok(QueryOutput {
            result: ResultSet::new(
                vec!["label".into(), "n".into()],
                vec![vec![Value::Str(cell), Value::Int(chart as i64)]],
            ),
            stats: ExecStats::default(),
            elapsed: Duration::ZERO,
        })
    }
}

/// The `(step, chart)` a [`StepStream`] query names in its two projections.
fn position(query: &Select) -> (u64, u64) {
    let literal = |i: usize| match &query.projections[i].expr {
        Expr::Literal(Literal::Int(n)) => *n as u64,
        other => panic!("projection {i} is not a position literal: {other:?}"),
    };
    (literal(0), literal(1))
}

/// `STEPS` steps of `CHARTS` charts each.
struct Steps;

struct StepStream {
    taken: usize,
}

impl SessionStream for StepStream {
    fn session_seed(&self) -> u64 {
        1
    }

    fn next_step(&mut self, feedback: &[QueryFeedback<'_>]) -> Option<SourceStep> {
        let expected = if self.taken == 0 { 0 } else { CHARTS };
        assert_eq!(feedback.len(), expected, "the previous step's results");
        for (chart, fed) in feedback.iter().enumerate() {
            let result = fed.result().expect("every chart answers");
            let label = format!("step {} chart {chart}", self.taken - 1);
            assert_eq!(result.value(0, 0), Value::str(label));
        }
        if self.taken == STEPS {
            return None;
        }
        let step = self.taken;
        self.taken += 1;
        Some(SourceStep {
            description: format!("step {step}"),
            steering: None,
            queries: (0..CHARTS)
                .map(|c| {
                    let query = format!("SELECT {step} AS step, {c} AS chart FROM t");
                    (format!("c{c}"), parse_select(&query).unwrap())
                })
                .collect(),
        })
    }
}

impl SessionSource for Steps {
    fn mode(&self) -> &'static str {
        "steps"
    }

    fn sessions(&self) -> usize {
        1
    }

    fn open(&self, _user: usize) -> Box<dyn SessionStream + '_> {
        Box::new(StepStream { taken: 0 })
    }
}

#[test]
fn a_steps_results_are_freed_before_the_next_step_reaches_the_engine() {
    let engine = Arc::new(WatchingEngine::default());
    let driver = Driver::new(DriverConfig {
        workers: 1,
        collect_fingerprints: true,
        ..DriverConfig::default()
    });
    let outcome = driver.run_source(engine.clone(), &Steps);
    assert_eq!(outcome.report.queries as usize, STEPS * CHARTS);
    assert_eq!(outcome.report.errors, 0);
    assert_eq!(*engine.checks.lock().unwrap(), STEPS);
    assert_eq!(*engine.alive.lock().unwrap(), Vec::<(u64, u64)>::new());
    // The run is over: nothing the engine handed out is alive.
    let handed_out = engine.handed_out.lock().unwrap();
    assert_eq!(handed_out.len(), STEPS * CHARTS);
    assert!(handed_out.iter().all(|(_, weak)| weak.upgrade().is_none()));
}
