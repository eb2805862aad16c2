//! # SIMBA: a SImulation-BAsed benchmark for interactive data exploration
//!
//! Reproduction of "An Adaptive Benchmark for Modeling User Exploration of
//! Large Datasets" (SIGMOD 2025). SIMBA simulates how an analyst explores a
//! *developer-specified dashboard* in pursuit of *analysis goals*, and
//! measures DBMS performance on the SQL workload those interactions emit.
//!
//! The crate mirrors the paper's architecture:
//!
//! * [`algebra`] — the goal algebra (§2), its six reusable templates
//!   (Table 2), and translation to SQL goal queries.
//! * [`spec`] — the JSON dashboard specification language (§3.0.1) and the
//!   six built-in dashboards from the evaluation (Figure 6).
//! * [`graph`] — the interaction graph joining the Interaction Layer and
//!   Data Layer (§3.0.2–3.0.3).
//! * [`actions`] — allowable data manipulations and their enumeration.
//! * [`equivalence`] — syntactic / semantic / result equivalence between
//!   emitted queries and goal queries (§4.1.2).
//! * [`oracle`] — the goal-directed LookAhead planner (§4.1, Algorithm 1).
//! * [`markov`] — the stochastic open-ended exploration model (§4.2).
//! * [`session`] — interleaving of the two models with exponential decay
//!   (§4.3), workflows, and the session runner producing logs.
//! * [`metrics`] — query-duration summaries, workload-shape statistics
//!   (Table 4), and the realism probe (§6.4).

pub mod actions;
pub mod algebra;
pub mod dashboard;
pub mod equivalence;
pub mod error;
pub mod graph;
pub mod markov;
pub mod metrics;
pub mod oracle;
pub mod session;
pub mod spec;

pub use actions::{Action, ActionKind, FieldDomains};
pub use algebra::templates::{FieldChoice, Goal, GoalTemplateKind};
pub use algebra::{parse::parse_goal, GoalExpr};
pub use dashboard::Dashboard;
pub use error::CoreError;
pub use graph::{DashboardState, InteractionGraph, NodeId};
pub use spec::DashboardSpec;
