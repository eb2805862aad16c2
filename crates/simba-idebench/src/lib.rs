//! IDEBench baseline: the fully stochastic interactive-exploration
//! benchmark SIMBA is compared against (§5, §6.3 of the paper).
//!
//! IDEBench (Eichmann et al., SIGMOD 2020) simulates end users as a purely
//! random process: there is no developer-specified dashboard, no analysis
//! goals, and interactions are drawn from fixed probabilities. Each run
//! implicitly *creates* a dashboard — a random set of visualizations with
//! dense links — which the paper reverse-engineers to show how unconstrained
//! variance produces unrealistic designs (Figure 9: avg 13 visualizations,
//! min 7, max 20; one interaction triggering ~9 updates).
//!
//! This crate reproduces that behavior over the same datasets and engines:
//!
//! * [`dashboard`] — random visualization-set generation with dense links;
//! * [`walk`] — the engine-free stochastic walk (add/modify/remove filters
//!   with IDEBench's default probabilities), one user's `SessionStream`;
//! * [`source`] — [`IdebenchSource`], one walk per user, so the concurrent
//!   driver runs IDEBench sessions like any other source;
//! * [`session`] — [`IdeBenchRunner`], one walk run on one engine through
//!   `simba_core`'s `run_stream`, recorded in a log;
//! * [`complexity`] — the reverse-engineered dashboard reports behind
//!   Figure 9 and the §6.3 workload-shape comparison.

pub mod complexity;
pub mod dashboard;
pub mod session;
pub mod source;
pub mod walk;

pub use complexity::DashboardComplexity;
pub use dashboard::{RandomDashboard, RandomViz};
pub use session::{ActionProbs, IdeBenchConfig, IdeBenchLog, IdeBenchRunner};
pub use source::IdebenchSource;
pub use walk::{IdeBenchWalk, IdeStep};
