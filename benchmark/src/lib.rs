//! The SIMBA benchmark: interaction latency end to end, per-crate layer
//! metrics, four workloads, one traced pass. See `README.md` for what is
//! measured and why; `BENCHMARK.json` at the repository root names every
//! workload, metric and bound.

pub mod agree;
pub mod check;
pub mod env;
pub mod heap;
pub mod probe;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod workloads;

/// Every binary that links this library can count its heap (see [`heap`]).
#[global_allocator]
static HEAP: heap::CountingAlloc = heap::CountingAlloc;

/// Length of the measured window when `--seconds` is not given; equals
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;
