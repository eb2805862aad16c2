//! Benchmark harness for the SIMBA paper's tables and figures.
//!
//! ## The `bench` CLI
//!
//! Every scenario — built-in or from a JSON spec file — runs through the
//! `bench` binary. The usage below *is* `--help`: both this page and the
//! binary render `src/bench_usage.txt`, so they cannot drift apart.
//!
//! ```text
#![doc = include_str!("bench_usage.txt")]
//! ```
//!
//! ## Experiment binaries
//!
//! Each remaining binary under `src/bin/` regenerates one of the paper's
//! experiments:
//!
//! | binary | experiment |
//! |---|---|
//! | `table3_grid` | Table 3's parameter grid |
//! | `figure7_dashboards` | Figure 7: per-dashboard query durations |
//! | `figure8_workflows` | Figure 8: durations by workflow × dashboard |
//! | `table4_workload_stats` | Table 4: workload shape statistics |
//! | `figure9_idebench` | Figure 9: IDEBench dashboard variance |
//! | `user_study_probe` | §6.4: realism probe + binomial test |
//! | `dbms_shootout` | §6 headline: four engines × dataset sizes |
//! | `ablation_interleave` | interleaving ablation (P(Markov) ∈ {0, ½, 1}) |
//! | `ablation_horizon` | Oracle lookahead-depth ablation |
//!
//! By default everything runs at laptop scale; set `SIMBA_ROWS` (e.g.
//! `SIMBA_ROWS=10000000`) to reproduce paper-scale runs. These binaries
//! read `SIMBA_ROWS` / `SIMBA_RUNS` / `SIMBA_SEED`; `bench` takes flags
//! only. The measured performance of the stack — end to end and per layer —
//! is the repo-root `benchmark/` package's job (see `benchmark/README.md`).

use simba_core::dashboard::Dashboard;
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_engine::Dbms;
use simba_store::Table;
use std::sync::Arc;

/// Rows used by harness binaries unless `SIMBA_ROWS` overrides.
pub const DEFAULT_ROWS: usize = 50_000;

/// Row count from the environment (`SIMBA_ROWS`), or the default.
pub fn configured_rows() -> usize {
    std::env::var("SIMBA_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_ROWS)
}

/// Runs per configuration from the environment (`SIMBA_RUNS`), default 3
/// (the paper uses 8; scale up with the env var).
pub fn configured_runs() -> u64 {
    std::env::var("SIMBA_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

/// Base seed from the environment (`SIMBA_SEED`), default 0. Harness
/// binaries derive all dataset and session seeds from it via
/// [`harness_seed`], so one env var re-rolls an entire experiment
/// reproducibly.
pub fn configured_seed() -> u64 {
    std::env::var("SIMBA_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Derive a decorrelated seed for one harness component: SplitMix64 over
/// the base seed plus the call site's salt. A plain `base ^ salt` would
/// let nearby `SIMBA_SEED` values merely permute a run loop's seed set
/// (`1 ^ {0..n}` is `{0..n}` shuffled); scrambling makes every base draw
/// a disjoint set.
pub fn harness_seed(salt: u64) -> u64 {
    simba_core::session::batch::splitmix(configured_seed().rotate_left(32).wrapping_add(salt))
}

pub mod scenario_cli;

/// Build a dataset table and its dashboard runtime.
pub fn build_context(ds: DashboardDataset, rows: usize, seed: u64) -> (Arc<Table>, Dashboard) {
    let table = Arc::new(ds.generate_rows(rows, seed));
    let dashboard = Dashboard::new(builtin(ds), &table).expect("builtin specs are valid");
    (table, dashboard)
}

/// Register a table with an engine and return it.
pub fn engine_with(kind: simba_engine::EngineKind, table: Arc<Table>) -> Arc<dyn Dbms> {
    let engine = kind.build();
    engine.register(table);
    engine
}

/// A crude console box plot: `min [p25 |p50| p75] p95 → max`, log-free.
pub fn ascii_box(summary: &simba_core::metrics::DurationSummary, width: usize) -> String {
    let max = summary.max_ms.max(1e-9);
    let pos = |v: f64| ((v / max) * (width.saturating_sub(1)) as f64).round() as usize;
    let mut chars: Vec<char> = vec![' '; width];
    let (lo, q1, med, q3, hi) = (
        pos(summary.min_ms),
        pos(summary.p25_ms),
        pos(summary.p50_ms),
        pos(summary.p75_ms),
        pos(summary.p95_ms),
    );
    for c in chars.iter_mut().take(hi.min(width - 1) + 1).skip(lo) {
        *c = '-';
    }
    for c in chars.iter_mut().take(q3.min(width - 1) + 1).skip(q1) {
        *c = '=';
    }
    if med < width {
        chars[med] = '#';
    }
    chars.into_iter().collect()
}

/// Format a millisecond value in a compact fixed width.
pub fn fmt_ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:8.1}")
    } else {
        format!("{v:8.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_core::metrics::DurationSummary;
    use std::time::Duration;

    #[test]
    fn context_builder_produces_matching_pair() {
        let (table, dashboard) = build_context(DashboardDataset::MyRide, 200, 1);
        assert_eq!(table.name(), dashboard.spec().database.table);
    }

    #[test]
    fn ascii_box_is_requested_width() {
        let ds: Vec<Duration> = (1..=50).map(Duration::from_millis).collect();
        let s = DurationSummary::from_durations(&ds).unwrap();
        let b = ascii_box(&s, 40);
        assert_eq!(b.chars().count(), 40);
        assert!(b.contains('#'));
    }

    #[test]
    fn configured_rows_defaults() {
        // Cannot set env safely in parallel tests; just check the default
        // path yields a sane value.
        assert!(configured_rows() >= 1_000);
    }
}
