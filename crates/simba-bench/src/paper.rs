//! The paper's experiments, run as `bench --scenario paper/<name>`.
//!
//! Each experiment regenerates one table or figure of the paper's §6 from
//! single-engine goal sessions ([`SessionRunner`], [`IdeBenchRunner`]) and
//! writes it to the writer it is handed; `bench` hands it stdout. They
//! print `SessionLog` facts that `RunReport` does not carry, so they sit
//! beside the driver's scenario registry rather than in it.
//!
//! Three knobs reach them, all flags ([`Knobs`]): `--rows` (default
//! 50,000; `dbms_shootout`'s largest size, default 250,000), `--runs`
//! (runs per configuration, default 3; `figure9_idebench`'s workflow
//! count, default 50) and `--seed` (default 0), from which every dataset
//! and session seed is derived.

use simba_core::dashboard::Dashboard;
use simba_core::metrics::realism::{binomial_tail, empty_result_stats};
use simba_core::metrics::{DurationSummary, WorkloadStats};
use simba_core::oracle::OracleConfig;
use simba_core::session::interleave::DecayConfig;
use simba_core::session::workflows::Workflow;
use simba_core::session::{SessionConfig, SessionRunner};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_engine::{Dbms, EngineKind};
use simba_idebench::complexity::FleetComplexity;
use simba_idebench::{DashboardComplexity, IdeBenchConfig, IdeBenchRunner};
use simba_store::Table;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Arc;

/// Rows an experiment runs at unless `--rows` says otherwise.
const DEFAULT_ROWS: usize = 50_000;

/// The flags a paper experiment reads. `None` is the experiment's own
/// default.
#[derive(Clone, Copy, Debug, Default)]
pub struct Knobs {
    /// `--rows`: dataset rows.
    pub rows: Option<usize>,
    /// `--runs`: runs per configuration.
    pub runs: Option<u64>,
    /// `--seed`: the base seed every dataset and session seed derives from.
    pub seed: u64,
}

impl Knobs {
    fn rows(&self) -> usize {
        self.rows.unwrap_or(DEFAULT_ROWS)
    }

    fn runs(&self) -> u64 {
        self.runs.unwrap_or(3)
    }

    /// Derive a decorrelated seed for one component: SplitMix64 over the
    /// base seed plus the call site's salt. A plain `base ^ salt` would let
    /// nearby `--seed` values merely permute a run loop's seed set
    /// (`1 ^ {0..n}` is `{0..n}` shuffled); scrambling makes every base
    /// draw a disjoint set.
    fn harness_seed(&self, salt: u64) -> u64 {
        simba_core::session::batch::splitmix(self.seed.rotate_left(32).wrapping_add(salt))
    }
}

/// One of the paper's experiments.
pub struct Experiment {
    /// Its name under `paper/`.
    pub name: &'static str,
    /// What it reproduces, as `bench --list` shows it.
    pub about: &'static str,
    /// Run the experiment, writing its tables to the writer.
    pub run: fn(&Knobs, &mut dyn Write) -> io::Result<()>,
}

/// Every experiment, in the paper's order.
pub static EXPERIMENTS: [Experiment; 9] = [
    Experiment {
        name: "table3_grid",
        about: "Table 3: dashboards x workflows x engines",
        run: table3_grid,
    },
    Experiment {
        name: "figure7_dashboards",
        about: "Figure 7: per-dashboard query durations",
        run: figure7_dashboards,
    },
    Experiment {
        name: "figure8_workflows",
        about: "Figure 8: durations by workflow x dashboard",
        run: figure8_workflows,
    },
    Experiment {
        name: "table4_workload_stats",
        about: "Table 4 and §6.3: workload shape statistics",
        run: table4_workload_stats,
    },
    Experiment {
        name: "figure9_idebench",
        about: "Figure 9: IDEBench dashboard variance",
        run: figure9_idebench,
    },
    Experiment {
        name: "user_study_probe",
        about: "§6.4: realism probe and binomial test",
        run: user_study_probe,
    },
    Experiment {
        name: "dbms_shootout",
        about: "§6 headline: the two engine architectures x dataset sizes",
        run: dbms_shootout,
    },
    Experiment {
        name: "ablation_interleave",
        about: "interleaving ablation, P(Markov) in {0, 1/2, 1}",
        run: ablation_interleave,
    },
    Experiment {
        name: "ablation_horizon",
        about: "Oracle look-ahead depth ablation",
        run: ablation_horizon,
    },
];

/// The experiment called `name` (without the `paper/` prefix).
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Build a dataset table and its dashboard runtime.
fn build_context(ds: DashboardDataset, rows: usize, seed: u64) -> (Arc<Table>, Dashboard) {
    let table = Arc::new(ds.generate_rows(rows, seed));
    let dashboard = Dashboard::new(builtin(ds), &table).expect("builtin specs are valid");
    (table, dashboard)
}

/// Register a table with an engine and return it.
fn engine_with(kind: EngineKind, table: Arc<Table>) -> Arc<dyn Dbms> {
    let engine = kind.build();
    engine.register(table);
    engine
}

/// A crude console box plot: `min [p25 |p50| p75] p95 → max`, log-free.
fn ascii_box(summary: &DurationSummary, width: usize) -> String {
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
fn fmt_ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:8.1}")
    } else {
        format!("{v:8.3}")
    }
}

/// Table 3: the experiment grid — dataset sizes × goal sequences
/// (workflows) × dashboards, each against every DBMS.
///
/// Paper scale is {100K, 1M, 10M} rows × 8 runs; here it is one size
/// (`--rows`) × `--runs` runs. Incompatible combinations (MyRide ×
/// correlation workflows) are reported as `n/a`, matching §6.2.3.
fn table3_grid(k: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = k.rows();
    let runs = k.runs();
    writeln!(
        out,
        "=== Table 3 grid: {rows} rows, {runs} runs per cell ==="
    )?;
    writeln!(
        out,
        "parameters: {} dashboards x {} workflows x {} engines",
        6,
        3,
        EngineKind::ALL.len()
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{:<22} {:<14} {:<14} {:>8} {:>9} {:>9}",
        "dashboard", "workflow", "engine", "queries", "mean ms", "p95 ms"
    )?;

    for ds in DashboardDataset::ALL {
        let (table, dashboard) = build_context(ds, rows, k.harness_seed(7));
        for wf in Workflow::ALL {
            let goals = match wf.goals_for(&dashboard) {
                Ok(g) => g,
                Err(_) => {
                    writeln!(
                        out,
                        "{:<22} {:<14} {:<14} {:>8}",
                        dashboard.spec().name,
                        wf.name(),
                        "-",
                        "n/a"
                    )?;
                    continue;
                }
            };
            for kind in EngineKind::ALL {
                let engine = engine_with(kind, table.clone());
                let mut durations = Vec::new();
                for seed in 0..runs {
                    let config = SessionConfig {
                        seed: k.harness_seed(seed),
                        max_steps: 15,
                        stop_on_completion: true,
                        ..Default::default()
                    };
                    let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
                        .run(&goals)
                        .expect("session runs");
                    durations.extend(log.durations());
                }
                let s = DurationSummary::from_durations(&durations).expect("queries ran");
                writeln!(
                    out,
                    "{:<22} {:<14} {:<14} {:>8} {} {}",
                    dashboard.spec().name,
                    wf.name(),
                    kind.name(),
                    s.count,
                    fmt_ms(s.mean_ms),
                    fmt_ms(s.p95_ms)
                )?;
            }
        }
    }
    Ok(())
}

/// Figure 7: per-dashboard query-duration distributions on the
/// vectorized-columnar ("duckdb-like") engine.
///
/// The paper runs 10M rows and reports wide variation: Supply Chain
/// ("Superstore") slowest with the largest IQR, Circulation Activity / My
/// Ride / Customer Service fastest with little variance. Shapes — who is
/// slow, who has variance — are the reproduction target; absolute numbers
/// depend on scale (`--rows`).
fn figure7_dashboards(k: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = k.rows();
    let runs = k.runs();
    writeln!(
        out,
        "=== Figure 7: duckdb-like engine, {rows} rows, all dashboards ===\n"
    )?;
    writeln!(
        out,
        "{:<22} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}  distribution (ms)",
        "dashboard", "queries", "mean", "p50", "p75", "p95", "IQR"
    )?;

    let mut report = Vec::new();
    for ds in DashboardDataset::ALL {
        let (table, dashboard) = build_context(ds, rows, k.harness_seed(21));
        let engine = engine_with(EngineKind::DuckDbLike, table);
        let mut durations = Vec::new();
        for wf in Workflow::ALL {
            let Ok(goals) = wf.goals_for(&dashboard) else {
                continue;
            };
            for seed in 0..runs {
                let config = SessionConfig {
                    seed: k.harness_seed(seed),
                    max_steps: 12,
                    stop_on_completion: true,
                    ..Default::default()
                };
                let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
                    .run(&goals)
                    .expect("session runs");
                durations.extend(log.durations());
            }
        }
        let s = DurationSummary::from_durations(&durations).expect("queries ran");
        writeln!(
            out,
            "{:<22} {:>7} {} {} {} {} {}  [{}]",
            dashboard.spec().name,
            s.count,
            fmt_ms(s.mean_ms),
            fmt_ms(s.p50_ms),
            fmt_ms(s.p75_ms),
            fmt_ms(s.p95_ms),
            fmt_ms(s.iqr_ms()),
            ascii_box(&s, 32)
        )?;
        report.push((dashboard.spec().name.clone(), s));
    }

    // The paper's qualitative claims, checked live.
    let mean_of = |name: &str| {
        report
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.mean_ms)
            .unwrap_or(0.0)
    };
    writeln!(out, "\nshape checks (paper §6.3):")?;
    writeln!(
        out,
        "  supply_chain slowest?        {}",
        report
            .iter()
            .all(|(n, s)| n == "supply_chain" || s.mean_ms <= mean_of("supply_chain"))
    )?;
    writeln!(
        out,
        "  circulation low variance?    IQR={:.3}ms",
        report
            .iter()
            .find(|(n, _)| n == "circulation_activity")
            .map(|(_, s)| s.iqr_ms())
            .unwrap_or(0.0)
    )
}

/// Figure 8: query-duration distributions grouped by workflow and
/// dashboard.
///
/// Paper findings to reproduce in shape: the Shneiderman workflow is the
/// cheapest across dashboards; dashboards with few attributes and similar
/// visualizations (Circulation Activity) barely vary across workflows,
/// while Customer Service varies significantly.
fn figure8_workflows(k: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = k.rows();
    let runs = k.runs();
    writeln!(
        out,
        "=== Figure 8: durations by workflow x dashboard ({rows} rows) ===\n"
    )?;
    writeln!(
        out,
        "{:<22} {:<14} {:>7} {:>9} {:>9} {:>9}",
        "dashboard", "workflow", "queries", "mean", "p50", "p95"
    )?;

    let mut per_workflow: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ds in DashboardDataset::ALL {
        let (table, dashboard) = build_context(ds, rows, k.harness_seed(33));
        let engine = engine_with(EngineKind::DuckDbLike, table);
        for wf in Workflow::ALL {
            let Ok(goals) = wf.goals_for(&dashboard) else {
                writeln!(
                    out,
                    "{:<22} {:<14} {:>7}",
                    dashboard.spec().name,
                    wf.name(),
                    "n/a"
                )?;
                continue;
            };
            let mut durations = Vec::new();
            for seed in 0..runs {
                let config = SessionConfig {
                    seed: k.harness_seed(seed + 100),
                    max_steps: 12,
                    stop_on_completion: true,
                    ..Default::default()
                };
                let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
                    .run(&goals)
                    .expect("session runs");
                durations.extend(log.durations());
            }
            let s = DurationSummary::from_durations(&durations).expect("queries ran");
            writeln!(
                out,
                "{:<22} {:<14} {:>7} {} {} {}",
                dashboard.spec().name,
                wf.name(),
                s.count,
                fmt_ms(s.mean_ms),
                fmt_ms(s.p50_ms),
                fmt_ms(s.p95_ms)
            )?;
            per_workflow.entry(wf.name()).or_default().push(s.mean_ms);
        }
    }

    writeln!(
        out,
        "\nper-workflow mean of means (paper: Shneiderman lowest):"
    )?;
    for (wf, means) in &per_workflow {
        let avg = means.iter().sum::<f64>() / means.len() as f64;
        writeln!(
            out,
            "  {:<14} {:.3} ms over {} dashboards",
            wf,
            avg,
            means.len()
        )?;
    }
    Ok(())
}

/// The query shapes of `runs` sessions per workflow on `ds`.
fn simba_stats(k: &Knobs, ds: DashboardDataset, rows: usize, runs: u64) -> WorkloadStats {
    let (table, dashboard) = build_context(ds, rows, k.harness_seed(4));
    let engine = engine_with(EngineKind::DuckDbLike, table);
    let mut queries = Vec::new();
    for wf in Workflow::ALL {
        let Ok(goals) = wf.goals_for(&dashboard) else {
            continue;
        };
        for seed in 0..runs {
            let config = SessionConfig {
                seed: k.harness_seed(seed),
                max_steps: 20,
                stop_on_completion: false,
                ..Default::default()
            };
            let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
                .run(&goals)
                .expect("session runs");
            queries.extend(log.queries().cloned());
        }
    }
    WorkloadStats::from_queries(queries.iter()).expect("workload non-empty")
}

/// Table 4: workload-shape statistics (avg ± std of data columns,
/// aggregated columns, and filters per query) for the Customer Service and
/// IT Monitor dashboards, plus the §6.3 SIMBA-vs-IDEBench comparison
/// (SIMBA 3.8 attrs / 5.8 filters vs IDEBench 2.1 / 13.2).
fn table4_workload_stats(k: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = k.rows().min(100_000);
    let runs = k.runs();
    writeln!(
        out,
        "=== Table 4: SIMBA workload statistics ({rows} rows, {runs} runs/workflow) ===\n"
    )?;
    writeln!(
        out,
        "{:<18} {:>24} {:>24} {:>18}",
        "statistic", "cat+quant data columns", "aggregated columns", "filters"
    )?;

    let mut simba_all: Vec<(&str, WorkloadStats)> = Vec::new();
    for ds in [
        DashboardDataset::CustomerService,
        DashboardDataset::ItMonitor,
    ] {
        let stats = simba_stats(k, ds, rows, runs);
        writeln!(
            out,
            "{:<18} {:>17.1} ± {:<4.1} {:>17.1} ± {:<4.1} {:>11.1} ± {:<4.1}",
            ds.table_name(),
            stats.data_columns_avg,
            stats.data_columns_std,
            stats.aggregated_avg,
            stats.aggregated_std,
            stats.filters_avg,
            stats.filters_std
        )?;
        simba_all.push((ds.table_name(), stats));
    }

    // §6.3 comparison: IDEBench on the IT Monitor dataset.
    let (table, _) = build_context(DashboardDataset::ItMonitor, rows, k.harness_seed(4));
    let engine = engine_with(EngineKind::DuckDbLike, table.clone());
    let mut ide_attrs = 0.0;
    let mut ide_filters = 0.0;
    let ide_runs = runs.max(3);
    for seed in 0..ide_runs {
        let log = IdeBenchRunner::new(
            &table,
            engine.as_ref(),
            IdeBenchConfig {
                seed: k.harness_seed(seed),
                interactions: 25,
                ..Default::default()
            },
        )
        .run()
        .expect("idebench runs");
        let c = DashboardComplexity::from_log(&log);
        ide_attrs += c.avg_attrs_per_viz;
        ide_filters += c.avg_filters_per_query;
    }
    ide_attrs /= ide_runs as f64;
    ide_filters /= ide_runs as f64;

    let simba_it = &simba_all[1].1;
    writeln!(out, "\n=== §6.3 comparison on IT Monitor (paper: IDEBench 2.1 attrs / 13.2 filters; SIMBA 3.8 / 5.8) ===")?;
    writeln!(
        out,
        "  SIMBA    : {:.1} data attrs/query, {:.1} filters/query",
        simba_it.data_columns_avg, simba_it.filters_avg
    )?;
    writeln!(
        out,
        "  IDEBench : {ide_attrs:.1} attrs/viz, {ide_filters:.1} filters/query"
    )?;
    writeln!(
        out,
        "  shape holds (IDEBench filter-heavy)? {}",
        ide_filters > simba_it.filters_avg
    )
}

/// Figure 9: the dashboards IDEBench implicitly generates, reverse
/// engineered — `--runs` workflows (default 50) over the IT Monitor
/// dataset.
///
/// Paper numbers to reproduce in shape: avg 13 visualizations (min 7,
/// max 20) vs the real dashboard's 3; an average interaction triggering ~9
/// visualization updates; widely varying per-dashboard performance.
fn figure9_idebench(k: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = k.rows();
    let workflows = k.runs.unwrap_or(50);
    writeln!(
        out,
        "=== Figure 9: {workflows} IDEBench workflows on IT Monitor ({rows} rows) ===\n"
    )?;

    let (table, dashboard) = build_context(DashboardDataset::ItMonitor, rows, k.harness_seed(4));
    let engine = engine_with(EngineKind::DuckDbLike, table.clone());

    let mut profiles = Vec::new();
    let mut per_run_means = Vec::new();
    for seed in 0..workflows {
        let log = IdeBenchRunner::new(
            &table,
            engine.as_ref(),
            IdeBenchConfig {
                seed: k.harness_seed(seed),
                interactions: 25,
                ..Default::default()
            },
        )
        .run()
        .expect("idebench runs");
        let summary = DurationSummary::from_durations(&log.durations()).expect("queries ran");
        per_run_means.push((seed, log.dashboard.vizzes.len(), summary));
        profiles.push(DashboardComplexity::from_log(&log));
    }

    let fleet = FleetComplexity::from_runs(&profiles).expect("profiles");
    writeln!(out, "reverse-engineered dashboard complexity:")?;
    writeln!(
        out,
        "  visualizations      : avg {:.1} (min {}, max {})   [paper: avg 13, min 7, max 20]",
        fleet.viz_avg, fleet.viz_min, fleet.viz_max
    )?;
    writeln!(
        out,
        "  updates/interaction : avg {:.1}                      [paper: avg 9, min 1, max 15]",
        fleet.updates_avg
    )?;
    writeln!(
        out,
        "  attrs per viz       : avg {:.1}                      [paper: 2.1]",
        fleet.attrs_avg
    )?;
    writeln!(
        out,
        "  filters per query   : avg {:.1}                      [paper: 13.2]",
        fleet.filters_avg
    )?;
    writeln!(
        out,
        "  real IT Monitor     : {} visualizations",
        dashboard.spec().visualizations.len()
    )?;

    // Two hand-picked contrasting runs, like the figure's stylized pair.
    per_run_means.sort_by(|a, b| a.2.mean_ms.total_cmp(&b.2.mean_ms));
    let fastest = per_run_means.first().expect("runs");
    let slowest = per_run_means.last().expect("runs");
    writeln!(
        out,
        "\ncontrasting generated dashboards (the figure's two examples):"
    )?;
    writeln!(
        out,
        "  seed {:>2}: {:>2} visualizations, mean query {} ms",
        fastest.0,
        fastest.1,
        fmt_ms(fastest.2.mean_ms)
    )?;
    writeln!(
        out,
        "  seed {:>2}: {:>2} visualizations, mean query {} ms",
        slowest.0,
        slowest.1,
        fmt_ms(slowest.2.mean_ms)
    )?;
    writeln!(
        out,
        "\nhigh variance across runs obscures whether performance differences\n\
         come from the DBMS or from random dashboard design (the paper's point)."
    )
}

/// §6.4 realism probe: the measurable core of the paper's user study.
///
/// The experts' discriminating signal was *repeated zero-result queries*
/// produced by the Markov phase. We generate SIMBA logs under different
/// randomization levels and "human-proxy" logs (Oracle-dominated with a
/// single injected mistake), apply the expert heuristic as a classifier, and
/// run the paper's binomial test. Expected shape: high randomization on the
/// filter-heavy IT Monitor is detectable (paper: 5/6 expert successes);
/// moderate randomization on Customer Service is not (1/6).
fn user_study_probe(k: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = k.rows().min(100_000);
    writeln!(out, "=== §6.4 realism probe ({rows} rows) ===\n")?;

    for ds in [
        DashboardDataset::ItMonitor,
        DashboardDataset::CustomerService,
    ] {
        let (table, dashboard) = build_context(ds, rows, k.harness_seed(12));
        let engine = engine_with(EngineKind::DuckDbLike, table);
        let goals = Workflow::Shneiderman
            .goals_for(&dashboard)
            .expect("compatible");

        writeln!(out, "--- {} ---", dashboard.spec().name)?;
        writeln!(
            out,
            "{:<26} {:>8} {:>10} {:>12} {:>10}",
            "profile", "sessions", "empty-q %", "empty-inter", "flagged"
        )?;

        // Three randomization levels plus the human proxy.
        let profiles: [(&str, DecayConfig); 4] = [
            (
                "high randomization",
                DecayConfig {
                    initial_markov: 1.0,
                    decay_rate: 0.02,
                },
            ),
            ("default (typical)", DecayConfig::typical()),
            ("low randomization", DecayConfig::expert()),
            (
                "human proxy (oracle)",
                DecayConfig {
                    initial_markov: 0.15,
                    decay_rate: 0.5,
                },
            ),
        ];
        let sessions = 6u64;
        let mut flagged_by_profile = Vec::new();
        for (name, decay) in profiles {
            let mut empty_fraction = 0.0;
            let mut empty_interactions = 0usize;
            let mut flagged = 0u64;
            for seed in 0..sessions {
                let config = SessionConfig {
                    seed: k.harness_seed(seed),
                    max_steps: 25,
                    decay,
                    stop_on_completion: false,
                    ..Default::default()
                };
                let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
                    .run(&goals)
                    .expect("session runs");
                let stats = empty_result_stats(&log);
                empty_fraction += stats.empty_fraction();
                empty_interactions += stats.empty_interactions;
                if stats.looks_simulated() {
                    flagged += 1;
                }
            }
            writeln!(
                out,
                "{:<26} {:>8} {:>9.1}% {:>12} {:>7}/{}",
                name,
                sessions,
                100.0 * empty_fraction / sessions as f64,
                empty_interactions,
                flagged,
                sessions
            )?;
            flagged_by_profile.push((name, flagged));
        }

        // The paper's binomial test on the expert guesses.
        let correct = flagged_by_profile
            .iter()
            .find(|(n, _)| *n == "high randomization")
            .map(|(_, f)| *f)
            .unwrap_or(0);
        let p = binomial_tail(sessions, correct, 0.5);
        writeln!(
            out,
            "  binomial test P(X >= {correct} | n={sessions}, p=0.5) = {:.3}  \
             (paper: P(X >= 7 | n=12) = 0.387)\n",
            p
        )?;
    }

    writeln!(
        out,
        "takeaway (§6.4): randomization parameters are sensitive to dashboard\n\
         design — filter-heavy dashboards need lower randomization to stay\n\
         indistinguishable from human sessions."
    )
}

/// §6 headline: the engine architectures across dataset sizes on one fixed
/// workload. Reports mean/p95 latency per engine per size so scaling
/// behavior (who degrades fastest as rows grow) is visible. The paper
/// compares four DBMSs; their in-process stand-ins come down to two
/// architectures, and the header says why.
fn dbms_shootout(k: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    // Sizes scale with --rows as the largest: [max/25, max/5, max].
    let max_rows = k.rows.unwrap_or(250_000);
    let sizes = [max_rows / 25, max_rows / 5, max_rows];
    writeln!(
        out,
        "=== DBMS shootout: Customer Service workload at {sizes:?} rows ===\n"
    )?;
    writeln!(
        out,
        "engines: duckdb-like (vectorized morsels, typed filter kernels, one group\n\
         table) and sqlite-like (row-at-a-time interpreter, the oracle). The paper\n\
         compares four DBMSs; a block-at-a-time row store and an operator-at-a-time\n\
         column store ran duckdb-like's kernels and group table over 1,024-row\n\
         blocks or the whole table, and their rankings against it changed from run\n\
         to run, so two architectures are all these engines can tell apart.\n"
    )?;
    writeln!(
        out,
        "{:<10} {:<14} {:>8} {:>10} {:>10} {:>10}",
        "rows", "engine", "queries", "mean ms", "p95 ms", "max ms"
    )?;

    for rows in sizes {
        let (table, dashboard) =
            build_context(DashboardDataset::CustomerService, rows, k.harness_seed(3));
        let goals = Workflow::Shneiderman
            .goals_for(&dashboard)
            .expect("compatible");
        let mut means = Vec::new();
        for kind in EngineKind::ALL {
            let engine = engine_with(kind, table.clone());
            let config = SessionConfig {
                seed: k.harness_seed(17),
                max_steps: 12,
                stop_on_completion: false,
                ..Default::default()
            };
            let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
                .run(&goals)
                .expect("session runs");
            let s = DurationSummary::from_durations(&log.durations()).expect("queries ran");
            writeln!(
                out,
                "{:<10} {:<14} {:>8} {} {} {}",
                rows,
                kind.name(),
                s.count,
                fmt_ms(s.mean_ms),
                fmt_ms(s.p95_ms),
                fmt_ms(s.max_ms)
            )?;
            means.push((kind.name(), s.mean_ms));
        }
        means.sort_by(|a, b| a.1.total_cmp(&b.1));
        let ranked: Vec<&str> = means.iter().map(|(n, _)| *n).collect();
        writeln!(out, "  -> ranking at {rows} rows: {}", ranked.join(" < "))?;
        writeln!(out)?;
    }
    Ok(())
}

/// Ablation: the interleaving model (§4.3 / §6.5 takeaways).
///
/// Runs the same dashboard + goals with P(Markov) pinned to 1 (pure
/// IDEBench-style randomness), the decaying mix (SIMBA's default), and 0
/// (pure Oracle). Reports goal completion, session length, and the
/// zero-result statistics that §6.4's experts keyed on — quantifying why
/// the interleaved design is the sweet spot.
fn ablation_interleave(k: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = k.rows().min(100_000);
    let sessions = 6u64;
    writeln!(
        out,
        "=== Interleaving ablation: Customer Service, {rows} rows, {sessions} sessions each ===\n"
    )?;

    let (table, dashboard) =
        build_context(DashboardDataset::CustomerService, rows, k.harness_seed(8));
    let engine = engine_with(EngineKind::DuckDbLike, table);
    let goals = Workflow::Crossfilter
        .goals_for(&dashboard)
        .expect("compatible");

    writeln!(
        out,
        "{:<22} {:>12} {:>12} {:>12} {:>14}",
        "model mix", "goals met", "avg steps", "avg queries", "empty inter."
    )?;

    let profiles: [(&str, DecayConfig); 3] = [
        ("pure Markov (P=1)", DecayConfig::markov_only()),
        ("decaying mix", DecayConfig::typical()),
        ("pure Oracle (P=0)", DecayConfig::oracle_only()),
    ];

    for (name, decay) in profiles {
        let mut goals_met = 0usize;
        let mut steps = 0usize;
        let mut queries = 0usize;
        let mut empty = 0usize;
        for seed in 0..sessions {
            let config = SessionConfig {
                seed: k.harness_seed(seed),
                max_steps: 30,
                decay,
                stop_on_completion: true,
                ..Default::default()
            };
            let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
                .run(&goals)
                .expect("session runs");
            goals_met += log.goals.iter().filter(|g| g.solved_at.is_some()).count();
            steps += log.interaction_count();
            queries += log.query_count();
            empty += empty_result_stats(&log).empty_interactions;
        }
        writeln!(
            out,
            "{:<22} {:>7}/{:<4} {:>12.1} {:>12.1} {:>14}",
            name,
            goals_met,
            sessions as usize * goals.len(),
            steps as f64 / sessions as f64,
            queries as f64 / sessions as f64,
            empty
        )?;
    }

    writeln!(
        out,
        "\nexpected shape: pure Markov meets few goals and emits empty views;\n\
         pure Oracle is efficient but robotic; the decaying mix meets goals\n\
         while exploring — the behavior §6.4's experts found realistic."
    )
}

/// Ablation: Oracle lookahead depth (§4.1).
///
/// Deeper LookAhead plans cost more engine queries per step but can escape
/// local optima. This ablation sweeps depth 1–3 and reports
/// steps-to-first-goal and planning cost.
fn ablation_horizon(k: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = k.rows().min(50_000);
    let sessions = 3u64;
    writeln!(
        out,
        "=== Oracle horizon ablation: Customer Service, {rows} rows ===\n"
    )?;
    writeln!(
        out,
        "{:<8} {:>16} {:>12} {:>14} {:>12}",
        "depth", "first goal step", "goals met", "wall time ms", "queries"
    )?;

    let (table, dashboard) =
        build_context(DashboardDataset::CustomerService, rows, k.harness_seed(5));
    let engine = engine_with(EngineKind::DuckDbLike, table);
    let goals = Workflow::Shneiderman
        .goals_for(&dashboard)
        .expect("compatible");

    for depth in 1..=3usize {
        let mut first_goal = 0usize;
        let mut met = 0usize;
        let mut queries = 0usize;
        #[expect(
            clippy::disallowed_methods,
            reason = "the wall-time column is this table's planning-cost measurement; no session input or counted column reads it"
        )]
        let start = std::time::Instant::now();
        for seed in 0..sessions {
            let config = SessionConfig {
                seed: k.harness_seed(seed),
                max_steps: 20,
                decay: DecayConfig::oracle_only(),
                oracle: OracleConfig {
                    depth,
                    max_candidates: 24,
                    beam_width: 3,
                },
                ..Default::default()
            };
            let log = SessionRunner::new(&dashboard, engine.as_ref(), config)
                .run(&goals)
                .expect("session runs");
            first_goal += log
                .goals
                .iter()
                .filter_map(|g| g.solved_at)
                .min()
                .unwrap_or(20);
            met += log.goals.iter().filter(|g| g.solved_at.is_some()).count();
            queries += log.query_count();
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        writeln!(
            out,
            "{:<8} {:>16.1} {:>7}/{:<4} {:>14.1} {:>12}",
            depth,
            first_goal as f64 / sessions as f64,
            met,
            sessions as usize * goals.len(),
            elapsed,
            queries
        )?;
    }

    writeln!(
        out,
        "\nexpected shape: depth 1 already reaches goals (greedy θ is strong\n\
         once fragments augment coverage); deeper lookahead multiplies\n\
         planning cost for marginal step savings — why the paper's default\n\
         is effectively greedy re-planning."
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The smallest scale every experiment runs at.
    const SMALL: Knobs = Knobs {
        rows: Some(600),
        runs: Some(1),
        seed: 0,
    };

    fn output(name: &str, knobs: &Knobs) -> String {
        let mut out = Vec::new();
        let experiment = experiment(name).unwrap_or_else(|| panic!("paper/{name} resolves"));
        (experiment.run)(knobs, &mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("experiments write UTF-8")
    }

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
    fn every_name_resolves_to_its_own_experiment() {
        for e in &EXPERIMENTS {
            assert!(std::ptr::eq(experiment(e.name).unwrap(), e), "{}", e.name);
        }
        assert!(experiment("table5_grid").is_none());
        assert!(experiment("paper/table3_grid").is_none());
    }

    #[test]
    fn every_experiment_runs_to_completion_at_small_scale() {
        // Side by side: the Oracle's look-ahead keeps a few of them busy
        // for a while even at 600 rows.
        std::thread::scope(|scope| {
            for e in &EXPERIMENTS {
                scope.spawn(move || {
                    // figure9_idebench reads --runs as its workflow count.
                    let runs = if e.name == "figure9_idebench" { 2 } else { 1 };
                    let text = output(
                        e.name,
                        &Knobs {
                            runs: Some(runs),
                            ..SMALL
                        },
                    );
                    assert!(text.starts_with("=== "), "{}: {text}", e.name);
                    assert!(text.ends_with('\n'), "{}: {text}", e.name);
                });
            }
        });
    }

    #[test]
    fn seeded_experiments_repeat_byte_for_byte() {
        for name in ["ablation_interleave", "table4_workload_stats"] {
            assert_eq!(output(name, &SMALL), output(name, &SMALL), "{name}");
        }
    }
}
