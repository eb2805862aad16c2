//! Table 4: workload-shape statistics (avg ± std of data columns,
//! aggregated columns, and filters per query) for the Customer Service and
//! IT Monitor dashboards, plus the §6.3 SIMBA-vs-IDEBench comparison
//! (SIMBA 3.8 attrs / 5.8 filters vs IDEBench 2.1 / 13.2).

use simba_bench::{build_context, configured_rows, configured_runs, engine_with, harness_seed};
use simba_core::metrics::WorkloadStats;
use simba_core::session::workflows::Workflow;
use simba_core::session::{SessionConfig, SessionRunner};
use simba_data::DashboardDataset;
use simba_engine::EngineKind;
use simba_idebench::{DashboardComplexity, IdeBenchConfig, IdeBenchRunner};

fn simba_stats(ds: DashboardDataset, rows: usize, runs: u64) -> WorkloadStats {
    let (table, dashboard) = build_context(ds, rows, harness_seed(4));
    let engine = engine_with(EngineKind::DuckDbLike, table);
    let mut queries = Vec::new();
    for wf in Workflow::ALL {
        let Ok(goals) = wf.goals_for(&dashboard) else {
            continue;
        };
        for seed in 0..runs {
            let config = SessionConfig {
                seed: harness_seed(seed),
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

fn main() {
    let rows = configured_rows().min(100_000);
    let runs = configured_runs();
    println!("=== Table 4: SIMBA workload statistics ({rows} rows, {runs} runs/workflow) ===\n");
    println!(
        "{:<18} {:>24} {:>24} {:>18}",
        "statistic", "cat+quant data columns", "aggregated columns", "filters"
    );

    let mut simba_all: Vec<(&str, WorkloadStats)> = Vec::new();
    for ds in [
        DashboardDataset::CustomerService,
        DashboardDataset::ItMonitor,
    ] {
        let stats = simba_stats(ds, rows, runs);
        println!(
            "{:<18} {:>17.1} ± {:<4.1} {:>17.1} ± {:<4.1} {:>11.1} ± {:<4.1}",
            ds.table_name(),
            stats.data_columns_avg,
            stats.data_columns_std,
            stats.aggregated_avg,
            stats.aggregated_std,
            stats.filters_avg,
            stats.filters_std
        );
        simba_all.push((ds.table_name(), stats));
    }

    // §6.3 comparison: IDEBench on the IT Monitor dataset.
    let (table, _) = build_context(DashboardDataset::ItMonitor, rows, harness_seed(4));
    let engine = engine_with(EngineKind::DuckDbLike, table.clone());
    let mut ide_attrs = 0.0;
    let mut ide_filters = 0.0;
    let ide_runs = runs.max(3);
    for seed in 0..ide_runs {
        let log = IdeBenchRunner::new(
            &table,
            engine.as_ref(),
            IdeBenchConfig {
                seed: harness_seed(seed),
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
    println!("\n=== §6.3 comparison on IT Monitor (paper: IDEBench 2.1 attrs / 13.2 filters; SIMBA 3.8 / 5.8) ===");
    println!(
        "  SIMBA    : {:.1} data attrs/query, {:.1} filters/query",
        simba_it.data_columns_avg, simba_it.filters_avg
    );
    println!("  IDEBench : {ide_attrs:.1} attrs/viz, {ide_filters:.1} filters/query");
    println!(
        "  shape holds (IDEBench filter-heavy)? {}",
        ide_filters > simba_it.filters_avg
    );
}
