//! Criterion benchmark: full SIMBA sessions and IDEBench runs at matched
//! interaction counts — the end-to-end cost of each benchmarking approach —
//! and the synthesis of a scripted batch (`synthesize/`), which a scripted
//! workload pays before its first query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simba_core::dashboard::Dashboard;
use simba_core::markov::MarkovModel;
use simba_core::session::batch::{synthesize_scripts, BatchConfig};
use simba_core::session::interleave::DecayConfig;
use simba_core::session::workflows::Workflow;
use simba_core::session::{SessionConfig, SessionRunner};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_engine::EngineKind;
use simba_idebench::{IdeBenchConfig, IdeBenchRunner};
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 20_000;

fn bench_session(c: &mut Criterion) {
    let ds = DashboardDataset::ItMonitor;
    let table = Arc::new(ds.generate_rows(ROWS, 8));
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    let engine = EngineKind::DuckDbLike.build();
    engine.register(table.clone());
    let goals = Workflow::Shneiderman.goals_for(&dashboard).unwrap();

    let mut group = c.benchmark_group("session");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    for (label, decay) in [
        ("simba_markov", DecayConfig::markov_only()),
        ("simba_mixed", DecayConfig::typical()),
        ("simba_oracle", DecayConfig::oracle_only()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &decay, |b, d| {
            b.iter(|| {
                let config = SessionConfig {
                    seed: 5,
                    max_steps: 6,
                    decay: *d,
                    stop_on_completion: false,
                    ..Default::default()
                };
                SessionRunner::new(&dashboard, engine.as_ref(), config)
                    .run(&goals)
                    .unwrap()
                    .query_count()
            })
        });
    }

    group.bench_function("idebench_run", |b| {
        b.iter(|| {
            IdeBenchRunner::new(
                &table,
                engine.as_ref(),
                IdeBenchConfig {
                    seed: 5,
                    interactions: 6,
                    ..Default::default()
                },
            )
            .run()
            .unwrap()
            .queries()
            .count()
        })
    });
    group.finish();
}

/// The benchmark's wire batch: `customer_service` at 10K rows, 12 sessions
/// × 192 interactions (8,199 step queries, 2,287 distinct).
fn bench_synthesize(c: &mut Criterion) {
    let ds = DashboardDataset::CustomerService;
    let table = ds.generate_rows(10_000, 7);
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    let config = BatchConfig {
        base_seed: 7,
        steps_per_session: 192,
        mix: MarkovModel::presets(),
    };

    let mut group = c.benchmark_group("synthesize");
    group.sample_size(10);
    group.bench_function("customer_service_12x192", |b| {
        b.iter(|| synthesize_scripts(&dashboard, &config, 12).len())
    });
    group.finish();
}

criterion_group!(benches, bench_session, bench_synthesize);
criterion_main!(benches);
