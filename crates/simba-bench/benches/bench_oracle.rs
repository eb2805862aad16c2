//! Criterion benchmark: one Oracle planning step (§4.1's LookAhead),
//! including the candidate-query executions it performs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simba_core::dashboard::Dashboard;
use simba_core::equivalence::augment;
use simba_core::oracle::{Oracle, OracleConfig};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_engine::EngineKind;
use simba_sql::{parse_select, NormalizedSelect};
use simba_store::CoverageStore;
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 20_000;

fn bench_oracle(c: &mut Criterion) {
    let ds = DashboardDataset::CustomerService;
    let table = Arc::new(ds.generate_rows(ROWS, 9));
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    let engine = EngineKind::DuckDbLike.build();
    engine.register(table);

    let goal = parse_select("SELECT queue, COUNT(lost_calls) FROM customer_service GROUP BY queue")
        .unwrap();
    let goal_result = engine.execute(&goal).unwrap().result;
    let state = dashboard.initial_state();
    let mut coverage = CoverageStore::new();
    for (_, q) in dashboard.all_queries(&state) {
        let out = engine.execute(&q).unwrap();
        coverage.absorb(&augment(&NormalizedSelect::from_select(&q), out.result));
    }

    let mut group = c.benchmark_group("oracle_plan_step");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for (label, config) in [
        (
            "depth1_c16",
            OracleConfig {
                depth: 1,
                max_candidates: 16,
                beam_width: 3,
            },
        ),
        (
            "depth1_c48",
            OracleConfig {
                depth: 1,
                max_candidates: 48,
                beam_width: 3,
            },
        ),
        (
            "depth2_c16",
            OracleConfig {
                depth: 2,
                max_candidates: 16,
                beam_width: 3,
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, cfg| {
            let oracle = Oracle::new(cfg.clone());
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(3);
                oracle
                    .plan_next(
                        &dashboard,
                        &state,
                        engine.as_ref(),
                        &coverage,
                        &[&goal_result],
                        &mut rng,
                    )
                    .unwrap()
                    .map(|s| s.score)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_oracle);
criterion_main!(benches);
