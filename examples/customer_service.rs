//! The paper's running example (Figures 1–4): the Customer Service
//! dashboard, the "Analyzing Spread"/Filtering goal over lost calls, and an
//! Oracle-driven walkthrough matching Figure 4's per-queue interactions.
//!
//! ```sh
//! cargo run --release --example customer_service
//! ```

use rand::SeedableRng;
use simba::core::equivalence::augment;
use simba::core::oracle::Oracle;
use simba::prelude::*;
use simba::sql::NormalizedSelect;
use simba::store::CoverageStore;
use std::sync::Arc;

fn main() {
    let dataset = DashboardDataset::CustomerService;
    let table = Arc::new(dataset.generate_rows(100_000, 2024));
    let dashboard = Dashboard::new(builtin(dataset), &table).expect("valid spec");
    let engine = EngineKind::DuckDbLike.build();
    engine.register(table);

    // Figure 2D: the dashboard's interaction graph.
    let graph = dashboard.graph();
    println!(
        "interaction graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );
    for node in graph.visualization_nodes() {
        println!(
            "  vis `{}` <- {} ancestors",
            graph.id(node),
            graph.ancestors(node).len()
        );
    }

    // Figure 3: the goal query (not directly emittable by any widget state).
    let goal_query = parse_select(
        "SELECT queue, COUNT(lost_calls) FROM customer_service GROUP BY queue \
         HAVING COUNT(lost_calls) > 1",
    )
    .unwrap();
    let goal_result = engine.execute(&goal_query).unwrap().result;
    println!("\ngoal: Which queues have experienced more than 1 lost call?");
    println!("  {goal_query}");
    println!("  expected rows: {}", goal_result.n_rows());

    // Figure 4: the Oracle reaches the goal through per-queue interactions.
    let oracle = Oracle::default();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
    let mut state = dashboard.initial_state();
    let mut coverage = CoverageStore::new();

    // Initial render.
    for (_, q) in dashboard.all_queries(&state) {
        let out = engine.execute(&q).unwrap();
        coverage.absorb(&augment(&NormalizedSelect::from_select(&q), out.result));
    }

    let mut step = 0;
    while !coverage.covers(&goal_result) && step < 12 {
        step += 1;
        let planned = oracle
            .plan_next(
                &dashboard,
                &state,
                engine.as_ref(),
                &coverage,
                &[&goal_result],
                &mut rng,
            )
            .expect("engine ok")
            .expect("actions available");
        println!(
            "\nstep {step}: {} (theta={})",
            planned.action.describe(graph),
            planned.score
        );
        let emitted = dashboard.apply(&mut state, &planned.action);
        for (node, q) in &emitted {
            let out = engine.execute(q).unwrap();
            println!(
                "  [{}] {} -> {} rows in {:.3}ms",
                graph.id(*node),
                q,
                out.result.n_rows(),
                out.elapsed.as_secs_f64() * 1e3
            );
            coverage.absorb(&augment(&NormalizedSelect::from_select(q), out.result));
        }
        let covered = coverage.covered_rows(&goal_result);
        println!(
            "  goal coverage: {covered}/{} ({:.0}%)",
            goal_result.n_rows(),
            100.0 * covered as f64 / goal_result.n_rows().max(1) as f64
        );
    }

    if coverage.covers(&goal_result) {
        println!("\ngoal achieved in {step} interactions — matching Figure 4's walkthrough.");
    } else {
        println!("\ngoal NOT achieved within {step} interactions.");
    }
}
