//! The goal algebra end to end: write goals as text, translate them to SQL
//! (§2 of the paper), and execute them.
//!
//! ```sh
//! cargo run --release --example goal_algebra
//! ```

use simba::core::algebra::templates::FieldChoice;
use simba::core::algebra::to_sql::to_sql;
use simba::prelude::*;
use std::sync::Arc;

fn main() {
    let table = Arc::new(DashboardDataset::CustomerService.generate_rows(20_000, 1));
    let engine = EngineKind::DuckDbLike.build();
    engine.register(table);

    // --- Algebra expressions written as text (Table 1 operators) ---
    let expressions = [
        // Figure 3: which queues have experienced more than 1 lost call?
        "queue x count(lost_calls) - {count(lost_calls) < 2}",
        // Example 2.3: correlation between call volume and abandonment.
        "hour x count(calls) + sum(abandoned)",
        // Example 2.2: average call volume per representative.
        "rep_id x avg(calls)",
        // Temporal pattern with a map operator.
        "hour(call_date) x sum(abandoned)",
        // Spread of handle time across queues with a removal filter.
        "queue - 'D' x max(handle_time) + min(handle_time)",
    ];

    for text in expressions {
        let expr = parse_goal(text).expect("valid algebra");
        let sql = to_sql(&expr, "customer_service").expect("translatable");
        let out = engine.execute(&sql).expect("executes");
        println!("algebra : {expr}");
        println!("sql     : {sql}");
        println!(
            "result  : {} rows in {:.3}ms",
            out.result.n_rows(),
            out.elapsed.as_secs_f64() * 1e3
        );
        for row in out.result.rows().take(3) {
            let cells: Vec<String> = row.to_vec().iter().map(|v| v.to_string()).collect();
            println!("          {}", cells.join(" | "));
        }
        println!();
    }

    // --- The six reusable templates (Table 2) ---
    let choice = FieldChoice::new(
        "customer_service",
        vec!["queue".into(), "rep_id".into()],
        vec!["calls".into(), "abandoned".into()],
        vec!["hour".into()],
    );
    println!("--- Table 2 templates instantiated for Customer Service ---");
    for kind in GoalTemplateKind::ALL {
        let goal = kind.instantiate(&choice).expect("instantiable");
        println!("[{}]", kind.name());
        println!("  Q: {}", goal.question);
        println!("  A: {}", goal.expr);
        println!("  SQL: {}", goal.query);
    }
}
