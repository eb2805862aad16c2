//! Goal pipeline tests: algebra text → SQL → execution → equivalence.

use simba::core::algebra::templates::FieldChoice;
use simba::core::algebra::to_sql::to_sql;
use simba::core::equivalence::{augment, subsumes, syntactic_equivalent, GoalChecker, Method};
use simba::prelude::*;
use simba::sql::NormalizedSelect;
use simba::store::CoverageStore;
use std::sync::Arc;

fn engine_with_cs() -> Arc<dyn Dbms> {
    let table = Arc::new(DashboardDataset::CustomerService.generate_rows(3_000, 19));
    let engine = EngineKind::DuckDbLike.build();
    engine.register(table);
    engine
}

#[test]
fn algebra_text_to_executable_sql() {
    let engine = engine_with_cs();
    let goal = parse_goal("queue x count(lost_calls) - {count(lost_calls) < 2}").unwrap();
    let query = to_sql(&goal, "customer_service").unwrap();
    let out = engine.execute(&query).unwrap();
    // Every row passes the HAVING threshold.
    for row in out.result.rows() {
        let count = row.get(1).as_i64().unwrap();
        assert!(count >= 2, "{count}");
    }
}

#[test]
fn all_templates_execute_on_their_datasets() {
    let engine = engine_with_cs();
    let choice = FieldChoice::new(
        "customer_service",
        vec!["queue".into(), "rep_id".into()],
        vec!["lost_calls".into(), "abandoned".into()],
        vec!["hour".into()],
    );
    for kind in GoalTemplateKind::ALL {
        let goal = kind.instantiate(&choice).unwrap();
        let out = engine.execute(&goal.query);
        assert!(out.is_ok(), "{}: {:?}", kind.name(), out.err());
    }
}

#[test]
fn figure_3_coverage_by_four_fragments() {
    // The paper's Figure 3/4 walkthrough end to end: the per-queue goal is
    // covered by the union of four single-queue fragment queries.
    let engine = engine_with_cs();
    let goal_query =
        parse_select("SELECT queue, COUNT(lost_calls) FROM customer_service GROUP BY queue")
            .unwrap();
    let goal_result = engine.execute(&goal_query).unwrap().result;
    let mut checker = GoalChecker::new(goal_query, goal_result);

    let mut coverage = CoverageStore::new();
    let mut solved = None;
    for queue in ["B", "C", "A", "D"] {
        let fragment = parse_select(&format!(
            "SELECT COUNT(lost_calls) FROM customer_service WHERE queue IN ('{queue}')"
        ))
        .unwrap();
        let out = engine.execute(&fragment).unwrap();
        coverage.absorb(&augment(
            &NormalizedSelect::from_select(&fragment),
            out.result,
        ));
        solved = checker.check_result(&coverage);
        if solved.is_some() {
            break;
        }
    }
    assert_eq!(
        solved,
        Some(Method::Result),
        "goal must complete on the fourth fragment"
    );
}

#[test]
fn three_equivalence_methods_trigger_appropriately() {
    let form = NormalizedSelect::from_select;
    let a = parse_select("SELECT queue, COUNT(*) FROM cs GROUP BY queue").unwrap();
    // Identical text modulo whitespace → syntactic.
    let b = parse_select("select queue , count(*) from cs group by queue").unwrap();
    assert!(syntactic_equivalent(&a, &b));
    // Alternative formulation → semantic.
    let c = parse_select("SELECT COUNT(*) AS n, queue FROM cs GROUP BY queue").unwrap();
    assert!(!syntactic_equivalent(&a, &c));
    assert!(form(&a).same_rows(&form(&c)));
    // Wider query → subsumption.
    let d = parse_select("SELECT queue, COUNT(*), SUM(calls) FROM cs GROUP BY queue").unwrap();
    assert!(!form(&a).same_rows(&form(&d)));
    assert!(subsumes(&form(&d), &form(&a)));
}

#[test]
fn goals_can_be_specified_directly_in_sql() {
    // "dashboard developers can specify user goals directly in SQL" (§4.1).
    let engine = engine_with_cs();
    let query =
        parse_select("SELECT rep_id, AVG(handle_time) FROM customer_service GROUP BY rep_id")
            .unwrap();
    let result = engine.execute(&query).unwrap().result;
    let goal = Goal::from_sql(
        GoalTemplateKind::MeasuringDifferences,
        "Which rep handles calls slowest?",
        query.clone(),
    );
    let mut checker = GoalChecker::new(goal.query.clone(), result);
    // Emitting the same query solves the goal syntactically.
    let form = NormalizedSelect::from_select(&query);
    assert_eq!(
        checker.check_observed(&query, &form),
        Some(Method::Syntactic)
    );
}

#[test]
fn example_2_2_average_forms_agree_end_to_end() {
    // AVG(x) vs SUM(x)/COUNT(x): equivalent per §2.2, identical when run.
    let engine = engine_with_cs();
    let a = parse_select(
        "SELECT rep_id, SUM(handle_time) / COUNT(handle_time) FROM customer_service \
         GROUP BY rep_id",
    )
    .unwrap();
    let b = parse_select("SELECT rep_id, AVG(handle_time) FROM customer_service GROUP BY rep_id")
        .unwrap();
    assert!(NormalizedSelect::from_select(&a).same_rows(&NormalizedSelect::from_select(&b)));
    let ra = engine.execute(&a).unwrap().result;
    let rb = engine.execute(&b).unwrap().result;
    // Values agree row-for-row (column names differ).
    let mut sa = ra.sorted_rows();
    let mut sb = rb.sorted_rows();
    sa.sort();
    sb.sort();
    assert_eq!(sa, sb);
}

#[test]
fn unsatisfiable_goal_never_completes() {
    let engine = engine_with_cs();
    let impossible = parse_select(
        "SELECT queue, COUNT(*) FROM customer_service WHERE queue IN ('ZZZ') GROUP BY queue",
    )
    .unwrap();
    let goal_result = engine.execute(&impossible).unwrap().result;
    assert!(goal_result.is_empty());
    // An empty goal result is trivially covered — SIMBA treats "nothing to
    // see" as seen. This mirrors result subsumption over empty sets.
    let checker = GoalChecker::new(impossible, goal_result);
    let coverage = CoverageStore::new();
    assert_eq!(coverage.covered_rows(&checker.goal_result), 0);
    assert!(coverage.covers(&checker.goal_result));
}
