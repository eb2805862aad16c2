use simba_engine::delta::SessionDelta;
use simba_engine::{Dbms, DuckDbLike};
use simba_sql::parse_select;
use simba_store::{ColumnDef, Schema, TableBuilder, Value};
use std::sync::Arc;

fn engine() -> DuckDbLike {
    let schema = Schema::new(
        "t",
        vec![
            ColumnDef::quantitative_int("a"),
            ColumnDef::categorical("q"),
            ColumnDef::quantitative_float("v"),
        ],
    );
    let mut b = TableBuilder::new(schema, 10_000);
    for i in 0..10_000i64 {
        b.push_row(vec![
            Value::Int(i % 97),
            Value::str(format!("g{}", i % 7)),
            Value::Float((i % 13) as f64 * 0.5),
        ]);
    }
    let e = DuckDbLike::new();
    e.register(Arc::new(b.finish()));
    e
}

#[test]
fn order_by_agg_swap() {
    let e = engine();
    let mut delta = SessionDelta::default();
    let q1 = "SELECT q, COUNT(*) FROM t WHERE a > 40 GROUP BY q ORDER BY SUM(v) DESC LIMIT 3";
    let q2 = "SELECT q, COUNT(*) FROM t WHERE a > 40 GROUP BY q ORDER BY MIN(v) DESC LIMIT 3";
    let o1 = e
        .execute_delta(&parse_select(q1).unwrap(), &mut delta)
        .unwrap();
    let o2 = e
        .execute_delta(&parse_select(q2).unwrap(), &mut delta)
        .unwrap();
    let fresh2 = e.execute(&parse_select(q2).unwrap()).unwrap();
    eprintln!("o1 {:?}", o1.result);
    eprintln!(
        "delta o2 {:?} (group_hits={})",
        o2.result, o2.stats.delta_group_hits
    );
    eprintln!("fresh o2 {:?}", fresh2.result);
    assert_eq!(
        o2.result, fresh2.result,
        "ORDER BY agg swap corrupted replay"
    );
}

#[test]
fn having_conjunct_order_swap() {
    let e = engine();
    let mut delta = SessionDelta::default();
    let q1 =
        "SELECT q, COUNT(*) FROM t WHERE a > 40 GROUP BY q HAVING SUM(v) > 8000 AND MIN(v) >= 0";
    let q2 =
        "SELECT q, COUNT(*) FROM t WHERE a > 40 GROUP BY q HAVING MIN(v) >= 0 AND SUM(v) > 8000";
    let o1 = e
        .execute_delta(&parse_select(q1).unwrap(), &mut delta)
        .unwrap();
    let o2 = e
        .execute_delta(&parse_select(q2).unwrap(), &mut delta)
        .unwrap();
    let fresh2 = e.execute(&parse_select(q2).unwrap()).unwrap();
    eprintln!("o1 rows={}", o1.result.n_rows());
    eprintln!(
        "delta o2 rows={} (group_hits={})",
        o2.result.n_rows(),
        o2.stats.delta_group_hits
    );
    eprintln!("fresh o2 rows={}", fresh2.result.n_rows());
    assert_eq!(
        o2.result, fresh2.result,
        "HAVING conjunct order corrupted replay"
    );
}
