//! Shared fixtures for engine unit tests.

use simba_store::{ColumnDef, Schema, Table, TableBuilder, Value};
use std::sync::Arc;

/// A small `cs` table exercising every column role, including a NULL row.
pub fn sample_table() -> Table {
    let schema = Schema::new(
        "cs",
        vec![
            ColumnDef::categorical("queue"),
            ColumnDef::quantitative_int("calls"),
            ColumnDef::temporal("ts"),
            ColumnDef::quantitative_float("duration"),
        ],
    );
    let mut b = TableBuilder::new(schema, 5);
    // ts values: 2021-06-15 with varying hours.
    b.push_row(vec![
        Value::str("A"),
        Value::Int(1),
        Value::Int(1_623_715_200),
        Value::Float(0.5),
    ]);
    b.push_row(vec![
        Value::str("B"),
        Value::Int(5),
        Value::Int(1_623_718_800),
        Value::Float(1.5),
    ]);
    b.push_row(vec![
        Value::str("A"),
        Value::Int(3),
        Value::Int(1_623_722_400),
        Value::Float(2.5),
    ]);
    b.push_row(vec![
        Value::str("B"),
        Value::Int(7),
        Value::Int(1_623_726_000),
        Value::Float(3.5),
    ]);
    b.push_row(vec![Value::Null, Value::Null, Value::Null, Value::Null]);
    b.finish()
}

/// One row of [`qnx_table`]: `(q, n, x)`, NULL where `None`.
pub type Row = (Option<&'static str>, Option<i64>, Option<f64>);

/// `t(q, n, x)`: a dictionary, an Int and a Float column.
pub fn qnx_table(rows: &[Row]) -> Arc<Table> {
    let schema = Schema::new(
        "t",
        vec![
            ColumnDef::categorical("q"),
            ColumnDef::quantitative_int("n"),
            ColumnDef::quantitative_float("x"),
        ],
    );
    let mut b = TableBuilder::new(schema, rows.len());
    for &(q, n, x) in rows {
        b.push_row(vec![
            q.map_or(Value::Null, Value::str),
            n.map_or(Value::Null, Value::Int),
            x.map_or(Value::Null, Value::Float),
        ]);
    }
    Arc::new(b.finish())
}

/// Built rows in stored order, every column kept.
pub fn built_rows(rows: simba_store::ResultBuilder) -> Vec<Vec<Value>> {
    let names = vec![String::new(); rows.width()];
    let set = rows.finish(names);
    set.rows().map(|r| r.to_vec()).collect()
}
