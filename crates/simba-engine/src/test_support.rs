//! Shared fixtures for engine unit tests.

use simba_store::{ColumnDef, ResultSet, Schema, Table, TableBuilder, Value};

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

/// Sorted row view of a result for order-insensitive assertions.
pub fn sorted(rs: &ResultSet) -> Vec<Vec<Value>> {
    rs.sorted_rows()
}

/// Built rows in stored order, every column kept.
pub fn built_rows(rows: simba_store::ResultBuilder) -> Vec<Vec<Value>> {
    let names = vec![String::new(); rows.width()];
    let set = rows.finish(names);
    set.rows().map(|r| r.to_vec()).collect()
}
