//! The in-memory table: one columnar store shared by every engine.

use crate::column::{ColumnBuilder, ColumnData};
use crate::schema::{DataType, Schema};
use crate::value::Value;
use crate::zonemap::ZoneMaps;
use std::sync::{Arc, OnceLock};

/// An immutable, denormalized, columnar table.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<ColumnData>,
    row_count: usize,
    /// Column bounds, built on first use. Cloning a table carries the
    /// cache along (the data it summarizes is immutable).
    zone_maps: OnceLock<ZoneMaps>,
}

impl Table {
    /// Assemble a table from a schema and matching column data.
    ///
    /// # Panics
    /// Panics if the column count or row counts are inconsistent — tables
    /// are built by trusted generators.
    pub fn from_columns(schema: Schema, columns: Vec<ColumnData>) -> Self {
        assert_eq!(schema.columns.len(), columns.len(), "column count mismatch");
        let row_count = columns.first().map_or(0, ColumnData::len);
        for (def, col) in schema.columns.iter().zip(&columns) {
            assert_eq!(
                col.len(),
                row_count,
                "row count mismatch in column `{}`",
                def.name
            );
        }
        Self {
            schema,
            columns,
            row_count,
            zone_maps: OnceLock::new(),
        }
    }

    /// The bounds of every Int/Float column, built by one pass over the
    /// table on first access and cached for the table's lifetime.
    pub fn zone_maps(&self) -> &ZoneMaps {
        self.zone_maps
            .get_or_init(|| ZoneMaps::build(&self.columns))
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.schema.table
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Column data by position.
    #[inline]
    pub fn column(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// Column data by case-insensitive name.
    pub fn column_by_name(&self, name: &str) -> Option<&ColumnData> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Cell value at (row, column).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materialize row `i` as a `Vec<Value>` (row-store engines use this).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Write row `i` into a reusable buffer, avoiding per-row allocation.
    pub fn read_row_into(&self, i: usize, buf: &mut Vec<Value>) {
        buf.clear();
        buf.extend(self.columns.iter().map(|c| c.value(i)));
    }

    /// Heap bytes of the table's column data (see
    /// [`ColumnData::byte_size`]).
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(ColumnData::byte_size).sum()
    }

    /// Physical, bit-for-bit equality: same schema, and every column equal
    /// under [`ColumnData::bitwise_eq`] (float bit patterns, dictionary
    /// order, codes, and validity all included). This is the relation the
    /// chunk-deterministic generation contract promises across thread
    /// counts — strictly stronger than value-level equality.
    pub fn bitwise_eq(&self, other: &Table) -> bool {
        self.schema == other.schema
            && self.row_count == other.row_count
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| a.bitwise_eq(b))
    }
}

/// Row-oriented builder for [`Table`] — generators push one record at a time.
///
/// A record is either a `Vec<Value>` ([`push_row`](Self::push_row)) or typed
/// cells written straight into their columns through a [`RowWriter`]
/// ([`row`](Self::row)): an Int, a Float, or the `i`-th string of a list
/// fixed per column by [`set_labels`](Self::set_labels). Both build the
/// same bytes for the same values.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    builders: Vec<ColumnBuilder>,
    rows: usize,
    /// Each column's label list, empty until [`set_labels`](Self::set_labels)
    /// names a column.
    labels: Vec<Labels>,
}

/// A column's fixed list of strings and, per string, its dictionary code
/// ([`NO_CODE`] until the string is first pushed): the per-column memo that
/// lets a label push skip the dictionary's lookup.
#[derive(Debug, Default)]
struct Labels {
    strings: Vec<Arc<str>>,
    codes: Vec<u32>,
}

/// A label's memo entry before the label has a dictionary code.
const NO_CODE: u32 = u32::MAX;

impl TableBuilder {
    /// Start building a table with the given schema, pre-sizing for
    /// `capacity` rows.
    pub fn new(schema: Schema, capacity: usize) -> Self {
        let builders = schema
            .columns
            .iter()
            .map(|c| ColumnBuilder::new(c.data_type, capacity))
            .collect();
        Self {
            schema,
            builders,
            rows: 0,
            labels: Vec::new(),
        }
    }

    /// Append one row. The value count must match the schema width.
    pub fn push_row(&mut self, values: Vec<Value>) {
        assert_eq!(values.len(), self.builders.len(), "row width mismatch");
        for (b, v) in self.builders.iter_mut().zip(values) {
            b.push(v);
        }
        self.rows += 1;
    }

    /// Fix the list of strings a [`RowWriter::label`] of column `column` (a
    /// case-insensitive name) indexes into. The dictionary is untouched: a
    /// string gets its code when it is first pushed, so codes stay in
    /// first-appearance order over every row of the column, however often
    /// the list is set.
    ///
    /// # Panics
    /// Panics if there is no such column or it is not a Str column.
    pub fn set_labels<S: AsRef<str>>(&mut self, column: &str, list: &[S]) {
        let index = self
            .schema
            .index_of(column)
            .unwrap_or_else(|| panic!("no column `{column}` to label"));
        assert_eq!(
            self.schema.columns[index].data_type,
            DataType::Str,
            "type mismatch labelling column `{column}`"
        );
        if self.labels.is_empty() {
            self.labels
                .resize_with(self.builders.len(), Labels::default);
        }
        let labels = &mut self.labels[index];
        labels.strings.clear();
        labels
            .strings
            .extend(list.iter().map(|s| Arc::from(s.as_ref())));
        labels.codes.clear();
        labels.codes.resize(list.len(), NO_CODE);
    }

    /// Start a row written cell by cell, in schema order.
    #[inline]
    pub fn row(&mut self) -> RowWriter<'_> {
        RowWriter {
            builder: self,
            column: 0,
        }
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Finish building the table.
    pub fn finish(self) -> Table {
        let (schema, columns) = self.finish_parts();
        Table::from_columns(schema, columns)
    }

    /// Finish building, returning the raw parts instead of a [`Table`].
    /// Chunk generators use this to hand column fragments to a
    /// [`TableAssembler`](crate::append::TableAssembler) without paying for
    /// an intermediate table.
    pub fn finish_parts(self) -> (Schema, Vec<ColumnData>) {
        let columns = self
            .builders
            .into_iter()
            .map(ColumnBuilder::finish)
            .collect();
        (self.schema, columns)
    }
}

/// One row of a [`TableBuilder`] being written, one typed cell per column
/// in schema order; [`end`](Self::end) counts it. Each cell goes straight
/// into its column: no `Value` is built.
#[derive(Debug)]
#[must_use = "a row counts only once `end` is called"]
pub struct RowWriter<'a> {
    builder: &'a mut TableBuilder,
    column: usize,
}

impl RowWriter<'_> {
    /// The next cell is an Int.
    ///
    /// # Panics
    /// Panics if the column is not an Int column, or the row is full.
    #[inline]
    pub fn int(mut self, v: i64) -> Self {
        self.builder.builders[self.column].push_int(v);
        self.column += 1;
        self
    }

    /// The next cell is a Float.
    ///
    /// # Panics
    /// Panics if the column is not a Float column, or the row is full.
    #[inline]
    pub fn float(mut self, v: f64) -> Self {
        self.builder.builders[self.column].push_float(v);
        self.column += 1;
        self
    }

    /// The next cell is the `i`-th string of the list
    /// [`TableBuilder::set_labels`] fixed for its column. Its code comes from
    /// the column's memo; only the string's first push since the list was
    /// set looks it up in the dictionary.
    ///
    /// # Panics
    /// Panics if the column has no list or `i` is past its end.
    #[inline]
    pub fn label(mut self, i: usize) -> Self {
        let column = &mut self.builder.builders[self.column];
        let labels = self
            .builder
            .labels
            .get_mut(self.column)
            .expect("a label in a column `set_labels` never named");
        match labels.codes[i] {
            NO_CODE => labels.codes[i] = column.push_str(&labels.strings[i]),
            code => column.push_code(code),
        }
        self.column += 1;
        self
    }

    /// Finish the row.
    ///
    /// # Panics
    /// Panics unless every column got a cell.
    #[inline]
    pub fn end(self) {
        assert_eq!(
            self.column,
            self.builder.builders.len(),
            "row width mismatch"
        );
        self.builder.rows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn sample_table() -> Table {
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::categorical("q"),
                ColumnDef::quantitative_int("n"),
                ColumnDef::quantitative_float("f"),
            ],
        );
        let mut b = TableBuilder::new(schema, 3);
        b.push_row(vec![Value::str("A"), Value::Int(1), Value::Float(0.5)]);
        b.push_row(vec![Value::str("B"), Value::Int(2), Value::Null]);
        b.push_row(vec![Value::str("A"), Value::Int(3), Value::Float(1.5)]);
        b.finish()
    }

    #[test]
    fn builds_and_reads_back_rows() {
        let t = sample_table();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.row(1), vec![Value::str("B"), Value::Int(2), Value::Null]);
        assert_eq!(t.value(2, 1), Value::Int(3));
    }

    #[test]
    fn column_lookup_by_name() {
        let t = sample_table();
        assert!(t.column_by_name("N").is_some());
        assert!(t.column_by_name("missing").is_none());
    }

    #[test]
    fn read_row_into_reuses_buffer() {
        let t = sample_table();
        let mut buf = Vec::new();
        t.read_row_into(0, &mut buf);
        assert_eq!(buf[0], Value::str("A"));
        t.read_row_into(2, &mut buf);
        assert_eq!(buf[1], Value::Int(3));
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn empty_table_has_zero_rows() {
        let schema = Schema::new("e", vec![ColumnDef::quantitative_int("x")]);
        let t = TableBuilder::new(schema, 0).finish();
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let schema = Schema::new("t", vec![ColumnDef::quantitative_int("x")]);
        let mut b = TableBuilder::new(schema, 1);
        b.push_row(vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn typed_rows_build_the_bytes_value_rows_build() {
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::categorical("q"),
                ColumnDef::quantitative_int("n"),
                ColumnDef::quantitative_float("f"),
            ],
        );
        // Two halves with their own lists, the way every generation chunk
        // sets its own; the second repeats a string under two indexes.
        type Half<'a> = (&'a [&'a str], &'a [(usize, i64, f64)]);
        let halves: [Half; 2] = [
            (
                &["B", "A"],
                &[(1, 1, 0.5), (0, 300, -0.0), (1, -7, f64::NAN)],
            ),
            (
                &["C", "A", "A", "B"],
                &[(0, 70_000, 1e300), (2, 2, 0.25), (1, 3, 1.5), (3, 4, 2.5)],
            ),
        ];
        let mut typed = TableBuilder::new(schema.clone(), 2);
        let mut boxed = TableBuilder::new(schema, 0);
        for (labels, rows) in halves {
            typed.set_labels("Q", labels);
            for &(i, n, f) in rows {
                typed.row().label(i).int(n).float(f).end();
                boxed.push_row(vec![Value::str(labels[i]), Value::Int(n), Value::Float(f)]);
            }
        }
        assert_eq!(typed.len(), 7);
        let (typed, boxed) = (typed.finish(), boxed.finish());
        assert!(typed.bitwise_eq(&boxed));
        let dict = typed.column(0).dictionary().unwrap();
        assert_eq!(
            dict.iter().map(|s| &**s).collect::<Vec<_>>(),
            ["A", "B", "C"]
        );
        assert_eq!(typed.column(1).int_data().unwrap().width(), 4);
    }

    #[test]
    fn typed_cells_follow_a_null_into_the_validity() {
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::categorical("q"),
                ColumnDef::quantitative_int("n"),
            ],
        );
        let mut b = TableBuilder::new(schema, 3);
        b.set_labels("q", &["x"]);
        b.push_row(vec![Value::Null, Value::Null]);
        b.row().label(0).int(5).end();
        let t = b.finish();
        assert_eq!(t.column(0).validity(), [false, true]);
        assert_eq!(t.column(1).validity(), [false, true]);
        assert_eq!(t.row(1), vec![Value::str("x"), Value::Int(5)]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn a_typed_row_short_of_the_schema_panics() {
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::quantitative_int("x"),
                ColumnDef::quantitative_int("y"),
            ],
        );
        TableBuilder::new(schema, 1).row().int(1).end();
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn a_typed_cell_of_the_wrong_type_panics() {
        let schema = Schema::new("t", vec![ColumnDef::quantitative_int("x")]);
        TableBuilder::new(schema, 1).row().float(1.0).end();
    }

    #[test]
    fn byte_size_is_positive() {
        assert!(sample_table().byte_size() > 0);
    }

    #[test]
    fn zone_maps_cached_and_cover_numeric_columns() {
        use crate::zonemap::Zone;
        let t = sample_table();
        let maps = t.zone_maps();
        assert!(maps.column(0).is_none(), "categorical column has no zones");
        assert_eq!(maps.column(1), Some(Zone::Int { min: 1, max: 3 }));
        assert_eq!(
            maps.column(2),
            Some(Zone::Float { min: 0.5, max: 1.5 }),
            "the NULL row is skipped"
        );
        // Second call returns the cached build (same allocation).
        assert!(std::ptr::eq(t.zone_maps(), maps));
    }
}
