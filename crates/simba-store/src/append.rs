//! Chunk-append table assembly for parallel dataset generation.
//!
//! Generators that build a table's fixed-size chunks on several threads
//! (see `simba_data::chunk`; on one thread they write every chunk into one
//! [`TableBuilder`] instead), and a server receiving a table block by
//! block, need the opposite of [`TableBuilder`]'s row-at-a-time interface:
//! bulk append of whole column fragments, with dictionary codes remapped
//! into one global dictionary. That is what [`TableAssembler`] does.
//!
//! The merge is a pure function of the chunk *sequence*: workers may build
//! chunks on any thread in any order, but as long as the assembler receives
//! them in chunk-index order the finished table is bit-for-bit identical —
//! including dictionary order, which follows first appearance across the
//! concatenated row stream exactly as a single [`TableBuilder`] over the
//! same rows would produce, and column widths, which are a function of the
//! values (see [`NarrowVec`](crate::narrow::NarrowVec)). Each column is
//! appended into the same [`ColumnBuilder`] a [`TableBuilder`] pushes rows
//! into, so no stage holds a wide copy. Chunks may hold any number of rows;
//! the column bounds are built from the finished table, on first use.
//!
//! [`TableBuilder`]: crate::table::TableBuilder

use crate::column::{ColumnBuilder, ColumnData};
use crate::schema::Schema;
use crate::table::Table;

/// One generated fragment of a table: column data for a contiguous row
/// range.
#[derive(Debug)]
pub struct TableChunk {
    columns: Vec<ColumnData>,
    rows: usize,
}

impl TableChunk {
    /// Package generated column fragments.
    ///
    /// # Panics
    /// Panics if the columns disagree on row count.
    pub fn new(columns: Vec<ColumnData>) -> TableChunk {
        let rows = columns.first().map_or(0, ColumnData::len);
        for col in &columns {
            assert_eq!(col.len(), rows, "chunk columns disagree on row count");
        }
        TableChunk { columns, rows }
    }

    /// Number of rows in this chunk.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// Assembles a [`Table`] from [`TableChunk`]s appended in chunk order.
#[derive(Debug)]
pub struct TableAssembler {
    schema: Schema,
    columns: Vec<ColumnBuilder>,
    rows: usize,
}

impl TableAssembler {
    /// Start assembling a table with the given schema, pre-sizing column
    /// buffers for `capacity` rows.
    pub fn new(schema: Schema, capacity: usize) -> TableAssembler {
        let columns = schema
            .columns
            .iter()
            .map(|c| ColumnBuilder::new(c.data_type, capacity))
            .collect();
        TableAssembler {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Append the next chunk. Chunks must arrive in chunk-index order for
    /// the assembled table to be deterministic.
    ///
    /// # Panics
    /// Panics if the chunk's width or column types mismatch the schema.
    pub fn append_chunk(&mut self, chunk: TableChunk) {
        assert_eq!(
            chunk.columns.len(),
            self.columns.len(),
            "chunk width mismatch"
        );
        for (builder, col) in self.columns.iter_mut().zip(chunk.columns) {
            builder.append(col);
        }
        self.rows += chunk.rows;
    }

    /// Rows appended so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Schema of the table being assembled.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Make room for `additional` more rows without over-allocating, for a
    /// caller that learns how much is coming only as it arrives (a table
    /// uploaded block by block) and must not trust a declared total up
    /// front. A no-op while the buffers already have the room.
    pub fn reserve(&mut self, additional: usize) {
        for col in &mut self.columns {
            col.reserve(additional);
        }
    }

    /// Finish assembly: seal the columns into the table.
    pub fn finish(self) -> Table {
        let columns: Vec<ColumnData> = self
            .columns
            .into_iter()
            .map(ColumnBuilder::finish)
            .collect();
        Table::from_columns(self.schema, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::table::TableBuilder;
    use crate::value::Value;
    use crate::zonemap::MORSEL_ROWS;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                ColumnDef::categorical("q"),
                ColumnDef::quantitative_int("n"),
                ColumnDef::quantitative_float("f"),
            ],
        )
    }

    /// Build one chunk of `rows` rows starting at global row `start`, with a
    /// NULL every 7th global row and chunk-local dictionary order.
    fn chunk(start: usize, rows: usize) -> TableChunk {
        let mut b = TableBuilder::new(schema(), rows);
        for i in start..start + rows {
            let q = Value::str(format!("q{}", (i / 3) % 5));
            let n = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int(i as i64)
            };
            b.push_row(vec![q, n, Value::Float(i as f64 * 0.5)]);
        }
        let (_, columns) = b.finish_parts();
        TableChunk::new(columns)
    }

    /// The same rows built by one row-at-a-time builder.
    fn monolithic(rows: usize) -> Table {
        let mut b = TableBuilder::new(schema(), rows);
        for i in 0..rows {
            let q = Value::str(format!("q{}", (i / 3) % 5));
            let n = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int(i as i64)
            };
            b.push_row(vec![q, n, Value::Float(i as f64 * 0.5)]);
        }
        b.finish()
    }

    #[test]
    fn chunked_assembly_matches_monolithic_build() {
        let total = 2 * MORSEL_ROWS + 100;
        // Chunks need not sit on the morsel grid.
        for split in [
            [MORSEL_ROWS, MORSEL_ROWS, 100],
            [100, 2 * MORSEL_ROWS - 1, 1],
        ] {
            let mut asm = TableAssembler::new(schema(), total);
            let mut start = 0;
            for rows in split {
                asm.append_chunk(chunk(start, rows));
                start += rows;
            }
            let table = asm.finish();
            assert!(table.bitwise_eq(&monolithic(total)), "{split:?}");
        }
    }

    #[test]
    fn reserving_as_chunks_arrive_changes_nothing_about_the_table() {
        let total = 2 * MORSEL_ROWS + 100;
        let mut asm = TableAssembler::new(schema(), 0);
        asm.reserve(MORSEL_ROWS);
        asm.append_chunk(chunk(0, MORSEL_ROWS));
        asm.reserve(total - MORSEL_ROWS);
        asm.append_chunk(chunk(MORSEL_ROWS, MORSEL_ROWS));
        asm.append_chunk(chunk(2 * MORSEL_ROWS, 100));
        assert_eq!(asm.rows(), total);
        assert!(asm.finish().bitwise_eq(&monolithic(total)));
    }

    #[test]
    fn dictionary_follows_first_appearance_across_chunks() {
        let mut asm = TableAssembler::new(
            Schema::new("d", vec![ColumnDef::categorical("c")]),
            2 * MORSEL_ROWS,
        );
        let mk = |labels: &[&str]| {
            let mut b = TableBuilder::new(Schema::new("d", vec![ColumnDef::categorical("c")]), 0);
            for l in labels.iter().cycle().take(MORSEL_ROWS) {
                b.push_row(vec![Value::str(l)]);
            }
            TableChunk::new(b.finish_parts().1)
        };
        asm.append_chunk(mk(&["b", "a"]));
        asm.append_chunk(mk(&["c", "a", "b"]));
        let table = asm.finish();
        let dict = table.column(0).dictionary().unwrap();
        let names: Vec<&str> = dict.iter().map(|s| s.as_ref()).collect();
        assert_eq!(names, ["b", "a", "c"]);
    }

    #[test]
    fn all_null_string_chunk_normalizes_codes() {
        let schema = Schema::new("s", vec![ColumnDef::categorical("c")]);
        let mut b = TableBuilder::new(schema.clone(), MORSEL_ROWS);
        for _ in 0..MORSEL_ROWS {
            b.push_row(vec![Value::Null]);
        }
        let mut asm = TableAssembler::new(schema, MORSEL_ROWS + 1);
        asm.append_chunk(TableChunk::new(b.finish_parts().1));
        let table = asm.finish();
        assert!(table.column(0).is_null(0));
        assert_eq!(table.value(MORSEL_ROWS - 1, 0), Value::Null);
    }

    #[test]
    fn empty_assembly_yields_empty_table() {
        let table = TableAssembler::new(schema(), 0).finish();
        assert_eq!(table.row_count(), 0);
    }
}
