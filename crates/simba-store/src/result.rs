//! Query result sets and the coverage operations behind goal completion.
//!
//! §4.1.2 of the paper defines goal completion as result-set *coverage*:
//! a goal query is solved when its result set is covered by the union of
//! everything the simulated user has seen (`∪ R_g ⊆ ∪ R_i`), and planning
//! progress is measured as result-set *overlap* (`|R_g ∩ R(s)|`). Both
//! operations live here.
//!
//! A result is stored as one typed column per output column: `Int`,
//! `Float` and `Bool` cells as plain `i64` / `f64` / `bool` vectors with a
//! NULL bitmap, strings as `Option<Arc<str>>` (NULL is `None`), a column
//! of nothing but NULLs as its length, and a column whose non-NULL values
//! are not all one [`Value`] variant as `Value`s. Every result is built by
//! a [`ResultBuilder`], so a column's layout is a function of the values
//! pushed into it. Equality, order and hashing are [`Value`]'s, applied row
//! by row: `Int(1) == Float(1.0)` across two results whose columns differ
//! in type, and floats compare bitwise through `total_cmp`.

use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One cell of a result, borrowed. Its `Debug` form is the [`Value`]'s it
/// stands for, byte for byte.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String.
    Str(&'a str),
}

/// Which rows of a typed column are NULL: one bit per row, words only up
/// to the last NULL (none when the column has no NULL).
#[derive(Debug, Clone, Default)]
struct Nulls(Vec<u64>);

impl Nulls {
    fn set(&mut self, row: usize) {
        let word = row / 64;
        if self.0.len() <= word {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (row % 64);
    }

    fn get(&self, row: usize) -> bool {
        self.0
            .get(row / 64)
            .is_some_and(|w| w >> (row % 64) & 1 == 1)
    }

    /// Every one of `rows` rows is NULL.
    fn all(rows: usize) -> Nulls {
        let mut nulls = Nulls::default();
        (0..rows).for_each(|row| nulls.set(row));
        nulls
    }
}

/// One output column (see the module docs for the layouts).
#[derive(Debug, Clone)]
enum Column {
    /// Nothing but NULLs: how many.
    Null(usize),
    Int(Vec<i64>, Nulls),
    Float(Vec<f64>, Nulls),
    Bool(Vec<bool>, Nulls),
    Str(Vec<Option<Arc<str>>>),
    /// Non-NULL values of more than one variant.
    Mixed(Vec<Value>),
}

/// A vector of `len` copies of `fill` with room for `capacity` cells.
fn filled<T: Clone>(fill: T, len: usize, capacity: usize) -> Vec<T> {
    let mut v = Vec::with_capacity(capacity.max(len + 1));
    v.resize(len, fill);
    v
}

impl Column {
    fn len(&self) -> usize {
        match self {
            Column::Null(n) => *n,
            Column::Int(v, _) => v.len(),
            Column::Float(v, _) => v.len(),
            Column::Bool(v, _) => v.len(),
            Column::Str(v) => v.len(),
            Column::Mixed(v) => v.len(),
        }
    }

    fn get(&self, row: usize) -> ValueRef<'_> {
        match self {
            Column::Null(_) => ValueRef::Null,
            Column::Int(_, nulls) | Column::Float(_, nulls) | Column::Bool(_, nulls)
                if nulls.get(row) =>
            {
                ValueRef::Null
            }
            Column::Int(v, _) => ValueRef::Int(v[row]),
            Column::Float(v, _) => ValueRef::Float(v[row]),
            Column::Bool(v, _) => ValueRef::Bool(v[row]),
            Column::Str(v) => v[row].as_deref().map_or(ValueRef::Null, ValueRef::Str),
            Column::Mixed(v) => match &v[row] {
                Value::Null => ValueRef::Null,
                Value::Bool(b) => ValueRef::Bool(*b),
                Value::Int(x) => ValueRef::Int(*x),
                Value::Float(x) => ValueRef::Float(*x),
                Value::Str(s) => ValueRef::Str(s),
            },
        }
    }

    fn value(&self, row: usize) -> Value {
        match self {
            Column::Str(v) => v[row].clone().map_or(Value::Null, Value::Str),
            Column::Mixed(v) => v[row].clone(),
            _ => match self.get(row) {
                ValueRef::Null => Value::Null,
                ValueRef::Bool(b) => Value::Bool(b),
                ValueRef::Int(x) => Value::Int(x),
                ValueRef::Float(x) => Value::Float(x),
                ValueRef::Str(_) => unreachable!("only Str and Mixed columns hold strings"),
            },
        }
    }

    /// Append `value`, changing the layout when the column's cannot hold
    /// it. `capacity` is the rows a column reserves when it takes a type.
    fn push(&mut self, value: Value, capacity: usize) {
        let len = self.len();
        match (&mut *self, value) {
            (Column::Null(n), Value::Null) => *n += 1,
            (Column::Null(_), value) => {
                *self = match &value {
                    Value::Int(_) => Column::Int(filled(0, len, capacity), Nulls::all(len)),
                    Value::Float(_) => Column::Float(filled(0.0, len, capacity), Nulls::all(len)),
                    Value::Bool(_) => Column::Bool(filled(false, len, capacity), Nulls::all(len)),
                    Value::Str(_) => Column::Str(filled(None, len, capacity)),
                    Value::Null => unreachable!("matched above"),
                };
                self.push(value, capacity);
            }
            (Column::Int(v, nulls), Value::Null) => {
                nulls.set(len);
                v.push(0);
            }
            (Column::Float(v, nulls), Value::Null) => {
                nulls.set(len);
                v.push(0.0);
            }
            (Column::Bool(v, nulls), Value::Null) => {
                nulls.set(len);
                v.push(false);
            }
            (Column::Int(v, _), Value::Int(x)) => v.push(x),
            (Column::Float(v, _), Value::Float(x)) => v.push(x),
            (Column::Bool(v, _), Value::Bool(b)) => v.push(b),
            (Column::Str(v), Value::Str(s)) => v.push(Some(s)),
            (Column::Str(v), Value::Null) => v.push(None),
            (Column::Mixed(v), value) => v.push(value),
            (_, value) => {
                let mut values = Vec::with_capacity(capacity.max(len + 1));
                values.extend((0..len).map(|row| self.value(row)));
                values.push(value);
                *self = Column::Mixed(values);
            }
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Column::Null(_) => {}
            Column::Int(v, _) => v.shrink_to_fit(),
            Column::Float(v, _) => v.shrink_to_fit(),
            Column::Bool(v, _) => v.shrink_to_fit(),
            Column::Str(v) => v.shrink_to_fit(),
            Column::Mixed(v) => v.shrink_to_fit(),
        }
    }
}

/// [`Value`]'s order between cell `i` of `a` and cell `j` of `b`, read
/// without building a `Value` where both columns have one layout.
fn cmp_cells(a: &Column, i: usize, b: &Column, j: usize) -> Ordering {
    // NULL sorts before every value, like `Value::Null`.
    fn nulls_first(x: bool, y: bool) -> Ordering {
        y.cmp(&x)
    }
    match (a, b) {
        (Column::Int(x, xn), Column::Int(y, yn)) => match (xn.get(i), yn.get(j)) {
            (false, false) => x[i].cmp(&y[j]),
            (p, q) => nulls_first(p, q),
        },
        (Column::Float(x, xn), Column::Float(y, yn)) => match (xn.get(i), yn.get(j)) {
            (false, false) => x[i].total_cmp(&y[j]),
            (p, q) => nulls_first(p, q),
        },
        (Column::Bool(x, xn), Column::Bool(y, yn)) => match (xn.get(i), yn.get(j)) {
            (false, false) => x[i].cmp(&y[j]),
            (p, q) => nulls_first(p, q),
        },
        // `None < Some`, and `Arc<str>` orders by content.
        (Column::Str(x), Column::Str(y)) => x[i].cmp(&y[j]),
        _ => a.value(i).cmp(&b.value(j)),
    }
}

/// A materialized query result: named columns, one typed column each.
///
/// Rows carry *multiset* semantics — duplicates are meaningful — and are
/// unordered unless the producing query had an `ORDER BY`.
#[derive(Clone)]
pub struct ResultSet {
    /// Output column names, in projection order.
    columns: Vec<String>,
    /// One column per name, each `rows` cells long.
    data: Vec<Column>,
    rows: usize,
}

impl ResultSet {
    /// Build a result set from rows. Every row must have `columns.len()`
    /// values.
    pub fn new(columns: Vec<String>, rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        let mut builder = ResultBuilder::new(columns.len());
        for row in rows {
            builder.push_row(row);
        }
        builder.finish(columns)
    }

    /// An empty result with the given column names.
    pub fn empty(columns: Vec<String>) -> Self {
        ResultBuilder::new(columns.len()).finish(columns)
    }

    /// Output column names, in projection order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The value in `row` of column `col`.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.data[col].value(row)
    }

    /// Row `row`.
    pub fn row(&self, row: usize) -> Row<'_> {
        assert!(row < self.rows, "row {row} of a {}-row result", self.rows);
        Row { set: self, row }
    }

    /// Every row, in stored order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_>> + '_ {
        (0..self.rows).map(move |row| Row { set: self, row })
    }

    /// Case-insensitive column lookup.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Project onto the named columns (in the given order). `None` if any
    /// column is missing.
    pub fn project(&self, names: &[&str]) -> Option<ResultSet> {
        let data = names
            .iter()
            .map(|n| Some(self.data[self.column_index(n)?].clone()))
            .collect::<Option<_>>()?;
        Some(ResultSet {
            columns: names.iter().map(|s| s.to_string()).collect(),
            data,
            rows: self.rows,
        })
    }

    /// Append a column holding `value` in every row.
    pub fn push_constant(&mut self, name: String, value: Value) {
        let mut column = Column::Null(0);
        for _ in 0..self.rows {
            column.push(value.clone(), self.rows);
        }
        self.columns.push(name);
        self.data.push(column);
    }

    /// Multiset of rows with multiplicities.
    pub fn row_bag(&self) -> HashMap<Row<'_>, usize> {
        let mut bag = HashMap::with_capacity(self.rows);
        for r in self.rows() {
            *bag.entry(r).or_insert(0) += 1;
        }
        bag
    }

    /// Order-insensitive multiset equality. Columns must match by
    /// case-insensitive name in the same positions.
    pub fn multiset_eq(&self, other: &ResultSet) -> bool {
        if self.columns.len() != other.columns.len()
            || !self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
        {
            return false;
        }
        if self.rows != other.rows {
            return false;
        }
        self.row_bag() == other.row_bag()
    }

    /// Result subsumption (§4.1.2, *Result Equivalence*): every column and
    /// row of `goal` must be present in `self`; `self` may contain more of
    /// both. Rows are matched after projecting `self` onto `goal`'s columns,
    /// respecting multiplicities.
    pub fn subsumes(&self, goal: &ResultSet) -> bool {
        self.covered_rows(goal) == goal.n_rows()
    }

    /// Overlap measure θ (§4.1.2, *Measuring Progress*): how many of
    /// `goal`'s rows (with multiplicity) are visible in `self`? Returns 0
    /// when `self` is missing any goal column.
    pub fn covered_rows(&self, goal: &ResultSet) -> usize {
        let names: Vec<&str> = goal.columns.iter().map(String::as_str).collect();
        let Some(projected) = self.project(&names) else {
            return 0;
        };
        let mut have = projected.row_bag();
        let mut covered = 0usize;
        for r in goal.rows() {
            if let Some(count) = have.get_mut(&r) {
                if *count > 0 {
                    *count -= 1;
                    covered += 1;
                }
            }
        }
        covered
    }

    /// Overlap as a fraction of the goal's rows, in `[0, 1]`. An empty goal
    /// is fully covered.
    pub fn coverage_fraction(&self, goal: &ResultSet) -> f64 {
        if goal.is_empty() {
            return 1.0;
        }
        self.covered_rows(goal) as f64 / goal.n_rows() as f64
    }

    /// Row numbers in the total value order; rows that compare equal keep
    /// their stored order.
    pub fn sorted_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rows).collect();
        order.sort_by(|&a, &b| self.row(a).cmp(&self.row(b)));
        order
    }

    /// Rows sorted by the total value order — a canonical form for snapshot
    /// comparisons in tests.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let order = self.sorted_order();
        order.into_iter().map(|r| self.row(r).to_vec()).collect()
    }
}

impl PartialEq for ResultSet {
    /// Same column names, and row by row equal [`Value`]s.
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns && self.rows == other.rows && self.rows().eq(other.rows())
    }
}

impl Eq for ResultSet {}

impl fmt::Debug for ResultSet {
    /// The form a row-major `{ columns, rows }` struct prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Rows<'a>(&'a ResultSet);
        impl fmt::Debug for Rows<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.rows()).finish()
            }
        }
        f.debug_struct("ResultSet")
            .field("columns", &self.columns)
            .field("rows", &Rows(self))
            .finish()
    }
}

/// One row of a [`ResultSet`]. Equality, order and hashing are those of
/// its [`Value`]s, like a `Vec<Value>`'s.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    set: &'a ResultSet,
    row: usize,
}

impl<'a> Row<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.set.data.len()
    }

    /// True for a row of no columns.
    pub fn is_empty(&self) -> bool {
        self.set.data.is_empty()
    }

    /// The value of column `col`.
    pub fn get(&self, col: usize) -> Value {
        self.set.value(self.row, col)
    }

    /// The value of column `col`, borrowed.
    pub fn get_ref(&self, col: usize) -> ValueRef<'a> {
        self.set.data[col].get(self.row)
    }

    /// The row's values, borrowed, in column order.
    pub fn refs(&self) -> impl ExactSizeIterator<Item = ValueRef<'a>> + 'a {
        let row = self.row;
        self.set.data.iter().map(move |c| c.get(row))
    }

    /// The row's values.
    pub fn to_vec(&self) -> Vec<Value> {
        self.set.data.iter().map(|c| c.value(self.row)).collect()
    }
}

impl Ord for Row<'_> {
    /// Lexicographic in [`Value`]'s order, then shorter first.
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.set.data.iter().zip(&other.set.data) {
            let ord = cmp_cells(a, self.row, b, other.row);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        self.len().cmp(&other.len())
    }
}

impl PartialOrd for Row<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Row<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Row<'_> {}

impl Hash for Row<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len().hash(state);
        for col in 0..self.len() {
            self.get(col).hash(state);
        }
    }
}

impl fmt::Debug for Row<'_> {
    /// The form a `Vec<Value>` prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.refs()).finish()
    }
}

/// Builds a [`ResultSet`] one cell at a time, row by row: [`push`] each
/// cell of a row in column order, then [`end_row`].
///
/// [`push`]: ResultBuilder::push
/// [`end_row`]: ResultBuilder::end_row
#[derive(Debug, Clone)]
pub struct ResultBuilder {
    data: Vec<Column>,
    rows: usize,
    /// Cells pushed into the open row.
    open: usize,
    /// Rows a column reserves when it takes a type.
    capacity: usize,
}

impl ResultBuilder {
    /// A builder of `width` columns.
    pub fn new(width: usize) -> Self {
        Self::with_capacity(width, 0)
    }

    /// A builder of `width` columns expecting up to `rows` rows.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        ResultBuilder {
            data: vec![Column::Null(0); width],
            rows: 0,
            open: 0,
            capacity: rows,
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.data.len()
    }

    /// Number of finished rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Push the next cell of the open row.
    pub fn push(&mut self, value: Value) {
        self.data[self.open].push(value, self.capacity);
        self.open += 1;
    }

    /// Close the open row; every column must have had its cell.
    pub fn end_row(&mut self) {
        assert_eq!(
            self.open,
            self.data.len(),
            "a row needs one cell per column"
        );
        self.open = 0;
        self.rows += 1;
    }

    /// Push a whole row.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Value>) {
        for value in row {
            self.push(value);
        }
        self.end_row();
    }

    /// Append every row of `other`, a builder of the same width.
    pub fn append(&mut self, other: ResultBuilder) {
        assert_eq!(self.data.len(), other.data.len(), "appended widths differ");
        let capacity = self.rows + other.rows;
        for (mine, theirs) in self.data.iter_mut().zip(other.data) {
            match (&mut *mine, theirs) {
                (Column::Null(a), Column::Null(b)) => *a += b,
                (Column::Str(a), Column::Str(b)) => a.extend(b),
                (Column::Mixed(a), Column::Mixed(b)) => a.extend(b),
                (_, theirs) => {
                    for row in 0..theirs.len() {
                        mine.push(theirs.value(row), capacity);
                    }
                }
            }
        }
        self.rows += other.rows;
    }

    /// [`Value`]'s order between rows `a` and `b` of column `col`.
    pub fn cmp_cells(&self, col: usize, a: usize, b: usize) -> Ordering {
        let column = &self.data[col];
        cmp_cells(column, a, column, b)
    }

    /// The result, one name per column.
    pub fn finish(self, columns: Vec<String>) -> ResultSet {
        assert_eq!(self.open, 0, "a row is still open");
        assert_eq!(columns.len(), self.data.len(), "one name per column");
        let mut data = self.data;
        for column in &mut data {
            column.shrink_to_fit();
        }
        ResultSet {
            columns,
            data,
            rows: self.rows,
        }
    }

    /// The result of the builder's first `columns.len()` columns with the
    /// rows numbered in `rows`, in that order.
    pub fn finish_rows(self, columns: Vec<String>, rows: &[usize]) -> ResultSet {
        assert!(columns.len() <= self.data.len(), "more names than columns");
        let mut out = ResultBuilder::with_capacity(columns.len(), rows.len());
        for (from, to) in self.data.iter().zip(&mut out.data) {
            for &row in rows {
                to.push(from.value(row), rows.len());
            }
        }
        out.rows = rows.len();
        drop(self);
        out.finish(columns)
    }
}

/// Accumulates everything a simulated user has *seen* across a session —
/// the `∪ R_i` side of the goal-completion test. Rows are stored per
/// column-name signature so results from different queries union soundly.
#[derive(Debug, Default, Clone)]
pub struct CoverageStore {
    /// Lowercased column-name signature → accumulated rows (with counts).
    seen: HashMap<Vec<String>, HashMap<Vec<Value>, usize>>,
}

impl CoverageStore {
    /// New, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a result set the user has observed.
    pub fn absorb(&mut self, rs: &ResultSet) {
        let sig: Vec<String> = rs.columns.iter().map(|c| c.to_ascii_lowercase()).collect();
        let bag = self.seen.entry(sig).or_default();
        for r in rs.rows() {
            *bag.entry(r.to_vec()).or_insert(0) += 1;
        }
    }

    /// How many of `goal`'s rows are covered by *any* absorbed result whose
    /// columns include the goal's columns?
    pub fn covered_rows(&self, goal: &ResultSet) -> usize {
        let goal_cols: Vec<String> = goal
            .columns
            .iter()
            .map(|c| c.to_ascii_lowercase())
            .collect();
        let goal_rows: Vec<_> = goal.rows().map(|r| r.to_vec()).collect();
        let mut best = 0usize;
        #[expect(
            clippy::iter_over_hash_type,
            reason = "max over per-signature coverage counts — visiting signatures in any order yields the same maximum"
        )]
        for (sig, bag) in &self.seen {
            // Map goal columns into this signature.
            let Some(indices) = goal_cols
                .iter()
                .map(|g| sig.iter().position(|s| s == g))
                .collect::<Option<Vec<_>>>()
            else {
                continue;
            };
            let mut have = project(bag, &indices);
            let mut covered = 0usize;
            for r in &goal_rows {
                if let Some(count) = have.get_mut(r) {
                    if *count > 0 {
                        *count -= 1;
                        covered += 1;
                    }
                }
            }
            best = best.max(covered);
        }
        best
    }

    /// Is the goal fully covered (`R_g ⊆ ∪ R_i`)?
    pub fn covers(&self, goal: &ResultSet) -> bool {
        self.covered_rows(goal) == goal.n_rows()
    }
}

/// Project the absorbed rows of one signature onto the goal columns at
/// `indices`, summing the counts of rows that meet.
fn project(bag: &HashMap<Vec<Value>, usize>, indices: &[usize]) -> HashMap<Vec<Value>, usize> {
    let mut have: HashMap<Vec<Value>, usize> = HashMap::with_capacity(bag.len());
    #[expect(
        clippy::iter_over_hash_type,
        reason = "count merge — adding counts in any order yields the same sums"
    )]
    for (row, count) in bag {
        let projected: Vec<Value> = indices.iter().map(|&i| row[i].clone()).collect();
        *have.entry(projected).or_insert(0) += count;
    }
    have
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(cols: &[&str], rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet::new(cols.iter().map(|s| s.to_string()).collect(), rows)
    }

    #[test]
    fn multiset_eq_ignores_row_order() {
        let a = rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let b = rs(&["x"], vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn multiset_eq_respects_multiplicity() {
        let a = rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(1)]]);
        let b = rs(&["x"], vec![vec![Value::Int(1)]]);
        assert!(!a.multiset_eq(&b));
    }

    #[test]
    fn multiset_eq_column_names_case_insensitive() {
        let a = rs(&["X"], vec![vec![Value::Int(1)]]);
        let b = rs(&["x"], vec![vec![Value::Int(1)]]);
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn subsumption_allows_extra_columns_and_rows() {
        let big = rs(
            &["q", "n", "extra"],
            vec![
                vec![Value::str("A"), Value::Int(1), Value::Bool(true)],
                vec![Value::str("B"), Value::Int(2), Value::Bool(false)],
            ],
        );
        let goal = rs(&["n", "q"], vec![vec![Value::Int(2), Value::str("B")]]);
        assert!(big.subsumes(&goal));
        assert!(!goal.subsumes(&big));
    }

    #[test]
    fn subsumption_fails_on_missing_column() {
        let a = rs(&["x"], vec![vec![Value::Int(1)]]);
        let goal = rs(&["y"], vec![vec![Value::Int(1)]]);
        assert!(!a.subsumes(&goal));
    }

    #[test]
    fn covered_rows_counts_partial_overlap() {
        let seen = rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let goal = rs(
            &["x"],
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)],
            ],
        );
        assert_eq!(seen.covered_rows(&goal), 2);
        assert!((seen.coverage_fraction(&goal) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_goal_is_fully_covered() {
        let seen = rs(&["x"], vec![]);
        let goal = rs(&["x"], vec![]);
        assert!(seen.subsumes(&goal));
        assert_eq!(seen.coverage_fraction(&goal), 1.0);
    }

    #[test]
    fn coverage_store_unions_across_queries() {
        // The paper's Figure 3/4 scenario: the goal (per-queue counts) is
        // covered by the union of four per-queue filtered queries.
        let mut store = CoverageStore::new();
        for (q, n) in [("A", 5), ("B", 3), ("C", 7), ("D", 1)] {
            store.absorb(&rs(
                &["queue", "count"],
                vec![vec![Value::str(q), Value::Int(n)]],
            ));
        }
        let goal = rs(
            &["queue", "count"],
            vec![
                vec![Value::str("A"), Value::Int(5)],
                vec![Value::str("B"), Value::Int(3)],
                vec![Value::str("C"), Value::Int(7)],
                vec![Value::str("D"), Value::Int(1)],
            ],
        );
        assert!(store.covers(&goal));
    }

    #[test]
    fn coverage_store_partial_until_all_seen() {
        let mut store = CoverageStore::new();
        let goal = rs(
            &["queue"],
            vec![vec![Value::str("A")], vec![Value::str("B")]],
        );
        store.absorb(&rs(&["queue"], vec![vec![Value::str("A")]]));
        assert_eq!(store.covered_rows(&goal), 1);
        assert!(!store.covers(&goal));
        store.absorb(&rs(&["queue"], vec![vec![Value::str("B")]]));
        assert!(store.covers(&goal));
    }

    #[test]
    fn coverage_store_matches_wider_results() {
        let mut store = CoverageStore::new();
        store.absorb(&rs(
            &["queue", "hour", "count"],
            vec![vec![Value::str("A"), Value::Int(9), Value::Int(4)]],
        ));
        let goal = rs(
            &["count", "queue"],
            vec![vec![Value::Int(4), Value::str("A")]],
        );
        assert!(store.covers(&goal));
    }

    #[test]
    fn projection_reorders_columns() {
        let a = rs(&["a", "b"], vec![vec![Value::Int(1), Value::Int(2)]]);
        let p = a.project(&["b", "a"]).unwrap();
        assert_eq!(p.row(0).to_vec(), vec![Value::Int(2), Value::Int(1)]);
        assert!(a.project(&["missing"]).is_none());
    }

    fn layout(rs: &ResultSet, col: usize) -> &'static str {
        match rs.data[col] {
            Column::Null(_) => "null",
            Column::Int(..) => "int",
            Column::Float(..) => "float",
            Column::Bool(..) => "bool",
            Column::Str(_) => "str",
            Column::Mixed(_) => "mixed",
        }
    }

    #[test]
    fn a_column_takes_the_layout_of_its_values() {
        let r = rs(
            &["n", "i", "f", "b", "s", "m"],
            vec![
                vec![
                    Value::Null,
                    Value::Null,
                    Value::Float(-0.0),
                    Value::Bool(true),
                    Value::Null,
                    Value::Int(1),
                ],
                vec![
                    Value::Null,
                    Value::Int(i64::MIN),
                    Value::Null,
                    Value::Null,
                    Value::str("a"),
                    Value::Float(1.0),
                ],
            ],
        );
        let layouts: Vec<_> = (0..6).map(|c| layout(&r, c)).collect();
        assert_eq!(layouts, ["null", "int", "float", "bool", "str", "mixed"]);
        assert_eq!(r.value(0, 1), Value::Null);
        assert_eq!(format!("{:?}", r.value(1, 1)), "Int(-9223372036854775808)");
        assert_eq!(format!("{:?}", r.row(0).get_ref(2)), "Float(-0.0)");
        assert_eq!(format!("{:?}", r.value(1, 5)), "Float(1.0)");
        // Row by row `Value` equality: an Int column equals a Float one.
        assert_eq!(
            rs(&["x"], vec![vec![Value::Int(1)]]),
            rs(&["x"], vec![vec![Value::Float(1.0)]])
        );
    }

    #[test]
    fn finishing_rows_re_derives_the_layout() {
        let mut b = ResultBuilder::new(2);
        b.push_row([Value::Int(3), Value::str("k")]);
        b.push_row([Value::Float(0.5), Value::Null]);
        let r = b.finish_rows(vec!["x".into()], &[0]);
        assert_eq!(r.n_cols(), 1);
        assert_eq!(layout(&r, 0), "int");
        assert_eq!(r.row(0).to_vec(), vec![Value::Int(3)]);
    }
}
