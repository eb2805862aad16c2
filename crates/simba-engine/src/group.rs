//! The one group store. Every engine but the `sqlite-like` oracle (an
//! ordered map, emitting in key order) aggregates through a [`GroupTable`],
//! which has two independent parts:
//!
//! - a **key index** that turns a batch of selected rows into group ids:
//!   *global* (no GROUP BY: one group, emitted even over no rows), *dense*
//!   (the only key is a bare dictionary-encoded column: one slot per code,
//!   the NULL slot last) or *hash* (any other key: the key tuple, each key
//!   stored once);
//! - one **aggregate column** per aggregate, indexed by group id: *typed*
//!   when that aggregate alone allows it — `COUNT`, or `SUM` / `AVG` /
//!   `MIN` / `MAX` over a bare Int or Float column, fed batch-wise from the
//!   raw slice at its stored width ([`for_width!`]) with no `Value` per
//!   row — and *boxed* otherwise, an [`Accumulator`] per group
//!   (`COUNT(DISTINCT …)`, `MIN` / `MAX` over strings, computed arguments).
//!   Typed columns finalize to exactly the accumulators' values.
//!
//! The emission order is fixed, so a `LIMIT` without a total `ORDER BY`
//! cuts the same groups on every engine, thread count and delta tier:
//!
//! - **dense index**: code order, the NULL slot last;
//! - **hash index**: first appearance in scan order;
//! - `GroupTable::merge` appends the other table's unseen keys in its
//!   order, so range partials merged in range order emit what one
//!   sequential scan would.

use crate::agg::{Accumulator, AggSpec};
use crate::eval::{eval, CExpr, TableRow};
use crate::exec::emit_finalized_groups;
use simba_sql::Func;
use simba_store::{for_width, ColumnData, Table, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// How a row finds its group id.
#[derive(Debug, Clone)]
enum KeyIndex {
    /// No GROUP BY: every row is in group 0.
    Global,
    /// Slot = the key column's dictionary code, the last slot NULL; each
    /// slot holds its group id once a row has reached it.
    Dense { col: usize, slots: Vec<Option<u32>> },
    /// Key tuple → group id, probed from `scratch` so a row that joins an
    /// existing group allocates nothing. Probed, never iterated.
    Hash {
        exprs: Vec<CExpr>,
        by_key: HashMap<Arc<[Value]>, u32>,
        scratch: Vec<Value>,
    },
}

/// Append a group's key and return its id.
fn push(keys: &mut Vec<Arc<[Value]>>, key: Arc<[Value]>) -> u32 {
    keys.push(key);
    (keys.len() - 1) as u32
}

impl KeyIndex {
    /// Set `ids` (empty on entry) to the group id of each of `rows`,
    /// appending the key of every group first reached to `keys`.
    fn assign(
        &mut self,
        table: &Table,
        rows: &[u32],
        ids: &mut Vec<u32>,
        keys: &mut Vec<Arc<[Value]>>,
    ) {
        match self {
            KeyIndex::Global => ids.resize(rows.len(), 0),
            KeyIndex::Dense { col, slots } => {
                let column = table.column(*col);
                dict_key_slots(column, rows, ids, (slots.len() - 1) as u32);
                for (id, &row) in ids.iter_mut().zip(rows) {
                    *id = *slots[*id as usize]
                        .get_or_insert_with(|| push(keys, Arc::from([column.value(row as usize)])));
                }
            }
            KeyIndex::Hash {
                exprs,
                by_key,
                scratch,
            } => {
                for &row in rows {
                    let ctx = TableRow {
                        table,
                        row: row as usize,
                    };
                    scratch.clear();
                    scratch.extend(exprs.iter().map(|k| eval(k, &ctx)));
                    let id = match by_key.get(scratch.as_slice()) {
                        Some(&id) => id,
                        None => {
                            let key: Arc<[Value]> = Arc::from(scratch.as_slice());
                            let id = push(keys, key.clone());
                            by_key.insert(key, id);
                            id
                        }
                    };
                    ids.push(id);
                }
            }
        }
    }
}

/// The dictionary codes of the selected rows of a dictionary-encoded
/// column, `null_slot` for NULL rows.
fn dict_key_slots(col: &ColumnData, rows: &[u32], slots: &mut Vec<u32>, null_slot: u32) {
    slots.clear();
    // simba: allow(panic-hygiene): the dense index is only built over a dictionary-encoded key column; a codeless column is a planner bug
    let codes = col.code_data().expect("dict key column");
    let valid = col.validity();
    for_width!(codes, |lane| if valid.is_empty() {
        slots.extend(rows.iter().map(|&i| lane[i as usize] as u32));
    } else {
        slots.extend(rows.iter().map(|&i| {
            let i = i as usize;
            if valid[i] {
                lane[i] as u32
            } else {
                null_slot
            }
        }));
    })
}

/// One aggregate's state for every group, indexed by group id. The typed
/// variants read their bare column's raw slice; `Boxed` evaluates its
/// argument into an accumulator per row.
#[derive(Debug, Clone)]
enum AggColumn {
    /// `COUNT(*)` (`col: None`), or `COUNT(col)`: the valid rows of a
    /// column of any type.
    Count {
        col: Option<usize>,
        n: Vec<i64>,
    },
    /// SUM over an Int column, wrapping like the accumulator; `None` until
    /// a value arrives, so `0` and NULL differ.
    SumInt {
        col: usize,
        sum: Vec<Option<i64>>,
    },
    SumFloat {
        col: usize,
        sum: Vec<Option<f64>>,
    },
    /// AVG over an Int or Float column: running sum and count.
    Avg {
        col: usize,
        acc: Vec<(f64, i64)>,
    },
    /// MIN (`want: Less`) or MAX (`Greater`) over an Int column.
    MinMaxInt {
        col: usize,
        want: Ordering,
        val: Vec<Option<i64>>,
    },
    MinMaxFloat {
        col: usize,
        want: Ordering,
        val: Vec<Option<f64>>,
    },
    /// Anything else: one accumulator per group.
    Boxed {
        spec: AggSpec,
        accs: Vec<Accumulator>,
    },
}

/// Iterate `(row, group)` pairs where the column is valid at `row`. Int
/// arguments run it inside [`for_width!`], so each stored width gets its
/// own copy of the loop.
macro_rules! for_valid {
    ($valid:expr, $rows:expr, $ids:expr, |$i:ident, $g:ident| $body:expr) => {{
        let valid = $valid;
        if valid.is_empty() {
            for (&row, &id) in $rows.iter().zip($ids) {
                let ($i, $g) = (row as usize, id as usize);
                $body
            }
        } else {
            for (&row, &id) in $rows.iter().zip($ids) {
                let ($i, $g) = (row as usize, id as usize);
                if valid[$i] {
                    $body
                }
            }
        }
    }};
}

/// `f(group, value)` for each selected row whose Int column `col` is
/// valid, read at the column's stored width. A column of another type
/// feeds nothing.
fn ints(table: &Table, col: usize, rows: &[u32], ids: &[u32], mut f: impl FnMut(usize, i64)) {
    let c = table.column(col);
    if let Some(data) = c.int_data() {
        for_width!(data, |lane| for_valid!(c.validity(), rows, ids, |i, g| f(
            g,
            lane[i] as i64
        )));
    }
}

/// [`ints`] for a Float column.
fn floats(table: &Table, col: usize, rows: &[u32], ids: &[u32], mut f: impl FnMut(usize, f64)) {
    let c = table.column(col);
    if let Some(data) = c.float_data() {
        for_valid!(c.validity(), rows, ids, |i, g| f(g, data[i]));
    }
}

fn add_int(sum: &mut Option<i64>, v: i64) {
    *sum = Some(sum.unwrap_or(0).wrapping_add(v));
}

fn add_float(sum: &mut Option<f64>, v: f64) {
    *sum = Some(sum.unwrap_or(0.0) + v);
}

/// Keep `v` if nothing is kept yet or it `wins` over the kept value: ties
/// keep the earlier value, like the accumulator's keep-first rule.
fn keep_first<T: Copy>(kept: &mut Option<T>, v: T, wins: impl Fn(T, T) -> bool) {
    if kept.is_none_or(|m| wins(v, m)) {
        *kept = Some(v);
    }
}

/// `map[id]` beside each of `theirs`, the other column's states by its ids.
fn mapped<'a, T: 'a>(map: &'a [u32], theirs: Vec<T>) -> impl Iterator<Item = (usize, T)> + 'a {
    map.iter().map(|&g| g as usize).zip(theirs)
}

impl AggColumn {
    /// The column for `spec` over `table`: typed when its argument is a bare
    /// column of a type the typed state reads, boxed otherwise.
    fn new(spec: &AggSpec, table: &Table) -> AggColumn {
        let boxed = || AggColumn::Boxed {
            spec: spec.clone(),
            accs: Vec::new(),
        };
        if spec.distinct {
            return boxed();
        }
        let Some(arg) = &spec.arg else {
            return match spec.func {
                Func::Count => AggColumn::Count {
                    col: None,
                    n: Vec::new(),
                },
                _ => boxed(),
            };
        };
        let Some(col) = arg.as_col() else {
            return boxed();
        };
        let int = matches!(table.column(col), ColumnData::Int { .. });
        let float = matches!(table.column(col), ColumnData::Float { .. });
        let want = if spec.func == Func::Min {
            Ordering::Less
        } else {
            Ordering::Greater
        };
        match spec.func {
            Func::Count => AggColumn::Count {
                col: Some(col),
                n: Vec::new(),
            },
            Func::Sum if int => AggColumn::SumInt {
                col,
                sum: Vec::new(),
            },
            Func::Sum if float => AggColumn::SumFloat {
                col,
                sum: Vec::new(),
            },
            Func::Avg if int || float => AggColumn::Avg {
                col,
                acc: Vec::new(),
            },
            Func::Min | Func::Max if int => AggColumn::MinMaxInt {
                col,
                want,
                val: Vec::new(),
            },
            Func::Min | Func::Max if float => AggColumn::MinMaxFloat {
                col,
                want,
                val: Vec::new(),
            },
            _ => boxed(),
        }
    }

    /// Grow to `n` groups, each new one in its no-input state.
    fn resize(&mut self, n: usize) {
        match self {
            AggColumn::Count { n: counts, .. } => counts.resize(n, 0),
            AggColumn::SumInt { sum: v, .. } | AggColumn::MinMaxInt { val: v, .. } => {
                v.resize(n, None)
            }
            AggColumn::SumFloat { sum: v, .. } | AggColumn::MinMaxFloat { val: v, .. } => {
                v.resize(n, None)
            }
            AggColumn::Avg { acc, .. } => acc.resize(n, (0.0, 0)),
            AggColumn::Boxed { spec, accs } => accs.resize_with(n, || spec.accumulator()),
        }
    }

    /// Feed the selected `rows` of `table`, row `rows[k]` into group `ids[k]`.
    fn update(&mut self, table: &Table, rows: &[u32], ids: &[u32]) {
        match self {
            AggColumn::Count { col: None, n } => {
                for &g in ids {
                    n[g as usize] += 1;
                }
            }
            AggColumn::Count { col: Some(col), n } => {
                for_valid!(table.column(*col).validity(), rows, ids, |_i, g| n[g] += 1)
            }
            AggColumn::SumInt { col, sum } => {
                ints(table, *col, rows, ids, |g, v| add_int(&mut sum[g], v))
            }
            AggColumn::SumFloat { col, sum } => {
                floats(table, *col, rows, ids, |g, v| add_float(&mut sum[g], v))
            }
            AggColumn::Avg { col, acc } => {
                let mut add = |g: usize, v: f64| {
                    acc[g].0 += v;
                    acc[g].1 += 1;
                };
                ints(table, *col, rows, ids, |g, v| add(g, v as f64));
                floats(table, *col, rows, ids, add);
            }
            AggColumn::MinMaxInt { col, want, val } => {
                let want = *want;
                ints(table, *col, rows, ids, |g, v| {
                    keep_first(&mut val[g], v, |v, m| v.cmp(&m) == want)
                })
            }
            AggColumn::MinMaxFloat { col, want, val } => {
                let want = *want;
                floats(table, *col, rows, ids, |g, v| {
                    keep_first(&mut val[g], v, |v, m| v.total_cmp(&m) == want)
                })
            }
            AggColumn::Boxed { spec, accs } => {
                for (&row, &g) in rows.iter().zip(ids) {
                    let acc = &mut accs[g as usize];
                    match &spec.arg {
                        None => acc.update_star(),
                        Some(arg) => acc.update_value(eval(
                            arg,
                            &TableRow {
                                table,
                                row: row as usize,
                            },
                        )),
                    }
                }
            }
        }
    }

    /// Fold in `theirs`, the same aggregate over a *later* scan range, whose
    /// group `t` is this column's group `map[t]`. Min/max adopt the later
    /// value only when strictly better (keep-first).
    fn merge(&mut self, theirs: AggColumn, map: &[u32]) {
        match (self, theirs) {
            (AggColumn::Count { n, .. }, AggColumn::Count { n: theirs, .. }) => {
                for (g, t) in mapped(map, theirs) {
                    n[g] += t;
                }
            }
            (AggColumn::SumInt { sum, .. }, AggColumn::SumInt { sum: theirs, .. }) => {
                for (g, t) in mapped(map, theirs) {
                    if let Some(t) = t {
                        add_int(&mut sum[g], t);
                    }
                }
            }
            (AggColumn::SumFloat { sum, .. }, AggColumn::SumFloat { sum: theirs, .. }) => {
                for (g, t) in mapped(map, theirs) {
                    if let Some(t) = t {
                        add_float(&mut sum[g], t);
                    }
                }
            }
            (AggColumn::Avg { acc, .. }, AggColumn::Avg { acc: theirs, .. }) => {
                for (g, (sum, n)) in mapped(map, theirs) {
                    acc[g].0 += sum;
                    acc[g].1 += n;
                }
            }
            (AggColumn::MinMaxInt { want, val, .. }, AggColumn::MinMaxInt { val: theirs, .. }) => {
                for (g, t) in mapped(map, theirs) {
                    if let Some(t) = t {
                        keep_first(&mut val[g], t, |v, m| v.cmp(&m) == *want);
                    }
                }
            }
            (
                AggColumn::MinMaxFloat { want, val, .. },
                AggColumn::MinMaxFloat { val: theirs, .. },
            ) => {
                for (g, t) in mapped(map, theirs) {
                    if let Some(t) = t {
                        keep_first(&mut val[g], t, |v, m| v.total_cmp(&m) == *want);
                    }
                }
            }
            (AggColumn::Boxed { accs, .. }, AggColumn::Boxed { accs: theirs, .. }) => {
                for (g, t) in mapped(map, theirs) {
                    accs[g].merge(&t);
                }
            }
            (mine, theirs) => {
                unreachable!("one query's tables share one column layout: {mine:?} vs {theirs:?}")
            }
        }
    }

    /// Group `g`'s finalized aggregate, exactly [`Accumulator::finalize`]'s.
    fn value(&self, g: usize) -> Value {
        match self {
            AggColumn::Count { n, .. } => Value::Int(n[g]),
            AggColumn::SumInt { sum: v, .. } | AggColumn::MinMaxInt { val: v, .. } => {
                v[g].map_or(Value::Null, Value::Int)
            }
            AggColumn::SumFloat { sum: v, .. } | AggColumn::MinMaxFloat { val: v, .. } => {
                v[g].map_or(Value::Null, Value::Float)
            }
            AggColumn::Avg { acc, .. } => match acc[g] {
                (_, 0) => Value::Null,
                (sum, n) => Value::Float(sum / n as f64),
            },
            AggColumn::Boxed { accs, .. } => accs[g].finalize(),
        }
    }

    /// The values of groups `0..n` in id order, each accumulator freed once
    /// it is finalized.
    fn into_values(self, n: usize) -> Box<dyn Iterator<Item = Value>> {
        match self {
            AggColumn::Boxed { accs, .. } => Box::new(accs.into_iter().map(|acc| acc.finalize())),
            typed => Box::new((0..n).map(move |g| typed.value(g))),
        }
    }
}

/// Grouped aggregation state: a key index and one aggregate column per
/// aggregate, with a fixed emission order (see the module docs).
#[derive(Debug, Clone)]
pub struct GroupTable {
    index: KeyIndex,
    /// Each group's key, indexed by group id; ids are handed out in
    /// insertion order.
    keys: Vec<Arc<[Value]>>,
    /// One column per aggregate, each as long as `keys`.
    columns: Vec<AggColumn>,
}

impl GroupTable {
    /// An empty table for GROUP BY `keys` computing `aggs` over `table`; a
    /// global aggregate starts with its one group, emitted even over no rows.
    pub fn new(keys: &[CExpr], aggs: &[AggSpec], table: &Table) -> GroupTable {
        let dense = match keys {
            [key] => key
                .as_col()
                .filter(|&c| matches!(table.column(c), ColumnData::Str { .. })),
            _ => None,
        };
        let index = match dense {
            Some(col) => KeyIndex::Dense {
                col,
                slots: vec![None; table.column(col).dictionary().map_or(0, <[_]>::len) + 1],
            },
            None if keys.is_empty() => KeyIndex::Global,
            None => KeyIndex::Hash {
                exprs: keys.to_vec(),
                by_key: HashMap::new(),
                scratch: Vec::with_capacity(keys.len()),
            },
        };
        let mut groups = GroupTable {
            index,
            keys: Vec::new(),
            columns: aggs
                .iter()
                .map(|spec| AggColumn::new(spec, table))
                .collect(),
        };
        if keys.is_empty() {
            groups.keys.push(Arc::from([]));
            for column in &mut groups.columns {
                column.resize(1);
            }
        }
        groups
    }

    /// The key index (`"global"`, `"dense"` or `"hash"`) and how many
    /// aggregate columns are typed.
    pub fn layout(&self) -> (&'static str, usize) {
        let index = match self.index {
            KeyIndex::Global => "global",
            KeyIndex::Dense { .. } => "dense",
            KeyIndex::Hash { .. } => "hash",
        };
        let boxed = self
            .columns
            .iter()
            .filter(|c| matches!(c, AggColumn::Boxed { .. }));
        (index, self.columns.len() - boxed.count())
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Number of aggregate columns.
    pub(crate) fn width(&self) -> usize {
        self.columns.len()
    }

    /// Slots the table holds: one per dictionary code and one for NULL
    /// under a dense index, one per group otherwise.
    pub(crate) fn slots(&self) -> usize {
        match &self.index {
            KeyIndex::Dense { slots, .. } => slots.len(),
            _ => self.len(),
        }
    }

    /// Feed the selected `rows` of `table`, in order: the key index maps the
    /// batch to group ids, then each aggregate column takes the whole batch.
    pub(crate) fn update(&mut self, table: &Table, rows: &[u32]) {
        let mut ids = Vec::with_capacity(rows.len());
        self.index.assign(table, rows, &mut ids, &mut self.keys);
        for column in &mut self.columns {
            column.resize(self.keys.len());
            column.update(table, rows, &ids);
        }
    }

    /// Fold in `other`, built by the same query over a *later* scan range:
    /// shared keys merge their states (keep-first min/max ties hold),
    /// unseen keys are appended in `other`'s order.
    pub(crate) fn merge(&mut self, other: GroupTable) {
        let GroupTable {
            index,
            keys,
            columns,
        } = self;
        // `map[t]`: this table's id for `other`'s group `t`.
        let map: Vec<u32> = match (index, other.index) {
            (KeyIndex::Global, KeyIndex::Global) => vec![0],
            (KeyIndex::Dense { slots, .. }, KeyIndex::Dense { slots: theirs, .. }) => {
                let mut map = vec![0; other.keys.len()];
                for (slot, their) in slots.iter_mut().zip(theirs) {
                    if let Some(t) = their.map(|t| t as usize) {
                        map[t] = *slot.get_or_insert_with(|| push(keys, other.keys[t].clone()));
                    }
                }
                map
            }
            (KeyIndex::Hash { by_key, .. }, KeyIndex::Hash { .. }) => other
                .keys
                .into_iter()
                .map(|key| {
                    *by_key
                        .entry(key)
                        .or_insert_with_key(|key| push(keys, key.clone()))
                })
                .collect(),
            _ => unreachable!("one query's group tables share one key index"),
        };
        for (mine, theirs) in columns.iter_mut().zip(other.columns) {
            mine.resize(keys.len());
            mine.merge(theirs, &map);
        }
    }

    /// Output rows, in emission order: each group's `[keys…, aggregates…]`
    /// filtered by `having` and projected through `projections`.
    pub(crate) fn emit(&self, projections: &[CExpr], having: Option<&CExpr>) -> Vec<Vec<Value>> {
        let group = |id: u32| {
            let id = id as usize;
            let aggs = self.columns.iter().map(|c| c.value(id)).collect();
            (&self.keys[id], aggs)
        };
        match &self.index {
            KeyIndex::Dense { slots, .. } => emit_finalized_groups(
                projections,
                having,
                slots.iter().flatten().map(|&id| group(id)),
            ),
            _ => emit_finalized_groups(projections, having, (0..self.len() as u32).map(group)),
        }
    }

    /// [`emit`](Self::emit) for a table nobody keeps: each group's key and
    /// accumulators are freed once its row is out, so table and rows never
    /// peak together.
    pub(crate) fn into_rows(
        self,
        projections: &[CExpr],
        having: Option<&CExpr>,
    ) -> Vec<Vec<Value>> {
        if let KeyIndex::Dense { .. } = self.index {
            return self.emit(projections, having);
        }
        drop(self.index);
        let n = self.keys.len();
        let mut columns: Vec<_> = self.columns.into_iter().map(|c| c.into_values(n)).collect();
        let groups = self.keys.into_iter().map(|key| {
            let aggs = columns.iter_mut().flat_map(Iterator::next).collect();
            (key, aggs)
        });
        emit_finalized_groups(projections, having, groups)
    }
}
