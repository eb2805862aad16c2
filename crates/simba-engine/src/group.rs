//! The one group store. Every engine but the `sqlite-like` oracle (an
//! ordered map, emitting in key order) aggregates through a [`GroupTable`],
//! which has two independent parts:
//!
//! - a **key index** that turns a batch of selected rows into group ids:
//!   *global* (no GROUP BY: one group, emitted even over no rows), *dense*
//!   (the only key is a bare dictionary-encoded column: one slot per code,
//!   the NULL slot last), *packed* (every key is a bare dictionary column or
//!   `BIN(col, w)` over an Int or Float column with a positive Int literal
//!   `w`: each key's slot — its code, or its bucket minus the column's
//!   lowest bucket, NULL last — packed mixed-radix into one `u64` that keys
//!   a hash map) or *hash* (any other key, or a packed key that would not
//!   fit: the boxed key tuple, each key stored once);
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
//! - **global index**: its one group;
//! - **dense index**: code order, the NULL slot last;
//! - **packed index**: first appearance in scan order, never packed-key
//!   order;
//! - **hash index**: first appearance in scan order;
//! - `GroupTable::merge` appends the other table's unseen keys in its
//!   order, so range partials merged in range order emit what one
//!   sequential scan would.
//!
//! A packed key stands for exactly one boxed key tuple, or the table stays
//! on the hash index. So a `BIN` whose lowest or highest bucket `BIN` itself
//! maps to NULL (its `checked_mul` overflows) stays boxed, and so does a
//! Float column whose bounds hold NaN, ±inf or a magnitude of 2^53 or more,
//! or straddle zero's sign: `BIN` keeps the sign of a −0.0 bucket, and one
//! `floor(x / w)` slot would merge it with 0.0's. The index only maps keys
//! to group ids. Each group's boxed key is still what `eval` makes of its
//! first row, so every index emits the same key values.

use crate::agg::{Accumulator, AggSpec};
use crate::eval::{eval, CExpr, TableRow};
use crate::exec::emit_finalized_groups;
use simba_sql::Func;
use simba_store::zonemap::Zone;
use simba_store::{for_width, ColumnData, Table, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// How a row finds its group id.
#[derive(Debug, Clone)]
enum KeyIndex {
    /// No GROUP BY: every row is in group 0.
    Global,
    /// Slot = the key column's dictionary code, the last slot NULL; each
    /// slot holds its group id once a row has reached it.
    Dense { col: usize, slots: Vec<Option<u32>> },
    /// Every key packed into one `u64` (see [`Packed`]).
    Packed(Packed),
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

/// 2^53: past it an `f64` no longer holds every integer.
const EXACT_F64: f64 = 9_007_199_254_740_992.0;

/// One GROUP BY key's digit of a packed key: `0..null` for a valid row,
/// `null` for a NULL one, weighted by `stride`.
#[derive(Debug, Clone, Copy)]
struct Part {
    col: usize,
    kind: PartKind,
    /// NULL's slot, one past the last value slot; the part's radix is
    /// `null + 1`.
    null: u64,
    /// The product of the radixes of the parts before this one.
    stride: u64,
}

#[derive(Debug, Clone, Copy)]
enum PartKind {
    /// A bare dictionary column: slot = code.
    Code,
    /// `BIN(col, width)` over an Int column: slot = bucket − `low`.
    IntBin { width: i64, low: i64 },
    /// `BIN(col, width)` over a Float column: slot = bucket − `low`, the
    /// buckets integral `f64`s below 2^53.
    FloatBin { width: f64, low: f64 },
}

impl Part {
    /// The part for GROUP BY `key` over `table`, or `None` when the key is
    /// not one of the packed shapes or one slot could stand for two boxed
    /// keys (see the module docs).
    fn of(key: &CExpr, table: &Table) -> Option<Part> {
        let (col, width) = match key {
            CExpr::Col(col) => (*col, None),
            CExpr::Call {
                func: Func::Bin,
                args,
            } => match args.as_slice() {
                [CExpr::Col(col), CExpr::Lit(Value::Int(w))] if *w > 0 => (*col, Some(*w)),
                _ => return None,
            },
            _ => return None,
        };
        let zone = || table.zone_maps().column(col);
        let (kind, null) = match (table.column(col), width) {
            (ColumnData::Str { dict, .. }, None) => (PartKind::Code, dict.len() as u64),
            (ColumnData::Int { .. }, Some(width)) => match zone()? {
                Zone::Int { min, max } => {
                    let (low, high) = (min.div_euclid(width), max.div_euclid(width));
                    low.checked_mul(width)?;
                    high.checked_mul(width)?;
                    let buckets = i128::from(high) - i128::from(low) + 1;
                    (
                        PartKind::IntBin { width, low },
                        u64::try_from(buckets).ok()?,
                    )
                }
                Zone::AllNull => (PartKind::IntBin { width, low: 0 }, 0),
                Zone::Float { .. } => return None,
            },
            (ColumnData::Float { .. }, Some(width)) => match zone()? {
                Zone::Float { min, max } => {
                    let exact = |x: f64| x.abs() < EXACT_F64;
                    if !exact(min)
                        || !exact(max)
                        || min.is_sign_negative() != max.is_sign_negative()
                    {
                        return None;
                    }
                    let width = width as f64;
                    let (low, high) = ((min / width).floor(), (max / width).floor());
                    if !exact(low * width) || !exact(high * width) {
                        return None;
                    }
                    (PartKind::FloatBin { width, low }, (high - low) as u64 + 1)
                }
                Zone::AllNull => (
                    PartKind::FloatBin {
                        width: 1.0,
                        low: 0.0,
                    },
                    0,
                ),
                Zone::Int { .. } => return None,
            },
            _ => return None,
        };
        Some(Part {
            col,
            kind,
            null,
            stride: 0,
        })
    }

    /// Add this part's slot times its stride to `packed[k]` for each row
    /// `rows[k]`.
    fn add(&self, table: &Table, rows: &[u32], packed: &mut [u64]) {
        let column = table.column(self.col);
        let valid = column.validity();
        let (null, stride) = (self.null, self.stride);
        match self.kind {
            PartKind::Code => {
                if let Some(codes) = column.code_data() {
                    for_width!(codes, |lane| add_slots(
                        packed,
                        rows,
                        valid,
                        null,
                        stride,
                        |i| { lane[i] as u64 }
                    ))
                }
            }
            PartKind::IntBin { width, low } => {
                if let Some(data) = column.int_data() {
                    for_width!(data, |lane| add_slots(
                        packed,
                        rows,
                        valid,
                        null,
                        stride,
                        |i| { (lane[i] as i64).div_euclid(width).wrapping_sub(low) as u64 }
                    ))
                }
            }
            PartKind::FloatBin { width, low } => {
                if let Some(data) = column.float_data() {
                    add_slots(packed, rows, valid, null, stride, |i| {
                        ((data[i] / width).floor() - low) as u64
                    })
                }
            }
        }
    }
}

/// `packed[k] += stride × slot` for each selected row `rows[k]`: `slot(i)`
/// for a valid row, `null` for a NULL one. One instance per part kind and
/// stored width, so the loop stays monomorphic.
fn add_slots(
    packed: &mut [u64],
    rows: &[u32],
    valid: &[bool],
    null: u64,
    stride: u64,
    slot: impl Fn(usize) -> u64,
) {
    if valid.is_empty() {
        for (key, &row) in packed.iter_mut().zip(rows) {
            *key += stride * slot(row as usize);
        }
    } else {
        for (key, &row) in packed.iter_mut().zip(rows) {
            let i = row as usize;
            *key += stride * if valid[i] { slot(i) } else { null };
        }
    }
}

/// Hashes a packed key with one folded multiply: the key times a 64-bit
/// odd constant, the product's high half XORed into its low half, so every
/// key bit reaches the bits the map indexes and tags by. The std hasher
/// (SipHash) cut `filter_storm_100k`'s queries per second by 27 % on a
/// 2-vCPU machine. It is not seeded, so values chosen to collide can slow
/// the GROUP BYs over their own table: tables are generated in-process or
/// registered by the client that then queries them.
#[derive(Debug, Default, Clone, Copy)]
struct PackedHasher(u64);

impl Hasher for PackedHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("packed keys hash as u64")
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The packed key index: each key's slot weighted by the radixes of the
/// keys before it, so a key tuple is one integer below the radixes'
/// product. Groups are numbered in first appearance, like the hash index.
#[derive(Debug, Clone)]
struct Packed {
    /// The keys, evaluated on a new group's first row for its boxed key.
    exprs: Vec<CExpr>,
    parts: Vec<Part>,
    /// Each group's packed key, by group id: what `merge` looks the other
    /// table's groups up by.
    ids_packed: Vec<u64>,
    /// Packed key → group id. Probed, never iterated.
    by_key: HashMap<u64, u32, BuildHasherDefault<PackedHasher>>,
}

impl Packed {
    /// The packed index for GROUP BY `keys` over `table`, or `None` when a
    /// key has no part or the radixes' product overflows `u64`.
    fn new(keys: &[CExpr], table: &Table) -> Option<Packed> {
        let mut parts = Vec::with_capacity(keys.len());
        let mut product = 1u64;
        for key in keys {
            let mut part = Part::of(key, table)?;
            part.stride = product;
            product = product.checked_mul(part.null.checked_add(1)?)?;
            parts.push(part);
        }
        Some(Packed {
            exprs: keys.to_vec(),
            parts,
            ids_packed: Vec::new(),
            by_key: HashMap::default(),
        })
    }

    /// [`KeyIndex::assign`] for the packed index.
    fn assign(
        &mut self,
        table: &Table,
        rows: &[u32],
        ids: &mut Vec<u32>,
        keys: &mut Vec<Arc<[Value]>>,
    ) {
        let Packed {
            exprs,
            parts,
            ids_packed,
            by_key,
        } = self;
        let mut batch = vec![0; rows.len()];
        for part in parts.iter() {
            part.add(table, rows, &mut batch);
        }
        for (&packed, &row) in batch.iter().zip(rows) {
            ids.push(*by_key.entry(packed).or_insert_with(|| {
                let ctx = TableRow {
                    table,
                    row: row as usize,
                };
                ids_packed.push(packed);
                push(keys, exprs.iter().map(|k| eval(k, &ctx)).collect())
            }));
        }
    }

    /// `map[t]`: this table's id for the other table's group `t`, given
    /// that table's `(packed key, key)` pairs in its id order; each one
    /// not seen here is appended in that order.
    fn merge(
        &mut self,
        theirs: impl Iterator<Item = (u64, Arc<[Value]>)>,
        keys: &mut Vec<Arc<[Value]>>,
    ) -> Vec<u32> {
        let Packed {
            ids_packed, by_key, ..
        } = self;
        theirs
            .map(|(packed, key)| {
                *by_key.entry(packed).or_insert_with(|| {
                    ids_packed.push(packed);
                    push(keys, key)
                })
            })
            .collect()
    }
}

impl KeyIndex {
    /// The index for GROUP BY `keys` over `table`: global without keys,
    /// dense for one bare dictionary column, packed when every key packs,
    /// hash otherwise.
    fn new(keys: &[CExpr], table: &Table) -> KeyIndex {
        let dense = match keys {
            [key] => key
                .as_col()
                .filter(|&c| matches!(table.column(c), ColumnData::Str { .. })),
            _ => None,
        };
        if let Some(col) = dense {
            return KeyIndex::Dense {
                col,
                slots: vec![None; table.column(col).dictionary().map_or(0, <[_]>::len) + 1],
            };
        }
        if keys.is_empty() {
            return KeyIndex::Global;
        }
        match Packed::new(keys, table) {
            Some(packed) => KeyIndex::Packed(packed),
            None => KeyIndex::Hash {
                exprs: keys.to_vec(),
                by_key: HashMap::new(),
                scratch: Vec::with_capacity(keys.len()),
            },
        }
    }

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
            KeyIndex::Packed(packed) => packed.assign(table, rows, ids, keys),
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
        let mut groups = GroupTable {
            index: KeyIndex::new(keys, table),
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

    /// The key index (`"global"`, `"dense"`, `"packed"` or `"hash"`) and
    /// how many aggregate columns are typed.
    pub fn layout(&self) -> (&'static str, usize) {
        let index = match self.index {
            KeyIndex::Global => "global",
            KeyIndex::Dense { .. } => "dense",
            KeyIndex::Packed(_) => "packed",
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
            (KeyIndex::Packed(packed), KeyIndex::Packed(theirs)) => {
                packed.merge(theirs.ids_packed.into_iter().zip(other.keys), keys)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{prepare, QueryKind};
    use simba_store::mix::splitmix64;
    use simba_store::{ColumnDef, Schema, TableBuilder};

    type Row = (Option<&'static str>, Option<i64>, Option<f64>);

    /// `t(q, n, x)`: a dictionary, an Int and a Float column.
    fn table(rows: &[Row]) -> Arc<Table> {
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

    /// The keys and aggregates of `SELECT … GROUP BY {keys}` over `table`.
    fn plan(keys: &str, table: &Arc<Table>) -> (Vec<CExpr>, Vec<AggSpec>) {
        let sql = format!("SELECT COUNT(*), SUM(n), MAX(x), MIN(q) FROM t GROUP BY {keys}");
        let query = simba_sql::parse_select(&sql).unwrap();
        match prepare(&query, table.clone()).unwrap().kind {
            QueryKind::Aggregate { keys, aggs, .. } => (keys, aggs),
            QueryKind::Project { .. } => unreachable!("a GROUP BY aggregates"),
        }
    }

    /// The name of the index GROUP BY `keys` gets over `table`.
    fn index(keys: &str, table: &Arc<Table>) -> &'static str {
        let (keys, aggs) = plan(keys, table);
        GroupTable::new(&keys, &aggs, table).layout().0
    }

    fn ints(values: &[i64]) -> Arc<Table> {
        let rows: Vec<Row> = values.iter().map(|&n| (Some("A"), Some(n), None)).collect();
        table(&rows)
    }

    fn floats(values: &[f64]) -> Arc<Table> {
        let rows: Vec<Row> = values.iter().map(|&x| (None, None, Some(x))).collect();
        table(&rows)
    }

    /// Dictionary and `BIN` keys pack while the radixes' product fits a
    /// `u64`; any other key, or a product past `u64`, stays boxed.
    #[test]
    fn keys_pack_while_the_radix_product_fits_u64() {
        let t = table(&[
            (Some("A"), Some(0), Some(0.5)),
            (Some("B"), Some(65_534), None),
            (None, None, Some(7.0)),
        ]);
        for packed in ["BIN(n, 1)", "q, BIN(x, 5)", "BIN(x, 5), q"] {
            assert_eq!(index(packed, &t), "packed", "{packed}");
        }
        assert_eq!(index("q", &t), "dense");
        for boxed in [
            "n",
            "q, n",
            "BIN(n, 0)",
            "BIN(x, 2.5)",
            "BIN(n + 1, 5)",
            "HOUR(n)",
        ] {
            assert_eq!(index(boxed, &t), "hash", "{boxed}");
        }
        let wide = ints(&[0, 1 << 62]);
        assert_eq!(index("BIN(n, 1)", &wide), "packed");
        assert_eq!(index("BIN(n, 1), BIN(n, 2)", &wide), "hash");
        assert_eq!(index("BIN(n, 1)", &ints(&[i64::MIN, i64::MAX])), "hash");
    }

    /// A part falls back whenever one slot could stand for two boxed keys,
    /// or for a key `BIN` makes NULL.
    #[test]
    fn keys_one_slot_could_merge_stay_boxed() {
        // BIN(i64::MIN + 1, 3) is below i64::MIN: NULL, not a bucket.
        assert_eq!(index("BIN(n, 3)", &ints(&[i64::MIN + 1, 5])), "hash");
        assert_eq!(index("BIN(n, 2)", &ints(&[i64::MIN, 5])), "packed");
        assert_eq!(index("BIN(n, 3)", &ints(&[-7, i64::MAX])), "packed");
        for (values, packs) in [
            (&[0.0, 3.5][..], true),
            (&[-2.5, -0.0], true),
            (&[-0.0, 3.5], false),
            (&[-0.0, 0.0], false),
            (&[-1.0, 1.0], false),
            (&[f64::NAN, 1.0], false),
            (&[-f64::NAN, 1.0], false),
            (&[f64::INFINITY, 1.0], false),
            (&[f64::NEG_INFINITY, -1.0], false),
            (&[EXACT_F64, 1.0], false),
            (&[EXACT_F64 - 1.0, 1.0], true),
        ] {
            let got = index("BIN(x, 1)", &floats(values));
            assert_eq!(got != "hash", packs, "{values:?}: {got}");
        }
        // Columns with no valid row pack into their NULL slot alone.
        assert_eq!(
            index("q, BIN(n, 5), BIN(x, 5)", &table(&[(None, None, None)])),
            "packed"
        );
    }

    /// GROUP BY `keys` over `t` through the packed index and, forced, the
    /// hash index: three scan ranges of two batches each, merged in range
    /// order, then emitted and consumed.
    fn packed_and_hashed(keys: &str, t: &Arc<Table>) -> [String; 2] {
        let (exprs, aggs) = plan(keys, t);
        let projections: Vec<CExpr> = (0..exprs.len() + aggs.len()).map(CExpr::Col).collect();
        let run = |hash: bool| {
            let new = || {
                let mut groups = GroupTable::new(&exprs, &aggs, t);
                if hash {
                    groups.index = KeyIndex::Hash {
                        exprs: exprs.clone(),
                        by_key: HashMap::new(),
                        scratch: Vec::new(),
                    };
                }
                groups
            };
            let rows: Vec<u32> = (0..t.row_count() as u32).collect();
            let mut merged: Option<GroupTable> = None;
            for range in rows.chunks(rows.len().div_ceil(3)) {
                let mut partial = new();
                for batch in range.chunks(range.len().div_ceil(2)) {
                    partial.update(t, batch);
                }
                match &mut merged {
                    Some(m) => m.merge(partial),
                    None => merged = Some(partial),
                }
            }
            let merged = merged.unwrap();
            let emitted = format!("{:?}", merged.emit(&projections, None));
            assert_eq!(
                emitted,
                format!("{:?}", merged.into_rows(&projections, None))
            );
            emitted
        };
        let (packed, hashed) = (run(false), run(true));
        assert_ne!(index(keys, t), "hash", "{keys}");
        [packed, hashed]
    }

    /// A packed table numbers, merges and emits its groups exactly like the
    /// hash index — first appearance, a later range's new keys appended in
    /// its order — over NULLs in every column.
    #[test]
    fn packed_tables_emit_what_the_hash_index_emits() {
        const QUEUES: [&str; 4] = ["A", "B", "C", "D"];
        let draw = |i: u64, salt: u64| splitmix64(i ^ (salt << 56));
        let rows: Vec<Row> = (0..900u64)
            .map(|i| {
                let valid = |salt| draw(i, salt) % 7 != 0;
                (
                    valid(1).then(|| QUEUES[(draw(i, 2) % 4) as usize]),
                    valid(3).then(|| (draw(i, 4) % 4000) as i64 - 2000),
                    valid(5).then(|| (draw(i, 6) % 5000) as f64 / 100.0),
                )
            })
            .collect();
        let t = table(&rows);
        for keys in ["q, BIN(n, 7)", "BIN(x, 2), q", "BIN(n, 1), BIN(x, 1), q"] {
            let [packed, hashed] = packed_and_hashed(keys, &t);
            assert_eq!(packed, hashed, "{keys}");
        }
    }
}
