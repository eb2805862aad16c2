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
//!   lowest bucket, NULL last — packed mixed-radix into one `u64`) or *hash*
//!   (any other key, or a packed key that would not fit: the boxed key
//!   tuple, each key stored once);
//! - one **aggregate column** per aggregate, indexed by group id: *typed*
//!   when that aggregate alone allows it — `COUNT`, or `SUM` / `AVG` /
//!   `MIN` / `MAX` over a bare Int or Float column, fed batch-wise from the
//!   raw slice at its stored width ([`for_width!`]) with no `Value` per
//!   row — and *boxed* otherwise, an [`Accumulator`] per group
//!   (`COUNT(DISTINCT …)`, `MIN` / `MAX` over strings, computed arguments).
//!   Typed columns finalize to exactly the accumulators' values.
//!
//! A packed table keeps each group's `u64` key and nothing else. A row finds
//! its group id in a *direct* slot table indexed by the packed key when the
//! radixes' product is at most `MAX_CAPTURED_GROUPS` (2^16), and in a map
//! keyed by it above that. Slots cost no libm call and no hardware division: a
//! Float `BIN` floors `x / w` by truncating and adjusting (exact, as every
//! packed Float is below 2^53 in magnitude), an Int `BIN` multiplies the
//! row's offset from the lowest bucket by an exact reciprocal of `w`
//! (Lemire, Kaser & Kurz 2019), and `BIN(col, 1)` subtracts. Only an Int
//! column spanning more offsets than the reciprocal is proven for divides.
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
//! `floor(x / w)` slot would merge it with 0.0's. A packed key is decoded
//! only when its group is emitted, bitwise what `eval` makes of the key on
//! the group's first row: a code is its dictionary string, a bucket
//! `(low + slot)·w` — the zero bucket of a sign-negative Float column
//! `-0.0` — and the NULL slot NULL. Every index emits through one
//! `GroupRow` view, which reads a key part or finalizes an aggregate only
//! when HAVING or a projection asks for it.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::agg::{Accumulator, AggSpec};
use crate::batch::MAX_CAPTURED_GROUPS;
use crate::eval::{eval, eval_predicate, CExpr, ColumnAccess, TableRow};
use simba_sql::Func;
use simba_store::narrow::NarrowVec;
use simba_store::zonemap::Zone;
use simba_store::{for_width, ColumnData, ResultBuilder, Table, Value};
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
    /// slot holds its group id once a row has reached it, and `codes`
    /// each group's slot, by group id.
    Dense {
        col: usize,
        slots: Vec<Option<u32>>,
        codes: Vec<u32>,
    },
    /// Every key packed into one `u64` (see [`Packed`]).
    Packed(Packed),
    /// Key tuple → group id, probed from `scratch` so a row that joins an
    /// existing group allocates nothing. Probed, never iterated; `keys`
    /// holds each group's key, by group id.
    Hash {
        exprs: Vec<CExpr>,
        by_key: HashMap<Arc<[Value]>, u32>,
        keys: Vec<Arc<[Value]>>,
        scratch: Vec<Value>,
    },
}

/// Append a group's key and return its id.
fn push<K>(keys: &mut Vec<K>, key: K) -> u32 {
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
    /// `BIN(col, width)` over an Int column: slot = bucket − `low`, the
    /// offset `x − low·width` divided by `width`.
    IntBin {
        width: i64,
        low: i64,
        divide: Divide,
    },
    /// `BIN(col, width)` over a Float column: slot = bucket − `low`, the
    /// buckets integers below 2^53; `sign` is ±1.0, the sign every value
    /// of the column has, and so every bucket.
    FloatBin { width: f64, low: i64, sign: f64 },
}

/// `n / w` for the non-negative offsets `n` of one Int `BIN` part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Divide {
    /// `w = 1`: the offset is the slot.
    One,
    /// Every offset is at most the reciprocal's [`limit`](Reciprocal::limit).
    Reciprocal(Reciprocal),
    /// Offsets past the limit: a column spanning some 2^64 / `w` values.
    Hardware(u64),
}

impl Divide {
    /// The division for width `w ≥ 1` over offsets up to `largest`.
    fn of(w: u64, largest: u64) -> Divide {
        if w == 1 {
            return Divide::One;
        }
        let reciprocal = Reciprocal::of(w);
        if largest <= reciprocal.limit(w) {
            Divide::Reciprocal(reciprocal)
        } else {
            Divide::Hardware(w)
        }
    }

    /// `n / w`, for an offset `n` up to the `largest` it was made for.
    #[cfg(test)]
    fn quotient(self, n: u64) -> u64 {
        match self {
            Divide::One => n,
            Divide::Reciprocal(r) => r.quotient(n),
            Divide::Hardware(w) => n / w,
        }
    }
}

/// Division by a constant `w ≥ 2` as one multiply (Lemire, Kaser & Kurz
/// 2019): with `c = ⌈2^64 / w⌉` and `c·w = 2^64 + e`, `0 ≤ e < w`,
/// `⌊c·n / 2^64⌋ = n / w + ⌊(n mod w + n·e / 2^64) / w⌋`, which is `n / w`
/// whenever `n·e < 2^64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reciprocal(u64);

impl Reciprocal {
    fn of(w: u64) -> Reciprocal {
        debug_assert!(w >= 2, "c = 2^64 does not fit a u64");
        Reciprocal(u64::MAX / w + 1)
    }

    /// The largest `n` that `n·e < 2^64` holds for: every `u64` when `w`
    /// is a power of two (`e = 0`).
    fn limit(self, w: u64) -> u64 {
        match self.0.wrapping_mul(w) {
            0 => u64::MAX,
            e => u64::MAX / e,
        }
    }

    #[inline]
    fn quotient(self, n: u64) -> u64 {
        ((u128::from(self.0) * u128::from(n)) >> 64) as u64
    }
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
                    let origin = low.checked_mul(width)?;
                    high.checked_mul(width)?;
                    let buckets = i128::from(high) - i128::from(low) + 1;
                    let largest = max.wrapping_sub(origin) as u64;
                    let divide = Divide::of(width as u64, largest);
                    (
                        PartKind::IntBin { width, low, divide },
                        u64::try_from(buckets).ok()?,
                    )
                }
                Zone::AllNull => {
                    let divide = Divide::of(width as u64, 0);
                    (
                        PartKind::IntBin {
                            width,
                            low: 0,
                            divide,
                        },
                        0,
                    )
                }
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
                    let kind = PartKind::FloatBin {
                        width,
                        low: low as i64,
                        sign: 1f64.copysign(min),
                    };
                    (kind, (high - low) as u64 + 1)
                }
                Zone::AllNull => {
                    let kind = PartKind::FloatBin {
                        width: 1.0,
                        low: 0,
                        sign: 1.0,
                    };
                    (kind, 0)
                }
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
            PartKind::IntBin { width, low, divide } => {
                if let Some(data) = column.int_data() {
                    // Each offset is in `0..2^64`: the row is at or above
                    // the lowest bucket's first value.
                    let origin = low * width;
                    let offset = move |x: i64| x.wrapping_sub(origin) as u64;
                    let add = (packed, rows, valid, null, stride);
                    match divide {
                        Divide::One => add_int_slots(add, data, offset),
                        Divide::Reciprocal(r) => {
                            add_int_slots(add, data, |x| r.quotient(offset(x)))
                        }
                        Divide::Hardware(w) => add_int_slots(add, data, |x| offset(x) / w),
                    }
                }
            }
            PartKind::FloatBin { width, low, .. } => {
                if let Some(data) = column.float_data() {
                    add_slots(packed, rows, valid, null, stride, |i| {
                        // `floor(q)`: truncated, then one lower for a
                        // negative `q` with a fraction. Exact: |q| < 2^53.
                        let q = data[i] / width;
                        let t = q as i64;
                        (t - i64::from((t as f64) > q) - low) as u64
                    })
                }
            }
        }
    }

    /// The key a row in `slot` has: bitwise what `eval` makes of the key
    /// on any such row.
    fn decode(&self, table: &Table, slot: u64) -> Value {
        if slot == self.null {
            return Value::Null;
        }
        match self.kind {
            PartKind::Code => dict_value(table.column(self.col), slot as usize),
            PartKind::IntBin { width, low, .. } => Value::Int((low + slot as i64) * width),
            PartKind::FloatBin { width, low, sign } => {
                // `floor(x / w)` of a sign-negative `x` is `-0.0`, never
                // `0.0`, when `x / w` rounds to zero.
                let bucket = ((low + slot as i64) as f64).copysign(sign);
                Value::Float(bucket * width)
            }
        }
    }
}

/// Dictionary entry `code` of a dictionary column, NULL past its end.
fn dict_value(column: &ColumnData, code: usize) -> Value {
    column
        .dictionary()
        .and_then(|dict| dict.get(code))
        .map_or(Value::Null, |s| Value::Str(s.clone()))
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

/// [`add_slots`] over an Int column read at its stored width, `slot`
/// taking the row's value.
fn add_int_slots(
    (packed, rows, valid, null, stride): (&mut [u64], &[u32], &[bool], u64, u64),
    data: &NarrowVec<i64>,
    slot: impl Fn(i64) -> u64,
) {
    for_width!(data, |lane| add_slots(
        packed,
        rows,
        valid,
        null,
        stride,
        |i| slot(lane[i] as i64)
    ))
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

/// Packed key → group id.
#[derive(Debug, Clone)]
enum Lookup {
    /// Indexed by the packed key: its group id plus one, `0` until a row
    /// reaches it. Empty until a key arrives, then as long as the radixes'
    /// product and zeroed by the allocator, whose large blocks are fresh
    /// pages that no key may ever touch.
    Direct(Vec<u32>),
    /// Probed, never iterated.
    Map(HashMap<u64, u32, BuildHasherDefault<PackedHasher>>),
}

/// The packed key index: each key's slot weighted by the radixes of the
/// keys before it, so a key tuple is one integer below the radixes'
/// product. Groups are numbered in first appearance, like the hash index.
#[derive(Debug, Clone)]
struct Packed {
    parts: Vec<Part>,
    /// The radixes' product: one past the largest packed key.
    product: u64,
    /// Each group's packed key, by group id: what its key is decoded from
    /// and what `merge` looks the other table's groups up by.
    ids_packed: Vec<u64>,
    lookup: Lookup,
    /// The current batch's packed keys, kept for the next batch.
    batch: Vec<u64>,
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
        let lookup = if product <= MAX_CAPTURED_GROUPS as u64 {
            Lookup::Direct(Vec::new())
        } else {
            Lookup::Map(HashMap::default())
        };
        Some(Packed {
            parts,
            product,
            ids_packed: Vec::new(),
            lookup,
            batch: Vec::new(),
        })
    }

    /// [`KeyIndex::assign`] for the packed index.
    fn assign(&mut self, table: &Table, rows: &[u32], ids: &mut Vec<u32>) {
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        batch.resize(rows.len(), 0);
        for part in &self.parts {
            part.add(table, rows, &mut batch);
        }
        self.find(&batch, ids);
        self.batch = batch;
    }

    /// Push to `ids` the group id of each of the packed keys `keys`, each
    /// key not seen yet appended to `ids_packed` as a new group.
    fn find(&mut self, keys: &[u64], ids: &mut Vec<u32>) {
        let Packed {
            product,
            ids_packed,
            lookup,
            ..
        } = self;
        match lookup {
            Lookup::Direct(slots) => {
                if slots.is_empty() && !keys.is_empty() {
                    *slots = vec![0; *product as usize];
                }
                ids.extend(keys.iter().map(|&packed| {
                    let slot = &mut slots[packed as usize];
                    if *slot == 0 {
                        *slot = push(ids_packed, packed) + 1;
                    }
                    *slot - 1
                }));
            }
            Lookup::Map(map) => ids.extend(keys.iter().map(|&packed| {
                *map.entry(packed)
                    .or_insert_with(|| push(ids_packed, packed))
            })),
        }
    }

    /// Part `part` of group `id`'s key.
    fn key(&self, table: &Table, id: usize, part: usize) -> Value {
        let part = &self.parts[part];
        part.decode(table, self.ids_packed[id] / part.stride % (part.null + 1))
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
                codes: Vec::new(),
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
                keys: Vec::new(),
                scratch: Vec::with_capacity(keys.len()),
            },
        }
    }

    /// Number of groups.
    fn len(&self) -> usize {
        match self {
            KeyIndex::Global => 1,
            KeyIndex::Dense { codes, .. } => codes.len(),
            KeyIndex::Packed(packed) => packed.ids_packed.len(),
            KeyIndex::Hash { keys, .. } => keys.len(),
        }
    }

    /// Number of GROUP BY keys: the key parts of a group row.
    fn width(&self) -> usize {
        match self {
            KeyIndex::Global => 0,
            KeyIndex::Dense { .. } => 1,
            KeyIndex::Packed(packed) => packed.parts.len(),
            KeyIndex::Hash { exprs, .. } => exprs.len(),
        }
    }

    /// Set `ids` (empty on entry) to the group id of each of `rows`,
    /// numbering every group first reached after the existing ones.
    fn assign(&mut self, table: &Table, rows: &[u32], ids: &mut Vec<u32>) {
        match self {
            KeyIndex::Global => ids.resize(rows.len(), 0),
            KeyIndex::Dense { col, slots, codes } => {
                dict_key_slots(table.column(*col), rows, ids, (slots.len() - 1) as u32);
                for id in ids.iter_mut() {
                    let slot = *id;
                    *id = *slots[slot as usize].get_or_insert_with(|| push(codes, slot));
                }
            }
            KeyIndex::Packed(packed) => packed.assign(table, rows, ids),
            KeyIndex::Hash {
                exprs,
                by_key,
                keys,
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

    /// Free what only finds a row's group — the packed lookup and batch,
    /// the hash map — keeping each group's key for emission.
    fn drop_lookup(&mut self) {
        match self {
            KeyIndex::Packed(packed) => {
                packed.batch = Vec::new();
                match &mut packed.lookup {
                    Lookup::Direct(slots) => *slots = Vec::new(),
                    Lookup::Map(map) => *map = HashMap::default(),
                }
            }
            KeyIndex::Hash { by_key, .. } => *by_key = HashMap::new(),
            KeyIndex::Global | KeyIndex::Dense { .. } => {}
        }
    }

    /// Part `part` of group `id`'s key, over the `table` the index was
    /// built for.
    fn key(&self, table: &Table, id: usize, part: usize) -> Value {
        match self {
            KeyIndex::Global => unreachable!("a global aggregate has no key"),
            KeyIndex::Dense { col, codes, .. } => {
                dict_value(table.column(*col), codes[id] as usize)
            }
            KeyIndex::Packed(packed) => packed.key(table, id, part),
            KeyIndex::Hash { keys, .. } => keys[id][part].clone(),
        }
    }
}

/// The dictionary codes of the selected rows of a dictionary-encoded
/// column, `null_slot` for NULL rows.
fn dict_key_slots(col: &ColumnData, rows: &[u32], slots: &mut Vec<u32>, null_slot: u32) {
    slots.clear();
    #[expect(
        clippy::expect_used,
        reason = "the dense index is only built over a dictionary-encoded key column; a codeless column is a planner bug"
    )]
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

    /// Free what group `g`'s boxed state holds once its row is out.
    fn release(&mut self, g: usize) {
        if let AggColumn::Boxed { accs, .. } = self {
            accs[g] = Accumulator::CountStar(0);
        }
    }
}

/// Grouped aggregation state: a key index and one aggregate column per
/// aggregate, with a fixed emission order (see the module docs).
#[derive(Debug, Clone)]
pub struct GroupTable {
    /// Hands out group ids in insertion order and keeps each group's key.
    index: KeyIndex,
    /// One column per aggregate, each as long as the index has groups.
    columns: Vec<AggColumn>,
}

/// Group `id` of a table read as the row `[keys…, aggregates…]` HAVING and
/// the projections are compiled against: a key part is decoded, and an
/// aggregate finalized, only when an expression reads it.
struct GroupRow<'a> {
    groups: &'a GroupTable,
    /// The table the group table was built over: dictionary keys decode
    /// from its dictionaries.
    table: &'a Table,
    id: usize,
}

impl ColumnAccess for GroupRow<'_> {
    fn value(&self, idx: usize) -> Value {
        let GroupTable { index, columns } = self.groups;
        match idx.checked_sub(index.width()) {
            None => index.key(self.table, self.id, idx),
            Some(agg) => columns[agg].value(self.id),
        }
    }
}

impl GroupRow<'_> {
    /// Push the group's output row into `out`, unless `having` drops it.
    fn emit(&self, projections: &[CExpr], having: Option<&CExpr>, out: &mut ResultBuilder) {
        if having.is_some_and(|h| eval_predicate(h, self) != Some(true)) {
            return;
        }
        for p in projections {
            out.push(eval(p, self));
        }
        out.end_row();
    }
}

impl GroupTable {
    /// An empty table for GROUP BY `keys` computing `aggs` over `table`; a
    /// global aggregate starts with its one group, emitted even over no rows.
    pub fn new(keys: &[CExpr], aggs: &[AggSpec], table: &Table) -> GroupTable {
        let index = KeyIndex::new(keys, table);
        let columns = aggs
            .iter()
            .map(|spec| {
                let mut column = AggColumn::new(spec, table);
                column.resize(index.len());
                column
            })
            .collect();
        GroupTable { index, columns }
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

    /// Under a packed index, where a row finds its group id: `"direct"`
    /// (the slot table) or `"map"`; `None` under any other index.
    pub fn packed_arm(&self) -> Option<&'static str> {
        match &self.index {
            KeyIndex::Packed(packed) => Some(match packed.lookup {
                Lookup::Direct(_) => "direct",
                Lookup::Map(_) => "map",
            }),
            _ => None,
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Number of aggregate columns.
    pub(crate) fn width(&self) -> usize {
        self.columns.len()
    }

    /// Slots the table holds: one per dictionary code and one for NULL
    /// under a dense index, the direct table's length (the radixes'
    /// product once a row has arrived) under a packed index's direct arm,
    /// one per group otherwise.
    pub(crate) fn slots(&self) -> usize {
        match &self.index {
            KeyIndex::Dense { slots, .. } => slots.len(),
            KeyIndex::Packed(Packed {
                lookup: Lookup::Direct(slots),
                ..
            }) => slots.len(),
            _ => self.len(),
        }
    }

    /// Free what only finds a row's group — the direct slot table, the
    /// packed or hash map — for a table that is only emitted from now on.
    /// A dense index keeps its slots: they are its emission order.
    pub(crate) fn drop_lookup(&mut self) {
        self.index.drop_lookup();
    }

    /// Feed the selected `rows` of `table`, in order: the key index maps the
    /// batch to group ids, then each aggregate column takes the whole batch.
    pub(crate) fn update(&mut self, table: &Table, rows: &[u32]) {
        let mut ids = Vec::with_capacity(rows.len());
        self.index.assign(table, rows, &mut ids);
        let n = self.index.len();
        for column in &mut self.columns {
            column.resize(n);
            column.update(table, rows, &ids);
        }
    }

    /// Fold in `other`, built by the same query over a *later* scan range:
    /// shared keys merge their states (keep-first min/max ties hold),
    /// unseen keys are appended in `other`'s order.
    pub(crate) fn merge(&mut self, other: GroupTable) {
        let GroupTable {
            index,
            columns: their_columns,
        } = other;
        // `map[t]`: this table's id for `other`'s group `t`.
        let map: Vec<u32> = match (&mut self.index, index) {
            (KeyIndex::Global, KeyIndex::Global) => vec![0],
            (
                KeyIndex::Dense { slots, codes, .. },
                KeyIndex::Dense {
                    slots: theirs,
                    codes: their_codes,
                    ..
                },
            ) => {
                let mut map = vec![0; their_codes.len()];
                for (code, (slot, their)) in slots.iter_mut().zip(theirs).enumerate() {
                    if let Some(t) = their {
                        map[t as usize] = *slot.get_or_insert_with(|| push(codes, code as u32));
                    }
                }
                map
            }
            (KeyIndex::Packed(packed), KeyIndex::Packed(theirs)) => {
                let mut map = Vec::with_capacity(theirs.ids_packed.len());
                packed.find(&theirs.ids_packed, &mut map);
                map
            }
            (KeyIndex::Hash { by_key, keys, .. }, KeyIndex::Hash { keys: theirs, .. }) => theirs
                .into_iter()
                .map(|key| {
                    *by_key
                        .entry(key)
                        .or_insert_with_key(|key| push(keys, key.clone()))
                })
                .collect(),
            _ => unreachable!("one query's group tables share one key index"),
        };
        let n = self.index.len();
        for (mine, theirs) in self.columns.iter_mut().zip(their_columns) {
            mine.resize(n);
            mine.merge(theirs, &map);
        }
    }

    /// Output rows, in emission order: each group's `[keys…, aggregates…]`
    /// filtered by `having` and projected through `projections`, one cell
    /// per projection. `table` is the one the group table was built over.
    pub(crate) fn emit(
        &self,
        table: &Table,
        projections: &[CExpr],
        having: Option<&CExpr>,
    ) -> ResultBuilder {
        let mut out = ResultBuilder::with_capacity(projections.len(), self.len());
        let mut push = |id: usize| {
            let group = GroupRow {
                groups: self,
                table,
                id,
            };
            group.emit(projections, having, &mut out);
        };
        match &self.index {
            KeyIndex::Dense { slots, .. } => {
                slots.iter().flatten().for_each(|&id| push(id as usize))
            }
            _ => (0..self.len()).for_each(push),
        }
        out
    }

    /// [`emit`](Self::emit) for a table nobody keeps: each group's hash key
    /// and boxed accumulators are freed once its row is out, so table and
    /// rows never peak together.
    pub(crate) fn into_rows(
        mut self,
        table: &Table,
        projections: &[CExpr],
        having: Option<&CExpr>,
    ) -> ResultBuilder {
        if let KeyIndex::Dense { .. } = self.index {
            return self.emit(table, projections, having);
        }
        self.index.drop_lookup();
        let mut out = ResultBuilder::with_capacity(projections.len(), self.len());
        for id in 0..self.len() {
            let group = GroupRow {
                groups: &self,
                table,
                id,
            };
            group.emit(projections, having, &mut out);
            if let KeyIndex::Hash { keys, .. } = &mut self.index {
                keys[id] = Arc::default();
            }
            for column in &mut self.columns {
                column.release(id);
            }
        }
        out
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

    /// Emitted rows in the form a `Vec<Vec<Value>>` prints: bitwise.
    fn shown(rows: ResultBuilder) -> String {
        let names = vec![String::new(); rows.width()];
        format!("{:?}", rows.finish(names).rows().collect::<Vec<_>>())
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
                        keys: Vec::new(),
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
            let emitted = shown(merged.emit(t, &projections, None));
            assert_eq!(emitted, shown(merged.into_rows(t, &projections, None)));
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

    /// `a` and `b` are the same value, a Float bit for bit.
    fn same_bits(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Float(_), _) | (_, Value::Float(_)) => false,
            _ => a == b,
        }
    }

    /// Each group's decoded key under GROUP BY `keys` over `t` is bitwise
    /// what `eval` makes of the keys on the group's first row.
    fn assert_keys_decode(keys: &str, t: &Arc<Table>) {
        let (exprs, aggs) = plan(keys, t);
        let mut groups = GroupTable::new(&exprs, &aggs, t);
        assert_eq!(groups.layout().0, "packed", "{keys}");
        for row in 0..t.row_count() {
            let id = groups.len();
            groups.update(t, &[row as u32]);
            if groups.len() == id {
                continue;
            }
            let ctx = TableRow { table: t, row };
            for (part, key) in exprs.iter().enumerate() {
                let (got, want) = (groups.index.key(t, id, part), eval(key, &ctx));
                assert!(
                    same_bits(&got, &want),
                    "{keys}, row {row}: {got:?} vs {want:?}"
                );
            }
        }
    }

    /// Every part kind decodes to `eval`'s key: codes, Int buckets at
    /// width 1, a power of two and a reciprocal, Float buckets on both
    /// sides of zero's sign — `-0.0` from a `-0.0` and from a subnormal
    /// whose `x / w` underflows, `+0.0` on a positive column — the NULL
    /// slot of each, and the `BIN` edges that still pack.
    #[test]
    fn packed_keys_decode_to_what_eval_makes_of_the_first_row() {
        const TINY: f64 = 5e-324;
        let t = table(&[
            (Some("B"), Some(-9), Some(-0.0)),
            (None, Some(7), Some(-TINY)),
            (Some("A"), None, Some(-2.5)),
            (Some("B"), Some(-1), None),
            (Some("C"), Some(6), Some(-1e-4)),
            (Some("A"), Some(0), Some(-7.0)),
        ]);
        for keys in [
            "q, BIN(n, 1)",
            "BIN(n, 4), q",
            "BIN(n, 7), BIN(x, 3)",
            "BIN(x, 1), q, BIN(n, 3)",
        ] {
            assert_keys_decode(keys, &t);
        }
        let positive = floats(&[3.5, 0.0, TINY, 2.0, 11.0]);
        assert_keys_decode("BIN(x, 2)", &positive);
        assert_keys_decode("BIN(x, 1)", &positive);
        let nulls = table(&[(Some("A"), None, Some(1.0)), (None, None, None)]);
        assert_keys_decode("q, BIN(n, 5), BIN(x, 5)", &nulls);
        // The edges of `keys_one_slot_could_merge_stay_boxed` that pack.
        assert_keys_decode("BIN(n, 2)", &ints(&[5, i64::MIN, -3]));
        assert_keys_decode("BIN(n, 3)", &ints(&[i64::MAX, -7, 0]));
        assert_keys_decode("BIN(x, 1)", &floats(&[0.0, 3.5]));
        assert_keys_decode("BIN(x, 1)", &floats(&[-0.0, -2.5]));
        assert_keys_decode("BIN(x, 1)", &floats(&[EXACT_F64 - 1.0, 1.0]));
    }

    /// The reciprocal's quotient is `div_euclid`'s for every width in
    /// 1..=1000: on 1,024 offsets per width drawn below the fit bound, each
    /// beside its bucket's first and last offset (where `n mod w` is
    /// largest and the bound is tight), and on the bound − 1. The bound is
    /// checked against `c = ⌈2^64 / w⌉` independently, and an offset at the
    /// bound or past it divides.
    #[test]
    fn reciprocal_quotients_are_div_euclid() {
        assert_eq!(Divide::of(1, u64::MAX), Divide::One);
        for w in 1..=1000u64 {
            let limit = match Divide::of(w, 0) {
                Divide::One => u64::MAX,
                Divide::Reciprocal(r) => {
                    let e = (u128::from(r.0) * u128::from(w)).checked_sub(1 << 64);
                    assert!(e.is_some_and(|e| e < u128::from(w)), "c = ⌈2^64 / {w}⌉");
                    r.limit(w)
                }
                Divide::Hardware(_) => unreachable!("offset 0 fits every reciprocal"),
            };
            // `e < w`: the bound covers every offset of a column spanning
            // 2^64 / w² buckets.
            assert!(limit >= u64::MAX / w, "width {w}: bound {limit}");
            let exact = Divide::of(w, limit);
            assert!(!matches!(exact, Divide::Hardware(_)), "width {w}");
            let samples = (0..1024).map(|i| splitmix64(w << 16 | i) % limit);
            let edges = samples.flat_map(|n| {
                let first = n - n % w;
                [n, first, first.saturating_add(w - 1).min(limit)]
            });
            for n in edges.chain([0, limit - 1, limit]) {
                let want = i128::from(n).div_euclid(i128::from(w)) as u64;
                assert_eq!(exact.quotient(n), want, "{n} / {w}");
            }
            if limit < u64::MAX {
                for n in [limit + 1, limit.saturating_add(2)] {
                    let past = Divide::of(w, n);
                    assert_eq!(past, Divide::Hardware(w), "width {w}, offset {n}");
                    assert_eq!(past.quotient(n), n / w);
                }
            }
        }
    }

    /// The direct slot table and the map hold the same groups in the same
    /// order: a radix product of 2^16 (4 × 16,384) takes the direct arm and
    /// one of 2^16 + 1 (65,536 values and NULL) the map, each emitting what
    /// the forced hash index does over three merged ranges.
    #[test]
    fn direct_and_map_arms_emit_what_the_hash_index_emits() {
        const QUEUES: [&str; 3] = ["A", "B", "C"];
        for (max, keys, arm) in [
            (16_382, "q, BIN(n, 1)", "direct"),
            (65_535, "BIN(n, 1)", "map"),
        ] {
            let rows: Vec<Row> = (0..900u64)
                .map(|i| {
                    let draw = splitmix64(i ^ max);
                    let n = match i {
                        0 => 0,
                        1 => max as i64,
                        _ => (draw % (max + 1)) as i64,
                    };
                    let q = QUEUES[(draw >> 32) as usize % 3];
                    (
                        (!draw.is_multiple_of(11)).then_some(q),
                        (!draw.is_multiple_of(13)).then_some(n),
                        None,
                    )
                })
                .collect();
            let t = table(&rows);
            let (exprs, aggs) = plan(keys, &t);
            let mut groups = GroupTable::new(&exprs, &aggs, &t);
            assert_eq!(groups.packed_arm(), Some(arm), "{keys}");
            groups.update(&t, &(0..900).collect::<Vec<u32>>());
            let slots = if arm == "direct" {
                1 << 16
            } else {
                groups.len()
            };
            assert_eq!(groups.slots(), slots, "{keys}");
            let [packed, hashed] = packed_and_hashed(keys, &t);
            assert_eq!(packed, hashed, "{keys}");
        }
    }
}
