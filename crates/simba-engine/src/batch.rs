//! Batch-at-a-time execution: selection vectors, columnar filter kernels,
//! typed aggregation states, and the morsel-driven scan, which reads no row
//! when the compiled filter cannot match.
//!
//! The row-at-a-time interpreter ([`crate::exec::run_row`]) pays an enum
//! dispatch and a `Value` allocation per row per expression. The batch path
//! instead evaluates each compiled filter kernel over a contiguous column
//! slice with a tight typed loop, refining a [`SelectionVector`] of
//! surviving row indices, and feeds aggregates from raw `f64` slices and
//! Int / code slices at their stored width (matched once per batch with
//! [`for_width!`]) into dense group-indexed states — no `Value` boxing on
//! the hot path.
//! Semantics are pinned to the row path: the equivalence suite requires
//! byte-identical results from both.

use crate::agg::AggSpec;
use crate::eval::{eval, eval_predicate, CExpr, TableRow};
use crate::exec::{compile_kernels, emit_finalized_groups, ExecStats, Kernel};
use crate::group::GroupTable;
use crate::plan::{PreparedQuery, QueryKind};
use simba_sql::Func;
use simba_store::zonemap::{float_key, morsel_bounds, morsel_count, MORSEL_ROWS};
use simba_store::{for_width, ColumnData, Table, Value};
use std::cmp::Ordering;

/// Rows per scan batch: one morsel.
pub const MORSEL: usize = MORSEL_ROWS;

/// The set of row indices (within a morsel or a whole table) still alive
/// after the filter conjuncts applied so far.
#[derive(Debug, Default)]
pub struct SelectionVector {
    rows: Vec<u32>,
}

impl SelectionVector {
    /// Empty selection with room for `capacity` rows.
    pub fn with_capacity(capacity: usize) -> SelectionVector {
        SelectionVector {
            rows: Vec::with_capacity(capacity),
        }
    }

    /// Reset to the dense range `[start, end)`.
    pub fn fill_range(&mut self, start: usize, end: usize) {
        self.rows.clear();
        self.rows.extend(start as u32..end as u32);
    }

    /// Reset to an explicit (sorted) row list — the seeded-scan entry point,
    /// where the candidate rows come from a prior step's captured selection
    /// rather than a dense range.
    pub fn fill_from(&mut self, rows: &[u32]) {
        self.rows.clear();
        self.rows.extend_from_slice(rows);
    }

    /// Surviving row indices.
    pub fn as_slice(&self) -> &[u32] {
        &self.rows
    }

    /// Number of surviving rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no row survives.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drop every row.
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

/// In-place compaction of a selection vector: keep row `i` iff `$keep(i)`.
/// Written branch-light (unconditional store + predicated advance) so the
/// typed comparison loops compile to straight-line code.
macro_rules! compact {
    ($sel:expr, $keep:expr) => {{
        let rows = &mut $sel.rows;
        let mut out = 0usize;
        for k in 0..rows.len() {
            let i = rows[k] as usize;
            rows[out] = rows[k];
            out += usize::from($keep(i));
        }
        rows.truncate(out);
    }};
}

impl Kernel {
    /// Refine `sel` to the rows that pass this kernel, evaluating over
    /// contiguous column slices. Exactly equivalent to calling
    /// [`Kernel::matches`] per row (the equivalence suite enforces this),
    /// but without per-row column lookup or `Value` boxing.
    pub fn filter_batch(&self, table: &Table, sel: &mut SelectionVector) {
        if self.never_matches() {
            return sel.clear();
        }
        match self {
            Kernel::Range {
                col,
                lo,
                hi,
                negated,
            } => {
                let c = table.column(*col);
                let valid = c.validity();
                let (lo, hi, negated) = (*lo, *hi, *negated);
                let keep = |key: i64| (lo <= key && key <= hi) != negated;
                if let Some(data) = c.int_data() {
                    for_width!(data, |lane| filter_keys(
                        |i| lane[i] as i64,
                        valid,
                        keep,
                        sel
                    ));
                } else if let Some(data) = c.float_data() {
                    filter_keys(|i| float_key(data[i]), valid, keep, sel);
                } else {
                    // Type mismatch: the row path rejects every row.
                    sel.clear();
                }
            }
            Kernel::DictIn { col, mask } => {
                let c = table.column(*col);
                match c.code_data() {
                    Some(codes) => {
                        let valid = c.validity();
                        for_width!(codes, |lane| {
                            let keep_code =
                                |i: usize| mask.get(lane[i] as usize).copied().unwrap_or(false);
                            if valid.is_empty() {
                                compact!(sel, keep_code);
                            } else {
                                compact!(sel, |i: usize| valid[i] && keep_code(i));
                            }
                        })
                    }
                    None => sel.clear(),
                }
            }
            Kernel::Generic(expr) => {
                compact!(sel, |i: usize| eval_predicate(
                    expr,
                    &TableRow { table, row: i }
                ) == Some(true));
            }
        }
    }
}

/// Keep the selected rows that are valid and whose ordered key passes
/// `keep`. `key` reads a row's key off the raw slice; one instance per
/// column type and stored width, so the loop stays monomorphic and
/// branch-light.
fn filter_keys(
    key: impl Fn(usize) -> i64,
    valid: &[bool],
    keep: impl Fn(i64) -> bool,
    sel: &mut SelectionVector,
) {
    if valid.is_empty() {
        compact!(sel, |i: usize| keep(key(i)));
    } else {
        compact!(sel, |i: usize| valid[i] && keep(key(i)));
    }
}

/// One aggregate admitted to the typed fast path: its function, source
/// column, and the column's physical type, all resolved at compile time.
#[derive(Debug, Clone, Copy)]
enum TypedAggKind {
    CountStar,
    /// `COUNT(col)`: non-null count, any column type.
    CountCol {
        col: usize,
    },
    SumInt {
        col: usize,
    },
    SumFloat {
        col: usize,
    },
    AvgInt {
        col: usize,
    },
    AvgFloat {
        col: usize,
    },
    MinInt {
        col: usize,
    },
    MaxInt {
        col: usize,
    },
    MinFloat {
        col: usize,
    },
    MaxFloat {
        col: usize,
    },
}

/// Decide whether every aggregate of a plan has a typed fast path: the
/// argument must be a bare column of a matching physical type, and
/// `COUNT(DISTINCT …)` always falls back (it needs a value set).
fn compile_typed_aggs(aggs: &[AggSpec], table: &Table) -> Option<Vec<TypedAggKind>> {
    aggs.iter()
        .map(|spec| {
            if spec.distinct {
                return None;
            }
            let Some(arg) = &spec.arg else {
                return (spec.func == Func::Count).then_some(TypedAggKind::CountStar);
            };
            let col = arg.as_col()?;
            let is_int = matches!(table.column(col), ColumnData::Int { .. });
            let is_float = matches!(table.column(col), ColumnData::Float { .. });
            match spec.func {
                Func::Count => Some(TypedAggKind::CountCol { col }),
                Func::Sum if is_int => Some(TypedAggKind::SumInt { col }),
                Func::Sum if is_float => Some(TypedAggKind::SumFloat { col }),
                Func::Avg if is_int => Some(TypedAggKind::AvgInt { col }),
                Func::Avg if is_float => Some(TypedAggKind::AvgFloat { col }),
                Func::Min if is_int => Some(TypedAggKind::MinInt { col }),
                Func::Max if is_int => Some(TypedAggKind::MaxInt { col }),
                Func::Min if is_float => Some(TypedAggKind::MinFloat { col }),
                Func::Max if is_float => Some(TypedAggKind::MaxFloat { col }),
                _ => None,
            }
        })
        .collect()
}

/// Unboxed per-group state for one typed aggregate, group-slot indexed.
#[derive(Debug, Clone)]
enum AggStateVec {
    Count(Vec<i64>),
    /// SUM over an Int column: integer-preserving (wrapping, like the
    /// accumulator); `any` distinguishes `0` from "no input → NULL".
    SumInt {
        int: Vec<i64>,
        any: Vec<bool>,
    },
    SumFloat {
        sum: Vec<f64>,
        any: Vec<bool>,
    },
    Avg {
        sum: Vec<f64>,
        n: Vec<i64>,
    },
    MinMaxInt {
        val: Vec<i64>,
        seen: Vec<bool>,
    },
    MinMaxFloat {
        val: Vec<f64>,
        seen: Vec<bool>,
    },
}

impl AggStateVec {
    fn new(kind: TypedAggKind, n_groups: usize) -> AggStateVec {
        match kind {
            TypedAggKind::CountStar | TypedAggKind::CountCol { .. } => {
                AggStateVec::Count(vec![0; n_groups])
            }
            TypedAggKind::SumInt { .. } => AggStateVec::SumInt {
                int: vec![0; n_groups],
                any: vec![false; n_groups],
            },
            TypedAggKind::SumFloat { .. } => AggStateVec::SumFloat {
                sum: vec![0.0; n_groups],
                any: vec![false; n_groups],
            },
            TypedAggKind::AvgInt { .. } | TypedAggKind::AvgFloat { .. } => AggStateVec::Avg {
                sum: vec![0.0; n_groups],
                n: vec![0; n_groups],
            },
            TypedAggKind::MinInt { .. } | TypedAggKind::MaxInt { .. } => AggStateVec::MinMaxInt {
                val: vec![0; n_groups],
                seen: vec![false; n_groups],
            },
            TypedAggKind::MinFloat { .. } | TypedAggKind::MaxFloat { .. } => {
                AggStateVec::MinMaxFloat {
                    val: vec![0.0; n_groups],
                    seen: vec![false; n_groups],
                }
            }
        }
    }
}

/// Dense typed aggregation states: one slot per group, fed batch-wise from
/// raw column slices. Group slots are assigned by the caller (dictionary
/// codes for categorical keys, slot 0 for global aggregates).
#[derive(Debug, Clone)]
pub struct TypedGroupStates {
    kinds: Vec<TypedAggKind>,
    states: Vec<AggStateVec>,
    touched: Vec<bool>,
}

impl TypedGroupStates {
    /// Compile the plan's aggregates into typed states over `n_groups`
    /// dense slots, or `None` if any aggregate lacks a fast path.
    pub fn compile(aggs: &[AggSpec], table: &Table, n_groups: usize) -> Option<TypedGroupStates> {
        let kinds = compile_typed_aggs(aggs, table)?;
        let states = kinds
            .iter()
            .map(|&k| AggStateVec::new(k, n_groups))
            .collect();
        Some(TypedGroupStates {
            kinds,
            states,
            touched: vec![false; n_groups],
        })
    }

    /// Mark a group slot live even if no row reaches it (global aggregates
    /// emit one row over empty input).
    pub fn mark_touched(&mut self, slot: usize) {
        self.touched[slot] = true;
    }

    /// Has any row (or an explicit mark) reached group `slot`?
    pub fn is_touched(&self, slot: usize) -> bool {
        self.touched[slot]
    }

    /// Number of group slots.
    pub fn n_groups(&self) -> usize {
        self.touched.len()
    }

    /// Feed one batch: for each selected row `sel[k]`, update every
    /// aggregate's state at group slot `slots[k]`. Tight per-aggregate
    /// loops over the raw column slices; no `Value` is constructed.
    pub fn update_batch(&mut self, table: &Table, sel: &[u32], slots: &[u32]) {
        debug_assert_eq!(sel.len(), slots.len());
        for &s in slots {
            self.touched[s as usize] = true;
        }
        for (kind, state) in self.kinds.iter().zip(self.states.iter_mut()) {
            update_one(*kind, state, table, sel, slots);
        }
    }

    /// Merge a partial state produced over a *later* range of morsels.
    /// Order matters for min/max tie-breaking (keep-first) and mirrors the
    /// sequential scan when partials are merged in morsel order.
    pub fn merge(&mut self, other: &TypedGroupStates) {
        for (t, o) in self.touched.iter_mut().zip(&other.touched) {
            *t |= o;
        }
        for (kind, (a, b)) in self
            .kinds
            .iter()
            .zip(self.states.iter_mut().zip(&other.states))
        {
            merge_state(*kind, a, b);
        }
    }

    /// Finalized aggregate values for group `slot`, matching
    /// [`Accumulator::finalize`](crate::agg::Accumulator::finalize) exactly.
    pub fn finalize_into(&self, slot: usize, out: &mut Vec<Value>) {
        for state in &self.states {
            out.push(match state {
                AggStateVec::Count(n) => Value::Int(n[slot]),
                AggStateVec::SumInt { int, any } => {
                    if any[slot] {
                        Value::Int(int[slot])
                    } else {
                        Value::Null
                    }
                }
                AggStateVec::SumFloat { sum, any } => {
                    if any[slot] {
                        Value::Float(sum[slot])
                    } else {
                        Value::Null
                    }
                }
                AggStateVec::Avg { sum, n } => {
                    if n[slot] == 0 {
                        Value::Null
                    } else {
                        Value::Float(sum[slot] / n[slot] as f64)
                    }
                }
                AggStateVec::MinMaxInt { val, seen } => {
                    if seen[slot] {
                        Value::Int(val[slot])
                    } else {
                        Value::Null
                    }
                }
                AggStateVec::MinMaxFloat { val, seen } => {
                    if seen[slot] {
                        Value::Float(val[slot])
                    } else {
                        Value::Null
                    }
                }
            });
        }
    }
}

/// Iterate `(row, slot)` pairs where the column is valid at `row`. Int
/// arguments run it inside [`for_width!`], so each stored width gets its
/// own copy of the loop.
macro_rules! for_valid {
    ($valid:expr, $sel:expr, $slots:expr, |$i:ident, $s:ident| $body:expr) => {{
        let valid = $valid;
        if valid.is_empty() {
            for (&row, &slot) in $sel.iter().zip($slots) {
                let ($i, $s) = (row as usize, slot as usize);
                $body
            }
        } else {
            for (&row, &slot) in $sel.iter().zip($slots) {
                let ($i, $s) = (row as usize, slot as usize);
                if valid[$i] {
                    $body
                }
            }
        }
    }};
}

fn update_one(
    kind: TypedAggKind,
    state: &mut AggStateVec,
    table: &Table,
    sel: &[u32],
    slots: &[u32],
) {
    match (kind, state) {
        (TypedAggKind::CountStar, AggStateVec::Count(n)) => {
            for &slot in slots {
                n[slot as usize] += 1;
            }
        }
        (TypedAggKind::CountCol { col }, AggStateVec::Count(n)) => {
            let c = table.column(col);
            for_valid!(c.validity(), sel, slots, |_i, s| n[s] += 1);
        }
        (TypedAggKind::SumInt { col }, AggStateVec::SumInt { int, any }) => {
            let c = table.column(col);
            // simba: allow(panic-hygiene): TypedGroupStates::compile pinned this kernel to the column's physical type; a mismatch is a planner bug, not a runtime condition
            let data = c.int_data().expect("typed agg column is Int");
            for_width!(data, |lane| for_valid!(c.validity(), sel, slots, |i, s| {
                int[s] = int[s].wrapping_add(lane[i] as i64);
                any[s] = true;
            }));
        }
        (TypedAggKind::SumFloat { col }, AggStateVec::SumFloat { sum, any }) => {
            let c = table.column(col);
            // simba: allow(panic-hygiene): TypedGroupStates::compile pinned this kernel to the column's physical type; a mismatch is a planner bug, not a runtime condition
            let data = c.float_data().expect("typed agg column is Float");
            for_valid!(c.validity(), sel, slots, |i, s| {
                sum[s] += data[i];
                any[s] = true;
            });
        }
        (TypedAggKind::AvgInt { col }, AggStateVec::Avg { sum, n }) => {
            let c = table.column(col);
            // simba: allow(panic-hygiene): TypedGroupStates::compile pinned this kernel to the column's physical type; a mismatch is a planner bug, not a runtime condition
            let data = c.int_data().expect("typed agg column is Int");
            for_width!(data, |lane| for_valid!(c.validity(), sel, slots, |i, s| {
                sum[s] += lane[i] as f64;
                n[s] += 1;
            }));
        }
        (TypedAggKind::AvgFloat { col }, AggStateVec::Avg { sum, n }) => {
            let c = table.column(col);
            // simba: allow(panic-hygiene): TypedGroupStates::compile pinned this kernel to the column's physical type; a mismatch is a planner bug, not a runtime condition
            let data = c.float_data().expect("typed agg column is Float");
            for_valid!(c.validity(), sel, slots, |i, s| {
                sum[s] += data[i];
                n[s] += 1;
            });
        }
        (TypedAggKind::MinInt { col }, AggStateVec::MinMaxInt { val, seen }) => {
            let c = table.column(col);
            // simba: allow(panic-hygiene): TypedGroupStates::compile pinned this kernel to the column's physical type; a mismatch is a planner bug, not a runtime condition
            let data = c.int_data().expect("typed agg column is Int");
            for_width!(data, |lane| for_valid!(c.validity(), sel, slots, |i, s| {
                let v = lane[i] as i64;
                // Strict `<`: ties keep the earlier value, like the
                // accumulator's keep-first rule.
                if !seen[s] || v < val[s] {
                    val[s] = v;
                    seen[s] = true;
                }
            }));
        }
        (TypedAggKind::MaxInt { col }, AggStateVec::MinMaxInt { val, seen }) => {
            let c = table.column(col);
            // simba: allow(panic-hygiene): TypedGroupStates::compile pinned this kernel to the column's physical type; a mismatch is a planner bug, not a runtime condition
            let data = c.int_data().expect("typed agg column is Int");
            for_width!(data, |lane| for_valid!(c.validity(), sel, slots, |i, s| {
                let v = lane[i] as i64;
                if !seen[s] || v > val[s] {
                    val[s] = v;
                    seen[s] = true;
                }
            }));
        }
        (TypedAggKind::MinFloat { col }, AggStateVec::MinMaxFloat { val, seen }) => {
            let c = table.column(col);
            // simba: allow(panic-hygiene): TypedGroupStates::compile pinned this kernel to the column's physical type; a mismatch is a planner bug, not a runtime condition
            let data = c.float_data().expect("typed agg column is Float");
            for_valid!(c.validity(), sel, slots, |i, s| {
                let v = data[i];
                if !seen[s] || v.total_cmp(&val[s]) == Ordering::Less {
                    val[s] = v;
                    seen[s] = true;
                }
            });
        }
        (TypedAggKind::MaxFloat { col }, AggStateVec::MinMaxFloat { val, seen }) => {
            let c = table.column(col);
            // simba: allow(panic-hygiene): TypedGroupStates::compile pinned this kernel to the column's physical type; a mismatch is a planner bug, not a runtime condition
            let data = c.float_data().expect("typed agg column is Float");
            for_valid!(c.validity(), sel, slots, |i, s| {
                let v = data[i];
                if !seen[s] || v.total_cmp(&val[s]) == Ordering::Greater {
                    val[s] = v;
                    seen[s] = true;
                }
            });
        }
        (kind, state) => unreachable!("typed agg state mismatch: {kind:?} vs {state:?}"),
    }
}

fn merge_state(kind: TypedAggKind, a: &mut AggStateVec, b: &AggStateVec) {
    match (a, b) {
        (AggStateVec::Count(x), AggStateVec::Count(y)) => {
            for (x, y) in x.iter_mut().zip(y) {
                *x += y;
            }
        }
        (AggStateVec::SumInt { int: xi, any: xa }, AggStateVec::SumInt { int: yi, any: ya }) => {
            for s in 0..xi.len() {
                xi[s] = xi[s].wrapping_add(yi[s]);
                xa[s] |= ya[s];
            }
        }
        (
            AggStateVec::SumFloat { sum: xs, any: xa },
            AggStateVec::SumFloat { sum: ys, any: ya },
        ) => {
            for s in 0..xs.len() {
                xs[s] += ys[s];
                xa[s] |= ya[s];
            }
        }
        (AggStateVec::Avg { sum: xs, n: xn }, AggStateVec::Avg { sum: ys, n: yn }) => {
            for s in 0..xs.len() {
                xs[s] += ys[s];
                xn[s] += yn[s];
            }
        }
        (
            AggStateVec::MinMaxInt { val: xv, seen: xs },
            AggStateVec::MinMaxInt { val: yv, seen: ys },
        ) => {
            // `other` covers later morsels, so its representative plays the
            // role of "new value v" in the keep-first rule: adopt only when
            // strictly better.
            let is_min = matches!(kind, TypedAggKind::MinInt { .. });
            for s in 0..xv.len() {
                if !ys[s] {
                    continue;
                }
                let better = !xs[s] || if is_min { yv[s] < xv[s] } else { yv[s] > xv[s] };
                if better {
                    xv[s] = yv[s];
                    xs[s] = true;
                }
            }
        }
        (
            AggStateVec::MinMaxFloat { val: xv, seen: xs },
            AggStateVec::MinMaxFloat { val: yv, seen: ys },
        ) => {
            let want = if matches!(kind, TypedAggKind::MinFloat { .. }) {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            for s in 0..xv.len() {
                if !ys[s] {
                    continue;
                }
                if !xs[s] || yv[s].total_cmp(&xv[s]) == want {
                    xv[s] = yv[s];
                    xs[s] = true;
                }
            }
        }
        (a, b) => unreachable!("typed agg merge mismatch: {a:?} vs {b:?}"),
    }
}

/// Group slots for the selected rows of a dictionary-encoded key column:
/// the row's dictionary code, or `null_slot` for NULL rows.
pub fn dict_key_slots(col: &ColumnData, sel: &[u32], slots: &mut Vec<u32>, null_slot: u32) {
    slots.clear();
    // simba: allow(panic-hygiene): only dictionary-encoded key columns are routed here (TypedDict mode selection); a codeless column is a planner bug
    let codes = col.code_data().expect("dict key column");
    let valid = col.validity();
    for_width!(codes, |lane| if valid.is_empty() {
        slots.extend(sel.iter().map(|&i| lane[i as usize] as u32));
    } else {
        slots.extend(sel.iter().map(|&i| {
            let i = i as usize;
            if valid[i] {
                lane[i] as u32
            } else {
                null_slot
            }
        }));
    })
}

/// Reset `sel` to the rows `[start, end)` and refine it through each filter
/// kernel in turn, stopping early once no row survives. The one fill+refine
/// loop shared by every engine's scan (morsel, block, or whole-vector).
pub fn fill_filtered(
    sel: &mut SelectionVector,
    table: &Table,
    start: usize,
    end: usize,
    kernels: Option<&[Kernel]>,
) {
    sel.fill_range(start, end);
    if let Some(ks) = kernels {
        for k in ks {
            k.filter_batch(table, sel);
            if sel.is_empty() {
                break;
            }
        }
    }
}

/// The single bare dictionary-encoded group-key column of an aggregate, if
/// the plan has exactly that shape (the typed code-indexed states and the
/// [`GroupTable`]'s dense index require it).
pub fn dict_group_key_col(keys: &[CExpr], table: &Table) -> Option<usize> {
    (keys.len() == 1)
        .then(|| keys[0].as_col())
        .flatten()
        .filter(|&c| matches!(table.column(c), ColumnData::Str { .. }))
}

/// Emit `(group key, finalized aggregates)` for every touched slot of a
/// dense typed state: slot `< dict.len()` keys the dictionary string, the
/// trailing slot keys the NULL group, and with `global` (no group keys) the
/// single slot emits an empty key.
pub fn finalize_typed_groups(
    states: &TypedGroupStates,
    dict: &[std::sync::Arc<str>],
    global: bool,
) -> Vec<(Vec<Value>, Vec<Value>)> {
    (0..states.n_groups())
        .filter(|&s| states.is_touched(s))
        .map(|s| {
            let key = if global {
                Vec::new()
            } else if s < dict.len() {
                vec![Value::Str(dict[s].clone())]
            } else {
                vec![Value::Null]
            };
            let mut finalized = Vec::new();
            states.finalize_into(s, &mut finalized);
            (key, finalized)
        })
        .collect()
}

/// Split `0..n` into at most `parts` contiguous, near-equal ranges.
fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let rem = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Aggregation strategy, decided once per query from the plan shape.
enum AggMode {
    /// Plain projection: collect output rows.
    Project,
    /// One bare dict-encoded group key and all-typed aggregates: dense
    /// code-indexed typed states (slot = code, last slot = NULL group).
    TypedDict { key_col: usize, dict_len: usize },
    /// Global aggregate (no keys) with all-typed aggregates: one slot.
    TypedGlobal,
    /// Everything else: the boxed [`GroupTable`].
    Groups,
}

fn decide_mode(plan: &PreparedQuery, table: &Table) -> AggMode {
    let QueryKind::Aggregate { keys, aggs, .. } = &plan.kind else {
        return AggMode::Project;
    };
    if compile_typed_aggs(aggs, table).is_none() {
        return AggMode::Groups;
    }
    match dict_group_key_col(keys, table) {
        Some(key_col) => {
            let dict_len = table.column(key_col).dictionary().map_or(0, <[_]>::len);
            AggMode::TypedDict { key_col, dict_len }
        }
        None if keys.is_empty() => AggMode::TypedGlobal,
        None => AggMode::Groups,
    }
}

/// Partial result of scanning one contiguous range of morsels.
enum Partial {
    Rows(Vec<Vec<Value>>),
    Typed(TypedGroupStates),
    Groups(GroupTable),
}

struct RangePartial {
    partial: Partial,
    matched: usize,
    /// Rows never examined: every row when the filter cannot match, the
    /// rows outside the seed for a seeded scan, none otherwise.
    skipped: usize,
    /// Surviving row indices in table order (delta capture only).
    selection: Option<Vec<u32>>,
}

/// How a scan participates in session-delta execution.
pub enum DeltaScan<'a> {
    /// No participation: the plain fresh scan.
    Off,
    /// Fresh scan that additionally captures the surviving selection (and,
    /// for aggregations, the merged group states) so a session
    /// delta store can seed later refinements from it.
    Capture,
    /// Scan seeded from a previously captured selection: only the seed rows
    /// are candidates, everything else is provably filtered out already.
    /// With `exact` the seeding query's WHERE is identical to this one's,
    /// so the filter kernels are not re-evaluated at all. Seeded scans
    /// capture their own (sub)selection so refinement chains compound.
    Seeded {
        /// Ascending row indices that survived the seeding query's WHERE.
        seed: &'a [u32],
        /// The WHERE clauses are semantically identical, not merely implied.
        exact: bool,
    },
}

/// Aggregation state retained by a capture, re-finalizable without a scan
/// when a later query repeats the same aggregation shape (`states_key`
/// match) over the same table snapshot.
#[derive(Debug, Clone)]
pub enum GroupStates {
    /// Merged typed per-slot states (the `TypedDict` / `TypedGlobal` fast
    /// paths).
    Typed(TypedGroupStates),
    /// The merged [`GroupTable`] itself, moved in after emitting; a replay
    /// emits it in the fresh scan's order.
    Grouped(GroupTable),
}

/// Upper bound on the group count a `GroupStates::Grouped` capture retains.
/// Dashboard group-bys are low-cardinality (binned hours, categorical
/// columns), so this only drops pathological high-cardinality aggregations
/// whose captured states would rival the table itself in size. Skipping a
/// capture is always safe — the store is an optimization cache.
const MAX_CAPTURED_GROUPS: usize = 1 << 16;

/// Work retained from one scan for reuse by a later refinement step.
#[derive(Debug, Clone)]
pub struct DeltaCapture {
    /// Surviving row indices over the whole table, ascending.
    pub selection: Vec<u32>,
    /// Group states: reusable outright when a later query repeats the same
    /// aggregation shape.
    pub states: Option<GroupStates>,
}

/// Morsel-driven vectorized scan: selection-vector filter kernels and
/// (where the plan allows) typed aggregation. A filter whose compiled
/// kernels never match reads no row: every morsel counts as pruned. With
/// `threads > 1` the morsels are split into contiguous chunks scanned by
/// scoped worker threads whose partial states are merged in morsel order,
/// keeping output deterministic.
///
/// `delta` is the scan's session-delta participation: none, capture the
/// surviving selection / group states for later reuse, or seed the scan
/// from a previously captured selection (see [`DeltaScan`]).
///
/// Seeded scans run sequentially regardless of `threads`: the seed already
/// collapsed the candidate set to the previous step's survivors, so the
/// remaining work is too small to amortize worker spawn + merge, and a
/// single pass keeps the captured chain selection trivially in table order.
pub fn run_morsels(
    plan: &PreparedQuery,
    threads: usize,
    delta: DeltaScan<'_>,
) -> (Vec<Vec<Value>>, ExecStats, Option<DeltaCapture>) {
    let table = plan.table.as_ref();
    let n = table.row_count();
    let mode = decide_mode(plan, table);
    let (seeded, capture_requested) = match delta {
        DeltaScan::Off => (None, false),
        DeltaScan::Capture => (None, true),
        DeltaScan::Seeded { seed, exact } => (Some((seed, exact)), true),
    };
    // On an exact seed the WHERE is byte-for-byte the seeding query's: the
    // seed rows *are* the survivors, so kernels are never evaluated and
    // need not be compiled.
    let kernels: Option<Vec<Kernel>> = if matches!(seeded, Some((_, true))) {
        None
    } else {
        plan.filter.as_ref().map(|f| compile_kernels(f, table))
    };
    let n_morsels = morsel_count(n);
    // `compile_kernels` returns a kernel that never matches alone.
    let never = kernels
        .as_deref()
        .is_some_and(|ks| ks.iter().any(Kernel::never_matches));

    let partials: Vec<RangePartial> = if never {
        vec![RangePartial {
            partial: make_partial(plan, table, &mode),
            matched: 0,
            skipped: n,
            selection: capture_requested.then(Vec::new),
        }]
    } else if let Some((seed, exact)) = seeded {
        let _scan = simba_obs::phase!("engine.scan", "engine", "engine.phase.scan");
        vec![scan_seeded(
            plan,
            table,
            kernels.as_deref(),
            &mode,
            seed,
            exact,
        )]
    } else {
        let threads = threads.clamp(1, n_morsels.max(1));
        let _scan = simba_obs::phase!("engine.scan", "engine", "engine.phase.scan");
        if threads <= 1 {
            vec![scan_range(
                plan,
                table,
                kernels.as_deref(),
                &mode,
                0..n_morsels,
                capture_requested,
            )]
        } else {
            let mode = &mode;
            let kernels = kernels.as_deref();
            std::thread::scope(|scope| {
                let handles: Vec<_> = split_ranges(n_morsels, threads)
                    .into_iter()
                    .map(|range| {
                        scope.spawn(move || {
                            scan_range(plan, table, kernels, mode, range, capture_requested)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // simba: allow(panic-hygiene): scan_range catches no panics by design — a panicking scan worker is an engine bug, and re-raising it here is the only honest outcome
                    .map(|h| h.join().expect("scan worker panicked"))
                    .collect()
            })
        }
    };

    let _agg_phase = simba_obs::phase!("engine.aggregate", "engine", "engine.phase.aggregate");
    let mut stats = ExecStats {
        rows_scanned: n,
        morsels_pruned: if never { n_morsels } else { 0 },
        ..ExecStats::default()
    };
    if let Some((seed, _)) = seeded {
        stats.delta_hits = 1;
        stats.delta_rows_saved = n - seed.len();
    }
    // Captured range selections concatenate in range order, so the chain
    // selection is in ascending table order however many threads scanned.
    let mut chain_selection: Vec<u32> = Vec::new();
    let mut iter = partials.into_iter();
    // simba: allow(panic-hygiene): split_ranges always yields >= 1 range, so there is always a first partial
    let first = iter.next().expect("at least one scan range");
    stats.rows_matched = first.matched;
    stats.rows_scanned -= first.skipped;
    if let Some(sel) = first.selection {
        chain_selection = sel;
    }
    let mut merged = first.partial;
    for p in iter {
        stats.rows_matched += p.matched;
        stats.rows_scanned -= p.skipped;
        if let Some(sel) = p.selection {
            chain_selection.extend_from_slice(&sel);
        }
        match (&mut merged, p.partial) {
            (Partial::Rows(a), Partial::Rows(b)) => a.extend(b),
            (Partial::Typed(a), Partial::Typed(b)) => a.merge(&b),
            (Partial::Groups(a), Partial::Groups(b)) => a.merge(b),
            _ => unreachable!("scan ranges share one mode"),
        }
    }

    // Kept states emit through the replay path, so a replay emits exactly
    // what this scan did; an unkept group table frees itself as it emits.
    let (rows, states) = match (merged, &plan.kind) {
        (Partial::Rows(rows), _) => (rows, None),
        (
            Partial::Groups(groups),
            QueryKind::Aggregate {
                projections,
                having,
                ..
            },
        ) if !capture_requested || groups.len() > MAX_CAPTURED_GROUPS => {
            stats.groups = groups.len();
            (groups.into_rows(projections, having.as_ref()), None)
        }
        (partial, _) => {
            let states = match partial {
                Partial::Typed(states) => GroupStates::Typed(states),
                Partial::Groups(groups) => GroupStates::Grouped(groups),
                Partial::Rows(_) => unreachable!("partial shape matches plan kind"),
            };
            // simba: allow(panic-hygiene): the states were just built for this very plan, so they fit it
            let (rows, groups) = emit_states(plan, &states).expect("states fit their plan");
            stats.groups = groups;
            (rows, Some(states))
        }
    };
    let capture = capture_requested.then(|| DeltaCapture {
        selection: chain_selection,
        states,
    });
    (rows, stats, capture)
}

/// Re-finalize cached group states against `plan`'s projections, HAVING,
/// ORDER BY, and LIMIT without touching the table at all. Sound only when
/// the states were captured for the same table snapshot, WHERE, GROUP BY
/// and aggregate-slot layout — the caller's `states_key` match plus the
/// store's generation / snapshot-identity checks establish that; the shape
/// guards here are defense in depth. `matched` is the seeding scan's
/// surviving-row count, reported as this execution's `rows_matched`.
pub fn run_from_cache(
    plan: &PreparedQuery,
    states: &GroupStates,
    matched: usize,
) -> Option<(Vec<Vec<Value>>, ExecStats)> {
    let (rows, groups) = emit_states(plan, states)?;
    let stats = ExecStats {
        rows_matched: matched,
        groups,
        delta_group_hits: 1,
        delta_rows_saved: plan.table.row_count(),
        ..ExecStats::default()
    };
    Some((rows, stats))
}

/// `states` emitted through `plan`'s projections and HAVING, with their
/// group count — the one emission fresh scans and replays share — or
/// `None` when they do not fit the plan's aggregation shape.
fn emit_states(plan: &PreparedQuery, states: &GroupStates) -> Option<(Vec<Vec<Value>>, usize)> {
    let table = plan.table.as_ref();
    let QueryKind::Aggregate {
        keys,
        aggs,
        projections,
        having,
    } = &plan.kind
    else {
        return None;
    };
    let having = having.as_ref();
    match states {
        GroupStates::Typed(states) => {
            if states.kinds.len() != aggs.len() {
                return None;
            }
            let (dict, global): (&[std::sync::Arc<str>], bool) = match decide_mode(plan, table) {
                AggMode::TypedDict { key_col, dict_len } if states.n_groups() == dict_len + 1 => {
                    (table.column(key_col).dictionary().unwrap_or(&[]), false)
                }
                AggMode::TypedGlobal if states.n_groups() == 1 && keys.is_empty() => (&[], true),
                _ => return None,
            };
            let groups = finalize_typed_groups(states, dict, global);
            let n = groups.len();
            Some((emit_finalized_groups(projections, having, groups), n))
        }
        GroupStates::Grouped(groups) if groups.aggs.len() == aggs.len() => {
            Some((groups.emit(projections, having), groups.len()))
        }
        GroupStates::Grouped(_) => None,
    }
}

/// Empty partial state for one scan range, shaped by the aggregation mode.
fn make_partial(plan: &PreparedQuery, table: &Table, mode: &AggMode) -> Partial {
    let QueryKind::Aggregate { keys, aggs, .. } = &plan.kind else {
        return Partial::Rows(Vec::new());
    };
    let n_groups = match mode {
        AggMode::TypedDict { dict_len, .. } => dict_len + 1,
        AggMode::TypedGlobal => 1,
        AggMode::Project | AggMode::Groups => {
            return Partial::Groups(GroupTable::new(keys, aggs, table))
        }
    };
    let mut states = TypedGroupStates::compile(aggs, table, n_groups)
        // simba: allow(panic-hygiene): AggMode selection already ran compile successfully on this (aggs, table) pair; failure here is unreachable
        .expect("mode chosen with typed support");
    if keys.is_empty() {
        // A global aggregate emits one row even over zero input.
        states.mark_touched(0);
    }
    Partial::Typed(states)
}

/// Feed one filtered batch into a range's partial state — the per-morsel
/// aggregation step shared by the fresh and seeded scans.
fn update_partial(
    partial: &mut Partial,
    plan: &PreparedQuery,
    table: &Table,
    mode: &AggMode,
    sel: &SelectionVector,
    slots: &mut Vec<u32>,
) {
    match (partial, mode) {
        (Partial::Rows(rows), AggMode::Project) => {
            let QueryKind::Project { exprs } = &plan.kind else {
                unreachable!()
            };
            for &i in sel.as_slice() {
                let ctx = TableRow {
                    table,
                    row: i as usize,
                };
                rows.push(exprs.iter().map(|e| eval(e, &ctx)).collect());
            }
        }
        (Partial::Typed(states), AggMode::TypedDict { key_col, dict_len }) => {
            dict_key_slots(
                table.column(*key_col),
                sel.as_slice(),
                slots,
                *dict_len as u32,
            );
            states.update_batch(table, sel.as_slice(), slots);
        }
        (Partial::Typed(states), AggMode::TypedGlobal) => {
            slots.clear();
            slots.resize(sel.len(), 0);
            states.update_batch(table, sel.as_slice(), slots);
        }
        (Partial::Groups(groups), AggMode::Groups) => groups.update(table, sel.as_slice()),
        _ => unreachable!("partial shape matches mode"),
    }
}

fn scan_range(
    plan: &PreparedQuery,
    table: &Table,
    kernels: Option<&[Kernel]>,
    mode: &AggMode,
    morsels: std::ops::Range<usize>,
    capture: bool,
) -> RangePartial {
    let n = table.row_count();
    let mut sel = SelectionVector::with_capacity(MORSEL);
    let mut slots: Vec<u32> = Vec::new();
    let mut matched = 0usize;
    let mut partial = make_partial(plan, table, mode);
    let mut selection = capture.then(Vec::new);

    for m in morsels {
        let (start, end) = morsel_bounds(m, n);
        fill_filtered(&mut sel, table, start, end, kernels);
        if sel.is_empty() {
            continue;
        }
        matched += sel.len();
        if let Some(out) = selection.as_mut() {
            out.extend_from_slice(sel.as_slice());
        }
        update_partial(&mut partial, plan, table, mode, &sel, &mut slots);
    }
    RangePartial {
        partial,
        matched,
        skipped: 0,
        selection,
    }
}

/// Scan only the seed rows (a previous refinement step's survivors), one
/// morsel's share at a time so the aggregation arms see batches no wider
/// than [`MORSEL`]. `rows_scanned` counts the candidates actually examined,
/// so the stats honestly show the seeded scan's work.
fn scan_seeded(
    plan: &PreparedQuery,
    table: &Table,
    kernels: Option<&[Kernel]>,
    mode: &AggMode,
    seed: &[u32],
    exact: bool,
) -> RangePartial {
    let n = table.row_count();
    let mut sel = SelectionVector::with_capacity(MORSEL);
    let mut slots: Vec<u32> = Vec::new();
    let mut partial = make_partial(plan, table, mode);
    let mut selection = Vec::with_capacity(seed.len());
    let mut matched = 0usize;

    let mut pos = 0;
    while pos < seed.len() {
        let m = seed[pos] as usize / MORSEL;
        let morsel_end = ((m + 1) * MORSEL) as u32;
        let chunk_end = pos + seed[pos..].partition_point(|&r| r < morsel_end);
        let chunk = &seed[pos..chunk_end];
        pos = chunk_end;
        sel.fill_from(chunk);
        if !exact {
            if let Some(ks) = kernels {
                for k in ks {
                    k.filter_batch(table, &mut sel);
                    if sel.is_empty() {
                        break;
                    }
                }
            }
        }
        if sel.is_empty() {
            continue;
        }
        matched += sel.len();
        selection.extend_from_slice(sel.as_slice());
        update_partial(&mut partial, plan, table, mode, &sel, &mut slots);
    }
    RangePartial {
        partial,
        matched,
        // The caller derives rows_scanned as `n - skipped`; report the
        // candidates examined, not the table size.
        skipped: n - seed.len(),
        selection: Some(selection),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::CExpr;
    use crate::test_support::sample_table;
    use simba_sql::{parse_select, BinOp};
    use std::sync::Arc;

    fn table() -> Table {
        sample_table()
    }

    /// The compiled kernels of `SELECT * FROM cs WHERE <filter>`.
    fn kernels(t: &Table, filter: &str) -> Vec<Kernel> {
        let q = parse_select(&format!("SELECT calls FROM cs WHERE {filter}")).unwrap();
        let filter = crate::plan::compile_row_expr(&q.where_clause.unwrap(), t.schema()).unwrap();
        compile_kernels(&filter, t)
    }

    #[test]
    fn range_filter_batch_matches_row_kernel() {
        let t = table();
        for filter in [
            "calls > 2",
            "calls <> 3",
            "calls BETWEEN 2 AND 5.5",
            "duration NOT BETWEEN 1 AND 20",
            "duration <= 30.0",
        ] {
            let ks = kernels(&t, filter);
            assert!(matches!(ks[..], [Kernel::Range { .. }]), "{filter}");
            let mut sel = SelectionVector::with_capacity(8);
            sel.fill_range(0, t.row_count());
            ks[0].filter_batch(&t, &mut sel);
            let expect: Vec<u32> = (0..t.row_count() as u32)
                .filter(|&i| ks[0].matches(&t, i as usize))
                .collect();
            assert_eq!(sel.as_slice(), expect.as_slice(), "{filter}");
        }
    }

    #[test]
    fn dict_filter_batch_drops_nulls() {
        let t = table();
        let filter = crate::plan::compile_row_expr(
            &simba_sql::Expr::in_strs("queue", vec!["A"]),
            t.schema(),
        )
        .unwrap();
        let kernels = compile_kernels(&filter, &t);
        let mut sel = SelectionVector::with_capacity(8);
        sel.fill_range(0, t.row_count());
        for k in &kernels {
            k.filter_batch(&t, &mut sel);
        }
        assert_eq!(sel.as_slice(), &[0, 2]);
    }

    #[test]
    fn generic_kernel_refines_surviving_rows_only() {
        let t = table();
        // `calls + 0 > 2` does not specialize: exercised via the interpreter.
        let filter = CExpr::Bin {
            l: Box::new(CExpr::Bin {
                l: Box::new(CExpr::Col(1)),
                op: BinOp::Add,
                r: Box::new(CExpr::Lit(Value::Int(0))),
            }),
            op: BinOp::Gt,
            r: Box::new(CExpr::Lit(Value::Int(2))),
        };
        let kernels = compile_kernels(&filter, &t);
        assert!(matches!(kernels[0], Kernel::Generic(_)));
        let mut sel = SelectionVector::with_capacity(8);
        sel.fill_range(0, t.row_count());
        kernels[0].filter_batch(&t, &mut sel);
        assert_eq!(sel.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn zone_pruning_skips_impossible_morsels() {
        let t = table();
        let never = |filter: &str| matches!(&kernels(&t, filter)[..], [k] if k.never_matches());
        // calls ∈ [1, 7]: `calls > 100` compiles to the empty interval.
        assert!(never("calls > 100"));
        assert!(!never("calls > 3"));
        // A hole covering the column's span never matches; one inside it can.
        assert!(never("calls NOT BETWEEN 0 AND 7"));
        assert!(!never("calls NOT BETWEEN 2 AND 7"));
    }

    #[test]
    fn contradictory_filter_reads_no_row() {
        let t = Arc::new(table());
        for filter in [
            "calls BETWEEN 1 AND 3 AND calls BETWEEN 5 AND 7",
            "queue IN ('A') AND calls > 0 AND queue IN ('B')",
            "duration BETWEEN 9 AND 1",
        ] {
            let ks = kernels(&t, filter);
            assert!(
                matches!(&ks[..], [k] if k.never_matches()),
                "one kernel stands for `{filter}`"
            );
            let q = parse_select(&format!(
                "SELECT COUNT(*), MAX(calls) FROM cs WHERE {filter}"
            ))
            .unwrap();
            let plan = crate::plan::prepare(&q, t.clone()).unwrap();
            let (rows, stats, _) = run_morsels(&plan, 1, DeltaScan::Off);
            assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]], "{filter}");
            assert_eq!(
                (stats.rows_scanned, stats.morsels_pruned),
                (0, 1),
                "{filter}"
            );
        }
    }

    #[test]
    fn run_morsels_agrees_with_row_path_on_typed_aggregate() {
        let t = Arc::new(table());
        let q = parse_select(
            "SELECT queue, COUNT(*), SUM(calls), MIN(calls), MAX(duration), AVG(calls) \
             FROM cs WHERE calls >= 1 GROUP BY queue",
        )
        .unwrap();
        let plan = crate::plan::prepare(&q, t).unwrap();
        let (batch_rows, batch_stats, _) = run_morsels(&plan, 1, DeltaScan::Off);
        let (row_rows, row_stats) = crate::exec::run_row(&plan);
        let mut a = batch_rows;
        let mut b = row_rows;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(batch_stats.rows_matched, row_stats.rows_matched);
    }

    #[test]
    fn run_morsels_parallel_matches_sequential() {
        let t = Arc::new(table());
        let q = parse_select(
            "SELECT queue, COUNT(*), SUM(calls) FROM cs WHERE calls >= 1 GROUP BY queue",
        )
        .unwrap();
        let plan = crate::plan::prepare(&q, t).unwrap();
        let (seq, _, _) = run_morsels(&plan, 1, DeltaScan::Off);
        let (par, _, _) = run_morsels(&plan, 4, DeltaScan::Off);
        assert_eq!(seq, par);
    }

    #[test]
    fn global_typed_aggregate_over_empty_selection_emits_one_row() {
        let t = Arc::new(table());
        let q = parse_select("SELECT COUNT(*), SUM(calls) FROM cs WHERE calls > 999").unwrap();
        let plan = crate::plan::prepare(&q, t).unwrap();
        let (rows, stats, _) = run_morsels(&plan, 1, DeltaScan::Off);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
        assert!(rows[0][1].is_null());
        assert_eq!(
            stats.morsels_pruned, 1,
            "the column's bounds rule out the only morsel"
        );
        assert_eq!(stats.rows_scanned, 0, "no row is read");
    }

    #[test]
    fn split_ranges_covers_everything_without_overlap() {
        for (n, parts) in [(10, 3), (1, 4), (0, 2), (7, 7), (8, 2)] {
            let ranges = split_ranges(n, parts);
            let mut covered = 0;
            let mut expect_start = 0;
            for r in &ranges {
                assert_eq!(r.start, expect_start);
                expect_start = r.end;
                covered += r.len();
            }
            assert_eq!(covered, n, "n={n} parts={parts}");
        }
    }
}
