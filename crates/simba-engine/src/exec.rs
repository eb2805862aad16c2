//! Execution helpers shared by the two engines: filter kernels, group
//! emission, ordering/limit finalization, and execution statistics.
//!
//! Sharing the *semantics* here is what lets the engines disagree only in
//! latency, never in results — the property the benchmark's comparative
//! claims rest on.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::agg::{Accumulator, AggSpec};
use crate::error::EngineError;
use crate::eval::{eval, eval_predicate, CExpr, RowSlice, TableRow};
use crate::plan::{column_index, compile_row_expr, prepare_row, PreparedQuery, QueryKind};
use simba_sql::{BinOp, Expr, Literal, Select};
use simba_store::zonemap::{float_key, Zone, ZoneMaps};
use simba_store::{ColumnData, ResultBuilder, ResultSet, Schema, Table, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

/// Per-query execution statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExecStats {
    /// Rows actually scanned from base storage. A filter the kernel
    /// compiler proves cannot match reads none (vectorized scans only).
    pub rows_scanned: usize,
    /// Rows surviving the WHERE clause.
    pub rows_matched: usize,
    /// Groups produced (aggregate queries only).
    pub groups: usize,
    /// Morsels skipped without reading a row: every morsel of the table
    /// when the compiled filter cannot match, otherwise none (vectorized
    /// scans only).
    pub morsels_pruned: usize,
    /// 1 when this execution was seeded from a session-delta selection
    /// instead of rescanning the table (session-delta execution only).
    #[serde(default)]
    pub delta_hits: usize,
    /// 1 when a cached group table was reused outright, skipping the
    /// scan *and* the aggregation (session-delta execution only).
    #[serde(default)]
    pub delta_group_hits: usize,
    /// Rows the delta seed spared from scanning: table rows minus the
    /// candidate rows the seeded scan examined.
    #[serde(default)]
    pub delta_rows_saved: usize,
}

/// The result of [`crate::Dbms::execute`]: the result set plus timing/stats.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub result: ResultSet,
    pub stats: ExecStats,
    /// Wall-clock execution latency, measured around plan + execute.
    pub elapsed: Duration,
}

/// A filter kernel: either a typed fast path over raw column data or a
/// generic fallback through the shared evaluator. Conjunct-wise filtering is
/// equivalent to whole-predicate three-valued filtering because a row passes
/// a conjunction iff every conjunct evaluates to TRUE.
#[derive(Debug, Clone)]
pub enum Kernel {
    /// A non-NULL value of an Int or Float column inside (`negated`:
    /// outside) the closed interval `[lo, hi]` of ordered keys: the value
    /// itself for an Int column, [`float_key`] of it for a Float column —
    /// `sql_cmp`'s order on both. Every `col <op> number` and
    /// `col [NOT] BETWEEN number AND number` compiles to one; `lo > hi` is
    /// the empty interval.
    Range {
        col: usize,
        lo: i64,
        hi: i64,
        negated: bool,
    },
    /// `col [NOT] IN (set)` over a dictionary-encoded string column,
    /// pre-resolved to a mask over dictionary codes. A mask that admits no
    /// code is stored empty.
    DictIn { col: usize, mask: Vec<bool> },
    /// Anything else: evaluated through the shared interpreter.
    Generic(CExpr),
}

impl Kernel {
    /// Does `row` pass this kernel?
    #[inline]
    pub fn matches(&self, table: &Table, row: usize) -> bool {
        match self {
            Kernel::Range {
                col,
                lo,
                hi,
                negated,
            } => {
                let c = table.column(*col);
                if c.is_null(row) {
                    return false;
                }
                let key = match c {
                    ColumnData::Int { data, .. } => data.get(row),
                    ColumnData::Float { data, .. } => float_key(data[row]),
                    _ => return false,
                };
                (*lo <= key && key <= *hi) != *negated
            }
            Kernel::DictIn { col, mask } => {
                let c = table.column(*col);
                match c.code(row) {
                    Some(code) => mask.get(code as usize).copied().unwrap_or(false),
                    None => false,
                }
            }
            Kernel::Generic(expr) => eval_predicate(expr, &TableRow { table, row }) == Some(true),
        }
    }

    /// True when no row of any table can pass: an empty interval or a mask
    /// that admits no code. A filter holding such a kernel is contradictory.
    pub fn never_matches(&self) -> bool {
        match self {
            Kernel::Range {
                lo, hi, negated, ..
            } => !negated && lo > hi,
            Kernel::DictIn { mask, .. } => mask.is_empty(),
            Kernel::Generic(_) => false,
        }
    }
}

/// Compile a WHERE clause for `table`, once, at plan time: every conjunct
/// to a kernel (typed where its shape allows), folded into an earlier
/// kernel of its column where it can be — interval ∩ interval, mask ∧
/// mask, anything else kept beside them — so a scan runs at most one typed
/// kernel per column. Each interval is checked against its column's bounds
/// as it tightens, and one no valid row can pass becomes the empty
/// interval. A kernel that [never matches](Kernel::never_matches) makes the
/// filter contradictory and is returned alone: the scan then reads no row,
/// and the conjuncts after it build nothing — they are only checked for
/// the error compiling them would raise, so a WHERE fails here exactly
/// where [`compile_row_expr`] fails on it. Kernels run in WHERE order (of
/// their first conjunct).
pub fn compile_where(filter: &Expr, table: &Table) -> Result<Vec<Kernel>, EngineError> {
    let bounds = table.zone_maps();
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut conjuncts = filter.conjuncts().into_iter();
    while let Some(conjunct) = conjuncts.next() {
        let kernel = conjunct_kernel(conjunct, table)?;
        let at = match kernels.iter_mut().position(|k| k.absorb(&kernel)) {
            Some(at) => at,
            None => {
                kernels.push(kernel);
                kernels.len() - 1
            }
        };
        kernels[at].settle(bounds);
        if kernels[at].never_matches() {
            for rest in conjuncts {
                check_conjunct(rest, table.schema())?;
            }
            return Ok(vec![kernels.swap_remove(at)]);
        }
    }
    Ok(kernels)
}

/// One conjunct's kernel: typed when its shape and its column's type allow
/// one, else the conjunct compiled for the shared interpreter.
fn conjunct_kernel(conjunct: &Expr, table: &Table) -> Result<Kernel, EngineError> {
    if let Some((name, shape)) = Typed::of(conjunct) {
        let col = column_index(name, table.schema())?;
        if let Some(kernel) = shape.kernel(col, table.column(col)) {
            return Ok(kernel);
        }
    }
    compile_row_expr(conjunct, table.schema()).map(Kernel::Generic)
}

/// The error [`conjunct_kernel`] would raise on `conjunct`, building
/// nothing for a typed shape: a typed shape can only name an unknown
/// column.
fn check_conjunct(conjunct: &Expr, schema: &Schema) -> Result<(), EngineError> {
    match Typed::of(conjunct) {
        Some((name, _)) => column_index(name, schema).map(drop),
        None => compile_row_expr(conjunct, schema).map(drop),
    }
}

/// A conjunct's shape in the typed set: a column, as written on the left,
/// against literals. Anything else — a literal on the left (`5 < calls`),
/// an expression for a bound, a non-literal `IN` item — is outside it.
enum Typed<'a> {
    /// `col <op> lit`.
    Compare(BinOp, &'a Literal),
    /// `col [NOT] BETWEEN lit AND lit`.
    Between(&'a Literal, &'a Literal, bool),
    /// `col [NOT] IN (lit, …)`.
    In(&'a [Expr], bool),
}

impl<'a> Typed<'a> {
    /// The column `e` tests and its shape, when `e` is in the typed set.
    fn of(e: &'a Expr) -> Option<(&'a str, Typed<'a>)> {
        let (col, shape) = match e {
            Expr::Binary { left, op, right } if op.is_comparison() => match right.as_ref() {
                Expr::Literal(lit) => (left, Typed::Compare(*op, lit)),
                _ => return None,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => match (low.as_ref(), high.as_ref()) {
                (Expr::Literal(low), Expr::Literal(high)) => {
                    (expr, Typed::Between(low, high, *negated))
                }
                _ => return None,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } if list.iter().all(|item| matches!(item, Expr::Literal(_))) => {
                (expr, Typed::In(list, *negated))
            }
            _ => return None,
        };
        match col.as_ref() {
            Expr::Column(name) => Some((name, shape)),
            _ => None,
        }
    }

    /// The typed kernel for this shape on column `col`, or `None` when the
    /// column's type and the literals leave it to the interpreter.
    fn kernel(&self, col: usize, column: &ColumnData) -> Option<Kernel> {
        match *self {
            Typed::Compare(op, lit) => compare_kernel(col, column, op, lit),
            Typed::Between(low, high, negated) => {
                let (low, high) = (Cut::of(column, low)?, Cut::of(column, high)?);
                Some(range_kernel(col, low.ge, high.gt - 1, negated))
            }
            Typed::In(list, negated) => matches!(column, ColumnData::Str { .. }).then(|| {
                let strings = list.iter().filter_map(|item| match item {
                    Expr::Literal(Literal::Str(s)) => Some(s.as_str()),
                    _ => None,
                });
                dict_in_kernel(col, column, strings, negated)
            }),
        }
    }
}

impl Kernel {
    /// Turn a `Range` that no valid key of its column can pass into the
    /// empty interval: its interval misses the column's `[min, max]`, its
    /// hole covers it, or the column holds no valid row.
    fn settle(&mut self, bounds: &ZoneMaps) {
        if let Kernel::Range {
            col,
            lo,
            hi,
            negated,
        } = *self
        {
            let passable = match bounds.column(col).and_then(Zone::key_range) {
                None => false,
                Some((min, max)) if negated => min < lo || hi < max,
                Some((min, max)) => lo <= max && min <= hi,
            };
            if !passable {
                *self = Kernel::Range {
                    col,
                    lo: i64::MAX,
                    hi: i64::MIN,
                    negated: false,
                };
            }
        }
    }

    /// Tighten `self` to `self AND other` when both are the same typed
    /// kind on one column; `false` (and no change) otherwise. Negated
    /// intervals have a hole in the middle and stay separate.
    fn absorb(&mut self, other: &Kernel) -> bool {
        match (self, other) {
            (
                Kernel::Range {
                    col,
                    lo,
                    hi,
                    negated: false,
                },
                Kernel::Range {
                    col: other_col,
                    lo: other_lo,
                    hi: other_hi,
                    negated: false,
                },
            ) if col == other_col => {
                *lo = (*lo).max(*other_lo);
                *hi = (*hi).min(*other_hi);
                true
            }
            (
                Kernel::DictIn { col, mask },
                Kernel::DictIn {
                    col: other_col,
                    mask: other_mask,
                },
            ) if col == other_col => {
                // Both masks span the column's dictionary unless one is
                // already the empty "admits nothing" form.
                if other_mask.is_empty() {
                    mask.clear();
                }
                for (m, o) in mask.iter_mut().zip(other_mask) {
                    *m &= *o;
                }
                if !mask.contains(&true) {
                    mask.clear();
                }
                true
            }
            _ => false,
        }
    }
}

/// `col <op> lit` as a typed kernel, when the column and literal allow one.
/// On a dictionary column `=` is `IN (lit)` and `<>` is `NOT IN (lit)`.
fn compare_kernel(col: usize, column: &ColumnData, op: BinOp, lit: &Literal) -> Option<Kernel> {
    if let (ColumnData::Str { .. }, Literal::Str(s), BinOp::Eq | BinOp::NotEq) = (column, lit, op) {
        return Some(dict_in_kernel(
            col,
            column,
            std::iter::once(s.as_str()),
            op == BinOp::NotEq,
        ));
    }
    let cut = Cut::of(column, lit)?;
    let (min, max) = (i128::from(i64::MIN), i128::from(i64::MAX));
    let (lo, hi) = match op {
        BinOp::Eq | BinOp::NotEq => (cut.ge, cut.gt - 1),
        BinOp::Lt => (min, cut.ge - 1),
        BinOp::LtEq => (min, cut.gt - 1),
        BinOp::Gt => (cut.gt, max),
        BinOp::GtEq => (cut.ge, max),
        _ => return None,
    };
    Some(range_kernel(col, lo, hi, op == BinOp::NotEq))
}

/// Where a numeric literal falls among a column's ordered keys: the first
/// key that compares `>=` to it and the first that compares `>`, under
/// `sql_cmp` (for equality `sql_eq`, which agrees on numbers). Either is one
/// past `i64::MAX` when no key does, hence `i128`.
///
/// A Float literal on an Int column is placed in closed form when it is
/// finite and below 2^53 in magnitude; a bisection over `i64` places the
/// rest (see [`Cut::int_column`]).
#[derive(Debug, PartialEq, Eq)]
struct Cut {
    ge: i128,
    gt: i128,
}

/// 2^53: every integer of smaller magnitude is exactly an `f64`.
const EXACT_INT_F64: f64 = 9_007_199_254_740_992.0;

impl Cut {
    /// `None` unless the column is Int or Float and the literal a number —
    /// other pairs are outside the typed set.
    fn of(column: &ColumnData, lit: &Literal) -> Option<Cut> {
        match (column, lit) {
            (ColumnData::Int { .. }, Literal::Int(v)) => Some(Cut {
                ge: i128::from(*v),
                gt: i128::from(*v) + 1,
            }),
            (ColumnData::Int { .. }, Literal::Float(f)) => Some(Cut::int_column(*f)),
            (ColumnData::Float { .. }, Literal::Int(_) | Literal::Float(_)) => {
                let key = i128::from(float_key(lit.as_f64()?));
                Some(Cut {
                    ge: key,
                    gt: key + 1,
                })
            }
            _ => None,
        }
    }

    /// `f` among an Int column's keys, which compare to it as
    /// `(v as f64).total_cmp(f)`. Below 2^53 every `v` near `f` converts
    /// exactly, so the cut is `f` rounded: `ge = ceil(f)`, `gt = floor(f) +
    /// 1` — except that `0 as f64` is `+0.0`, which `total_cmp` orders above
    /// `-0.0`, so `-0.0` has `gt = 0`. Where the conversion rounds (|f| ≥
    /// 2^53, ±inf, NaN) many `v` share one `f64`; it never reorders, so each
    /// outcome still holds on an upper set of `v` whose start a bisection
    /// finds exactly.
    fn int_column(f: f64) -> Cut {
        // False for NaN and ±inf.
        if f.abs() < EXACT_INT_F64 {
            let gt = if f == 0.0 && f.is_sign_negative() {
                0
            } else {
                f.floor() as i128 + 1
            };
            return Cut {
                ge: f.ceil() as i128,
                gt,
            };
        }
        Cut::bisected(f)
    }

    /// [`Cut::int_column`] by bisection, for any `f`. The bisection is
    /// nested here so that nothing else can reach it: the closed form
    /// cannot fall back to it by accident.
    fn bisected(f: f64) -> Cut {
        /// The first `i64` for which a monotone (false… then true…)
        /// predicate holds, or `i64::MAX + 1` when it never does.
        fn first_int(holds: impl Fn(i64) -> bool) -> i128 {
            let (mut lo, mut hi) = (i128::from(i64::MIN), i128::from(i64::MAX) + 1);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if holds(mid as i64) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        }

        Cut {
            ge: first_int(|v| (v as f64).total_cmp(&f) != Ordering::Less),
            gt: first_int(|v| (v as f64).total_cmp(&f) == Ordering::Greater),
        }
    }
}

fn range_kernel(col: usize, lo: i128, hi: i128, negated: bool) -> Kernel {
    // A bound one past either end of `i64` only arises in an empty interval.
    let (lo, hi) = match (i64::try_from(lo), i64::try_from(hi)) {
        (Ok(lo), Ok(hi)) => (lo, hi),
        _ => (i64::MAX, i64::MIN),
    };
    Kernel::Range {
        col,
        lo,
        hi,
        negated,
    }
}

/// `col [NOT] IN (wanted)` over a dictionary column, `wanted` its string
/// literals: only a string literal can equal a dictionary entry.
fn dict_in_kernel<'a>(
    col: usize,
    column: &ColumnData,
    wanted: impl Iterator<Item = &'a str> + Clone,
    negated: bool,
) -> Kernel {
    #[expect(
        clippy::expect_used,
        reason = "kernel selection only routes dictionary-encoded string columns here; a bare column is a planner bug"
    )]
    let dict = column.dictionary().expect("string column has a dictionary");
    let mut mask: Vec<bool> = dict
        .iter()
        .map(|s| wanted.clone().any(|w| w == &**s) != negated)
        .collect();
    if !mask.contains(&true) {
        mask.clear();
    }
    Kernel::DictIn { col, mask }
}

/// Emit output rows for [`run_row`]'s groups from their accumulators: each
/// group's `[keys…, finalized aggregates…]` row, filtered by the group-level
/// HAVING predicate and projected.
pub fn emit_groups(
    projections: &[CExpr],
    having: Option<&CExpr>,
    groups: impl IntoIterator<Item = (Vec<Value>, Vec<Accumulator>)>,
) -> ResultBuilder {
    let mut out = ResultBuilder::new(projections.len());
    for (mut group, accs) in groups {
        group.extend(accs.iter().map(Accumulator::finalize));
        let ctx = RowSlice(&group);
        if let Some(h) = having {
            if eval_predicate(h, &ctx) != Some(true) {
                continue;
            }
        }
        out.push_row(projections.iter().map(|p| eval(p, &ctx)));
    }
    out
}

/// The query's result from its emitted rows: a permutation of the rows is
/// sorted by the trailing sort-key columns (one per entry of `order_dirs`,
/// `true` ascending), the rows are gathered in that order without the
/// sort keys, and LIMIT keeps the first ones. Rows that tie keep their
/// emission order.
pub fn finalize_rows(
    rows: ResultBuilder,
    names: Vec<String>,
    order_dirs: &[bool],
    limit: Option<usize>,
) -> ResultSet {
    let n_output = names.len();
    let n = rows.n_rows();
    let keep = limit.map_or(n, |l| l.min(n));
    if order_dirs.is_empty() {
        if keep == n {
            return rows.finish(names);
        }
        let first: Vec<usize> = (0..keep).collect();
        return rows.finish_rows(names, &first);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        for (k, asc) in order_dirs.iter().enumerate() {
            let ord = rows.cmp_cells(n_output + k, a, b);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    order.truncate(keep);
    rows.finish_rows(names, &order)
}

/// The row-at-a-time reference path: fully materialize each row, interpret
/// the filter per row, and group through an ordered map. This is both the
/// `sqlite-like` engine's personality and the oracle the vectorized path is
/// property-tested against.
pub fn run_row(plan: &PreparedQuery<CExpr>) -> (ResultBuilder, ExecStats) {
    let table = &plan.table;
    let n = table.row_count();
    let mut stats = ExecStats {
        rows_scanned: n,
        ..ExecStats::default()
    };
    let mut buf: Vec<Value> = Vec::with_capacity(table.schema().width());

    match &plan.kind {
        QueryKind::Project { exprs } => {
            let mut rows = ResultBuilder::new(exprs.len());
            for i in 0..n {
                table.read_row_into(i, &mut buf);
                let ctx = RowSlice(&buf);
                if let Some(f) = &plan.filter {
                    if eval_predicate(f, &ctx) != Some(true) {
                        continue;
                    }
                }
                stats.rows_matched += 1;
                rows.push_row(exprs.iter().map(|e| eval(e, &ctx)));
            }
            (rows, stats)
        }
        QueryKind::Aggregate {
            keys,
            aggs,
            projections,
            having,
        } => {
            let mut groups: BTreeMap<Vec<Value>, Vec<Accumulator>> = BTreeMap::new();
            if keys.is_empty() {
                // A global aggregate emits one row even over zero input.
                groups.insert(Vec::new(), new_group(aggs));
            }
            for i in 0..n {
                table.read_row_into(i, &mut buf);
                let ctx = RowSlice(&buf);
                if let Some(f) = &plan.filter {
                    if eval_predicate(f, &ctx) != Some(true) {
                        continue;
                    }
                }
                stats.rows_matched += 1;
                let key: Vec<Value> = keys.iter().map(|k| eval(k, &ctx)).collect();
                let accs = groups.entry(key).or_insert_with(|| new_group(aggs));
                for (acc, spec) in accs.iter_mut().zip(aggs) {
                    match &spec.arg {
                        None => acc.update_star(),
                        Some(arg) => acc.update_value(eval(arg, &ctx)),
                    }
                }
            }
            stats.groups = groups.len();
            let rows = emit_groups(projections, having.as_ref(), groups);
            (rows, stats)
        }
    }
}

/// Plan and execute `query` through the row-at-a-time oracle, producing the
/// same [`QueryOutput`] shape as `Dbms::execute`. Benchmarks and equivalence
/// tests use this as the reference implementation.
pub fn execute_row_oracle(table: Arc<Table>, query: &Select) -> Result<QueryOutput, EngineError> {
    #[expect(
        clippy::disallowed_methods,
        reason = "latency parity with Dbms::execute — `elapsed` is the measured deliverable, never result content"
    )]
    let start = Instant::now();
    let plan = prepare_row(query, table)?;
    let (rows, stats) = run_row(&plan);
    Ok(QueryOutput {
        result: finalize_rows(
            rows,
            plan.output_names.clone(),
            &plan.order_dirs,
            plan.limit,
        ),
        stats,
        elapsed: start.elapsed(),
    })
}

/// Fresh accumulator row for a group.
pub fn new_group(aggs: &[AggSpec]) -> Vec<Accumulator> {
    aggs.iter().map(AggSpec::accumulator).collect()
}

/// Shared registry of tables, keyed by lowercase name. Reads take a shared
/// lock only, so concurrent `execute` calls across driver worker threads
/// never serialize on the catalog.
///
/// Every `register` — first registration, re-registration, or the publish
/// step of a `TableAssembler` append (appended data becomes visible only
/// through `register`) — bumps a monotone generation counter. Work retained
/// across queries (the session-delta store) stamps the generation it
/// observed and is invalidated by any mismatch, so stale selections can
/// never be served against changed table state.
#[derive(Default)]
pub struct Catalog {
    tables: std::sync::RwLock<std::collections::HashMap<String, Arc<Table>>>,
    generation: std::sync::atomic::AtomicU64,
}

impl Catalog {
    // The catalog recovers poisoned locks instead of panicking: its map
    // only sees whole-entry insert/read, so a panic elsewhere while a
    // guard was held cannot leave it structurally broken — and a poisoned
    // catalog must not take down every worker that plans a query.
    pub fn register(&self, table: Arc<Table>) {
        self.tables
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(table.name().to_ascii_lowercase(), table);
        // The counter is the *coarse* staleness signal consumers poll to
        // drop retained work eagerly; it is not the reuse-time guard. A
        // register racing a generation read can always slip between the
        // publish and the bump (or vice versa), so reuse additionally
        // requires `Arc::ptr_eq` between the snapshot a delta entry was
        // captured against and the table the new plan resolved — tables
        // are immutable once built, so pointer identity is airtight.
        self.generation
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }

    /// Current registration generation: incremented by every [`register`](Self::register)
    /// (including re-registers and append publishes). Retained-work caches
    /// compare stamped generations against this to detect staleness.
    pub fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::SeqCst)
    }

    pub fn get(&self, name: &str) -> Option<Arc<Table>> {
        self.tables
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&name.to_ascii_lowercase())
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::qnx_table;
    use simba_store::{ColumnDef, TableBuilder};

    fn table() -> Arc<Table> {
        qnx_table(&[
            (Some("A"), Some(1), Some(0.5)),
            (Some("B"), Some(5), Some(1.5)),
            (Some("A"), Some(9), Some(2.5)),
            (None, None, None),
        ])
    }

    /// Column `i` of [`table`]: `q`, `n` or `x`.
    fn col(i: usize) -> Expr {
        Expr::col(["q", "n", "x"][i])
    }

    fn lit(l: Expr, op: BinOp, v: Literal) -> Expr {
        Expr::binary(l, op, Expr::Literal(v))
    }

    fn between(col_index: usize, low: Literal, high: Literal, negated: bool) -> Expr {
        Expr::Between {
            expr: Box::new(col(col_index)),
            low: Box::new(Expr::Literal(low)),
            high: Box::new(Expr::Literal(high)),
            negated,
        }
    }

    fn and(l: Expr, r: Expr) -> Expr {
        l.and(r)
    }

    fn compiled(filter: &Expr, t: &Table) -> Vec<Kernel> {
        compile_where(filter, t).unwrap()
    }

    /// Rows of `t` the compiled filter keeps, beside the interpreter's.
    fn kept(filter: &Expr, t: &Table) -> (Vec<usize>, Vec<usize>) {
        let kernels = compiled(filter, t);
        let interpreted = compile_row_expr(filter, t.schema()).unwrap();
        let rows = 0..t.row_count();
        (
            rows.clone()
                .filter(|&r| kernels.iter().all(|k| k.matches(t, r)))
                .collect(),
            rows.filter(|&r| {
                eval_predicate(&interpreted, &TableRow { table: t, row: r }) == Some(true)
            })
            .collect(),
        )
    }

    #[test]
    fn comparison_compiles_to_a_range_over_typed_rows() {
        let t = table();
        let filter = lit(col(1), BinOp::Gt, Literal::Int(2));
        let kernels = compiled(&filter, &t);
        assert!(matches!(
            kernels[..],
            [Kernel::Range {
                col: 1,
                lo: 3,
                hi: i64::MAX,
                negated: false
            }]
        ));
        let k = &kernels[0];
        assert!(!k.matches(&t, 0));
        assert!(k.matches(&t, 1));
        assert!(k.matches(&t, 2));
        assert!(!k.matches(&t, 3), "NULL never matches");
    }

    #[test]
    fn between_compiles_to_a_range_on_int_and_float_columns() {
        let t = table();
        for (filter, want) in [
            (
                between(1, Literal::Int(1), Literal::Float(5.5), false),
                vec![0, 1],
            ),
            (
                between(1, Literal::Float(1.5), Literal::Int(9), true),
                vec![0],
            ),
            (
                between(2, Literal::Int(1), Literal::Float(2.5), false),
                vec![1, 2],
            ),
            (
                between(2, Literal::Float(2.5), Literal::Float(0.5), false),
                vec![],
            ),
            (
                between(2, Literal::Float(2.5), Literal::Float(0.5), true),
                vec![0, 1, 2],
            ),
        ] {
            let kernels = compiled(&filter, &t);
            assert!(matches!(kernels[..], [Kernel::Range { .. }]), "{filter:?}");
            let (typed, interpreted) = kept(&filter, &t);
            assert_eq!(typed, want, "{filter:?}");
            assert_eq!(typed, interpreted, "{filter:?}");
        }
    }

    #[test]
    fn float_bounds_on_an_int_column_cut_exactly_past_2_pow_53() {
        // 2^53 + 1 is not an f64: as one it is 2^53, so `= 2^53.0` admits
        // both and `> 2^53.0` admits neither.
        const P: i64 = 1 << 53;
        let schema = Schema::new("t", vec![ColumnDef::quantitative_int("n")]);
        let mut b = TableBuilder::new(schema, 4);
        for v in [P - 1, P, P + 1, P + 2] {
            b.push_row(vec![Value::Int(v)]);
        }
        let t = b.finish();
        for (op, rhs) in [
            (BinOp::Eq, Literal::Float(P as f64)),
            (BinOp::Gt, Literal::Float(P as f64)),
            (BinOp::LtEq, Literal::Float(P as f64)),
            (BinOp::NotEq, Literal::Float(P as f64)),
            (BinOp::Gt, Literal::Int(P)),
            (BinOp::Lt, Literal::Float(f64::NAN)),
            (BinOp::Gt, Literal::Float(f64::INFINITY)),
            (BinOp::GtEq, Literal::Float(-0.0)),
            (BinOp::Lt, Literal::Int(i64::MIN)),
        ] {
            let filter = lit(Expr::col("n"), op, rhs);
            assert!(matches!(compiled(&filter, &t)[..], [Kernel::Range { .. }]));
            let (typed, interpreted) = kept(&filter, &t);
            assert_eq!(typed, interpreted, "{filter:?}");
        }
    }

    #[test]
    fn one_kernel_per_column_and_contradictions_collapse() {
        let t = table();
        // Three conjuncts on `n`, two on `q`: one interval, one mask.
        let filter = and(
            and(
                lit(col(1), BinOp::GtEq, Literal::Int(1)),
                dict_in_expr(&["A", "B"], false),
            ),
            and(
                between(1, Literal::Int(0), Literal::Float(9.0), false),
                and(
                    lit(col(1), BinOp::Lt, Literal::Int(10)),
                    dict_in_expr(&["B"], true),
                ),
            ),
        );
        let kernels = compiled(&filter, &t);
        assert_eq!(kernels.len(), 2);
        assert!(kernels.iter().any(|k| matches!(
            k,
            Kernel::Range {
                col: 1,
                lo: 1,
                hi: 9,
                negated: false
            }
        )));
        let (typed, interpreted) = kept(&filter, &t);
        assert_eq!(typed, vec![0, 2]);
        assert_eq!(typed, interpreted);

        // Disjoint intervals, and disjoint sets, leave one kernel that
        // never matches, whatever else the filter holds.
        for contradiction in [
            and(
                between(1, Literal::Int(1), Literal::Int(3), false),
                between(1, Literal::Int(5), Literal::Int(9), false),
            ),
            and(dict_in_expr(&["A"], false), dict_in_expr(&["B"], false)),
            and(dict_in_expr(&["A", "B"], true), dict_in_expr(&["A"], false)),
        ] {
            let filter = and(lit(col(2), BinOp::Gt, Literal::Float(0.0)), contradiction);
            let kernels = compiled(&filter, &t);
            assert!(
                matches!(&kernels[..], [k] if k.never_matches()),
                "{filter:?}"
            );
            assert_eq!(kept(&filter, &t), (vec![], vec![]));
        }

        // A hole is not an interval: NOT BETWEEN and `<>` stay beside it.
        let filter = and(
            between(1, Literal::Int(0), Literal::Int(9), false),
            and(
                between(1, Literal::Int(4), Literal::Int(6), true),
                lit(col(1), BinOp::NotEq, Literal::Int(9)),
            ),
        );
        assert_eq!(compiled(&filter, &t).len(), 3);
        let (typed, interpreted) = kept(&filter, &t);
        assert_eq!(typed, vec![0]);
        assert_eq!(typed, interpreted);
    }

    /// A Float literal on an Int column: the closed-form cut equals the
    /// bisection's on over a million sampled literals below 2^53 (random bit
    /// patterns, random reals in ±1e6, quarter-integers) and on the edges
    /// where rounding or the sign of zero could split them. From 2^53 on, at
    /// ±inf and at NaN the bisection answers.
    #[test]
    fn closed_form_int_cut_equals_the_bisection() {
        use simba_store::mix::splitmix64;
        let check = |f: f64| {
            assert!(f.abs() < EXACT_INT_F64, "{f:e}");
            assert_eq!(
                Cut::int_column(f),
                Cut::bisected(f),
                "{f:e} ({:#018x})",
                f.to_bits()
            );
        };

        let mut edges = Vec::new();
        for e in [
            0.0,
            f64::MIN_POSITIVE,
            5e-324,
            EXACT_INT_F64 - 1.0,
            4_503_599_627_370_495.5,
        ] {
            for f in [e, -e] {
                edges.extend([f.next_down(), f, f.next_up()]);
            }
        }
        // Zero's neighbours are ±5e-324; 2^53 - 1's upper one is 2^53.
        edges.retain(|f| f.abs() < EXACT_INT_F64);
        for &f in &edges {
            check(f);
        }
        assert_eq!(Cut::int_column(-0.0), Cut { ge: 0, gt: 0 });
        assert_eq!(Cut::int_column(0.0), Cut { ge: 0, gt: 1 });

        let mut draw = {
            let mut state = 0x5EED_0C07_u64;
            move || {
                state = splitmix64(state);
                state
            }
        };
        let mut samples = 0;
        while samples < 400_000 {
            let f = f64::from_bits(draw());
            if f.abs() < EXACT_INT_F64 {
                check(f);
                samples += 1;
            }
        }
        for _ in 0..400_000 {
            // 53 random bits scaled onto [-1e6, 1e6).
            let unit = (draw() >> 11) as f64 / (1u64 << 53) as f64;
            check((unit * 2.0 - 1.0) * 1e6);
            samples += 1;
        }
        for _ in 0..250_000 {
            // k / 4 for k in ±2^40: integers, halves and quarters.
            let k = (draw() >> 23) as i64 - (1 << 40);
            check(k as f64 / 4.0);
            samples += 1;
        }
        assert!(samples >= 1_000_000);

        // Where `i64 → f64` rounds, the bisection is the answer: 2^53 + 1
        // rounds to 2^53, so the first key above 2^53 is 2^53 + 2.
        let two53 = 1i128 << 53;
        assert_eq!(
            Cut::int_column(EXACT_INT_F64),
            Cut {
                ge: two53,
                gt: two53 + 2
            }
        );
        let past = i128::from(i64::MAX) + 1;
        let min = i128::from(i64::MIN);
        for (f, want) in [
            (f64::INFINITY, Cut { ge: past, gt: past }),
            (f64::NEG_INFINITY, Cut { ge: min, gt: min }),
            (f64::NAN, Cut { ge: past, gt: past }),
            (-f64::NAN, Cut { ge: min, gt: min }),
        ] {
            assert_eq!(Cut::int_column(f), want, "{f}");
        }
        for f in [
            EXACT_INT_F64.next_down(),
            EXACT_INT_F64,
            EXACT_INT_F64.next_up(),
            -EXACT_INT_F64.next_down(),
            -EXACT_INT_F64,
            -EXACT_INT_F64.next_up(),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            assert_eq!(Cut::int_column(f), Cut::bisected(f), "{f:e}");
        }
    }

    fn dict_in_expr(values: &[&str], negated: bool) -> Expr {
        Expr::InList {
            expr: Box::new(col(0)),
            list: values.iter().map(|&v| Expr::str(v)).collect(),
            negated,
        }
    }

    #[test]
    fn dict_in_kernel_with_negation() {
        let t = table();
        let k = dict_in_kernel(0, t.column(0), std::iter::once("A"), false);
        assert!(k.matches(&t, 0));
        assert!(!k.matches(&t, 1));
        assert!(!k.matches(&t, 3), "NULL never matches IN");
        let nk = dict_in_kernel(0, t.column(0), std::iter::once("A"), true);
        assert!(!nk.matches(&t, 0));
        assert!(nk.matches(&t, 1));
        assert!(!nk.matches(&t, 3), "NULL never matches NOT IN");
    }

    /// `<>` on a dictionary column is a negated mask: NULL rows fail it, a
    /// literal the dictionary lacks admits every valid row, and it folds
    /// with an `IN` on the same column into one kernel.
    #[test]
    fn not_equal_on_a_dictionary_column_is_a_negated_mask() {
        let t = table();
        let ne = |s: &str| lit(col(0), BinOp::NotEq, Literal::Str(s.into()));
        for (filter, want) in [
            (ne("A"), vec![1]),
            (ne("Z"), vec![0, 1, 2]),
            (and(ne("B"), dict_in_expr(&["A", "B"], false)), vec![0, 2]),
        ] {
            let kernels = compiled(&filter, &t);
            assert!(
                matches!(kernels[..], [Kernel::DictIn { col: 0, .. }]),
                "{filter:?}"
            );
            let (typed, interpreted) = kept(&filter, &t);
            assert_eq!(typed, want, "{filter:?}");
            assert_eq!(typed, interpreted, "{filter:?}");
        }
        // A number is never equal to a string: the interpreter keeps every
        // valid row, and the filter stays with it.
        let filter = lit(col(0), BinOp::NotEq, Literal::Int(1));
        assert!(matches!(compiled(&filter, &t)[..], [Kernel::Generic(_)]));
    }

    #[test]
    fn finalize_sorts_desc_and_strips_keys() {
        let mut rows = ResultBuilder::new(2);
        rows.push_row([Value::str("A"), Value::Int(1)]);
        rows.push_row([Value::str("B"), Value::Int(3)]);
        rows.push_row([Value::str("C"), Value::Int(2)]);
        let out = finalize_rows(rows, vec!["q".into()], &[false], Some(2));
        let rows: Vec<Vec<Value>> = out.rows().map(|r| r.to_vec()).collect();
        assert_eq!(rows, vec![vec![Value::str("B")], vec![Value::str("C")]]);
    }

    #[test]
    fn finalize_without_order_preserves_and_limits() {
        let mut rows = ResultBuilder::new(1);
        for v in 1..=3 {
            rows.push_row([Value::Int(v)]);
        }
        let out = finalize_rows(rows, vec!["x".into()], &[], Some(2));
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.row(0).to_vec(), vec![Value::Int(1)]);
    }

    #[test]
    fn catalog_round_trip_case_insensitive() {
        let c = Catalog::default();
        c.register(table());
        assert!(c.get("T").is_some());
        assert!(c.get("t").is_some());
        assert!(c.get("nope").is_none());
    }
}
