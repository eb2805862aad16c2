//! Execution helpers shared by the four engines: filter kernels, group
//! emission, ordering/limit finalization, and execution statistics.
//!
//! Sharing the *semantics* here is what lets the engines disagree only in
//! latency, never in results — the property the benchmark's comparative
//! claims rest on.

use crate::agg::{Accumulator, AggSpec};
use crate::error::EngineError;
use crate::eval::{eval, eval_predicate, CExpr, RowSlice, TableRow, ValueSet};
use crate::plan::{prepare, PreparedQuery, QueryKind};
use simba_sql::{BinOp, Select};
use simba_store::{ColumnData, ResultSet, Table, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

/// Per-query execution statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExecStats {
    /// Rows actually scanned from base storage (rows inside zone-map-pruned
    /// morsels are never read and are not counted).
    pub rows_scanned: usize,
    /// Rows surviving the WHERE clause.
    pub rows_matched: usize,
    /// Groups produced (aggregate queries only).
    pub groups: usize,
    /// Morsels skipped entirely by zone-map pruning (vectorized scans only).
    pub morsels_pruned: usize,
    /// 1 when this execution was seeded from a session-delta selection
    /// instead of rescanning the table (session-delta execution only).
    #[serde(default)]
    pub delta_hits: usize,
    /// 1 when cached typed group states were reused outright, skipping the
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

/// Split a compiled predicate into top-level conjuncts.
pub fn cexpr_conjuncts(e: &CExpr) -> Vec<&CExpr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a CExpr, out: &mut Vec<&'a CExpr>) {
        if let CExpr::Bin {
            l,
            op: BinOp::And,
            r,
        } = e
        {
            walk(l, out);
            walk(r, out);
        } else {
            out.push(e);
        }
    }
    walk(e, &mut out);
    out
}

/// A filter kernel: either a typed fast path over raw column data or a
/// generic fallback through the shared evaluator. Conjunct-wise filtering is
/// equivalent to whole-predicate three-valued filtering because a row passes
/// a conjunction iff every conjunct evaluates to TRUE.
pub enum Kernel {
    /// `col <op> constant` over an Int column.
    IntCmp { col: usize, op: BinOp, rhs: i64 },
    /// `col <op> constant` over Int/Float columns with a float constant.
    FloatCmp { col: usize, op: BinOp, rhs: f64 },
    /// `col [NOT] IN (set)` over a dictionary-encoded string column,
    /// pre-resolved to a mask over dictionary codes.
    DictIn { col: usize, mask: Vec<bool> },
    /// Anything else: evaluated through the shared interpreter.
    Generic(CExpr),
}

impl Kernel {
    /// Does `row` pass this kernel?
    #[inline]
    pub fn matches(&self, table: &Table, row: usize) -> bool {
        match self {
            Kernel::IntCmp { col, op, rhs } => {
                let c = table.column(*col);
                if c.is_null(row) {
                    return false;
                }
                match c {
                    ColumnData::Int { data, .. } => cmp_ok(data[row].cmp(rhs), *op),
                    _ => false,
                }
            }
            Kernel::FloatCmp { col, op, rhs } => {
                let c = table.column(*col);
                if c.is_null(row) {
                    return false;
                }
                let v = match c {
                    ColumnData::Int { data, .. } => data[row] as f64,
                    ColumnData::Float { data, .. } => data[row],
                    _ => return false,
                };
                cmp_ok(v.total_cmp(rhs), *op)
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
}

#[inline]
fn cmp_ok(ord: Ordering, op: BinOp) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        // Kernels are only built for comparison operators; anything else
        // here is a planner bug and must not masquerade as an empty result.
        op => unreachable!("non-comparison BinOp {op:?} in comparison kernel"),
    }
}

/// Compile a filter into per-conjunct kernels for the given table, choosing
/// typed fast paths where the shapes allow.
pub fn compile_kernels(filter: &CExpr, table: &Table) -> Vec<Kernel> {
    cexpr_conjuncts(filter)
        .into_iter()
        .map(|c| specialize(c, table))
        .collect()
}

fn specialize(e: &CExpr, table: &Table) -> Kernel {
    match e {
        CExpr::Bin { l, op, r } if op.is_comparison() => {
            if let (Some(col), CExpr::Lit(lit)) = (l.as_col(), r.as_ref()) {
                let column = table.column(col);
                match (column, lit) {
                    (ColumnData::Int { .. }, Value::Int(v)) => {
                        return Kernel::IntCmp {
                            col,
                            op: *op,
                            rhs: *v,
                        };
                    }
                    (ColumnData::Int { .. } | ColumnData::Float { .. }, _) => {
                        if let Some(f) = lit.as_f64() {
                            return Kernel::FloatCmp {
                                col,
                                op: *op,
                                rhs: f,
                            };
                        }
                    }
                    (ColumnData::Str { .. }, Value::Str(_)) if *op == BinOp::Eq => {
                        return dict_in_kernel(col, column, std::slice::from_ref(lit), false);
                    }
                    _ => {}
                }
            }
            Kernel::Generic(e.clone())
        }
        CExpr::In {
            e: inner,
            set,
            negated,
        } => {
            if let Some(col) = inner.as_col() {
                if let ColumnData::Str { .. } = table.column(col) {
                    return dict_in_kernel(col, table.column(col), set.values(), *negated);
                }
            }
            Kernel::Generic(e.clone())
        }
        _ => Kernel::Generic(e.clone()),
    }
}

fn dict_in_kernel(col: usize, column: &ColumnData, values: &[Value], negated: bool) -> Kernel {
    // simba: allow(panic-hygiene): kernel selection only routes dictionary-encoded string columns here; a bare column is a planner bug
    let dict = column.dictionary().expect("string column has a dictionary");
    let set: ValueSet = ValueSet::new(values.to_vec());
    let mask: Vec<bool> = dict
        .iter()
        .map(|s| set.contains(&Value::Str(s.clone())) != negated)
        .collect();
    Kernel::DictIn { col, mask }
}

/// Emit output rows for an aggregate query from its per-group accumulators.
/// Applies the group-level HAVING predicate and projections.
pub fn emit_groups(
    projections: &[CExpr],
    having: Option<&CExpr>,
    groups: impl IntoIterator<Item = (Vec<Value>, Vec<Accumulator>)>,
) -> Vec<Vec<Value>> {
    emit_finalized_groups(
        projections,
        having,
        groups.into_iter().map(|(keys, accs)| {
            let finalized = accs.iter().map(Accumulator::finalize).collect();
            (keys, finalized)
        }),
    )
}

/// Like [`emit_groups`], but for group states that are already finalized to
/// values (the typed aggregation fast path produces these directly).
pub fn emit_finalized_groups(
    projections: &[CExpr],
    having: Option<&CExpr>,
    groups: impl IntoIterator<Item = (Vec<Value>, Vec<Value>)>,
) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    let mut virtual_row: Vec<Value> = Vec::new();
    for (keys, aggs) in groups {
        virtual_row.clear();
        virtual_row.extend(keys);
        virtual_row.extend(aggs);
        let ctx = RowSlice(&virtual_row);
        if let Some(h) = having {
            if eval_predicate(h, &ctx) != Some(true) {
                continue;
            }
        }
        rows.push(projections.iter().map(|p| eval(p, &ctx)).collect());
    }
    rows
}

/// Sort by trailing sort-key columns, strip them, and apply LIMIT.
pub fn finalize_rows(
    mut rows: Vec<Vec<Value>>,
    n_output: usize,
    order_dirs: &[bool],
    limit: Option<usize>,
) -> Vec<Vec<Value>> {
    if !order_dirs.is_empty() {
        rows.sort_by(|a, b| {
            for (k, asc) in order_dirs.iter().enumerate() {
                let i = n_output + k;
                let ord = a[i].cmp(&b[i]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    // Rows carry trailing sort-key columns exactly when ORDER BY is present
    // (`exprs.len() == n_output + order_dirs.len()`), so the emptiness of
    // `order_dirs` decides truncation — no per-row pre-scan needed.
    if !order_dirs.is_empty() {
        for r in &mut rows {
            r.truncate(n_output);
        }
    }
    if let Some(l) = limit {
        rows.truncate(l);
    }
    rows
}

/// The row-at-a-time reference path: fully materialize each row, interpret
/// the filter per row, and group through an ordered map. This is both the
/// `sqlite-like` engine's personality and the oracle the vectorized path is
/// property-tested against.
pub fn run_row(plan: &PreparedQuery) -> (Vec<Vec<Value>>, ExecStats) {
    let table = &plan.table;
    let n = table.row_count();
    let mut stats = ExecStats {
        rows_scanned: n,
        ..ExecStats::default()
    };
    let mut buf: Vec<Value> = Vec::with_capacity(table.schema().width());

    match &plan.kind {
        QueryKind::Project { exprs } => {
            let mut rows = Vec::new();
            for i in 0..n {
                table.read_row_into(i, &mut buf);
                let ctx = RowSlice(&buf);
                if let Some(f) = &plan.filter {
                    if eval_predicate(f, &ctx) != Some(true) {
                        continue;
                    }
                }
                stats.rows_matched += 1;
                rows.push(exprs.iter().map(|e| eval(e, &ctx)).collect());
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
    // simba: allow(wall-clock-outside-obs): latency parity with Dbms::execute — `elapsed` is the measured deliverable, never result content
    let start = Instant::now();
    let plan = prepare(query, table)?;
    let (rows, stats) = run_row(&plan);
    let rows = finalize_rows(rows, plan.n_output, &plan.order_dirs, plan.limit);
    Ok(QueryOutput {
        result: ResultSet::new(plan.output_names.clone(), rows),
        stats,
        elapsed: start.elapsed(),
    })
}

/// Update the accumulators of one group from one source row.
#[inline]
pub fn update_group(accs: &mut [Accumulator], aggs: &[AggSpec], table: &Table, row: usize) {
    let ctx = TableRow { table, row };
    for (acc, spec) in accs.iter_mut().zip(aggs) {
        match &spec.arg {
            None => acc.update_star(),
            Some(arg) => acc.update_value(eval(arg, &ctx)),
        }
    }
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

    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_store::{ColumnDef, Schema, TableBuilder};

    fn table() -> Table {
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::categorical("q"),
                ColumnDef::quantitative_int("n"),
                ColumnDef::quantitative_float("f"),
            ],
        );
        let mut b = TableBuilder::new(schema, 4);
        b.push_row(vec![Value::str("A"), Value::Int(1), Value::Float(0.5)]);
        b.push_row(vec![Value::str("B"), Value::Int(5), Value::Float(1.5)]);
        b.push_row(vec![Value::str("A"), Value::Int(9), Value::Float(2.5)]);
        b.push_row(vec![Value::Null, Value::Null, Value::Null]);
        b.finish()
    }

    #[test]
    fn int_cmp_kernel_matches_typed_rows() {
        let t = table();
        let k = Kernel::IntCmp {
            col: 1,
            op: BinOp::Gt,
            rhs: 2,
        };
        assert!(!k.matches(&t, 0));
        assert!(k.matches(&t, 1));
        assert!(k.matches(&t, 2));
        assert!(!k.matches(&t, 3), "NULL never matches");
    }

    #[test]
    fn dict_in_kernel_with_negation() {
        let t = table();
        let k = dict_in_kernel(0, t.column(0), &[Value::str("A")], false);
        assert!(k.matches(&t, 0));
        assert!(!k.matches(&t, 1));
        assert!(!k.matches(&t, 3), "NULL never matches IN");
        let nk = dict_in_kernel(0, t.column(0), &[Value::str("A")], true);
        assert!(!nk.matches(&t, 0));
        assert!(nk.matches(&t, 1));
        assert!(!nk.matches(&t, 3), "NULL never matches NOT IN");
    }

    #[test]
    fn float_cmp_kernel_reads_int_columns() {
        let t = table();
        let k = Kernel::FloatCmp {
            col: 1,
            op: BinOp::GtEq,
            rhs: 5.0,
        };
        assert!(!k.matches(&t, 0));
        assert!(k.matches(&t, 1));
    }

    #[test]
    fn finalize_sorts_desc_and_strips_keys() {
        let rows = vec![
            vec![Value::str("A"), Value::Int(1)],
            vec![Value::str("B"), Value::Int(3)],
            vec![Value::str("C"), Value::Int(2)],
        ];
        let out = finalize_rows(rows, 1, &[false], Some(2));
        assert_eq!(out, vec![vec![Value::str("B")], vec![Value::str("C")]]);
    }

    #[test]
    fn finalize_without_order_preserves_and_limits() {
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(3)],
        ];
        let out = finalize_rows(rows, 1, &[], Some(2));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![Value::Int(1)]);
    }

    #[test]
    fn catalog_round_trip_case_insensitive() {
        let c = Catalog::default();
        c.register(Arc::new(table()));
        assert!(c.get("T").is_some());
        assert!(c.get("t").is_some());
        assert!(c.get("nope").is_none());
    }
}
