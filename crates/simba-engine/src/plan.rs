//! Query planning: validate a [`Select`] against a table schema and compile
//! it into a [`PreparedQuery`] that all engines execute.
//!
//! The plan separates *row-level* computation (filtering, group keys,
//! aggregate arguments) from *group-level* computation (projections over
//! keys and aggregate results, HAVING, ORDER BY). Group-level expressions
//! reuse [`CExpr`] with `Col(i)` indexing a virtual row of
//! `[keys…, aggregates…]`.
//!
//! The WHERE is compiled once, here, in the form the executing engine reads
//! ([`Filter`]): the vectorized scan's settled [`Kernel`]s ([`prepare`]) or
//! the row interpreter's one [`CExpr`] ([`prepare_row`]). Both compile the
//! same `Expr` and fail on it alike.

use crate::agg::AggSpec;
use crate::error::EngineError;
use crate::eval::{CExpr, ValueSet};
use crate::exec::{compile_where, Kernel};
use simba_sql::normalize::normalize_expr;
use simba_sql::printer::print_expr;
use simba_sql::{
    aggregate_calls, same_spelling, substitute_aliases, Expr, Func, NormalizedSelect, Select,
};
use simba_store::{Schema, Table};
use std::sync::Arc;

/// A compiled, validated query ready for execution. `F` is its WHERE in the
/// form the executing engine reads: the vectorized scan's kernels by
/// default, or the row interpreter's [`CExpr`].
#[derive(Debug, Clone)]
pub struct PreparedQuery<F = Vec<Kernel>> {
    pub table: Arc<Table>,
    /// Row-level filter (WHERE).
    pub filter: Option<F>,
    pub kind: QueryKind,
    /// The user-visible output columns; compiled projection lists carry a
    /// trailing sort-key column per entry of `order_dirs` after them.
    pub output_names: Vec<String>,
    /// Sort directions for the trailing sort-key columns (`true` = ASC).
    pub order_dirs: Vec<bool>,
    pub limit: Option<usize>,
}

/// The two query shapes in the dashboard fragment.
#[derive(Debug, Clone)]
pub enum QueryKind {
    /// Plain projection (no aggregation).
    /// `exprs.len() == output_names.len() + order_dirs.len()`.
    Project { exprs: Vec<CExpr> },
    /// Grouped aggregation.
    Aggregate {
        /// Row-level group-key expressions (may be empty: global aggregate).
        keys: Vec<CExpr>,
        /// Row-level aggregate argument specs.
        aggs: Vec<AggSpec>,
        /// Group-level projections over `[keys…, aggs…]`;
        /// `len == output_names.len() + order_dirs.len()`.
        projections: Vec<CExpr>,
        /// Group-level HAVING predicate.
        having: Option<CExpr>,
    },
}

impl<F> PreparedQuery<F> {
    /// Is this an aggregation query?
    pub fn is_aggregate(&self) -> bool {
        matches!(self.kind, QueryKind::Aggregate { .. })
    }
}

/// A WHERE clause compiled for one execution architecture. Either form
/// fails on a WHERE with the error [`compile_row_expr`] raises on it.
pub trait Filter: Sized {
    fn compile(filter: &Expr, table: &Table) -> Result<Self, EngineError>;
}

/// The vectorized scan's: settled kernels, see [`compile_where`].
impl Filter for Vec<Kernel> {
    fn compile(filter: &Expr, table: &Table) -> Result<Self, EngineError> {
        compile_where(filter, table)
    }
}

/// The row interpreter's: the whole WHERE, evaluated per row.
impl Filter for CExpr {
    fn compile(filter: &Expr, table: &Table) -> Result<Self, EngineError> {
        compile_row_expr(filter, table.schema())
    }
}

/// Compile `query` against `table` for the vectorized scan.
pub fn prepare(query: &Select, table: Arc<Table>) -> Result<PreparedQuery, EngineError> {
    prepare_for(query, None, table)
}

/// Compile `query` against `table` for the row interpreter
/// ([`crate::exec::run_row`]).
pub fn prepare_row(query: &Select, table: Arc<Table>) -> Result<PreparedQuery<CExpr>, EngineError> {
    prepare_for(query, None, table)
}

/// Compile `query` against `table`, its WHERE as `F`. `form` is the query's
/// normal form when the caller already holds it: the aggregate slots are
/// then allocated from [`NormalizedSelect::aggregates`] and the key slots
/// from [`NormalizedSelect::group_by`], the very lists the caller's states
/// key printed. `None` derives both here.
pub(crate) fn prepare_for<F: Filter>(
    query: &Select,
    form: Option<&NormalizedSelect>,
    table: Arc<Table>,
) -> Result<PreparedQuery<F>, EngineError> {
    match form {
        Some(form) => prepare_with(query, form.aggregates(), form.group_by(), table),
        None => {
            let key_prints: Vec<String> = query.group_by.iter().map(normalized_print).collect();
            prepare_with(query, &aggregate_calls(query), &key_prints, table)
        }
    }
}

fn prepare_with<F: Filter>(
    query: &Select,
    agg_calls: &[(String, Expr)],
    key_prints: &[String],
    table: Arc<Table>,
) -> Result<PreparedQuery<F>, EngineError> {
    let schema = table.schema();
    if !query.from.eq_ignore_ascii_case(&schema.table) {
        return Err(EngineError::UnknownTable(query.from.clone()));
    }
    if query.projections.is_empty() {
        return Err(EngineError::Invalid("empty SELECT list".into()));
    }

    let filter = query
        .where_clause
        .as_ref()
        .map(|w| F::compile(w, &table))
        .transpose()?;
    let output_names: Vec<String> = query.projections.iter().map(|p| p.output_name()).collect();
    let limit = query.limit.map(|l| l as usize);
    let order_dirs: Vec<bool> = query.order_by.iter().map(|o| o.asc).collect();

    // Substitute projection aliases into ORDER BY / HAVING references.
    let order_exprs: Vec<Expr> = query
        .order_by
        .iter()
        .map(|o| substitute_aliases(&o.expr, &query.projections))
        .collect();
    let having_expr = query
        .having
        .as_ref()
        .map(|h| substitute_aliases(h, &query.projections));

    if query.is_aggregate_query() {
        // Compile group keys.
        let keys: Vec<CExpr> = query
            .group_by
            .iter()
            .map(|g| compile_row_expr(g, schema))
            .collect::<Result<_, _>>()?;
        // Compile aggregate argument specs.
        let mut aggs = Vec::with_capacity(agg_calls.len());
        for (_, call) in agg_calls {
            let Expr::Function {
                func,
                args,
                distinct,
            } = call
            else {
                unreachable!()
            };
            let arg = match args.first() {
                None | Some(Expr::Wildcard) => None,
                Some(a) => Some(compile_row_expr(a, schema)?),
            };
            let spec = AggSpec {
                func: *func,
                arg,
                distinct: *distinct,
            };
            spec.validate()?;
            aggs.push(spec);
        }
        let ctx = GroupCtx {
            schema,
            keys: &query.group_by,
            key_prints,
            agg_calls,
        };
        let mut projections: Vec<CExpr> = query
            .projections
            .iter()
            .map(|p| compile_group_expr(&p.expr, &ctx))
            .collect::<Result<_, _>>()?;
        for o in &order_exprs {
            projections.push(compile_group_expr(o, &ctx)?);
        }
        let having = having_expr
            .as_ref()
            .map(|h| compile_group_expr(h, &ctx))
            .transpose()?;

        Ok(PreparedQuery {
            table,
            filter,
            kind: QueryKind::Aggregate {
                keys,
                aggs,
                projections,
                having,
            },
            output_names,
            order_dirs,
            limit,
        })
    } else {
        if !query.group_by.is_empty() {
            return Err(EngineError::Invalid(
                "GROUP BY without aggregate projections".into(),
            ));
        }
        if having_expr.is_some() {
            return Err(EngineError::Invalid("HAVING requires aggregation".into()));
        }
        let mut exprs: Vec<CExpr> = query
            .projections
            .iter()
            .map(|p| compile_row_expr(&p.expr, schema))
            .collect::<Result<_, _>>()?;
        for o in &order_exprs {
            exprs.push(compile_row_expr(o, schema)?);
        }
        Ok(PreparedQuery {
            table,
            filter,
            kind: QueryKind::Project { exprs },
            output_names,
            order_dirs,
            limit,
        })
    }
}

/// Compile a row-level expression: columns resolve to physical indices;
/// aggregates are rejected.
pub fn compile_row_expr(e: &Expr, schema: &Schema) -> Result<CExpr, EngineError> {
    match e {
        Expr::Column(name) => column_index(name, schema).map(CExpr::Col),
        Expr::Literal(lit) => Ok(CExpr::Lit(CExpr::lit_value(lit))),
        Expr::Wildcard => Err(EngineError::Invalid("`*` outside COUNT(*)".into())),
        Expr::Unary { op, expr } => Ok(CExpr::Un {
            op: *op,
            e: Box::new(compile_row_expr(expr, schema)?),
        }),
        Expr::Binary { left, op, right } => Ok(CExpr::Bin {
            l: Box::new(compile_row_expr(left, schema)?),
            op: *op,
            r: Box::new(compile_row_expr(right, schema)?),
        }),
        Expr::Function { func, args, .. } => {
            if func.is_aggregate() {
                return Err(EngineError::Invalid(format!(
                    "aggregate {} not allowed here",
                    func.name()
                )));
            }
            let expected = if *func == Func::Bin { 2 } else { 1 };
            if args.len() != expected {
                return Err(EngineError::Invalid(format!(
                    "{} expects {expected} argument(s), got {}",
                    func.name(),
                    args.len()
                )));
            }
            Ok(CExpr::Call {
                func: *func,
                args: args
                    .iter()
                    .map(|a| compile_row_expr(a, schema))
                    .collect::<Result<_, _>>()?,
            })
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let mut values = Vec::with_capacity(list.len());
            for item in list {
                match item {
                    Expr::Literal(lit) => values.push(CExpr::lit_value(lit)),
                    _ => {
                        return Err(EngineError::Unsupported(
                            "IN lists must contain literals".into(),
                        ))
                    }
                }
            }
            Ok(CExpr::In {
                e: Box::new(compile_row_expr(expr, schema)?),
                set: Arc::new(ValueSet::new(values)),
                negated: *negated,
            })
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Ok(CExpr::Between {
            e: Box::new(compile_row_expr(expr, schema)?),
            low: Box::new(compile_row_expr(low, schema)?),
            high: Box::new(compile_row_expr(high, schema)?),
            negated: *negated,
        }),
        Expr::IsNull { expr, negated } => Ok(CExpr::IsNull {
            e: Box::new(compile_row_expr(expr, schema)?),
            negated: *negated,
        }),
    }
}

/// The index of column `name` in `schema`, or the error naming it.
pub(crate) fn column_index(name: &str, schema: &Schema) -> Result<usize, EngineError> {
    schema
        .index_of(name)
        .ok_or_else(|| EngineError::UnknownColumn {
            table: schema.table.clone(),
            column: name.to_owned(),
        })
}

struct GroupCtx<'a> {
    schema: &'a Schema,
    /// The GROUP BY expressions as written, and their normalized prints.
    keys: &'a [Expr],
    key_prints: &'a [String],
    agg_calls: &'a [(String, Expr)],
}

fn normalized_print(e: &Expr) -> String {
    print_expr(&normalize_expr(e))
}

/// Compile a group-level expression over the virtual row `[keys…, aggs…]`.
/// A slot is found by the expression as written first, and by its
/// normalized print only when no slot is spelled the same way: a dashboard
/// projects exactly what it groups and aggregates, so its plan normalizes
/// nothing the caller's form already did. "As written" is
/// [`same_spelling`], never `Expr`'s `==`, under which `SUM(x + 1.0)` would
/// take `SUM(x + 1)`'s Int slot.
fn compile_group_expr(e: &Expr, ctx: &GroupCtx<'_>) -> Result<CExpr, EngineError> {
    // Aggregate call → virtual aggregate slot. Slot prints are distinct, so
    // the call as written sits at the slot its print does.
    if let Expr::Function { func, .. } = e {
        if func.is_aggregate() {
            let idx = match ctx
                .agg_calls
                .iter()
                .position(|(_, call)| same_spelling(call, e))
            {
                Some(idx) => idx,
                None => {
                    let print = normalized_print(e);
                    ctx.agg_calls
                        .iter()
                        .position(|(p, _)| *p == print)
                        .expect("aggregate was collected in a prior pass")
                }
            };
            return Ok(CExpr::Col(ctx.key_prints.len() + idx));
        }
    }
    // Expression matching a GROUP BY key → the first key slot with its print.
    let slot_of = |print: &String| ctx.key_prints.iter().position(|p| p == print);
    let key = match ctx.keys.iter().position(|k| same_spelling(k, e)) {
        Some(idx) => ctx.key_prints.get(idx).and_then(slot_of),
        None => slot_of(&normalized_print(e)),
    };
    if let Some(idx) = key {
        return Ok(CExpr::Col(idx));
    }
    // Otherwise recurse; bare columns at this point are ungrouped.
    match e {
        Expr::Column(name) => {
            if ctx.schema.index_of(name).is_none() {
                Err(EngineError::UnknownColumn {
                    table: ctx.schema.table.clone(),
                    column: name.clone(),
                })
            } else {
                Err(EngineError::Invalid(format!(
                    "column `{name}` must appear in GROUP BY or inside an aggregate"
                )))
            }
        }
        Expr::Literal(lit) => Ok(CExpr::Lit(CExpr::lit_value(lit))),
        Expr::Wildcard => Err(EngineError::Invalid("`*` outside COUNT(*)".into())),
        Expr::Unary { op, expr } => Ok(CExpr::Un {
            op: *op,
            e: Box::new(compile_group_expr(expr, ctx)?),
        }),
        Expr::Binary { left, op, right } => Ok(CExpr::Bin {
            l: Box::new(compile_group_expr(left, ctx)?),
            op: *op,
            r: Box::new(compile_group_expr(right, ctx)?),
        }),
        Expr::Function { func, args, .. } => Ok(CExpr::Call {
            func: *func,
            args: args
                .iter()
                .map(|a| compile_group_expr(a, ctx))
                .collect::<Result<_, _>>()?,
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let mut values = Vec::with_capacity(list.len());
            for item in list {
                match item {
                    Expr::Literal(lit) => values.push(CExpr::lit_value(lit)),
                    _ => {
                        return Err(EngineError::Unsupported(
                            "IN lists must contain literals".into(),
                        ))
                    }
                }
            }
            Ok(CExpr::In {
                e: Box::new(compile_group_expr(expr, ctx)?),
                set: Arc::new(ValueSet::new(values)),
                negated: *negated,
            })
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Ok(CExpr::Between {
            e: Box::new(compile_group_expr(expr, ctx)?),
            low: Box::new(compile_group_expr(low, ctx)?),
            high: Box::new(compile_group_expr(high, ctx)?),
            negated: *negated,
        }),
        Expr::IsNull { expr, negated } => Ok(CExpr::IsNull {
            e: Box::new(compile_group_expr(expr, ctx)?),
            negated: *negated,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sample_table;
    use simba_sql::parse_select;

    fn plan(sql: &str) -> Result<PreparedQuery, EngineError> {
        prepare(&parse_select(sql).unwrap(), Arc::new(sample_table()))
    }

    #[test]
    fn plans_simple_projection() {
        let p = plan("SELECT queue, calls FROM cs WHERE calls > 0").unwrap();
        assert!(!p.is_aggregate());
        assert_eq!(p.output_names.len(), 2);
        assert!(p.filter.is_some());
    }

    #[test]
    fn plans_grouped_aggregate() {
        let p = plan("SELECT queue, COUNT(*) FROM cs GROUP BY queue").unwrap();
        match &p.kind {
            QueryKind::Aggregate {
                keys,
                aggs,
                projections,
                ..
            } => {
                assert_eq!(keys.len(), 1);
                assert_eq!(aggs.len(), 1);
                assert_eq!(projections.len(), 2);
            }
            _ => panic!("expected aggregate"),
        }
    }

    #[test]
    fn dedupes_repeated_aggregates() {
        let p = plan("SELECT COUNT(*), COUNT(*) FROM cs HAVING COUNT(*) > 0").unwrap();
        match &p.kind {
            QueryKind::Aggregate { aggs, .. } => assert_eq!(aggs.len(), 1),
            _ => panic!("expected aggregate"),
        }
    }

    #[test]
    fn group_expr_matches_date_part_key() {
        let p = plan("SELECT HOUR(ts), COUNT(*) FROM cs GROUP BY HOUR(ts)").unwrap();
        match &p.kind {
            QueryKind::Aggregate { projections, .. } => {
                assert!(matches!(projections[0], CExpr::Col(0)));
                assert!(matches!(projections[1], CExpr::Col(1)));
            }
            _ => panic!("expected aggregate"),
        }
    }

    /// A projection spelled like its slot finds it as written, a respelled
    /// one by its normalized print, and a repeated key at its first slot.
    #[test]
    fn slots_resolve_alike_as_written_and_respelled() {
        for sql in [
            "SELECT queue, COUNT(*) FROM cs GROUP BY queue",
            "SELECT QUEUE, count( * ) FROM cs GROUP BY queue",
            "SELECT queue, COUNT(*) FROM cs GROUP BY Queue, queue",
        ] {
            match plan(sql).unwrap().kind {
                QueryKind::Aggregate {
                    keys, projections, ..
                } => {
                    assert!(matches!(projections[0], CExpr::Col(0)), "{sql}");
                    assert!(
                        matches!(projections[1], CExpr::Col(n) if n == keys.len()),
                        "{sql}"
                    );
                }
                _ => panic!("expected aggregate"),
            }
        }
    }

    /// A slot is found by exact spelling: `5.0` is not the key `5` (value
    /// equality would hand `BIN(calls, 5.0)` the Int key slot), and
    /// `SUM(calls + 1.0)` is not `SUM(calls + 1)`.
    #[test]
    fn slots_are_found_by_spelling_not_value() {
        let err =
            plan("SELECT BIN(calls, 5.0), COUNT(*) FROM cs GROUP BY BIN(calls, 5)").unwrap_err();
        assert!(
            matches!(&err, EngineError::Invalid(m) if m.contains("must appear in GROUP BY")),
            "{err}"
        );
        match plan("SELECT SUM(calls + 1), SUM(calls + 1.0) FROM cs")
            .unwrap()
            .kind
        {
            QueryKind::Aggregate {
                aggs, projections, ..
            } => {
                assert_eq!(aggs.len(), 2);
                assert!(matches!(projections[..], [CExpr::Col(0), CExpr::Col(1)]));
            }
            _ => panic!("expected aggregate"),
        }
    }

    #[test]
    fn rejects_ungrouped_column() {
        let err = plan("SELECT queue, COUNT(*) FROM cs GROUP BY ts").unwrap_err();
        assert!(matches!(err, EngineError::Invalid(_)), "{err}");
    }

    #[test]
    fn rejects_unknown_column() {
        let err = plan("SELECT nope FROM cs").unwrap_err();
        assert!(matches!(err, EngineError::UnknownColumn { .. }));
    }

    #[test]
    fn rejects_unknown_table() {
        let err = prepare(
            &parse_select("SELECT 1 FROM other").unwrap(),
            Arc::new(sample_table()),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::UnknownTable(_)));
    }

    #[test]
    fn order_by_alias_resolves_to_aggregate() {
        let p = plan("SELECT queue, COUNT(*) AS n FROM cs GROUP BY queue ORDER BY n DESC").unwrap();
        assert_eq!(p.order_dirs, vec![false]);
        match &p.kind {
            QueryKind::Aggregate { projections, .. } => {
                // projections = [queue, count, order-key(count)]
                assert_eq!(projections.len(), 3);
            }
            _ => panic!("expected aggregate"),
        }
    }

    #[test]
    fn having_via_alias() {
        let p = plan("SELECT queue, COUNT(*) AS n FROM cs GROUP BY queue HAVING n > 1");
        assert!(p.is_ok(), "{p:?}");
    }

    #[test]
    fn non_literal_in_list_rejected() {
        let err = plan("SELECT queue FROM cs WHERE calls IN (ts)").unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
    }

    #[test]
    fn output_names_use_aliases() {
        let p = plan("SELECT queue AS q, COUNT(*) AS n FROM cs GROUP BY queue").unwrap();
        assert_eq!(p.output_names, vec!["q", "n"]);
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let p = plan("SELECT COUNT(*), SUM(calls) FROM cs").unwrap();
        match &p.kind {
            QueryKind::Aggregate { keys, aggs, .. } => {
                assert!(keys.is_empty());
                assert_eq!(aggs.len(), 2);
            }
            _ => panic!("expected aggregate"),
        }
    }

    #[test]
    fn sum_div_count_projection_compiles() {
        // Example 2.2's SUM(x)/COUNT(x) normalizes to AVG(x) — either way it
        // must compile to a single aggregate slot expression.
        let p = plan("SELECT queue, SUM(calls) / COUNT(calls) FROM cs GROUP BY queue");
        assert!(p.is_ok(), "{p:?}");
    }
}
