//! Semantic normal form for queries and predicates.
//!
//! The equivalence suite (§4.1.2 of the paper) needs to decide whether two
//! syntactically different queries *mean* the same thing, and the result
//! cache and the session-delta store ask the same question of every query
//! they see. All of them read one [`NormalizedSelect`], built once per query
//! by the layer that needs it. Normalization is:
//!
//! * identifiers lowercased,
//! * constants folded (`1 + 1` → `2`),
//! * comparisons oriented expression-first (`5 < x` → `x > 5`),
//! * `BETWEEN` lowered to range conjuncts, single-element `IN` to `=`,
//! * `NOT` pushed through comparisons and De Morgan'd through `AND`/`OR`
//!   (sound under SQL's WHERE-clause semantics, where `UNKNOWN` filters the
//!   row exactly like `FALSE`),
//! * commutative operands sorted,
//! * `SUM(x) / COUNT(x)` rewritten to `AVG(x)` (the paper's Example 2.2
//!   derives averages this way),
//! * conjunct and projection sets compared order-insensitively.

use crate::ast::*;
use crate::implication::Conjunction;
use crate::printer::print_expr;
use crate::spelling::same_spelling;
use std::collections::BTreeSet;

/// The one analysis of a `SELECT`: every clause normalized exactly once,
/// kept in the shapes its readers need.
///
/// * The equivalence suite compares it: `==` is semantic equivalence —
///   projections and GROUP BY as alias-dropping, order-insensitive sets,
///   WHERE / HAVING as conjunct sets, ORDER BY in order, LIMIT. Two queries
///   with equal forms are semantically equivalent (the converse does not
///   hold — this is a sound, incomplete check).
/// * The result cache, the session-delta store and the planner key on it:
///   [`result_key`](Self::result_key), [`selection_key`](Self::selection_key)
///   and [`states_key`](Self::states_key) are printed from the same fields by
///   one section printer, [`refines`](Self::refines) checks the stored WHERE
///   domains, and [`aggregates`](Self::aggregates) is the slot layout the
///   planner allocates from.
///
/// A layer builds the form once per query and passes it down; nothing beside
/// it normalizes the query's SQL again.
#[derive(Debug, Clone)]
pub struct NormalizedSelect {
    /// Lowercased table name.
    table: String,
    /// Canonical prints of the normalized projections, in query order,
    /// aliases dropped (aliases rename output columns but do not change
    /// which data is retrieved).
    projections: Vec<String>,
    /// The ordered, aliased projection list as written (see `from_select`).
    shape: String,
    filter: Conjunction,
    /// Canonical prints of the normalized GROUP BY expressions, in order.
    group_by: Vec<String>,
    having: Conjunction,
    /// ORDER BY terms (order matters), canonical prints with direction.
    order_by: Vec<String>,
    limit: Option<u64>,
    aggregates: Vec<(String, Expr)>,
    is_aggregate: bool,
}

impl NormalizedSelect {
    /// Analyze a parsed `SELECT`.
    pub fn from_select(q: &Select) -> Self {
        let aggregates = aggregate_calls(q);
        // An expression spelled exactly like an aggregate call was already
        // normalized and printed for the slot layout. (Not `==`: it makes
        // `SUM(x + 1)` the call `SUM(x + 1.0)` too.)
        let print = |e: &Expr| match aggregates.iter().find(|(_, call)| same_spelling(call, e)) {
            Some((print, _)) => print.clone(),
            None => print_expr(&normalize_expr(e)),
        };
        // Output shape: the *original* (unnormalized) print is what names an
        // output column; identifier case folds away (all name consumers in
        // this workspace compare case-insensitively) but string-literal case
        // is data and must stay significant.
        let mut shape = String::new();
        for (i, item) in q.projections.iter().enumerate() {
            if i > 0 {
                shape.push('\u{1f}');
            }
            push_folding_case_outside_strings(&mut shape, &print_expr(&item.expr));
            if let Some(alias) = &item.alias {
                shape.push('\u{1e}');
                shape.push_str(&alias.to_ascii_lowercase());
            }
        }
        let order_by = q
            .order_by
            .iter()
            .map(|o| {
                let dir = if o.asc { "ASC" } else { "DESC" };
                format!("{} {dir}", print(&o.expr))
            })
            .collect();
        NormalizedSelect {
            table: q.from.to_ascii_lowercase(),
            projections: q.projections.iter().map(|p| print(&p.expr)).collect(),
            shape,
            filter: Conjunction::new(q.where_clause.as_ref()),
            group_by: q.group_by.iter().map(print).collect(),
            having: Conjunction::new(q.having.as_ref()),
            order_by,
            limit: q.limit,
            aggregates,
            is_aggregate: q.is_aggregate_query(),
        }
    }

    /// Lowercased table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The projections as the set the equivalence suite compares.
    pub fn projection_set(&self) -> BTreeSet<&str> {
        as_set(&self.projections)
    }

    /// The WHERE clause.
    pub fn filter(&self) -> &Conjunction {
        &self.filter
    }

    /// The GROUP BY expressions as the set the equivalence suite compares.
    pub fn group_set(&self) -> BTreeSet<&str> {
        as_set(&self.group_by)
    }

    /// Canonical prints of the GROUP BY expressions, in query order: the
    /// key slots the planner allocates.
    pub fn group_by(&self) -> &[String] {
        &self.group_by
    }

    /// The HAVING clause (aliases not substituted).
    pub fn having(&self) -> &Conjunction {
        &self.having
    }

    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// True if any projection or the HAVING clause aggregates, or the query
    /// groups.
    pub fn is_aggregate(&self) -> bool {
        self.is_aggregate
    }

    /// The distinct aggregate calls, as `(normalized print, call)`, in the
    /// order the planner allocates their slots (see [`aggregate_calls`]).
    pub fn aggregates(&self) -> &[(String, Expr)] {
        &self.aggregates
    }

    /// Equal up to ORDER BY, which affects presentation, not content.
    pub fn same_rows(&self, other: &Self) -> bool {
        self.table == other.table
            && self.projection_set() == other.projection_set()
            && self.filter == other.filter
            && self.group_set() == other.group_set()
            && self.having == other.having
            && self.limit == other.limit
    }

    /// Cache key for the query's *results*: the semantic form plus the
    /// output shape (the ordered, aliased projection list). Two queries
    /// share a key iff a cached `ResultSet` for one can be returned verbatim
    /// for the other — same rows in the same columns under the same names.
    /// Spelling noise (case, whitespace, conjunct order, folded constants)
    /// still collapses; projection reordering, duplication, or re-aliasing —
    /// which change the result's column layout — does not.
    pub fn result_key(&self) -> String {
        let mut out = String::with_capacity(128);
        push_section(&mut out, 't', [&self.table]);
        push_section(&mut out, 'p', self.projection_set());
        push_section(&mut out, 'w', self.filter.prints());
        push_section(&mut out, 'g', self.group_set());
        push_section(&mut out, 'h', self.having.prints());
        push_section(&mut out, 'o', &self.order_by);
        push_section(&mut out, 'l', self.limit.map(|l| l.to_string()));
        push_section(&mut out, 's', [&self.shape]);
        out
    }

    /// Key identifying "same table, same WHERE" executions: two queries with
    /// equal selection keys filter the same rows, so a selection vector
    /// captured for one seeds the other without re-evaluating kernels.
    pub fn selection_key(&self) -> String {
        let mut out = String::with_capacity(64);
        push_section(&mut out, 't', [&self.table]);
        push_section(&mut out, 'w', self.filter.prints());
        out
    }

    /// [`selection_key`](Self::selection_key) equality, without printing.
    pub fn same_selection(&self, other: &Self) -> bool {
        self.table == other.table && self.filter == other.filter
    }

    /// Key identifying executions whose per-group aggregate states are
    /// interchangeable: the selection key plus the *ordered* projection
    /// list, GROUP BY, and the aggregate-slot layout. A hidden
    /// `ORDER BY SUM(v)` or a reordered HAVING changes the layout, so it
    /// changes the key. ORDER BY over projected columns / aliases and LIMIT
    /// are deliberately excluded — they reorder and truncate the emitted
    /// rows after aggregation, and HAVING is re-evaluated over the replayed
    /// groups, so cached group states satisfy any such variant of the same
    /// aggregation.
    pub fn states_key(&self) -> String {
        let mut out = self.selection_key();
        push_section(&mut out, 'p', &self.projections);
        push_section(&mut out, 'g', &self.group_by);
        push_section(&mut out, 'a', self.slot_prints());
        out
    }

    /// [`states_key`](Self::states_key) equality, without printing.
    pub fn same_states(&self, other: &Self) -> bool {
        self.same_selection(other)
            && self.projections == other.projections
            && self.group_by == other.group_by
            && self.slot_prints().eq(other.slot_prints())
    }

    fn slot_prints(&self) -> impl Iterator<Item = &String> {
        self.aggregates.iter().map(|(print, _)| print)
    }

    /// Is this query provably a refinement of `prev` — same table, and every
    /// row satisfying this WHERE also satisfies `prev`'s? Sound: `true` is
    /// always correct; `false` may mean "could not prove". A refinement's
    /// result rows are a subset of the earlier query's surviving rows, so a
    /// scan for it may be seeded from `prev`'s captured selection and
    /// re-filtered with its own kernels.
    pub fn refines(&self, prev: &Self) -> bool {
        self.table == prev.table && self.filter.implies(&prev.filter)
    }
}

impl PartialEq for NormalizedSelect {
    fn eq(&self, other: &Self) -> bool {
        self.same_rows(other) && self.order_by == other.order_by
    }
}

impl Eq for NormalizedSelect {}

fn as_set(prints: &[String]) -> BTreeSet<&str> {
    prints.iter().map(String::as_str).collect()
}

/// The one section printer every key is written with: `tag{a␟b␟…}`.
fn push_section<S: AsRef<str>>(out: &mut String, tag: char, parts: impl IntoIterator<Item = S>) {
    out.push(tag);
    out.push('{');
    for (i, part) in parts.into_iter().enumerate() {
        if i > 0 {
            out.push('\u{1f}');
        }
        out.push_str(part.as_ref());
    }
    out.push('}');
}

/// [`NormalizedSelect::result_key`] of a query — the key the driver's
/// sharded result cache uses, so equivalent queries issued by different
/// users share one cached result.
pub fn query_cache_key(q: &Select) -> String {
    NormalizedSelect::from_select(q).result_key()
}

/// Append `s` lowercased except for the interiors of single-quoted SQL
/// string literals. (An escaped quote `''` toggles the flag twice, landing
/// back in the literal, so it is handled correctly.)
fn push_folding_case_outside_strings(out: &mut String, s: &str) {
    let mut in_string = false;
    out.extend(s.chars().map(|c| {
        if c == '\'' {
            in_string = !in_string;
            c
        } else if in_string {
            c
        } else {
            c.to_ascii_lowercase()
        }
    }));
}

/// Replace references to projection aliases with the aliased expression
/// (so `ORDER BY n` / `HAVING n > 1` resolve when `n` aliases an aggregate).
pub fn substitute_aliases(e: &Expr, projections: &[SelectItem]) -> Expr {
    map_expr(e, &|node| {
        let aliased = match &node {
            Expr::Column(name) => projections.iter().find(|item| {
                item.alias
                    .as_deref()
                    .is_some_and(|a| a.eq_ignore_ascii_case(name))
            }),
            _ => None,
        };
        aliased.map_or(node, |item| item.expr.clone())
    })
}

/// The distinct aggregate calls of `q`, as `(normalized print, call)`, in
/// the order the planner allocates their slots: projections, then HAVING,
/// then ORDER BY (aliases substituted), each walked left to right. The one
/// definition of a query's aggregate-slot layout — the planner compiles it
/// and [`NormalizedSelect::states_key`] prints it, so the two cannot
/// disagree.
pub fn aggregate_calls(q: &Select) -> Vec<(String, Expr)> {
    let mut out = Vec::new();
    for item in &q.projections {
        collect_aggregates(&item.expr, &mut out);
    }
    let clauses = q.having.iter().chain(q.order_by.iter().map(|o| &o.expr));
    for e in clauses {
        collect_aggregates(&substitute_aliases(e, &q.projections), &mut out);
    }
    out
}

fn collect_aggregates(e: &Expr, out: &mut Vec<(String, Expr)>) {
    match e {
        // Aggregate args cannot themselves contain aggregates (nested
        // aggregation is rejected at compile), so no need to recurse.
        Expr::Function { func, .. } if func.is_aggregate() => {
            let print = print_expr(&normalize_expr(e));
            if !out.iter().any(|(p, _)| *p == print) {
                out.push((print, e.clone()));
            }
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_aggregates(a, out);
            }
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for x in list {
                collect_aggregates(x, out);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => {}
    }
}

/// Normalize an expression tree (see module docs for the rewrite list).
///
/// One walk: `NOT` is pushed down on the way in, and every node is built
/// once on the way out, after its children are in normal form — constants
/// folded, the structural rewrites applied, commutative operands sorted (each
/// operand printed once for the sort) and the sorted chain folded again.
/// Wherever the six whole-tree passes this walk replaced reached a normal
/// form it returns theirs (`tests/prop_roundtrip.rs` checks it against a copy
/// of them), and unlike them it is idempotent on every input.
pub fn normalize_expr(e: &Expr) -> Expr {
    walk(e, Some(false), None)
}

/// The conjuncts of a predicate in normal form, in no particular order:
/// [`normalize_expr`] without the sort of the top `AND` chain, for a caller
/// that keys the conjuncts itself (a [`Conjunction`]).
pub(crate) fn normalize_conjuncts(pred: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    flatten(
        walk(pred, Some(false), Some(BinOp::And)),
        BinOp::And,
        &mut out,
    );
    out
}

/// `negate` is `Some(true)` when an odd number of `NOT`s being pushed down
/// surround `e`, and `None` inside function arguments and under unary minus,
/// where `NOT` is not pushed and stays where it was written. `chain` is the
/// operator of the enclosing commutative chain (`a AND b AND c`, `x + y + z`):
/// a node continuing it is left unsorted, and the chain's top node sorts
/// every operand at once.
fn walk(e: &Expr, negate: Option<bool>, chain: Option<BinOp>) -> Expr {
    match (e, negate) {
        (Expr::Binary { left, op, right }, _) => {
            let (op, children, wrap) = match (negate, *op) {
                (Some(true), BinOp::And) => (BinOp::Or, Some(true), false),
                (Some(true), BinOp::Or) => (BinOp::And, Some(true), false),
                (Some(true), op) if op.is_comparison() => {
                    (negated_comparison(op), Some(false), false)
                }
                (None, op) => (op, None, false),
                (Some(negate), op) => (op, Some(false), negate),
            };
            let operands = sortable(op).then_some(op);
            let node = Expr::binary(
                walk(left, children, operands),
                op,
                walk(right, children, operands),
            );
            let node = rewrite_structures(fold_constants(node));
            if wrap || chain != Some(op) {
                wrap_not(sort_commutative(node), wrap)
            } else {
                node
            }
        }
        (Expr::Column(name), None) => Expr::Column(name.to_ascii_lowercase()),
        (_, None) => finish(rebuild(e, |child| walk(child, None, None))),
        (
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            },
            Some(negate),
        ) => walk(expr, Some(!negate), chain),
        (
            Expr::InList { negated, .. }
            | Expr::Between { negated, .. }
            | Expr::IsNull { negated, .. },
            Some(negate),
        ) => {
            let mut node = rebuild(e, |child| walk(child, Some(false), None));
            if let Expr::InList { negated: n, .. }
            | Expr::Between { negated: n, .. }
            | Expr::IsNull { negated: n, .. } = &mut node
            {
                *n = *negated != negate;
            }
            finish(node)
        }
        (Expr::Literal(Literal::Bool(b)), Some(negate)) => {
            Expr::Literal(Literal::Bool(*b != negate))
        }
        // Columns, other literals, functions and unary minus: `NOT` stops
        // here and wraps the node.
        (other, Some(negate)) => wrap_not(walk(other, None, None), negate),
    }
}

/// `e` with every child replaced by `child(…)`.
fn rebuild(e: &Expr, child: impl Fn(&Expr) -> Expr) -> Expr {
    let boxed = |e: &Expr| Box::new(child(e));
    match e {
        Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => e.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: boxed(expr),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: boxed(left),
            op: *op,
            right: boxed(right),
        },
        Expr::Function {
            func,
            args,
            distinct,
        } => Expr::Function {
            func: *func,
            args: args.iter().map(&child).collect(),
            distinct: *distinct,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: boxed(expr),
            list: list.iter().map(&child).collect(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: boxed(expr),
            low: boxed(low),
            high: boxed(high),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: boxed(expr),
            negated: *negated,
        },
    }
}

/// `NOT (a op b)` as `a op' b`.
fn negated_comparison(op: BinOp) -> BinOp {
    match op {
        BinOp::Eq => BinOp::NotEq,
        BinOp::NotEq => BinOp::Eq,
        BinOp::Lt => BinOp::GtEq,
        BinOp::LtEq => BinOp::Gt,
        BinOp::Gt => BinOp::LtEq,
        BinOp::GtEq => BinOp::Lt,
        other => other,
    }
}

fn wrap_not(e: Expr, negate: bool) -> Expr {
    if negate {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(e),
        }
    } else {
        e
    }
}

/// The per-node rewrites, in order, on a node whose children are normal.
fn finish(node: Expr) -> Expr {
    sort_commutative(rewrite_structures(fold_constants(node)))
}

/// `1 + 2` → `3`: arithmetic over two numeric literals.
fn fold_constants(node: Expr) -> Expr {
    let Expr::Binary { left, op, right } = &node else {
        return node;
    };
    let (Expr::Literal(a), Expr::Literal(b)) = (left.as_ref(), right.as_ref()) else {
        return node;
    };
    let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
        return node;
    };
    let v = match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div if y != 0.0 => x / y,
        _ => return node,
    };
    let ints = matches!((a, b), (Literal::Int(_), Literal::Int(_)));
    Expr::Literal(if v.fract() == 0.0 && ints && *op != BinOp::Div {
        Literal::Int(v as i64)
    } else {
        Literal::Float(v)
    })
}

fn rewrite_structures(node: Expr) -> Expr {
    match node {
        Expr::Binary { op, .. } if op.is_comparison() => orient(node),
        // Empty IN list is always false (empty NOT IN is always true).
        Expr::InList { list, negated, .. } if list.is_empty() => {
            Expr::Literal(Literal::Bool(negated))
        }
        // Literal IN lists are sorted and deduplicated; a single-element
        // IN becomes equality / inequality.
        Expr::InList {
            expr,
            mut list,
            negated,
        } => {
            if list.len() > 1 && list.iter().all(is_literal) {
                list.sort_by_cached_key(print_expr);
                list.dedup();
            }
            match list.pop() {
                Some(only) if list.is_empty() => orient(Expr::Binary {
                    left: expr,
                    op: if negated { BinOp::NotEq } else { BinOp::Eq },
                    right: Box::new(only),
                }),
                last => {
                    list.extend(last);
                    Expr::InList {
                        expr,
                        list,
                        negated,
                    }
                }
            }
        }
        // BETWEEN lowers to range conjuncts; NOT BETWEEN to a disjunction.
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let (low_op, join, high_op) = if negated {
                (BinOp::Lt, BinOp::Or, BinOp::Gt)
            } else {
                (BinOp::GtEq, BinOp::And, BinOp::LtEq)
            };
            let low = orient(Expr::Binary {
                left: expr.clone(),
                op: low_op,
                right: low,
            });
            let high = orient(Expr::Binary {
                left: expr,
                op: high_op,
                right: high,
            });
            Expr::binary(low, join, high)
        }
        // SUM(x) / COUNT(x) and SUM(x) / COUNT(*) canonicalize to AVG(x).
        Expr::Binary {
            left,
            op: BinOp::Div,
            right,
        } if sum_over_count(&left, &right) => match *left {
            Expr::Function { args, .. } => Expr::Function {
                func: Func::Avg,
                args,
                distinct: false,
            },
            left => Expr::binary(left, BinOp::Div, *right),
        },
        other => other,
    }
}

/// Orient a comparison expression-first: `5 < x` → `x > 5`.
fn orient(node: Expr) -> Expr {
    match node {
        Expr::Binary { left, op, right } if is_literal(&left) && !is_literal(&right) => {
            Expr::Binary {
                left: right,
                op: op.flip(),
                right: left,
            }
        }
        other => other,
    }
}

fn is_literal(e: &Expr) -> bool {
    matches!(e, Expr::Literal(_))
}

/// Is `left / right` an average spelled `SUM(x) / COUNT(x)` or
/// `SUM(x) / COUNT(*)`?
fn sum_over_count(left: &Expr, right: &Expr) -> bool {
    let (
        Expr::Function {
            func: Func::Sum,
            args: sum_args,
            distinct: false,
        },
        Expr::Function {
            func: Func::Count,
            args: count_args,
            distinct: false,
        },
    ) = (left, right)
    else {
        return false;
    };
    sum_args.len() == 1
        && count_args.len() == 1
        && (count_args[0] == Expr::Wildcard || count_args == sum_args)
}

/// Flatten a same-operator chain of a commutative operator (other than `=`
/// / `<>`), sort its operands by canonical print, and rebuild it left-deep,
/// folding each rebuilt node: sorting clusters literal operands together and
/// exposes new folds.
fn sort_commutative(node: Expr) -> Expr {
    let op = match &node {
        Expr::Binary { op, .. } if sortable(*op) => *op,
        _ => return node,
    };
    let mut leaves = Vec::new();
    flatten(node, op, &mut leaves);
    leaves.sort_by_cached_key(print_expr);
    let mut folded = false;
    let chain = leaves
        .into_iter()
        .reduce(|acc, leaf| {
            let node = fold_constants(Expr::binary(acc, op, leaf));
            folded |= is_literal(&node);
            node
        })
        .expect("a chain has two operands");
    // Two numeric literals sorted to the front fold into one, whose print
    // may sort elsewhere (`4 + 5 + 6 * x` → `9 + 6 * x`): sort once more.
    if folded && !is_literal(&chain) {
        sort_commutative(chain)
    } else {
        chain
    }
}

/// `AND`, `OR`, `+` and `*`: the commutative operators whose chains are
/// sorted (`=` and `<>` keep their orientation).
fn sortable(op: BinOp) -> bool {
    op.is_commutative() && !matches!(op, BinOp::Eq | BinOp::NotEq)
}

fn flatten(e: Expr, target: BinOp, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary { left, op, right } if op == target => {
            flatten(*left, target, out);
            flatten(*right, target, out);
        }
        leaf => out.push(leaf),
    }
}

/// Bottom-up structural map.
fn map_expr(e: &Expr, f: &impl Fn(Expr) -> Expr) -> Expr {
    f(rebuild(e, |child| map_expr(child, f)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_select};

    fn norm(input: &str) -> String {
        print_expr(&normalize_expr(&parse_expr(input).unwrap()))
    }

    fn nsel(input: &str) -> NormalizedSelect {
        NormalizedSelect::from_select(&parse_select(input).unwrap())
    }

    #[test]
    fn case_insensitive_identifiers() {
        assert_eq!(norm("Queue = 'A'"), norm("queue = 'A'"));
    }

    #[test]
    fn comparison_orientation() {
        assert_eq!(norm("5 < x"), norm("x > 5"));
        assert_eq!(norm("1 = a"), norm("a = 1"));
    }

    #[test]
    fn between_lowering() {
        assert_eq!(norm("x BETWEEN 1 AND 5"), norm("x >= 1 AND x <= 5"));
    }

    #[test]
    fn not_between_lowering() {
        assert_eq!(norm("x NOT BETWEEN 1 AND 5"), norm("x < 1 OR x > 5"));
    }

    #[test]
    fn single_in_becomes_equality() {
        assert_eq!(norm("q IN ('A')"), norm("q = 'A'"));
        assert_eq!(norm("q NOT IN ('A')"), norm("q <> 'A'"));
    }

    #[test]
    fn in_list_sorted_and_deduped() {
        assert_eq!(norm("q IN ('B', 'A', 'B')"), norm("q IN ('A', 'B')"));
    }

    #[test]
    fn empty_in_is_false() {
        assert_eq!(norm("q IN ()"), "FALSE");
    }

    #[test]
    fn not_pushed_through_comparisons() {
        assert_eq!(norm("NOT x > 1"), norm("x <= 1"));
        assert_eq!(norm("NOT x = 1"), norm("x <> 1"));
        assert_eq!(norm("NOT NOT x = 1"), norm("x = 1"));
    }

    #[test]
    fn de_morgan() {
        assert_eq!(norm("NOT (a = 1 AND b = 2)"), norm("a <> 1 OR b <> 2"));
        assert_eq!(norm("NOT (a = 1 OR b = 2)"), norm("a <> 1 AND b <> 2"));
    }

    #[test]
    fn not_in_negation() {
        assert_eq!(norm("NOT q IN ('A', 'B')"), norm("q NOT IN ('A', 'B')"));
    }

    #[test]
    fn constant_folding() {
        assert_eq!(norm("x > 2 + 3"), norm("x > 5"));
        assert_eq!(norm("x > 10 / 4"), norm("x > 2.5"));
    }

    #[test]
    fn commutative_sorting() {
        assert_eq!(norm("a = 1 AND b = 2"), norm("b = 2 AND a = 1"));
        assert_eq!(norm("a = 1 OR b = 2"), norm("b = 2 OR a = 1"));
    }

    #[test]
    fn sum_over_count_is_avg() {
        assert_eq!(norm("SUM(x) / COUNT(x)"), norm("AVG(x)"));
        assert_eq!(norm("SUM(x) / COUNT(*)"), norm("AVG(x)"));
        // Different argument: not an average.
        assert_ne!(norm("SUM(x) / COUNT(y)"), norm("AVG(x)"));
    }

    #[test]
    fn select_equivalence_ignores_aliases_and_order() {
        let a = nsel("SELECT queue, COUNT(*) AS n FROM cs GROUP BY queue");
        let b = nsel("SELECT COUNT(*) total, Queue FROM CS GROUP BY QUEUE");
        assert_eq!(a, b);
    }

    #[test]
    fn select_equivalence_conjunct_order_irrelevant() {
        let a = nsel("SELECT x FROM t WHERE a = 1 AND b = 2");
        let b = nsel("SELECT x FROM t WHERE b = 2 AND a = 1");
        assert_eq!(a, b);
    }

    #[test]
    fn select_with_different_filters_not_equal() {
        let a = nsel("SELECT x FROM t WHERE a = 1");
        let b = nsel("SELECT x FROM t WHERE a = 2");
        assert_ne!(a, b);
    }

    #[test]
    fn paper_example_avg_forms_equivalent() {
        // Example 2.2: rep-level average via SUM/COUNT vs AVG.
        let a = nsel("SELECT rep_id, SUM(calls) / COUNT(calls) FROM cs GROUP BY rep_id");
        let b = nsel("SELECT rep_id, AVG(calls) FROM cs GROUP BY rep_id");
        assert_eq!(a, b);
    }

    #[test]
    fn normalization_is_idempotent() {
        for s in [
            "NOT (a = 1 AND b IN ('x', 'y'))",
            "x BETWEEN 1 AND 5 AND q IN ('B', 'A')",
            "SUM(v) / COUNT(*) > 0.5 OR 3 < y",
        ] {
            let once = normalize_expr(&parse_expr(s).unwrap());
            let twice = normalize_expr(&once);
            assert_eq!(
                crate::Spelling::of_expr(&once),
                crate::Spelling::of_expr(&twice),
                "not idempotent for `{s}`"
            );
        }
    }

    #[test]
    fn cache_key_matches_for_equivalent_queries() {
        let a = parse_select("SELECT queue, COUNT(*) FROM cs WHERE a = 1 AND b = 2 GROUP BY queue")
            .unwrap();
        let b =
            parse_select("select Queue, count( * ) from CS where b = 2 and a = 1 group by QUEUE")
                .unwrap();
        assert_eq!(crate::query_cache_key(&a), crate::query_cache_key(&b));
    }

    /// A projection takes the print of the aggregate call spelled exactly
    /// like it: `SUM(x + 1.0)` is not the call `SUM(x + 1)`, though `==`
    /// says so, and the two queries below return an Int and a Float column.
    #[test]
    fn aggregates_differing_only_in_literal_type_print_apart() {
        let a = parse_select("SELECT SUM(x + 1), SUM(x + 1.0) FROM t").unwrap();
        let b = parse_select("SELECT SUM(x + 1), SUM(x + 1) FROM t").unwrap();
        let (fa, fb) = (
            NormalizedSelect::from_select(&a),
            NormalizedSelect::from_select(&b),
        );
        assert_eq!(
            fa.projection_set().into_iter().collect::<Vec<_>>(),
            ["SUM(1 + x)", "SUM(1.0 + x)"]
        );
        assert_ne!(fa, fb);
        assert_ne!(fa.states_key(), fb.states_key());
    }

    #[test]
    fn cache_key_differs_for_different_queries() {
        let a = parse_select("SELECT x FROM t WHERE a = 1").unwrap();
        let b = parse_select("SELECT x FROM t WHERE a = 2").unwrap();
        let c = parse_select("SELECT x FROM t WHERE a = 1 LIMIT 5").unwrap();
        assert_ne!(crate::query_cache_key(&a), crate::query_cache_key(&b));
        assert_ne!(crate::query_cache_key(&a), crate::query_cache_key(&c));
    }

    #[test]
    fn cache_key_sections_prevent_cross_clause_collisions() {
        // A conjunct moving between WHERE and HAVING must change the key.
        let a = parse_select("SELECT q, COUNT(*) FROM t WHERE n > 1 GROUP BY q").unwrap();
        let b = parse_select("SELECT q, COUNT(*) FROM t GROUP BY q HAVING n > 1").unwrap();
        assert_ne!(crate::query_cache_key(&a), crate::query_cache_key(&b));
    }

    #[test]
    fn cache_key_pins_the_result_shape() {
        // Reordered, duplicated, or re-aliased projections produce results
        // with different column layouts, so they must not share a key even
        // though their semantic normal forms coincide.
        let key = |s: &str| crate::query_cache_key(&parse_select(s).unwrap());
        let base = key("SELECT queue, COUNT(*) FROM cs GROUP BY queue");
        assert_ne!(
            base,
            key("SELECT COUNT(*), queue FROM cs GROUP BY queue"),
            "reorder"
        );
        assert_ne!(
            key("SELECT queue FROM cs"),
            key("SELECT queue, queue FROM cs"),
            "dup"
        );
        assert_ne!(
            base,
            key("SELECT queue, COUNT(*) AS n FROM cs GROUP BY queue"),
            "alias"
        );
        // AVG vs SUM/COUNT retrieve the same data but name the output
        // column differently — observably distinct results.
        assert_ne!(
            key("SELECT AVG(calls) FROM cs"),
            key("SELECT SUM(calls) / COUNT(calls) FROM cs")
        );
        // String-literal case is data, not spelling.
        assert_ne!(key("SELECT 'A', 'a' FROM t"), key("SELECT 'a', 'A' FROM t"));
    }
}
