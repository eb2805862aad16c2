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
        // An expression that is itself an aggregate call was already
        // normalized and printed for the slot layout.
        let print = |e: &Expr| match aggregates.iter().find(|(_, call)| call == e) {
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
            shape.push_str(&fold_case_outside_strings(&print_expr(&item.expr)));
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

/// Lowercase everything except the interiors of single-quoted SQL string
/// literals. (An escaped quote `''` toggles the flag twice, landing back in
/// the literal, so it is handled correctly.)
fn fold_case_outside_strings(s: &str) -> String {
    let mut in_string = false;
    s.chars()
        .map(|c| {
            if c == '\'' {
                in_string = !in_string;
                c
            } else if in_string {
                c
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
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
pub fn normalize_expr(e: &Expr) -> Expr {
    let e = lower_idents(e);
    let e = push_not(&e, false);
    let e = fold_constants(&e);
    let e = rewrite_structures(&e);
    let e = sort_commutative(&e);
    // Sorting clusters literal operands of commutative chains together,
    // exposing new constant folds; fold once more so the form is a fixpoint.
    fold_constants(&e)
}

fn lower_idents(e: &Expr) -> Expr {
    map_expr(e, &|node| match node {
        Expr::Column(name) => Expr::Column(name.to_ascii_lowercase()),
        other => other,
    })
}

/// Bottom-up structural map.
fn map_expr(e: &Expr, f: &impl Fn(Expr) -> Expr) -> Expr {
    let rebuilt = match e {
        Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => e.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(map_expr(expr, f)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(map_expr(left, f)),
            op: *op,
            right: Box::new(map_expr(right, f)),
        },
        Expr::Function {
            func,
            args,
            distinct,
        } => Expr::Function {
            func: *func,
            args: args.iter().map(|a| map_expr(a, f)).collect(),
            distinct: *distinct,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(map_expr(expr, f)),
            list: list.iter().map(|a| map_expr(a, f)).collect(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(map_expr(expr, f)),
            low: Box::new(map_expr(low, f)),
            high: Box::new(map_expr(high, f)),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(map_expr(expr, f)),
            negated: *negated,
        },
    };
    f(rebuilt)
}

/// Push `NOT` down to atoms. `negate` is true when an odd number of `NOT`s
/// surround the current node.
fn push_not(e: &Expr, negate: bool) -> Expr {
    match e {
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => push_not(expr, !negate),
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } if negate => Expr::binary(push_not(left, true), BinOp::Or, push_not(right, true)),
        Expr::Binary {
            left,
            op: BinOp::Or,
            right,
        } if negate => Expr::binary(push_not(left, true), BinOp::And, push_not(right, true)),
        Expr::Binary { left, op, right } if op.is_comparison() && negate => {
            let flipped = match op {
                BinOp::Eq => BinOp::NotEq,
                BinOp::NotEq => BinOp::Eq,
                BinOp::Lt => BinOp::GtEq,
                BinOp::LtEq => BinOp::Gt,
                BinOp::Gt => BinOp::LtEq,
                BinOp::GtEq => BinOp::Lt,
                _ => unreachable!(),
            };
            Expr::binary(push_not(left, false), flipped, push_not(right, false))
        }
        Expr::Binary { left, op, right } => {
            let rebuilt = Expr::binary(push_not(left, false), *op, push_not(right, false));
            wrap_not(rebuilt, negate)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let rebuilt = Expr::InList {
                expr: Box::new(push_not(expr, false)),
                list: list.iter().map(|x| push_not(x, false)).collect(),
                negated: *negated != negate,
            };
            rebuilt
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(push_not(expr, false)),
            low: Box::new(push_not(low, false)),
            high: Box::new(push_not(high, false)),
            negated: *negated != negate,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(push_not(expr, false)),
            negated: *negated != negate,
        },
        Expr::Literal(Literal::Bool(b)) if negate => Expr::Literal(Literal::Bool(!b)),
        other => wrap_not(other.clone(), negate),
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

fn fold_constants(e: &Expr) -> Expr {
    map_expr(e, &|node| {
        if let Expr::Binary { left, op, right } = &node {
            if op.is_arithmetic() {
                if let (Expr::Literal(a), Expr::Literal(b)) = (left.as_ref(), right.as_ref()) {
                    if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
                        let v = match op {
                            BinOp::Add => x + y,
                            BinOp::Sub => x - y,
                            BinOp::Mul => x * y,
                            BinOp::Div => {
                                if y == 0.0 {
                                    return node;
                                }
                                x / y
                            }
                            _ => unreachable!(),
                        };
                        return if v.fract() == 0.0
                            && matches!((a, b), (Literal::Int(_), Literal::Int(_)))
                            && !matches!(op, BinOp::Div)
                        {
                            Expr::Literal(Literal::Int(v as i64))
                        } else {
                            Expr::Literal(Literal::Float(v))
                        };
                    }
                }
            }
        }
        node
    })
}

fn rewrite_structures(e: &Expr) -> Expr {
    map_expr(e, &|node| match node {
        // Orient comparisons expression-first.
        Expr::Binary {
            ref left,
            op,
            ref right,
        } if op.is_comparison()
            && matches!(left.as_ref(), Expr::Literal(_))
            && !matches!(right.as_ref(), Expr::Literal(_)) =>
        {
            Expr::binary(right.as_ref().clone(), op.flip(), left.as_ref().clone())
        }
        // Single-element IN becomes equality / inequality.
        Expr::InList {
            ref expr,
            ref list,
            negated,
        } if list.len() == 1 => Expr::binary(
            expr.as_ref().clone(),
            if negated { BinOp::NotEq } else { BinOp::Eq },
            list[0].clone(),
        ),
        // Empty IN list is always false (empty NOT IN is always true).
        Expr::InList {
            ref list, negated, ..
        } if list.is_empty() => Expr::Literal(Literal::Bool(negated)),
        // Deduplicate and sort IN lists of literals.
        Expr::InList {
            expr,
            mut list,
            negated,
        } => {
            if list.iter().all(|x| matches!(x, Expr::Literal(_))) {
                list.sort_by_key(print_expr);
                list.dedup();
                if list.len() == 1 {
                    return Expr::binary(
                        expr.as_ref().clone(),
                        if negated { BinOp::NotEq } else { BinOp::Eq },
                        list.pop().expect("len checked"),
                    );
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            }
        }
        // BETWEEN lowers to range conjuncts; NOT BETWEEN to a disjunction.
        Expr::Between {
            ref expr,
            ref low,
            ref high,
            negated,
        } => {
            let ge = Expr::binary(expr.as_ref().clone(), BinOp::GtEq, low.as_ref().clone());
            let le = Expr::binary(expr.as_ref().clone(), BinOp::LtEq, high.as_ref().clone());
            if negated {
                Expr::binary(
                    Expr::binary(expr.as_ref().clone(), BinOp::Lt, low.as_ref().clone()),
                    BinOp::Or,
                    Expr::binary(expr.as_ref().clone(), BinOp::Gt, high.as_ref().clone()),
                )
            } else {
                ge.and(le)
            }
        }
        // SUM(x) / COUNT(x) and SUM(x) / COUNT(*) canonicalize to AVG(x).
        Expr::Binary {
            ref left,
            op: BinOp::Div,
            ref right,
        } => {
            if let (
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
            ) = (left.as_ref(), right.as_ref())
            {
                let count_matches = count_args.len() == 1
                    && (count_args[0] == Expr::Wildcard || count_args == sum_args);
                if sum_args.len() == 1 && count_matches {
                    return Expr::Function {
                        func: Func::Avg,
                        args: sum_args.clone(),
                        distinct: false,
                    };
                }
            }
            node
        }
        other => other,
    })
}

fn sort_commutative(e: &Expr) -> Expr {
    map_expr(e, &|node| match node {
        Expr::Binary {
            ref left,
            op,
            ref right,
        } if op.is_commutative() && !matches!(op, BinOp::Eq | BinOp::NotEq) => {
            // Flatten the whole same-operator subtree, sort by canonical
            // print, and rebuild left-deep.
            let mut leaves = Vec::new();
            flatten(&node, op, &mut leaves);
            leaves.sort_by_key(print_expr);
            let _ = (left, right);
            leaves
                .into_iter()
                .reduce(|a, b| Expr::binary(a, op, b))
                .expect("flatten yields at least one leaf")
        }
        other => other,
    })
}

fn flatten(e: &Expr, target: BinOp, out: &mut Vec<Expr>) {
    if let Expr::Binary { left, op, right } = e {
        if *op == target {
            flatten(left, target, out);
            flatten(right, target, out);
            return;
        }
    }
    out.push(e.clone());
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
            assert_eq!(once, twice, "not idempotent for `{s}`");
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
