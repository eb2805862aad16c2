//! Semantic normal form for queries and predicates.
//!
//! The equivalence suite (§4.1.2 of the paper) needs to decide whether two
//! syntactically different queries *mean* the same thing. We normalize both
//! sides and compare:
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
use crate::printer::print_expr;
use std::collections::BTreeSet;

/// A `SELECT` statement reduced to its semantic content. Two queries with
/// equal `NormalizedSelect`s are semantically equivalent (the converse does
/// not hold — this is a sound, incomplete check).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NormalizedSelect {
    /// Lowercased table name.
    pub table: String,
    /// Canonical printed forms of the normalized projection expressions,
    /// order-insensitive, aliases dropped (aliases rename output columns but
    /// do not change which data is retrieved).
    pub projections: BTreeSet<String>,
    /// Canonical printed forms of the normalized WHERE conjuncts.
    pub conjuncts: BTreeSet<String>,
    /// Canonical printed forms of the normalized GROUP BY expressions.
    pub group_by: BTreeSet<String>,
    /// Canonical printed forms of the normalized HAVING conjuncts.
    pub having: BTreeSet<String>,
    /// ORDER BY terms (order matters), canonical printed with direction.
    pub order_by: Vec<String>,
    pub limit: Option<u64>,
}

impl NormalizedSelect {
    /// Normalize a parsed `SELECT`.
    pub fn from_select(q: &Select) -> Self {
        let projections = q
            .projections
            .iter()
            .map(|item| print_expr(&normalize_expr(&item.expr)))
            .collect();
        let conjuncts = match &q.where_clause {
            Some(w) => normalized_conjuncts(w),
            None => BTreeSet::new(),
        };
        let group_by = q
            .group_by
            .iter()
            .map(|g| print_expr(&normalize_expr(g)))
            .collect();
        let having = match &q.having {
            Some(h) => normalized_conjuncts(h),
            None => BTreeSet::new(),
        };
        let order_by = q
            .order_by
            .iter()
            .map(|o| {
                let dir = if o.asc { "ASC" } else { "DESC" };
                format!("{} {dir}", print_expr(&normalize_expr(&o.expr)))
            })
            .collect();
        NormalizedSelect {
            table: q.from.to_ascii_lowercase(),
            projections,
            conjuncts,
            group_by,
            having,
            order_by,
            limit: q.limit,
        }
    }
}

impl NormalizedSelect {
    /// Render the normal form as one stable string. Note that this is the
    /// *semantic* form: projections are an alias-dropping, order-insensitive
    /// set, so it identifies queries retrieving the same data, not queries
    /// producing identical result shapes — use [`query_cache_key`] for
    /// result caching.
    pub fn cache_key(&self) -> String {
        let mut out = String::with_capacity(96);
        let mut join = |section: &str, parts: &mut dyn Iterator<Item = &String>| {
            out.push_str(section);
            out.push('{');
            let mut first = true;
            for p in parts {
                if !first {
                    out.push('\u{1f}');
                }
                first = false;
                out.push_str(p);
            }
            out.push('}');
        };
        join("t", &mut std::iter::once(&self.table));
        join("p", &mut self.projections.iter());
        join("w", &mut self.conjuncts.iter());
        join("g", &mut self.group_by.iter());
        join("h", &mut self.having.iter());
        join("o", &mut self.order_by.iter());
        match self.limit {
            Some(l) => out.push_str(&format!("l{{{l}}}")),
            None => out.push_str("l{}"),
        }
        out
    }
}

/// Cache key for a query's *results*: the semantic normal form plus the
/// output shape (the ordered, aliased projection list). Two queries share a
/// key iff a cached `ResultSet` for one can be returned
/// verbatim for the other — same rows in the same columns under the same
/// names. Spelling noise (case, whitespace, conjunct order, folded
/// constants) still collapses; projection reordering, duplication, or
/// re-aliasing — which change the result's column layout — does not.
///
/// This is the key the driver's sharded result cache uses, so equivalent
/// queries issued by different users share one cached result.
pub fn query_cache_key(q: &Select) -> String {
    let mut out = NormalizedSelect::from_select(q).cache_key();
    // Output shape: projection expressions in query order with aliases. The
    // *original* (unnormalized) print is used because it is what names the
    // output column; identifier case folds away (all name consumers in this
    // workspace compare case-insensitively) but string-literal case is data
    // and must stay significant.
    out.push_str("s{");
    for (i, item) in q.projections.iter().enumerate() {
        if i > 0 {
            out.push('\u{1f}');
        }
        out.push_str(&fold_case_outside_strings(&print_expr(&item.expr)));
        if let Some(alias) = &item.alias {
            out.push('\u{1e}');
            out.push_str(&alias.to_ascii_lowercase());
        }
    }
    out.push('}');
    out
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

/// Normalize a predicate into its canonical conjunct set.
pub fn normalized_conjuncts(pred: &Expr) -> BTreeSet<String> {
    let normalized = normalize_expr(pred);
    normalized
        .conjuncts()
        .iter()
        .map(|c| print_expr(c))
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
/// and [`states_key`](crate::states_key) prints it, so the two cannot
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
