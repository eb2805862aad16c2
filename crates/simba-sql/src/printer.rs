//! Canonical SQL printer.
//!
//! Every AST prints to a unique, stable textual form: keywords uppercase,
//! single spaces, minimal parentheses. `parse(print(ast)) == ast` holds for
//! all parser-reachable ASTs (property-tested), which makes byte-comparison
//! of printed queries a sound *syntactic* equivalence check.

use crate::ast::*;
use std::fmt::Write;

/// Reserved words that must be quoted when used as identifiers.
const KEYWORDS: &[&str] = &[
    "select", "from", "where", "group", "by", "having", "order", "limit", "as", "and", "or", "not",
    "in", "between", "is", "null", "true", "false", "asc", "desc", "distinct",
];

/// Does an identifier need double-quoting to re-parse as itself?
fn needs_quoting(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if !first_ok {
        return true;
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
    {
        return true;
    }
    KEYWORDS.iter().any(|k| name.eq_ignore_ascii_case(k))
}

/// Write an identifier, quoting when necessary.
fn write_ident(name: &str, out: &mut String) {
    if needs_quoting(name) {
        out.push('"');
        out.push_str(name);
        out.push('"');
    } else {
        out.push_str(name);
    }
}

/// Print a `SELECT` statement in canonical form.
pub fn print_select(q: &Select) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("SELECT ");
    for (i, item) in q.projections.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&print_expr(&item.expr));
        if let Some(alias) = &item.alias {
            out.push_str(" AS ");
            write_ident(alias, &mut out);
        }
    }
    out.push_str(" FROM ");
    write_ident(&q.from, &mut out);
    if let Some(w) = &q.where_clause {
        let _ = write!(out, " WHERE {}", print_expr(w));
    }
    if !q.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        for (i, g) in q.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&print_expr(g));
        }
    }
    if let Some(h) = &q.having {
        let _ = write!(out, " HAVING {}", print_expr(h));
    }
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        for (i, o) in q.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&print_expr(&o.expr));
            out.push_str(if o.asc { " ASC" } else { " DESC" });
        }
    }
    if let Some(l) = q.limit {
        let _ = write!(out, " LIMIT {l}");
    }
    out
}

/// Print an expression in canonical form with minimal parentheses.
pub fn print_expr(e: &Expr) -> String {
    let mut out = String::with_capacity(32);
    write_expr(e, Prec::Lowest, &mut out);
    out
}

/// Precedence levels, loosest to tightest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Prec {
    Lowest,
    Or,
    And,
    Not,
    Cmp,
    Add,
    Mul,
    Unary,
}

fn op_prec(op: BinOp) -> Prec {
    match op {
        BinOp::Or => Prec::Or,
        BinOp::And => Prec::And,
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => Prec::Cmp,
        BinOp::Add | BinOp::Sub => Prec::Add,
        BinOp::Mul | BinOp::Div => Prec::Mul,
    }
}

fn write_expr(e: &Expr, parent: Prec, out: &mut String) {
    match e {
        Expr::Column(name) => write_ident(name, out),
        Expr::Wildcard => out.push('*'),
        Expr::Literal(lit) => write_literal(lit, out),
        Expr::Unary { op, expr } => {
            let (text, prec) = match op {
                UnaryOp::Not => ("NOT ", Prec::Not),
                UnaryOp::Neg => ("-", Prec::Unary),
            };
            let needs = prec < parent;
            if needs {
                out.push('(');
            }
            out.push_str(text);
            write_expr(expr, prec, out);
            if needs {
                out.push(')');
            }
        }
        Expr::Binary { left, op, right } => {
            let prec = op_prec(*op);
            let needs = prec < parent
                // Comparison chains like `a = b = c` are not valid SQL; always
                // parenthesize nested comparisons for clarity.
                || (prec == Prec::Cmp && parent == Prec::Cmp);
            if needs {
                out.push('(');
            }
            write_expr(left, prec, out);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            // Right operands of arithmetic need a tighter bound: parsing is
            // left-associative, so `a - (b - c)` and `a * (b / c)` must keep
            // their parentheses to round-trip as the same tree.
            let right_prec = if op.is_arithmetic() { bump(prec) } else { prec };
            write_expr(right, right_prec, out);
            if needs {
                out.push(')');
            }
        }
        Expr::Function {
            func,
            args,
            distinct,
        } => {
            out.push_str(func.name());
            out.push('(');
            if *distinct {
                out.push_str("DISTINCT ");
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(a, Prec::Lowest, out);
            }
            out.push(')');
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let needs = Prec::Cmp < parent;
            if needs {
                out.push('(');
            }
            write_expr(expr, Prec::Add, out);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(item, Prec::Lowest, out);
            }
            out.push(')');
            if needs {
                out.push(')');
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let needs = Prec::Cmp < parent;
            if needs {
                out.push('(');
            }
            write_expr(expr, Prec::Add, out);
            out.push_str(if *negated {
                " NOT BETWEEN "
            } else {
                " BETWEEN "
            });
            write_expr(low, Prec::Add, out);
            out.push_str(" AND ");
            write_expr(high, Prec::Add, out);
            if needs {
                out.push(')');
            }
        }
        Expr::IsNull { expr, negated } => {
            let needs = Prec::Cmp < parent;
            if needs {
                out.push('(');
            }
            write_expr(expr, Prec::Add, out);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
            if needs {
                out.push(')');
            }
        }
    }
}

fn bump(p: Prec) -> Prec {
    match p {
        Prec::Lowest => Prec::Or,
        Prec::Or => Prec::And,
        Prec::And => Prec::Not,
        Prec::Not => Prec::Cmp,
        Prec::Cmp => Prec::Add,
        Prec::Add => Prec::Mul,
        Prec::Mul => Prec::Unary,
        Prec::Unary => Prec::Unary,
    }
}

fn write_literal(lit: &Literal, out: &mut String) {
    match lit {
        Literal::Null => out.push_str("NULL"),
        Literal::Bool(true) => out.push_str("TRUE"),
        Literal::Bool(false) => out.push_str("FALSE"),
        Literal::Int(v) => {
            let _ = write!(out, "{v}");
        }
        // A float re-parses as the same float: an integral one keeps a
        // trailing `.0` below 1e15 and takes an exponent from there on
        // (`9.3e18`; written out in full it would read back as an Int, or
        // not at all past `i64`). NaN and ±inf have no spelling in this
        // dialect: they print as `NaN` / `inf` and do not re-parse.
        Literal::Float(v) => {
            let _ = if v.fract() != 0.0 {
                write!(out, "{v}")
            } else if v.abs() < 1e15 {
                write!(out, "{v:.1}")
            } else {
                write!(out, "{v:e}")
            };
        }
        Literal::Str(s) => {
            out.push('\'');
            for ch in s.chars() {
                if ch == '\'' {
                    out.push('\'');
                }
                out.push(ch);
            }
            out.push('\'');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_select};
    use crate::spelling::same_spelling;

    fn roundtrip_expr(input: &str) {
        let e = parse_expr(input).unwrap();
        let printed = print_expr(&e);
        let reparsed = parse_expr(&printed).unwrap();
        assert_eq!(
            e, reparsed,
            "round-trip failed for `{input}` -> `{printed}`"
        );
    }

    fn roundtrip_select(input: &str) {
        let q = parse_select(input).unwrap();
        let printed = print_select(&q);
        let reparsed = parse_select(&printed).unwrap();
        assert_eq!(
            q, reparsed,
            "round-trip failed for `{input}` -> `{printed}`"
        );
    }

    #[test]
    fn prints_canonical_select() {
        let q = parse_select(
            "select  queue ,  count( * ) as n from cs where queue in('A')  group by queue",
        )
        .unwrap();
        assert_eq!(
            print_select(&q),
            "SELECT queue, COUNT(*) AS n FROM cs WHERE queue IN ('A') GROUP BY queue"
        );
    }

    #[test]
    fn roundtrips_representative_expressions() {
        for s in [
            "a + b * c",
            "(a + b) * c",
            "a - (b - c)",
            "a - b - c",
            "a / b / c",
            "NOT a = 1 AND b = 2",
            "NOT (a = 1 AND b = 2)",
            "x BETWEEN 1 AND 5 OR y IN ('p', 'q')",
            "SUM(x) / COUNT(*) >= 0.5",
            "x IS NOT NULL",
            "-x + 3",
            "COUNT(DISTINCT rep)",
            "(a = 1 OR b = 2) AND c = 3",
        ] {
            roundtrip_expr(s);
        }
    }

    #[test]
    fn roundtrips_representative_selects() {
        for s in [
            "SELECT a FROM t",
            "SELECT a, b, COUNT(*) FROM t WHERE a > 1 GROUP BY a, b",
            "SELECT hour, COUNT(*) AS call_volume, SUM(abandoned) AS call_abandonment \
             FROM customer_service GROUP BY hour",
            "SELECT queue, COUNT(lostCalls) FROM customer_service GROUP BY queue \
             HAVING COUNT(lostCalls) > 1",
            "SELECT a FROM t ORDER BY a DESC LIMIT 3",
        ] {
            roundtrip_select(s);
        }
    }

    #[test]
    fn string_escaping_roundtrips() {
        roundtrip_expr("name = 'O''Brien'");
    }

    #[test]
    fn float_keeps_decimal_point() {
        assert_eq!(print_expr(&Expr::float(2.0)), "2.0");
        assert_eq!(print_expr(&Expr::float(2.5)), "2.5");
    }

    /// Past 1e15 an integral float prints with an exponent, and reads back
    /// as the same `f64`, not as an Int or a parse error. The round trip is
    /// checked by spelling: under `==`, `Int(10^15)` equals `Float(1e15)`.
    #[test]
    fn large_integral_floats_roundtrip_as_floats() {
        for (v, printed) in [
            (1e15, "1e15"),
            (9_007_199_254_740_992.0, "9.007199254740992e15"),
            (9.3e18, "9.3e18"),
            (-1e300, "-1e300"),
            (999_999_999_999_999.0, "999999999999999.0"),
        ] {
            let e = Expr::binary(Expr::col("x"), BinOp::Gt, Expr::float(v));
            let text = print_expr(&e);
            let reparsed = parse_expr(&text).unwrap_or_else(|err| panic!("{text}: {err}"));
            assert!(
                same_spelling(&reparsed, &e),
                "{text} reads back as {reparsed:?}"
            );
            assert_eq!(text, format!("x > {printed}"));
        }
    }

    #[test]
    fn whitespace_insensitive_inputs_print_identically() {
        let a = parse_select("SELECT a,b FROM t WHERE x=1").unwrap();
        let b = parse_select("select   a , b   from t   where x = 1").unwrap();
        assert_eq!(print_select(&a), print_select(&b));
    }
}
