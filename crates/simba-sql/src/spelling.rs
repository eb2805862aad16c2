//! A query's exact identity as written.
//!
//! [`Expr`]'s derived `==` is value equality: [`Literal`]'s `==` makes `1`
//! equal `1.0`, so two queries that print differently can compare equal.
//! [`Spelling`] is the exact identity instead: one injective byte encoding of
//! a [`Select`] — variant tags, length-prefixed strings in their written
//! case, Int bytes, Float bits, aliases, ORDER BY directions, LIMIT — under
//! which `1 ≠ 1.0`, `0.0 ≠ -0.0` and NaN payloads differ. Two queries share a
//! spelling exactly when they are identical as written, so anything that is
//! a pure function of the written query (its result-cache key) may be
//! memoized on it. [`Spelling::of_shape`] is the same encoding without the
//! WHERE: a query's shape, on which a planner memoizes what it compiles
//! from the other clauses. [`same_spelling`] answers the same question for
//! two expressions without building either encoding.
//!
//! The encoder destructures every node exhaustively, without a `..` or a
//! wildcard arm, so a field or variant added to the AST fails to compile
//! here until it is encoded (or, for the shape's WHERE, named as skipped).

use crate::ast::*;

/// The exact identity of a query or expression as written: its bytes are an
/// injective, prefix-free encoding of the tree, so equal spellings mean
/// identical trees, literal types and bits included.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Spelling(Box<[u8]>);

impl Spelling {
    /// The spelling of a whole `SELECT`.
    pub fn of(q: &Select) -> Spelling {
        let mut out = Encoder(Vec::with_capacity(128));
        out.select(q);
        Spelling(out.0.into_boxed_slice())
    }

    /// The spelling of `q`'s shape: every clause but the WHERE, as written.
    /// Queries that differ only in their WHERE share it, so anything a
    /// planner derives from the other clauses alone may be memoized on it.
    pub fn of_shape(q: &Select) -> Spelling {
        let mut out = Encoder(Vec::with_capacity(128));
        out.shape(q);
        Spelling(out.0.into_boxed_slice())
    }

    /// The spelling of one expression.
    pub fn of_expr(e: &Expr) -> Spelling {
        let mut out = Encoder(Vec::with_capacity(32));
        out.expr(e);
        Spelling(out.0.into_boxed_slice())
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

struct Encoder(Vec<u8>);

impl Encoder {
    /// LEB128: prefix-free, one byte below 128.
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }

    fn flag(&mut self, b: bool) {
        self.0.push(u8::from(b));
    }

    fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }

    fn option<T>(&mut self, v: Option<&T>, mut put: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.0.push(0),
            Some(v) => {
                self.0.push(1);
                put(self, v);
            }
        }
    }

    fn list<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.varint(items.len() as u64);
        for item in items {
            put(self, item);
        }
    }

    fn select(&mut self, q: &Select) {
        let Select {
            projections,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        } = q;
        self.head(projections, from);
        self.option(where_clause.as_ref(), Self::expr);
        self.tail(group_by, having.as_ref(), order_by, limit.as_ref());
    }

    /// [`select`](Self::select) without the WHERE.
    fn shape(&mut self, q: &Select) {
        let Select {
            projections,
            from,
            where_clause: _,
            group_by,
            having,
            order_by,
            limit,
        } = q;
        self.head(projections, from);
        self.tail(group_by, having.as_ref(), order_by, limit.as_ref());
    }

    /// The clauses before the WHERE: SELECT and FROM.
    fn head(&mut self, projections: &[SelectItem], from: &str) {
        self.list(projections, |out, item| {
            let SelectItem { expr, alias } = item;
            out.expr(expr);
            out.option(alias.as_ref(), |out, a| out.str(a));
        });
        self.str(from);
    }

    /// The clauses after the WHERE: GROUP BY, HAVING, ORDER BY and LIMIT.
    fn tail(
        &mut self,
        group_by: &[Expr],
        having: Option<&Expr>,
        order_by: &[OrderByExpr],
        limit: Option<&u64>,
    ) {
        self.list(group_by, Self::expr);
        self.option(having, Self::expr);
        self.list(order_by, |out, o| {
            let OrderByExpr { expr, asc } = o;
            out.expr(expr);
            out.flag(*asc);
        });
        self.option(limit, |out, l| out.varint(*l));
    }

    fn literal(&mut self, lit: &Literal) {
        match lit {
            Literal::Null => self.0.push(0),
            Literal::Bool(b) => {
                self.0.push(1);
                self.flag(*b);
            }
            Literal::Int(v) => {
                self.0.push(2);
                self.0.extend_from_slice(&v.to_le_bytes());
            }
            Literal::Float(v) => {
                self.0.push(3);
                self.0.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Literal::Str(s) => {
                self.0.push(4);
                self.str(s);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Column(name) => {
                self.0.push(0);
                self.str(name);
            }
            Expr::Literal(lit) => {
                self.0.push(1);
                self.literal(lit);
            }
            Expr::Wildcard => self.0.push(2),
            Expr::Unary { op, expr } => {
                self.0.extend_from_slice(&[3, *op as u8]);
                self.expr(expr);
            }
            Expr::Binary { left, op, right } => {
                self.0.extend_from_slice(&[4, *op as u8]);
                self.expr(left);
                self.expr(right);
            }
            Expr::Function {
                func,
                args,
                distinct,
            } => {
                self.0.extend_from_slice(&[5, *func as u8]);
                self.flag(*distinct);
                self.list(args, Self::expr);
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                self.0.push(6);
                self.flag(*negated);
                self.expr(expr);
                self.list(list, Self::expr);
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                self.0.push(7);
                self.flag(*negated);
                self.expr(expr);
                self.expr(low);
                self.expr(high);
            }
            Expr::IsNull { expr, negated } => {
                self.0.push(8);
                self.flag(*negated);
                self.expr(expr);
            }
        }
    }
}

/// `Spelling::of_expr(a) == Spelling::of_expr(b)`, walked without
/// allocating: the comparison a planner uses to find the slot an expression
/// was written for.
pub fn same_spelling(a: &Expr, b: &Expr) -> bool {
    match a {
        Expr::Column(x) => matches!(b, Expr::Column(y) if x == y),
        Expr::Literal(x) => matches!(b, Expr::Literal(y) if same_literal(x, y)),
        Expr::Wildcard => matches!(b, Expr::Wildcard),
        Expr::Unary { op, expr } => matches!(
            b,
            Expr::Unary { op: op2, expr: expr2 } if op == op2 && same_spelling(expr, expr2)
        ),
        Expr::Binary { left, op, right } => matches!(
            b,
            Expr::Binary { left: left2, op: op2, right: right2 }
                if op == op2 && same_spelling(left, left2) && same_spelling(right, right2)
        ),
        Expr::Function {
            func,
            args,
            distinct,
        } => matches!(
            b,
            Expr::Function { func: func2, args: args2, distinct: distinct2 }
                if func == func2 && distinct == distinct2 && same_list(args, args2)
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => matches!(
            b,
            Expr::InList { expr: expr2, list: list2, negated: negated2 }
                if negated == negated2 && same_spelling(expr, expr2) && same_list(list, list2)
        ),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => matches!(
            b,
            Expr::Between { expr: expr2, low: low2, high: high2, negated: negated2 }
                if negated == negated2
                    && same_spelling(expr, expr2)
                    && same_spelling(low, low2)
                    && same_spelling(high, high2)
        ),
        Expr::IsNull { expr, negated } => matches!(
            b,
            Expr::IsNull { expr: expr2, negated: negated2 }
                if negated == negated2 && same_spelling(expr, expr2)
        ),
    }
}

fn same_list(a: &[Expr], b: &[Expr]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_spelling(x, y))
}

fn same_literal(a: &Literal, b: &Literal) -> bool {
    match a {
        Literal::Null => matches!(b, Literal::Null),
        Literal::Bool(x) => matches!(b, Literal::Bool(y) if x == y),
        Literal::Int(x) => matches!(b, Literal::Int(y) if x == y),
        Literal::Float(x) => matches!(b, Literal::Float(y) if x.to_bits() == y.to_bits()),
        Literal::Str(x) => matches!(b, Literal::Str(y) if x == y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_select};

    fn spelled(sql: &str) -> Spelling {
        Spelling::of(&parse_select(sql).unwrap())
    }

    /// What value equality conflates, the spelling keeps apart.
    #[test]
    fn literals_differ_by_type_sign_and_payload() {
        let nan = |payload: u64| Expr::float(f64::from_bits(0x7ff8_0000_0000_0000 | payload));
        for (a, b) in [
            (Expr::int(1), Expr::float(1.0)),
            (Expr::float(0.0), Expr::float(-0.0)),
            (nan(1), nan(2)),
            (Expr::int(1 << 53), Expr::float((1u64 << 53) as f64)),
        ] {
            assert!(!same_spelling(&a, &b), "{a:?} {b:?}");
            assert_ne!(Spelling::of_expr(&a), Spelling::of_expr(&b));
        }
        assert_eq!(Expr::int(1), Expr::float(1.0), "`==` is value equality");
        assert!(same_spelling(&nan(3), &nan(3)));
    }

    #[test]
    fn written_case_aliases_order_and_limit_count() {
        let base = spelled("SELECT queue, COUNT(*) FROM cs WHERE a = 1 AND b = 2 GROUP BY queue");
        for other in [
            "SELECT QUEUE, COUNT(*) FROM cs WHERE a = 1 AND b = 2 GROUP BY queue",
            "SELECT queue, COUNT(*) FROM CS WHERE a = 1 AND b = 2 GROUP BY queue",
            "SELECT queue, COUNT(*) AS n FROM cs WHERE a = 1 AND b = 2 GROUP BY queue",
            "SELECT queue, COUNT(*) FROM cs WHERE b = 2 AND a = 1 GROUP BY queue",
            "SELECT queue, COUNT(*) FROM cs WHERE a = 1 AND b = 2 GROUP BY queue ORDER BY queue",
            "SELECT queue, COUNT(*) FROM cs WHERE a = 1 AND b = 2 GROUP BY queue LIMIT 0",
            "SELECT queue, COUNT(*) FROM cs WHERE a = 1.0 AND b = 2 GROUP BY queue",
        ] {
            assert_ne!(base, spelled(other), "{other}");
        }
        assert_ne!(
            spelled("SELECT a FROM t ORDER BY a ASC"),
            spelled("SELECT a FROM t ORDER BY a DESC")
        );
        // Whitespace and keyword case are not part of the tree.
        assert_eq!(
            base,
            spelled("select queue , count( * ) from cs where a=1 and b=2 group by queue")
        );
    }

    /// A shape is every clause but the WHERE: the WHERE alone never
    /// changes it, and each other clause does.
    #[test]
    fn a_shape_is_everything_but_the_where() {
        let shape = |sql: &str| Spelling::of_shape(&parse_select(sql).unwrap());
        let base = "SELECT queue, COUNT(*) FROM cs WHERE a = 1 GROUP BY queue";
        for same in [
            "SELECT queue, COUNT(*) FROM cs GROUP BY queue",
            "SELECT queue, COUNT(*) FROM cs WHERE a = 1.0 AND b > 2 GROUP BY queue",
        ] {
            assert_eq!(shape(base), shape(same), "{same}");
        }
        for other in [
            "SELECT queue, COUNT(*) AS n FROM cs WHERE a = 1 GROUP BY queue",
            "SELECT Queue, COUNT(*) FROM cs WHERE a = 1 GROUP BY queue",
            "SELECT queue, COUNT(*) FROM CS WHERE a = 1 GROUP BY queue",
            "SELECT queue, COUNT(*) FROM cs WHERE a = 1 GROUP BY queue HAVING COUNT(*) > 1",
            "SELECT queue, COUNT(*) FROM cs WHERE a = 1 GROUP BY queue ORDER BY queue",
            "SELECT queue, COUNT(*) FROM cs WHERE a = 1 GROUP BY queue ORDER BY queue DESC",
            "SELECT queue, COUNT(*) FROM cs WHERE a = 1 GROUP BY queue LIMIT 3",
        ] {
            assert_ne!(shape(base), shape(other), "{other}");
        }
        assert_ne!(
            shape("SELECT calls + 1 FROM cs"),
            shape("SELECT calls + 1.0 FROM cs")
        );
    }

    /// Adjacent strings cannot trade bytes: every string is length-prefixed.
    #[test]
    fn strings_are_length_prefixed() {
        let a = parse_expr("x IN ('ab', 'c')").unwrap();
        let b = parse_expr("x IN ('a', 'bc')").unwrap();
        assert_ne!(Spelling::of_expr(&a), Spelling::of_expr(&b));
        assert!(!same_spelling(&a, &b));
    }
}
