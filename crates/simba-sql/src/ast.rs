//! Abstract syntax tree for the SQL fragment emitted by dashboards.
//!
//! The fragment is deliberately constrained (single-table SELECT with
//! conjunctive predicates, grouping, and aggregation) — the paper's formative
//! study (§2.1) found that dashboard queries "maintain a consistent
//! structure", and this AST captures exactly that structure.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A SQL literal value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Literal {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

impl Literal {
    /// Numeric value of the literal if it is `Int` or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Literal::Int(v) => Some(*v as f64),
            Literal::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// True if two literals denote the same value, treating `1` and `1.0`
    /// as equal.
    pub fn same_value(&self, other: &Literal) -> bool {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => a == b,
            _ => self == other,
        }
    }
}

impl PartialEq for Literal {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Literal {}

impl PartialOrd for Literal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Literal {
    fn cmp(&self, other: &Self) -> Ordering {
        use Literal::*;
        fn rank(l: &Literal) -> u8 {
            match l {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl std::hash::Hash for Literal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Literal::Null => 0u8.hash(state),
            Literal::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float hash identically when they denote the same value
            // so that `same_value` equality is hash-consistent.
            Literal::Int(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Literal::Float(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            Literal::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BinOp {
    Or,
    And,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    /// SQL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }

    /// True for `=`, `<>`, `<`, `<=`, `>`, `>=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// True for `+`, `-`, `*`, `/`.
    pub fn is_arithmetic(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
    }

    /// Mirror a comparison across its operands (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    }

    /// True if the operator is commutative (`a op b` = `b op a`).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Or | BinOp::And | BinOp::Eq | BinOp::NotEq | BinOp::Add | BinOp::Mul
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// Built-in functions: the aggregates and scalar (date-part / binning)
/// functions that dashboard queries use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Func {
    // Aggregates.
    Count,
    Sum,
    Avg,
    Min,
    Max,
    // Scalar date-part extraction (operate on temporal columns).
    Year,
    Month,
    Day,
    Hour,
    DayOfWeek,
    // Binned aggregation support: `BIN(expr, width)` floors the expression
    // to a multiple of `width` (IDEBench-style binning).
    Bin,
    // Absolute value; used by derived/computed fields.
    Abs,
}

impl Func {
    /// True for `COUNT`, `SUM`, `AVG`, `MIN`, `MAX`.
    pub fn is_aggregate(self) -> bool {
        matches!(
            self,
            Func::Count | Func::Sum | Func::Avg | Func::Min | Func::Max
        )
    }

    /// SQL spelling of the function name.
    pub fn name(self) -> &'static str {
        match self {
            Func::Count => "COUNT",
            Func::Sum => "SUM",
            Func::Avg => "AVG",
            Func::Min => "MIN",
            Func::Max => "MAX",
            Func::Year => "YEAR",
            Func::Month => "MONTH",
            Func::Day => "DAY",
            Func::Hour => "HOUR",
            Func::DayOfWeek => "DAYOFWEEK",
            Func::Bin => "BIN",
            Func::Abs => "ABS",
        }
    }

    /// Parse a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Func> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => Func::Count,
            "SUM" => Func::Sum,
            "AVG" => Func::Avg,
            "MIN" => Func::Min,
            "MAX" => Func::Max,
            "YEAR" => Func::Year,
            "MONTH" => Func::Month,
            "DAY" => Func::Day,
            "HOUR" => Func::Hour,
            "DAYOFWEEK" => Func::DayOfWeek,
            "BIN" => Func::Bin,
            "ABS" => Func::Abs,
            _ => return None,
        })
    }
}

/// A SQL scalar or aggregate expression.
///
/// `==` is value equality, not identity: it compares literals with
/// [`Literal`]'s `==`, under which `1` equals `1.0`, so `SUM(x + 1)` and
/// `SUM(x + 1.0)` compare equal although they print, type and aggregate
/// differently. The exact identity of an expression as written is
/// [`Spelling`](crate::Spelling), and [`same_spelling`](crate::same_spelling)
/// compares two expressions by it; a lookup that must find the slot an
/// expression was written for uses that.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// A column reference. Column names are compared case-insensitively by
    /// the normalizer; the AST preserves the spelling it was built with.
    Column(String),
    /// A literal constant.
    Literal(Literal),
    /// `COUNT(*)`.
    Wildcard,
    /// Unary operator application.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Binary operator application.
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    /// Function call; `distinct` is only meaningful for aggregates.
    Function {
        func: Func,
        args: Vec<Expr>,
        distinct: bool,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
}

impl Expr {
    /// Convenience constructor for a column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Convenience constructor for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    /// Convenience constructor for a float literal.
    pub fn float(v: f64) -> Expr {
        Expr::Literal(Literal::Float(v))
    }

    /// Convenience constructor for a string literal.
    pub fn str(v: impl Into<String>) -> Expr {
        Expr::Literal(Literal::Str(v.into()))
    }

    /// Convenience constructor for a binary operation.
    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(self, BinOp::And, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::binary(self, BinOp::Or, other)
    }

    /// `func(expr)` aggregate call.
    pub fn agg(func: Func, arg: Expr) -> Expr {
        Expr::Function {
            func,
            args: vec![arg],
            distinct: false,
        }
    }

    /// `COUNT(*)`.
    pub fn count_star() -> Expr {
        Expr::Function {
            func: Func::Count,
            args: vec![Expr::Wildcard],
            distinct: false,
        }
    }

    /// `expr IN (values)` where values are string literals.
    pub fn in_strs<I: IntoIterator<Item = S>, S: Into<String>>(col: &str, values: I) -> Expr {
        Expr::InList {
            expr: Box::new(Expr::col(col)),
            list: values.into_iter().map(Expr::str).collect(),
            negated: false,
        }
    }

    /// True if the expression contains an aggregate function call anywhere.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { func, args, .. } => {
                func.is_aggregate() || args.iter().any(Expr::contains_aggregate)
            }
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => false,
        }
    }

    /// Append all column names referenced by the expression to `out`.
    pub fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Column(name) => out.push(name),
            Expr::Literal(_) | Expr::Wildcard => {}
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::IsNull { expr, .. } => expr.collect_columns(out),
        }
    }

    /// All column names referenced by the expression, deduplicated, in
    /// first-appearance order.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut cols = Vec::new();
        self.collect_columns(&mut cols);
        let mut seen = std::collections::HashSet::new();
        cols.retain(|c| seen.insert(*c));
        cols
    }

    /// Split a predicate tree into its top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } = e
            {
                walk(left, out);
                walk(right, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Combine predicates with `AND`; `None` if the input is empty.
    pub fn conjoin(preds: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        preds.into_iter().reduce(Expr::and)
    }
}

/// One item of the `SELECT` list.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

impl SelectItem {
    /// An item without an alias.
    pub fn bare(expr: Expr) -> Self {
        Self { expr, alias: None }
    }

    /// An item with an alias (`expr AS alias`).
    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Self {
        Self {
            expr,
            alias: Some(alias.into()),
        }
    }

    /// The output column name: the alias if present, otherwise the canonical
    /// printed form of the expression.
    pub fn output_name(&self) -> String {
        match &self.alias {
            Some(a) => a.clone(),
            None => crate::printer::print_expr(&self.expr),
        }
    }
}

/// One `ORDER BY` term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OrderByExpr {
    pub expr: Expr,
    pub asc: bool,
}

/// A complete `SELECT` statement over a single (denormalized) table.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Select {
    pub projections: Vec<SelectItem>,
    pub from: String,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderByExpr>,
    pub limit: Option<u64>,
}

impl Select {
    /// A minimal `SELECT` over `table` with the given projections.
    pub fn new(table: impl Into<String>, projections: Vec<SelectItem>) -> Self {
        Self {
            projections,
            from: table.into(),
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        }
    }

    /// True if any projection or the HAVING clause aggregates.
    pub fn is_aggregate_query(&self) -> bool {
        !self.group_by.is_empty()
            || self.projections.iter().any(|p| p.expr.contains_aggregate())
            || self.having.as_ref().is_some_and(Expr::contains_aggregate)
    }

    /// All column names referenced anywhere in the statement, deduplicated.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut cols = Vec::new();
        for item in &self.projections {
            item.expr.collect_columns(&mut cols);
        }
        if let Some(w) = &self.where_clause {
            w.collect_columns(&mut cols);
        }
        for g in &self.group_by {
            g.collect_columns(&mut cols);
        }
        if let Some(h) = &self.having {
            h.collect_columns(&mut cols);
        }
        for o in &self.order_by {
            o.expr.collect_columns(&mut cols);
        }
        let mut seen = std::collections::HashSet::new();
        cols.retain(|c| seen.insert(*c));
        cols
    }

    /// Top-level conjuncts of the WHERE clause (empty when absent).
    pub fn filters(&self) -> Vec<&Expr> {
        self.where_clause
            .as_ref()
            .map(|w| w.conjuncts())
            .unwrap_or_default()
    }

    /// Add one conjunct to the WHERE clause.
    pub fn add_filter(&mut self, predicate: Expr) {
        self.where_clause = Some(match self.where_clause.take() {
            Some(w) => w.and(predicate),
            None => predicate,
        });
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::print_select(self))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::print_expr(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_ordering_mixes_int_and_float() {
        assert_eq!(Literal::Int(3).cmp(&Literal::Float(3.0)), Ordering::Equal);
        assert!(Literal::Int(2) < Literal::Float(2.5));
        assert!(Literal::Null < Literal::Int(0));
        assert!(Literal::Int(1) < Literal::Str("a".into()));
    }

    #[test]
    fn literal_same_value_across_types() {
        assert!(Literal::Int(4).same_value(&Literal::Float(4.0)));
        assert!(!Literal::Int(4).same_value(&Literal::Str("4".into())));
    }

    #[test]
    fn conjunct_splitting_flattens_nested_ands() {
        let e = Expr::col("a")
            .and(Expr::col("b").and(Expr::col("c")))
            .and(Expr::col("d"));
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 4);
    }

    #[test]
    fn conjoin_rebuilds_predicate() {
        let parts = vec![Expr::col("a"), Expr::col("b")];
        let e = Expr::conjoin(parts).unwrap();
        assert_eq!(e.conjuncts().len(), 2);
        assert!(Expr::conjoin(std::iter::empty()).is_none());
    }

    #[test]
    fn aggregate_detection() {
        let q = Select::new("t", vec![SelectItem::bare(Expr::count_star())]);
        assert!(q.is_aggregate_query());
        let q2 = Select::new("t", vec![SelectItem::bare(Expr::col("a"))]);
        assert!(!q2.is_aggregate_query());
    }

    #[test]
    fn referenced_columns_deduplicates() {
        let mut q = Select::new(
            "t",
            vec![
                SelectItem::bare(Expr::col("a")),
                SelectItem::bare(Expr::agg(Func::Sum, Expr::col("b"))),
            ],
        );
        q.add_filter(Expr::binary(Expr::col("a"), BinOp::Gt, Expr::int(1)));
        q.group_by.push(Expr::col("a"));
        let cols = q.referenced_columns();
        assert_eq!(cols, vec!["a", "b"]);
    }

    #[test]
    fn add_filter_appends_conjuncts() {
        let mut q = Select::new("t", vec![SelectItem::bare(Expr::col("a"))]);
        q.add_filter(Expr::binary(Expr::col("a"), BinOp::Eq, Expr::int(1)));
        q.add_filter(Expr::binary(Expr::col("b"), BinOp::Eq, Expr::int(2)));
        assert_eq!(q.filters().len(), 2);
    }

    #[test]
    fn binop_flip_mirrors_comparisons() {
        assert_eq!(BinOp::Lt.flip(), BinOp::Gt);
        assert_eq!(BinOp::GtEq.flip(), BinOp::LtEq);
        assert_eq!(BinOp::Eq.flip(), BinOp::Eq);
    }

    #[test]
    fn output_name_prefers_alias() {
        let item = SelectItem::aliased(Expr::count_star(), "total");
        assert_eq!(item.output_name(), "total");
        let bare = SelectItem::bare(Expr::col("x"));
        assert_eq!(bare.output_name(), "x");
    }
}
