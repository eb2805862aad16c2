//! Fluent builder for `SELECT` statements.
//!
//! The interaction graph's data layer (§3.0.3) assembles queries
//! programmatically from node properties; this builder keeps that code
//! readable.

use crate::ast::*;

/// Builder for [`Select`]. Construct with [`Select::builder`] or
/// [`SelectBuilder::new`].
#[derive(Debug, Clone)]
pub struct SelectBuilder {
    select: Select,
}

impl Select {
    /// Start building a query over `table`.
    pub fn builder(table: impl Into<String>) -> SelectBuilder {
        SelectBuilder::new(table)
    }
}

impl SelectBuilder {
    /// Start building a query over `table`.
    pub fn new(table: impl Into<String>) -> Self {
        Self {
            select: Select::new(table, Vec::new()),
        }
    }

    /// Project a bare column.
    pub fn column(mut self, name: impl Into<String>) -> Self {
        self.select
            .projections
            .push(SelectItem::bare(Expr::col(name.into())));
        self
    }

    /// Project an arbitrary expression.
    pub fn project(mut self, expr: Expr) -> Self {
        self.select.projections.push(SelectItem::bare(expr));
        self
    }

    /// Project an expression with an alias.
    pub fn project_as(mut self, expr: Expr, alias: impl Into<String>) -> Self {
        self.select
            .projections
            .push(SelectItem::aliased(expr, alias));
        self
    }

    /// Project `COUNT(*)`.
    pub fn count_star(mut self) -> Self {
        self.select
            .projections
            .push(SelectItem::bare(Expr::count_star()));
        self
    }

    /// Add one WHERE conjunct.
    pub fn filter(mut self, predicate: Expr) -> Self {
        self.select.add_filter(predicate);
        self
    }

    /// Add `column = value` to the WHERE clause.
    pub fn filter_eq(self, column: &str, value: Literal) -> Self {
        self.filter(Expr::binary(
            Expr::col(column),
            BinOp::Eq,
            Expr::Literal(value),
        ))
    }

    /// Add `column IN (values)` to the WHERE clause.
    pub fn filter_in<I, S>(self, column: &str, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.filter(Expr::in_strs(column, values))
    }

    /// Add `column BETWEEN low AND high` to the WHERE clause.
    pub fn filter_between(self, column: &str, low: Literal, high: Literal) -> Self {
        self.filter(Expr::Between {
            expr: Box::new(Expr::col(column)),
            low: Box::new(Expr::Literal(low)),
            high: Box::new(Expr::Literal(high)),
            negated: false,
        })
    }

    /// Group by a column.
    pub fn group_by(mut self, column: impl Into<String>) -> Self {
        self.select.group_by.push(Expr::col(column.into()));
        self
    }

    /// Set the HAVING clause (conjoined with any existing one).
    pub fn having(mut self, predicate: Expr) -> Self {
        self.select.having = Some(match self.select.having.take() {
            Some(h) => h.and(predicate),
            None => predicate,
        });
        self
    }

    /// Append an ORDER BY term.
    pub fn order_by(mut self, expr: Expr, asc: bool) -> Self {
        self.select.order_by.push(OrderByExpr { expr, asc });
        self
    }

    /// Set the LIMIT.
    pub fn limit(mut self, n: u64) -> Self {
        self.select.limit = Some(n);
        self
    }

    /// Finish building.
    pub fn build(self) -> Select {
        self.select
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_select;

    #[test]
    fn builds_paper_goal_query() {
        // §2.3: SELECT hour, COUNT(*) AS call_volume, SUM(abandoned) AS
        // call_abandonment FROM customer_service GROUP BY hour
        let q = Select::builder("customer_service")
            .column("hour")
            .project_as(Expr::count_star(), "call_volume")
            .project_as(
                Expr::agg(Func::Sum, Expr::col("abandoned")),
                "call_abandonment",
            )
            .group_by("hour")
            .build();
        assert_eq!(
            print_select(&q),
            "SELECT hour, COUNT(*) AS call_volume, SUM(abandoned) AS call_abandonment \
             FROM customer_service GROUP BY hour"
        );
    }

    #[test]
    fn builds_filters_incrementally() {
        let q = Select::builder("cs")
            .count_star()
            .filter_in("queue", ["A"])
            .filter_eq("direction", Literal::Str("in".into()))
            .build();
        assert_eq!(q.filters().len(), 2);
    }

    #[test]
    fn builds_having_and_order() {
        let q = Select::builder("cs")
            .column("queue")
            .count_star()
            .group_by("queue")
            .having(Expr::binary(Expr::count_star(), BinOp::Gt, Expr::int(1)))
            .order_by(Expr::count_star(), false)
            .limit(5)
            .build();
        assert!(q.having.is_some());
        assert_eq!(q.limit, Some(5));
        assert!(!q.order_by[0].asc);
    }

    #[test]
    fn between_builder_roundtrips() {
        let q = Select::builder("t")
            .column("x")
            .filter_between("x", Literal::Int(1), Literal::Int(10))
            .build();
        let text = print_select(&q);
        assert!(text.contains("BETWEEN 1 AND 10"), "{text}");
    }
}
