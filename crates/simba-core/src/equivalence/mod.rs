//! Query equivalence and subsumption (§4.1.2 of the paper).
//!
//! Goal completion is decided three ways, in increasing cost:
//!
//! 1. **Syntactic** — canonical text equality, or >95 % string similarity
//!    after whitespace normalization (the paper's SPES fallback rule);
//! 2. **Semantic** — normal-form equality and sound subsumption reasoning
//!    (our substitute for the SPES solver, see DESIGN.md §3);
//! 3. **Result** — executed result-set coverage through
//!    [`CoverageStore`].
//!
//! The semantic checks compare [`NormalizedSelect`]s and never normalize
//! SQL themselves: a [`GoalChecker`] holds its goal's form from
//! construction, a session builds each emitted query's form once and hands
//! it to every goal's [`check_observed`](GoalChecker::check_observed) and to
//! [`augment`]. A caller comparing two queries once builds both forms with
//! [`NormalizedSelect::from_select`].

pub mod progress;

use simba_sql::printer::{print_expr, print_select};
use simba_sql::similarity::nearly_identical;
use simba_sql::{BinOp, Expr, Literal, NormalizedSelect, Select};
use simba_store::{CoverageStore, ResultSet, Value};

/// Which equivalence method established a match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Syntactic,
    Semantic,
    Result,
}

impl Method {
    /// Stable name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Method::Syntactic => "syntactic",
            Method::Semantic => "semantic",
            Method::Result => "result",
        }
    }
}

/// Syntactic equivalence: identical canonical text, or nearly identical
/// under the >95 % similarity rule.
pub fn syntactic_equivalent(a: &Select, b: &Select) -> bool {
    same_text(&print_select(a), &print_select(b))
}

/// [`syntactic_equivalent`] over two printed queries.
fn same_text(a: &str, b: &str) -> bool {
    a == b || nearly_identical(a, b)
}

/// Sound semantic subsumption: does `observed`'s result set necessarily
/// contain `goal`'s?
///
/// * Projection-only queries: `goal`'s projections must be a subset of
///   `observed`'s and `goal`'s WHERE must imply `observed`'s.
/// * Aggregate queries: aggregates are only comparable when computed over
///   the same input rows, so WHERE must match exactly, grouping must match,
///   and `goal`'s projections must be a subset; `observed`'s HAVING must be
///   absent or implied by `goal`'s.
///
/// Incomplete by design — a `false` means "could not prove".
pub fn subsumes(observed: &NormalizedSelect, goal: &NormalizedSelect) -> bool {
    // A LIMIT on the observed side can drop goal rows.
    if observed.table() != goal.table() || observed.limit().is_some() {
        return false;
    }
    if !goal.projection_set().is_subset(&observed.projection_set()) {
        return false;
    }
    if goal.is_aggregate() != observed.is_aggregate() {
        return false;
    }
    if !goal.is_aggregate() {
        return goal.refines(observed);
    }
    // Aggregate case: identical input rows and grouping required.
    if observed.filter() != goal.filter() || observed.group_set() != goal.group_set() {
        return false;
    }
    observed.having().is_absent()
        || (!goal.having().is_absent() && goal.having().implies(observed.having()))
}

/// Is `observed` a *fragment* of `goal` — a restriction of the goal query to
/// a subset of its groups (e.g. one queue of the Figure 3 goal)? Fragments
/// cover part of the goal result; a union of fragments can complete it.
///
/// Sound rule: identical grouping and projections-modulo-extra-filters,
/// where every extra conjunct in `observed` constrains only group-key
/// expressions (so surviving groups keep identical aggregate values).
pub fn fragment_of(observed: &NormalizedSelect, goal: &NormalizedSelect) -> bool {
    if observed.table() != goal.table() || observed.limit().is_some() {
        return false;
    }
    if !goal.is_aggregate() || !observed.is_aggregate() {
        return false;
    }
    let group_keys = goal.group_set();
    if observed.group_set() != group_keys {
        return false;
    }
    if !goal.projection_set().is_subset(&observed.projection_set()) {
        return false;
    }
    // Observed conjuncts = goal conjuncts + extras on group keys only.
    let (seen, wanted) = (observed.filter().atoms(), goal.filter().atoms());
    if !wanted.keys().all(|print| seen.contains_key(print)) {
        return false;
    }
    for (_, extra) in seen
        .iter()
        .filter(|(print, _)| !wanted.contains_key(*print))
    {
        let constrained = constrained_expressions(extra);
        if constrained.is_empty() || !constrained.iter().all(|c| group_keys.contains(c.as_str())) {
            return false;
        }
    }
    // HAVING must be identical (or absent from both).
    observed.having() == goal.having()
}

/// The canonical prints of the expressions a conjunctive atom constrains.
fn constrained_expressions(e: &Expr) -> Vec<String> {
    match e {
        Expr::Binary { left, op, .. } if op.is_comparison() => vec![print_expr(left)],
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        }
        | Expr::Binary {
            left,
            op: BinOp::Or,
            right,
        } => {
            let mut out = constrained_expressions(left);
            out.extend(constrained_expressions(right));
            out
        }
        Expr::InList { expr, .. } | Expr::Between { expr, .. } | Expr::IsNull { expr, .. } => {
            vec![print_expr(expr)]
        }
        _ => vec![],
    }
}

/// Augment a query's result with constant columns implied by its
/// single-value equality filters.
///
/// Figure 3 of the paper treats `SELECT COUNT(lostCalls) … WHERE queue IN
/// ('A')` as covering the `(queue='A', count)` row of the goal query — the
/// user *saw* queue A's count even though `queue` is not a result column.
/// This function materializes that context: for every conjunct of the form
/// `expr = literal` (or single-element `IN`), a constant column named by the
/// expression is appended, unless the result already has one.
pub fn augment(query: &NormalizedSelect, mut result: ResultSet) -> ResultSet {
    let mut extra: Vec<(String, Value)> = Vec::new();
    for conjunct in query.filter().atoms().values() {
        let Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = conjunct
        else {
            continue;
        };
        let Expr::Literal(lit) = right.as_ref() else {
            continue;
        };
        if matches!(left.as_ref(), Expr::Literal(_)) {
            continue;
        }
        let name = print_expr(left);
        if result.column_index(&name).is_some()
            || extra.iter().any(|(n, _)| n.eq_ignore_ascii_case(&name))
        {
            continue;
        }
        let value = match lit {
            Literal::Null => Value::Null,
            Literal::Bool(b) => Value::Bool(*b),
            Literal::Int(v) => Value::Int(*v),
            Literal::Float(v) => Value::Float(*v),
            Literal::Str(s) => Value::str(s),
        };
        extra.push((name, value));
    }
    for (name, value) in extra {
        result.push_constant(name, value);
    }
    result
}

/// Tracks progress of one goal query through a session.
#[derive(Debug, Clone)]
pub struct GoalChecker {
    /// The goal query.
    pub goal: Select,
    /// The goal's printed text and normal form, built once: the goal never
    /// changes, every emitted query is checked against it.
    goal_sql: String,
    goal_form: NormalizedSelect,
    /// The goal's executed result set (for the result-equivalence method).
    pub goal_result: ResultSet,
    /// How (and that) the goal was solved.
    pub solved: Option<Method>,
}

impl GoalChecker {
    /// New checker for a goal with its pre-executed result set.
    pub fn new(goal: Select, goal_result: ResultSet) -> Self {
        Self {
            goal_sql: print_select(&goal),
            goal_form: NormalizedSelect::from_select(&goal),
            goal,
            goal_result,
            solved: None,
        }
    }

    /// Check an emitted query, with its normal form, against the goal
    /// (syntactic, then semantic). Returns the matching method if the goal
    /// is newly solved. A session builds `form` once per emitted query and
    /// shares it across all its goals.
    pub fn check_observed(&mut self, query: &Select, form: &NormalizedSelect) -> Option<Method> {
        if self.solved.is_some() {
            return None;
        }
        if same_text(&print_select(query), &self.goal_sql) {
            self.solved = Some(Method::Syntactic);
        } else if form.same_rows(&self.goal_form) || subsumes(form, &self.goal_form) {
            self.solved = Some(Method::Semantic);
        }
        self.solved
    }

    /// Check accumulated result coverage (`∪R_g ⊆ ∪R_i`). Returns the
    /// method if the goal is newly solved.
    pub fn check_result(&mut self, coverage: &CoverageStore) -> Option<Method> {
        if self.solved.is_some() {
            return None;
        }
        if coverage.covers(&self.goal_result) {
            self.solved = Some(Method::Result);
            return self.solved;
        }
        None
    }

    /// Fraction of the goal's result currently covered.
    pub fn coverage_fraction(&self, coverage: &CoverageStore) -> f64 {
        if self.goal_result.is_empty() {
            return if self.solved.is_some() { 1.0 } else { 0.0 };
        }
        coverage.covered_rows(&self.goal_result) as f64 / self.goal_result.n_rows() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_sql::parse_select;
    use simba_store::Value;

    fn q(sql: &str) -> Select {
        parse_select(sql).unwrap()
    }

    fn form(sql: &str) -> NormalizedSelect {
        NormalizedSelect::from_select(&q(sql))
    }

    /// [`GoalChecker::check_observed`] with the form built here.
    fn check(checker: &mut GoalChecker, query: &Select) -> Option<Method> {
        checker.check_observed(query, &NormalizedSelect::from_select(query))
    }

    #[test]
    fn syntactic_catches_whitespace_and_case() {
        assert!(syntactic_equivalent(
            &q("SELECT a FROM t WHERE x = 1"),
            &q("select  a  from  t  where x = 1")
        ));
    }

    #[test]
    fn syntactic_catches_near_identical() {
        let a = q(
            "SELECT queue, hour, call_direction, COUNT(calls) FROM customer_service \
                   WHERE queue IN ('A') GROUP BY queue, hour, call_direction",
        );
        let b = q(
            "SELECT queue, hour, call_direction, COUNT(calls) FROM customer_service \
                   WHERE queue IN ('B') GROUP BY queue, hour, call_direction",
        );
        assert!(syntactic_equivalent(&a, &b), "the paper's >95% rule");
    }

    #[test]
    fn semantic_equivalence_modulo_form() {
        assert!(form("SELECT rep, SUM(c) / COUNT(c) FROM t GROUP BY rep")
            .same_rows(&form("SELECT AVG(c), rep FROM t GROUP BY rep")));
        assert!(!form("SELECT rep, SUM(c) FROM t GROUP BY rep")
            .same_rows(&form("SELECT rep, AVG(c) FROM t GROUP BY rep")));
    }

    #[test]
    fn projection_subsumption_with_weaker_filter() {
        let observed = form("SELECT a, b, c FROM t");
        let goal = form("SELECT a, b FROM t WHERE a > 5");
        assert!(subsumes(&observed, &goal));
        assert!(!subsumes(&goal, &observed));
    }

    #[test]
    fn aggregate_subsumption_requires_equal_filters() {
        let observed = form("SELECT queue, COUNT(*), SUM(x) FROM t GROUP BY queue");
        let goal = form("SELECT queue, COUNT(*) FROM t GROUP BY queue");
        assert!(subsumes(&observed, &goal));
        // Different WHERE on aggregates: unsound, must refuse.
        let observed2 = form("SELECT queue, COUNT(*) FROM t WHERE a > 1 GROUP BY queue");
        assert!(!subsumes(&observed2, &goal));
    }

    #[test]
    fn having_weakening_is_subsumption() {
        let observed = form("SELECT q, COUNT(*) FROM t GROUP BY q HAVING COUNT(*) > 1");
        let goal = form("SELECT q, COUNT(*) FROM t GROUP BY q HAVING COUNT(*) > 5");
        assert!(subsumes(&observed, &goal));
        assert!(!subsumes(&goal, &observed));
    }

    #[test]
    fn limit_blocks_subsumption() {
        let observed = form("SELECT a FROM t LIMIT 10");
        let goal = form("SELECT a FROM t");
        assert!(!subsumes(&observed, &goal));
    }

    #[test]
    fn fragment_detection_figure_3() {
        // The Figure 3 scenario: per-queue restrictions of the goal query
        // are fragments when the filter hits the group key.
        let goal = form("SELECT queue, COUNT(lost_calls) FROM cs GROUP BY queue");
        let frag = form(
            "SELECT queue, COUNT(lost_calls) FROM cs WHERE queue IN ('A', 'B') GROUP BY queue",
        );
        assert!(fragment_of(&frag, &goal));
        // Filtering on a non-key column changes aggregate values: not a fragment.
        let not_frag =
            form("SELECT queue, COUNT(lost_calls) FROM cs WHERE hour > 9 GROUP BY queue");
        assert!(!fragment_of(&not_frag, &goal));
    }

    #[test]
    fn goal_checker_progression() {
        let goal = q("SELECT queue, COUNT(*) FROM t GROUP BY queue");
        let goal_result = ResultSet::new(
            vec!["queue".into(), "COUNT(*)".into()],
            vec![
                vec![Value::str("A"), Value::Int(2)],
                vec![Value::str("B"), Value::Int(1)],
            ],
        );
        let mut checker = GoalChecker::new(goal.clone(), goal_result.clone());

        // Unrelated query: no match.
        assert!(check(&mut checker, &q("SELECT x FROM t")).is_none());
        assert!(checker.solved.is_none());

        // Result coverage path.
        let mut cov = CoverageStore::new();
        cov.absorb(&goal_result);
        assert_eq!(checker.check_result(&cov), Some(Method::Result));
        assert_eq!(checker.solved, Some(Method::Result));

        // Solved goals stay solved.
        assert!(check(&mut checker, &goal).is_none());
    }

    #[test]
    fn goal_checker_semantic_path() {
        let goal = q("SELECT queue, COUNT(*) FROM t GROUP BY queue");
        let mut checker = GoalChecker::new(
            goal,
            ResultSet::empty(vec!["queue".into(), "COUNT(*)".into()]),
        );
        let emitted = q("SELECT COUNT(*), queue, SUM(x) FROM t GROUP BY queue");
        assert_eq!(check(&mut checker, &emitted), Some(Method::Semantic));
    }

    #[test]
    fn coverage_fraction_partial() {
        let goal = q("SELECT queue FROM t");
        let goal_result = ResultSet::new(
            vec!["queue".into()],
            vec![vec![Value::str("A")], vec![Value::str("B")]],
        );
        let checker = GoalChecker::new(goal, goal_result);
        let mut cov = CoverageStore::new();
        cov.absorb(&ResultSet::new(
            vec!["queue".into()],
            vec![vec![Value::str("A")]],
        ));
        assert!((checker.coverage_fraction(&cov) - 0.5).abs() < 1e-12);
    }
}
