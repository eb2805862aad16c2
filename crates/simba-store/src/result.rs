//! Query result sets and the coverage operations behind goal completion.
//!
//! §4.1.2 of the paper defines goal completion as result-set *coverage*:
//! a goal query is solved when its result set is covered by the union of
//! everything the simulated user has seen (`∪ R_g ⊆ ∪ R_i`), and planning
//! progress is measured as result-set *overlap* (`|R_g ∩ R(s)|`). Both
//! operations live here.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A materialized query result: named columns and row-major values.
///
/// Rows carry *multiset* semantics — duplicates are meaningful — and are
/// unordered unless the producing query had an `ORDER BY`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResultSet {
    /// Output column names, in projection order.
    pub columns: Vec<String>,
    /// Row-major values; every row has `columns.len()` entries.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Build a result set. Every row must have `columns.len()` values.
    pub fn new(columns: Vec<String>, rows: Vec<Vec<Value>>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == columns.len()));
        Self { columns, rows }
    }

    /// An empty result with the given column names.
    pub fn empty(columns: Vec<String>) -> Self {
        Self {
            columns,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Case-insensitive column lookup.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Project onto the named columns (in the given order). `None` if any
    /// column is missing.
    pub fn project(&self, names: &[&str]) -> Option<ResultSet> {
        let idx: Vec<usize> = names
            .iter()
            .map(|n| self.column_index(n))
            .collect::<Option<_>>()?;
        let rows = self
            .rows
            .iter()
            .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Some(ResultSet::new(
            names.iter().map(|s| s.to_string()).collect(),
            rows,
        ))
    }

    /// Multiset of rows with multiplicities.
    pub fn row_bag(&self) -> HashMap<&[Value], usize> {
        let mut bag: HashMap<&[Value], usize> = HashMap::with_capacity(self.rows.len());
        for r in &self.rows {
            *bag.entry(r.as_slice()).or_insert(0) += 1;
        }
        bag
    }

    /// Order-insensitive multiset equality. Columns must match by
    /// case-insensitive name in the same positions.
    pub fn multiset_eq(&self, other: &ResultSet) -> bool {
        if self.columns.len() != other.columns.len()
            || !self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
        {
            return false;
        }
        if self.rows.len() != other.rows.len() {
            return false;
        }
        self.row_bag() == other.row_bag()
    }

    /// Result subsumption (§4.1.2, *Result Equivalence*): every column and
    /// row of `goal` must be present in `self`; `self` may contain more of
    /// both. Rows are matched after projecting `self` onto `goal`'s columns,
    /// respecting multiplicities.
    pub fn subsumes(&self, goal: &ResultSet) -> bool {
        self.covered_rows(goal) == goal.n_rows()
    }

    /// Overlap measure θ (§4.1.2, *Measuring Progress*): how many of
    /// `goal`'s rows (with multiplicity) are visible in `self`? Returns 0
    /// when `self` is missing any goal column.
    pub fn covered_rows(&self, goal: &ResultSet) -> usize {
        let names: Vec<&str> = goal.columns.iter().map(String::as_str).collect();
        let Some(projected) = self.project(&names) else {
            return 0;
        };
        let mut have: HashMap<Vec<Value>, usize> = HashMap::with_capacity(projected.rows.len());
        for r in projected.rows {
            *have.entry(r).or_insert(0) += 1;
        }
        let mut covered = 0usize;
        for r in &goal.rows {
            if let Some(count) = have.get_mut(r.as_slice()) {
                if *count > 0 {
                    *count -= 1;
                    covered += 1;
                }
            }
        }
        covered
    }

    /// Overlap as a fraction of the goal's rows, in `[0, 1]`. An empty goal
    /// is fully covered.
    pub fn coverage_fraction(&self, goal: &ResultSet) -> f64 {
        if goal.is_empty() {
            return 1.0;
        }
        self.covered_rows(goal) as f64 / goal.n_rows() as f64
    }

    /// Rows sorted by the total value order — a canonical form for snapshot
    /// comparisons in tests.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }
}

/// Accumulates everything a simulated user has *seen* across a session —
/// the `∪ R_i` side of the goal-completion test. Rows are stored per
/// column-name signature so results from different queries union soundly.
#[derive(Debug, Default, Clone)]
pub struct CoverageStore {
    /// Lowercased column-name signature → accumulated rows (with counts).
    seen: HashMap<Vec<String>, HashMap<Vec<Value>, usize>>,
}

impl CoverageStore {
    /// New, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a result set the user has observed.
    pub fn absorb(&mut self, rs: &ResultSet) {
        let sig: Vec<String> = rs.columns.iter().map(|c| c.to_ascii_lowercase()).collect();
        let bag = self.seen.entry(sig).or_default();
        for r in &rs.rows {
            *bag.entry(r.clone()).or_insert(0) += 1;
        }
    }

    /// How many of `goal`'s rows are covered by *any* absorbed result whose
    /// columns include the goal's columns?
    pub fn covered_rows(&self, goal: &ResultSet) -> usize {
        let goal_cols: Vec<String> = goal
            .columns
            .iter()
            .map(|c| c.to_ascii_lowercase())
            .collect();
        let mut best = 0usize;
        // simba: allow(nondeterministic-iteration): max over per-signature coverage counts — visiting signatures in any order yields the same maximum
        for (sig, bag) in &self.seen {
            // Map goal columns into this signature.
            let Some(indices) = goal_cols
                .iter()
                .map(|g| sig.iter().position(|s| s == g))
                .collect::<Option<Vec<_>>>()
            else {
                continue;
            };
            // Project the absorbed rows onto the goal columns.
            let mut have: HashMap<Vec<Value>, usize> = HashMap::with_capacity(bag.len());
            for (row, count) in bag {
                let projected: Vec<Value> = indices.iter().map(|&i| row[i].clone()).collect();
                *have.entry(projected).or_insert(0) += count;
            }
            let mut covered = 0usize;
            for r in &goal.rows {
                if let Some(count) = have.get_mut(r.as_slice()) {
                    if *count > 0 {
                        *count -= 1;
                        covered += 1;
                    }
                }
            }
            best = best.max(covered);
        }
        best
    }

    /// Is the goal fully covered (`R_g ⊆ ∪ R_i`)?
    pub fn covers(&self, goal: &ResultSet) -> bool {
        self.covered_rows(goal) == goal.n_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(cols: &[&str], rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet::new(cols.iter().map(|s| s.to_string()).collect(), rows)
    }

    #[test]
    fn multiset_eq_ignores_row_order() {
        let a = rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let b = rs(&["x"], vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn multiset_eq_respects_multiplicity() {
        let a = rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(1)]]);
        let b = rs(&["x"], vec![vec![Value::Int(1)]]);
        assert!(!a.multiset_eq(&b));
    }

    #[test]
    fn multiset_eq_column_names_case_insensitive() {
        let a = rs(&["X"], vec![vec![Value::Int(1)]]);
        let b = rs(&["x"], vec![vec![Value::Int(1)]]);
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn subsumption_allows_extra_columns_and_rows() {
        let big = rs(
            &["q", "n", "extra"],
            vec![
                vec![Value::str("A"), Value::Int(1), Value::Bool(true)],
                vec![Value::str("B"), Value::Int(2), Value::Bool(false)],
            ],
        );
        let goal = rs(&["n", "q"], vec![vec![Value::Int(2), Value::str("B")]]);
        assert!(big.subsumes(&goal));
        assert!(!goal.subsumes(&big));
    }

    #[test]
    fn subsumption_fails_on_missing_column() {
        let a = rs(&["x"], vec![vec![Value::Int(1)]]);
        let goal = rs(&["y"], vec![vec![Value::Int(1)]]);
        assert!(!a.subsumes(&goal));
    }

    #[test]
    fn covered_rows_counts_partial_overlap() {
        let seen = rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let goal = rs(
            &["x"],
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)],
            ],
        );
        assert_eq!(seen.covered_rows(&goal), 2);
        assert!((seen.coverage_fraction(&goal) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_goal_is_fully_covered() {
        let seen = rs(&["x"], vec![]);
        let goal = rs(&["x"], vec![]);
        assert!(seen.subsumes(&goal));
        assert_eq!(seen.coverage_fraction(&goal), 1.0);
    }

    #[test]
    fn coverage_store_unions_across_queries() {
        // The paper's Figure 3/4 scenario: the goal (per-queue counts) is
        // covered by the union of four per-queue filtered queries.
        let mut store = CoverageStore::new();
        for (q, n) in [("A", 5), ("B", 3), ("C", 7), ("D", 1)] {
            store.absorb(&rs(
                &["queue", "count"],
                vec![vec![Value::str(q), Value::Int(n)]],
            ));
        }
        let goal = rs(
            &["queue", "count"],
            vec![
                vec![Value::str("A"), Value::Int(5)],
                vec![Value::str("B"), Value::Int(3)],
                vec![Value::str("C"), Value::Int(7)],
                vec![Value::str("D"), Value::Int(1)],
            ],
        );
        assert!(store.covers(&goal));
    }

    #[test]
    fn coverage_store_partial_until_all_seen() {
        let mut store = CoverageStore::new();
        let goal = rs(
            &["queue"],
            vec![vec![Value::str("A")], vec![Value::str("B")]],
        );
        store.absorb(&rs(&["queue"], vec![vec![Value::str("A")]]));
        assert_eq!(store.covered_rows(&goal), 1);
        assert!(!store.covers(&goal));
        store.absorb(&rs(&["queue"], vec![vec![Value::str("B")]]));
        assert!(store.covers(&goal));
    }

    #[test]
    fn coverage_store_matches_wider_results() {
        let mut store = CoverageStore::new();
        store.absorb(&rs(
            &["queue", "hour", "count"],
            vec![vec![Value::str("A"), Value::Int(9), Value::Int(4)]],
        ));
        let goal = rs(
            &["count", "queue"],
            vec![vec![Value::Int(4), Value::str("A")]],
        );
        assert!(store.covers(&goal));
    }

    #[test]
    fn projection_reorders_columns() {
        let a = rs(&["a", "b"], vec![vec![Value::Int(1), Value::Int(2)]]);
        let p = a.project(&["b", "a"]).unwrap();
        assert_eq!(p.rows[0], vec![Value::Int(2), Value::Int(1)]);
        assert!(a.project(&["missing"]).is_none());
    }
}
