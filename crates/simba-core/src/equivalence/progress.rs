//! The planner's progress heuristic θ (§4.1.2, *Measuring Progress*).
//!
//! θ(s) measures how much of the goal result sets the user has seen in
//! state `s`: `|∪ R_g ∩ ∪ R_i|`. The Oracle compares candidate actions by
//! the coverage their emitted queries would add.

use simba_store::{CoverageStore, ResultSet};

/// Total goal rows covered by the accumulated results (θ over a goal set).
pub fn total_covered(coverage: &CoverageStore, goals: &[&ResultSet]) -> usize {
    goals.iter().map(|g| coverage.covered_rows(g)).sum()
}

/// Coverage after hypothetically absorbing `new_results` (the θ value of
/// the successor state in Algorithm 1's lookahead).
pub fn covered_after(
    coverage: &CoverageStore,
    new_results: &[ResultSet],
    goals: &[&ResultSet],
) -> usize {
    let mut hypothetical = coverage.clone();
    for r in new_results {
        hypothetical.absorb(r);
    }
    total_covered(&hypothetical, goals)
}

/// Net coverage gain of absorbing `new_results`.
pub fn coverage_gain(
    coverage: &CoverageStore,
    new_results: &[ResultSet],
    goals: &[&ResultSet],
) -> usize {
    covered_after(coverage, new_results, goals) - total_covered(coverage, goals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_store::Value;

    fn rs(values: &[(&str, i64)]) -> ResultSet {
        ResultSet::new(
            vec!["queue".into(), "n".into()],
            values
                .iter()
                .map(|(q, n)| vec![Value::str(q), Value::Int(*n)]),
        )
    }

    #[test]
    fn gain_counts_new_rows_only() {
        let goal = rs(&[("A", 1), ("B", 2), ("C", 3)]);
        let mut cov = CoverageStore::new();
        cov.absorb(&rs(&[("A", 1)]));
        assert_eq!(total_covered(&cov, &[&goal]), 1);

        let gain = coverage_gain(&cov, &[rs(&[("B", 2)])], &[&goal]);
        assert_eq!(gain, 1);
        // Re-seeing A adds nothing.
        let no_gain = coverage_gain(&cov, &[rs(&[("A", 1)])], &[&goal]);
        assert_eq!(no_gain, 0);
    }

    #[test]
    fn gain_is_hypothetical_not_destructive() {
        let goal = rs(&[("A", 1), ("B", 2)]);
        let cov = CoverageStore::new();
        let _ = coverage_gain(&cov, &[rs(&[("A", 1)])], &[&goal]);
        assert_eq!(total_covered(&cov, &[&goal]), 0, "original store untouched");
    }

    #[test]
    fn multiple_goals_sum() {
        let g1 = rs(&[("A", 1)]);
        let g2 = rs(&[("B", 2)]);
        let cov = CoverageStore::new();
        let gain = coverage_gain(&cov, &[rs(&[("A", 1), ("B", 2)])], &[&g1, &g2]);
        assert_eq!(gain, 2);
    }
}
