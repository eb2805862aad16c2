//! Query refinement detection for session-delta execution.
//!
//! Exploration sessions rarely issue independent queries: each step adds,
//! drops, or tightens a single filter on the previous step (§2 of the paper;
//! IDEBench makes the same observation). When the next query is *provably a
//! refinement* of an earlier one — its WHERE clause implies the earlier
//! WHERE clause, so its rows are a subset of the earlier result — an engine
//! can seed its scan from the earlier step's surviving row set instead of
//! rescanning the table.
//!
//! The keys and the verdict that decision needs are read off the query's
//! [`NormalizedSelect`] — an engine builds the form once per query and asks
//! it; the functions here are the same answers for a caller that holds only
//! the `Select`:
//!
//! * [`delta_key`] — identifies "same table, same WHERE" executions whose
//!   surviving row sets are interchangeable.
//! * [`states_key`] — identifies executions whose per-group aggregate states
//!   are interchangeable (same table, WHERE, ordered projections, GROUP BY,
//!   and aggregate-slot layout — everything that shapes the aggregation,
//!   excluding ORDER BY over projected columns and LIMIT, which only shape
//!   the emitted rows).
//! * [`is_refinement`] — the subsumption verdict, built on the sound
//!   [`implication`](crate::implication) domain analysis: `true` is a proof
//!   that `next`'s rows are a subset of `prev`'s rows; `false` only means
//!   "could not prove".
//!
//! Soundness matters more than completeness here: a wrong `true` silently
//!   returns stale rows, while a wrong `false` merely rescans.

use crate::ast::Select;
use crate::normalize::NormalizedSelect;

/// [`NormalizedSelect::selection_key`] of `q`.
pub fn delta_key(q: &Select) -> String {
    NormalizedSelect::from_select(q).selection_key()
}

/// [`NormalizedSelect::states_key`] of `q`.
pub fn states_key(q: &Select) -> String {
    NormalizedSelect::from_select(q).states_key()
}

/// [`NormalizedSelect::refines`] over the two queries' forms.
pub fn is_refinement(next: &Select, prev: &Select) -> bool {
    NormalizedSelect::from_select(next).refines(&NormalizedSelect::from_select(prev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn sel(s: &str) -> Select {
        parse_select(s).unwrap()
    }

    #[test]
    fn delta_key_collapses_spelling_noise() {
        let a = sel("SELECT x FROM t WHERE a = 1 AND b IN ('B', 'A')");
        let b = sel("select y from T where b in ('A', 'B', 'A') and A = 1");
        assert_eq!(delta_key(&a), delta_key(&b), "same table+WHERE, same key");
        let c = sel("SELECT x FROM t WHERE a = 2");
        assert_ne!(delta_key(&a), delta_key(&c));
    }

    #[test]
    fn delta_key_ignores_projection_group_order_limit() {
        let a = sel("SELECT q, COUNT(*) FROM t WHERE a = 1 GROUP BY q ORDER BY q LIMIT 5");
        let b = sel("SELECT AVG(v) FROM t WHERE a = 1");
        assert_eq!(delta_key(&a), delta_key(&b));
    }

    #[test]
    fn delta_key_separates_tables_and_absent_where() {
        let a = sel("SELECT x FROM t");
        let b = sel("SELECT x FROM u");
        assert_ne!(delta_key(&a), delta_key(&b));
        let c = sel("SELECT x FROM t WHERE a = 1");
        assert_ne!(delta_key(&a), delta_key(&c));
    }

    #[test]
    fn states_key_pins_the_aggregation_shape() {
        let base = sel("SELECT q, COUNT(*) FROM t WHERE a = 1 GROUP BY q");
        // ORDER BY / LIMIT variants share the aggregation.
        let sorted = sel("SELECT q, COUNT(*) FROM t WHERE a = 1 GROUP BY q ORDER BY q LIMIT 3");
        assert_eq!(states_key(&base), states_key(&sorted));
        // A different aggregate, group key, filter, or projection order does not.
        assert_ne!(
            states_key(&base),
            states_key(&sel("SELECT q, SUM(v) FROM t WHERE a = 1 GROUP BY q"))
        );
        assert_ne!(
            states_key(&base),
            states_key(&sel("SELECT r, COUNT(*) FROM t WHERE a = 1 GROUP BY r"))
        );
        assert_ne!(
            states_key(&base),
            states_key(&sel("SELECT q, COUNT(*) FROM t WHERE a = 2 GROUP BY q"))
        );
        assert_ne!(
            states_key(&base),
            states_key(&sel("SELECT COUNT(*), q FROM t WHERE a = 1 GROUP BY q"))
        );
        // HAVING contributes aggregate slots, so it is part of the key.
        assert_ne!(
            states_key(&base),
            states_key(&sel(
                "SELECT q, COUNT(*) FROM t WHERE a = 1 GROUP BY q HAVING SUM(v) > 2"
            ))
        );
    }

    #[test]
    fn states_key_follows_the_aggregate_slot_layout() {
        let key = |tail: &str| {
            states_key(&sel(&format!(
                "SELECT q, COUNT(*) AS n FROM t WHERE a = 1 GROUP BY q {tail}"
            )))
        };
        // A hidden ORDER BY aggregate allocates a slot: which one matters.
        assert_ne!(key("ORDER BY SUM(v) DESC LIMIT 3"), key("LIMIT 3"));
        assert_ne!(
            key("ORDER BY SUM(v) DESC LIMIT 3"),
            key("ORDER BY MIN(v) DESC LIMIT 3")
        );
        // HAVING slots are allocated in written order, not sorted order.
        assert_ne!(
            key("HAVING SUM(v) > 8 AND MIN(v) >= 0"),
            key("HAVING MIN(v) >= 0 AND SUM(v) > 8")
        );
        // The other direction: anything that allocates no new slot — ORDER
        // BY over a projected column, an alias or an already-projected
        // aggregate, and LIMIT — stays out of the key, so re-sorted
        // dashboards still replay.
        for resorted in [
            "ORDER BY q",
            "ORDER BY n DESC LIMIT 3",
            "ORDER BY COUNT(*) LIMIT 1",
        ] {
            assert_eq!(key(resorted), key(""), "{resorted}");
        }
        // A HAVING threshold is re-evaluated on replay; only its slots count.
        assert_eq!(key("HAVING SUM(v) > 8"), key("HAVING SUM(v) > 9"));
    }

    #[test]
    fn refinement_requires_same_table_and_implication() {
        let prev = sel("SELECT x FROM t WHERE a > 3");
        let next = sel("SELECT x FROM t WHERE a > 5 AND b = 2");
        assert!(is_refinement(&next, &prev), "tightened filter refines");
        assert!(!is_refinement(&prev, &next), "loosened filter does not");
        let other = sel("SELECT x FROM u WHERE a > 5 AND b = 2");
        assert!(
            !is_refinement(&other, &prev),
            "different table never refines"
        );
    }

    #[test]
    fn refinement_handles_absent_filters() {
        let unfiltered = sel("SELECT x FROM t");
        let filtered = sel("SELECT x FROM t WHERE a = 1");
        assert!(
            is_refinement(&filtered, &unfiltered),
            "any filter refines the full scan"
        );
        assert!(
            !is_refinement(&unfiltered, &filtered),
            "dropping the filter widens the rows"
        );
        assert!(is_refinement(&unfiltered, &unfiltered));
    }

    #[test]
    fn refinement_is_conservative_outside_the_fragment() {
        // Cross-column disjunctions are outside the implication fragment:
        // the verdict must fall back to false, never guess true.
        let prev = sel("SELECT x FROM t WHERE a = 1 OR b = 2");
        let next = sel("SELECT x FROM t WHERE a = 1");
        assert!(!is_refinement(&next, &prev));
    }

    #[test]
    fn exact_requery_is_a_refinement_with_equal_delta_keys() {
        let a = sel("SELECT q, COUNT(*) FROM t WHERE a = 1 GROUP BY q");
        let b = sel("SELECT AVG(v) FROM t WHERE 1 = a");
        assert!(is_refinement(&b, &a));
        assert_eq!(delta_key(&a), delta_key(&b));
    }
}
