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
//! This module derives the keys and verdicts that decision needs:
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
use crate::implication::option_implies;
use crate::normalize::{aggregate_calls, normalize_expr};
use crate::printer::print_expr;

/// Key identifying "same table, same WHERE" executions: the lowercased table
/// name plus the sorted, normalized WHERE conjuncts, section-delimited like
/// [`NormalizedSelect::cache_key`](crate::NormalizedSelect::cache_key).
/// Two queries with equal delta keys filter the same rows, so a selection
/// vector captured for one seeds the other without re-evaluating kernels.
pub fn delta_key(q: &Select) -> String {
    let mut out = String::with_capacity(64);
    push_section(&mut out, 't', std::iter::once(q.from.to_ascii_lowercase()));
    push_section(&mut out, 'w', normalized_where(q));
    out
}

/// Key identifying executions whose per-group aggregate states are
/// interchangeable: [`delta_key`] plus the *ordered* normalized projection
/// list, GROUP BY, and the aggregate-slot layout — every distinct aggregate
/// call in the order [`aggregate_calls`] (and therefore the planner)
/// allocates it: projections, then HAVING, then ORDER BY. A hidden
/// `ORDER BY SUM(v)` or a reordered HAVING changes the layout, so it changes
/// the key. ORDER BY over projected columns / aliases and LIMIT are
/// deliberately excluded — they reorder and truncate the emitted rows after
/// aggregation, and HAVING is re-evaluated over the replayed groups, so
/// cached group states satisfy any such variant of the same aggregation.
pub fn states_key(q: &Select) -> String {
    let mut out = delta_key(q);
    push_section(
        &mut out,
        'p',
        q.projections
            .iter()
            .map(|item| print_expr(&normalize_expr(&item.expr))),
    );
    push_section(
        &mut out,
        'g',
        q.group_by.iter().map(|g| print_expr(&normalize_expr(g))),
    );
    push_section(
        &mut out,
        'a',
        aggregate_calls(q).into_iter().map(|(print, _)| print),
    );
    out
}

/// Is `next` provably a refinement of `prev` — same table, and every row
/// satisfying `next`'s WHERE also satisfies `prev`'s WHERE? Sound: `true`
/// is always correct; `false` may mean "could not prove". A refinement's
/// result rows are a subset of the earlier query's surviving rows, so a
/// scan for `next` may be seeded from `prev`'s captured selection and
/// re-filtered with `next`'s own kernels.
pub fn is_refinement(next: &Select, prev: &Select) -> bool {
    next.from.eq_ignore_ascii_case(&prev.from)
        && option_implies(next.where_clause.as_ref(), prev.where_clause.as_ref())
}

fn normalized_where(q: &Select) -> impl Iterator<Item = String> {
    let conjuncts: Vec<String> = match &q.where_clause {
        Some(w) => crate::normalize::normalized_conjuncts(w)
            .into_iter()
            .collect(),
        None => Vec::new(),
    };
    conjuncts.into_iter()
}

fn push_section(out: &mut String, tag: char, parts: impl Iterator<Item = String>) {
    out.push(tag);
    out.push('{');
    for (i, p) in parts.enumerate() {
        if i > 0 {
            out.push('\u{1f}');
        }
        out.push_str(&p);
    }
    out.push('}');
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
