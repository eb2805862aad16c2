//! Property tests: printer/parser round trips and normalizer laws over
//! randomly generated ASTs.

mod common;

use common::{predicate_strategy, select_strategy};
use proptest::prelude::*;
use simba_sql::normalize::{normalize_expr, NormalizedSelect};
use simba_sql::printer::{print_expr, print_select};
use simba_sql::{parse_expr, parse_select, Expr};

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// print → parse → print is a fixed point for expressions.
    #[test]
    fn expr_print_parse_roundtrip(e in predicate_strategy()) {
        let printed = print_expr(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to reparse: {err}"));
        prop_assert_eq!(print_expr(&reparsed), printed);
    }

    /// print → parse → print is a fixed point for SELECT statements.
    #[test]
    fn select_print_parse_roundtrip(q in select_strategy()) {
        let printed = print_select(&q);
        let reparsed = parse_select(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to reparse: {err}"));
        prop_assert_eq!(print_select(&reparsed), printed);
    }

    /// Normalization is idempotent.
    #[test]
    fn normalize_is_idempotent(e in predicate_strategy()) {
        let once = normalize_expr(&e);
        let twice = normalize_expr(&once);
        prop_assert_eq!(&once, &twice, "normalize not idempotent for `{}`", e);
    }

    /// Normal forms are insensitive to textual noise: reparsing the printed
    /// query yields the same normalized select.
    #[test]
    fn normalized_select_stable_under_reprint(q in select_strategy()) {
        let n1 = NormalizedSelect::from_select(&q);
        let reparsed = parse_select(&print_select(&q)).expect("printable queries reparse");
        let n2 = NormalizedSelect::from_select(&reparsed);
        prop_assert_eq!(n1, n2);
    }

    /// Conjunct splitting and rejoining preserves the conjunct multiset.
    #[test]
    fn conjuncts_roundtrip(parts in proptest::collection::vec(predicate_strategy(), 1..5)) {
        let joined = Expr::conjoin(parts.clone()).expect("non-empty");
        // Each original part either appears directly, or was itself an AND
        // that flattened; count total flattened leaves instead.
        let expected: usize = parts.iter().map(|p| p.conjuncts().len()).sum();
        prop_assert_eq!(joined.conjuncts().len(), expected);
    }
}
