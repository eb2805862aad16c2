//! Property tests: printer/parser round trips and normalizer laws over
//! randomly generated ASTs.

mod common;

use common::{predicate_strategy, select_strategy, six_pass};
use proptest::prelude::*;
use simba_sql::normalize::{normalize_expr, NormalizedSelect};
use simba_sql::printer::{print_expr, print_select};
use simba_sql::{parse_expr, parse_select, Expr, Spelling};

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

    /// Normalization is idempotent, spelling for spelling: `==` would let
    /// a second pass turn `1.0` into `1`.
    #[test]
    fn normalize_is_idempotent(e in predicate_strategy()) {
        let once = normalize_expr(&e);
        let twice = normalize_expr(&once);
        prop_assert_eq!(
            Spelling::of_expr(&once),
            Spelling::of_expr(&twice),
            "normalize not idempotent for `{}`: `{}` then `{}`", e, once, twice
        );
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

/// The one walk agrees with the six whole-tree passes it replaced wherever
/// the passes produce a normal form, and is idempotent everywhere. The passes
/// are not always a normal form: a pass reads its children before the later
/// passes rewrote them. `SUM(a + b) / COUNT(b + a)` comes out as
/// `SUM(a + b) / COUNT(a + b)`, which normalizes again to `AVG(a + b)`, and a
/// conjunct's constant folded after its chain was sorted by print leaves the
/// chain unsorted.
#[test]
fn one_walk_equals_six_passes_wherever_they_reach_a_normal_form() {
    fn check(strategy: impl Strategy<Value = Expr>, name: &str) {
        let mut rng = proptest::TestRng::from_name(name);
        let (mut compared, mut walk_only) = (0, 0);
        for _ in 0..4096 {
            let e = strategy.gen(&mut rng);
            let walked = normalize_expr(&e);
            assert_eq!(
                Spelling::of_expr(&normalize_expr(&walked)),
                Spelling::of_expr(&walked),
                "walk not idempotent for `{e}`"
            );
            let passes = six_pass::normalize(&e);
            if Spelling::of_expr(&six_pass::normalize(&passes)) == Spelling::of_expr(&passes) {
                assert_eq!(
                    Spelling::of_expr(&walked),
                    Spelling::of_expr(&passes),
                    "for `{e}`: `{walked}` against `{passes}`"
                );
                compared += 1;
            } else {
                walk_only += 1;
            }
        }
        assert!(
            compared > 3 * walk_only,
            "{name}: {compared} compared, {walk_only} not"
        );
    }
    check(predicate_strategy(), "one_walk_predicates");
    check(common::any_expr_strategy(), "one_walk_any_expr");
}

/// The shapes on which the passes stop short of a normal form, and the one
/// the walk gives them.
#[test]
fn one_walk_reaches_the_normal_form_the_passes_stop_short_of() {
    for (input, walked) in [
        ("SUM(a + b) / COUNT(b + a)", "AVG(a + b)"),
        ("5 BETWEEN x AND 10", "5 <= 10 AND x <= 5"),
        ("1 IN (x)", "x = 1"),
        ("x + 4 + 5 + 6 * y", "6 * y + 9 + x"),
    ] {
        let e = parse_expr(input).unwrap();
        assert_eq!(print_expr(&normalize_expr(&e)), walked, "{input}");
    }
}
