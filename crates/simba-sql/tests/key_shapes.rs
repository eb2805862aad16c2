//! Key strings pinned to the build before `NormalizedSelect` became the one
//! analysis of a query.
//!
//! `fixtures/key_shapes.txt` was written by that build: for every query of
//! [`queries`] its result-cache key, selection key and states key, and the
//! refinement verdicts against the query before it. A wrong key is a wrong
//! answer (a cached result or a captured selection served to a query it does
//! not belong to), so the file must be reproduced byte for byte, and the
//! form's methods must agree with the free functions that print them.

mod common;

use proptest::prelude::*;
use proptest::TestRng;
use simba_sql::{
    delta_key, is_refinement, parse_select, query_cache_key, states_key, BinOp, Expr,
    NormalizedSelect, Select, SelectItem,
};
use std::fmt::Write;

const FIXTURE: &str = include_str!("fixtures/key_shapes.txt");

/// The same data spelled differently: projections reversed and aliased,
/// conjuncts reversed, table upper-cased.
fn respelled(q: &Select) -> Select {
    let mut out = q.clone();
    out.from = q.from.to_ascii_uppercase();
    out.projections = q
        .projections
        .iter()
        .rev()
        .enumerate()
        .map(|(i, item)| SelectItem::aliased(item.expr.clone(), format!("c{i}")))
        .collect();
    out.where_clause = Expr::conjoin(q.filters().into_iter().rev().cloned());
    out
}

/// Random selects, each followed by a respelling and every other one by a
/// tightened filter, then the aggregation-shape storm: ≥ 200 queries whose
/// neighbours are related often enough for every verdict to occur.
fn queries() -> Vec<Select> {
    let mut rng = TestRng::from_name("key_shapes");
    let strategy = common::select_strategy();
    let mut out = Vec::new();
    for i in 0..40 {
        let q = strategy.gen(&mut rng);
        out.push(q.clone());
        out.push(respelled(&q));
        if i % 2 == 0 {
            let mut tightened = q;
            tightened.add_filter(Expr::binary(Expr::col("calls"), BinOp::Gt, Expr::int(i)));
            out.push(tightened);
        }
    }
    let storm = common::shape_storm(&mut rng, 18);
    out.extend(storm.iter().map(|sql| parse_select(sql).unwrap()));
    out
}

/// Keys carry unit / record separators between parts; print them visibly.
fn visible(key: &str) -> String {
    key.replace('\u{1f}', "<US>").replace('\u{1e}', "<RS>")
}

fn render(queries: &[Select]) -> String {
    let mut out = String::new();
    for (i, q) in queries.iter().enumerate() {
        writeln!(out, "{q}").unwrap();
        writeln!(out, "  cache  {}", visible(&query_cache_key(q))).unwrap();
        writeln!(out, "  delta  {}", visible(&delta_key(q))).unwrap();
        writeln!(out, "  states {}", visible(&states_key(q))).unwrap();
        if let Some(prev) = i.checked_sub(1).map(|p| &queries[p]) {
            writeln!(
                out,
                "  refines-previous {} previous-refines {}",
                is_refinement(q, prev),
                is_refinement(prev, q)
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn keys_and_verdicts_match_the_parent_build() {
    let queries = queries();
    assert!(queries.len() >= 200, "{} queries", queries.len());
    let rendered = render(&queries);
    for (n, (got, want)) in rendered.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {}", n + 1);
    }
    assert_eq!(rendered.len(), FIXTURE.len(), "fixture length");
}

/// Both verdicts and all three key relations occur, so the fixture pins
/// more than the `false` / `differs` defaults.
#[test]
fn fixture_reaches_every_verdict() {
    for needle in [
        "refines-previous true previous-refines true",
        "refines-previous true previous-refines false",
        "refines-previous false previous-refines true",
        "refines-previous false previous-refines false",
    ] {
        assert!(FIXTURE.contains(needle), "no pair with `{needle}`");
    }
    let queries = queries();
    let pairs = || queries.windows(2).map(|w| (&w[0], &w[1]));
    assert!(pairs().any(|(a, b)| states_key(a) == states_key(b)));
    assert!(pairs().any(|(a, b)| delta_key(a) == delta_key(b) && states_key(a) != states_key(b)));
    assert!(pairs().any(|(a, b)| query_cache_key(a) == query_cache_key(b)));
}

/// The structural comparisons the delta store probes with decide exactly
/// what equality of the printed keys decides.
#[test]
fn structural_matches_agree_with_key_equality() {
    let analyzed: Vec<_> = queries()
        .iter()
        .map(|q| {
            (
                NormalizedSelect::from_select(q),
                delta_key(q),
                states_key(q),
            )
        })
        .collect();
    for (fa, da, sa) in &analyzed {
        for (fb, db, sb) in &analyzed {
            assert_eq!(fa.same_selection(fb), da == db, "{da} vs {db}");
            assert_eq!(fa.same_states(fb), sa == sb, "{sa} vs {sb}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The free functions are views over the form: one analysis answers
    /// every question asked of the query.
    #[test]
    fn form_methods_equal_free_functions(a in common::select_strategy(), b in common::select_strategy()) {
        let (fa, fb) = (NormalizedSelect::from_select(&a), NormalizedSelect::from_select(&b));
        prop_assert_eq!(fa.result_key(), query_cache_key(&a));
        prop_assert_eq!(fa.selection_key(), delta_key(&a));
        prop_assert_eq!(fa.states_key(), states_key(&a));
        prop_assert_eq!(fa.refines(&fb), is_refinement(&a, &b));
        prop_assert_eq!(fa.refines(&fa), is_refinement(&a, &a));
    }
}
