//! Query generators shared by the `simba-sql` integration tests: the random
//! AST strategies of `prop_roundtrip.rs`, and the aggregation-shape storm of
//! `simba-driver`'s `delta_equivalence.rs` as SQL text.
#![allow(
    dead_code,
    reason = "each test target uses only some of the shared generators"
)]

pub mod six_pass;

use proptest::prelude::*;
use proptest::TestRng;
use simba_sql::{BinOp, Expr, Func, Literal, OrderByExpr, Select, SelectItem, UnaryOp};

pub fn literal_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (-1000i64..1000).prop_map(Expr::int),
        (-100.0f64..100.0).prop_map(|v| Expr::float((v * 4.0).round() / 4.0)),
        "[a-z]{1,6}".prop_map(Expr::str),
        Just(Expr::Literal(Literal::Bool(true))),
        Just(Expr::Literal(Literal::Null)),
    ]
}

pub fn column_strategy() -> impl Strategy<Value = Expr> {
    "[a-z][a-z0-9_]{0,8}".prop_map(Expr::col)
}

/// Scalar (non-boolean) expressions.
pub fn scalar_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![literal_strategy(), column_strategy()];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                proptest::sample::select(vec![BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div,])
            )
                .prop_map(|(l, r, op)| Expr::binary(l, op, r)),
            (
                inner.clone(),
                proptest::sample::select(vec![
                    Func::Hour,
                    Func::Day,
                    Func::Month,
                    Func::Year,
                    Func::Abs,
                ])
            )
                .prop_map(|(e, f)| Expr::Function {
                    func: f,
                    args: vec![e],
                    distinct: false
                }),
            inner,
        ]
    })
}

/// Boolean predicates.
pub fn predicate_strategy() -> impl Strategy<Value = Expr> {
    let atom = prop_oneof![
        (
            scalar_strategy(),
            scalar_strategy(),
            proptest::sample::select(vec![
                BinOp::Eq,
                BinOp::NotEq,
                BinOp::Lt,
                BinOp::LtEq,
                BinOp::Gt,
                BinOp::GtEq,
            ])
        )
            .prop_map(|(l, r, op)| Expr::binary(l, op, r)),
        (
            column_strategy(),
            proptest::collection::vec(literal_strategy(), 1..4),
            any::<bool>()
        )
            .prop_map(|(c, list, neg)| Expr::InList {
                expr: Box::new(c),
                list,
                negated: neg,
            }),
        (column_strategy(), any::<bool>()).prop_map(|(c, neg)| Expr::IsNull {
            expr: Box::new(c),
            negated: neg,
        }),
        (
            column_strategy(),
            scalar_strategy(),
            scalar_strategy(),
            any::<bool>()
        )
            .prop_map(|(c, lo, hi, neg)| Expr::Between {
                expr: Box::new(c),
                low: Box::new(lo),
                high: Box::new(hi),
                negated: neg,
            }),
    ];
    atom.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.and(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.or(r)),
            inner.prop_map(|e| Expr::Unary {
                op: simba_sql::UnaryOp::Not,
                expr: Box::new(e)
            }),
        ]
    })
}

/// Any expression the parser can build, including shapes no dashboard
/// writes: `NOT` and unary minus at any depth (inside function arguments
/// too), aggregates over arithmetic, `SUM(x) / COUNT(…)`, literals on either
/// side of a comparison, `BETWEEN` over literals, IN lists of expressions.
pub fn any_expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        literal_strategy(),
        column_strategy(),
        proptest::sample::select(vec!["A", "a", "B"]).prop_map(Expr::col),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        let binop = proptest::sample::select(vec![
            BinOp::And,
            BinOp::Or,
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::GtEq,
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
        ]);
        let func = proptest::sample::select(vec![
            Func::Count,
            Func::Sum,
            Func::Avg,
            Func::Max,
            Func::Hour,
            Func::Abs,
        ]);
        prop_oneof![
            (inner.clone(), binop, inner.clone()).prop_map(|(l, op, r)| Expr::binary(l, op, r)),
            (inner.clone(), any::<bool>()).prop_map(|(e, not)| Expr::Unary {
                op: if not { UnaryOp::Not } else { UnaryOp::Neg },
                expr: Box::new(e),
            }),
            (func, inner.clone()).prop_map(|(func, arg)| Expr::Function {
                func,
                args: vec![arg],
                distinct: false,
            }),
            (inner.clone(), any::<bool>()).prop_map(|(arg, star)| Expr::binary(
                Expr::agg(Func::Sum, arg.clone()),
                BinOp::Div,
                if star {
                    Expr::count_star()
                } else {
                    Expr::agg(Func::Count, arg)
                },
            )),
            (
                inner.clone(),
                proptest::collection::vec(inner.clone(), 0..4),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated,
                }),
            (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                |(e, low, high, negated)| Expr::Between {
                    expr: Box::new(e),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                }
            ),
            (inner, any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated,
            }),
        ]
    })
}

pub fn select_strategy() -> impl Strategy<Value = Select> {
    (
        proptest::collection::vec(
            prop_oneof![
                column_strategy().prop_map(SelectItem::bare),
                (
                    column_strategy(),
                    proptest::sample::select(vec![
                        Func::Count,
                        Func::Sum,
                        Func::Avg,
                        Func::Min,
                        Func::Max,
                    ])
                )
                    .prop_map(|(c, f)| SelectItem::bare(Expr::agg(f, c))),
                Just(SelectItem::bare(Expr::count_star())),
                (column_strategy(), "[a-z]{1,5}").prop_map(|(c, a)| SelectItem::aliased(c, a)),
            ],
            1..5,
        ),
        "[a-z][a-z0-9_]{0,10}",
        proptest::option::of(predicate_strategy()),
        proptest::collection::vec(column_strategy(), 0..3),
        proptest::option::of(0u64..1000),
        proptest::collection::vec(
            (column_strategy(), any::<bool>()).prop_map(|(e, asc)| OrderByExpr { expr: e, asc }),
            0..2,
        ),
    )
        .prop_map(
            |(projections, from, where_clause, group_by, limit, order_by)| Select {
                projections,
                from,
                where_clause,
                group_by,
                having: None,
                order_by,
                limit,
            },
        )
}

/// Aggregation shapes the dashboards never emit but the delta keys must tell
/// apart: per step one WHERE and group key, then every tail below in a drawn
/// order under drawn projection permutations — ORDER BY over a non-projected
/// aggregate (two different ones), HAVING with two hidden aggregates in both
/// written orders, LIMIT, and permuted / aliased projections back to back.
pub fn shape_storm(rng: &mut TestRng, steps: usize) -> Vec<String> {
    const WHERES: [&str; 4] = [
        "",
        "WHERE calls > 2",
        "WHERE queue IN ('A', 'B', 'C')",
        "WHERE calls > 2 AND satisfaction >= 3",
    ];
    const KEYS: [&str; 2] = ["queue", "queue, call_type"];
    const TAILS: [&str; 6] = [
        "ORDER BY {k}",
        "ORDER BY SUM(handle_time) DESC, {k} LIMIT 3",
        "ORDER BY MIN(handle_time) DESC, {k} LIMIT 3",
        "HAVING SUM(handle_time) > 300 AND MIN(wait_time) >= 0 ORDER BY {k}",
        "HAVING MIN(wait_time) >= 0 AND SUM(handle_time) > 300 ORDER BY {k}",
        "ORDER BY {k} LIMIT 2",
    ];
    let mut out = Vec::with_capacity(steps * TAILS.len());
    for _ in 0..steps {
        let mut next = |n: usize| rng.below(n as u64) as usize;
        let (filter, key) = (WHERES[next(WHERES.len())], KEYS[next(KEYS.len())]);
        let mut tails = TAILS.to_vec();
        for _ in 0..TAILS.len() {
            let tail = tails.swap_remove(next(tails.len())).replace("{k}", key);
            let projections = match next(3) {
                0 => format!("{key}, COUNT(*) AS n"),
                1 => format!("COUNT(*) AS n, {key}"),
                _ => format!("AVG(wait_time), {key}, COUNT(*) AS n"),
            };
            out.push(format!(
                "SELECT {projections} FROM customer_service {filter} GROUP BY {key} {tail}"
            ));
        }
    }
    out
}
