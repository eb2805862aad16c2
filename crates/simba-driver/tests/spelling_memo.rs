//! The result cache's spelling memo never changes a key.
//!
//! `execute_cached` looks a query's `Spelling` up in a memo and derives
//! `query_cache_key` only when the memo misses. Both halves are checked over
//! generated dashboard queries whose spellings vary in identifier case,
//! conjunct order, `1` / `1.0`, `0.0` / `-0.0`, NaN payloads, aliases,
//! ORDER BY and LIMIT:
//!
//! * two queries share a spelling exactly when they are identical as
//!   written (the generator's own record of what it wrote decides that);
//! * on a memo hit and on a miss alike, the key `execute_cached` uses is
//!   `query_cache_key`'s, in the default cache and in a 1-shard × 2-entry
//!   cache whose memo keeps dropping.

use proptest::prelude::*;
use proptest::TestRng;
use simba_driver::{CacheConfig, ShardedResultCache};
use simba_engine::{ExecStats, QueryOutput};
use simba_sql::{query_cache_key, BinOp, Expr, Func, OrderByExpr, Select, SelectItem, Spelling};
use simba_store::{ResultSet, Value};
use std::sync::Arc;
use std::time::Duration;

/// A literal as written: its type and its bits.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lit {
    Int(i64),
    Float(u64),
}

impl Lit {
    fn expr(self) -> Expr {
        match self {
            Lit::Int(v) => Expr::int(v),
            Lit::Float(bits) => Expr::float(f64::from_bits(bits)),
        }
    }
}

const LITS: [Lit; 8] = [
    Lit::Int(0),
    Lit::Int(1),
    Lit::Int(5),
    Lit::Float(0x0000_0000_0000_0000), // 0.0
    Lit::Float(0x8000_0000_0000_0000), // -0.0
    Lit::Float(0x3ff0_0000_0000_0000), // 1.0
    Lit::Float(0x7ff8_0000_0000_0001), // NaN, payload 1
    Lit::Float(0x7ff8_0000_0000_0002), // NaN, payload 2
];

/// What the generator wrote. Two queries are identical as written exactly
/// when their records are equal.
#[derive(Debug, Clone, PartialEq)]
struct Written {
    table: &'static str,
    key: &'static str,
    /// `SUM(calls + lit)`.
    sum_lit: Lit,
    alias: Option<&'static str>,
    /// `column > lit`, in written order.
    conjuncts: Vec<(&'static str, Lit)>,
    /// `ORDER BY key ASC` (`true`) or `DESC`.
    order: Option<bool>,
    limit: Option<u64>,
}

impl Written {
    fn select(&self) -> Select {
        let key = Expr::col(self.key);
        let sum = Expr::agg(
            Func::Sum,
            Expr::binary(Expr::col("calls"), BinOp::Add, self.sum_lit.expr()),
        );
        Select {
            projections: vec![
                SelectItem::bare(key.clone()),
                SelectItem {
                    expr: sum,
                    alias: self.alias.map(str::to_string),
                },
            ],
            from: self.table.to_string(),
            where_clause: Expr::conjoin(
                self.conjuncts
                    .iter()
                    .map(|(col, lit)| Expr::binary(Expr::col(*col), BinOp::Gt, lit.expr())),
            ),
            group_by: vec![key.clone()],
            having: None,
            order_by: self
                .order
                .map(|asc| OrderByExpr { expr: key, asc })
                .into_iter()
                .collect(),
            limit: self.limit,
        }
    }
}

fn lit() -> impl Strategy<Value = Lit> {
    proptest::sample::select(LITS.to_vec())
}

fn table() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec!["customer_service", "Customer_Service"])
}

fn key() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec!["queue", "QUEUE", "call_type"])
}

fn alias() -> impl Strategy<Value = Option<&'static str>> {
    proptest::sample::select(vec![None, Some("n"), Some("N")])
}

fn conjunct() -> impl Strategy<Value = (&'static str, Lit)> {
    (
        proptest::sample::select(vec!["calls", "CALLS", "hour"]),
        lit(),
    )
}

fn order() -> impl Strategy<Value = Option<bool>> {
    proptest::sample::select(vec![None, Some(true), Some(false)])
}

fn limit() -> impl Strategy<Value = Option<u64>> {
    proptest::sample::select(vec![None, Some(0), Some(10)])
}

fn written() -> impl Strategy<Value = Written> {
    (
        table(),
        key(),
        lit(),
        alias(),
        proptest::collection::vec(conjunct(), 0..4),
        order(),
        limit(),
    )
        .prop_map(
            |(table, key, sum_lit, alias, conjuncts, order, limit)| Written {
                table,
                key,
                sum_lit,
                alias,
                conjuncts,
                order,
                limit,
            },
        )
}

/// One respelling: a field redrawn (perhaps to what it was), a conjunct's
/// literal redrawn, the conjuncts rotated, or nothing.
#[derive(Debug, Clone)]
struct Respelling {
    field: usize,
    at: usize,
    table: &'static str,
    key: &'static str,
    lit: Lit,
    alias: Option<&'static str>,
    order: Option<bool>,
    limit: Option<u64>,
}

impl Respelling {
    fn apply(&self, w: &mut Written) {
        let at = self.at % w.conjuncts.len().max(1);
        match self.field {
            0 => w.table = self.table,
            1 => w.key = self.key,
            2 => w.sum_lit = self.lit,
            3 => w.alias = self.alias,
            4 => w.order = self.order,
            5 => w.limit = self.limit,
            6 => {
                if let Some(c) = w.conjuncts.get_mut(at) {
                    c.1 = self.lit;
                }
            }
            7 => w.conjuncts.rotate_left(at),
            _ => {}
        }
    }
}

fn respelling() -> impl Strategy<Value = Respelling> {
    (
        0usize..9,
        0usize..4,
        table(),
        key(),
        lit(),
        alias(),
        order(),
        limit(),
    )
        .prop_map(
            |(field, at, table, key, lit, alias, order, limit)| Respelling {
                field,
                at,
                table,
                key,
                lit,
                alias,
                order,
                limit,
            },
        )
}

/// A written query and up to three respellings of it.
fn pair() -> impl Strategy<Value = (Written, Written)> {
    (written(), proptest::collection::vec(respelling(), 0..4)).prop_map(|(w, respellings)| {
        let mut v = w.clone();
        for r in &respellings {
            r.apply(&mut v);
        }
        (w, v)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// Two queries share a spelling exactly when they are identical as
    /// written.
    #[test]
    fn spellings_are_equal_exactly_when_identical_as_written(pair in pair()) {
        let (a, b) = pair;
        let (qa, qb) = (a.select(), b.select());
        prop_assert_eq!(
            Spelling::of(&qa) == Spelling::of(&qb),
            a == b,
            "{:?} / {:?}", a, b
        );
    }
}

fn output(n: i64) -> QueryOutput {
    QueryOutput {
        result: ResultSet::new(vec!["n".to_string()], vec![vec![Value::Int(n)]]),
        stats: ExecStats::default(),
        elapsed: Duration::ZERO,
    }
}

/// How often each path of `execute_cached`'s key lookup was taken.
#[derive(Debug, Default, Clone, Copy)]
struct Paths {
    memo_hits: usize,
    memo_misses: usize,
    /// Memo misses on a key an earlier, differently spelled query stored.
    respelled: usize,
    /// Memo misses on a spelling memoized earlier: its stripe was dropped.
    dropped: usize,
}

/// Runs `queries` through `cache` and checks, query by query, that the key
/// the memo holds before the call (a memo hit) or after it (a miss that
/// memoized) is `query_cache_key`'s, and that the entry `execute_cached`
/// answered with is the one stored under that key.
fn check_keys(cache: &ShardedResultCache, queries: &[Select], paths: &mut Paths) {
    let mut seen: Vec<(Spelling, String)> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let key = query_cache_key(q);
        let spelling = Spelling::of(q);
        match cache.memoized_key(q) {
            Some(memo) => {
                assert_eq!(*memo, *key, "memo hit for {q}");
                paths.memo_hits += 1;
            }
            None => {
                paths.memo_misses += 1;
                if seen.iter().any(|(s, _)| *s == spelling) {
                    paths.dropped += 1;
                } else if seen.iter().any(|(_, k)| *k == key) {
                    paths.respelled += 1;
                }
            }
        }
        let (value, _, _) = cache.execute_cached(q, || Ok(output(i as i64))).unwrap();
        let stored = cache
            .lookup(&key)
            .expect("the answer is stored under its key");
        assert!(
            Arc::ptr_eq(&value, &stored),
            "{q}: answered from another key"
        );
        assert_eq!(cache.memoized_key(q).as_deref(), Some(&*key), "{q}");
        seen.push((spelling, key));
    }
}

/// Sessions of queries drawn, with repeats, from a few written queries and
/// their respellings, through the default cache and a 1 × 2 one. Every
/// drawn pair is checked for the spelling law too, and both of its answers
/// must occur.
#[test]
fn the_key_execute_cached_uses_is_query_cache_key() {
    let mut rng = TestRng::from_name("spelling_memo");
    let pairs = pair();
    let (mut wide, mut narrow) = (Paths::default(), Paths::default());
    let (mut identical, mut different) = (0, 0);
    for _ in 0..128 {
        let pool: Vec<Select> = (0..3)
            .flat_map(|_| {
                let (a, b) = pairs.gen(&mut rng);
                let (qa, qb) = (a.select(), b.select());
                assert_eq!(
                    Spelling::of(&qa) == Spelling::of(&qb),
                    a == b,
                    "{a:?} / {b:?}"
                );
                *if a == b {
                    &mut identical
                } else {
                    &mut different
                } += 1;
                [qa, qb]
            })
            .collect();
        let queries: Vec<Select> = (0..16)
            .map(|_| pool[rng.below(pool.len() as u64) as usize].clone())
            .collect();
        check_keys(
            &ShardedResultCache::new(CacheConfig::default()),
            &queries,
            &mut wide,
        );
        let one_by_two = ShardedResultCache::new(CacheConfig {
            shards: 1,
            capacity_per_shard: 2,
        });
        check_keys(&one_by_two, &queries, &mut narrow);
    }
    assert!(
        identical > 0 && different > 0,
        "{identical} identical pairs, {different} not"
    );
    assert!(
        wide.memo_hits > 0 && wide.respelled > 0 && wide.dropped == 0,
        "default cache: {wide:?}"
    );
    assert!(
        narrow.memo_hits > 0 && narrow.dropped > 0,
        "1 x 2 cache: {narrow:?}"
    );
}
