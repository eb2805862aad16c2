//! A `ResultSet` stores one typed column per output column; it must read
//! back, compare, cover and fingerprint exactly like the rows of `Value`s
//! it was built from (`common/row_major.rs`, the definitions it replaced).
//!
//! Generated results put NULL in every column type, Bool, Int extremes,
//! Float `-0.0`, NaN payloads, ±inf and subnormals, strings, a column
//! mixing Int and Float and one mixing every type, no columns and no rows.

mod common;

use common::row_major::Rows;
use simba_driver::fingerprint;
use simba_store::mix::splitmix64;
use simba_store::{ResultBuilder, ResultSet, Value};

struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// Every Int here is exactly an f64 or far from every Float of the pool, so
// `Value`'s order is total over the pool: two Ints that round to one f64
// next to a Float equal to it would make equality non-transitive, and no
// two definitions of a multiset need agree then.
const INTS: &[i64] = &[i64::MIN, i64::MIN + 1, -129, -1, 0, 1, 3, 1 << 40, i64::MAX];

const FLOAT_BITS: &[u64] = &[
    0x0000_0000_0000_0000, // 0.0, equal to Int(0)
    0x8000_0000_0000_0000, // -0.0
    0x7FF0_0000_0000_0000, // inf
    0xFFF0_0000_0000_0000, // -inf
    0x7FF8_0000_0000_0000, // the canonical NaN
    0x7FF8_0000_0000_BEEF, // a NaN with a payload
    0xFFF8_0000_0000_0001, // a negative NaN with a payload
    0x0000_0000_0000_0001, // the smallest subnormal
    0x8000_0000_0000_0001, // its negative
    0x4008_0000_0000_0000, // 3.0, equal to Int(3)
    0x3FE0_0000_0000_0000, // 0.5
];

const STRINGS: &[&str] = &["", "a", "A", "b", "naïve", "tab\t\"q\""];

/// Column kinds: all NULL (0), Int (1), Float (2), Bool (3), string (4),
/// Int or Float (5), any type (6); every kind but 0 is NULL a fifth of
/// the time.
const KINDS: usize = 7;

fn draw_value(d: &mut Draw, kind: usize) -> Value {
    if kind == 0 || d.below(5) == 0 {
        return Value::Null;
    }
    let int = |d: &mut Draw| Value::Int(INTS[d.below(INTS.len())]);
    let float = |d: &mut Draw| Value::Float(f64::from_bits(FLOAT_BITS[d.below(FLOAT_BITS.len())]));
    match kind {
        1 => int(d),
        2 => float(d),
        3 => Value::Bool(d.below(2) == 1),
        4 => Value::str(STRINGS[d.below(STRINGS.len())]),
        5 if d.below(2) == 0 => int(d),
        5 => float(d),
        _ => match d.below(4) {
            0 => int(d),
            1 => float(d),
            2 => Value::Bool(d.below(2) == 1),
            _ => Value::str(STRINGS[d.below(STRINGS.len())]),
        },
    }
}

/// `width` columns named `c0…` (in either case) of `rows` rows.
fn draw_rows(d: &mut Draw, width: usize, rows: usize) -> Rows {
    let columns = (0..width)
        .map(|c| {
            if d.below(2) == 0 {
                format!("c{c}")
            } else {
                format!("C{c}")
            }
        })
        .collect();
    let kinds: Vec<usize> = (0..width).map(|_| d.below(KINDS)).collect();
    let rows = (0..rows)
        .map(|_| kinds.iter().map(|&k| draw_value(d, k)).collect())
        .collect();
    Rows { columns, rows }
}

fn columnar(rows: &Rows) -> ResultSet {
    ResultSet::new(rows.columns.clone(), rows.rows.clone())
}

/// Bitwise: `Int(3)` is not `Float(3.0)`, and floats compare by bits.
fn same_bits(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Str(x), Value::Str(y)) => x == y,
            _ => false,
        })
}

fn assert_rows_bitwise(got: &[Vec<Value>], want: &[Vec<Value>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(same_bits(g, w), "{what}: row {i}: {g:?} != {w:?}");
    }
}

/// Results that relate to `rows` in the ways the coverage operations tell
/// apart: reordered, Ints turned into equal Floats, a row dropped, a row
/// repeated, projected onto some columns, and unrelated.
fn relatives(d: &mut Draw, rows: &Rows) -> Vec<Rows> {
    let mut out = Vec::new();
    let mut shuffled = rows.clone();
    for i in (1..shuffled.rows.len()).rev() {
        let j = d.below(i + 1);
        shuffled.rows.swap(i, j);
    }
    out.push(shuffled);
    let mut floated = rows.clone();
    for row in &mut floated.rows {
        for v in row {
            if let Value::Int(x @ (0 | 1 | 3)) = v {
                *v = Value::Float(*x as f64);
            }
        }
    }
    out.push(floated);
    if !rows.rows.is_empty() {
        let mut dropped = rows.clone();
        dropped.rows.remove(d.below(rows.rows.len()));
        out.push(dropped);
        let mut repeated = rows.clone();
        let again = rows.rows[d.below(rows.rows.len())].clone();
        repeated.rows.push(again);
        out.push(repeated);
    }
    let width = rows.columns.len();
    if width > 0 {
        let keep: Vec<usize> = (0..width).filter(|_| d.below(2) == 0).collect();
        let mut keep = if keep.is_empty() { vec![0] } else { keep };
        keep.reverse();
        let projected = Rows {
            columns: keep
                .iter()
                .map(|&c| rows.columns[c].to_lowercase())
                .collect(),
            rows: rows
                .rows
                .iter()
                .filter(|_| d.below(3) != 0)
                .map(|r| keep.iter().map(|&c| r[c].clone()).collect())
                .collect(),
        };
        out.push(projected);
    }
    let n = d.below(6);
    out.push(draw_rows(d, width, n));
    out
}

#[test]
fn columnar_results_match_their_row_major_definitions() {
    for seed in 0..3000u64 {
        let mut d = Draw(seed);
        let width = d.below(5);
        let n = if seed % 50 == 0 { 0 } else { d.below(24) };
        let rows = draw_rows(&mut d, width, n);
        let rs = columnar(&rows);
        let what = format!("seed {seed}: {rows:?}");

        // The builder, fed cell by cell, builds what `new` builds.
        let mut b = ResultBuilder::new(width);
        for row in &rows.rows {
            for v in row {
                b.push(v.clone());
            }
            b.end_row();
        }
        let built = b.finish(rows.columns.clone());

        // Reading back: the row iterator, `row`, `value` and `get_ref`.
        for set in [&rs, &built] {
            assert_eq!((set.n_rows(), set.n_cols()), (n, width), "{what}");
            assert_eq!(set.columns(), &rows.columns[..], "{what}");
            let read: Vec<Vec<Value>> = set.rows().map(|r| r.to_vec()).collect();
            assert_rows_bitwise(&read, &rows.rows, &what);
            for (i, row) in rows.rows.iter().enumerate() {
                let by_value: Vec<Value> = (0..width).map(|c| set.value(i, c)).collect();
                assert!(same_bits(&by_value, row), "{what}: value({i}, _)");
                assert!(same_bits(&set.row(i).to_vec(), row), "{what}: row({i})");
                for (c, v) in row.iter().enumerate() {
                    let shown = format!("{:?}", set.row(i).get_ref(c));
                    assert_eq!(shown, format!("{v:?}"), "{what}: get_ref({i}, {c})");
                }
            }
            // `Debug` prints what the row-major struct printed.
            assert_eq!(
                format!("{set:?}"),
                format!(
                    "ResultSet {{ columns: {:?}, rows: {:?} }}",
                    rows.columns, rows.rows
                ),
                "{what}"
            );
        }

        assert_rows_bitwise(&rs.sorted_rows(), &rows.sorted_rows(), &what);
        assert_eq!(fingerprint(&rs), rows.fingerprint(), "{what}");
        assert!(rs == built, "{what}");

        for other in relatives(&mut d, &rows) {
            let theirs = columnar(&other);
            let pair = format!("{what} against {other:?}");
            assert_eq!(rs == theirs, rows.eq(&other), "== {pair}");
            assert_eq!(rs.multiset_eq(&theirs), rows.multiset_eq(&other), "{pair}");
            assert_eq!(theirs.multiset_eq(&rs), other.multiset_eq(&rows), "{pair}");
            assert_eq!(
                rs.covered_rows(&theirs),
                rows.covered_rows(&other),
                "{pair}"
            );
            assert_eq!(
                theirs.covered_rows(&rs),
                other.covered_rows(&rows),
                "{pair}"
            );
            assert_eq!(rs.subsumes(&theirs), rows.subsumes(&other), "{pair}");
            assert_eq!(theirs.subsumes(&rs), other.subsumes(&rows), "{pair}");
            assert_eq!(fingerprint(&theirs), other.fingerprint(), "{pair}");
        }
    }
}

/// A column changes layout as values arrive, the same way however the rows
/// are split between builders that are then appended.
#[test]
fn appended_builders_hold_what_one_builder_holds() {
    for seed in 0..500u64 {
        let mut d = Draw(seed);
        let width = 1 + d.below(4);
        let n = d.below(30);
        let rows = draw_rows(&mut d, width, n);
        let cut = d.below(n + 1);
        let mut head = ResultBuilder::new(width);
        let mut tail = ResultBuilder::new(width);
        for (i, row) in rows.rows.iter().enumerate() {
            let into = if i < cut { &mut head } else { &mut tail };
            into.push_row(row.iter().cloned());
        }
        head.append(tail);
        let appended = head.finish(rows.columns.clone());
        let read: Vec<Vec<Value>> = appended.rows().map(|r| r.to_vec()).collect();
        assert_rows_bitwise(&read, &rows.rows, &format!("seed {seed}"));
        assert_eq!(
            format!("{appended:?}"),
            format!("{:?}", columnar(&rows)),
            "seed {seed}"
        );
    }
}
