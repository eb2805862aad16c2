//! Compiled expressions and the shared scalar evaluator.
//!
//! Both engines share one *semantic* core — the same compiled expression
//! type ([`CExpr`]) and evaluator — so that they agree bit-for-bit on query
//! results (property-tested) while differing in *how* they iterate storage.
//!
//! Column references are resolved to indices at plan time; at group level the
//! same [`CExpr`] type is reused with `Col(i)` indexing into a group row of
//! `[group keys… , aggregate results…]` (any [`ColumnAccess`]: the oracle's
//! materialized row, or the group table's view of one group).

use simba_sql::{BinOp, Func, Literal, UnaryOp};
use simba_store::Value;
use std::collections::HashSet;
use std::sync::Arc;

/// Access to the columns of a (possibly virtual) row.
pub trait ColumnAccess {
    /// Value of column `idx` for the current row.
    fn value(&self, idx: usize) -> Value;
}

/// A borrowed materialized row.
pub struct RowSlice<'a>(pub &'a [Value]);

impl ColumnAccess for RowSlice<'_> {
    #[inline]
    fn value(&self, idx: usize) -> Value {
        self.0[idx].clone()
    }
}

/// Lazy positional access into a table (no row materialization).
pub struct TableRow<'a> {
    pub table: &'a simba_store::Table,
    pub row: usize,
}

impl ColumnAccess for TableRow<'_> {
    #[inline]
    fn value(&self, idx: usize) -> Value {
        self.table.column(idx).value(self.row)
    }
}

/// A literal set with a hash index for fast `IN` membership tests.
#[derive(Debug, Clone)]
pub struct ValueSet {
    values: Vec<Value>,
    index: HashSet<Value>,
}

impl ValueSet {
    pub fn new(values: Vec<Value>) -> Self {
        let index = values.iter().cloned().collect();
        Self { values, index }
    }

    pub fn contains(&self, v: &Value) -> bool {
        self.index.contains(v)
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A compiled, aggregate-free scalar expression.
#[derive(Debug, Clone)]
pub enum CExpr {
    /// Column (or virtual-row slot) reference.
    Col(usize),
    /// Constant.
    Lit(Value),
    Un {
        op: UnaryOp,
        e: Box<CExpr>,
    },
    Bin {
        l: Box<CExpr>,
        op: BinOp,
        r: Box<CExpr>,
    },
    /// Scalar function call (date parts, `BIN`, `ABS`).
    Call {
        func: Func,
        args: Vec<CExpr>,
    },
    In {
        e: Box<CExpr>,
        set: Arc<ValueSet>,
        negated: bool,
    },
    Between {
        e: Box<CExpr>,
        low: Box<CExpr>,
        high: Box<CExpr>,
        negated: bool,
    },
    IsNull {
        e: Box<CExpr>,
        negated: bool,
    },
}

impl CExpr {
    /// Convert a SQL literal to a runtime value.
    pub fn lit_value(lit: &Literal) -> Value {
        match lit {
            Literal::Null => Value::Null,
            Literal::Bool(b) => Value::Bool(*b),
            Literal::Int(v) => Value::Int(*v),
            Literal::Float(v) => Value::Float(*v),
            Literal::Str(s) => Value::str(s),
        }
    }

    /// If this is a simple `Col` reference, its index.
    pub fn as_col(&self) -> Option<usize> {
        match self {
            CExpr::Col(i) => Some(*i),
            _ => None,
        }
    }
}

/// Evaluate a compiled expression against a row. NULL propagates through
/// arithmetic and scalar functions; boolean logic is three-valued with
/// `Value::Null` standing in for UNKNOWN.
pub fn eval(e: &CExpr, row: &impl ColumnAccess) -> Value {
    match e {
        CExpr::Col(i) => row.value(*i),
        CExpr::Lit(v) => v.clone(),
        CExpr::Un { op, e } => {
            let v = eval(e, row);
            match op {
                UnaryOp::Neg => match v {
                    Value::Int(x) => Value::Int(-x),
                    Value::Float(x) => Value::Float(-x),
                    _ => Value::Null,
                },
                UnaryOp::Not => match v {
                    Value::Bool(b) => Value::Bool(!b),
                    _ => Value::Null,
                },
            }
        }
        CExpr::Bin { l, op, r } => {
            if *op == BinOp::And || *op == BinOp::Or {
                return eval_logic(l, *op, r, row);
            }
            let lv = eval(l, row);
            let rv = eval(r, row);
            if op.is_comparison() {
                // Equality uses type-class-aware semantics (mixed types are
                // not equal); ordered comparisons on mixed types are UNKNOWN.
                return match op {
                    BinOp::Eq => match lv.sql_eq(&rv) {
                        None => Value::Null,
                        Some(b) => Value::Bool(b),
                    },
                    BinOp::NotEq => match lv.sql_eq(&rv) {
                        None => Value::Null,
                        Some(b) => Value::Bool(!b),
                    },
                    _ => match lv.sql_cmp(&rv) {
                        None => Value::Null,
                        Some(ord) => Value::Bool(match op {
                            BinOp::Lt => ord == std::cmp::Ordering::Less,
                            BinOp::LtEq => ord != std::cmp::Ordering::Greater,
                            BinOp::Gt => ord == std::cmp::Ordering::Greater,
                            BinOp::GtEq => ord != std::cmp::Ordering::Less,
                            _ => unreachable!(),
                        }),
                    },
                };
            }
            eval_arith(&lv, *op, &rv)
        }
        CExpr::Call { func, args } => eval_call(*func, args, row),
        CExpr::In { e, set, negated } => {
            let v = eval(e, row);
            if v.is_null() {
                return Value::Null;
            }
            let found = set.contains(&v);
            Value::Bool(found != *negated)
        }
        CExpr::Between {
            e,
            low,
            high,
            negated,
        } => {
            let v = eval(e, row);
            let lo = eval(low, row);
            let hi = eval(high, row);
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                    Value::Bool(inside != *negated)
                }
                _ => Value::Null,
            }
        }
        CExpr::IsNull { e, negated } => {
            let v = eval(e, row);
            Value::Bool(v.is_null() != *negated)
        }
    }
}

/// Evaluate a predicate to SQL three-valued logic: `Some(true)`, `Some(false)`
/// or `None` (UNKNOWN). WHERE clauses keep a row only on `Some(true)`.
pub fn eval_predicate(e: &CExpr, row: &impl ColumnAccess) -> Option<bool> {
    match eval(e, row) {
        Value::Bool(b) => Some(b),
        Value::Null => None,
        // Non-boolean predicate results are treated as errors upstream;
        // at runtime we conservatively treat them as UNKNOWN.
        _ => None,
    }
}

fn eval_logic(l: &CExpr, op: BinOp, r: &CExpr, row: &impl ColumnAccess) -> Value {
    let lv = eval_predicate(l, row);
    match (op, lv) {
        // Short-circuit.
        (BinOp::And, Some(false)) => Value::Bool(false),
        (BinOp::Or, Some(true)) => Value::Bool(true),
        _ => {
            let rv = eval_predicate(r, row);
            match op {
                BinOp::And => match (lv, rv) {
                    (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                    (Some(true), Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                },
                BinOp::Or => match (lv, rv) {
                    (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                    (Some(false), Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                },
                _ => unreachable!(),
            }
        }
    }
}

fn eval_arith(l: &Value, op: BinOp, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    // Integer arithmetic stays integral except for division.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Float(*a as f64 / *b as f64)
                }
            }
            _ => Value::Null,
        };
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => match op {
            BinOp::Add => Value::Float(a + b),
            BinOp::Sub => Value::Float(a - b),
            BinOp::Mul => Value::Float(a * b),
            BinOp::Div => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Float(a / b)
                }
            }
            _ => Value::Null,
        },
        _ => Value::Null,
    }
}

fn eval_call(func: Func, args: &[CExpr], row: &impl ColumnAccess) -> Value {
    match func {
        Func::Year | Func::Month | Func::Day | Func::Hour | Func::DayOfWeek => {
            let v = eval(&args[0], row);
            let Some(secs) = v.as_i64() else {
                return Value::Null;
            };
            Value::Int(date_part(func, secs))
        }
        Func::Bin => {
            let v = eval(&args[0], row);
            let w = eval(&args[1], row);
            match (&v, &w) {
                // The floor of `x / b` times `b` can fall below `i64::MIN`
                // for `x` near it; a bucket that is not representable is
                // NULL, not a panic (debug) or a wrapped bucket (release).
                (Value::Int(x), Value::Int(b)) if *b > 0 => x
                    .div_euclid(*b)
                    .checked_mul(*b)
                    .map_or(Value::Null, Value::Int),
                _ => match (v.as_f64(), w.as_f64()) {
                    (Some(x), Some(b)) if b > 0.0 => Value::Float((x / b).floor() * b),
                    _ => Value::Null,
                },
            }
        }
        Func::Abs => match eval(&args[0], row) {
            // `|i64::MIN|` is not an `i64`: NULL, like the bucket above.
            Value::Int(x) => x.checked_abs().map_or(Value::Null, Value::Int),
            Value::Float(x) => Value::Float(x.abs()),
            _ => Value::Null,
        },
        // Aggregates never reach the scalar evaluator.
        _ => Value::Null,
    }
}

/// Extract a date part from epoch seconds (UTC).
pub fn date_part(func: Func, epoch_secs: i64) -> i64 {
    let days = epoch_secs.div_euclid(86_400);
    let secs_of_day = epoch_secs.rem_euclid(86_400);
    match func {
        Func::Hour => secs_of_day / 3600,
        Func::DayOfWeek => (days + 4).rem_euclid(7), // 1970-01-01 was a Thursday; 0 = Sunday
        Func::Year => civil_from_days(days).0,
        Func::Month => civil_from_days(days).1,
        Func::Day => civil_from_days(days).2,
        _ => 0,
    }
}

/// Convert days-since-epoch to (year, month, day). Howard Hinnant's
/// `civil_from_days` algorithm.
pub fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day of era [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // year of era
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // day of year
    let mp = (5 * doy + 2) / 153; // month index [0, 11], March = 0
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    (y, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(e: CExpr) -> Box<CExpr> {
        Box::new(e)
    }

    fn row(vals: Vec<Value>) -> Vec<Value> {
        vals
    }

    #[test]
    fn comparisons_three_valued() {
        let e = CExpr::Bin {
            l: b(CExpr::Col(0)),
            op: BinOp::Gt,
            r: b(CExpr::Lit(Value::Int(5))),
        };
        assert_eq!(
            eval_predicate(&e, &RowSlice(&row(vec![Value::Int(7)]))),
            Some(true)
        );
        assert_eq!(
            eval_predicate(&e, &RowSlice(&row(vec![Value::Int(3)]))),
            Some(false)
        );
        assert_eq!(eval_predicate(&e, &RowSlice(&row(vec![Value::Null]))), None);
    }

    #[test]
    fn and_short_circuits_false_with_null() {
        // FALSE AND UNKNOWN = FALSE.
        let e = CExpr::Bin {
            l: b(CExpr::Lit(Value::Bool(false))),
            op: BinOp::And,
            r: b(CExpr::Bin {
                l: b(CExpr::Lit(Value::Null)),
                op: BinOp::Eq,
                r: b(CExpr::Lit(Value::Int(1))),
            }),
        };
        assert_eq!(eval_predicate(&e, &RowSlice(&[])), Some(false));
    }

    #[test]
    fn or_with_unknown() {
        // UNKNOWN OR TRUE = TRUE; UNKNOWN OR FALSE = UNKNOWN.
        let unknown = CExpr::Bin {
            l: b(CExpr::Lit(Value::Null)),
            op: BinOp::Eq,
            r: b(CExpr::Lit(Value::Int(1))),
        };
        let t = CExpr::Bin {
            l: b(unknown.clone()),
            op: BinOp::Or,
            r: b(CExpr::Lit(Value::Bool(true))),
        };
        assert_eq!(eval_predicate(&t, &RowSlice(&[])), Some(true));
        let f = CExpr::Bin {
            l: b(unknown),
            op: BinOp::Or,
            r: b(CExpr::Lit(Value::Bool(false))),
        };
        assert_eq!(eval_predicate(&f, &RowSlice(&[])), None);
    }

    #[test]
    fn int_arithmetic_stays_integral_except_division() {
        let add = CExpr::Bin {
            l: b(CExpr::Lit(Value::Int(2))),
            op: BinOp::Add,
            r: b(CExpr::Lit(Value::Int(3))),
        };
        assert_eq!(eval(&add, &RowSlice(&[])), Value::Int(5));
        let div = CExpr::Bin {
            l: b(CExpr::Lit(Value::Int(7))),
            op: BinOp::Div,
            r: b(CExpr::Lit(Value::Int(2))),
        };
        assert_eq!(eval(&div, &RowSlice(&[])), Value::Float(3.5));
    }

    #[test]
    fn division_by_zero_is_null() {
        let div = CExpr::Bin {
            l: b(CExpr::Lit(Value::Int(7))),
            op: BinOp::Div,
            r: b(CExpr::Lit(Value::Int(0))),
        };
        assert!(eval(&div, &RowSlice(&[])).is_null());
    }

    #[test]
    fn in_set_membership() {
        let set = Arc::new(ValueSet::new(vec![Value::str("A"), Value::str("B")]));
        let e = CExpr::In {
            e: b(CExpr::Col(0)),
            set,
            negated: false,
        };
        assert_eq!(
            eval_predicate(&e, &RowSlice(&row(vec![Value::str("A")]))),
            Some(true)
        );
        assert_eq!(
            eval_predicate(&e, &RowSlice(&row(vec![Value::str("Z")]))),
            Some(false)
        );
        assert_eq!(eval_predicate(&e, &RowSlice(&row(vec![Value::Null]))), None);
    }

    #[test]
    fn between_boundaries_inclusive() {
        let e = CExpr::Between {
            e: b(CExpr::Col(0)),
            low: b(CExpr::Lit(Value::Int(1))),
            high: b(CExpr::Lit(Value::Int(5))),
            negated: false,
        };
        assert_eq!(
            eval_predicate(&e, &RowSlice(&row(vec![Value::Int(1)]))),
            Some(true)
        );
        assert_eq!(
            eval_predicate(&e, &RowSlice(&row(vec![Value::Int(5)]))),
            Some(true)
        );
        assert_eq!(
            eval_predicate(&e, &RowSlice(&row(vec![Value::Int(6)]))),
            Some(false)
        );
    }

    #[test]
    fn is_null_predicate() {
        let e = CExpr::IsNull {
            e: b(CExpr::Col(0)),
            negated: false,
        };
        assert_eq!(
            eval_predicate(&e, &RowSlice(&row(vec![Value::Null]))),
            Some(true)
        );
        assert_eq!(
            eval_predicate(&e, &RowSlice(&row(vec![Value::Int(1)]))),
            Some(false)
        );
    }

    #[test]
    fn date_parts_known_timestamp() {
        // 2021-06-15 14:30:00 UTC = 1623767400.
        let ts = 1_623_767_400i64;
        assert_eq!(date_part(Func::Year, ts), 2021);
        assert_eq!(date_part(Func::Month, ts), 6);
        assert_eq!(date_part(Func::Day, ts), 15);
        assert_eq!(date_part(Func::Hour, ts), 14);
        // 2021-06-15 was a Tuesday (0 = Sunday).
        assert_eq!(date_part(Func::DayOfWeek, ts), 2);
    }

    #[test]
    fn date_parts_epoch_start() {
        assert_eq!(date_part(Func::Year, 0), 1970);
        assert_eq!(date_part(Func::Month, 0), 1);
        assert_eq!(date_part(Func::Day, 0), 1);
        assert_eq!(date_part(Func::DayOfWeek, 0), 4); // Thursday
    }

    #[test]
    fn date_parts_pre_epoch() {
        // 1969-12-31 23:00:00 UTC = -3600.
        assert_eq!(date_part(Func::Year, -3600), 1969);
        assert_eq!(date_part(Func::Month, -3600), 12);
        assert_eq!(date_part(Func::Day, -3600), 31);
        assert_eq!(date_part(Func::Hour, -3600), 23);
    }

    #[test]
    fn bin_floors_to_multiples() {
        let e = CExpr::Call {
            func: Func::Bin,
            args: vec![CExpr::Col(0), CExpr::Lit(Value::Int(10))],
        };
        assert_eq!(
            eval(&e, &RowSlice(&row(vec![Value::Int(27)]))),
            Value::Int(20)
        );
        assert_eq!(
            eval(&e, &RowSlice(&row(vec![Value::Int(-3)]))),
            Value::Int(-10)
        );
        assert_eq!(
            eval(&e, &RowSlice(&row(vec![Value::Float(27.5)]))),
            Value::Float(20.0)
        );
    }

    #[test]
    fn bin_bucket_below_i64_min_is_null() {
        let bin = |x: i64, w: i64| {
            let e = CExpr::Call {
                func: Func::Bin,
                args: vec![CExpr::Col(0), CExpr::Lit(Value::Int(w))],
            };
            eval(&e, &RowSlice(&row(vec![Value::Int(x)])))
        };
        // floor((MIN + 1) / 3) * 3 = MIN - 2: not an i64.
        assert_eq!(bin(i64::MIN + 1, 3), Value::Null);
        assert_eq!(bin(i64::MIN, 3), Value::Null);
        assert_eq!(bin(i64::MIN, i64::MAX), Value::Null);
        // The lowest bucket that is representable still is one.
        assert_eq!(bin(i64::MIN, 2), Value::Int(i64::MIN));
        assert_eq!(bin(i64::MIN + 2, 3), Value::Int(i64::MIN + 2));
        assert_eq!(bin(i64::MIN, 1), Value::Int(i64::MIN));
        assert_eq!(bin(i64::MAX, 3), Value::Int(i64::MAX - 1));
        assert_eq!(bin(i64::MAX, i64::MAX), Value::Int(i64::MAX));
        assert_eq!(bin(-1, i64::MAX), Value::Int(-i64::MAX));
    }

    #[test]
    fn abs_of_i64_min_is_null() {
        let e = CExpr::Call {
            func: Func::Abs,
            args: vec![CExpr::Col(0)],
        };
        let abs = |x: i64| eval(&e, &RowSlice(&row(vec![Value::Int(x)])));
        assert_eq!(abs(i64::MIN), Value::Null);
        assert_eq!(abs(i64::MIN + 1), Value::Int(i64::MAX));
        assert_eq!(abs(i64::MAX), Value::Int(i64::MAX));
    }

    #[test]
    fn abs_function() {
        let e = CExpr::Call {
            func: Func::Abs,
            args: vec![CExpr::Col(0)],
        };
        assert_eq!(
            eval(&e, &RowSlice(&row(vec![Value::Int(-4)]))),
            Value::Int(4)
        );
        assert_eq!(
            eval(&e, &RowSlice(&row(vec![Value::Float(-1.5)]))),
            Value::Float(1.5)
        );
    }

    #[test]
    fn string_number_comparison_is_unknown() {
        let e = CExpr::Bin {
            l: b(CExpr::Lit(Value::str("a"))),
            op: BinOp::Lt,
            r: b(CExpr::Lit(Value::Int(1))),
        };
        assert_eq!(eval_predicate(&e, &RowSlice(&[])), None);
    }

    #[test]
    fn civil_from_days_leap_years() {
        // 2020-02-29 = 18321 days after epoch.
        assert_eq!(civil_from_days(18_321), (2020, 2, 29));
        // 2000-03-01.
        assert_eq!(civil_from_days(11_017), (2000, 3, 1));
    }
}
